// pair_perfbench: runs one benchmark workload and prints its metrics.
//
//   pair_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--size full|tiny] [--digests FILE] [--work-dir DIR]
//                  [--git-commit SHA]
//
// Untraced (--trace 0): set up kSetupRepeats times, then run whole batches
// until --seconds have passed, checking every operation's digest (against
// expected_digests.json at the recorded seed, and against the first batch
// always), then the one-thread / independent-path reference and a short
// replay. Traced (--trace 1): one untraced and one telemetry-attached
// campaign plus the serial layer replay. The last stdout line is the
// result object; earlier lines are a readable summary and run meta.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/gf_batch.hpp"
#include "perfbench.hpp"
#include "telemetry/json.hpp"

using namespace pair_ecc;
using namespace pair_ecc::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string digests = "perfbench/expected_digests.json";
  std::string work_dir = ".bench_build/work";
  std::string git_commit = "unknown";
};

std::uint64_t ParseU64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size())
    throw std::invalid_argument(flag + " wants an unsigned integer, got '" +
                                text + "'");
  return v;
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = ParseU64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(ParseU64(flag, value));
      if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace wants 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size wants full or tiny");
      o.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--digests") {
      o.digests = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--git-commit") {
      o.git_commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image, from VmHWM: getrusage's
/// ru_maxrss survives execve, so it would include a launcher's memory.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string Number(double v) { return telemetry::FormatJsonNumber(v); }

/// JSON string literal (names, digests and error-free meta only need
/// quotes and backslashes escaped; control characters are dropped).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Reports every failed op on stderr; returns how many failed.
std::uint64_t CountFailed(const std::vector<OpResult>& ops,
                          const std::string& where) {
  std::uint64_t failed = 0;
  for (const OpResult& op : ops) {
    if (op.error.empty()) continue;
    ++failed;
    std::cerr << "perfbench: " << where << " op " << op.name
              << " FAILED: " << op.error << "\n";
  }
  return failed;
}

struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<OpResult> ops;  ///< first batch, for the meta digests
  std::size_t batches = 0;
  bool replay_failed = false;
};

/// Marks digest mismatches against the recording when `seed` is the
/// recorded one; a missing recording at that seed fails every op.
void CheckRecorded(std::vector<OpResult>& ops, const Options& o,
                   const ExpectedDigests& expected) {
  if (o.seed != expected.seed) return;
  static const std::map<std::string, std::string> kNone;
  const auto* table = expected.Find(o.size, o.workload);
  CheckDigests(ops, table != nullptr ? *table : kNone);
}

std::vector<std::string> RunReplay(Workload& wl, bool traced,
                                   const Batch& campaign, Metrics& layers) {
  const unsigned trials = wl.ReplayTrials(traced);
  if (trials == 0) return {};
  std::vector<std::string> mismatches = wl.Replay(trials, campaign, layers);
  for (const std::string& m : mismatches)
    std::cerr << "perfbench: replay FAILED: " << m << "\n";
  return mismatches;
}

RunResult Untraced(Workload& wl, const Options& o,
                   const ExpectedDigests& expected) {
  RunResult out;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    wl.Setup();
    setup.push_back(SecondsSince(start));
  }

  std::vector<Batch> batches;
  const Clock::time_point measure = Clock::now();
  do {
    batches.push_back(wl.Run(kEngineThreads, nullptr));
  } while (SecondsSince(measure) < o.seconds);

  // Every batch must match the recording (at its seed) and batch 0; batch
  // 0 must also match the reference path.
  for (std::size_t i = 0; i < batches.size(); ++i) {
    CheckRecorded(batches[i].ops, o, expected);
    if (i > 0) CheckAgainst(batches[i].ops, batches[0].ops, "batch 0");
  }
  CheckAgainst(batches[0].ops, wl.Reference(), "reference path");
  Metrics scratch;
  const std::size_t mismatches =
      RunReplay(wl, /*traced=*/false, batches[0], scratch).size();

  for (std::size_t i = 0; i < batches.size(); ++i) {
    out.attempted += batches[i].ops.size();
    out.failed += CountFailed(batches[i].ops, "batch " + std::to_string(i));
  }
  out.failed = std::min(out.attempted, out.failed + mismatches);
  out.replay_failed = mismatches != 0;
  out.ops = batches[0].ops;
  out.batches = batches.size();
  const double batch_s = TypicalBatchSeconds(batches);
  out.metrics["trials_per_s"] = {
      static_cast<double>(batches[0].trials) / batch_s, "1/s"};
  out.metrics["requests_per_s"] = {
      static_cast<double>(batches[0].requests) / batch_s, "1/s"};
  out.metrics["setup_s"] = {Median(setup), "s"};
  out.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return out;
}

RunResult Traced(Workload& wl, const Options& o,
                 const ExpectedDigests& expected) {
  RunResult out;
  wl.Setup();
  Clock::time_point start = Clock::now();
  Batch untraced = wl.Run(kEngineThreads, nullptr);
  const double untraced_s = SecondsSince(start);
  std::vector<reliability::EngineMetrics> engine;
  start = Clock::now();
  Batch traced = wl.Run(kEngineThreads, &engine);
  const double traced_s = SecondsSince(start);

  CheckRecorded(untraced.ops, o, expected);
  CheckAgainst(traced.ops, untraced.ops, "untraced campaign");
  const std::vector<std::string> mismatches =
      RunReplay(wl, /*traced=*/true, untraced, out.metrics);
  AddEngineMetrics(engine, out.metrics);
  out.metrics["trace.overhead_ratio"] = {traced_s / untraced_s, "ratio"};
  // Layers this workload never calls read 0.
  for (const MetricSpec& spec : PerLayerMetrics())
    out.metrics.try_emplace(spec.name, Metric{0.0, spec.unit});

  out.attempted = untraced.ops.size() + traced.ops.size();
  out.failed = CountFailed(untraced.ops, "untraced campaign") +
               CountFailed(traced.ops, "traced campaign");
  out.failed = std::min(out.attempted, out.failed + mismatches.size());
  out.replay_failed = !mismatches.empty();
  out.ops = untraced.ops;
  out.batches = 2;
  return out;
}

void Print(const RunResult& out, const Options& o) {
  const std::span<const MetricSpec> names =
      o.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::cout << "perfbench " << o.workload << " (seed " << o.seed << ", size "
            << ToString(o.size) << ", " << out.batches << " batches)\n";
  for (const MetricSpec& spec : names) {
    const Metric& m = out.metrics.at(spec.name);
    std::printf("  %-34s %16s %s\n", spec.name, Number(m.value).c_str(),
                m.unit.c_str());
  }
  const std::string failed_ratio = Number(
      static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  std::printf("  %-34s %16s %s\n", "failed_ops_ratio", failed_ratio.c_str(),
              "ratio");

  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": " << Quote(o.workload)
       << ", \"seed\": " << o.seed << ", \"size\": "
       << Quote(ToString(o.size)) << ", \"gf_kernel\": "
       << Quote(gf::SelectKernels(gf::GfField::Get(8)).name)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"engine_threads\": "
       << (o.workload == "trace_timing" ? 1 : kEngineThreads)
       << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
       << ", \"git_commit\": " << Quote(o.git_commit)
       << ", \"failed_ops_ratio\": " << failed_ratio << ", \"digests\": {";
  for (std::size_t i = 0; i < out.ops.size(); ++i)
    meta << (i ? ", " : "") << Quote(out.ops[i].name) << ": "
         << Quote(out.ops[i].digest);
  meta << "}}}";
  std::cout << meta.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = out.metrics.at(names[i].name);
    result << (i ? ", " : "") << Quote(names[i].name) << ": {\"value\": "
           << Number(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::unique_ptr<Workload> wl;
  ExpectedDigests expected;
  try {
    o = Parse(argc, argv);
    wl = MakeWorkload(o.workload, o.seed, o.size, o.work_dir);
    if (!wl) throw std::invalid_argument("unknown workload " + o.workload);
    expected = ExpectedDigests::Load(o.digests);
  } catch (const std::exception& e) {
    std::cerr << "pair_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    const RunResult out = o.trace ? Traced(*wl, o, expected)
                                  : Untraced(*wl, o, expected);
    Print(out, o);
    // A traced replay that does not reproduce the campaign fails loudly.
    return out.replay_failed && o.trace ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "pair_perfbench: " << o.workload << ": " << e.what() << "\n";
    return 1;
  }
}
