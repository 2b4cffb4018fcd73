#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "reliability/campaign.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/outcome.hpp"
#include "reliability/telemetry.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/json.hpp"
#include "timing/controller.hpp"
#include "timing/timing_params.hpp"
#include "util/atomic_file.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workload/byte_source.hpp"
#include "workload/generator.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

namespace pair_ecc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans from the benchmark's side of each layer boundary: accumulated
/// wall seconds per layer name.
class Spans {
 public:
  template <typename F>
  void Time(const std::string& name, F&& body) {
    const Clock::time_point start = Clock::now();
    body();
    seconds_[name] += SecondsSince(start);
  }
  double Seconds(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Set(Metrics& m, const std::string& name, double value) {
  m[name] = {value, PerLayerUnit(name)};
}

/// Records `<span>.s` and `<span>.share` for each span and checks that the
/// spans cover at least 0.9 of `wall` (else untimed work is hiding).
void AddSpans(const std::vector<std::pair<std::string, double>>& spans,
              double wall, Metrics& layers,
              std::vector<std::string>& mismatches) {
  double covered = 0.0;
  for (const auto& [name, seconds] : spans) {
    Set(layers, name + ".s", seconds);
    Set(layers, name + ".share", Ratio(seconds, wall));
    covered += seconds;
  }
  if (covered < 0.9 * wall)
    mismatches.push_back("span shares sum to " +
                         std::to_string(Ratio(covered, wall)) +
                         " of replay wall time (< 0.9)");
}

template <typename F>
OpResult RunOp(std::string name, F&& body) {
  OpResult op{std::move(name), {}, {}, 0.0};
  const Clock::time_point start = Clock::now();
  try {
    op.digest = body();
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.seconds = SecondsSince(start);
  return op;
}

std::string Digest(const telemetry::JsonValue& value) {
  return util::Crc32Hex(value.Dump());
}

// ------------------------------------------------------------------ mc_*

/// Reliability Monte-Carlo with F1's conditional set-up: one row of four
/// lines, the inherent fault mix, N = 1..4 faults, config seed = seed + N.
class McWorkload final : public Workload {
 public:
  McWorkload(std::vector<ecc::SchemeKind> schemes, std::uint64_t seed,
             unsigned trials, unsigned replay_untraced, unsigned replay_traced)
      : schemes_(std::move(schemes)),
        seed_(seed),
        trials_(trials),
        replay_untraced_(replay_untraced),
        replay_traced_(replay_traced) {}

  void Setup() override {
    configs_.clear();
    for (const ecc::SchemeKind kind : schemes_) {
      for (unsigned n = 1; n <= kMaxFaults; ++n) {
        reliability::ScenarioConfig cfg;
        cfg.scheme = kind;
        cfg.mix = faults::FaultMix::Inherent();
        cfg.faults_per_trial = n;
        cfg.working_rows = 1;
        cfg.lines_per_row = 4;
        cfg.seed = seed_ + n;
        cfg.threads = 1;
        configs_.push_back(cfg);
        // Warm-up: one shard per config triggers every lazy table. At a
        // fixed seed, so set-up does the same work whatever the run seed.
        cfg.seed = kDefaultSeed + n;
        reliability::RunMonteCarlo(cfg, reliability::TrialEngine::kShardTrials);
      }
    }
  }

  Batch Run(unsigned threads,
            std::vector<reliability::EngineMetrics>* engine) override {
    Batch batch;
    for (reliability::ScenarioConfig cfg : configs_) {
      cfg.threads = threads;
      batch.ops.push_back(RunOp(OpName(cfg), [&] {
        reliability::ScenarioTelemetry tel;
        const reliability::OutcomeCounts counts = reliability::RunMonteCarlo(
            cfg, trials_, engine != nullptr ? &tel : nullptr);
        if (engine != nullptr) engine->push_back(tel.engine);
        batch.requests += 2 * counts.reads;  // every line written, read back
        return Digest(reliability::OutcomeCountsToJson(counts));
      }));
      batch.trials += trials_;
    }
    return batch;
  }

  std::vector<OpResult> Reference() override { return Run(1, nullptr).ops; }

  unsigned ReplayTrials(bool traced) const override {
    return traced ? replay_traced_ : replay_untraced_;
  }

  std::vector<std::string> Replay(unsigned trials, const Batch& /*campaign*/,
                                  Metrics& layers) override {
    Spans spans;
    reliability::TrialTelemetry total;
    std::vector<std::string> mismatches;
    double wall = 0.0, probe_s = 0.0;
    std::uint64_t lines = 0;
    for (const reliability::ScenarioConfig& cfg : configs_) {
      const reliability::WorkingSet ws =
          reliability::MakeScenarioWorkingSet(cfg);
      reliability::ScenarioShardState replay;
      std::vector<ecc::ReadResult> results(ws.addrs.size());
      std::vector<util::BitVec> truth;
      util::Xoshiro256 master(cfg.seed);
      const Clock::time_point start = Clock::now();
      for (unsigned t = 0; t < trials; ++t) {
        // Trial t's stream exactly as the engine derives it.
        util::Xoshiro256 rng(master());
        std::unique_ptr<dram::Rank> rank;
        std::unique_ptr<ecc::Scheme> scheme;
        std::optional<faults::Injector> injector;
        spans.Time("ecc.build", [&] {
          rank = std::make_unique<dram::Rank>(cfg.geometry);
          scheme = ecc::MakeScheme(cfg.scheme, *rank);
        });
        spans.Time("util.truth_draw", [&] {
          truth.clear();
          for (std::size_t i = 0; i < ws.addrs.size(); ++i)
            truth.push_back(
                util::BitVec::Random(cfg.geometry.LineBits(), rng));
        });
        spans.Time("ecc.write_lines",
                   [&] { scheme->WriteLines(ws.addrs, truth); });
        spans.Time("faults.inject", [&] {
          injector.emplace(*rank, ws.rows);
          for (unsigned f = 0; f < cfg.faults_per_trial; ++f)
            injector->InjectFromMix(cfg.mix, rng);
        });
        spans.Time("ecc.read_lines",
                   [&] { scheme->ReadLines(ws.addrs, results); });
        spans.Time("reliability.classify", [&] {
          Classify(results, truth, replay);
          replay.tel.codec += scheme->counters();
          replay.tel.injection += injector->counters();
        });
        // Raw storage probe of the same lines: reported on its own and
        // kept out of the replay wall time.
        const Clock::time_point probe = Clock::now();
        for (const dram::Address& addr : ws.addrs) rank->ReadLine(addr);
        const double probe_trial = SecondsSince(probe);
        probe_s += probe_trial;
        wall -= probe_trial;
        lines += ws.addrs.size();
        spans.Time("ecc.build", [&] {
          injector.reset();
          scheme.reset();
          rank.reset();
        });
      }
      wall += SecondsSince(start);

      reliability::ScenarioConfig campaign_cfg = cfg;
      campaign_cfg.threads = kEngineThreads;
      reliability::ScenarioTelemetry tel;
      const reliability::OutcomeCounts counts =
          reliability::RunMonteCarlo(campaign_cfg, trials, &tel);
      if (!(counts == replay.counts && tel.trial == replay.tel))
        mismatches.push_back(OpName(cfg) + ": replay of " +
                             std::to_string(trials) +
                             " trials differs from the campaign");
      total += replay.tel;
    }

    AddSpans({{"ecc.build", spans.Seconds("ecc.build")},
              {"util.truth_draw", spans.Seconds("util.truth_draw")},
              {"ecc.write_lines", spans.Seconds("ecc.write_lines")},
              {"faults.inject", spans.Seconds("faults.inject")},
              {"ecc.read_lines", spans.Seconds("ecc.read_lines")},
              {"reliability.classify", spans.Seconds("reliability.classify")}},
             wall, layers, mismatches);
    const double n_lines = static_cast<double>(lines);
    Set(layers, "ecc.write_us_per_line",
        1e6 * Ratio(spans.Seconds("ecc.write_lines"), n_lines));
    Set(layers, "ecc.read_us_per_line",
        1e6 * Ratio(spans.Seconds("ecc.read_lines"), n_lines));
    const ecc::CodecCounters& codec = total.codec;
    Set(layers, "ecc.lines_read", static_cast<double>(codec.decodes));
    Set(layers, "ecc.claim_corrected",
        static_cast<double>(codec.claim_corrected));
    Set(layers, "ecc.claim_detected",
        static_cast<double>(codec.claim_detected));
    Set(layers, "ecc.corrected_units",
        static_cast<double>(codec.corrected_units));
    Set(layers, "ecc.corrected_ratio",
        Ratio(static_cast<double>(codec.claim_corrected),
              static_cast<double>(codec.decodes)));
    Set(layers, "ecc.detected_ratio",
        Ratio(static_cast<double>(codec.claim_detected),
              static_cast<double>(codec.decodes)));
    Set(layers, "faults.injected", static_cast<double>(total.injection.total));
    Set(layers, "faults.permanent",
        static_cast<double>(total.injection.permanent));
    Set(layers, "dram.read_line.s", probe_s);
    Set(layers, "dram.read_us_per_line", 1e6 * Ratio(probe_s, n_lines));
    return mismatches;
  }

 private:
  static constexpr unsigned kMaxFaults = 4;

  static std::string OpName(const reliability::ScenarioConfig& cfg) {
    return ecc::ToString(cfg.scheme) + "/N=" +
           std::to_string(cfg.faults_per_trial);
  }

  /// The classification loop of reliability::RunScenarioTrial.
  static void Classify(const std::vector<ecc::ReadResult>& results,
                       const std::vector<util::BitVec>& truth,
                       reliability::ScenarioShardState& acc) {
    reliability::OutcomeCounts& counts = acc.counts;
    bool any_sdc = false, any_due = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const reliability::Outcome outcome =
          reliability::Classify(results[i].claim, results[i].data, truth[i]);
      counts.Add(outcome);
      acc.tel.corrected_units.Record(results[i].corrected_units);
      any_sdc |= reliability::IsSdc(outcome);
      any_due |= outcome == reliability::Outcome::kDue;
    }
    ++counts.trials;
    counts.trials_with_sdc += any_sdc;
    counts.trials_with_due += any_due;
    counts.trials_with_failure += (any_sdc || any_due);
  }

  std::vector<ecc::SchemeKind> schemes_;
  std::uint64_t seed_;
  unsigned trials_;
  unsigned replay_untraced_;
  unsigned replay_traced_;
  std::vector<reliability::ScenarioConfig> configs_;
};

// ----------------------------------------------------------- system_pair

/// Functional-only re-simulation: MemorySystem::Run skips the timing pass
/// when an observer is attached; this one never aborts or draws.
class PassThrough final : public sim::DemandReadObserver {
 public:
  bool OnDemandRead(reliability::Outcome /*outcome*/,
                    util::Xoshiro256& /*rng*/) override {
    return true;
  }
};

/// F11's PAIR-4 base configuration as a system campaign.
class SystemWorkload final : public Workload {
 public:
  SystemWorkload(std::uint64_t seed, unsigned trials, unsigned replay_untraced,
                 unsigned replay_traced)
      : seed_(seed),
        trials_(trials),
        replay_untraced_(replay_untraced),
        replay_traced_(replay_traced) {}

  void Setup() override {
    config_ = sim::SystemConfig{};
    config_.scheme = ecc::SchemeKind::kPair4;
    config_.mix = faults::FaultMix::Inherent();
    config_.faults_per_mcycle = 150.0;
    config_.scrub.interval_cycles = 4000;
    config_.repair.due_threshold = 2;
    config_.seed = kDefaultSeed;
    config_.threads = 1;

    // F11's demand trace at F11's seed for every run: with only 120
    // requests per trial, a seeded trace's read/write mix would move host
    // cost by several percent from seed to seed. The run seed drives the
    // fault process, scrub and repair.
    workload::WorkloadConfig wl;
    wl.pattern = workload::Pattern::kHotspot;
    wl.read_fraction = 0.67;
    wl.intensity = 0.05;
    wl.num_requests = 120;
    wl.seed = kDefaultSeed;
    demand_ = workload::Generate(wl);
    // Warm-up at a fixed seed, so set-up does the same work every run.
    sim::RunSystemCampaign(config_, demand_, kWarmupTrials);
    config_.seed = seed_;
  }

  Batch Run(unsigned threads,
            std::vector<reliability::EngineMetrics>* engine) override {
    Batch batch;
    sim::SystemConfig cfg = config_;
    cfg.threads = threads;
    batch.ops.push_back(RunOp("PAIR-4/system", [&] {
      reliability::ScenarioTelemetry tel;
      const sim::SystemStats stats = sim::RunSystemCampaign(
          cfg, demand_, trials_, engine != nullptr ? &tel : nullptr);
      if (engine != nullptr) engine->push_back(tel.engine);
      if (stats.protocol_violations != 0)
        throw std::runtime_error(std::to_string(stats.protocol_violations) +
                                 " DRAM protocol violations");
      return Digest(sim::SystemStatsToJson(stats));
    }));
    batch.trials = trials_;
    batch.requests = std::uint64_t{trials_} * demand_.size();
    return batch;
  }

  std::vector<OpResult> Reference() override { return Run(1, nullptr).ops; }

  unsigned ReplayTrials(bool traced) const override {
    return traced ? replay_traced_ : replay_untraced_;
  }

  std::vector<std::string> Replay(unsigned trials, const Batch& /*campaign*/,
                                  Metrics& layers) override {
    const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(config_);
    Spans spans;
    sim::SystemShardState replay;
    PassThrough pass_through;
    double wall = 0.0, full_run = 0.0;
    util::Xoshiro256 master(config_.seed);
    for (unsigned t = 0; t < trials; ++t) {
      const std::uint64_t sub_seed = master();
      {
        // Functional-only probe from the same sub-seed; its build is not
        // part of the replay wall time.
        util::Xoshiro256 rng(sub_seed);
        sim::MemorySystem system(config_, ws, demand_, rng);
        sim::SystemStats partial;
        reliability::TrialTelemetry partial_tel;
        spans.Time("sim.functional",
                   [&] { system.Run(partial, partial_tel, &pass_through); });
      }
      const Clock::time_point start = Clock::now();
      util::Xoshiro256 rng(sub_seed);
      std::optional<sim::MemorySystem> system;
      spans.Time("sim.build",
                 [&] { system.emplace(config_, ws, demand_, rng); });
      const Clock::time_point run_start = Clock::now();
      system->Run(replay.stats, replay.tel);
      full_run += SecondsSince(run_start);
      spans.Time("sim.build", [&] { system.reset(); });
      wall += SecondsSince(start);
    }

    std::vector<std::string> mismatches;
    sim::SystemConfig campaign_cfg = config_;
    campaign_cfg.threads = kEngineThreads;
    reliability::ScenarioTelemetry tel;
    const sim::SystemStats stats =
        sim::RunSystemCampaign(campaign_cfg, demand_, trials, &tel);
    if (!(stats == replay.stats && tel.trial == replay.tel))
      mismatches.push_back("PAIR-4/system: replay of " +
                           std::to_string(trials) +
                           " trials differs from the campaign");

    const double functional = spans.Seconds("sim.functional");
    AddSpans({{"sim.build", spans.Seconds("sim.build")},
              {"sim.functional", functional},
              {"sim.timing_pass", std::max(0.0, full_run - functional)}},
             wall, layers, mismatches);
    const sim::SystemStats& s = replay.stats;
    Set(layers, "sim.us_per_demand_request",
        1e6 * Ratio(wall, static_cast<double>(trials) *
                              static_cast<double>(demand_.size())));
    Set(layers, "sim.ns_per_sim_cycle",
        1e9 * Ratio(wall, static_cast<double>(s.sim_cycles)));
    Set(layers, "sim.demand_reads", static_cast<double>(s.demand_reads));
    Set(layers, "sim.demand_writes", static_cast<double>(s.demand_writes));
    Set(layers, "sim.faults_injected", static_cast<double>(s.faults_injected));
    Set(layers, "sim.scrub_rows", static_cast<double>(s.scrub_rows_scrubbed));
    Set(layers, "sim.demand_writebacks",
        static_cast<double>(s.demand_writebacks));
    Set(layers, "sim.repairs_attempted",
        static_cast<double>(s.repair.repairs_attempted));
    Set(layers, "sim.rows_spared", static_cast<double>(s.repair.rows_spared));
    Set(layers, "sim.repair_success_ratio",
        Ratio(static_cast<double>(s.repair.rows_spared),
              static_cast<double>(s.repair.repairs_attempted)));
    Set(layers, "timing.bus_reads", static_cast<double>(s.bus_reads));
    Set(layers, "timing.bus_writes", static_cast<double>(s.bus_writes));
    Set(layers, "timing.protocol_violations",
        static_cast<double>(s.protocol_violations));
    Set(layers, "timing.row_hit_ratio",
        Ratio(static_cast<double>(s.row_hits),
              static_cast<double>(s.row_hits + s.row_misses +
                                  s.row_conflicts)));
    return mismatches;
  }

 private:
  static constexpr unsigned kWarmupTrials = 4;

  std::uint64_t seed_;
  unsigned trials_;
  unsigned replay_untraced_;
  unsigned replay_traced_;
  sim::SystemConfig config_;
  timing::Trace demand_;
};

// ---------------------------------------------------------- trace_timing

/// F4's performance question on a streamed trace: a gzip'd tensor stream
/// read through workload::OpenTraceStream into the DDR4-3200 FR-FCFS
/// controller, once per scheme timing descriptor.
class TraceWorkload final : public Workload {
 public:
  TraceWorkload(std::uint64_t seed, std::uint64_t requests,
                const std::string& work_dir)
      : path_((std::filesystem::path(work_dir) /
               ("tensor_" + std::to_string(requests) + ".trace.gz"))
                  .string()) {
    stream_.kind = workload::StreamKind::kTensorStream;
    stream_.num_requests = requests;
    stream_.seed = seed;
    stream_.Validate();
  }

  void Setup() override {
    timings_.clear();
    for (const ecc::SchemeKind kind : ecc::AllSchemeKinds()) {
      dram::Rank rank{dram::RankGeometry{}};
      const auto scheme = ecc::MakeScheme(kind, rank);
      timings_.emplace_back(
          kind, timing::SchemeTiming::FromPerf(scheme->Perf(), params_));
    }
    WriteTrace();
  }

  Batch Run(unsigned /*threads*/,
            std::vector<reliability::EngineMetrics>* /*engine*/) override {
    return RunAll([this] { return workload::OpenTraceStream(path_); });
  }

  std::vector<OpResult> Reference() override {
    return RunAll([this] { return workload::MakeStream(stream_); }).ops;
  }

  unsigned ReplayTrials(bool traced) const override { return traced ? 1 : 0; }

  std::vector<std::string> Replay(unsigned /*trials*/, const Batch& campaign,
                                  Metrics& layers) override {
    std::vector<std::string> mismatches;
    double parse = 0.0, wall = 0.0, busy = 0.0;
    std::uint64_t requests = 0, per_pass = 0, cycles = 0, hits = 0,
                  activations = 0;
    for (std::size_t i = 0; i < timings_.size(); ++i) {
      // Drain-only pass: the parse cost alone.
      const Clock::time_point drain = Clock::now();
      const auto stream = workload::OpenTraceStream(path_);
      timing::Request req;
      per_pass = 0;
      while (stream->Next(req)) ++per_pass;
      parse += SecondsSince(drain);

      const Clock::time_point start = Clock::now();
      timing::SimStats stats;
      const OpResult op = RunOne(
          i, [this] { return workload::OpenTraceStream(path_); }, stats);
      wall += SecondsSince(start);
      if (i >= campaign.ops.size() || op.digest != campaign.ops[i].digest ||
          !op.error.empty())
        mismatches.push_back(op.name + ": traced pass differs from the "
                             "untraced campaign" +
                             (op.error.empty() ? "" : " (" + op.error + ")"));
      requests += stats.reads + stats.writes;
      cycles += stats.cycles;
      busy += stats.bus_utilization * static_cast<double>(stats.cycles);
      hits += stats.row_hits;
      activations += stats.row_hits + stats.row_misses + stats.row_conflicts;
    }
    const double controller = std::max(0.0, wall - parse);
    AddSpans({{"workload.parse", parse}, {"timing.controller", controller}},
             wall, layers, mismatches);
    const double n = static_cast<double>(requests);
    Set(layers, "workload.ns_per_request", 1e9 * Ratio(parse, n));
    Set(layers, "timing.ns_per_request", 1e9 * Ratio(controller, n));
    Set(layers, "workload.compressed_bytes",
        static_cast<double>(std::filesystem::file_size(path_)));
    Set(layers, "timing.requests", static_cast<double>(per_pass));
    Set(layers, "timing.row_hit_ratio",
        Ratio(static_cast<double>(hits), static_cast<double>(activations)));
    Set(layers, "timing.bus_utilization",
        Ratio(busy, static_cast<double>(cycles)));
    return mismatches;
  }

 private:
  /// Requests per gzip member. The file is written as concatenated
  /// members so set-up never holds the whole trace text in memory.
  static constexpr std::uint64_t kChunkRequests = 1 << 16;

  void WriteTrace() const {
    std::filesystem::create_directories(
        std::filesystem::path(path_).parent_path());
    const std::string member_path = path_ + ".member";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path_);
    const auto source = workload::MakeStream(stream_);
    timing::Trace chunk;
    timing::Request req;
    bool more = true;
    while (more) {
      chunk.clear();
      while (chunk.size() < kChunkRequests && (more = source->Next(req)))
        chunk.push_back(req);
      if (chunk.empty()) break;
      std::ostringstream text;
      workload::WriteTrace(chunk, text);
      workload::GzipWriteFile(member_path, text.str());
      std::ifstream member(member_path, std::ios::binary);
      out << member.rdbuf();
    }
    std::filesystem::remove(member_path);
    if (!out.flush()) throw std::runtime_error("cannot write " + path_);
  }

  template <typename OpenSource>
  OpResult RunOne(std::size_t i, OpenSource&& open,
                  timing::SimStats& stats) const {
    const auto& [kind, scheme_timing] = timings_[i];
    return RunOp(ecc::ToString(kind), [&] {
      const auto source = open();
      timing::Controller controller(params_, scheme_timing, 16,
                                    timing::PagePolicy::kOpen,
                                    timing::SchedulerKind::kFrFcfs);
      stats = controller.Run(*source, {}, /*track_latency_percentiles=*/false);
      const auto& violations = controller.checker().violations();
      if (!violations.empty())
        throw std::runtime_error(std::to_string(violations.size()) +
                                 " DRAM protocol violations, first: " +
                                 violations.front());
      telemetry::JsonValue obj = telemetry::JsonValue::MakeObject();
      obj.Set("cycles", stats.cycles);
      obj.Set("reads", stats.reads);
      obj.Set("writes", stats.writes);
      obj.Set("avg_read_latency", stats.avg_read_latency);
      obj.Set("bus_utilization", stats.bus_utilization);
      obj.Set("row_hits", stats.row_hits);
      obj.Set("row_misses", stats.row_misses);
      obj.Set("row_conflicts", stats.row_conflicts);
      obj.Set("refreshes", stats.refreshes);
      obj.Set("rfm_commands", stats.rfm_commands);
      return Digest(obj);
    });
  }

  template <typename OpenSource>
  Batch RunAll(OpenSource&& open) const {
    Batch batch;
    for (std::size_t i = 0; i < timings_.size(); ++i) {
      timing::SimStats stats;
      batch.ops.push_back(RunOne(i, open, stats));
      batch.trials += 1;
      batch.requests += stats.reads + stats.writes;
    }
    return batch;
  }

  std::string path_;
  workload::StreamConfig stream_;
  timing::TimingParams params_ = timing::TimingParams::Ddr4_3200();
  std::vector<std::pair<ecc::SchemeKind, timing::SchemeTiming>> timings_;
};

constexpr MetricSpec kEndToEnd[] = {
    {"trials_per_s", "1/s"},
    {"requests_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    // Scenario replay (mc_*).
    {"ecc.build.s", "s"},
    {"ecc.build.share", "ratio"},
    {"util.truth_draw.s", "s"},
    {"util.truth_draw.share", "ratio"},
    {"ecc.write_lines.s", "s"},
    {"ecc.write_lines.share", "ratio"},
    {"faults.inject.s", "s"},
    {"faults.inject.share", "ratio"},
    {"ecc.read_lines.s", "s"},
    {"ecc.read_lines.share", "ratio"},
    {"reliability.classify.s", "s"},
    {"reliability.classify.share", "ratio"},
    {"ecc.write_us_per_line", "us"},
    {"ecc.read_us_per_line", "us"},
    {"ecc.lines_read", "count"},
    {"ecc.claim_corrected", "count"},
    {"ecc.claim_detected", "count"},
    {"ecc.corrected_units", "count"},
    {"ecc.corrected_ratio", "ratio"},
    {"ecc.detected_ratio", "ratio"},
    {"faults.injected", "count"},
    {"faults.permanent", "count"},
    {"dram.read_line.s", "s"},
    {"dram.read_us_per_line", "us"},
    // System replay (system_pair).
    {"sim.build.s", "s"},
    {"sim.build.share", "ratio"},
    {"sim.functional.s", "s"},
    {"sim.functional.share", "ratio"},
    {"sim.timing_pass.s", "s"},
    {"sim.timing_pass.share", "ratio"},
    {"sim.us_per_demand_request", "us"},
    {"sim.ns_per_sim_cycle", "ns"},
    {"sim.demand_reads", "count"},
    {"sim.demand_writes", "count"},
    {"sim.faults_injected", "count"},
    {"sim.scrub_rows", "count"},
    {"sim.demand_writebacks", "count"},
    {"sim.repairs_attempted", "count"},
    {"sim.rows_spared", "count"},
    {"sim.repair_success_ratio", "ratio"},
    {"timing.bus_reads", "count"},
    {"timing.bus_writes", "count"},
    {"timing.protocol_violations", "count"},
    {"timing.row_hit_ratio", "ratio"},
    // Trace timing (trace_timing).
    {"workload.parse.s", "s"},
    {"workload.parse.share", "ratio"},
    {"timing.controller.s", "s"},
    {"timing.controller.share", "ratio"},
    {"workload.ns_per_request", "ns"},
    {"timing.ns_per_request", "ns"},
    {"workload.compressed_bytes", "bytes"},
    {"timing.requests", "count"},
    {"timing.bus_utilization", "ratio"},
    // Engine (mc_*, system_pair) and tracing cost.
    {"reliability.engine.workers", "count"},
    {"reliability.engine.shard_s_p50", "s"},
    {"reliability.engine.shard_s_p90", "s"},
    {"reliability.engine.imbalance", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* kWorkloadNames[] = {"mc_pair", "mc_baseline",
                                          "system_pair", "trace_timing"};

}  // namespace

std::string ToString(Size size) {
  return size == Size::kFull ? "full" : "tiny";
}

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }
std::span<const char* const> WorkloadNames() { return kWorkloadNames; }

std::string PerLayerUnit(const std::string& name) {
  for (const MetricSpec& spec : kPerLayer)
    if (name == spec.name) return spec.unit;
  throw std::logic_error("unknown per-layer metric " + name);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size,
                                       const std::string& work_dir) {
  const bool full = size == Size::kFull;
  using K = ecc::SchemeKind;
  if (name == "mc_pair")
    return std::make_unique<McWorkload>(
        std::vector<K>{K::kPair2, K::kPair4, K::kPair4SecDed}, seed,
        full ? 256 : 32, 16, full ? 64 : 16);
  if (name == "mc_baseline")
    return std::make_unique<McWorkload>(
        std::vector<K>{K::kIecc, K::kSecDed, K::kIeccSecDed, K::kXed,
                       K::kDuo},
        seed, full ? 2048 : 64, 32, full ? 256 : 32);
  if (name == "system_pair")
    return std::make_unique<SystemWorkload>(seed, full ? 512 : 16, 8,
                                            full ? 32 : 8);
  if (name == "trace_timing")
    return std::make_unique<TraceWorkload>(seed, full ? 1000000 : 20000,
                                           work_dir);
  return nullptr;
}

ExpectedDigests ExpectedDigests::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const telemetry::JsonValue doc = telemetry::JsonValue::Parse(text);
  ExpectedDigests out;
  const telemetry::JsonValue* seed = doc.Find("seed");
  const telemetry::JsonValue* digests = doc.Find("digests");
  if (seed == nullptr || digests == nullptr)
    throw std::runtime_error(path + ": needs \"seed\" and \"digests\"");
  out.seed = static_cast<std::uint64_t>(seed->AsInt());
  for (const auto& [size, workloads] : digests->AsObject())
    for (const auto& [workload, ops] : workloads.AsObject())
      for (const auto& [op, digest] : ops.AsObject())
        out.table[size][workload][op] = digest.AsString();
  return out;
}

const std::map<std::string, std::string>* ExpectedDigests::Find(
    Size size, const std::string& workload) const {
  const auto by_size = table.find(ToString(size));
  if (by_size == table.end()) return nullptr;
  const auto it = by_size->second.find(workload);
  return it == by_size->second.end() ? nullptr : &it->second;
}

std::size_t CheckDigests(std::vector<OpResult>& ops,
                         const std::map<std::string, std::string>& expected) {
  std::size_t marked = 0;
  for (OpResult& op : ops) {
    if (!op.error.empty()) continue;
    const auto it = expected.find(op.name);
    if (it == expected.end())
      op.error = "no expected digest recorded";
    else if (it->second != op.digest)
      op.error = "digest " + op.digest + " != expected " + it->second;
    else
      continue;
    ++marked;
  }
  return marked;
}

std::size_t CheckAgainst(std::vector<OpResult>& ops,
                         const std::vector<OpResult>& reference,
                         const std::string& what) {
  std::size_t marked = 0;
  for (OpResult& op : ops) {
    if (!op.error.empty()) continue;
    const auto it =
        std::find_if(reference.begin(), reference.end(),
                     [&](const OpResult& r) { return r.name == op.name; });
    if (it == reference.end())
      op.error = what + " has no such op";
    else if (!it->error.empty())
      op.error = what + " failed: " + it->error;
    else if (it->digest != op.digest)
      op.error = "digest " + op.digest + " != " + what + " " + it->digest;
    else
      continue;
    ++marked;
  }
  return marked;
}

double TypicalBatchSeconds(const std::vector<Batch>& batches) {
  double total = 0.0;
  for (std::size_t op = 0; op < batches.at(0).ops.size(); ++op) {
    std::vector<double> seconds;
    for (const Batch& b : batches) seconds.push_back(b.ops.at(op).seconds);
    std::sort(seconds.begin(), seconds.end());
    const std::size_t n = seconds.size();
    total += n % 2 ? seconds[n / 2]
                   : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
  }
  return total;
}

void AddEngineMetrics(const std::vector<reliability::EngineMetrics>& runs,
                      Metrics& layers) {
  std::vector<double> shards;
  unsigned workers = 0;
  double imbalance = 0.0;
  for (const reliability::EngineMetrics& run : runs) {
    shards.insert(shards.end(), run.shard_seconds.begin(),
                  run.shard_seconds.end());
    workers = std::max(workers, run.workers);
    imbalance += run.ShardImbalance();
  }
  std::sort(shards.begin(), shards.end());
  const auto percentile = [&](double p) {
    if (shards.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(shards.size() - 1) + 0.5);
    return shards[rank];
  };
  Set(layers, "reliability.engine.workers", workers);
  Set(layers, "reliability.engine.shard_s_p50", percentile(0.5));
  Set(layers, "reliability.engine.shard_s_p90", percentile(0.9));
  Set(layers, "reliability.engine.imbalance",
      runs.empty() ? 0.0 : imbalance / static_cast<double>(runs.size()));
}

}  // namespace pair_ecc::perfbench
