// Host-throughput benchmark for the PAIR simulator (see README.md).
//
// Four closed, fixed-size batch workloads drive the simulator's public
// library APIs. Each batch is a list of *operations* (one config run each)
// whose deterministic results are reduced to CRC-32 digests; the program in
// main.cpp times batches, checks digests, and emits metrics. A separate
// traced pass replays a subset of trials serially through public calls,
// timing each layer from the outside, and must reproduce the engine's
// counts bitwise.
//
// Host time is wall time (std::chrono::steady_clock). Simulated statistics
// are never reported as performance: they only feed the digests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "reliability/engine.hpp"

namespace pair_ecc::perfbench {

/// Engine worker threads for every multi-threaded workload. Fixed so runs
/// on different machines do the same work; results are thread-count
/// independent by the engine's determinism contract.
inline constexpr unsigned kEngineThreads = 4;

/// The seed whose digests are recorded in expected_digests.json: F1's and
/// F11's bench seed, so the default run reproduces their set-ups.
inline constexpr std::uint64_t kDefaultSeed = 0xB0A7;

/// Input-size profile. kFull is what the benchmark measures; kTiny keeps
/// the benchmark's own tests fast.
enum class Size { kFull, kTiny };

std::string ToString(Size size);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric an untraced run prints, in output order.
std::span<const MetricSpec> EndToEndMetrics();
/// Every metric a traced run prints. Layers a workload never calls read 0.
std::span<const MetricSpec> PerLayerMetrics();
/// Unit of a per-layer metric; throws on an unknown name.
std::string PerLayerUnit(const std::string& name);

/// One operation's outcome: a digest of its deterministic result, or the
/// reason it failed (exception text, protocol violations).
struct OpResult {
  std::string name;
  std::string digest;
  std::string error;
  double seconds = 0.0;  ///< host wall time of the operation
};

/// One batch: every operation of a workload once.
struct Batch {
  std::vector<OpResult> ops;
  std::uint64_t trials = 0;    ///< work units (see README.md, "Metrics")
  std::uint64_t requests = 0;  ///< simulated line requests
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// (Re)builds every input the batch needs and warms lazy state (GF kernel
  /// dispatch, code tables). Idempotent; timed as setup_s.
  virtual void Setup() = 0;

  /// Runs every operation once. Multi-threaded workloads use `threads`
  /// engine workers. When `engine` is non-null each campaign runs with
  /// telemetry attached and appends its engine metrics.
  virtual Batch Run(unsigned threads,
                    std::vector<reliability::EngineMetrics>* engine) = 0;

  /// Runs every operation down an independent path that must reproduce
  /// Run's digests bitwise: the engine at one thread, or for the trace
  /// workload the generator without the file and parser.
  virtual std::vector<OpResult> Reference() = 0;

  /// Trials per operation the replay covers (0 = no replay).
  virtual unsigned ReplayTrials(bool traced) const = 0;

  /// Replays the first `trials` trials of every operation serially through
  /// public calls, timing each layer into `layers` (self seconds, shares,
  /// counts). Returns one message per mismatch against the campaign (or,
  /// for the trace workload, against `campaign`); empty means the replay
  /// reproduced it bitwise and the spans covered at least 0.9 of its wall
  /// time.
  virtual std::vector<std::string> Replay(unsigned trials,
                                          const Batch& campaign,
                                          Metrics& layers) = 0;
};

/// Known names: mc_pair, mc_baseline, system_pair, trace_timing. Returns
/// nullptr for anything else. `work_dir` holds generated inputs.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size,
                                       const std::string& work_dir);

std::span<const char* const> WorkloadNames();

/// Expected digests (expected_digests.json): size -> workload -> op ->
/// CRC-32 hex, recorded at `seed`.
struct ExpectedDigests {
  std::uint64_t seed = kDefaultSeed;
  std::map<std::string,
           std::map<std::string, std::map<std::string, std::string>>>
      table;

  /// Throws std::runtime_error on an unreadable or malformed file.
  static ExpectedDigests Load(const std::string& path);
  /// nullptr when nothing is recorded for (size, workload).
  const std::map<std::string, std::string>* Find(
      Size size, const std::string& workload) const;
};

/// Marks each op failed whose digest differs from `expected` or has no
/// entry there. Returns the number of ops newly marked.
std::size_t CheckDigests(std::vector<OpResult>& ops,
                         const std::map<std::string, std::string>& expected);

/// Marks each op in `ops` failed whose digest differs from the same-named
/// op in `reference` (`what` labels the message). Returns the count newly
/// marked.
std::size_t CheckAgainst(std::vector<OpResult>& ops,
                         const std::vector<OpResult>& reference,
                         const std::string& what);

/// A batch's typical host time: the sum over its operations of each one's
/// median time across `batches`, so a host stall costs only the operation
/// it hit one sample. Every batch must list the same operations in order.
double TypicalBatchSeconds(const std::vector<Batch>& batches);

/// Engine metrics (reliability.engine.*) pooled over `runs`.
void AddEngineMetrics(const std::vector<reliability::EngineMetrics>& runs,
                      Metrics& layers);

}  // namespace pair_ecc::perfbench
