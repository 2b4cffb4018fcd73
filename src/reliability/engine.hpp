// Deterministic sharded Monte-Carlo trial engine.
//
// Every reliability figure in the reproduction (F1 sweep, F2 breakdown, F5
// headline ratios, lifetime folds) is a sum over independent seeded trials,
// so the engine parallelizes them as a map-reduce with a hard determinism
// contract:
//
//  * Per-trial RNG streams are derived counter-style from (seed,
//    trial_index): a master Xoshiro256(seed) stream supplies trial i's
//    64-bit sub-seed as its i-th output, and the trial's Xoshiro256 state
//    is expanded from that sub-seed via SplitMix64. Sub-seeds are drawn at
//    claim time: under one lock a worker claims the next shard and draws
//    that shard's sub-seeds, so claims are dense and in shard order and the
//    master stream is consumed exactly as the original serial loop's
//    `master.Fork()` did — which is what pins the pre-refactor golden
//    values. Which worker runs a trial cannot affect its draws.
//  * Trials are grouped into fixed-size shards (kShardTrials, independent
//    of the thread count). Each shard accumulates into its own
//    default-constructed Result, and completed shards are handed to an
//    observer strictly in shard order. Run's observer is `total += r`, so
//    the reduction tree is a function of (trials) alone and results are
//    bitwise identical for any thread count — including floating-point
//    accumulators.
//  * There is one executor, RunShardsObserved; Run and RunWithScratch are
//    reduces over it and the campaign runner observes it directly. Its
//    memory is bounded by the thread count: no per-trial or per-shard state
//    outlives the shard, except per-shard wall times when metrics are
//    requested.
//  * Workers share nothing mutable: each trial constructs its own
//    dram::Rank + Scheme (via TrialContext below), and read-only inputs
//    (config, working set) are captured by const reference.
//
// See docs/ARCHITECTURE.md ("Trial engine") for the layer diagram.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "util/bitvec.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {

/// Wall-clock observations of one engine run (Run or RunShardsObserved) —
/// throughput, per-shard times, and load balance. Timing is inherently non-deterministic, so
/// report serialisers place these in the separable "timing" section that
/// determinism tests and bench_diff ignore by default. Collecting them
/// never perturbs the trial result: the engine only reads clocks, never the
/// trial RNG streams.
struct EngineMetrics {
  unsigned workers = 0;        ///< worker threads actually used
  std::uint64_t trials = 0;
  std::uint64_t shards = 0;
  double wall_seconds = 0.0;   ///< whole Run(), including the reduce
  std::vector<double> shard_seconds;  ///< per-shard wall time, shard order

  double TrialsPerSec() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
  double MeanShardSeconds() const noexcept {
    if (shard_seconds.empty()) return 0.0;
    double sum = 0.0;
    for (double s : shard_seconds) sum += s;
    return sum / static_cast<double>(shard_seconds.size());
  }
  double MaxShardSeconds() const noexcept {
    double max = 0.0;
    for (double s : shard_seconds) max = std::max(max, s);
    return max;
  }
  /// Load imbalance: max shard time over mean shard time, minus one.
  /// 0 = perfectly balanced; 1 = the slowest shard took twice the mean.
  double ShardImbalance() const noexcept {
    const double mean = MeanShardSeconds();
    return mean > 0.0 ? MaxShardSeconds() / mean - 1.0 : 0.0;
  }
};

class TrialEngine {
 public:
  /// Trials per shard. Fixed (never derived from the thread count) so the
  /// reduction grouping — and therefore the merged result — is identical
  /// for any parallelism.
  static constexpr std::uint64_t kShardTrials = 16;

  /// Shards covering `trials` (the last may be partial). This is THE shard
  /// arithmetic: checkpoints, slice bounds, and report meta all derive from
  /// it, so a campaign resumed or split across processes agrees with the
  /// uninterrupted run on shard composition.
  static constexpr std::uint64_t ShardCount(std::uint64_t trials) noexcept {
    return (trials + kShardTrials - 1) / kShardTrials;
  }

  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit TrialEngine(unsigned threads = 0)
      : threads_(ResolveThreads(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  static unsigned ResolveThreads(unsigned requested) noexcept {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
  }

  /// Runs `trials` independent trials of `body` and merges the per-shard
  /// accumulators in shard order. Result must be default-constructible and
  /// support `operator+=`; Body is invoked as
  ///   body(trial_index, rng, accumulator)
  /// and must draw all randomness from `rng` (a per-trial stream) and write
  /// only through the accumulator it is handed.
  ///
  /// When `metrics` is non-null it is filled with wall-clock observations
  /// (throughput, per-shard times). Timing collection never touches the
  /// trial RNG streams, so the returned Result is bit-identical whether or
  /// not metrics are requested.
  template <typename Result, typename Body>
  Result Run(std::uint64_t seed, std::uint64_t trials, Body&& body,
             EngineMetrics* metrics = nullptr) const {
    struct None {};
    return RunWithScratch<Result, None>(
        seed, trials,
        [&body](std::uint64_t trial, util::Xoshiro256& rng, Result& acc,
                None&) { body(trial, rng, acc); },
        metrics);
  }

  /// Like Run, but hands the body a per-shard Scratch (default-constructed
  /// at shard start) as a fourth argument:
  ///   body(trial_index, rng, accumulator, scratch)
  /// Scratch exists so trial bodies can reuse staging buffers (e.g. the
  /// span-of-lines ReadLines result vector) across a shard's trials
  /// without per-trial allocation. It is worker-local carry-over state and
  /// MUST NOT influence results: each trial must fully overwrite whatever
  /// it reads from it. The determinism contract is unchanged — scratch is
  /// per-shard, and shard composition is a function of (trials) alone.
  template <typename Result, typename Scratch, typename Body>
  Result RunWithScratch(std::uint64_t seed, std::uint64_t trials, Body&& body,
                        EngineMetrics* metrics = nullptr) const {
    Result total{};
    RunShardsObserved<Result, Scratch>(
        seed, trials, 0, ShardCount(trials), body,
        [&total](std::uint64_t, const Result& shard) { total += shard; },
        nullptr, metrics);
    return total;
  }

  /// The executor behind Run and the campaign runner: runs shards
  /// [first_shard, end_shard) of the `trials`-trial run seeded with `seed`,
  /// handing each completed shard's Result to
  ///   observer(shard_index, result)
  /// strictly in shard order. Run's reduce is the observer `total += r`,
  /// so an accumulator fed by any split of [0, ShardCount) across calls —
  /// checkpointed, resumed, or merged across processes — is bitwise
  /// identical to the uninterrupted Run at the same (seed, trials), for any
  /// thread count.
  ///
  /// `stop` (optional) requests graceful interruption: it is polled before
  /// each shard claim, in-flight shards always finish and are observed, and
  /// the claimed range stays dense — no observed shard is ever discarded.
  /// Returns one past the last observed shard (== end_shard when the range
  /// completed). The observer runs with an internal lock held and must not
  /// call back into the engine. An exception from the body or the observer
  /// stops further claims and is rethrown once every worker has joined.
  /// `metrics` is filled as documented on Run, over the shards this call
  /// ran.
  template <typename Result, typename Scratch, typename Body,
            typename Observer>
  std::uint64_t RunShardsObserved(std::uint64_t seed, std::uint64_t trials,
                                  std::uint64_t first_shard,
                                  std::uint64_t end_shard, Body&& body,
                                  Observer&& observer,
                                  const std::atomic<bool>* stop = nullptr,
                                  EngineMetrics* metrics = nullptr) const {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start =
        metrics != nullptr ? Clock::now() : Clock::time_point{};
    const std::uint64_t total_shards = ShardCount(trials);
    PAIR_CHECK(first_shard <= end_shard && end_shard <= total_shards,
               "RunShardsObserved: shard range [" << first_shard << ", "
                   << end_shard << ") outside [0, " << total_shards << ")");
    const std::uint64_t shards = end_shard - first_shard;
    const unsigned workers = static_cast<unsigned>(
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(threads_, shards)));

    // The master stream is positioned by drawing (not storing) the
    // sub-seeds of every earlier trial — trial i's stream is a pure
    // function of (seed, i), which is why a checkpoint needs no RNG state
    // beyond the next shard index. The clamp matters with a partial last
    // shard, where first_shard == total_shards starts past the trial count.
    util::Xoshiro256 master(seed);
    for (std::uint64_t t = std::min(first_shard * kShardTrials, trials);
         t > 0; --t)
      master();

    // Completed shards wait in a ring of `window` slots until every earlier
    // shard has been observed; a worker claims shard s only once its slot
    // (s - first_shard) % window is free. That bound is what keeps memory a
    // function of the thread count, never of the trial count.
    const std::uint64_t window = std::uint64_t{kWindowPerWorker} * workers;
    std::vector<double> shard_seconds(metrics != nullptr ? shards : 0);
    // mu guards `master`, the ring, both cursors and `failure`.
    std::mutex mu;
    std::condition_variable slot_freed;
    std::vector<std::optional<Result>> done(window);
    std::uint64_t next_claim = first_shard;
    std::uint64_t next_observe = first_shard;
    // A body or observer exception stops further claims on every worker
    // and is rethrown to the caller once all workers have joined.
    std::exception_ptr failure;
    const auto stopped = [stop] {
      return stop != nullptr && stop->load(std::memory_order_relaxed);
    };
    const auto halted = [&] { return failure != nullptr || stopped(); };

    auto worker = [&] {
      std::uint64_t trial_seeds[kShardTrials];
      try {
        for (;;) {
          // Claim the next shard and draw its sub-seeds in one critical
          // section: claims are dense and in shard order, so trial i still
          // gets the master stream's i-th output.
          std::uint64_t shard = 0;
          std::uint64_t begin = 0;
          std::uint64_t end = 0;
          {
            std::unique_lock<std::mutex> lock(mu);
            slot_freed.wait(lock, [&] {
              return next_claim >= end_shard ||
                     next_claim < next_observe + window || halted();
            });
            if (next_claim >= end_shard || halted()) return;
            shard = next_claim++;
            begin = shard * kShardTrials;
            end = std::min(begin + kShardTrials, trials);
            for (std::uint64_t t = begin; t < end; ++t)
              trial_seeds[t - begin] = master();
          }

          const Clock::time_point shard_start =
              metrics != nullptr ? Clock::now() : Clock::time_point{};
          Result result{};
          Scratch scratch{};
          for (std::uint64_t trial = begin; trial < end; ++trial) {
            util::Xoshiro256 rng(trial_seeds[trial - begin]);
            body(trial, rng, result, scratch);
          }
          if (metrics != nullptr)
            shard_seconds[shard - first_shard] =
                std::chrono::duration<double>(Clock::now() - shard_start)
                    .count();

          std::lock_guard<std::mutex> lock(mu);
          done[(shard - first_shard) % window].emplace(std::move(result));
          const std::uint64_t observed_before = next_observe;
          for (auto* slot = &done[(next_observe - first_shard) % window];
               slot->has_value();
               slot = &done[(next_observe - first_shard) % window]) {
            observer(next_observe, **slot);
            slot->reset();
            ++next_observe;
          }
          if (next_observe != observed_before) slot_freed.notify_all();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (failure == nullptr) failure = std::current_exception();
        slot_freed.notify_all();
      }
    };
    // The calling thread is worker 0, so a one-worker run spawns nothing.
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
    if (failure != nullptr) std::rethrow_exception(failure);

    if (metrics != nullptr) {
      metrics->workers = workers;
      metrics->trials = std::min(end_shard * kShardTrials, trials) -
                        std::min(first_shard * kShardTrials, trials);
      metrics->shards = shards;
      metrics->wall_seconds =
          std::chrono::duration<double>(Clock::now() - run_start).count();
      metrics->shard_seconds = std::move(shard_seconds);
    }
    return next_observe;
  }

 private:
  /// Reorder-ring slots per worker: how far the other workers may run ahead
  /// of the oldest unobserved shard before they wait for it.
  static constexpr unsigned kWindowPerWorker = 4;

  unsigned threads_;
};

/// The (rows, columns) grid a reliability experiment writes and reads back.
/// Rows are spread over banks and row addresses with a caller-chosen affine
/// stride (monte_carlo and lifetime historically use different constants,
/// preserved to keep their seeds' results stable); line columns are spread
/// over the row so distinct on-die codewords are exercised.
struct WorkingSet {
  std::vector<faults::RowRef> rows;
  std::vector<unsigned> cols;
  /// The grid flattened row-major (rows x cols): addrs[i*cols.size() + j]
  /// = {rows[i].bank, rows[i].row, cols[j]}. This is the span handed to
  /// the schemes' batch WriteLines/ReadLines entry points; TrialContext
  /// ground-truth lines are indexed in parallel.
  std::vector<dram::Address> addrs;
};

WorkingSet MakeWorkingSet(const dram::RankGeometry& geometry,
                          unsigned working_rows, unsigned lines_per_row,
                          unsigned row_mul, unsigned row_off);

/// Per-trial state: a fresh rank, the scheme under test built over it, and
/// the ground-truth working-set contents — lines[i] is the line written at
/// ws.addrs[i]. All random lines are drawn first (one per cell, row-major —
/// the identical RNG draw sequence as the historical draw/write interleave,
/// since writes consume no randomness) and then written through one batch
/// scheme->WriteLines call. Shared by the single-shot Monte-Carlo and the
/// lifetime engine — the two previously duplicated this setup loop.
struct TrialContext {
  dram::Rank rank;
  std::unique_ptr<ecc::Scheme> scheme;
  std::vector<util::BitVec> lines;

  TrialContext(const dram::RankGeometry& geometry, ecc::SchemeKind kind,
               const WorkingSet& ws, util::Xoshiro256& rng);
};

}  // namespace pair_ecc::reliability
