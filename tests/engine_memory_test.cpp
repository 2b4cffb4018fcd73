// Bounded-memory acceptance test for the trial engine: a counting global
// allocator records the heap high-water of Run and RunShardsObserved on a
// trivial body. It must not depend on the trial count — 1e3 and 1e6 trials
// reach the same peak — or some per-trial or per-shard state (sub-seed
// tables, per-shard accumulators) is being held for the whole run.
//
// The allocator override (counting_allocator.hpp) is process-global, so
// this test lives in its own binary and contains nothing else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "counting_allocator.hpp"
#include "reliability/engine.hpp"

namespace pair_ecc::reliability {
namespace {

struct DrawSum {
  std::uint64_t xor_all = 0;
  std::uint64_t count = 0;
  DrawSum& operator+=(const DrawSum& o) noexcept {
    xor_all ^= o.xor_all;
    count += o.count;
    return *this;
  }
};

struct NoScratch {};

// Bytes allocated above the live level at the call, at the call's peak.
template <typename Fn>
std::size_t HeapHighWater(Fn&& fn) {
  const std::size_t before = g_live_bytes.load();
  g_high_water.store(before);
  fn();
  return g_high_water.load() - before;
}

// A trivial trial body that first holds every worker until `threads` of
// them are inside it at once. Thread bookkeeping (std::thread state) is
// freed when a worker exits, and a short run could otherwise let the first
// worker finish before the last one is spawned; with the gate, every
// worker is alive at the same moment in every run, so the peak is a
// function of the thread count alone.
class GatedBody {
 public:
  explicit GatedBody(unsigned threads)
      : threads_(threads), run_id_(next_run_id_.fetch_add(1)) {}

  void operator()(std::uint64_t, util::Xoshiro256& rng, DrawSum& acc) {
    // Bodies of successive runs may share an address, so a thread marks
    // itself entered by run id.
    thread_local std::uint64_t entered_run = 0;
    if (entered_run != run_id_) {
      entered_run = run_id_;
      entered_.fetch_add(1);
    }
    while (entered_.load() < threads_) std::this_thread::yield();
    acc.xor_all ^= rng();
    ++acc.count;
  }

 private:
  static inline std::atomic<std::uint64_t> next_run_id_{1};
  unsigned threads_;
  std::uint64_t run_id_;
  std::atomic<unsigned> entered_{0};
};

DrawSum RunTrivial(unsigned threads, std::uint64_t trials) {
  GatedBody body(threads);
  return TrialEngine(threads).Run<DrawSum>(7, trials, body);
}

DrawSum ObserveTrivial(unsigned threads, std::uint64_t trials) {
  GatedBody body(threads);
  DrawSum total;
  TrialEngine(threads).RunShardsObserved<DrawSum, NoScratch>(
      7, trials, 0, TrialEngine::ShardCount(trials),
      [&body](std::uint64_t trial, util::Xoshiro256& rng, DrawSum& acc,
              NoScratch&) { body(trial, rng, acc); },
      [&total](std::uint64_t, const DrawSum& shard) { total += shard; });
  return total;
}

TEST(EngineMemory, RunHighWaterDoesNotGrowWithTrials) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    DrawSum small;
    DrawSum large;
    const std::size_t small_peak =
        HeapHighWater([&] { small = RunTrivial(threads, 1'000); });
    const std::size_t large_peak =
        HeapHighWater([&] { large = RunTrivial(threads, 1'000'000); });
    EXPECT_EQ(small.count, 1'000u);
    EXPECT_EQ(large.count, 1'000'000u);
    EXPECT_EQ(large_peak, small_peak);
  }
}

TEST(EngineMemory, RunShardsObservedHighWaterDoesNotGrowWithTrials) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    DrawSum small;
    DrawSum large;
    const std::size_t small_peak =
        HeapHighWater([&] { small = ObserveTrivial(threads, 1'000); });
    const std::size_t large_peak =
        HeapHighWater([&] { large = ObserveTrivial(threads, 1'000'000); });
    EXPECT_EQ(small.count, 1'000u);
    EXPECT_EQ(large.count, 1'000'000u);
    EXPECT_EQ(large_peak, small_peak);
    // The observer sees exactly what Run's reduce sees.
    EXPECT_EQ(small.xor_all, RunTrivial(threads, 1'000).xor_all);
  }
}

}  // namespace
}  // namespace pair_ecc::reliability
