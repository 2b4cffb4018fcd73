// The benchmark's own tests, at tiny input sizes: the digest gate, the
// replay-equality check, and that BENCHMARK.json names exactly the metrics
// pair_perfbench emits. Run through `python3 perfbench/test_perfbench.py`.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "perfbench.hpp"
#include "telemetry/json.hpp"

namespace pair_ecc::perfbench {
namespace {

const std::string kDir = PERFBENCH_SOURCE_DIR;

std::unique_ptr<Workload> Tiny(const std::string& name,
                               std::uint64_t seed = kDefaultSeed) {
  auto wl = MakeWorkload(name, seed, Size::kTiny,
                         kDir + "/../.bench_build/test_work");
  EXPECT_NE(wl, nullptr) << name;
  wl->Setup();
  return wl;
}

TEST(PerfbenchDigests, RecordedTinyDigestsMatchAtTheDefaultSeed) {
  const ExpectedDigests expected =
      ExpectedDigests::Load(kDir + "/expected_digests.json");
  ASSERT_EQ(expected.seed, kDefaultSeed);
  for (const char* name : WorkloadNames()) {
    const auto* table = expected.Find(Size::kTiny, name);
    ASSERT_NE(table, nullptr) << name;
    Batch batch = Tiny(name)->Run(kEngineThreads, nullptr);
    EXPECT_EQ(CheckDigests(batch.ops, *table), 0u) << name;
    for (const OpResult& op : batch.ops) EXPECT_EQ(op.error, "") << op.name;
  }
}

TEST(PerfbenchDigests, MismatchedOrMissingDigestsFailTheirOps) {
  std::vector<OpResult> ops = {{"a", "00000001", "", 0.0},
                               {"b", "00000002", "", 0.0},
                               {"c", "00000003", "", 0.0},
                               {"d", "", "threw", 0.0}};
  const std::map<std::string, std::string> expected = {
      {"a", "00000001"}, {"b", "ffffffff"}, {"d", "00000004"}};
  EXPECT_EQ(CheckDigests(ops, expected), 2u);
  EXPECT_EQ(ops[0].error, "");
  EXPECT_NE(ops[1].error.find("expected ffffffff"), std::string::npos);
  EXPECT_EQ(ops[2].error, "no expected digest recorded");
  EXPECT_EQ(ops[3].error, "threw");  // already failed: counted once
}

TEST(PerfbenchTiming, TypicalBatchTimeTakesEachOperationsMedian) {
  const auto batch = [](double a, double b) {
    return Batch{{{"a", "", "", a}, {"b", "", "", b}}, 2, 16};
  };
  // A stall in one batch's "a" and another's "b" moves neither median.
  const std::vector<Batch> batches = {batch(1.0, 3.0), batch(9.0, 2.0),
                                      batch(2.0, 8.0)};
  EXPECT_DOUBLE_EQ(TypicalBatchSeconds(batches), 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(TypicalBatchSeconds({batch(1.0, 3.0), batch(2.0, 4.0)}),
                   1.5 + 3.5);
}

TEST(PerfbenchDigests, ReferencePathAgreesWithTheCampaign) {
  for (const char* name : WorkloadNames()) {
    const auto wl = Tiny(name, 7);
    Batch batch = wl->Run(kEngineThreads, nullptr);
    EXPECT_EQ(CheckAgainst(batch.ops, wl->Reference(), "reference"), 0u)
        << name;
  }
}

TEST(PerfbenchDigests, CheckAgainstCatchesADifferentSeed) {
  Batch seven = Tiny("mc_pair", 7)->Run(kEngineThreads, nullptr);
  const Batch eight = Tiny("mc_pair", 8)->Run(kEngineThreads, nullptr);
  EXPECT_GT(CheckAgainst(seven.ops, eight.ops, "seed 8"), 0u);
}

TEST(PerfbenchReplay, TracedReplayReproducesTheCampaign) {
  for (const char* name : WorkloadNames()) {
    for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{7}}) {
      const auto wl = Tiny(name, seed);
      const Batch campaign = wl->Run(kEngineThreads, nullptr);
      Metrics layers;
      const auto mismatches =
          wl->Replay(wl->ReplayTrials(true), campaign, layers);
      EXPECT_TRUE(mismatches.empty())
          << name << ": " << (mismatches.empty() ? "" : mismatches.front());
      EXPECT_FALSE(layers.empty()) << name;
      for (const auto& [metric, value] : layers)
        EXPECT_EQ(value.unit, PerLayerUnit(metric)) << metric;
    }
  }
}

TEST(PerfbenchReplay, ReplayMismatchIsReported) {
  const auto wl = Tiny("trace_timing");
  Batch campaign = wl->Run(1, nullptr);
  campaign.ops[3].digest = "00000000";
  Metrics layers;
  const auto mismatches = wl->Replay(1, campaign, layers);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find(campaign.ops[3].name), std::string::npos);
}

std::set<std::pair<std::string, std::string>> Listed(
    const telemetry::JsonValue& doc, const char* key) {
  std::set<std::pair<std::string, std::string>> out;
  for (const telemetry::JsonValue& m : doc.Find(key)->AsArray())
    out.emplace(m.Find("name")->AsString(), m.Find("unit")->AsString());
  return out;
}

std::set<std::pair<std::string, std::string>> Emitted(
    std::span<const MetricSpec> specs) {
  std::set<std::pair<std::string, std::string>> out;
  for (const MetricSpec& s : specs) out.emplace(s.name, s.unit);
  return out;
}

TEST(PerfbenchMetrics, BenchmarkJsonListsExactlyTheEmittedMetrics) {
  std::ifstream in(kDir + "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  const telemetry::JsonValue doc = telemetry::JsonValue::Parse(
      std::string(std::istreambuf_iterator<char>(in), {}));
  EXPECT_EQ(Listed(doc, "end_to_end"), Emitted(EndToEndMetrics()));
  EXPECT_EQ(Listed(doc, "per_layer"), Emitted(PerLayerMetrics()));
  std::set<std::string> workloads;
  for (const telemetry::JsonValue& w : doc.Find("workloads")->AsArray())
    workloads.insert(w.Find("name")->AsString());
  EXPECT_EQ(workloads, std::set<std::string>(WorkloadNames().begin(),
                                             WorkloadNames().end()));
}

}  // namespace
}  // namespace pair_ecc::perfbench
