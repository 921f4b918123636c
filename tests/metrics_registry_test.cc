#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace pregelix {
namespace {

TEST(MetricLabelsTest, NormalizationMakesOrderIrrelevant) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter(
      "pregelix.test.c", MetricLabels{{"operator", "join"}, {"worker", "1"}});
  Counter* b = registry.GetCounter(
      "pregelix.test.c", MetricLabels{{"worker", "1"}, {"operator", "join"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricLabelsTest, DuplicateKeysLastWins) {
  MetricLabels labels;
  labels.Add("k", "old").Add("k", "new");
  labels.Normalize();
  ASSERT_EQ(labels.kv.size(), 1u);
  EXPECT_EQ(labels.kv[0].second, "new");
}

TEST(MetricsRegistryTest, LabelCardinalityCreatesDistinctInstruments) {
  MetricsRegistry registry;
  for (int w = 0; w < 4; ++w) {
    registry
        .GetCounter("pregelix.dataflow.tuples_out",
                    MetricLabels{{"worker", std::to_string(w)}})
        ->Add(static_cast<uint64_t>(w + 1));
  }
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.CounterValue("pregelix.dataflow.tuples_out",
                                  MetricLabels{{"worker", "2"}}),
            3u);
  // 1 + 2 + 3 + 4 across all label sets.
  EXPECT_EQ(registry.SumCounters("pregelix.dataflow.tuples_out"), 10u);
  // Unlabeled same-name metric is yet another instrument.
  registry.GetCounter("pregelix.dataflow.tuples_out")->Add(100);
  EXPECT_EQ(registry.SumCounters("pregelix.dataflow.tuples_out"), 110u);
}

TEST(MetricsRegistryTest, StablePointersAcrossLookups) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("pregelix.test.g");
  g->Set(-7);
  // Many unrelated registrations must not invalidate g (std::map nodes).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("pregelix.filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetGauge("pregelix.test.g"), g);
  EXPECT_EQ(registry.GaugeValue("pregelix.test.g"), -7);
  g->Add(7);
  EXPECT_EQ(registry.GaugeValue("pregelix.test.g"), 0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      // Every thread resolves the same instruments and hammers them.
      Counter* c = registry.GetCounter("pregelix.test.concurrent");
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("pregelix.test.concurrent"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, JsonDumpContainsAllKinds) {
  MetricsRegistry registry;
  registry
      .GetCounter("pregelix.buffer.hits", MetricLabels{{"worker", "0"}})
      ->Add(42);
  registry.GetGauge("pregelix.worker.net_bytes")->Set(-1);
  std::ostringstream os;
  registry.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pregelix.buffer.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"worker\":\"0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"value\":-1"), std::string::npos);
}

}  // namespace
}  // namespace pregelix
