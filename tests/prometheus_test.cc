// Prometheus text-exposition writer: golden format, label escaping and
// metric name sanitization.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/metrics_registry.h"

namespace pregelix {
namespace {

std::string Expose(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.WritePrometheus(os);
  return os.str();
}

TEST(PrometheusTest, GoldenCounterAndGauge) {
  MetricsRegistry registry;
  registry
      .GetCounter("pregelix.buffer.hits", MetricLabels{{"worker", "0"}})
      ->Add(7);
  registry
      .GetCounter("pregelix.buffer.hits", MetricLabels{{"worker", "1"}})
      ->Add(9);
  registry.GetGauge("pregelix.bench.dataset_seed")->Set(-42);

  EXPECT_EQ(Expose(registry),
            "# HELP pregelix_bench_dataset_seed pregelix.bench.dataset_seed\n"
            "# TYPE pregelix_bench_dataset_seed gauge\n"
            "pregelix_bench_dataset_seed -42\n"
            "# HELP pregelix_buffer_hits pregelix.buffer.hits\n"
            "# TYPE pregelix_buffer_hits counter\n"
            "pregelix_buffer_hits{worker=\"0\"} 7\n"
            "pregelix_buffer_hits{worker=\"1\"} 9\n");
}

TEST(PrometheusTest, OneHelpTypePairPerFamily) {
  MetricsRegistry registry;
  for (int w = 0; w < 3; ++w) {
    registry
        .GetCounter("pregelix.dataflow.tuples_out",
                    MetricLabels{{"worker", std::to_string(w)}})
        ->Increment();
  }
  const std::string text = Expose(registry);
  size_t help = 0;
  size_t type = 0;
  for (size_t pos = 0; (pos = text.find("# HELP", pos)) != std::string::npos;
       ++pos) {
    ++help;
  }
  for (size_t pos = 0; (pos = text.find("# TYPE", pos)) != std::string::npos;
       ++pos) {
    ++type;
  }
  EXPECT_EQ(help, 1u);
  EXPECT_EQ(type, 1u);
}

TEST(PrometheusTest, LabelValueEscaping) {
  MetricsRegistry registry;
  registry
      .GetCounter("pregelix.test.escapes",
                  MetricLabels{{"job", "line1\nline2"},
                               {"op", "say \"hi\""},
                               {"path", "a\\b"}})
      ->Increment();
  const std::string text = Expose(registry);
  EXPECT_NE(text.find("job=\"line1\\nline2\""), std::string::npos) << text;
  EXPECT_NE(text.find("op=\"say \\\"hi\\\"\""), std::string::npos) << text;
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos) << text;
  // No raw newline may survive inside a label value: every '\n' in the
  // output must terminate a complete exposition line.
  EXPECT_EQ(text.find("line1\nline2"), std::string::npos);
}

TEST(PrometheusTest, NameSanitization) {
  MetricsRegistry registry;
  registry.GetCounter("pregelix.storage.probes")->Increment();
  registry.GetCounter("0weird-name.with+chars")->Increment();
  const std::string text = Expose(registry);
  EXPECT_NE(text.find("pregelix_storage_probes 1\n"), std::string::npos);
  // Leading digit gets a '_' prefix; '-', '.', '+' all map to '_'.
  EXPECT_NE(text.find("_0weird_name_with_chars 1\n"), std::string::npos);
}

}  // namespace
}  // namespace pregelix
