// Schema guard for the "rmalock-bench-v2" perf records.
//
// The perf-tracking workflow (docs/PERF.md) diffs BENCH_*.json files across
// revisions; a silently dropped or renamed key would break every consumer
// without failing any build. This test writes a real FigureReport through
// write_json() and asserts the contract: schema tag, required top-level
// keys (including the PR-4 additions `jobs` and `wall_time_s` and the
// configure-time git rev), record triples, check objects, and the v2
// additions: the `metrics` gauge object and the `histograms` array of
// LogHistogram bucket summaries (both always present, empty when unused —
// every v1 key survives unchanged, so v1 consumers keep working).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/bench_common.hpp"

namespace rmalock {
namespace {

class BenchJson : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs these tests as parallel processes.
    path_ = ::testing::TempDir() + "bench_json_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string write_and_read(const harness::FigureReport& report) {
    EXPECT_TRUE(report.write_json(path_));
    std::ifstream in(path_);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string path_;
};

harness::FigureReport sample_report() {
  harness::FigureReport report("figX", "schema test figure",
                               "expectation text");
  report.add("series-a", 16, "throughput_mlocks_s", 1.25);
  report.add("series-a", 32, "throughput_mlocks_s", 2.5);
  report.add("series-b \"quoted\"", 16, "latency_us_mean", 0.75);
  report.check("a beats b", true, "detail line");
  report.check("b collapses", false, "other detail");
  return report;
}

TEST_F(BenchJson, RequiredTopLevelKeysArePresent) {
  const std::string json = write_and_read(sample_report());
  // The v2 contract: consumers key on exactly these fields. Everything v1
  // promised is still here; `metrics` and `histograms` are the v2 additions.
  for (const char* key :
       {"\"schema\": \"rmalock-bench-v2\"", "\"bench\": \"figX\"",
        "\"title\":", "\"git_rev\":", "\"seed\":", "\"quick\":",
        "\"smoke\":", "\"procs_per_node\":", "\"jobs\":",
        "\"wall_time_s\":", "\"records\":", "\"checks\":", "\"metrics\":",
        "\"histograms\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(BenchJson, RecordsCarrySeriesPMetricValue) {
  const std::string json = write_and_read(sample_report());
  EXPECT_NE(json.find("{\"series\": \"series-a\", \"p\": 16, "
                      "\"metric\": \"throughput_mlocks_s\", "
                      "\"value\": 1.25}"),
            std::string::npos);
  EXPECT_NE(json.find("\"p\": 32"), std::string::npos);
}

TEST_F(BenchJson, ChecksCarryNamePassDetail) {
  const std::string json = write_and_read(sample_report());
  EXPECT_NE(json.find("{\"name\": \"a beats b\", \"pass\": true, "
                      "\"detail\": \"detail line\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
}

TEST_F(BenchJson, StringsAreEscaped) {
  const std::string json = write_and_read(sample_report());
  // The raw quote inside the series name must arrive backslash-escaped.
  EXPECT_NE(json.find("series-b \\\"quoted\\\""), std::string::npos);
}

TEST_F(BenchJson, JobsReflectsTheResolvedWorkerCount) {
  // write_json records the RESOLVED jobs value (>= 1), never the raw 0 =
  // "all cores" request — consumers compare records across machines.
  const std::string json = write_and_read(sample_report());
  const usize pos = json.find("\"jobs\": ");
  ASSERT_NE(pos, std::string::npos);
  const int jobs = std::stoi(json.substr(pos + 8));
  EXPECT_GE(jobs, 1);
}

TEST_F(BenchJson, GitRevIsNonEmpty) {
  const std::string json = write_and_read(sample_report());
  EXPECT_EQ(json.find("\"git_rev\": \"\""), std::string::npos)
      << "git_rev must be a stamp or the literal \"unknown\", never empty";
}

TEST_F(BenchJson, Fig9FaultKnobMetricsRoundTripUnchanged) {
  // The gray-failure bench (fig9) extended the record vocabulary with
  // fault-knob metrics; the perf-tracking workflow diffs them by name, so
  // a rename in fig9 must fail here, not silently fork the schema. Keep
  // this list in sync with bench/fig9_gray_failures.cpp.
  harness::FigureReport report("fig9-gray-failures", "schema pin", "exp");
  const char* fault_metrics[] = {
      "lat_us_p50",   "lat_us_p99",        "lat_us_p999",
      "goodput_mops_s", "ok_frac",         "timeouts",
      "degraded_fastfails", "injected_delays", "injected_partitions"};
  double value = 1.0;
  for (const char* metric : fault_metrics) {
    report.add("deadline/gray", 16, metric, value);
    value += 1.0;
  }
  const std::string json = write_and_read(report);
  value = 1.0;
  for (const char* metric : fault_metrics) {
    std::ostringstream expect;
    expect << "{\"series\": \"deadline/gray\", \"p\": 16, \"metric\": \""
           << metric << "\", \"value\": " << value << "}";
    EXPECT_NE(json.find(expect.str()), std::string::npos)
        << "fault-knob record drifted: " << expect.str();
    value += 1.0;
  }
}

TEST_F(BenchJson, EmptyMetricsAndHistogramsRenderAsEmptyContainers) {
  // A report that never calls add_metric/add_histogram still emits both v2
  // keys, as an empty object/array — the shape is uniform so consumers can
  // index unconditionally.
  const std::string json = write_and_read(sample_report());
  EXPECT_NE(json.find("\"metrics\": {},"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": []"), std::string::npos);
}

TEST_F(BenchJson, MetricsObjectRoundTripsNamesAndValues) {
  harness::FigureReport report = sample_report();
  report.add_metric("tracer_events_recorded", 287.0);
  report.add_metric("probe_shard0_write_acquires", 12.0);
  report.add_metric("tracer_events_recorded", 300.0);  // last write wins
  const std::string json = write_and_read(report);
  EXPECT_NE(json.find("\"tracer_events_recorded\": 300"), std::string::npos);
  EXPECT_NE(json.find("\"probe_shard0_write_acquires\": 12"),
            std::string::npos);
  // The overwritten value must not survive as a duplicate key.
  EXPECT_EQ(json.find("\"tracer_events_recorded\": 287"), std::string::npos);
}

TEST_F(BenchJson, HistogramEntriesCarrySummaryAndBuckets) {
  // Pin the per-histogram record vocabulary: summary scalars plus the
  // bucket triples. fig7's probe_latency_us entry and the perf-tracking
  // diff both key on these names.
  harness::FigureReport report = sample_report();
  obs::LogHistogram hist;
  for (const double v : {1.0, 2.0, 4.0, 8.0, 16.0}) hist.record(v);
  report.add_histogram("probe_latency_us", hist);
  const std::string json = write_and_read(report);
  EXPECT_NE(json.find("{\"name\": \"probe_latency_us\", \"count\": 5, "
                      "\"min\": 1, \"max\": 16, "),
            std::string::npos);
  for (const char* key : {"\"mean\":", "\"p50\":", "\"p95\":", "\"p99\":",
                          "\"buckets\": [{\"lo\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // One bucket object per occupied bucket, each a lo/hi/count triple.
  EXPECT_NE(json.find("\"hi\": "), std::string::npos);
  EXPECT_NE(json.find(", \"count\": 1}"), std::string::npos);
}

TEST_F(BenchJson, UnwritablePathReturnsFalse) {
  const harness::FigureReport report = sample_report();
  EXPECT_FALSE(report.write_json("/nonexistent-dir/nope/record.json"));
}

}  // namespace
}  // namespace rmalock
