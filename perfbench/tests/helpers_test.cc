// Tests of the benchmark driver's own helpers: percentile selection,
// failed-op accounting, the result line's shape, and span recording.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10);
  EXPECT_EQ(SamplesBeyond(99, 90), 9);  // rank ceil(89.1) = 90
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(0, 50), 0);
}

TEST(PercentileTest, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(5), 0);
  EXPECT_EQ(HighestSupportedPercentile(99), 0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(50, {50, 75}, 10), 75);
}

TEST(PercentileTest, SummaryReportsSupportedTail) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000);
  EXPECT_EQ(s.p50, 499);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 989);
  const LatencySummary few = Summarize({1, 2, 3});
  EXPECT_EQ(few.tail_pct, 0);
  EXPECT_EQ(few.tail, 0);
}

TEST(OpCounterTest, ErrorCountsAsFailedAttempt) {
  OpCounter ops;
  EXPECT_TRUE(ops.Record(iolap::Status::Ok()));
  EXPECT_FALSE(ops.Record(iolap::Status::IoError("disk gone")));
  EXPECT_TRUE(ops.Record(iolap::Status::Ok()));
  EXPECT_FALSE(ops.Record(iolap::Status::Unavailable("busy")));
  EXPECT_EQ(ops.attempted(), 4);
  EXPECT_EQ(ops.failed(), 2);
  EXPECT_DOUBLE_EQ(ops.failed_fraction(), 0.5);
  EXPECT_EQ(OpCounter().failed_fraction(), 0);
}

TEST(ReportTest, ResultLineShape) {
  Report report;
  report.Metric("latency_ms", 1.25, "ms");
  report.Metric("setup_s", 0.5, "s");
  report.Metric("latency_ms", 1.5, "ms");  // overwrite keeps one entry
  EXPECT_TRUE(report.has_metric("setup_s"));
  EXPECT_FALSE(report.has_metric("other"));
  EXPECT_EQ(report.ResultLine(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ReportTest, NumbersKeepAllDigits) {
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  { SpanScope span(tracer, "x"); span.Count("k", 1); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TracerTest, NestingAndOps) {
  Tracer tracer(true);
  tracer.BeginOp();
  {
    SpanScope outer(tracer, "outer");
    { SpanScope inner(tracer, "inner"); inner.Count("pages", 3); }
    outer.Count("pages", 5);
  }
  tracer.BeginOp();
  { SpanScope other(tracer, "outer"); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[0].op, spans[1].op);
  EXPECT_NE(spans[0].op, spans[2].op);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[1].counter("pages"), 3);
  EXPECT_EQ(CounterValues(tracer, "outer", "pages"), std::vector<double>{5});
  EXPECT_EQ(SpanSeconds(tracer, "outer").size(), 2u);
  EXPECT_GE(spans[0].seconds(), spans[1].seconds());
  EXPECT_EQ(SpanSecondsWhere(tracer, "inner", "pages", 3).size(), 1u);
  EXPECT_TRUE(SpanSecondsWhere(tracer, "inner", "pages", 5).empty());
}

TEST(TimedLoopTest, ThroughputAndTracedHalf) {
  Tracer tracer(true);
  TimedLoop loop(tracer, 0.2, 1);
  int64_t iterations = 0;
  while (loop.Continue()) {
    ++iterations;
    SpanScope span(tracer, "op");
    const double t0 = NowSeconds();
    while (NowSeconds() - t0 < 0.001) {
    }
    loop.Record(0.002);  // ops / (2 ms * ops) = 500/s
  }
  EXPECT_EQ(loop.iterations(), iterations);
  EXPECT_NEAR(loop.ops_per_s(), 500, 1e-6);
  // Only the second half was traced; tracing is back on afterwards.
  EXPECT_TRUE(tracer.enabled());
  EXPECT_GT(tracer.spans().size(), 0u);
  EXPECT_LT(static_cast<int64_t>(tracer.spans().size()), iterations);
}

}  // namespace
}  // namespace perfbench
