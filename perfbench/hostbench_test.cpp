// Tests for the benchmark's own code: the percentile rule, span self-time
// arithmetic, and that every workload's simulated-outcome digest repeats
// across passes in one process, traced or not, stepped or run_until.
#include <gtest/gtest.h>

#include "passes.h"
#include "report.h"
#include "spans.h"

namespace pagoda::perfbench {
namespace {

TEST(PercentileRule, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_percentile(0), 0.0);
  EXPECT_EQ(highest_reportable_percentile(19), 0.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(99), 50.0);
  EXPECT_EQ(highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(highest_reportable_percentile(999), 90.0);
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(highest_reportable_percentile(9999), 99.0);
  EXPECT_EQ(highest_reportable_percentile(10000), 99.9);
}

TEST(SpanSelfTime, SubtractsDirectChildrenOnly) {
  // pass [0,100] > a [10,40] > b [20,30]; pass > c [50,90]; c > b [60,65].
  const std::vector<Span> spans = {
      {"pass", 0, 100, -1, -1}, {"a", 10, 40, 0, 0}, {"b", 20, 30, 1, 0},
      {"c", 50, 90, 0, 1},      {"b", 60, 65, 3, 1},
  };
  const auto self = self_time_ns(spans);
  EXPECT_EQ(self.at("pass"), 100 - 30 - 40);
  EXPECT_EQ(self.at("a"), 30 - 10);
  EXPECT_EQ(self.at("c"), 40 - 5);
  EXPECT_EQ(self.at("b"), 10 + 5);  // same-name spans add up
  double total = 0;
  for (const auto& kv : self) total += kv.second;
  EXPECT_EQ(total, 100);  // self times tile the root span
}

TEST(SpanRecorder, NestsAndInheritsCells) {
  SpanRecorder rec;
  {
    ScopedSpan pass(&rec, "pass");
    {
      ScopedSpan cell(&rec, "cell", 7);
      ScopedSpan inner(&rec, "layer");
    }
    ScopedSpan other(&rec, "layer");
  }
  const std::vector<Span>& s = rec.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[2].cell, 7);
  EXPECT_EQ(s[3].parent, 0);
  EXPECT_EQ(s[3].cell, -1);
  for (const Span& x : s) EXPECT_LE(x.start_ns, x.end_ns);
  ScopedSpan off(nullptr, "untraced");  // a null recorder records nothing
}

Scale tiny() {
  Scale s;
  s.fig5_tasks = 16;
  s.compute_tasks = 4;
  s.fleet_nodes = 4;
  s.fleet_requests_per_node = 16;
  return s;
}

class DigestStability : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(DigestStability, RepeatsAcrossPassesAndModes) {
  PassOptions plain;
  plain.seed = 3;
  const PassResult a = run_pass(GetParam(), tiny(), plain);
  const PassResult b = run_pass(GetParam(), tiny(), plain);
  EXPECT_GT(a.attempted, 0);
  EXPECT_EQ(a.failed, 0);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.counters, b.counters);

  SpanRecorder rec;
  PassOptions traced = plain;
  traced.spans = &rec;
  traced.collect = true;
  const PassResult t = run_pass(GetParam(), tiny(), traced);
  EXPECT_EQ(t.digest, a.digest);  // spans and the collector are passive
  EXPECT_FALSE(rec.spans().empty());

  PassOptions until = plain;
  until.run_until = true;  // only fleet_open reads it
  EXPECT_EQ(run_pass(GetParam(), tiny(), until).digest, a.digest);

  PassOptions other = plain;
  other.seed = 4;
  EXPECT_NE(run_pass(GetParam(), tiny(), other).digest, a.digest);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DigestStability,
                         ::testing::Values(WorkloadId::kFig5Model,
                                           WorkloadId::kFleetOpen,
                                           WorkloadId::kComputeVerify),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

}  // namespace
}  // namespace pagoda::perfbench
