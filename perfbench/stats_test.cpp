// Unit tests for the benchmark's span arithmetic, percentile rule and
// SLO rung selection.  Build and run:
//   cmake -S perfbench -B perfbench/build && cmake --build perfbench/build
//   ctest --test-dir perfbench/build
#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > a1 [15,25);  root > b [50,60)
  const std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},
      {"a", 1, 0, 10, 40},
      {"a1", 1, 1, 15, 25},
      {"b", 1, 0, 50, 60},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {"req", 7, -1, 0, 100},
      {"x", 7, 0, 10, 50},
      {"y", 7, 0, 30, 70},  // overlaps x by 20
  };
  EXPECT_EQ(self_times(spans)[0], 100 - 60);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      {"p", 1, -1, 100, 200},
      {"c", 1, 0, 50, 150},   // only [100,150) lies inside the parent
      {"d", 1, 0, 190, 400},  // only [190,200)
  };
  EXPECT_EQ(self_times(spans)[0], 100 - 50 - 10);
}

TEST(Tracer, NestsByOpenOrderAndSharesTraceId) {
  Tracer t(true);
  {
    Scoped outer(t, "forward", 42);
    { Scoped inner(t, "nn.conv_gemm", 42); }
    { Scoped inner(t, "nn.activation", 42); }
  }
  { Scoped other(t, "forward", 43); }
  const auto& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[1].trace, 42u);
  EXPECT_EQ(s[3].trace, 43u);
  for (const Span& sp : s) EXPECT_LE(sp.start_ns, sp.end_ns);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_GE(s[0].end_ns, s[2].end_ns);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  { Scoped s(t, "forward", 1); }
  EXPECT_EQ(t.add("x", 1, -1, 0, 1), -1);
  EXPECT_TRUE(t.spans().empty());
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({3.0}, 99), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.0);  // rank 9990: only 9 beyond p99.9
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(0), 0.0);
  const Summary s = summarize(std::vector<double>(1000, 2.0));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_p, 99.0);
  EXPECT_EQ(s.median, 2.0);
}

Rung make_rung(double rate, std::size_t n, double lat, std::size_t misses,
               std::size_t outstanding = 0) {
  Rung r;
  r.rate = rate;
  r.seconds = 1.0;
  r.served_qps = static_cast<double>(n - misses);
  for (std::size_t i = 0; i < n; ++i) r.latency_ms.push_back(i < misses ? miss() : lat);
  r.outstanding_at_end = outstanding;
  return r;
}

TEST(Slo, PicksHighestPassingRung) {
  std::vector<Rung> ladder = {
      make_rung(100, 1000, 2.0, 0), make_rung(200, 1000, 30.0, 0),  // over the limit
      make_rung(400, 1000, 5.0, 0), make_rung(800, 1000, 60.0, 0),
  };
  EXPECT_EQ(slo_rung(ladder, 20.0), 2);  // a failing lower rung does not sink it
  ladder[2].latency_ms.assign(1000, 25.0);
  EXPECT_EQ(slo_rung(ladder, 20.0), 0);
}

TEST(Slo, IsolatedPassAboveFailuresDoesNotSetIt) {
  // pass pass fail fail pass fail: one quiet window at 800 req/s.
  const std::vector<Rung> ladder = {
      make_rung(100, 1000, 2.0, 0),  make_rung(200, 1000, 5.0, 0),
      make_rung(300, 1000, 30.0, 0), make_rung(400, 1000, 30.0, 0),
      make_rung(800, 1000, 5.0, 0),  make_rung(900, 1000, 30.0, 0),
  };
  EXPECT_EQ(slo_rung(ladder, 20.0), 1);
}

TEST(Slo, ShedRequestsCountAsMisses) {
  // 1% misses leave p99 finite; 2% push it to +inf.
  EXPECT_TRUE(rung_passes(make_rung(100, 1000, 2.0, 10), 20.0));
  EXPECT_FALSE(rung_passes(make_rung(100, 1000, 2.0, 20), 20.0));
  EXPECT_EQ(slo_rung({make_rung(100, 1000, 2.0, 20)}, 20.0), -1);
}

TEST(Slo, GrowingBacklogFails) {
  // At 1000 req/s a 20 ms limit allows 20 requests in flight.
  EXPECT_TRUE(rung_passes(make_rung(1000, 1000, 2.0, 0, 20), 20.0));
  EXPECT_FALSE(rung_passes(make_rung(1000, 1000, 2.0, 0, 21), 20.0));
}

TEST(Slo, EmptyRungFails) {
  EXPECT_FALSE(rung_passes(Rung{}, 20.0));
}

}  // namespace
}  // namespace perfbench
