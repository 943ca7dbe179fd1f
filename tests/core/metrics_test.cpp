#include "core/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace tempofair {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LkNorm, L1IsSum) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 1.0), 6.0);
}

TEST(LkNorm, L2MatchesEuclidean) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 2.0), 5.0);
}

TEST(LkNorm, L3HandComputed) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_NEAR(lk_norm(v, 3.0), std::cbrt(9.0), 1e-12);
}

TEST(LkNorm, InfinityIsMax) {
  const std::vector<double> v{1.0, 7.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, kInf), 7.0);
}

TEST(LkNorm, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(lk_norm(std::vector<double>{}, 2.0), 0.0);
}

TEST(LkNorm, AllZeroIsZero) {
  const std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 2.0), 0.0);
}

TEST(LkNorm, LargeKDoesNotOverflow) {
  const std::vector<double> v(100, 1e30);
  const double norm = lk_norm(v, 50.0);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_NEAR(norm, 1e30 * std::pow(100.0, 1.0 / 50.0), 1e18);
}

TEST(LkNorm, MonotoneDecreasingInK) {
  // For fixed values, the l_k norm is non-increasing in k.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  double prev = lk_norm(v, 1.0);
  for (double k : {1.5, 2.0, 3.0, 5.0, 10.0}) {
    const double cur = lk_norm(v, k);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
  EXPECT_GE(prev, linf_norm(v) - 1e-12);
}

TEST(LkNorm, RejectsKLessThanOne) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)lk_norm(v, 0.5), std::invalid_argument);
}

TEST(LkNorm, RejectsNegativeValues) {
  const std::vector<double> v{-1.0};
  EXPECT_THROW((void)lk_norm(v, 2.0), std::invalid_argument);
}

TEST(LkPowerSum, MatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 2.0), 14.0);
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 3.0), 36.0);
}

TEST(LkPowerSum, NormConsistency) {
  const std::vector<double> v{0.5, 1.5, 2.5, 4.0};
  for (double k : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(std::pow(lk_norm(v, k), k), lk_power_sum(v, k), 1e-9);
  }
}

TEST(LkPowerSum, MillionScaleFlowsAtK8) {
  // Regression: k = 8 over ~1e6-scale flows used to be accumulated as raw
  // pow(v, k) terms; the rescaled form must still match the analytic value
  // sum v^8 = 1e48 * (1 + 2^8 + 3^8).
  const std::vector<double> v{1e6, 2e6, 3e6};
  const double expect = 1e48 * (1.0 + 256.0 + 6561.0);
  EXPECT_NEAR(lk_power_sum(v, 8.0), expect, expect * 1e-12);
  EXPECT_NEAR(std::pow(lk_norm(v, 8.0), 8.0), expect, expect * 1e-9);
}

TEST(LkPowerSum, SaturatesOnlyWhenTrueSumOverflows) {
  // (1e38)^8 = 1e304: representable, must stay finite.
  EXPECT_TRUE(std::isfinite(lk_power_sum(std::vector<double>{1e38}, 8.0)));
  // (1e40)^8 = 1e320: the true sum exceeds the double range, inf is correct.
  EXPECT_TRUE(std::isinf(lk_power_sum(std::vector<double>{1e40}, 8.0)));
}

TEST(WeightedLkNorm, HugeValuesDoNotOverflowToInf) {
  // Regression: the norm used to take pow(sum w v^k, 1/k) on the *unscaled*
  // power sum, so (3e160)^2 = inf poisoned a perfectly representable norm.
  const std::vector<double> v{3e160, 4e160};
  const std::vector<double> w{1.0, 1.0};
  const double norm = weighted_lk_norm(v, w, 2.0);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_NEAR(norm, 5e160, 5e160 * 1e-12);
  // Same shape at k = 8 over ~1e6-scale values, against the analytic value.
  const std::vector<double> v8{1e6, 2e6};
  const std::vector<double> w8{2.0, 1.0};
  // (2 * (1e6)^8 + 1 * (2e6)^8)^(1/8) = 1e6 * (2 + 256)^(1/8)
  const double expect = 1e6 * std::pow(2.0 + 256.0, 1.0 / 8.0);
  EXPECT_NEAR(weighted_lk_norm(v8, w8, 8.0), expect, expect * 1e-12);
}

TEST(WeightedLkPower, MillionScaleMatchesUnweighted) {
  const std::vector<double> v{1e6, 2e6, 3e6};
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_NEAR(weighted_lk_power(v, ones, 8.0), lk_power_sum(v, 8.0),
              lk_power_sum(v, 8.0) * 1e-12);
}

TEST(LiveMetricsPercentile, EmptyIsZero) {
  const LiveMetrics live;
  EXPECT_DOUBLE_EQ(live.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(live.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(live.percentile(100.0), 0.0);
}

TEST(LiveMetricsPercentile, EndpointsMatchFreeFunction) {
  LiveMetrics live;
  for (double f : {5.0, 1.0, 3.0}) live.record(f);
  EXPECT_DOUBLE_EQ(live.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(live.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(live.percentile(100.0), 5.0);
}

TEST(LiveMetricsPercentile, CacheInvalidatedByRecordAndReset) {
  LiveMetrics live;
  live.record(2.0);
  // Prime the sorted cache, then complete another job: the next query must
  // see the new value, not the stale cache.
  EXPECT_DOUBLE_EQ(live.percentile(100.0), 2.0);
  live.record(9.0);
  EXPECT_DOUBLE_EQ(live.percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(live.percentile(0.0), 2.0);
  live.reset();
  EXPECT_DOUBLE_EQ(live.percentile(100.0), 0.0);
}

TEST(LiveMetricsPercentile, RejectsOutOfRange) {
  LiveMetrics live;
  live.record(1.0);
  EXPECT_THROW((void)live.percentile(-0.5), std::invalid_argument);
  EXPECT_THROW((void)live.percentile(100.5), std::invalid_argument);
}

TEST(Percentile, Endpoints) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, RejectsOutOfRange) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(FlowStats, SummarizesCorrectly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const FlowStats s = flow_stats(v);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.l1, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.linf, 4.0);
  EXPECT_NEAR(s.variance, 1.25, 1e-12);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
}

TEST(FlowStats, EmptyIsAllZero) {
  const FlowStats s = flow_stats(std::vector<double>{});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.l1, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(FlowStats, SingleValue) {
  const FlowStats s = flow_stats(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.l2, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

// The sort-based FlowStats the library computed before it switched to
// selection: separate passes through the public norms, and percentile()
// over a sorted copy.  flow_stats must reproduce it bit for bit.
FlowStats sort_based_flow_stats(const std::vector<double>& v) {
  FlowStats s;
  s.n = v.size();
  if (v.empty()) return s;
  double sum = 0.0, sq = 0.0;
  for (const double f : v) {
    sum += f;
    sq += f * f;
  }
  s.l1 = sum;
  s.l2 = lk_norm(v, 2.0);
  s.l3 = lk_norm(v, 3.0);
  s.linf = linf_norm(v);
  s.mean = sum / static_cast<double>(s.n);
  s.variance = std::max(0.0, sq / static_cast<double>(s.n) - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  s.p50 = percentile(v, 50.0);
  s.p95 = percentile(v, 95.0);
  s.p99 = percentile(v, 99.0);
  return s;
}

void expect_bitwise_equal(const FlowStats& got, const FlowStats& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(bits(got.l1), bits(want.l1));
  EXPECT_EQ(bits(got.l2), bits(want.l2));
  EXPECT_EQ(bits(got.l3), bits(want.l3));
  EXPECT_EQ(bits(got.linf), bits(want.linf));
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.variance), bits(want.variance));
  EXPECT_EQ(bits(got.stddev), bits(want.stddev));
  EXPECT_EQ(bits(got.p50), bits(want.p50));
  EXPECT_EQ(bits(got.p95), bits(want.p95));
  EXPECT_EQ(bits(got.p99), bits(want.p99));
}

void expect_bitwise_stats(const std::vector<double>& v) {
  SCOPED_TRACE("n=" + std::to_string(v.size()));
  expect_bitwise_equal(flow_stats(v), sort_based_flow_stats(v));
}

TEST(FlowStats, SelectionMatchesSortBasedBitwise) {
  std::mt19937_64 rng(20260806);
  std::exponential_distribution<double> flow(0.4);
  std::uniform_int_distribution<int> tie(0, 3);
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 20, 99, 100, 101, 1000, 4099};
  for (const std::size_t n : sizes) {
    std::vector<double> random(n), ties(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = flow(rng);
      ties[i] = 0.5 * static_cast<double>(tie(rng));  // four values, 0 included
    }
    expect_bitwise_stats(random);
    expect_bitwise_stats(ties);
    expect_bitwise_stats(std::vector<double>(n, 2.75));
    expect_bitwise_stats(std::vector<double>(n, 0.0));
    // Sorted either way: selection must not depend on the input order.
    std::sort(random.begin(), random.end());
    expect_bitwise_stats(random);
    std::reverse(random.begin(), random.end());
    expect_bitwise_stats(random);
  }
}

TEST(FlowStats, L2TermsArePowNotSquares) {
  // For rare x, pow(x, 2) and x * x round apart (libms whose pow is not
  // correctly rounded), and lk_norm() -- the reference -- calls pow().  A
  // compiler may rewrite pow with a literal 2 as a square, so flow_stats
  // must reach pow() the way lk_norm() does.  Pairs {1, x} for such x make
  // the difference visible in l2.
  volatile double two = 2.0;
  std::size_t found = 0;
  for (int i = 0; i < 400'000 && found < 64; ++i) {
    const double x = 0.7 + 0.3 * static_cast<double>(i) / 400'000.0;
    if (std::pow(x, static_cast<double>(two)) == x * x) continue;
    ++found;
    expect_bitwise_stats({1.0, x});
  }
}

TEST(FlowStats, ScheduleOverloadMatchesSortBased) {
  std::mt19937_64 rng(7);
  std::exponential_distribution<double> size(1.0);
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 500; ++i) pairs.emplace_back(0.1 * i, size(rng) + 0.01);
  Schedule schedule(Instance::from_pairs(pairs), 1, 1.0);
  Time t = 0.0;
  for (JobId id = 0; id < 500; ++id) {
    t = std::max(t, schedule.release(id)) + schedule.size(id);
    schedule.set_completion(id, t);
  }
  expect_bitwise_equal(flow_stats(schedule),
                       sort_based_flow_stats(schedule.flows()));
}

TEST(LinfNorm, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(linf_norm(std::vector<double>{}), 0.0);
}

TEST(WeightedLkPower, MatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> w{2.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(weighted_lk_power(v, w, 1.0), 2.0 + 2.0 + 1.5);
  EXPECT_DOUBLE_EQ(weighted_lk_power(v, w, 2.0), 2.0 + 4.0 + 4.5);
}

TEST(WeightedLkPower, UnitWeightsMatchUnweighted) {
  const std::vector<double> v{0.5, 1.5, 2.5};
  const std::vector<double> w{1.0, 1.0, 1.0};
  for (double k : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(weighted_lk_power(v, w, k), lk_power_sum(v, k), 1e-12);
    EXPECT_NEAR(weighted_lk_norm(v, w, k), lk_norm(v, k), 1e-12);
  }
}

TEST(WeightedLkNorm, InfinityFiltersZeroWeights) {
  const std::vector<double> v{10.0, 3.0};
  const std::vector<double> w{0.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_lk_norm(v, w, kInf), 3.0);
}

TEST(WeightedLkPower, RejectsBadInput) {
  const std::vector<double> v{1.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_THROW((void)weighted_lk_power(v, w, 2.0), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)weighted_lk_power(neg, one, 2.0), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_power(one, neg, 2.0), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_power(one, one, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace tempofair
