#include "lpsolve/lower_bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/source.h"

namespace tempofair::lpsolve {
namespace {

TEST(OptBounds, TrivialBoundIsSumOfSizePowers) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 2.0, 3.0});
  OptBoundsOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_DOUBLE_EQ(b.trivial_lb, 1.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(b.best_lb, b.trivial_lb);
  EXPECT_DOUBLE_EQ(b.lp_lb, 0.0);
}

TEST(OptBounds, BracketOrderingHolds) {
  std::uint64_t draw = 0;
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::make_instance(
        workload::WorkloadSpec::poisson(35, 0.9, workload::ExponentialSize{1.5},
                                        89 + draw++));
    OptBoundsOptions opt;
    opt.k = k;
    const OptBounds b = opt_bounds(inst, opt);
    EXPECT_GT(b.best_lb, 0.0);
    EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GE(b.best_lb, b.trivial_lb - 1e-9);
    EXPECT_GE(b.best_lb, b.lp_lb - 1e-9);
  }
}

TEST(OptBounds, ProxyBoundsAnyPolicyFromBelow) {
  // proxy = min(SRPT, SJF) >= OPT, so every policy's cost >= ... is NOT
  // implied; instead: proxy <= RR's cost must hold only when SRPT beats RR,
  // which it does for l1 on one machine.
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          40, 0.9, workload::ExponentialSize{1.5}, 97));
  OptBoundsOptions opt;
  opt.k = 1.0;
  opt.with_lp = false;
  const OptBounds b = opt_bounds(inst, opt);
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const double rr_cost = flow_lk_power(run(inst, rr, req).schedule, 1.0);
  EXPECT_LE(b.proxy_ub, rr_cost * (1.0 + 1e-9));
}

TEST(OptBounds, MultiMachineBracket) {
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          40, 0.9, workload::ExponentialSize{1.0}, 101, 4));
  OptBoundsOptions opt;
  opt.k = 2.0;
  opt.machines = 4;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, AutoSlotKeepsGridBounded) {
  // A long-horizon instance must be solvable via the auto-coarsened grid.
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          80, 0.5, workload::ExponentialSize{10.0}, 103));
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_GT(b.lp_lb, 0.0);
  EXPECT_LE(b.lp_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, DenormalJobSizeDoesNotPoisonBounds) {
  // Regression: a denormal-size job used to collapse the auto slot width to
  // a denormal, making horizon/slot overflow and the LP grid degenerate.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 1.0}, {0.5, std::numeric_limits<double>::denorm_min()}, {1.0, 2.0}};
  const Instance inst = Instance::from_pairs(pairs);
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_TRUE(std::isfinite(b.best_lb));
  EXPECT_TRUE(std::isfinite(b.lp_lb));
  EXPECT_GT(b.best_lb, 0.0);
  EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, CertifiedLbBacksBestLb) {
  std::uint64_t draw = 0;
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::make_instance(
        workload::WorkloadSpec::poisson(30, 0.85,
                                        workload::UniformSize{0.5, 2.0},
                                        109 + draw++));
    OptBoundsOptions opt;
    opt.k = k;
    const OptBounds b = opt_bounds(inst, opt);
    EXPECT_TRUE(b.lb_certified) << "k=" << k;
    EXPECT_GT(b.certified_lb, 0.0);
    // The exact certificate may only give up float-level slack vs best_lb.
    EXPECT_LE(b.certified_lb, b.best_lb * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GE(b.certified_lb, b.best_lb * (1.0 - 1e-4)) << "k=" << k;
  }
}

TEST(OptBounds, NonIntegerKFallsBackToLpCertificate) {
  // The trivial bound only certifies integer k; for k=1.5 the LP dual
  // certificate must carry the certification on its own.
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          25, 0.85, workload::UniformSize{0.5, 2.0}, 113));
  OptBoundsOptions opt;
  opt.k = 1.5;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_TRUE(b.lb_certified);
  EXPECT_GT(b.certified_lb, 0.0);
}

TEST(OptBounds, SingleJobExactness) {
  // One job: OPT flow = size; trivial bound is exactly OPT^k.
  const Instance inst = Instance::batch(std::vector<Work>{4.0});
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_DOUBLE_EQ(b.trivial_lb, 16.0);
  EXPECT_DOUBLE_EQ(b.proxy_ub, 16.0);  // SRPT achieves it
}

}  // namespace
}  // namespace tempofair::lpsolve
