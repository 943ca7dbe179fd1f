#include "lpsolve/flowtime_lp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/priority_policies.h"
#include "workload/generators.h"
#include "workload/source.h"

namespace tempofair::lpsolve {
namespace {

TEST(FlowtimeLp, SingleUnitJobValue) {
  // One job, size 1, released at 0, k=1, slot 1: the LP puts the whole job
  // in slot [0,1) at unit cost ((0-0)^1 + 1^1)/1 = 1.
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  FlowtimeLpOptions opt;
  opt.k = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_NEAR(r.lp_value, 1.0, 1e-9);
  EXPECT_NEAR(r.opt_power_lb, 0.5, 1e-9);
}

TEST(FlowtimeLp, SingleJobSizeTwoUsesTwoSlots) {
  // Size 2, k=1, slot 1: slot 0 cost (0+2)/2 = 1 per unit, slot 1 cost
  // (1+2)/2 = 1.5 per unit -> value 1*1 + 1*1.5 = 2.5.
  const Instance inst = Instance::batch(std::vector<Work>{2.0});
  FlowtimeLpOptions opt;
  opt.k = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_NEAR(r.lp_value, 2.5, 1e-9);
}

TEST(FlowtimeLp, LowerBoundsActualSchedules) {
  // LP/2 <= OPT^k <= any policy's cost, so LP/2 <= SRPT's cost.
  std::uint64_t draw = 0;
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::make_instance(
        workload::WorkloadSpec::poisson(30, 0.85,
                                        workload::UniformSize{0.5, 2.0},
                                        71 + draw++));
    FlowtimeLpOptions opt;
    opt.k = k;
    opt.slot = 0.5;
    const auto r = solve_flowtime_lp(inst, opt);
    Srpt srpt;
    RunRequest req;
    req.record_trace = false;
    const double srpt_cost = flow_lk_power(run(inst, srpt, req).schedule, k);
    EXPECT_LE(r.opt_power_lb, srpt_cost * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GT(r.opt_power_lb, 0.0);
  }
}

TEST(FlowtimeLp, FinerSlotsGiveTighterBound) {
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          20, 0.8, workload::UniformSize{0.5, 2.0}, 73));
  double prev = 0.0;
  for (double slot : {2.0, 1.0, 0.5, 0.25}) {
    FlowtimeLpOptions opt;
    opt.k = 2.0;
    opt.slot = slot;
    const auto r = solve_flowtime_lp(inst, opt);
    EXPECT_GE(r.lp_value, prev - 1e-6);  // finer grid can only raise the LP
    prev = r.lp_value;
  }
}

TEST(FlowtimeLp, MultiMachineCapacityIsLooser) {
  workload::Rng rng(79);
  const Instance inst = Instance::batch(std::vector<Work>{1, 1, 1, 1, 1, 1});
  FlowtimeLpOptions one;
  one.k = 2.0;
  FlowtimeLpOptions three = one;
  three.machines = 3;
  EXPECT_LE(solve_flowtime_lp(inst, three).lp_value,
            solve_flowtime_lp(inst, one).lp_value + 1e-9);
}

TEST(FlowtimeLp, McmfMatchesSimplexOnTinyInstances) {
  workload::Rng rng(83);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::pair<Time, Work>> pairs;
    const int n = 3;
    for (int i = 0; i < n; ++i) {
      pairs.emplace_back(static_cast<double>(rng.uniform_int(0, 3)),
                         static_cast<double>(rng.uniform_int(1, 3)));
    }
    const Instance inst = Instance::from_pairs(pairs);
    FlowtimeLpOptions opt;
    opt.k = 2.0;
    opt.slot = 1.0;
    const auto mcmf = solve_flowtime_lp(inst, opt);
    const LinearProgram lp = build_flowtime_lp(inst, opt);
    const auto simplex = solve_lp(lp);
    ASSERT_EQ(simplex.status, SolveStatus::kOptimal);
    EXPECT_NEAR(mcmf.lp_value, *simplex.objective, 1e-6)
        << "trial " << trial << " " << inst.summary();
  }
}

TEST(FlowtimeLp, CertificateBoundsValueFromBelow) {
  std::uint64_t draw = 0;
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::make_instance(
        workload::WorkloadSpec::poisson(25, 0.85,
                                        workload::UniformSize{0.5, 2.0},
                                        107 + draw++));
    FlowtimeLpOptions opt;
    opt.k = k;
    opt.slot = 0.5;
    const auto r = solve_flowtime_lp(inst, opt);
    ASSERT_TRUE(r.certificate.certified) << "k=" << k;
    EXPECT_GT(r.certificate.value, 0.0);
    EXPECT_LE(r.certificate.value, r.lp_value * (1.0 + 1e-9)) << "k=" << k;
    // The dyadic repair gives up only a sliver of the bound.
    EXPECT_GE(r.certificate.value, r.lp_value * (1.0 - 1e-4)) << "k=" << k;
  }
}

TEST(FlowtimeLp, DenormalJobSizeIsSkippedNotFatal) {
  // A denormal size passes Instance validation (it is > 0) but would drive
  // the per-unit LP cost to infinity; the solver must drop it, not throw.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 1.0}, {0.0, std::numeric_limits<double>::denorm_min()}, {1.0, 2.0}};
  const Instance inst = Instance::from_pairs(pairs);
  FlowtimeLpOptions opt;
  opt.k = 2.0;
  opt.slot = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_EQ(r.skipped_jobs, 1u);
  EXPECT_TRUE(std::isfinite(r.lp_value));
  EXPECT_GT(r.lp_value, 0.0);
  // build_flowtime_lp must apply the same skip so both agree on the program.
  const LinearProgram lp = build_flowtime_lp(inst, opt);
  const auto simplex = solve_lp(lp);
  ASSERT_EQ(simplex.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.lp_value, *simplex.objective, 1e-6);
}

TEST(FlowtimeLp, RejectsBadOptions) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  FlowtimeLpOptions opt;
  opt.slot = 0.0;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  opt.slot = 1.0;
  opt.k = 0.5;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  opt.k = 2.0;
  opt.machines = 0;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  EXPECT_THROW((void)solve_flowtime_lp(Instance{}, FlowtimeLpOptions{}),
               std::invalid_argument);
}

TEST(FlowtimeLp, InsufficientSlotCapRejected) {
  const Instance inst = Instance::batch(std::vector<Work>{10.0});
  FlowtimeLpOptions opt;
  opt.max_slots = 2;  // capacity 2 < work 10
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
}

TEST(FlowtimeLp, LateReleaseShiftsCosts) {
  // A job released at t=5 must not be charged for waiting before 5.
  const Instance early = Instance::batch(std::vector<Work>{1.0}, 0.0);
  const Instance late = Instance::batch(std::vector<Work>{1.0}, 5.0);
  FlowtimeLpOptions opt;
  opt.k = 2.0;
  EXPECT_NEAR(solve_flowtime_lp(early, opt).lp_value,
              solve_flowtime_lp(late, opt).lp_value, 1e-9);
}

}  // namespace
}  // namespace tempofair::lpsolve
