#include "policies/mlfq.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/source.h"

namespace tempofair {
namespace {

TEST(Mlfq, RejectsBadParameters) {
  EXPECT_THROW(Mlfq(0.0), std::invalid_argument);
  EXPECT_THROW(Mlfq(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Mlfq(1.0, 0.5), std::invalid_argument);
}

TEST(Mlfq, LevelThresholdsAreGeometric) {
  const Mlfq mlfq(1.0, 2.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(0), 1.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(1), 2.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(3), 8.0);
}

TEST(Mlfq, LevelOfAttainedService) {
  const Mlfq mlfq(1.0, 2.0);
  EXPECT_EQ(mlfq.level_of(0.0), 0);
  EXPECT_EQ(mlfq.level_of(0.99), 0);
  EXPECT_EQ(mlfq.level_of(1.0), 1);  // exactly at threshold -> next level
  EXPECT_EQ(mlfq.level_of(1.5), 1);
  EXPECT_EQ(mlfq.level_of(2.0), 2);
  EXPECT_EQ(mlfq.level_of(7.9), 3);
}

TEST(Mlfq, NewArrivalPreemptsDemotedJob) {
  // Big job passes level 0 (1 unit); small arrival at t=2 is level 0 and
  // preempts it.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 10.0}, {2.0, 0.5}});
  Mlfq mlfq(1.0, 2.0);
  const Schedule s = run(inst, mlfq, {}).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 2.5);
  EXPECT_DOUBLE_EQ(s.completion(0), 10.5);
}

TEST(Mlfq, IsNonClairvoyantAndDeterministic) {
  Mlfq policy(1.0, 2.0);
  EXPECT_FALSE(policy.clairvoyant());
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          40, 0.9, workload::ExponentialSize{2.0}, 53));
  Mlfq a(1.0, 2.0), b(1.0, 2.0);
  RunRequest open;
  RunRequest hidden;
  hidden.hide_sizes = true;
  const Schedule sa = run(inst, a, open).schedule;
  const Schedule sb = run(inst, b, hidden).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(sa.completion(j), sb.completion(j), 1e-9);
  }
}

TEST(Mlfq, BeatsRoundRobinOnBigJobPlusStreamL1) {
  // MLFQ approximates SETF: the big job is demoted past level 0 after one
  // base quantum, so fresh unit jobs preempt it and keep their flows ~1,
  // while RR makes every unit job share with the big one.
  std::vector<std::pair<Time, Work>> pairs{{0.0, 30.0}};
  for (int i = 0; i < 40; ++i) pairs.emplace_back(1.25 * i, 1.0);
  const Instance inst = Instance::from_pairs(pairs);
  Mlfq mlfq(1.0, 2.0);
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  EXPECT_LT(flow_lk_norm(run(inst, mlfq, req).schedule, 1.0),
            flow_lk_norm(run(inst, rr, req).schedule, 1.0));
}

TEST(Mlfq, CompletesOnMultipleMachines) {
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          50, 0.9, workload::ExponentialSize{1.0}, 61, 4));
  Mlfq mlfq(0.5, 2.0);
  RunRequest req;
  req.machines = 4;
  const Schedule s = run(inst, mlfq, req).schedule;
  s.validate();
}

}  // namespace
}  // namespace tempofair
