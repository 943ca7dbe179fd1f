// The RunRequest/RunResult facade: the policy-spec and explicit-policy
// overloads agree bitwise, JobStream edge cases driven through run() (empty
// stream, simultaneous arrivals, out-of-order rejection, cancellation
// mid-stream), and the live-metrics hooks the daemon relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/registry.h"
#include "policies/round_robin.h"
#include "workload/source.h"
#include "workload/stream.h"

namespace tempofair {
namespace {

Instance small_instance() {
  return workload::make_instance(workload::WorkloadSpec::poisson(
      30, 0.9, workload::ExponentialSize{1.2}, 99));
}

TEST(RunFacade, PolicySpecMatchesExplicitPolicyBitwise) {
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "rr";
  req.speed = 2.0;
  const RunResult result = run(inst, req);

  RoundRobin rr;
  const RunResult explicit_policy = EngineCore().run(inst, rr, req);
  EXPECT_EQ(explicit_policy.policy, result.policy);
  ASSERT_EQ(result.schedule.n(), explicit_policy.schedule.n());
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(result.schedule.completion(j),
              explicit_policy.schedule.completion(j))
        << j;
  }
}

TEST(RunFacade, ResolvesPolicyNameAndStats) {
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "srpt";
  const RunResult result = run(inst, req);
  EXPECT_EQ(result.policy, "srpt");
  EXPECT_GE(result.wall_seconds, 0.0);
  const FlowStats direct = flow_stats(result.schedule);
  EXPECT_EQ(result.stats.n, direct.n);
  EXPECT_EQ(result.stats.l1, direct.l1);
  EXPECT_EQ(result.stats.l2, direct.l2);
  EXPECT_EQ(result.stats.linf, direct.linf);
}

TEST(RunFacade, RejectsUnknownPolicySpec) {
  RunRequest req;
  req.policy = "no-such-policy";
  EXPECT_THROW((void)run(small_instance(), req), std::invalid_argument);
}

// --- JobStream edge cases through the facade --------------------------------

TEST(RunFacade, EmptyStreamProducesEmptySchedule) {
  const Instance empty;
  workload::InstanceRefStream stream(empty);
  RunRequest req;
  req.policy = "rr";
  const RunResult result = run(stream, req);
  EXPECT_EQ(result.schedule.n(), 0u);
  EXPECT_EQ(result.stats.n, 0u);
  EXPECT_EQ(result.stats.l1, 0.0);
}

TEST(RunFacade, SimultaneousArrivalsMatchInstanceRun) {
  // Three batches of simultaneous releases, including t=0.
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 4; ++i) pairs.emplace_back(0.0, 1.0 + 0.25 * i);
  for (int i = 0; i < 3; ++i) pairs.emplace_back(1.5, 2.0);
  for (int i = 0; i < 3; ++i) pairs.emplace_back(4.0, 0.5);
  const Instance inst = Instance::from_pairs(pairs);

  RunRequest req;
  req.policy = "rr";
  const RunResult offline = run(inst, req);

  workload::InstanceRefStream stream(inst);
  const RunResult streamed = run(stream, req);
  ASSERT_EQ(streamed.schedule.n(), offline.schedule.n());
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(streamed.schedule.completion(j), offline.schedule.completion(j))
        << j;
  }
}

/// A stream violating contract S2 in a configurable way.
class BrokenStream final : public JobStream {
 public:
  explicit BrokenStream(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  [[nodiscard]] std::size_t n() const noexcept override { return jobs_.size(); }
  [[nodiscard]] Job next() override { return jobs_.at(pos_++); }

 private:
  std::vector<Job> jobs_;
  std::size_t pos_ = 0;
};

TEST(RunFacade, RejectsOutOfOrderArrivals) {
  BrokenStream stream({{0, 2.0, 1.0, 1.0}, {1, 1.0, 1.0, 1.0}});
  RunRequest req;
  req.policy = "rr";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

TEST(RunFacade, RejectsNonSequentialIds) {
  BrokenStream stream({{0, 0.0, 1.0, 1.0}, {5, 1.0, 1.0, 1.0}});
  RunRequest req;
  req.policy = "rr";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

TEST(RunFacade, StreamingRequiresFastPathCapablePolicy) {
  const Instance inst = small_instance();
  workload::InstanceRefStream stream(inst);
  RunRequest req;
  // hdf's age-dependent weights keep it off the fast path (kNone); mlfq
  // and friends grew descriptors, so they stream fine now.
  req.policy = "hdf";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

/// Flips the shared cancel flag after yielding `trip_after` jobs, as if the
/// tenant disconnected mid-stream.
class CancellingStream final : public JobStream {
 public:
  CancellingStream(const Instance& instance, std::size_t trip_after,
                   std::atomic<bool>* cancel)
      : inner_(instance), trip_after_(trip_after), cancel_(cancel) {}
  [[nodiscard]] std::size_t n() const noexcept override { return inner_.n(); }
  [[nodiscard]] Job next() override {
    if (++yielded_ > trip_after_) cancel_->store(true);
    return inner_.next();
  }

 private:
  workload::InstanceRefStream inner_;
  std::size_t trip_after_;
  std::atomic<bool>* cancel_;
  std::size_t yielded_ = 0;
};

TEST(RunFacade, CancellationMidStream) {
  const Instance inst = small_instance();
  std::atomic<bool> cancel{false};
  LiveMetrics live;
  CancellingStream stream(inst, 5, &cancel);
  RunRequest req;
  req.policy = "rr";
  req.live = &live;
  req.cancel = &cancel;
  EXPECT_THROW((void)run(stream, req), RunCancelled);
  // The run died mid-flight: some (possibly zero) completions were recorded,
  // but never the full instance.
  EXPECT_LT(live.completed(), inst.n());
  EXPECT_EQ(live.expected(), inst.n());
}

TEST(RunFacade, CancellationBeforeFirstEvent) {
  std::atomic<bool> cancel{true};
  RunRequest req;
  req.policy = "rr";
  req.cancel = &cancel;
  req.use_fast_path = false;  // the generic loop polls the flag too
  EXPECT_THROW((void)run(small_instance(), req), RunCancelled);
}

// --- live metrics -----------------------------------------------------------

TEST(RunFacade, LiveMetricsMatchFinalStats) {
  const Instance inst = small_instance();
  LiveMetrics live;
  RunRequest req;
  req.policy = "rr";
  req.live = &live;
  const RunResult result = run(inst, req);

  EXPECT_EQ(live.completed(), inst.n());
  EXPECT_EQ(live.expected(), inst.n());
  // Live flows accumulate in completion order, the schedule's in job-id
  // order, so sums agree only up to floating-point reassociation.
  const FlowStats snap = live.snapshot();
  EXPECT_EQ(snap.n, result.stats.n);
  EXPECT_DOUBLE_EQ(snap.l1, result.stats.l1);
  EXPECT_EQ(snap.linf, result.stats.linf);
  EXPECT_DOUBLE_EQ(live.lk(2.0), result.stats.l2);
  EXPECT_EQ(live.percentile(100.0), result.stats.linf);
}

TEST(LiveMetrics, IncrementalSnapshots) {
  LiveMetrics live;
  live.set_expected(3);
  EXPECT_EQ(live.completed(), 0u);
  EXPECT_EQ(live.lk(2.0), 0.0);
  live.record(3.0);
  live.record(4.0);
  EXPECT_EQ(live.completed(), 2u);
  EXPECT_EQ(live.lk(2.0), 5.0);
  EXPECT_EQ(live.percentile(0.0), 3.0);
  EXPECT_EQ(live.snapshot().linf, 4.0);
  live.reset();
  EXPECT_EQ(live.completed(), 0u);
  EXPECT_EQ(live.expected(), 0u);
}

}  // namespace
}  // namespace tempofair
