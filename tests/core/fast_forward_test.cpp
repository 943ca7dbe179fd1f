// Fast-path / generic-loop equivalence: the whole contract of the
// epoch-coalescing kernel (core/fast_forward.cpp) is that its output is
// BYTE-identical to the generic event loop -- completion times, derived
// l_k norms, and every recorded trace interval.  These tests run both
// paths on the same instances and compare bitwise, not within tolerance:
// any relaxation here would let the two paths drift and silently change
// experiment results depending on which path a run takes.
//
// Every comparison additionally runs under exhaustive invariant checking
// (core/invariants.h) and replays the recorded trace through the offline
// battery, so a kernel bug that keeps both paths in agreement but breaks a
// structural property (capacity, work conservation, monotone remaining)
// still fails here.
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/invariants.h"
#include "core/metrics.h"
#include "core/schedule.h"
#include "policies/registry.h"
#include "workload/adversarial.h"
#include "workload/generators.h"
#include "workload/rng.h"
#include "workload/source.h"

namespace tempofair {
namespace {

constexpr std::uint64_t kSeed = 20260806;

using workload::WorkloadSpec;

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

// Bitwise comparison of two schedules: completions, l_k norms, and the
// full trace (interval bounds, alive sets, per-job rates).  The arena's
// uniform-rate compression flag is representation, not content, so rates
// are compared through the logical rate(i) accessor.
void expect_identical(const Schedule& fast, const Schedule& slow) {
  ASSERT_EQ(fast.n(), slow.n());
  for (JobId id = 0; id < static_cast<JobId>(fast.n()); ++id) {
    ASSERT_EQ(bits(fast.completion(id)), bits(slow.completion(id)))
        << "job " << id << ": fast C=" << fast.completion(id)
        << " slow C=" << slow.completion(id);
    ASSERT_EQ(bits(fast.release(id)), bits(slow.release(id))) << "job " << id;
    ASSERT_EQ(bits(fast.size(id)), bits(slow.size(id))) << "job " << id;
  }
  for (const double k : {1.0, 2.0, 3.0}) {
    EXPECT_EQ(bits(flow_lk_norm(fast, k)), bits(flow_lk_norm(slow, k)))
        << "l_" << k << " norm differs";
  }
  ASSERT_EQ(fast.has_trace(), slow.has_trace());
  if (!fast.has_trace()) return;
  const TraceArena& ft = fast.trace();
  const TraceArena& st = slow.trace();
  ASSERT_EQ(ft.size(), st.size()) << "interval counts differ";
  for (std::size_t i = 0; i < ft.size(); ++i) {
    const TraceIntervalView a = ft[i];
    const TraceIntervalView b = st[i];
    ASSERT_EQ(bits(a.begin()), bits(b.begin())) << "interval " << i;
    ASSERT_EQ(bits(a.end()), bits(b.end())) << "interval " << i;
    ASSERT_EQ(a.alive_count(), b.alive_count()) << "interval " << i;
    for (std::size_t j = 0; j < a.alive_count(); ++j) {
      ASSERT_EQ(a.job(j), b.job(j)) << "interval " << i << " slot " << j;
      ASSERT_EQ(bits(a.rate(j)), bits(b.rate(j)))
          << "interval " << i << " job " << a.job(j);
    }
  }
}

/// Replays a recorded schedule through the offline exhaustive battery under
/// the profile `spec` resolves to; an engine-produced schedule must be clean.
void expect_invariants_clean(const Schedule& schedule, const std::string& spec,
                             int machines, double speed) {
  const std::unique_ptr<Policy> policy = make_policy(spec);
  InvariantRunProfile profile;
  profile.machines = machines;
  profile.speed = speed;
  profile.policy = std::string(policy->name());
  profile.traits = policy->invariant_traits();
  const InvariantStats offline = check_schedule(schedule, profile);
  EXPECT_TRUE(offline.ok()) << "offline battery: " << summarize(offline);
}

void run_both_and_compare(const Instance& instance, const std::string& policy,
                          int machines, bool record_trace, double speed = 1.0) {
  SCOPED_TRACE("policy=" + policy + " m=" + std::to_string(machines) +
               " trace=" + std::to_string(record_trace));
  RunRequest fast_req;
  fast_req.policy = policy;
  fast_req.machines = machines;
  fast_req.speed = speed;
  fast_req.record_trace = record_trace;
  fast_req.use_fast_path = true;
  fast_req.invariants = InvariantMode::kExhaustive;  // a violation throws
  RunRequest slow_req = fast_req;
  slow_req.use_fast_path = false;

  const RunResult fast = run(instance, fast_req);
  const RunResult slow = run(instance, slow_req);
  EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
  EXPECT_TRUE(slow.invariants.ok()) << summarize(slow.invariants);
  expect_identical(fast.schedule, slow.schedule);
  if (record_trace) {
    expect_invariants_clean(fast.schedule, policy, machines, speed);
  }
}

/// Runs WPRR on both cores for an instance whose jobs all carry the same
/// weight: the run must succeed, bitwise equal between the cores, with every
/// trace row sharing the machines equally, and complete like unit weights.
void expect_equal_shares_on_both_cores(const Instance& instance,
                                       int machines) {
  run_both_and_compare(instance, "wprr", machines, /*record_trace=*/true);
  RunRequest req;
  req.policy = "wprr";
  req.machines = machines;
  req.record_trace = true;
  const Schedule s = run(instance, req).schedule;
  for (const TraceIntervalView iv : s.trace()) {
    for (std::size_t i = 0; i < iv.alive_count(); ++i) {
      ASSERT_EQ(bits(iv.rate(i)), bits(iv.rate(0)))
          << "unequal shares in [" << iv.begin() << ", " << iv.end() << ")";
    }
  }
  std::vector<Job> unit(instance.jobs().begin(), instance.jobs().end());
  for (Job& j : unit) j.weight = 1.0;
  const Schedule ref = run(Instance::from_jobs(unit), req).schedule;
  for (JobId id = 0; id < static_cast<JobId>(s.n()); ++id) {
    EXPECT_NEAR(s.completion(id), ref.completion(id), 1e-12) << "job " << id;
  }
}

const std::vector<std::string> kFastPolicies = {
    "rr",      "fcfs",   "sjf",           "srpt", "wprr",
    "qrr:0.7", "qrr:0.5,0.03", "setf",    "laps:0.5", "mlfq"};

TEST(FastForwardEquivalence, PoissonInstances) {
  for (const int machines : {1, 4}) {
    const Instance instance = workload::make_instance(WorkloadSpec::poisson(
        500, 0.9, workload::ExponentialSize{1.5},
        kSeed + static_cast<std::uint64_t>(machines), machines));
    for (const std::string& policy : kFastPolicies) {
      run_both_and_compare(instance, policy, machines, /*record_trace=*/true);
    }
  }
}

TEST(FastForwardEquivalence, PoissonTraceOff) {
  // Trace-off exercises a different kUniformShare code path (the id-sorted
  // alive list is not maintained at all), so it gets its own sweep.
  for (const int machines : {1, 4}) {
    const Instance instance = workload::make_instance(WorkloadSpec::poisson(
        500, 0.95, workload::ExponentialSize{2.0},
        kSeed + 17 + static_cast<std::uint64_t>(machines), machines));
    for (const std::string& policy : kFastPolicies) {
      run_both_and_compare(instance, policy, machines, /*record_trace=*/false);
    }
  }
}

TEST(FastForwardEquivalence, AdversarialInstances) {
  const std::vector<Instance> families = {
      workload::rr_l2_hard(120),
      workload::srpt_starvation(150),
      workload::staircase(64),
      workload::overload_pulse(4, 30, 2),
  };
  for (std::size_t f = 0; f < families.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    for (const int machines : {1, 4}) {
      for (const std::string& policy : kFastPolicies) {
        run_both_and_compare(families[f], policy, machines,
                             /*record_trace=*/true);
      }
    }
  }
}

TEST(FastForwardEquivalence, RandomWeightsExerciseWeightedShare) {
  workload::Rng wrng(kSeed + 100);
  const Instance base = workload::make_instance(WorkloadSpec::poisson(
      300, 0.9, workload::ExponentialSize{1.0}, kSeed + 99, 2));
  const Instance weighted =
      workload::with_weights(base, workload::WeightScheme::kRandom, wrng);
  run_both_and_compare(weighted, "wprr", 2, /*record_trace=*/true);
  run_both_and_compare(weighted, "wprr", 2, /*record_trace=*/false);

  // Valid weights near DBL_MAX overflow the waterfill's weight sum; the
  // waterfill rescales them, so equal weights still split equally.
  expect_equal_shares_on_both_cores(
      Instance::from_jobs(
          {{0, 0.0, 1.0, 1e308}, {1, 0.0, 2.0, 1e308}, {2, 0.5, 1.0, 1e308}}),
      1);
}

TEST(FastForwardEquivalence, HugeEqualWeightsSplitEquallyOnBothCores) {
  // These weights overflow the waterfill's weight sum at m=1 and m=2, and
  // cap_left * w at m=2; the overflow must reach neither core's rates.
  const double w = std::numeric_limits<double>::max();
  const Instance huge = Instance::from_jobs({{0, 0.0, 1.0, w},
                                             {1, 0.0, 2.0, w},
                                             {2, 0.5, 1.0, w},
                                             {3, 0.75, 0.5, w},
                                             {4, 4.0, 1.5, w}});
  for (const int machines : {1, 2}) {
    SCOPED_TRACE("m=" + std::to_string(machines));
    expect_equal_shares_on_both_cores(huge, machines);
  }
}

TEST(FastForwardEquivalence, SpeedAugmentationAndBursts) {
  const Instance instance = workload::make_instance(WorkloadSpec::bursty(
      8, 25, 15.0, workload::ExponentialSize{1.2}, kSeed + 7));
  for (const double speed : {1.0, 2.5}) {
    for (const std::string& policy : kFastPolicies) {
      SCOPED_TRACE("speed=" + std::to_string(speed));
      run_both_and_compare(instance, policy, 2, /*record_trace=*/true, speed);
    }
  }
}

TEST(FastForwardEquivalence, StreamingMatchesMaterialized) {
  // The streaming arrival path must admit bitwise-identical jobs and
  // produce the same schedule as the materialized fast path, which in turn
  // equals the generic loop (transitively checked above).
  for (const int machines : {1, 4}) {
    SCOPED_TRACE("m=" + std::to_string(machines));
    const auto source = workload::make_source(WorkloadSpec::poisson(
        2000, 0.9, workload::ExponentialSize{1.5}, kSeed + 31, machines));
    const Instance instance = source->instance();
    const std::unique_ptr<JobStream> stream = source->stream();

    RunRequest request;
    request.policy = "rr";
    request.machines = machines;
    request.record_trace = true;
    request.invariants = InvariantMode::kExhaustive;
    const RunResult from_instance = run(instance, request);
    const RunResult from_stream = run(*stream, request);
    EXPECT_TRUE(from_stream.invariants.ok())
        << summarize(from_stream.invariants);
    expect_identical(from_stream.schedule, from_instance.schedule);
  }
}

TEST(FastForwardEquivalence, MillionJobStreamMatchesEventLoop) {
  // The headline acceptance case: a million-job single-machine RR run
  // through the streaming fast path must be byte-identical to the generic
  // event loop on the materialized instance.  Trace off keeps the run at
  // ~1 s and the comparison to the part that matters here (completions;
  // trace equality at scale is covered above at smaller n).
  const std::size_t n = 1'000'000;
  const auto source = workload::make_source(WorkloadSpec::poisson(
      n, 0.9, workload::ExponentialSize{1.5}, kSeed + 63));
  const Instance instance = source->instance();
  const std::unique_ptr<JobStream> stream = source->stream();

  RunRequest fast_req;
  fast_req.policy = "rr";
  fast_req.record_trace = false;
  fast_req.invariants = InvariantMode::kExhaustive;
  RunRequest slow_req = fast_req;
  slow_req.use_fast_path = false;

  const RunResult fast = run(*stream, fast_req);
  const RunResult slow = run(instance, slow_req);
  EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
  ASSERT_EQ(fast.schedule.n(), n);
  expect_identical(fast.schedule, slow.schedule);
}

TEST(FastForwardEquivalence, LongStreamRuleKindsMatchEventLoop) {
  // The shared-rule kinds carry state across events (MLFQ's level column,
  // SETF's sorted permutation, LAPS's monotone-release hint).  A long
  // stream drives that state through many busy periods, level crossings
  // and group merges; every completion must still match the generic loop,
  // which recomputes each rule from scratch.
  const std::size_t n = 100'000;
  for (const int machines : {1, 4}) {
    const auto source = workload::make_source(WorkloadSpec::poisson(
        n, 0.9, workload::ExponentialSize{1.5},
        kSeed + 211 + static_cast<std::uint64_t>(machines), machines));
    const Instance instance = source->instance();
    for (const std::string policy : {"setf", "laps:0.5", "mlfq"}) {
      SCOPED_TRACE("policy=" + policy + " m=" + std::to_string(machines));
      RunRequest fast_req;
      fast_req.policy = policy;
      fast_req.machines = machines;
      fast_req.record_trace = false;
      fast_req.invariants = InvariantMode::kExhaustive;
      RunRequest slow_req = fast_req;
      slow_req.use_fast_path = false;

      const std::unique_ptr<JobStream> stream = source->stream();
      const RunResult fast = run(*stream, fast_req);
      const RunResult slow = run(instance, slow_req);
      EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
      ASSERT_EQ(fast.schedule.n(), n);
      expect_identical(fast.schedule, slow.schedule);
    }
  }
}

TEST(FastForwardEquivalence, ShuffledIdsRuleKindsMatchEventLoop) {
  // Ids in shuffled release order, releases on a coarse grid (many ties).
  // Arrivals land mid-column, so the kernel remaps SETF's sorted
  // permutation and shifts MLFQ's level column on every admission, and the
  // LAPS alive set keeps moving between releases monotone in id (the
  // suffix form of laps_rates) and not (the partial_sort fallback), which
  // exercises the release-descent count on every admission and completion.
  workload::Rng rng(kSeed + 307);
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 400; ++i) {
    const Time release =
        0.5 * static_cast<double>(static_cast<int>(rng.uniform(0.0, 120.0)));
    pairs.emplace_back(release, rng.uniform(0.05, 1.2));
  }
  const Instance instance = Instance::from_pairs(pairs);
  for (const int machines : {1, 3}) {
    for (const std::string policy :
         {"laps:0.5", "laps:0.3", "laps:1", "setf", "mlfq"}) {
      run_both_and_compare(instance, policy, machines, /*record_trace=*/true);
      run_both_and_compare(instance, policy, machines, /*record_trace=*/false);
    }
  }
}

TEST(FastForwardEquivalence, DegenerateSizesStillMatch) {
  // Jobs already under the completion threshold at admission force the
  // kernel's degenerate (full-scan) branch; the generic loop handles them
  // through its zero-rate candidate logic.  Both must agree.
  const std::vector<std::pair<Time, Work>> pairs = {
      {0.0, 1e-13},  // below kAbsEps: complete on admission
      {0.0, 1.0},
      {0.5, 1e-13},
      {0.5, 2.0},
      {1.0, 0.5},
  };
  const Instance instance = Instance::from_pairs(pairs);
  for (const std::string& policy : kFastPolicies) {
    run_both_and_compare(instance, policy, 1, /*record_trace=*/true);
    run_both_and_compare(instance, policy, 1, /*record_trace=*/false);
  }
}

}  // namespace
}  // namespace tempofair
