// The standard fast-path perf case suite behind tools/perf_gate and the
// committed BENCH_fastpath.json baseline.
//
// Each case times one whole engine run (workload construction is excluded
// for materialized instances; the streaming case deliberately includes
// generation, because "million jobs end to end without materializing the
// instance" is exactly the claim being measured).  Event-loop/fast-path
// pairs run on the identical instance so the derived
// `speedup_vs_event_loop` stat is apples to apples.  The one non-engine
// case, `lp_opt_bounds_exp_k2`, times one exact LP lower bound.
#pragma once

#include <cstddef>

#include "perf_harness.h"

namespace tempofair::perf {

struct CaseOptions {
  /// Scale workloads down for a CI smoke run (shared runners, minutes not
  /// tens of minutes).  Smoke numbers are comparable only to smoke
  /// baselines; perf_gate never mixes the two (the case names differ).
  bool smoke = false;
  /// Timed runs per case (one extra untimed warmup run each).
  std::size_t repeats = 5;
};

/// Runs the full case suite and returns the report (git_rev left for the
/// caller to stamp).  Case names are suffixed "_smoke" in smoke mode.
[[nodiscard]] Report run_fastpath_cases(const CaseOptions& options = {});

}  // namespace tempofair::perf
