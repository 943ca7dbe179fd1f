// The flow-time LP relaxation of Section 3.1, discretized and solved exactly.
//
//   min  sum_{j,t} (x_{jt}/p_j) ((t - r_j)^k + p_j^k)
//   s.t. sum_t x_{jt} >= p_j          (every job fully processed)
//        sum_j x_{jt} <= m * slot     (machine capacity per slot)
//        x >= 0,   x_{jt} = 0 for t < r_j
//
// Time is discretized into slots of width `slot`; each slot's cost uses the
// slot's *start*, which under-estimates the true integrand (costs increase in
// t), so the discrete optimum is a valid lower bound on the continuous LP,
// which in turn is at most 2 * OPT^k (the paper's observation: for any
// feasible schedule, (t-r_j)^k <= F_j^k while j is alive and p_j^k <= F_j^k).
// Hence:   OPT^k  >=  lp_value / 2.
//
// The LP is a transportation problem (jobs -> slots) solved exactly by
// min-cost max-flow; build_lp() exposes the same program for the dense
// simplex so the two solvers can cross-validate (experiment T8).
#pragma once

#include "core/instance.h"
#include "lpsolve/certify.h"
#include "lpsolve/simplex.h"

namespace tempofair::lpsolve {

/// Jobs below this size are dropped from the LP.  A denormal-size job makes
/// unit cost (t^k + p^k) / p overflow to infinity, and removing a demand
/// row only *lowers* the LP optimum, so the relaxed value stays a valid
/// lower bound on OPT^k.
inline constexpr double kMinLpJobSize = 1e-12;

struct FlowtimeLpOptions {
  double k = 2.0;        ///< the l_k norm exponent
  int machines = 1;
  double slot = 1.0;     ///< discretization width
  /// Optional cap on the number of slots (0 = derive from the horizon bound).
  /// A cap that leaves too little capacity for the work, or that ends the
  /// grid before some included job's release, is a bad option.
  std::size_t max_slots = 0;
};

struct FlowtimeLpResult {
  double lp_value = 0.0;       ///< optimal discretized LP objective
  double opt_power_lb = 0.0;   ///< lp_value / 2: lower bound on OPT^k
  std::size_t slots = 0;
  std::size_t edges = 0;
  std::size_t skipped_jobs = 0;  ///< jobs below kMinLpJobSize dropped
  /// Exact-rational certificate for `lp_value`: a dual-feasible solution of
  /// the transportation LP, repaired from the min-cost-flow potentials and
  /// verified in exact arithmetic.  When certified, `certificate.value` is a
  /// machine-checked lower bound on the discretized LP optimum (so
  /// certificate.value / 2 certifies opt_power_lb).
  CertifiedBound certificate;
};

/// Solves the discretized LP exactly via min-cost max-flow.
/// Throws std::invalid_argument for empty instances or bad options.
[[nodiscard]] FlowtimeLpResult solve_flowtime_lp(const Instance& instance,
                                                 const FlowtimeLpOptions& options);

/// Builds the identical LP as a dense LinearProgram (variables x_{jt} in
/// job-major order, only t >= r_j slots materialized) for the simplex
/// cross-check.  Only sensible for tiny instances.
[[nodiscard]] LinearProgram build_flowtime_lp(const Instance& instance,
                                              const FlowtimeLpOptions& options);

}  // namespace tempofair::lpsolve
