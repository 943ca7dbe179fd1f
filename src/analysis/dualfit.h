// Dual-fitting verifier: a machine-checked certificate of the paper's proof
// (Sections 3.2-3.4) on concrete Round Robin schedules.
//
// Given the schedule produced by RR at speed eta on m machines, the verifier
// constructs the paper's dual variables in closed form:
//
//   alpha_j = sum over trace intervals I subset [r_j, C_j]:
//       if I is overloaded (n_t >= m):
//           sum_{j' in A(t, r_j)} integral_I k (t - r_{j'})^{k-1} / n_t dt
//           (A(t, r_j): alive jobs that arrived no later than j under the
//            strict order (release, id); includes j itself)
//       if I is underloaded (n_t < m):
//           integral_I k (t - r_j)^{k-1} dt
//     minus  eps * F_j^k
//
//   beta_t  = (1/2 - 3 eps) / m * sum_j 1[t in [r_j, C_j + delta F_j]]
//             * F_j^{k-1},      with delta = eps
//
// (The 1/m scaling makes the dual objective term m * integral beta_t dt equal
// (1+delta)(1/2-3eps) RR^k exactly as in Lemma 2; on one machine it matches
// the paper's formula verbatim.)
//
// It then checks, numerically and exactly (all integrals in closed form over
// the piecewise-constant trace):
//   * Lemma 1:  sum_j alpha_j >= (1/2 - eps) RR^k
//   * Lemma 2:  m * integral beta_t dt <= (1/2 - 2 eps) RR^k
//   * Dual feasibility (Lemmas 3-4 combined): for every job j and every time
//     t >= r_j,   alpha_j / p_j <= gamma ((t-r_j)^k + p_j^k) / p_j + beta_t,
//     with gamma = k (k/eps)^k.  beta is piecewise constant and the rest of
//     the right side is nondecreasing in t, so checking the left endpoint of
//     every beta-piece is exhaustive.
//   * Dual objective  sum alpha - m integral beta  >=  eps * RR^k  (this is
//     what Theorem 1 needs; RR^k = sum_j F_j^k).
//
// A feasible certificate implies, by weak LP duality, RR^k <= (2 gamma /
// objective_ratio) * OPT^k, i.e. an l_k-norm competitive ratio of
// (2 gamma / objective_ratio)^{1/k} at the simulated speed -- the verifier
// reports this implied bound.
//
// Note Lemma 4's final step needs eta (1/2 - 3 eps) >= k, i.e.
// (1+10eps)(1-6eps) >= 1, which holds for eps <= 1/15; use eps <= 1/15 when
// a passing certificate is expected at exactly eta = 2k(1+10 eps).
#pragma once

#include "core/schedule.h"

namespace tempofair::analysis {

struct DualFitOptions {
  double k = 2.0;      ///< l_k exponent (finite, >= 1)
  double eps = 0.05;   ///< the analysis' epsilon, in (0, 1/10]
  /// Override gamma (finite, >= 0); 0 = the paper's k*(k/eps)^k.  When
  /// that product overflows (k around 100 and up) every constraint would
  /// hold vacuously, so the certificate reports feasible = false.
  double gamma = 0.0;
};

struct DualFitResult {
  double k = 0.0;
  double eps = 0.0;
  double delta = 0.0;
  double gamma = 0.0;
  double speed = 0.0;  ///< speed the schedule was simulated at
  int machines = 1;

  double rr_power = 0.0;       ///< RR^k = sum_j F_j^k
  double alpha_sum = 0.0;      ///< sum_j alpha_j
  double beta_term = 0.0;      ///< m * integral beta_t dt
  double dual_objective = 0.0; ///< alpha_sum - beta_term

  bool lemma1_ok = false;      ///< alpha_sum >= (1/2 - eps) RR^k
  bool lemma2_ok = false;      ///< beta_term <= (1/2 - 2 eps) RR^k
  /// Lemmas 1-2 rechecked in exact rational arithmetic at the computed
  /// double values, with *no* tolerance.  A certificate with lemma*_ok true
  /// but lemmas_exact false only passed by the float slack.
  bool lemmas_exact = false;
  double min_slack = 0.0;      ///< min over (job, beta piece) of RHS - LHS
  /// Worst violation normalized by the constraint's own scale; 0 = feasible.
  double max_relative_violation = 0.0;
  bool feasible = false;

  double objective_ratio = 0.0;       ///< dual_objective / rr_power
  bool objective_ok = false;          ///< objective_ratio >= eps (to 1e-9)
  /// (2 gamma / objective_ratio)^{1/k}: the implied l_k competitive ratio at
  /// this speed, valid when feasible && objective_ratio > 0.
  double implied_lk_ratio = 0.0;

  /// Everything Theorem 1 requires of the construction.
  [[nodiscard]] bool certificate_valid() const noexcept {
    return lemma1_ok && lemma2_ok && feasible && objective_ok;
  }
};

/// Runs the verifier on a schedule (must have a recorded trace).
/// The schedule should come from RoundRobin for the theorem's guarantees to
/// apply, but any traced schedule is accepted -- the checks then report
/// whether the construction happens to work for it.  Throws
/// std::invalid_argument on a missing trace or out-of-range options.
///
/// The result is deterministic for one build, but where several beta
/// breakpoints fall at the same time (equal releases, or r_i equal to some
/// C_j + delta F_j) beta's running sum adds the tied events in the order
/// std::sort leaves them, which the standard does not fix.  The last bits
/// of beta_term and of the fields derived from beta (dual_objective,
/// objective_ratio, min_slack, ...) are therefore portable across standard
/// libraries only on inputs without tied breakpoints.
[[nodiscard]] DualFitResult dual_fit_certificate(const Schedule& schedule,
                                                 const DualFitOptions& options);

/// The speed Theorem 1 prescribes: eta = 2k(1 + 10 eps).
[[nodiscard]] inline double theorem1_speed(double k, double eps) noexcept {
  return 2.0 * k * (1.0 + 10.0 * eps);
}

}  // namespace tempofair::analysis
