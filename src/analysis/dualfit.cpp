#include "analysis/dualfit.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::analysis {

namespace {

/// std::pow(x, y) for one fixed exponent y >= 0, bit for bit, skipping the
/// library call where the result is fixed:
///   * pow(x, 0) == 1 for every x but a signaling NaN, and every x passed
///     with y == 0 is a difference, which is never signaling;
///   * pow(+0, y) == +0 for y > 0;
///   * pow(x, 1) == x: the exact result is representable and glibc's pow
///     errs by less than 1 ULP.  NaN is left to the library, which returns
///     +NaN for pow(-NaN, 1).
class FixedPow {
 public:
  explicit FixedPow(double y) noexcept : y_(y) {}

  double operator()(double x) noexcept {
    if (y_ == 0.0) return 1.0;
    if (std::bit_cast<std::uint64_t>(x) == 0) return 0.0;
    if (y_ == 1.0 && !std::isnan(x)) return x;
    ++calls;
    return std::pow(x, y_);
  }

  std::uint64_t calls = 0;  ///< calls that reached std::pow

 private:
  double y_;
};

}  // namespace

DualFitResult dual_fit_certificate(const Schedule& schedule,
                                   const DualFitOptions& options) {
  if (!schedule.has_trace()) {
    throw std::invalid_argument("dual_fit_certificate: schedule has no trace");
  }
  const double k = options.k;
  const double eps = options.eps;
  if (!(k >= 1.0) || std::isinf(k)) {
    throw std::invalid_argument(
        "dual_fit_certificate: k must be finite and >= 1");
  }
  if (!(eps > 0.0) || eps > 0.1) {
    throw std::invalid_argument("dual_fit_certificate: eps must be in (0, 0.1]");
  }
  if (!(options.gamma >= 0.0) || std::isinf(options.gamma)) {
    throw std::invalid_argument(
        "dual_fit_certificate: gamma must be finite and >= 0 (0 = k(k/eps)^k)");
  }

  obs::ScopedTimer cert_timer("dualfit.certificate");

  DualFitResult res;
  res.k = k;
  res.eps = eps;
  res.delta = eps;  // the paper sets delta = eps
  res.gamma = options.gamma > 0.0 ? options.gamma : k * std::pow(k / eps, k);
  res.speed = schedule.speed();
  res.machines = schedule.machines();

  const std::size_t n = schedule.n();
  const int m = schedule.machines();
  const std::span<const Time> release = schedule.releases();
  const std::span<const Time> completion = schedule.completions();
  const std::span<const Work> size = schedule.sizes();
  FixedPow pow_k(k);
  FixedPow pow_km1(k - 1.0);
  std::uint64_t pow_carried = 0;

  // ---- alpha_j --------------------------------------------------------------
  // Each (row, job) entry adds integral_a^b k (t - r_j)^(k-1) dt =
  // (b - r_j)^k - (a - r_j)^k.  When a row begins bitwise where the previous
  // one ended, a job alive in both already has (a - r_j)^k as the previous
  // row's upper power (same argument, so the same pow result), and it is
  // carried instead of recomputed.  Rows list their jobs by id (I4), so a
  // merge with the previous row finds the carries; on a hand-built row in
  // another order the merge only misses some.
  //
  // beta (below) is a list of 2n events, two per job, built in the per-job
  // pass.  Until then beta[2j] keeps F_j^k = (C_j - r_j)^k for that pass: a
  // row that ends bitwise at C_j computes it as the job's upper power, from
  // the same argument.  Its t stays NaN when no row does.
  //
  // An event (time, jump in beta) until the fold below turns it into a
  // piece (start time, beta on [start, next start)).
  struct Breakpoint {
    Time t;
    double value;
  };
  std::vector<Breakpoint> beta(
      2 * n, Breakpoint{std::numeric_limits<Time>::quiet_NaN(), 0.0});
  std::vector<double> alpha(n, 0.0);
  std::vector<double> term;         // per row entry: its age-power integral
  std::vector<double> upper;        // per row entry: (b - r_j)^k
  std::vector<double> prev_upper;   // the same for the previous row
  std::vector<std::uint32_t> order; // overloaded row entries by (release, id)
  std::span<const JobId> prev_jobs;
  Time prev_end = 0.0;
  std::size_t trace_intervals = 0;
  for (const TraceIntervalView iv : schedule.trace()) {
    ++trace_intervals;
    const std::span<const JobId> jobs = iv.jobs();
    const std::size_t nt = jobs.size();
    const Time a = iv.begin();
    const Time b = iv.end();
    // Bitwise: -0.0 == +0.0, yet (-0.0 - r_j)^k and (+0.0 - r_j)^k may differ.
    const bool contiguous = std::bit_cast<std::uint64_t>(a) ==
                            std::bit_cast<std::uint64_t>(prev_end);
    term.resize(nt);
    upper.resize(nt);
    std::size_t q = 0;
    for (std::size_t i = 0; i < nt; ++i) {
      const JobId j = jobs[i];
      const Time r = release[j];
      if (contiguous) {
        while (q < prev_jobs.size() && prev_jobs[q] < j) ++q;
      }
      const bool carried =
          contiguous && q < prev_jobs.size() && prev_jobs[q] == j;
      const double lower = carried ? prev_upper[q] : pow_k(a - r);
      pow_carried += carried;
      upper[i] = pow_k(b - r);
      term[i] = upper[i] - lower;
      if (std::bit_cast<std::uint64_t>(b) ==
          std::bit_cast<std::uint64_t>(completion[j])) {
        beta[2 * j] = Breakpoint{b, upper[i]};
      }
    }
    prev_jobs = jobs;
    prev_end = b;
    std::swap(upper, prev_upper);

    if (nt < static_cast<std::size_t>(m)) {  // underloaded
      for (std::size_t i = 0; i < nt; ++i) alpha[jobs[i]] += term[i];
      continue;
    }
    // Overloaded: alpha_j gains sum_{j' arrived no later} integral of
    // k (t - r_{j'})^{k-1} / n_t.  Visit the entries by arrival and keep a
    // running prefix sum.  The id order already is the arrival order
    // whenever releases are nondecreasing in id (always on a stream); as
    // (release, id) is a strict total order, the sort would not move them.
    const auto arrives_before = [&](std::uint32_t u, std::uint32_t v) {
      const Time ru = release[jobs[u]], rv = release[jobs[v]];
      if (ru != rv) return ru < rv;
      return jobs[u] < jobs[v];
    };
    order.resize(nt);
    std::iota(order.begin(), order.end(), 0u);
    if (!std::is_sorted(order.begin(), order.end(), arrives_before)) {
      std::sort(order.begin(), order.end(), arrives_before);
    }
    double prefix = 0.0;
    for (const std::uint32_t i : order) {
      prefix += term[i];
      alpha[jobs[i]] += prefix / static_cast<double>(nt);
    }
  }

  // ---- per job: F_j^k, alpha_j's -eps F_j^k, beta events -------------------
  // beta is piecewise constant with breakpoints at r_j and C_j + delta F_j.
  // Build it as a sorted event list; value_scale = (1/2 - 3 eps) / m.
  const double beta_coeff = (0.5 - 3.0 * eps) / static_cast<double>(m);
  for (std::size_t j = 0; j < n; ++j) {
    const Time flow = completion[j] - release[j];
    // A row end is never NaN (I1), so a kept t equals C_j bitwise.
    const Breakpoint kept = beta[2 * j];
    const double fk = kept.t == completion[j] ? kept.value : pow_k(flow);
    const double fkm1 = pow_km1(flow);
    res.rr_power += fk;
    alpha[j] -= eps * fk;
    res.alpha_sum += alpha[j];
    beta[2 * j] = Breakpoint{release[j], beta_coeff * fkm1};
    beta[2 * j + 1] =
        Breakpoint{completion[j] + res.delta * flow, -beta_coeff * fkm1};
  }
  std::sort(beta.begin(), beta.end(),
            [](const Breakpoint& a, const Breakpoint& b) { return a.t < b.t; });

  // Fold the events into pieces in place: each piece is written over an
  // event already summed, so no second 2n-sized array is needed.
  double running = 0.0;
  std::size_t i = 0;
  std::size_t pieces = 0;
  double beta_integral = 0.0;
  Time prev_t = beta.empty() ? 0.0 : beta.front().t;
  while (i < beta.size()) {
    const Time t = beta[i].t;
    beta_integral += running * (t - prev_t);
    prev_t = t;
    while (i < beta.size() && beta[i].t == t) {
      running += beta[i].value;
      ++i;
    }
    beta[pieces++] = Breakpoint{t, std::max(running, 0.0)};
  }
  beta.resize(pieces);
  // (running is ~0 after the last event; the final piece has beta = 0.)
  res.beta_term = static_cast<double>(m) * beta_integral;
  res.dual_objective = res.alpha_sum - res.beta_term;

  // ---- Lemmas 1 and 2 -------------------------------------------------------
  const double tol = 1e-7 * std::max(1.0, res.rr_power);
  res.lemma1_ok = res.alpha_sum >= (0.5 - eps) * res.rr_power - tol;
  res.lemma2_ok = res.beta_term <= (0.5 - 2.0 * eps) * res.rr_power + tol;
  {
    // Tolerance-free recheck of both lemma inequalities in exact rational
    // arithmetic over the (exactly representable) double values; fails
    // closed if the 128-bit arithmetic overflows.
    using lpsolve::Rational;
    const Rational half = Rational::from_ratio(1, 2);
    const Rational e = Rational::from_double(eps);
    const Rational rr = Rational::from_double(res.rr_power);
    res.lemmas_exact =
        Rational::from_double(res.alpha_sum) >= (half - e) * rr &&
        Rational::from_double(res.beta_term) <= (half - e - e) * rr;
  }

  // ---- Dual feasibility -----------------------------------------------------
  // For each job j and each beta piece [t_i, t_{i+1}): the RHS
  //   gamma ((t - r_j)^k + p_j^k)/p_j + beta(piece)
  // is nondecreasing in t inside the piece, so its minimum is at
  // t = max(t_i, r_j); a piece entirely before r_j is skipped.
  //
  // Windowed scan instead of the naive O(n * pieces) sweep: find the first
  // piece whose window reaches past r_j, then walk forward and stop once
  // the beta-free lower bound
  //   base(t) = gamma ((t - r_j)^k + p_j^k) / p_j
  // provably exceeds the job's running minimum slack.  base(t) is
  // nondecreasing in t and beta >= 0 with rhs = base + beta (rounding is
  // monotone, so rhs >= base bitwise), hence no later piece -- nor the
  // beta = 0 tail -- can lower this job's min slack once the bound clears
  // it.  Violations (slack < 0) force 0 < rhs < lhs, so their scale is
  // lhs and the largest relative violation sits at the min-slack piece,
  // which the scan has already visited.  The relative margin keeps the
  // cutoff conservative against pow() rounding wobble between pieces.
  //
  // The first piece is found by a forward cursor when releases are
  // nondecreasing in id (the pieces are sorted by start), else by binary
  // search.
  const bool releases_sorted = std::is_sorted(release.begin(), release.end());
  std::size_t after = 0;  // first piece starting after r_j
  res.min_slack = kInfiniteTime;
  res.max_relative_violation = 0.0;
  std::size_t feasibility_checks = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = size[j];
    const double rj = release[j];
    const double lhs = alpha[j] / pj;
    const double pjk = pow_k(pj);
    double job_min_slack = kInfiniteTime;
    auto base_at = [&](Time t) {
      return res.gamma * (pow_k(std::max(t - rj, 0.0)) + pjk) / pj;
    };
    auto check = [&](double base, double beta_value) {
      ++feasibility_checks;
      const double rhs = base + beta_value;
      const double slack = rhs - lhs;
      job_min_slack = std::min(job_min_slack, slack);
      if (slack < 0.0) {
        const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-300});
        res.max_relative_violation =
            std::max(res.max_relative_violation, -slack / scale);
      }
    };

    if (beta.empty()) {
      check(base_at(rj), 0.0);
      res.min_slack = std::min(res.min_slack, job_min_slack);
      continue;
    }

    // First piece whose [start, end) reaches past rj: the piece containing
    // rj, or piece 0 when rj precedes every breakpoint.
    if (releases_sorted) {
      while (after < beta.size() && !(rj < beta[after].t)) {
        ++after;
      }
    } else {
      after = static_cast<std::size_t>(
          std::upper_bound(beta.begin(), beta.end(), rj,
                           [](Time t, const Breakpoint& piece) {
                             return t < piece.t;
                           }) -
          beta.begin());
    }
    const std::size_t p0 = after == 0 ? 0 : after - 1;

    bool cut_off = false;
    for (std::size_t p = p0; p < beta.size(); ++p) {
      const double base = base_at(std::max(beta[p].t, rj));
      if (p > p0 &&
          base - lhs > job_min_slack + 1e-9 * (std::fabs(base) + std::fabs(lhs))) {
        cut_off = true;
        break;
      }
      check(base, beta[p].value);
    }
    if (!cut_off) {
      // Tail beyond the last event: beta = 0.
      check(base_at(std::max(beta.back().t, rj)), 0.0);
    }
    res.min_slack = std::min(res.min_slack, job_min_slack);
  }
  // An infinite gamma (the paper's k(k/eps)^k overflows for k around 100
  // and up) makes every constraint hold vacuously: fail closed.
  res.feasible = std::isfinite(res.gamma) && res.max_relative_violation <= 1e-7;

  // ---- Objective ------------------------------------------------------------
  if (res.rr_power > 0.0) {
    res.objective_ratio = res.dual_objective / res.rr_power;
  }
  res.objective_ok = res.objective_ratio >= eps - 1e-9;
  if (res.feasible && res.objective_ratio > 0.0) {
    res.implied_lk_ratio =
        std::pow(2.0 * res.gamma / res.objective_ratio, 1.0 / k);
  }

  obs::add("dualfit.certificates", 1);
  obs::add("dualfit.trace_intervals", trace_intervals);
  obs::add("dualfit.beta_pieces", beta.size());
  obs::add("dualfit.feasibility_checks", feasibility_checks);
  obs::add("dualfit.pow_calls", pow_k.calls + pow_km1.calls);
  obs::add("dualfit.pow_carried", pow_carried);
  return res;
}

}  // namespace tempofair::analysis
