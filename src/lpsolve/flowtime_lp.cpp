#include "lpsolve/flowtime_lp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lpsolve/mincost_flow.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace {

struct Grid {
  double t0 = 0.0;       // grid origin (min release)
  double slot = 1.0;
  std::size_t slots = 0;

  [[nodiscard]] double slot_start(std::size_t s) const {
    return t0 + static_cast<double>(s) * slot;
  }
  /// Slot containing the release.  Granting the *whole* slot (not just the
  /// part after r_j) relaxes the LP, and the cost there is evaluated at r_j
  /// itself (the cost column clamps t - r_j at 0) -- both effects only lower
  /// the discrete optimum, keeping it a valid lower bound on the continuous
  /// LP.
  [[nodiscard]] std::size_t first_slot_for(double release) const {
    const double rel = (release - t0) / slot;
    return static_cast<std::size_t>(std::floor(rel + 1e-12));
  }
};

[[nodiscard]] bool lp_included(const Job& j) {
  return j.size >= kMinLpJobSize;
}

/// The jobs the LP routes, in id order.
std::vector<const Job*> included_jobs(const Instance& instance) {
  std::vector<const Job*> included;
  included.reserve(instance.n());
  for (const Job& j : instance.jobs()) {
    if (lp_included(j)) included.push_back(&j);
  }
  return included;
}

Grid make_grid(const Instance& instance, const FlowtimeLpOptions& options) {
  if (instance.empty()) {
    throw std::invalid_argument("flowtime_lp: empty instance");
  }
  if (!(options.slot > 0.0)) {
    throw std::invalid_argument("flowtime_lp: slot width must be > 0");
  }
  if (!(options.k >= 1.0)) {
    throw std::invalid_argument("flowtime_lp: k must be >= 1");
  }
  if (options.machines < 1) {
    throw std::invalid_argument("flowtime_lp: machines must be >= 1");
  }
  Grid g;
  g.t0 = instance.min_release();
  g.slot = options.slot;
  // Any left-compacted LP solution finishes by the horizon bound (capacity m
  // per unit time at speed 1); add one slot of padding.
  const double horizon =
      instance.horizon_bound(options.machines, 1.0) - g.t0;
  g.slots = static_cast<std::size_t>(std::ceil(horizon / g.slot)) + 1;
  if (options.max_slots > 0) g.slots = std::min(g.slots, options.max_slots);
  if (g.slots == 0) throw std::invalid_argument("flowtime_lp: zero slots");
  // A capped grid can end before a release, leaving that job no slot.
  for (const Job& j : instance.jobs()) {
    if (lp_included(j) && g.first_slot_for(j.release) >= g.slots) {
      throw std::invalid_argument(
          "flowtime_lp: max_slots ends the grid before a job's release");
    }
  }
  return g;
}

/// The unit costs c_jt = ((t - r_j)^k + p_j^k) / p_j of every materialized
/// (job, slot) pair, t the slot start, in job-major order.  Computed once:
/// the flow graph (or the dense LP), the dual best response and its exact
/// re-check all read these doubles.
class CostColumn {
 public:
  CostColumn(const std::vector<const Job*>& jobs, const Grid& g, double k) {
    first_slot_.reserve(jobs.size());
    offset_.reserve(jobs.size() + 1);
    offset_.push_back(0);
    for (const Job* j : jobs) {
      first_slot_.push_back(g.first_slot_for(j->release));
      offset_.push_back(offset_.back() + (g.slots - first_slot_.back()));
    }
    cost_.reserve(offset_.back());
    for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
      const Job& j = *jobs[ji];
      const double size_k = std::pow(j.size, k);
      for (std::size_t s = first_slot_[ji]; s < g.slots; ++s) {
        const double t = std::max(g.slot_start(s) - j.release, 0.0);
        cost_.push_back((std::pow(t, k) + size_k) / j.size);
      }
    }
  }

  /// First slot of the ji-th job.
  [[nodiscard]] std::size_t first_slot(std::size_t ji) const {
    return first_slot_[ji];
  }
  /// Position of (ji-th job, slot s >= first_slot(ji)) in the column.
  [[nodiscard]] std::size_t index(std::size_t ji, std::size_t s) const {
    return offset_[ji] + (s - first_slot_[ji]);
  }
  [[nodiscard]] double at(std::size_t ji, std::size_t s) const {
    return cost_[index(ji, s)];
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return cost_;
  }

 private:
  std::vector<std::size_t> first_slot_;
  std::vector<std::size_t> offset_;  // per job, plus the end
  std::vector<double> cost_;
};

/// Dyadic grid for quantized duals: multiples of 2^-24 keep every
/// denominator a power of two small enough that the exact dual objective
/// stays far from 128-bit overflow.
constexpr unsigned kDualGridBits = 24;

/// Repairs the min-cost-flow potentials into an exactly-feasible dual of the
/// transportation LP
///
///   max  sum_j p_j alpha_j - sum_t cap beta_t
///   s.t. alpha_j - beta_t <= c_jt   for every materialized (j, t) edge,
///        alpha, beta >= 0,
///
/// and evaluates its objective in exact rational arithmetic.  beta comes
/// from the potentials (zeroed on unsaturated slots per complementary
/// slackness, then quantized to the dyadic grid); alpha_j is then set to the
/// *exact* best response max(0, floor_grid(min_t (c_jt + beta_t))), which is
/// feasible by construction.  An independent exact pass re-checks every dual
/// constraint before the objective is trusted.  Weak duality then makes the
/// returned value a machine-checked lower bound on the LP optimum.  Any
/// overflow poisons the result and yields certified = false.
CertifiedBound certify_flowtime_dual(
    const std::vector<const Job*>& included, const Grid& g,
    const CostColumn& costs, const FlowtimeLpOptions& options,
    const MinCostFlow& mcf,
    std::size_t slot_node0, std::size_t sink_node,
    const std::vector<std::size_t>& slot_edge_handles) {
  const double slot_cap = g.slot * options.machines;
  const std::vector<double>& phi = mcf.potentials();

  // beta_t from the potentials.  Unsaturated slots get beta_t = 0
  // (complementary slackness says the optimal dual does, and zeroing can
  // only help the alpha best response); any nonnegative beta is feasible.
  std::vector<Rational> beta(g.slots);
  bool ok = true;
  for (std::size_t s = 0; s < g.slots; ++s) {
    double b = 0.0;
    if (mcf.flow_on(slot_edge_handles[s]) >= slot_cap - kFlowEps) {
      b = std::max(0.0, phi[sink_node] - phi[slot_node0 + s]);
    }
    beta[s] = Rational::from_double(b).floor_to_dyadic(kDualGridBits);
    if (beta[s].is_negative()) beta[s] = Rational();
    if (!beta[s].valid()) ok = false;
  }

  // alpha_j = max(0, floor_grid(min_t (c_jt + beta_t))), computed exactly.
  std::vector<Rational> alpha(included.size());
  for (std::size_t ji = 0; ji < included.size() && ok; ++ji) {
    Rational best = Rational::invalid();
    for (std::size_t s = costs.first_slot(ji); s < g.slots; ++s) {
      const Rational cand = Rational::from_double(costs.at(ji, s)) + beta[s];
      if (!cand.valid()) {
        ok = false;
        break;
      }
      if (!best.valid() || cand < best) best = cand;
    }
    if (!ok || !best.valid()) {
      ok = false;
      break;
    }
    alpha[ji] = best.floor_to_dyadic(kDualGridBits);
    if (alpha[ji].is_negative()) alpha[ji] = Rational();
    if (!alpha[ji].valid()) ok = false;
  }

  // Independent exact feasibility re-check of every dual constraint, so the
  // certificate does not depend on the construction above being right.
  for (std::size_t ji = 0; ji < included.size() && ok; ++ji) {
    for (std::size_t s = costs.first_slot(ji); s < g.slots; ++s) {
      const Rational c = Rational::from_double(costs.at(ji, s));
      if (!(alpha[ji] - beta[s] <= c)) {  // fails closed on invalid
        ok = false;
        break;
      }
    }
  }

  CertifiedBound cert;
  if (ok) {
    Rational dual_obj;
    for (std::size_t ji = 0; ji < included.size(); ++ji) {
      dual_obj += Rational::from_double(included[ji]->size) * alpha[ji];
    }
    const Rational cap = Rational::from_double(slot_cap);
    for (std::size_t s = 0; s < g.slots; ++s) {
      if (!beta[s].is_zero()) dual_obj -= cap * beta[s];
    }
    if (dual_obj.valid()) {
      // The LP objective is nonnegative, so 0 is always a certified bound.
      cert.value = std::max(0.0, dual_obj.lower_double());
      cert.certified = true;
    }
  }
  obs::add(cert.certified ? "lpcert.flow.certified" : "lpcert.flow.uncertified",
           1);
  return cert;
}

}  // namespace

FlowtimeLpResult solve_flowtime_lp(const Instance& instance,
                                   const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  const std::size_t n = instance.n();

  const std::vector<const Job*> included = included_jobs(instance);
  double included_work = 0.0;
  for (const Job* j : included) included_work += j->size;

  // Check the (possibly capped) grid has enough capacity for the work we
  // actually route.
  const double capacity =
      static_cast<double>(g.slots) * g.slot * options.machines;
  if (capacity < included_work - 1e-6) {
    throw std::invalid_argument(
        "flowtime_lp: max_slots leaves insufficient capacity for the work");
  }

  // Nodes: source | jobs (1..n) | slots (n+1 .. n+slots) | sink.
  const std::size_t kSource = 0;
  const std::size_t kJob0 = 1;
  const std::size_t kSlot0 = kJob0 + n;
  const std::size_t kSink = kSlot0 + g.slots;
  MinCostFlow mcf(kSink + 1);

  const double slot_cap = g.slot * options.machines;
  std::vector<std::size_t> slot_edge(g.slots);
  for (std::size_t s = 0; s < g.slots; ++s) {
    slot_edge[s] = mcf.add_edge(kSlot0 + s, kSink, slot_cap, 0.0);
  }
  const CostColumn costs(included, g, options.k);
  std::size_t edges = g.slots;
  for (std::size_t ji = 0; ji < included.size(); ++ji) {
    const Job& j = *included[ji];
    mcf.add_edge(kSource, kJob0 + j.id, j.size, 0.0);
    ++edges;
    for (std::size_t s = costs.first_slot(ji); s < g.slots; ++s) {
      // The slot->sink edge already caps how much any slot absorbs (the LP of
      // the paper lets a job run on several machines simultaneously), so the
      // job->slot arcs get a deliberately never-binding capacity.  This is
      // not cosmetic: a saturated arc may carry negative reduced cost in the
      // final potentials, which would break the transportation-dual reading
      // (alpha_j - beta_t <= c_jt, tight on flow-carrying arcs) that
      // certify_flowtime_dual builds the exact certificate from.
      mcf.add_edge(kJob0 + j.id, kSlot0 + s, included_work + 1.0,
                   costs.at(ji, s));
      ++edges;
    }
  }

  const MinCostFlow::Result r = mcf.solve(kSource, kSink, included_work);
  if (r.flow < included_work - 1e-6) {
    throw std::runtime_error("flowtime_lp: could not route all work (internal)");
  }

  FlowtimeLpResult out;
  out.lp_value = r.cost;
  out.opt_power_lb = r.cost / 2.0;
  out.slots = g.slots;
  out.edges = edges;
  out.skipped_jobs = n - included.size();
  out.certificate = certify_flowtime_dual(included, g, costs, options, mcf,
                                          kSlot0, kSink, slot_edge);
  return out;
}

LinearProgram build_flowtime_lp(const Instance& instance,
                                const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);

  // Variable layout: for each *included* job (in id order), one variable per
  // slot s >= first_slot_for(r_j) -- the cost column's own order.  Tiny jobs
  // are dropped exactly as in solve_flowtime_lp so the two solvers stay
  // comparable.
  const std::vector<const Job*> included = included_jobs(instance);
  const CostColumn costs(included, g, options.k);
  const std::size_t num_vars = costs.values().size();

  LinearProgram lp;
  lp.objective = costs.values();
  // sum_t x_{jt} >= p_j
  for (std::size_t ji = 0; ji < included.size(); ++ji) {
    LinearProgram::Row row;
    row.coeffs.assign(num_vars, 0.0);
    for (std::size_t s = costs.first_slot(ji); s < g.slots; ++s) {
      row.coeffs[costs.index(ji, s)] = 1.0;
    }
    row.rel = LinearProgram::Rel::kGe;
    row.rhs = included[ji]->size;
    lp.rows.push_back(std::move(row));
  }
  // sum_j x_{jt} <= m * slot
  for (std::size_t s = 0; s < g.slots; ++s) {
    LinearProgram::Row row;
    row.coeffs.assign(num_vars, 0.0);
    bool any = false;
    for (std::size_t ji = 0; ji < included.size(); ++ji) {
      if (s >= costs.first_slot(ji)) {
        row.coeffs[costs.index(ji, s)] = 1.0;
        any = true;
      }
    }
    if (!any) continue;
    row.rel = LinearProgram::Rel::kLe;
    row.rhs = g.slot * options.machines;
    lp.rows.push_back(std::move(row));
  }
  return lp;
}

}  // namespace tempofair::lpsolve
