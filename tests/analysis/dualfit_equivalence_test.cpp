// Bitwise equivalence of dual_fit_certificate with the verifier it replaced.
//
// ReferenceDualFit is that verifier, kept verbatim apart from its obs
// counters: bounds-checked per-job reads, a sort of every overloaded row,
// two pow calls per (row, job) entry and a binary search for each job's
// first beta piece.  The rewrite carries powers between rows, skips sorts
// and library calls whose result is fixed and walks the beta pieces with a
// cursor; every DualFitResult field must keep every bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dualfit.h"
#include "core/engine.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"
#include "workload/source.h"

namespace tempofair::analysis {
namespace {

/// integral over [a, b] of k (t - r)^(k-1) dt  =  (b-r)^k - (a-r)^k.
double age_power_integral(double a, double b, double r, double k) {
  return std::pow(b - r, k) - std::pow(a - r, k);
}

DualFitResult ReferenceDualFit(const Schedule& schedule,
                               const DualFitOptions& options) {
  if (!schedule.has_trace()) {
    throw std::invalid_argument("dual_fit_certificate: schedule has no trace");
  }
  const double k = options.k;
  const double eps = options.eps;
  if (!(k >= 1.0)) throw std::invalid_argument("dual_fit_certificate: k must be >= 1");
  if (!(eps > 0.0) || eps > 0.1) {
    throw std::invalid_argument("dual_fit_certificate: eps must be in (0, 0.1]");
  }

  DualFitResult res;
  res.k = k;
  res.eps = eps;
  res.delta = eps;  // the paper sets delta = eps
  res.gamma = options.gamma > 0.0 ? options.gamma : k * std::pow(k / eps, k);
  res.speed = schedule.speed();
  res.machines = schedule.machines();

  const std::size_t n = schedule.n();
  const int m = schedule.machines();

  std::vector<double> flow(n), fk(n), fkm1(n);
  for (std::size_t j = 0; j < n; ++j) {
    flow[j] = schedule.flow(static_cast<JobId>(j));
    fk[j] = std::pow(flow[j], k);
    fkm1[j] = std::pow(flow[j], k - 1.0);
    res.rr_power += fk[j];
  }

  // ---- alpha_j --------------------------------------------------------------
  std::vector<double> alpha(n, 0.0);
  std::vector<JobId> by_arrival;   // alive jobs sorted by (release, id)
  std::vector<double> prefix;      // prefix sums of per-j' integrals
  for (const TraceIntervalView iv : schedule.trace()) {
    const std::size_t nt = iv.alive_count();
    if (nt == 0) continue;
    const bool overloaded = nt >= static_cast<std::size_t>(m);

    if (!overloaded) {
      for (const JobId job : iv.jobs()) {
        alpha[job] +=
            age_power_integral(iv.begin(), iv.end(), schedule.release(job), k);
      }
      continue;
    }

    by_arrival.assign(iv.jobs().begin(), iv.jobs().end());
    std::sort(by_arrival.begin(), by_arrival.end(), [&](JobId a, JobId b) {
      const Time ra = schedule.release(a), rb = schedule.release(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    prefix.assign(nt + 1, 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      prefix[i + 1] =
          prefix[i] + age_power_integral(iv.begin(), iv.end(),
                                         schedule.release(by_arrival[i]), k);
    }
    for (std::size_t i = 0; i < nt; ++i) {
      alpha[by_arrival[i]] += prefix[i + 1] / static_cast<double>(nt);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] -= eps * fk[j];
    res.alpha_sum += alpha[j];
  }

  // ---- beta_t ---------------------------------------------------------------
  const double beta_coeff = (0.5 - 3.0 * eps) / static_cast<double>(m);
  struct BetaEvent {
    Time t;
    double delta_value;
  };
  std::vector<BetaEvent> events;
  events.reserve(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    const Time start = schedule.release(static_cast<JobId>(j));
    const Time stop = schedule.completion(static_cast<JobId>(j)) + res.delta * flow[j];
    events.push_back(BetaEvent{start, beta_coeff * fkm1[j]});
    events.push_back(BetaEvent{stop, -beta_coeff * fkm1[j]});
  }
  std::sort(events.begin(), events.end(),
            [](const BetaEvent& a, const BetaEvent& b) { return a.t < b.t; });

  std::vector<std::pair<Time, double>> beta_pieces;
  beta_pieces.reserve(events.size() + 1);
  double running = 0.0;
  std::size_t i = 0;
  double beta_integral = 0.0;
  Time prev_t = events.empty() ? 0.0 : events.front().t;
  while (i < events.size()) {
    const Time t = events[i].t;
    beta_integral += running * (t - prev_t);
    prev_t = t;
    while (i < events.size() && events[i].t == t) {
      running += events[i].delta_value;
      ++i;
    }
    beta_pieces.emplace_back(t, std::max(running, 0.0));
  }
  res.beta_term = static_cast<double>(m) * beta_integral;
  res.dual_objective = res.alpha_sum - res.beta_term;

  // ---- Lemmas 1 and 2 -------------------------------------------------------
  const double tol = 1e-7 * std::max(1.0, res.rr_power);
  res.lemma1_ok = res.alpha_sum >= (0.5 - eps) * res.rr_power - tol;
  res.lemma2_ok = res.beta_term <= (0.5 - 2.0 * eps) * res.rr_power + tol;
  {
    using lpsolve::Rational;
    const Rational half = Rational::from_ratio(1, 2);
    const Rational e = Rational::from_double(eps);
    const Rational rr = Rational::from_double(res.rr_power);
    res.lemmas_exact =
        Rational::from_double(res.alpha_sum) >= (half - e) * rr &&
        Rational::from_double(res.beta_term) <= (half - e - e) * rr;
  }

  // ---- Dual feasibility -----------------------------------------------------
  res.min_slack = kInfiniteTime;
  res.max_relative_violation = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = schedule.size(static_cast<JobId>(j));
    const double rj = schedule.release(static_cast<JobId>(j));
    const double lhs = alpha[j] / pj;
    const double pjk = std::pow(pj, k);
    double job_min_slack = kInfiniteTime;
    auto base_at = [&](Time t) {
      return res.gamma * (std::pow(std::max(t - rj, 0.0), k) + pjk) / pj;
    };
    auto check = [&](double base, double beta_value) {
      const double rhs = base + beta_value;
      const double slack = rhs - lhs;
      job_min_slack = std::min(job_min_slack, slack);
      if (slack < 0.0) {
        const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-300});
        res.max_relative_violation =
            std::max(res.max_relative_violation, -slack / scale);
      }
    };

    if (beta_pieces.empty()) {
      check(base_at(rj), 0.0);
      res.min_slack = std::min(res.min_slack, job_min_slack);
      continue;
    }

    const auto q = std::upper_bound(
        beta_pieces.begin(), beta_pieces.end(), rj,
        [](Time t, const std::pair<Time, double>& piece) {
          return t < piece.first;
        });
    const std::size_t p0 =
        q == beta_pieces.begin()
            ? 0
            : static_cast<std::size_t>(q - beta_pieces.begin()) - 1;

    bool cut_off = false;
    for (std::size_t p = p0; p < beta_pieces.size(); ++p) {
      const double base = base_at(std::max(beta_pieces[p].first, rj));
      if (p > p0 &&
          base - lhs > job_min_slack + 1e-9 * (std::fabs(base) + std::fabs(lhs))) {
        cut_off = true;
        break;
      }
      check(base, beta_pieces[p].second);
    }
    if (!cut_off) {
      check(base_at(std::max(beta_pieces.back().first, rj)), 0.0);
    }
    res.min_slack = std::min(res.min_slack, job_min_slack);
  }
  res.feasible = res.max_relative_violation <= 1e-7;

  // ---- Objective ------------------------------------------------------------
  if (res.rr_power > 0.0) {
    res.objective_ratio = res.dual_objective / res.rr_power;
  }
  res.objective_ok = res.objective_ratio >= eps - 1e-9;
  if (res.feasible && res.objective_ratio > 0.0) {
    res.implied_lk_ratio =
        std::pow(2.0 * res.gamma / res.objective_ratio, 1.0 / k);
  }
  return res;
}

// --- comparison --------------------------------------------------------------

template <typename T>
void expect_same_bytes(const T& got, const T& want, const char* field,
                       const std::string& what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(T)), 0)
      << what << ": " << field << " " << got << " vs reference " << want;
}

/// Certifies `s` with both verifiers and compares every result field byte
/// for byte (field by field: the struct's padding is not a value).
void expect_matches_reference(const Schedule& s, const DualFitOptions& opt,
                              const std::string& what) {
  const DualFitResult got = dual_fit_certificate(s, opt);
  const DualFitResult want = ReferenceDualFit(s, opt);
#define TEMPOFAIR_SAME(field) \
  expect_same_bytes(got.field, want.field, #field, what)
  TEMPOFAIR_SAME(k);
  TEMPOFAIR_SAME(eps);
  TEMPOFAIR_SAME(delta);
  TEMPOFAIR_SAME(gamma);
  TEMPOFAIR_SAME(speed);
  TEMPOFAIR_SAME(machines);
  TEMPOFAIR_SAME(rr_power);
  TEMPOFAIR_SAME(alpha_sum);
  TEMPOFAIR_SAME(beta_term);
  TEMPOFAIR_SAME(dual_objective);
  TEMPOFAIR_SAME(lemma1_ok);
  TEMPOFAIR_SAME(lemma2_ok);
  TEMPOFAIR_SAME(lemmas_exact);
  TEMPOFAIR_SAME(min_slack);
  TEMPOFAIR_SAME(max_relative_violation);
  TEMPOFAIR_SAME(feasible);
  TEMPOFAIR_SAME(objective_ratio);
  TEMPOFAIR_SAME(objective_ok);
  TEMPOFAIR_SAME(implied_lk_ratio);
#undef TEMPOFAIR_SAME
}

Schedule traced_run(const Instance& inst, const std::string& policy,
                    int machines, double speed) {
  RunRequest req;
  req.policy = policy;
  req.machines = machines;
  req.speed = speed;
  req.record_trace = true;
  return run(inst, req).schedule;
}

DualFitOptions options(double k, double eps) {
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  return opt;
}

TEST(DualFitEquivalence, LargePoissonTheoremSpeed) {
  const double eps = 1.0 / 15.0;
  for (const int m : {1, 4}) {
    const Instance inst = workload::make_instance(
        "poisson:n=20000,load=0.9,dist=exp(1.5),seed=5,machines=" +
        std::to_string(m));
    for (const double k : {1.0, 1.5, 2.0, 3.0}) {
      const Schedule s = traced_run(inst, "rr", m, theorem1_speed(k, eps));
      expect_matches_reference(s, options(k, eps),
                               "poisson m=" + std::to_string(m) +
                                   " k=" + std::to_string(k));
    }
  }
}

TEST(DualFitEquivalence, AdversarialFamilies) {
  for (const char* spec :
       {"adv-rr-l2-hard:n=40", "adv-batch-stream:batch=40,stream=160",
        "adv-srpt-starvation:stream=200",
        "adv-overload-pulse:pulses=4,burst=32",
        "adv-staircase:n=16", "adv-geometric:levels=8"}) {
    const Instance inst = workload::make_instance(spec);
    for (const int m : {1, 2}) {
      for (const double k : {1.0, 2.0, 3.0}) {
        for (const double speed : {1.0, theorem1_speed(k, 0.05)}) {
          expect_matches_reference(
              traced_run(inst, "rr", m, speed), options(k, 0.05),
              std::string(spec) + " m=" + std::to_string(m) + " k=" +
                  std::to_string(k) + " speed=" + std::to_string(speed));
        }
      }
    }
  }
}

/// Small instances with integer releases (many ties) and shuffled ids, so
/// releases are not monotone in id and overloaded rows need their sort.
Instance random_small_instance(std::mt19937_64& rng) {
  const std::size_t n = std::uniform_int_distribution<std::size_t>(1, 24)(rng);
  std::vector<JobId> ids(n);
  std::iota(ids.begin(), ids.end(), JobId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  std::uniform_int_distribution<int> release(0, 6);
  std::uniform_int_distribution<int> size(1, 8);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(Job{ids[i], static_cast<Time>(release(rng)),
                       0.5 * static_cast<Work>(size(rng)), 1.0});
  }
  return Instance::from_jobs(std::move(jobs));
}

TEST(DualFitEquivalence, RandomSmallInstancesWithTiesAndShuffledIds) {
  std::mt19937_64 rng(20261019);
  const double norms[] = {1.0, 1.5, 2.0, 3.0};
  for (int c = 0; c < 1000; ++c) {
    const Instance inst = random_small_instance(rng);
    const int m = std::uniform_int_distribution<int>(1, 3)(rng);
    const double k = norms[c % 4];
    const double eps = c % 3 == 0 ? 1.0 / 15.0 : 0.05;
    const double speed = c % 2 == 0 ? 1.0 : theorem1_speed(k, eps);
    for (const char* policy : {"rr", "srpt"}) {
      expect_matches_reference(traced_run(inst, policy, m, speed),
                               options(k, eps),
                               "case " + std::to_string(c) + " " + policy);
    }
  }
}

/// A hand-built trace no engine emits: idle gaps between rows, overlapping
/// rows, jobs that leave the alive set and come back, and rows not in id
/// order.
Schedule random_hand_built_schedule(std::mt19937_64& rng) {
  const std::size_t n = std::uniform_int_distribution<std::size_t>(1, 12)(rng);
  const int m = std::uniform_int_distribution<int>(1, 3)(rng);
  Schedule s(n, m, 1.0);
  std::vector<Time> release(n), completion(n);
  for (std::size_t j = 0; j < n; ++j) {
    release[j] = std::uniform_int_distribution<int>(0, 6)(rng);
    completion[j] =
        release[j] + std::uniform_int_distribution<int>(1, 5)(rng);
    s.admit_job(static_cast<JobId>(j), release[j],
                std::uniform_int_distribution<int>(1, 4)(rng), 1.0);
    s.set_completion(static_cast<JobId>(j), completion[j]);
  }
  std::bernoulli_distribution coin(0.2);
  std::vector<JobId> row;
  std::vector<double> rates;
  Time a = 0.0;
  for (int step = 0; step < 24; ++step, a += 0.5) {
    if (coin(rng)) a += 0.5;   // an idle gap
    if (coin(rng)) a -= 0.25;  // overlaps the previous row
    row.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (release[j] <= a && a < completion[j] && !coin(rng)) {
        row.push_back(static_cast<JobId>(j));
      }
    }
    if (coin(rng)) std::shuffle(row.begin(), row.end(), rng);
    rates.assign(row.size(), 1.0);
    s.push_interval(a, a + 0.5, row, rates);
  }
  s.set_trace_recorded(true);
  return s;
}

TEST(DualFitEquivalence, HandBuiltTracesWithGapsAndUnsortedRows) {
  std::mt19937_64 rng(7);
  for (int c = 0; c < 500; ++c) {
    const Schedule s = random_hand_built_schedule(rng);
    for (const double k : {1.0, 2.0, 2.5}) {
      expect_matches_reference(s, options(k, 0.05),
                               "case " + std::to_string(c) +
                                   " k=" + std::to_string(k));
    }
  }
}

TEST(DualFitEquivalence, PowCountersFlushedPerCertificate) {
  const Instance inst = workload::make_instance(
      "poisson:n=200,load=0.9,dist=exp(1.5),seed=3");
  const Schedule s = traced_run(inst, "rr", 1, theorem1_speed(2.0, 0.05));
  obs::Sink sink;
  {
    obs::ScopedSink scope(&sink);
    (void)dual_fit_certificate(s, options(2.0, 0.05));
  }
  const std::uint64_t calls = sink.value("dualfit.pow_calls");
  const std::uint64_t carried = sink.value("dualfit.pow_carried");
  EXPECT_GT(calls, 0u);
  // A job alive in consecutive rows carries its power across every row
  // boundary it spans: most (row, job) entries after the first.
  EXPECT_GT(carried, 0u);
  EXPECT_LE(carried, s.trace().entry_count());
}

TEST(DualFitEquivalence, FlowPowerReusedFromTheRowEndingAtCompletion) {
  // One job, r = 0, p = 1, run alone on [0, 1).  At k = 2 the certificate
  // needs std::pow for (1 - 0)^2 (the row's upper power, reused as F^k),
  // p^2, and the base at the second beta piece, 1.05^2, after which the
  // window cuts off.  (0 - 0)^2 and F^(k-1) = F^1 need no library call.
  Schedule s(Instance::from_jobs({{0, 0.0, 1.0, 1.0}}), 1, 1.0);
  s.set_completion(0, 1.0);
  s.push_interval(0.0, 1.0, {RateShare{0, 1.0}});
  s.set_trace_recorded(true);
  obs::Sink sink;
  DualFitResult got;
  {
    obs::ScopedSink scope(&sink);
    got = dual_fit_certificate(s, options(2.0, 0.05));
  }
  EXPECT_EQ(sink.value("dualfit.pow_calls"), 3u);
  expect_matches_reference(s, options(2.0, 0.05), "one job");
  EXPECT_EQ(got.rr_power, 1.0);
}

}  // namespace
}  // namespace tempofair::analysis
