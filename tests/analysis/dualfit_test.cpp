#include "analysis/dualfit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/lower_bounds.h"
#include "policies/round_robin.h"
#include "workload/adversarial.h"
#include "workload/generators.h"
#include "workload/source.h"

namespace tempofair::analysis {
namespace {

Schedule run_rr(const Instance& inst, double speed, int machines = 1) {
  RoundRobin rr;
  RunRequest req;
  req.speed = speed;
  req.machines = machines;
  req.record_trace = true;
  return run(inst, rr, req).schedule;
}

TEST(DualFit, RequiresTrace) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(
      Instance::batch(std::vector<Work>{1.0}), rr, req).schedule;
  EXPECT_THROW((void)dual_fit_certificate(s, DualFitOptions{}),
               std::invalid_argument);
}

TEST(DualFit, RejectsBadParameters) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 1.0);
  DualFitOptions opt;
  opt.k = 0.5;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
  opt.k = 2.0;
  opt.eps = 0.0;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
  opt.eps = 0.2;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
}

TEST(DualFit, RejectsNonFiniteKAndBadGamma) {
  // An infinite k used to pass as "feasible" with a NaN objective ratio, an
  // infinite gamma as a valid certificate with an infinite implied ratio,
  // and a NaN or negative gamma was silently replaced by the paper's.
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 6.0);
  DualFitOptions opt;
  opt.k = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
  opt.k = 2.0;
  for (const double gamma : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
    opt.gamma = gamma;
    EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument)
        << "gamma " << gamma;
  }
}

TEST(DualFit, OverflowingPaperGammaFailsClosed) {
  // At k = 400 the paper's gamma = k (k/eps)^k overflows to +inf, which
  // satisfies every feasibility constraint vacuously.  F = 1 keeps RR^k
  // finite, so everything but feasibility would pass.
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{6.0}), 6.0);
  DualFitOptions opt;
  opt.k = 400.0;
  opt.eps = 0.05;
  const DualFitResult r = dual_fit_certificate(s, opt);
  ASSERT_TRUE(std::isinf(r.gamma));
  EXPECT_EQ(r.rr_power, 1.0);
  EXPECT_TRUE(r.objective_ok);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.certificate_valid());
  EXPECT_EQ(r.implied_lk_ratio, 0.0);
}

TEST(DualFit, Theorem1SpeedFormula) {
  EXPECT_DOUBLE_EQ(theorem1_speed(1.0, 0.05), 3.0);
  EXPECT_DOUBLE_EQ(theorem1_speed(2.0, 0.05), 6.0);
  EXPECT_DOUBLE_EQ(theorem1_speed(2.0, 0.1), 8.0);
}

TEST(DualFit, SingleJobAlphaByHand) {
  // One job, size p, alone: overloaded the whole time (n_t = 1 >= m = 1).
  // alpha = integral_0^{C} k t^{k-1} / 1 dt - eps F^k = F^k (1 - eps).
  // With speed eta, F = p / eta.
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{3.0}), eta);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  const double F = 3.0 / eta;
  EXPECT_NEAR(r.rr_power, F * F, 1e-9);
  EXPECT_NEAR(r.alpha_sum, F * F * (1.0 - eps), 1e-9);
  // beta integral: (1 + delta) * F * (1/2 - 3 eps) * F^{k-1}.
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * F * F, 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

TEST(DualFit, Lemma2IsExactIdentity) {
  // Lemma 2's proof is an identity: beta_term == (1+delta)(1/2-3eps) RR^k.
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          50, 0.9, workload::ExponentialSize{1.0}, 7));
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * r.rr_power,
              1e-6 * r.rr_power);
}

struct DualFitCase {
  double k;
  int machines;
  std::uint64_t seed;
};

class DualFitTheoremSweep : public ::testing::TestWithParam<DualFitCase> {};

TEST_P(DualFitTheoremSweep, CertificateValidAtTheoremSpeed) {
  const auto [k, machines, seed] = GetParam();
  const double eps = 0.05;  // <= 1/15, see header note on Lemma 4
  const Instance inst = workload::make_instance(
      workload::WorkloadSpec::poisson(60, 0.95, workload::ExponentialSize{1.5},
                                      seed, machines));
  const Schedule s = run_rr(inst, theorem1_speed(k, eps), machines);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_TRUE(r.lemma1_ok) << "alpha_sum=" << r.alpha_sum
                           << " rr_power=" << r.rr_power;
  EXPECT_TRUE(r.lemma2_ok);
  EXPECT_TRUE(r.feasible) << "violation=" << r.max_relative_violation;
  EXPECT_TRUE(r.objective_ok) << "ratio=" << r.objective_ratio;
  EXPECT_TRUE(r.certificate_valid());
  EXPECT_GT(r.implied_lk_ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    KandMachines, DualFitTheoremSweep,
    ::testing::Values(DualFitCase{1.0, 1, 11}, DualFitCase{2.0, 1, 12},
                      DualFitCase{3.0, 1, 13}, DualFitCase{1.0, 4, 14},
                      DualFitCase{2.0, 4, 15}, DualFitCase{3.0, 4, 16},
                      DualFitCase{2.0, 2, 17}, DualFitCase{2.0, 8, 18}),
    [](const auto& param_info) {
      return "k" + std::to_string(static_cast<int>(param_info.param.k)) +
             "_m" + std::to_string(param_info.param.machines);
    });

TEST(DualFit, CertificateValidOnAdversarialFamilies) {
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  for (const Instance& inst :
       {workload::rr_l2_hard(20), workload::srpt_starvation(40, 15.0),
        workload::overload_pulse(4, 10, 2), workload::staircase(20)}) {
    const Schedule s = run_rr(inst, eta);
    DualFitOptions opt;
    opt.k = k;
    opt.eps = eps;
    const DualFitResult r = dual_fit_certificate(s, opt);
    EXPECT_TRUE(r.certificate_valid()) << inst.summary();
  }
}

TEST(DualFit, Lemmas1And2HoldAtAnySpeed) {
  // Lemmas 1 and 2 are pure algebra over the RR schedule's alive sets and
  // flows -- they hold at ANY speed.  The speed premise of Theorem 1 enters
  // only through dual FEASIBILITY on worst-case instances (Lemma 4 needs
  // eta(1/2 - 3 eps) >= k); on easy instances the huge gamma can mask it.
  workload::Rng rng(21);
  const Instance inst = workload::rr_l2_hard(25);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  for (double speed : {1.0, 2.0, theorem1_speed(2.0, 0.05)}) {
    const DualFitResult r = dual_fit_certificate(run_rr(inst, speed), opt);
    EXPECT_TRUE(r.lemma1_ok) << "speed " << speed;
    EXPECT_TRUE(r.lemma2_ok) << "speed " << speed;
    EXPECT_TRUE(r.objective_ok) << "speed " << speed;
  }
}

TEST(DualFit, FeasibilityMarginShrinksAtLowSpeedWithTightGamma) {
  // With gamma forced down to Lemma 3's bare minimum the certificate loses
  // its slack; the worst (smallest) constraint slack at speed 1 must be
  // strictly smaller than at the theorem speed on the hard family.
  const Instance inst = workload::rr_l2_hard(25);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  opt.gamma = 2.0 * (1.0 / 0.05);  // k (1/eps)^{k-1}, far below the default
  const DualFitResult slow = dual_fit_certificate(run_rr(inst, 1.0), opt);
  const DualFitResult fast =
      dual_fit_certificate(run_rr(inst, theorem1_speed(2.0, 0.05)), opt);
  EXPECT_LT(slow.min_slack, fast.min_slack);
}

TEST(DualFit, DualObjectiveAtMostGammaLpValue) {
  // Weak duality: a feasible dual's objective is at most the gamma-scaled
  // LP optimum (checked against the MCMF solve of the same LP).
  const Instance inst = workload::make_instance(
      workload::WorkloadSpec::poisson(20, 0.8, workload::UniformSize{0.5, 2.0},
                                      23));
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  ASSERT_TRUE(r.feasible);

  lpsolve::FlowtimeLpOptions lp;
  lp.k = k;
  lp.slot = 0.25;
  const double lp_gamma = r.gamma * lpsolve::solve_flowtime_lp(inst, lp).lp_value;
  // The continuous LP is at least the discretized one, so the dual objective
  // must not exceed gamma * LP_discrete by more than the discretization gap;
  // use a 10% cushion.
  EXPECT_LE(r.dual_objective, lp_gamma * 1.1);
}

TEST(DualFit, ImpliedRatioBoundsMeasuredRatio) {
  // The certificate's implied l_k ratio must upper-bound the actually
  // measured RR-vs-proxy ratio (since proxy >= OPT).
  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          40, 0.9, workload::ExponentialSize{1.0}, 29));
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  ASSERT_TRUE(r.certificate_valid());

  lpsolve::OptBoundsOptions bo;
  bo.k = k;
  bo.with_lp = false;
  const auto bounds = lpsolve::opt_bounds(inst, bo);
  const double measured = std::pow(r.rr_power / bounds.proxy_ub, 1.0 / k);
  EXPECT_LE(measured, r.implied_lk_ratio * (1.0 + 1e-9));
}

TEST(DualFit, GammaOverrideIsRespected) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 6.0);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  opt.gamma = 123.0;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_DOUBLE_EQ(r.gamma, 123.0);
}

TEST(DualFit, DefaultGammaMatchesPaperFormula) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 6.0);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_NEAR(r.gamma, 2.0 * std::pow(2.0 / 0.05, 2.0), 1e-9);
}

TEST(DualFit, UnderloadedOnlyScheduleIsCertified) {
  // More machines than jobs throughout: every time step is underloaded.
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 2.0, 3.0});
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps), 8);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_TRUE(r.certificate_valid());
}

}  // namespace
}  // namespace tempofair::analysis
