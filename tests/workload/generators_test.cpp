#include "workload/generators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "workload/source.h"

namespace tempofair::workload {
namespace {

TEST(SizeDist, FixedAlwaysSameValue) {
  Rng rng(1);
  const SizeDist d = FixedSize{2.5};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(draw_size(d, rng), 2.5);
  EXPECT_DOUBLE_EQ(mean_size(d), 2.5);
}

TEST(SizeDist, UniformWithinBounds) {
  Rng rng(2);
  const SizeDist d = UniformSize{1.0, 3.0};
  for (int i = 0; i < 1000; ++i) {
    const double v = draw_size(d, rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_DOUBLE_EQ(mean_size(d), 2.0);
}

TEST(SizeDist, ExponentialMean) {
  Rng rng(3);
  const SizeDist d = ExponentialSize{4.0};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += draw_size(d, rng);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
  EXPECT_DOUBLE_EQ(mean_size(d), 4.0);
}

TEST(SizeDist, ParetoCapTruncates) {
  Rng rng(4);
  const SizeDist d = ParetoSize{1.2, 1.0, 50.0};
  for (int i = 0; i < 5000; ++i) EXPECT_LE(draw_size(d, rng), 50.0);
}

TEST(SizeDist, ParetoCappedMeanMatchesClosedForm) {
  Rng rng(5);
  const SizeDist d = ParetoSize{1.5, 1.0, 20.0};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += draw_size(d, rng);
  EXPECT_NEAR(sum / n, mean_size(d), 0.05);
}

TEST(SizeDist, ParetoUncappedMeanRequiresAlphaAboveOne) {
  EXPECT_THROW((void)mean_size(SizeDist{ParetoSize{1.0, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_NEAR(mean_size(SizeDist{ParetoSize{2.0, 1.0, 0.0}}), 2.0, 1e-12);
}

TEST(SizeDist, BimodalMean) {
  const SizeDist d = BimodalSize{0.9, 1.0, 50.0};
  EXPECT_DOUBLE_EQ(mean_size(d), 0.9 * 1.0 + 0.1 * 50.0);
}

TEST(SizeDist, NamesAreDescriptive) {
  EXPECT_EQ(dist_name(SizeDist{FixedSize{1.0}}), "fixed(1)");
  EXPECT_EQ(dist_name(SizeDist{ParetoSize{1.8, 0.5, 0.0}}), "pareto(1.8)");
  EXPECT_NE(dist_name(SizeDist{BimodalSize{}}).find("bimodal"), std::string::npos);
}

// --- spec-built generator workloads ----------------------------------------

TEST(PoissonStream, ProducesRequestedCount) {
  const Instance inst =
      make_instance(WorkloadSpec::poisson(75, 0.9, FixedSize{1.0}, 6));
  EXPECT_EQ(inst.n(), 75u);
}

TEST(PoissonStream, ReleasesAreNonDecreasingInId) {
  const Instance inst =
      make_instance(WorkloadSpec::poisson(50, 0.9, FixedSize{1.0}, 7));
  for (JobId j = 1; j < inst.n(); ++j) {
    EXPECT_GE(inst.job(j).release, inst.job(j - 1).release);
  }
}

TEST(PoissonStream, InterarrivalMeanMatchesLambda) {
  // Unit sizes on one machine: lambda = load, so the mean gap is 1/load.
  const Instance inst =
      make_instance(WorkloadSpec::poisson(20000, 0.8, FixedSize{1.0}, 8));
  const double mean_gap = inst.max_release() / static_cast<double>(inst.n());
  EXPECT_NEAR(mean_gap, 1.25, 0.05);
}

TEST(PoissonStream, RejectsBadLambda) {
  // A zero load means a zero arrival rate.
  EXPECT_THROW(
      (void)make_instance(WorkloadSpec::poisson(10, 0.0, FixedSize{1.0}, 9)),
      std::invalid_argument);
}

TEST(PoissonLoad, UtilizationCalibration) {
  // lambda * E[size] / m == utilization: check empirically via arrival rate.
  const Instance inst = make_instance(
      WorkloadSpec::poisson(20000, 0.8, ExponentialSize{2.0}, 10, 2));
  const double lambda_hat = static_cast<double>(inst.n()) / inst.max_release();
  EXPECT_NEAR(lambda_hat * 2.0 / 2.0, 0.8, 0.05);
}

TEST(PoissonLoad, RejectsBadUtilization) {
  EXPECT_THROW(
      (void)make_instance(WorkloadSpec::poisson(10, 0.0, FixedSize{1.0}, 11)),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_instance(WorkloadSpec::poisson(10, 2.0, FixedSize{1.0}, 11)),
      std::invalid_argument);
  EXPECT_THROW((void)make_instance(
                   WorkloadSpec::poisson(10, 0.5, FixedSize{1.0}, 11, 0)),
               std::invalid_argument);
}

TEST(BurstyStream, StructureIsCorrect) {
  const Instance inst =
      make_instance(WorkloadSpec::bursty(3, 4, 10.0, FixedSize{1.0}, 12));
  ASSERT_EQ(inst.n(), 12u);
  for (JobId j = 0; j < 12; ++j) {
    EXPECT_DOUBLE_EQ(inst.job(j).release, 10.0 * static_cast<double>(j / 4));
  }
}

TEST(UniformStream, EvenlySpaced) {
  const Instance inst = make_instance(WorkloadSpec::uniform(5, 2.0, 1.5, 1.0));
  ASSERT_EQ(inst.n(), 5u);
  for (JobId j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(inst.job(j).release, 1.0 + 2.0 * j);
    EXPECT_DOUBLE_EQ(inst.job(j).size, 1.5);
  }
}

TEST(Generators, DeterministicGivenSeed) {
  const WorkloadSpec spec =
      WorkloadSpec::poisson(30, 0.9, ExponentialSize{1.0}, 99);
  const Instance ia = make_instance(spec);
  const Instance ib = make_instance(spec);
  for (JobId j = 0; j < 30; ++j) {
    EXPECT_DOUBLE_EQ(ia.job(j).release, ib.job(j).release);
    EXPECT_DOUBLE_EQ(ia.job(j).size, ib.job(j).size);
  }
}

}  // namespace
}  // namespace tempofair::workload
