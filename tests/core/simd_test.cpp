// Bitwise equivalence of the vector kernels in core/simd.h against their
// scalar reference implementations.
//
// This TU is compiled with the same fast-path flags as core/fast_forward.cpp
// (see tests/CMakeLists.txt), so on an AVX2-capable toolchain the public
// kernels here take the vector path while namespace scalar stays the plain
// loop -- the comparison is vector-vs-scalar for real, not scalar-vs-scalar.
// When the build has no vector ISA (or TEMPOFAIR_FORCE_SCALAR is set) the
// tests still pass trivially; the CI determinism job runs the suite both
// ways to cover each path of one binary.
#include "core/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "workload/rng.h"

namespace tempofair {
namespace {

constexpr std::uint64_t kSeed = 20260806;

// Sizes straddle the 4-lane vector width: empty, sub-vector, exact
// multiples, and tails of every residue.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,   7,  8,
                                         9,  12, 13, 15, 16, 17,  31, 64,
                                         65, 66, 67, 100, 127, 256, 1000};

std::vector<double> random_column(workload::Rng& rng, std::size_t n,
                                  double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " diverges at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

TEST(SimdKernels, SubScalarMatchesReference) {
  workload::Rng rng(kSeed);
  for (const std::size_t n : kSizes) {
    const std::vector<double> base = random_column(rng, n, -10.0, 10.0);
    const double delta = rng.uniform(-2.0, 2.0);
    std::vector<double> got = base;
    std::vector<double> want = base;
    simd::sub_scalar(got.data(), n, delta);
    simd::scalar::sub_scalar(want.data(), n, delta);
    expect_bitwise_equal(got, want, "sub_scalar");
  }
}

TEST(SimdKernels, SubProductMatchesReference) {
  workload::Rng rng(kSeed + 2);
  for (const std::size_t n : kSizes) {
    const std::vector<double> rem0 = random_column(rng, n, 0.0, 20.0);
    const std::vector<double> rates = random_column(rng, n, 0.0, 3.0);
    const double dt = rng.uniform(0.0, 1.5);
    std::vector<double> got = rem0;
    std::vector<double> want = rem0;
    simd::sub_product(got.data(), rates.data(), n, dt);
    simd::scalar::sub_product(want.data(), rates.data(), n, dt);
    expect_bitwise_equal(got, want, "sub_product");
  }
}

TEST(SimdKernels, MinRatioMatchesReference) {
  workload::Rng rng(kSeed + 3);
  for (const std::size_t n : kSizes) {
    std::vector<double> rem = random_column(rng, n, 1e-12, 20.0);
    std::vector<double> rates = random_column(rng, n, 1e-9, 3.0);
    // Zero rates divide to +inf (remaining stays positive) and must drop
    // out of the min without a mask.
    for (std::size_t i = 1; i < n; i += 4) rates[i] = 0.0;
    const double got = simd::min_ratio(rem.data(), rates.data(), n);
    const double want = simd::scalar::min_ratio(rem.data(), rates.data(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "min_ratio diverges for n=" << n << ": " << got << " vs " << want;
  }
}

TEST(SimdKernels, MinRatioAllZeroRatesIsInfinite) {
  const std::vector<double> rem = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> rates(5, 0.0);
  EXPECT_EQ(simd::min_ratio(rem.data(), rates.data(), rem.size()),
            __builtin_inf());
  EXPECT_EQ(simd::min_ratio(rem.data(), rates.data(), 0),
            __builtin_inf());
}

TEST(SimdKernels, ConfigIsConsistent) {
  // vector_active() is what the perf harness reports; it must agree with
  // the compile-time width and the env knob.
  EXPECT_EQ(simd::vector_active(),
            simd::kVectorWidth > 1 && !simd::force_scalar());
#if defined(TEMPOFAIR_SIMD_AVX2)
  EXPECT_EQ(simd::kVectorWidth, 4u);
#else
  EXPECT_EQ(simd::kVectorWidth, 1u);
#endif
}

}  // namespace
}  // namespace tempofair
