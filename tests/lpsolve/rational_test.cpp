#include "lpsolve/rational.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace tempofair::lpsolve {
namespace {

TEST(Rational, FromRatioNormalizes) {
  EXPECT_EQ(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
  EXPECT_EQ(Rational::from_ratio(-2, 4), Rational::from_ratio(1, -2));
  EXPECT_EQ(Rational::from_ratio(0, 7), Rational::from_int(0));
  const Rational half = Rational::from_ratio(3, 6);
  EXPECT_EQ(static_cast<long long>(half.num()), 1);
  EXPECT_EQ(static_cast<long long>(half.den()), 2);
}

TEST(Rational, FromRatioZeroDenIsInvalid) {
  EXPECT_FALSE(Rational::from_ratio(1, 0).valid());
}

TEST(Rational, FromDoubleIsExact) {
  // 0.1 is not 1/10 in binary; the conversion must capture the double's
  // true value, so converting back is lossless.
  for (const double v : {0.1, -0.3, 1.0 / 3.0, 2.5, -1024.75, 1e-20, 3e20}) {
    const Rational r = Rational::from_double(v);
    ASSERT_TRUE(r.valid()) << v;
    EXPECT_EQ(r.to_double(), v);
  }
  EXPECT_TRUE(Rational::from_double(0.0).is_zero());
}

TEST(Rational, FromDoubleRejectsNonFinite) {
  EXPECT_FALSE(Rational::from_double(std::nan("")).valid());
  EXPECT_FALSE(
      Rational::from_double(std::numeric_limits<double>::infinity()).valid());
  // Denormals have exponents far outside the 128-bit window.
  EXPECT_FALSE(
      Rational::from_double(std::numeric_limits<double>::denorm_min()).valid());
}

TEST(Rational, ExactArithmetic) {
  const Rational third = Rational::from_ratio(1, 3);
  const Rational sixth = Rational::from_ratio(1, 6);
  EXPECT_EQ(third + sixth, Rational::from_ratio(1, 2));
  EXPECT_EQ(third - sixth, sixth);
  EXPECT_EQ(third * sixth, Rational::from_ratio(1, 18));
  EXPECT_EQ(third / sixth, Rational::from_int(2));
  EXPECT_EQ(-third, Rational::from_ratio(-1, 3));
  // The exact sum of double(0.1) and double(0.2) lies strictly between
  // double(0.3) and the rounded double sum 0.1 + 0.2 -- rationals expose the
  // rounding that doubles hide.
  const Rational sum =
      Rational::from_double(0.1) + Rational::from_double(0.2);
  EXPECT_NE(sum, Rational::from_double(0.3));
  EXPECT_NE(sum, Rational::from_double(0.1 + 0.2));
  EXPECT_LT(Rational::from_double(0.3), sum);
  EXPECT_LT(sum, Rational::from_double(0.1 + 0.2));
}

TEST(Rational, DivisionByZeroPoisons) {
  EXPECT_FALSE((Rational::from_int(1) / Rational::from_int(0)).valid());
}

TEST(Rational, OverflowPoisonsAndPropagates) {
  // (2^96 / 3) * (2^96 / 5) cannot be represented: ~2^192.
  const Rational big =
      Rational::from_double(std::ldexp(1.0, 96)) / Rational::from_int(3);
  ASSERT_TRUE(big.valid());
  const Rational big2 =
      Rational::from_double(std::ldexp(1.0, 96)) / Rational::from_int(5);
  const Rational prod = big * big2;
  EXPECT_FALSE(prod.valid());
  // Poison propagates through further arithmetic.
  EXPECT_FALSE((prod + Rational::from_int(1)).valid());
  EXPECT_FALSE((-prod).valid());
}

TEST(Rational, ComparisonsFailClosedOnInvalid) {
  const Rational bad = Rational::invalid();
  const Rational one = Rational::from_int(1);
  EXPECT_FALSE(bad == bad);
  EXPECT_FALSE(bad <= one);
  EXPECT_FALSE(one <= bad);
  EXPECT_FALSE(bad < one);
  EXPECT_FALSE(one >= bad);
  EXPECT_FALSE(bad.is_zero());
  EXPECT_FALSE(bad.is_negative());
  EXPECT_FALSE(bad.is_positive());
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational::from_ratio(1, 3), Rational::from_ratio(1, 2));
  EXPECT_LT(Rational::from_ratio(-1, 2), Rational::from_ratio(-1, 3));
  EXPECT_GT(Rational::from_int(1), Rational::from_ratio(99, 100));
  EXPECT_LE(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
}

TEST(Rational, DyadicRounding) {
  const Rational third = Rational::from_ratio(1, 3);
  const Rational down = third.floor_to_dyadic(4);  // multiples of 1/16
  const Rational up = third.ceil_to_dyadic(4);
  EXPECT_EQ(down, Rational::from_ratio(5, 16));
  EXPECT_EQ(up, Rational::from_ratio(6, 16));
  // Negative values floor away from zero.
  EXPECT_EQ((-third).floor_to_dyadic(4), Rational::from_ratio(-6, 16));
  EXPECT_EQ((-third).ceil_to_dyadic(4), Rational::from_ratio(-5, 16));
  // Grid points are fixed points.
  const Rational grid = Rational::from_ratio(3, 16);
  EXPECT_EQ(grid.floor_to_dyadic(4), grid);
  EXPECT_EQ(grid.ceil_to_dyadic(4), grid);
}

TEST(Rational, DirectedDoubleRounding) {
  const Rational third = Rational::from_ratio(1, 3);
  const double lo = third.lower_double();
  const double hi = third.upper_double();
  EXPECT_LT(lo, hi);
  EXPECT_TRUE(Rational::from_double(lo) <= third);
  EXPECT_TRUE(Rational::from_double(hi) >= third);
  // Exactly representable values round to themselves on both sides.
  const Rational half = Rational::from_ratio(1, 2);
  EXPECT_EQ(half.lower_double(), 0.5);
  EXPECT_EQ(half.upper_double(), 0.5);
  // Invalid values round to the unusable side.
  EXPECT_EQ(Rational::invalid().lower_double(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Rational::invalid().upper_double(),
            std::numeric_limits<double>::infinity());
}

TEST(Rational, DirectedDoubleRoundingFailsSafeBelowDoubleWindow) {
  // Below ~2^-74 from_double() cannot represent the nearby doubles, so the
  // exact comparison cannot be made; the rounding must still be safe.
  const Rational two_m76 =
      Rational::from_ratio(1, 1LL << 62) * Rational::from_ratio(1, 1LL << 14);
  const Rational fifth = Rational::from_ratio(1, 5) * two_m76;
  const Rational seventh = Rational::from_ratio(1, 7) * two_m76;
  ASSERT_TRUE(fifth.valid());
  ASSERT_TRUE(seventh.valid());
  const double lo = fifth.lower_double();
  EXPECT_TRUE(Rational::from_double(lo) <= fifth) << std::hexfloat << lo;
  const double hi = seventh.upper_double();
  EXPECT_TRUE(hi == std::numeric_limits<double>::infinity() ||
              Rational::from_double(hi) >= seventh)
      << std::hexfloat << hi;
  // Mirrored for negative values.
  const double neg_hi = (-fifth).upper_double();
  EXPECT_TRUE(Rational::from_double(neg_hi) >= -fifth) << neg_hi;
  EXPECT_EQ((-seventh).lower_double(),
            -std::numeric_limits<double>::infinity());
}

// Euclid on unsigned 128-bit values: the normalisation the power-of-two
// fast path must reproduce exactly.
unsigned __int128 euclid(unsigned __int128 a, unsigned __int128 b) {
  while (b != 0) {
    const unsigned __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

using Int = Rational::Int;

/// hi * 2^62 + lo, built through exact arithmetic.
Rational wide(long long hi, long long lo) {
  return Rational::from_int(hi) * Rational::from_int(1LL << 62) +
         Rational::from_int(lo);
}

void expect_normalised(const Rational& a, const Rational& b) {
  ASSERT_TRUE(a.valid() && b.valid());
  ASSERT_EQ(a.den(), 1);
  ASSERT_EQ(b.den(), 1);
  const Rational q = a / b;
  const Int an = a.num(), bn = b.num();
  const auto abs_u = [](Int v) {
    return v < 0 ? -static_cast<unsigned __int128>(v)
                 : static_cast<unsigned __int128>(v);
  };
  if (an == 0) {
    EXPECT_TRUE(q.is_zero());
    EXPECT_EQ(q.den(), 1);
    return;
  }
  const unsigned __int128 g = euclid(abs_u(an), abs_u(bn));
  const Int want_num = ((an < 0) != (bn < 0) ? -1 : 1) *
                       static_cast<Int>(abs_u(an) / g);
  const Int want_den = static_cast<Int>(abs_u(bn) / g);
  ASSERT_TRUE(q.valid()) << a.str() << " / " << b.str();
  EXPECT_TRUE(q.num() == want_num && q.den() == want_den)
      << a.str() << " / " << b.str() << " = " << q.str();
}

TEST(Rational, GcdMatchesEuclid) {
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<long long> any(-(1LL << 62), 1LL << 62);
  std::uniform_int_distribution<int> small(-40, 40), shift(0, 62);
  for (int i = 0; i < 3000; ++i) {
    // Wide operands sharing a random factor, so the gcd is nontrivial.
    const Rational f = Rational::from_int(small(rng) | 1);
    const Rational a = wide(any(rng) >> shift(rng), any(rng)) * f;
    Rational b = wide(any(rng) >> shift(rng), any(rng)) * f;
    if (b.is_zero()) b = Rational::from_int(3);
    if (!a.valid() || !b.valid()) continue;
    expect_normalised(a, b);
    // Power-of-two denominators: the dyadic fast path.
    const Rational p2 = Rational::from_double(std::ldexp(1.0, shift(rng) * 2));
    expect_normalised(a, p2);
    const Rational even = a * Rational::from_int(1LL << (shift(rng) / 2));
    if (even.valid()) expect_normalised(even, p2);
  }
  // Zero, signs, and values at the edge of the __int128 range.
  const Rational top = wide(1LL << 62, 0) * Rational::from_int(2);  // 2^125
  const Rational half = top * Rational::from_int(2);  // 2^126
  const Rational max = half - Rational::from_int(1) + half;  // 2^127 - 1
  ASSERT_TRUE(max.valid());
  expect_normalised(Rational(), max);
  expect_normalised(max, max);
  expect_normalised(-max, max);
  expect_normalised(max - Rational::from_int(1), top);
  expect_normalised(top * Rational::from_int(3), -top);
  expect_normalised(max, Rational::from_int(-7));
  expect_normalised(top, Rational::from_int(-(1LL << 40)));
  // Sums over dyadic denominators reduce like Euclid too.
  const Rational x = Rational::from_ratio(3, 1LL << 40) +
                     Rational::from_ratio(-5, 1LL << 21);
  EXPECT_EQ(x.num(), 3 - 5 * (static_cast<Int>(1) << 19));
  EXPECT_EQ(x.den(), static_cast<Int>(1) << 40);
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational::from_ratio(-7, 3).str(), "-7/3");
  EXPECT_EQ(Rational::from_int(5).str(), "5");
  EXPECT_EQ(Rational::invalid().str(), "invalid");
}

}  // namespace
}  // namespace tempofair::lpsolve
