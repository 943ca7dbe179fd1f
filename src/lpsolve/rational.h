// Overflow-checked 128-bit rational arithmetic for the certified LP layer.
//
// Every IEEE double is an exact rational p / 2^e; `Rational::from_double`
// performs that conversion losslessly, so arithmetic over LP data that was
// *stated* in doubles is exact.  All operations are overflow-checked: a
// result that does not fit in a normalized __int128 fraction becomes
// *invalid*, and invalidity poisons every downstream computation (including
// comparisons, which conservatively return false).  The certificate verifier
// therefore degrades to "uncertified", never to a wrong bound.
//
// This is deliberately not a bignum: 128 bits with eager gcd-normalization
// cover the LP certificates we check (0/±1 constraint matrices, dyadic
// costs, grid-quantized duals) with large margin, at a fraction of the cost
// and dependency surface of arbitrary precision.
#pragma once

#include <cstdint>
#include <string>

namespace tempofair::lpsolve {

#if !defined(__SIZEOF_INT128__)
#error "tempofair::lpsolve::Rational requires compiler __int128 support"
#endif

class Rational {
 public:
  using Int = __int128;

  /// Zero.
  constexpr Rational() = default;

  [[nodiscard]] static Rational from_int(long long value);
  /// num / den, normalized.  Invalid when den == 0.
  [[nodiscard]] static Rational from_ratio(long long num, long long den);
  /// Exact conversion; invalid for NaN/inf or exponents outside 128 bits.
  [[nodiscard]] static Rational from_double(double value);
  /// An explicitly invalid (poison) value.
  [[nodiscard]] static Rational invalid();

  /// False once any overflow / bad input has poisoned the value.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  [[nodiscard]] Int num() const noexcept { return num_; }
  [[nodiscard]] Int den() const noexcept { return den_; }

  /// Nearest-double approximation (0.0 when invalid).
  [[nodiscard]] double to_double() const noexcept;
  /// Largest double proven to be <= the exact value (for certified lower
  /// bounds).  Returns -inf when invalid.  Where no nearby double can be
  /// compared exactly (magnitudes below ~2^-74, or overflow), returns 0.0
  /// for a value >= 0 and -inf otherwise.
  [[nodiscard]] double lower_double() const noexcept;
  /// Smallest double proven to be >= the exact value.  +inf when invalid;
  /// mirrors lower_double()'s fallback (0.0 for a value <= 0, else +inf).
  [[nodiscard]] double upper_double() const noexcept;

  /// Largest multiple of 1/2^bits that is <= the exact value.  Used to
  /// quantize dual candidates so downstream exact arithmetic stays small.
  [[nodiscard]] Rational floor_to_dyadic(unsigned bits) const;
  /// Smallest multiple of 1/2^bits that is >= the exact value.
  [[nodiscard]] Rational ceil_to_dyadic(unsigned bits) const;

  [[nodiscard]] bool is_zero() const noexcept {
    return valid_ && num_ == 0;
  }
  [[nodiscard]] bool is_negative() const noexcept {
    return valid_ && num_ < 0;
  }
  [[nodiscard]] bool is_positive() const noexcept {
    return valid_ && num_ > 0;
  }

  friend Rational operator+(const Rational& a, const Rational& b);
  friend Rational operator-(const Rational& a, const Rational& b);
  friend Rational operator*(const Rational& a, const Rational& b);
  friend Rational operator/(const Rational& a, const Rational& b);
  Rational operator-() const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  /// Exact comparisons.  Any comparison involving an invalid value returns
  /// false, so feasibility checks written as `lhs <= rhs` fail closed.
  friend bool operator==(const Rational& a, const Rational& b);
  friend bool operator!=(const Rational& a, const Rational& b);
  friend bool operator<(const Rational& a, const Rational& b);
  friend bool operator<=(const Rational& a, const Rational& b);
  friend bool operator>(const Rational& a, const Rational& b);
  friend bool operator>=(const Rational& a, const Rational& b);

  /// "num/den" (or "invalid") for diagnostics.
  [[nodiscard]] std::string str() const;

 private:
  Rational(Int num, Int den, bool valid) noexcept
      : num_(num), den_(den), valid_(valid) {}
  /// Builds num/den, normalizing sign and gcd; poisons on den == 0.
  [[nodiscard]] static Rational make(Int num, Int den) noexcept;

  Int num_ = 0;
  Int den_ = 1;  // > 0 whenever valid_
  bool valid_ = true;
};

}  // namespace tempofair::lpsolve
