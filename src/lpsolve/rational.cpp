#include "lpsolve/rational.h"

#include <cmath>
#include <limits>

namespace tempofair::lpsolve {

namespace {

using Int = Rational::Int;
using UInt = unsigned __int128;

UInt uabs(Int v) {
  return v < 0 ? -static_cast<UInt>(v) : static_cast<UInt>(v);
}

int ctz_u(UInt v) {  // v != 0
  const auto lo = static_cast<std::uint64_t>(v);
  return lo != 0 ? __builtin_ctzll(lo)
                 : 64 + __builtin_ctzll(static_cast<std::uint64_t>(v >> 64));
}

bool is_pow2(UInt v) { return (v & (v - 1)) == 0; }

/// gcd(0, b) = b.  Certificate values are dyadic, so most calls have a
/// power-of-two argument and take the fast path
/// gcd(x, 2^e) = 2^min(ctz x, e); the rest run Euclid.
UInt gcd_u(UInt a, UInt b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (is_pow2(a) || is_pow2(b)) {
    const int za = ctz_u(a);
    const int zb = ctz_u(b);
    return static_cast<UInt>(1) << (za < zb ? za : zb);
  }
  while (b != 0) {
    const UInt t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// v / g for a divisor g of v (g > 0): a shift when g is a power of two.
Int div_exact(Int v, UInt g) {
  if (is_pow2(g)) return v >> ctz_u(g);
  return v / static_cast<Int>(g);
}

bool mul_overflows(Int a, Int b, Int* out) {
  return __builtin_mul_overflow(a, b, out);
}

bool add_overflows(Int a, Int b, Int* out) {
  return __builtin_add_overflow(a, b, out);
}

double int128_to_double(Int v) {
  return static_cast<double>(v);  // correctly rounded per IEEE conversion
}

}  // namespace

Rational Rational::make(Int num, Int den) noexcept {
  if (den == 0) return invalid();
  if (den < 0) {
    // -INT128_MIN overflows; such a denominator cannot be normalized.
    if (den == std::numeric_limits<Int>::min() ||
        num == std::numeric_limits<Int>::min()) {
      return invalid();
    }
    num = -num;
    den = -den;
  }
  if (num == 0) return Rational(0, 1, true);
  const UInt g = gcd_u(uabs(num), static_cast<UInt>(den));
  if (g > 1) {
    num = div_exact(num, g);
    den = div_exact(den, g);
  }
  return Rational(num, den, true);
}

Rational Rational::invalid() {
  return Rational(0, 0, false);
}

Rational Rational::from_int(long long value) {
  return Rational(static_cast<Int>(value), 1, true);
}

Rational Rational::from_ratio(long long num, long long den) {
  return make(static_cast<Int>(num), static_cast<Int>(den));
}

Rational Rational::from_double(double value) {
  if (!std::isfinite(value)) return invalid();
  if (value == 0.0) return Rational();
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant * 2^exp
  // mant * 2^53 is an odd-or-even integer with |.| in [2^52, 2^53).
  const auto scaled = static_cast<long long>(std::ldexp(mant, 53));
  const int pow2 = exp - 53;  // value = scaled * 2^pow2
  if (pow2 >= 0) {
    if (pow2 > 74) return invalid();  // |scaled| < 2^53; shift must fit
    return make(static_cast<Int>(scaled) << pow2, 1);
  }
  if (pow2 < -126) return invalid();
  return make(static_cast<Int>(scaled), static_cast<Int>(1) << -pow2);
}

double Rational::to_double() const noexcept {
  if (!valid_) return 0.0;
  return int128_to_double(num_) / int128_to_double(den_);
}

double Rational::lower_double() const noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!valid_) return -kInf;
  // from_double is exact, so stepping down from the nearest double stops
  // after a few ulps once `d <= *this` is proven.  from_double(d) is invalid
  // for |d| below ~2^-74 and an exact comparison can overflow; where the
  // order cannot be decided, fall back to a bound that holds by sign.
  for (double d = to_double();;) {
    const Rational r = from_double(d);
    if (r <= *this) return d;
    if (!(*this < r)) break;  // undecided
    d = std::nextafter(d, -kInf);
  }
  return num_ >= 0 ? 0.0 : -kInf;
}

double Rational::upper_double() const noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!valid_) return kInf;
  for (double d = to_double();;) {
    const Rational r = from_double(d);
    if (r >= *this) return d;
    if (!(r < *this)) break;  // undecided
    d = std::nextafter(d, kInf);
  }
  return num_ <= 0 ? 0.0 : kInf;
}

Rational Rational::floor_to_dyadic(unsigned bits) const {
  if (!valid_ || bits > 62) return invalid();
  const Int scale = static_cast<Int>(1) << bits;
  Int scaled_num = 0;
  if (mul_overflows(num_, scale, &scaled_num)) return invalid();
  // Floor division for possibly-negative numerators.
  Int q = scaled_num / den_;
  if (scaled_num % den_ != 0 && scaled_num < 0) --q;
  return make(q, scale);
}

Rational Rational::ceil_to_dyadic(unsigned bits) const {
  const Rational neg = (-*this).floor_to_dyadic(bits);
  return -neg;
}

Rational Rational::operator-() const {
  if (!valid_ || num_ == std::numeric_limits<Int>::min()) return invalid();
  return Rational(-num_, den_, true);
}

Rational operator+(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return Rational::invalid();
  // a.num/a.den + b.num/b.den over the reduced common denominator.
  const UInt g = gcd_u(static_cast<UInt>(a.den_), static_cast<UInt>(b.den_));
  const Int bden_red = div_exact(b.den_, g);
  const Int aden_red = div_exact(a.den_, g);
  Int lhs = 0, rhs = 0, num = 0, den = 0;
  if (mul_overflows(a.num_, bden_red, &lhs) ||
      mul_overflows(b.num_, aden_red, &rhs) ||
      add_overflows(lhs, rhs, &num) ||
      mul_overflows(a.den_, bden_red, &den)) {
    return Rational::invalid();
  }
  return Rational::make(num, den);
}

Rational operator-(const Rational& a, const Rational& b) {
  return a + (-b);
}

Rational operator*(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return Rational::invalid();
  // Cross-reduce before multiplying to keep intermediates small.
  // Denominators are >= 1, so both gcds are >= 1.
  const UInt g1 = gcd_u(uabs(a.num_), static_cast<UInt>(b.den_));
  const UInt g2 = gcd_u(uabs(b.num_), static_cast<UInt>(a.den_));
  const Int an = div_exact(a.num_, g1);
  const Int bd = div_exact(b.den_, g1);
  const Int bn = div_exact(b.num_, g2);
  const Int ad = div_exact(a.den_, g2);
  Int num = 0, den = 0;
  if (mul_overflows(an, bn, &num) || mul_overflows(ad, bd, &den)) {
    return Rational::invalid();
  }
  return Rational::make(num, den);
}

Rational operator/(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_ || b.num_ == 0) return Rational::invalid();
  return a * Rational::make(b.den_, b.num_);
}

bool operator==(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  return a.num_ == b.num_ && a.den_ == b.den_;  // both normalized
}

bool operator!=(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  return !(a == b);
}

bool operator<(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  // a.num/a.den < b.num/b.den  <=>  a.num*b.den < b.num*a.den (dens > 0).
  Int lhs = 0, rhs = 0;
  if (mul_overflows(a.num_, b.den_, &lhs) ||
      mul_overflows(b.num_, a.den_, &rhs)) {
    // Fall back to the (a - b) sign, which cross-reduces internally.
    const Rational diff = a - b;
    return diff.valid_ && diff.num_ < 0;
  }
  return lhs < rhs;
}

bool operator<=(const Rational& a, const Rational& b) {
  return a == b || a < b;
}

bool operator>(const Rational& a, const Rational& b) {
  return b < a;
}

bool operator>=(const Rational& a, const Rational& b) {
  return b <= a;
}

std::string Rational::str() const {
  if (!valid_) return "invalid";
  auto digits = [](Int v) {
    if (v == 0) return std::string("0");
    const bool neg = v < 0;
    UInt u = neg ? -static_cast<UInt>(v) : static_cast<UInt>(v);
    std::string out;
    while (u != 0) {
      out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(u % 10)));
      u /= 10;
    }
    if (neg) out.insert(out.begin(), '-');
    return out;
  };
  if (den_ == 1) return digits(num_);
  return digits(num_) + "/" + digits(den_);
}

}  // namespace tempofair::lpsolve
