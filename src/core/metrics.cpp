#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace tempofair {

namespace {

/// Interpolated percentile over an already-sorted, non-empty vector; the one
/// definition shared by the free percentile() and LiveMetrics' cached path.
double percentile_sorted(std::span<const double> sorted, double p) {
  const double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double lk_power_sum(std::span<const double> values, double k) {
  if (k < 1.0) throw std::invalid_argument("lk_power_sum: k must be >= 1");
  double vmax = 0.0;
  for (double v : values) {
    if (v < 0.0) throw std::invalid_argument("lk_power_sum: negative value");
    vmax = std::max(vmax, v);
  }
  if (vmax <= 0.0) return 0.0;
  // Accumulate in the vmax-rescaled form (every term in [0, 1]) and scale
  // once at the end: the sum itself never overflows, so the result is inf
  // only when sum v^k genuinely exceeds the double range.
  double sum = 0.0;
  for (double v : values) sum += std::pow(v / vmax, k);
  return std::pow(vmax, k) * sum;
}

double lk_norm(std::span<const double> values, double k) {
  if (k < 1.0) throw std::invalid_argument("lk_norm: k must be >= 1");
  if (values.empty()) return 0.0;
  double vmax = 0.0;
  for (double v : values) {
    if (v < 0.0) throw std::invalid_argument("lk_norm: negative value");
    vmax = std::max(vmax, v);
  }
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  // (sum (v/vmax)^k)^(1/k) * vmax avoids overflow for large k.
  double sum = 0.0;
  for (double v : values) sum += std::pow(v / vmax, k);
  return vmax * std::pow(sum, 1.0 / k);
}

double linf_norm(std::span<const double> values) {
  double m = 0.0;
  for (double v : values) m = std::max(m, v);
  return m;
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p outside [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

namespace {

/// flow_stats over a buffer it may permute: the sums run first, in the
/// input order, then the three percentiles are selected in place.
///
/// Every field is bitwise what the separate passes produce (sum/sq, lk_norm
/// at k = 2 and 3, linf_norm, and percentile() over a sorted copy): the
/// passes are fused, but each accumulator still sees the values in input
/// order with the same operations.  The percentiles are exact order
/// statistics, found by selection instead of a sort, lowest rank first:
/// nth_element places the lower rank, and its upper neighbour is the
/// minimum of the part above.  Each later selection only partitions the
/// suffix above the previous rank, which holds exactly the larger ranks,
/// so p95 and p99 together touch about half the values.
FlowStats flow_stats_in_place(std::vector<double>& flows) {
  FlowStats s;
  s.n = flows.size();
  if (flows.empty()) return s;
  double sum = 0.0, sq = 0.0, vmax = 0.0;
  for (double f : flows) {
    sum += f;
    sq += f * f;
    if (f < 0.0) throw std::invalid_argument("lk_norm: negative value");
    vmax = std::max(vmax, f);
  }
  if (vmax > 0.0) {
    // The exponents are read at run time on purpose: with a literal 2.0 the
    // compiler rewrites std::pow(x, 2.0) as x * x, whose bits differ from
    // pow()'s for rare x, and lk_norm() always calls pow().
    static const volatile double kExponent[2] = {2.0, 3.0};
    const double k2 = kExponent[0];
    const double k3 = kExponent[1];
    double sum2 = 0.0, sum3 = 0.0;
    for (double f : flows) {
      const double x = f / vmax;
      sum2 += std::pow(x, k2);
      sum3 += std::pow(x, k3);
    }
    s.l2 = vmax * std::pow(sum2, 1.0 / k2);
    s.l3 = vmax * std::pow(sum3, 1.0 / k3);
  }
  s.l1 = sum;
  s.linf = vmax;
  s.mean = sum / static_cast<double>(s.n);
  s.variance = std::max(0.0, sq / static_cast<double>(s.n) - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);

  // flows[lower, n) holds exactly the ranks from `lower` up, and the last
  // selection found ranks lower - 1 and lower (at_lo, above).
  const std::size_t n = flows.size();
  const auto first = flows.begin();
  std::size_t lower = 0;
  double at_lo = 0.0;
  double above = 0.0;
  const auto select = [&](double p) {
    // The positions and the blend are percentile_sorted()'s, verbatim.
    const double pos = (p / 100.0) * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    if (lo >= lower) {  // else lo == lower - 1: the last selection's rank
      std::nth_element(first + static_cast<std::ptrdiff_t>(lower),
                       first + static_cast<std::ptrdiff_t>(lo), flows.end());
      at_lo = flows[lo];
      const auto next = first + static_cast<std::ptrdiff_t>(lo + 1);
      above = lo + 1 < n ? *std::min_element(next, flows.end()) : at_lo;
      lower = lo + 1;
    }
    return at_lo * (1.0 - frac) + (hi > lo ? above : at_lo) * frac;
  };
  s.p50 = select(50.0);
  s.p95 = select(95.0);
  s.p99 = select(99.0);
  return s;
}

}  // namespace

FlowStats flow_stats(std::span<const double> flows) {
  std::vector<double> scratch(flows.begin(), flows.end());
  return flow_stats_in_place(scratch);
}

FlowStats flow_stats(const Schedule& schedule) {
  std::vector<Time> flows = schedule.flows();
  return flow_stats_in_place(flows);
}

// The Schedule overloads below recompute F_j = C_j - r_j from the schedule's
// columnar completion/release arrays on the fly instead of materializing a
// flows vector per call.  The value sequence (and hence every rounding step)
// matches lk_power_sum / lk_norm over flows() exactly.

double flow_lk_norm(const Schedule& schedule, double k) {
  if (k < 1.0) throw std::invalid_argument("lk_norm: k must be >= 1");
  const std::span<const Time> completion = schedule.completions();
  const std::span<const Time> release = schedule.releases();
  const std::size_t n = completion.size();
  if (n == 0) return 0.0;
  double vmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = completion[i] - release[i];
    if (v < 0.0) throw std::invalid_argument("lk_norm: negative value");
    vmax = std::max(vmax, v);
  }
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::pow((completion[i] - release[i]) / vmax, k);
  }
  return vmax * std::pow(sum, 1.0 / k);
}

double flow_lk_power(const Schedule& schedule, double k) {
  if (k < 1.0) throw std::invalid_argument("lk_power_sum: k must be >= 1");
  const std::span<const Time> completion = schedule.completions();
  const std::span<const Time> release = schedule.releases();
  double vmax = 0.0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    const double v = completion[i] - release[i];
    if (v < 0.0) throw std::invalid_argument("lk_power_sum: negative value");
    vmax = std::max(vmax, v);
  }
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    sum += std::pow((completion[i] - release[i]) / vmax, k);
  }
  return std::pow(vmax, k) * sum;
}

namespace {

/// Max value on the positive-weight support (weights act as a support
/// filter, matching the k = infinity semantics); validates both spans.
double weighted_support_max(std::span<const double> values,
                            std::span<const double> weights, const char* who) {
  double vmax = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0.0 || weights[i] < 0.0) {
      throw std::invalid_argument(std::string(who) +
                                  ": negative value or weight");
    }
    if (weights[i] > 0.0) vmax = std::max(vmax, values[i]);
  }
  return vmax;
}

}  // namespace

double weighted_lk_power(std::span<const double> values,
                         std::span<const double> weights, double k) {
  if (k < 1.0) throw std::invalid_argument("weighted_lk_power: k must be >= 1");
  if (values.size() != weights.size()) {
    throw std::invalid_argument("weighted_lk_power: size mismatch");
  }
  const double vmax =
      weighted_support_max(values, weights, "weighted_lk_power");
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += weights[i] * std::pow(values[i] / vmax, k);
  }
  return std::pow(vmax, k) * sum;
}

double weighted_lk_norm(std::span<const double> values,
                        std::span<const double> weights, double k) {
  if (k < 1.0) throw std::invalid_argument("weighted_lk_norm: k must be >= 1");
  if (values.size() != weights.size()) {
    throw std::invalid_argument("weighted_lk_norm: size mismatch");
  }
  const double vmax = weighted_support_max(values, weights, "weighted_lk_norm");
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  // Root of the *rescaled* weighted power: the unscaled sum w v^k can
  // overflow to inf even when the norm itself is representable.
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += weights[i] * std::pow(values[i] / vmax, k);
  }
  return vmax * std::pow(sum, 1.0 / k);
}

double weighted_flow_lk_power(const Schedule& schedule, double k) {
  const std::vector<Time> flows = schedule.flows();
  return weighted_lk_power(flows, schedule.weights(), k);
}

double weighted_flow_lk_norm(const Schedule& schedule, double k) {
  const std::vector<Time> flows = schedule.flows();
  return weighted_lk_norm(flows, schedule.weights(), k);
}

void LiveMetrics::set_expected(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  expected_ = n;
}

void LiveMetrics::record(Time flow) {
  const std::lock_guard<std::mutex> lock(mutex_);
  flows_.push_back(flow);
  sorted_valid_ = false;
}

void LiveMetrics::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flows_.clear();
  expected_ = 0;
  sorted_.clear();
  sorted_valid_ = false;
}

std::size_t LiveMetrics::completed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return flows_.size();
}

std::size_t LiveMetrics::expected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return expected_;
}

FlowStats LiveMetrics::snapshot() const {
  std::vector<double> copy = flows();
  return flow_stats_in_place(copy);
}

double LiveMetrics::lk(double k) const { return lk_norm(flows(), k); }

double LiveMetrics::percentile(double p) const {
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0,100]");
  }
  // Percentile queries re-sort nothing while no job completes in between:
  // the sorted view is cached under the same lock and invalidated by
  // record()/reset().  Daemon QUERY_METRICS polls (often several percentiles
  // per poll, many polls per completion) pay O(log n) lookups, not
  // O(n log n) copies, on live runs.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (flows_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = flows_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return percentile_sorted(sorted_, p);
}

std::vector<double> LiveMetrics::flows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return flows_;
}

}  // namespace tempofair
