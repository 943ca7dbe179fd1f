#include "policies/weighted_rr.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tempofair {

std::vector<double> waterfill(std::span<const double> weights, double capacity,
                              double cap) {
  const std::size_t n = weights.size();
  std::vector<double> rates(n, 0.0);
  if (n == 0 || capacity <= 0.0) return rates;

  // If even an equal split saturates every cap, everyone gets the cap.
  // Otherwise repeatedly pin items whose proportional share exceeds the cap.
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), std::size_t{0});
  double cap_left = std::min(capacity, cap * static_cast<double>(n));

  // Weights near DBL_MAX overflow the weight sum, or cap_left * w, to inf.
  // Scaling every weight by one power of two changes no share's rounding
  // (short of underflow), so only such inputs are rescaled, putting the
  // largest weight in [1, 2): every result that was finite keeps its bits.
  std::vector<double> rescaled;
  double total = 0.0;
  double largest = 0.0;
  for (const double w : weights) {
    total += w;
    largest = std::max(largest, w);
  }
  if (std::isfinite(largest) && largest > 0.0 &&
      (std::isinf(total) || std::isinf(cap_left * largest))) {
    const int shift = -std::ilogb(largest);
    rescaled.reserve(n);
    for (const double w : weights) rescaled.push_back(std::ldexp(w, shift));
    weights = rescaled;
  }

  while (!active.empty()) {
    double weight_sum = 0.0;
    for (std::size_t i : active) weight_sum += weights[i];
    if (weight_sum <= 0.0) {
      // Degenerate: all active weights zero -> equal split.
      const double share =
          std::min(cap, cap_left / static_cast<double>(active.size()));
      for (std::size_t i : active) rates[i] = share;
      break;
    }
    bool pinned_any = false;
    std::vector<std::size_t> still_active;
    still_active.reserve(active.size());
    for (std::size_t i : active) {
      const double share = cap_left * weights[i] / weight_sum;
      if (share >= cap - kAbsEps) {
        rates[i] = cap;
        pinned_any = true;
      } else {
        still_active.push_back(i);
      }
    }
    if (!pinned_any) {
      for (std::size_t i : active) {
        rates[i] = cap_left * weights[i] / weight_sum;
      }
      break;
    }
    for (std::size_t i : active) {
      if (rates[i] == cap) cap_left -= cap;
    }
    cap_left = std::max(cap_left, 0.0);
    active = std::move(still_active);
  }
  return rates;
}

WeightedRoundRobin::WeightedRoundRobin(double age_offset, double refresh_rel)
    : age_offset_(age_offset), refresh_rel_(refresh_rel) {
  if (!(age_offset > 0.0)) {
    throw std::invalid_argument("WeightedRoundRobin: age_offset must be > 0");
  }
  if (!(refresh_rel > 0.0)) {
    throw std::invalid_argument("WeightedRoundRobin: refresh_rel must be > 0");
  }
}

RateDecision WeightedRoundRobin::rates(const SchedulerContext& ctx) {
  const std::size_t n = ctx.n_alive();
  std::vector<double> weights(n);
  double min_weight = kInfiniteTime;
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = ctx.alive[i].age(ctx.now) + age_offset_;
    min_weight = std::min(min_weight, weights[i]);
  }
  RateDecision d;
  d.rates = waterfill(weights, ctx.capacity(), ctx.speed);
  // Refresh before the youngest job's weight grows by more than refresh_rel
  // relatively; this bounds the drift of all proportional shares.
  d.max_duration = refresh_rel_ * min_weight;
  return d;
}

}  // namespace tempofair
