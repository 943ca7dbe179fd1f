#include "policies/mlfq.h"

#include <stdexcept>

namespace tempofair {

Mlfq::Mlfq(double base_quantum, double growth)
    : base_(base_quantum), growth_(growth) {
  if (!(base_quantum > 0.0)) {
    throw std::invalid_argument("Mlfq: base_quantum must be > 0");
  }
  if (!(growth > 1.0)) {
    throw std::invalid_argument("Mlfq: growth must be > 1");
  }
}

double Mlfq::threshold(int level) const noexcept {
  return share_rules::mlfq_threshold(base_, growth_, level);
}

int Mlfq::level_of(double attained) const noexcept {
  return share_rules::mlfq_level_of(base_, growth_, attained);
}

RateDecision Mlfq::rates(const SchedulerContext& ctx) {
  const auto alive = ctx.alive;
  const std::size_t n = ctx.n_alive();
  levels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) levels_[i] = level_of(alive[i].attained);
  RateDecision d;
  d.max_duration = share_rules::mlfq_rates(
      n, ctx.machines, ctx.speed, [this](std::size_t i) { return levels_[i]; },
      [this](std::size_t i) { return threshold(levels_[i]); },
      [alive](std::size_t i) { return alive[i].attained; },
      [alive](std::size_t i) { return alive[i].release; }, d.rates, idx_);
  return d;
}

FastForward Mlfq::fast_forward() const noexcept {
  FastForward ff;
  ff.kind = FastForwardKind::kLevelPriority;
  ff.mlfq_base = base_;
  ff.mlfq_growth = growth_;
  return ff;
}

}  // namespace tempofair
