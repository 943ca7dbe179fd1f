#include <stdexcept>

#include "core/share_rules.h"
#include "policies/priority_policies.h"

namespace tempofair {

Laps::Laps(double beta) : beta_(beta) {
  if (!(beta > 0.0) || beta > 1.0) {
    throw std::invalid_argument("Laps: beta must lie in (0, 1]");
  }
}

RateDecision Laps::rates(const SchedulerContext& ctx) {
  const auto alive = ctx.alive;
  RateDecision d;
  // No monotone-release hint: the policy sees arbitrary alive sets.
  share_rules::laps_rates(
      ctx.n_alive(), ctx.machines, ctx.speed, beta_,
      [alive](std::size_t i) { return alive[i].release; },
      /*release_monotone=*/false, d.rates, idx_);
  return d;
}

FastForward Laps::fast_forward() const noexcept {
  FastForward ff;
  ff.kind = FastForwardKind::kLatestArrival;
  ff.beta = beta_;
  return ff;
}

}  // namespace tempofair
