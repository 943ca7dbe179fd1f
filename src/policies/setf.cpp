#include "policies/setf.h"

#include <stdexcept>

namespace tempofair {

Setf::Setf(double level_tolerance) : tol_(level_tolerance) {
  if (!(level_tolerance >= 0.0)) {
    throw std::invalid_argument("Setf: level_tolerance must be >= 0");
  }
}

RateDecision Setf::rates(const SchedulerContext& ctx) {
  const auto alive = ctx.alive;
  RateDecision d;
  d.max_duration = share_rules::setf_rates(
      ctx.n_alive(), ctx.machines, ctx.speed, tol_,
      [alive](std::size_t i) { return alive[i].attained; }, d.rates, scratch_,
      /*order_kept=*/false);
  return d;
}

FastForward Setf::fast_forward() const noexcept {
  FastForward ff;
  ff.kind = FastForwardKind::kEqualAttained;
  ff.level_tolerance = tol_;
  return ff;
}

}  // namespace tempofair
