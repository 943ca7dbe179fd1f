// MLFQ -- Multi-Level Feedback Queue, the classic OS approximation of SETF.
//
// Non-clairvoyant.  Level thresholds grow geometrically: a job is in level
// L(a) = number of thresholds T_i = base * growth^i that its attained service
// a has passed.  The m alive jobs of lexicographically least (level, release,
// id) run at full speed; a running job is demoted (re-queried via the
// breakpoint) when its attained service crosses its current threshold.
//
// The allocation rule lives in core/share_rules.h (mlfq_rates / mlfq_level_of
// / mlfq_threshold), shared with FastForwardCore's kLevelPriority kernel so
// the fast path is bitwise-equal to the event loop.  rates() computes every
// alive job's level from scratch; the kernel caches the same levels.
#pragma once

#include <cstddef>
#include <vector>

#include "core/policy.h"
#include "core/share_rules.h"

namespace tempofair {

class Mlfq final : public Policy {
 public:
  explicit Mlfq(double base_quantum = 1.0, double growth = 2.0);

  [[nodiscard]] std::string_view name() const noexcept override { return "mlfq"; }
  [[nodiscard]] bool clairvoyant() const noexcept override { return false; }
  [[nodiscard]] RateDecision rates(const SchedulerContext& ctx) override;

  /// Epoch-coalescing closed form: the kernel evaluates the same
  /// share_rules::mlfq_rates over its attained column (contract C1).
  [[nodiscard]] FastForward fast_forward() const noexcept override;

  /// Threshold above which a job leaves `level` (T_level).
  [[nodiscard]] double threshold(int level) const noexcept;
  /// Level of a job with attained service `attained`.
  [[nodiscard]] int level_of(double attained) const noexcept;

 private:
  double base_;
  double growth_;
  // mlfq_rates buffers only; no rule state (C2).
  std::vector<int> levels_;
  std::vector<std::size_t> idx_;
};

}  // namespace tempofair
