// Closed-form share rules, shared verbatim between the policies and
// FastForwardCore (contract C1 in core/fast_forward.h).
//
// SETF, LAPS, and MLFQ allocate rates by a pure function of the alive jobs'
// (attained, release) columns and the run constants -- no state survives
// between queries.  To make the fast path bitwise-equal to the event loop,
// the one rule body lives here as a template over column accessors: the
// policy's rates() instantiates it over the id-sorted AliveJob views, the
// kernel over its id-sorted SoA columns, and both therefore execute the
// exact same floating-point operations in the same order.  Tie-breaks by
// job id reduce to index comparisons because both callers index in
// ascending-id order.
//
// The kernel calls the same templates incrementally: it hands them state it
// keeps across events (MLFQ's level column, SETF's sorted permutation,
// LAPS's monotone-release hint), each of which is a cache of exactly what
// the policy's from-scratch call recomputes, so both paths still execute
// the same floating-point program (DESIGN.md section 11).
//
// Editing a formula here changes both paths at once -- which is the point.
// Never fork a copy into a policy or the kernel.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/time_types.h"

namespace tempofair::share_rules {

/// Reusable scratch for setf_rates; callers keep one across queries so the
/// per-event cost is a sort (or an insertion repair), never an allocation.
struct SetfScratch {
  struct Group {
    double rate;
    double level;
  };
  /// The alive indices in ascending (attained, index) order on return.
  std::vector<std::size_t> idx;
  std::vector<Group> groups;
  /// On return, idx[0, served) are the jobs with a positive rate.
  std::size_t served = 0;
};

/// Fluid SETF (policies/setf.h): machines are granted to jobs in increasing
/// attained-service order; a group tied at one level (within `tol`) shares
/// what remains, and the breakpoint is the earliest catch-up time at which
/// two adjacent groups merge.  `attained(i)` reads job i's attained service;
/// i ranges over the id-sorted alive set.  Fills `rates` (id order) and
/// returns the RateDecision::max_duration breakpoint.
///
/// With `order_kept`, scratch.idx must already hold a permutation of
/// [0, n) -- the previous call's order, remapped across admissions and
/// completions -- and is repaired by insertion instead of rebuilt by a full
/// sort.  (attained, index) is a strict total order, so the sorted
/// permutation is unique and both routes produce the same idx.
template <typename AttainedAt>
[[nodiscard]] Time setf_rates(std::size_t n, int machines, double speed,
                              double tol, const AttainedAt& attained,
                              std::vector<double>& rates,
                              SetfScratch& scratch, bool order_kept) {
  const auto less = [&](std::size_t a, std::size_t b) {
    if (attained(a) != attained(b)) return attained(a) < attained(b);
    return a < b;
  };
  auto& idx = scratch.idx;
  if (order_kept) {
    // Between events only the served low groups gain attained service and
    // admissions enter at attained 0, so the permutation is nearly sorted:
    // O(n + inversions).
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t v = idx[k];
      std::size_t j = k;
      for (; j > 0 && less(v, idx[j - 1]); --j) idx[j] = idx[j - 1];
      idx[j] = v;
    }
  } else {
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::sort(idx.begin(), idx.end(), less);
  }

  rates.assign(n, 0.0);

  // Walk groups of (approximately) equal attained service, granting machines.
  double machines_left = static_cast<double>(machines);
  std::size_t i = 0;
  auto& groups = scratch.groups;
  groups.clear();
  // Groups are built by chaining: job j joins the current group when its
  // attained service is within tolerance of its predecessor's.  (Comparing to
  // the group head instead would split groups spuriously right after two
  // groups merge, forcing the engine into tiny catch-up steps.)
  auto group_end = [&](std::size_t start) {
    std::size_t j = start + 1;
    while (j < n &&
           approx_equal(attained(idx[j]), attained(idx[j - 1]), tol, tol)) {
      ++j;
    }
    return j;
  };

  while (i < n && machines_left > 0.0) {
    const double level = attained(idx[i]);
    const std::size_t j = group_end(i);
    const double group_size = static_cast<double>(j - i);
    const double per_job = speed * std::min(1.0, machines_left / group_size);
    for (std::size_t g = i; g < j; ++g) rates[idx[g]] = per_job;
    machines_left -= (per_job / speed) * group_size;
    groups.push_back(SetfScratch::Group{per_job, level});
    i = j;
  }
  scratch.served = i;
  // The first zero-rate group (if any) still bounds the catch-up breakpoint
  // through its level.  Groups past it pair two zero rates, which never
  // close, so they cannot move the breakpoint and are not walked.
  if (i < n) groups.push_back(SetfScratch::Group{0.0, attained(idx[i])});

  // Breakpoint: the earliest time a faster lower group catches the level of
  // the group above it (their rates then change as the groups merge).
  Time breakpoint = kInfiniteTime;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    const double closing = groups[g].rate - groups[g + 1].rate;
    if (closing > kAbsEps) {
      const double gap = groups[g + 1].level - groups[g].level;
      breakpoint = std::min(breakpoint, std::max(gap, 0.0) / closing);
    }
  }
  if (breakpoint <= 0.0) breakpoint = kAbsEps;  // merged this instant; take a tiny step
  return breakpoint;
}

/// LAPS(beta) (policies/priority_policies.h): the ceil(beta*n)
/// latest-arriving jobs split the machines equally, capped at one machine
/// each.  `release(i)` reads job i's release time over the id-sorted alive
/// set.  Fills `rates` (id order) and idx[0, ceil(beta*n)) with the sharing
/// jobs, latest first, and returns their count; LAPS is event-driven only,
/// so there is no breakpoint.
///
/// `release_monotone` promises release(i) <= release(i + 1) for all i.  The
/// latest-first order (release descending, id descending) is then the
/// reverse index order, so the sharing set is the index suffix and no
/// selection runs.
template <typename ReleaseAt>
std::size_t laps_rates(std::size_t n, int machines, double speed, double beta,
                       const ReleaseAt& release, bool release_monotone,
                       std::vector<double>& rates,
                       std::vector<std::size_t>& idx) {
  const std::size_t share_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(beta * static_cast<double>(n))));

  idx.resize(n);
  if (release_monotone) {
    for (std::size_t i = 0; i < share_count; ++i) idx[i] = n - 1 - i;
  } else {
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::partial_sort(idx.begin(),
                      idx.begin() + static_cast<std::ptrdiff_t>(share_count),
                      idx.end(), [&](std::size_t a, std::size_t b) {
                        if (release(a) != release(b)) {
                          return release(a) > release(b);
                        }
                        return a > b;
                      });
  }

  const double rate =
      speed * std::min(1.0, static_cast<double>(machines) /
                                static_cast<double>(share_count));
  rates.assign(n, 0.0);
  for (std::size_t i = 0; i < share_count; ++i) rates[idx[i]] = rate;
  return share_count;
}

/// MLFQ level threshold T_level = base * growth^level (policies/mlfq.h).
[[nodiscard]] inline double mlfq_threshold(double base, double growth,
                                           int level) noexcept {
  return base * std::pow(growth, level);
}

/// The smallest level l >= `from` with attained < T_l.  Thresholds grow
/// with l, so this is the job's level -- the number of thresholds it has
/// passed -- whenever `from` does not exceed it.
[[nodiscard]] inline int mlfq_level_from(double base, double growth,
                                         double attained, int from) noexcept {
  int l = from;
  while (attained >= mlfq_threshold(base, growth, l)) ++l;
  return l;
}

/// Level of a job with attained service `attained`, from scratch: the log
/// estimate, less one to absorb its rounding at exact threshold values,
/// is a floor for the true level.
[[nodiscard]] inline int mlfq_level_of(double base, double growth,
                                       double attained) noexcept {
  if (attained < base) return 0;
  const int lvl =
      static_cast<int>(std::floor(std::log(attained / base) /
                                  std::log(growth))) + 1;
  return mlfq_level_from(base, growth, attained, std::max(lvl - 1, 0));
}

/// MLFQ (policies/mlfq.h): the m alive jobs of lexicographically least
/// (level, release, id) run at full speed -- FCFS within a level -- and the
/// breakpoint fires when a running job crosses into the next level.
/// `level(i)` must equal mlfq_level_of(base, growth, attained(i)) and
/// `threshold(i)` mlfq_threshold(base, growth, level(i)); the policy
/// computes both per query, the kernel keeps them as a column.  Fills
/// `rates` (id order) and idx[0, min(n, m)) with the running jobs, and
/// returns the breakpoint.
template <typename LevelAt, typename ThresholdAt, typename AttainedAt,
          typename ReleaseAt>
[[nodiscard]] Time mlfq_rates(std::size_t n, int machines, double speed,
                              const LevelAt& level,
                              const ThresholdAt& threshold,
                              const AttainedAt& attained,
                              const ReleaseAt& release,
                              std::vector<double>& rates,
                              std::vector<std::size_t>& idx) {
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const std::size_t run =
      std::min<std::size_t>(n, static_cast<std::size_t>(machines));
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(run),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (level(a) != level(b)) return level(a) < level(b);
                      if (release(a) != release(b)) {
                        return release(a) < release(b);
                      }
                      return a < b;
                    });

  rates.assign(n, 0.0);
  Time breakpoint = kInfiniteTime;
  for (std::size_t i = 0; i < run; ++i) {
    const std::size_t a = idx[i];
    rates[a] = speed;
    // Re-query when this job crosses into the next level (it may then be
    // preempted by a lower-level waiter).
    const double to_demotion = threshold(a) - attained(a);
    if (to_demotion > 0.0) {
      breakpoint = std::min(breakpoint, to_demotion / speed);
    }
  }
  if (breakpoint <= 0.0) breakpoint = kAbsEps;
  return breakpoint;
}

}  // namespace tempofair::share_rules
