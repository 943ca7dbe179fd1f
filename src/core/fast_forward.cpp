// FastForwardCore: the epoch-coalescing kernel (see core/fast_forward.h).
//
// Byte-identity with the generic loop rests on three facts about IEEE-754
// round-to-nearest arithmetic, all used below:
//
//   F1. Division is monotone in the numerator, so
//           min_i (rem_i / share) == (min_i rem_i) / share
//       bitwise: the kernel reads the earliest completion off one end of
//       one sorted structure instead of dividing per alive job.
//   F2. Subtracting the same rounded delta from every element preserves
//       weak ordering (x <= y implies fl(x - d) <= fl(y - d)), so the
//       sorted-by-remaining order survives every uniform advance and is
//       maintained incrementally, never re-sorted.
//   F3. x - fl(0 * dt) == x exactly for x > 0, so jobs at rate zero can be
//       skipped during the advance without changing their stored bits.
//
// What the kernel does NOT do is compress the per-event remaining-work
// update itself: a chain of individually rounded subtractions has no closed
// form that reproduces the same bits, so the advance stays O(alive) per
// event.  The win is structural -- no policy virtual call, no RateDecision
// allocation, no rate validation pass, no completion-candidate scan, no
// policy-facing view maintenance per event -- plus the streaming arrival
// path that never materializes the instance.
//
// Data layout (kUniformShare): the remaining-sorted order is the PRIMARY
// storage -- three parallel arrays (ord_rem_, ord_thr_, order_) sorted by
// remaining work DESCENDING, so the next completer sits at the back, the
// advance is one fused contiguous loop, and completions pop off the end
// with no memmove.  The id-sorted alive list (ids_) is maintained only
// when a trace is recorded, since trace rows are the only consumer; a
// trace-off RR run touches no id-sorted state at all.  kTopPriority and
// kWeightedShare keep the id-sorted arrays primary (their rates/trace
// rows are per-job anyway) with order_ as an id-indirected priority order.
//
// The shared-rule kinds (SETF, LAPS, MLFQ; core/share_rules.h) carry
// incremental state across events instead of re-deriving it from the whole
// alive set, each piece a cache of exactly what the rule would recompute:
// MLFQ's level column (refreshed only for positive-rate jobs, by F3), SETF's
// (attained, index)-sorted permutation (repaired by insertion; the order is
// strict and total, so the repaired permutation is the sorted one), and
// LAPS's release-descent count (zero means releases are monotone in id
// order, so the latest arrivals are the index suffix).  Each rule reports
// its positive-rate jobs, and the min-ratio, advance and completion passes
// run over those only: by F3 every other job keeps its bits.
//
// Completion detection is exact, not windowed: after an advance the kernel
// tests `rem <= kRelEps*size + kAbsEps` -- the generic loop's final test --
// directly.  Scanning from the front of the sorted order and stopping at
// the first job with rem > kRelEps*max_size + kAbsEps covers every possible
// completer, because a job passing its own threshold necessarily has
// rem <= kRelEps*max_size + kAbsEps (sizes never exceed the running max).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/share_rules.h"
#include "obs/obs.h"

namespace tempofair {

namespace {

[[noreturn]] void engine_fail(const std::string& msg) {
  throw std::runtime_error("tempofair::run: " + msg);
}

void validate_descriptor(const FastForward& ff, std::string_view policy_name) {
  switch (ff.kind) {
    case FastForwardKind::kNone:
      throw std::invalid_argument("fast_forward: policy " +
                                  std::string(policy_name) +
                                  " has no FastForward capability");
    case FastForwardKind::kUniformShare:
      if (ff.uniform_share == nullptr) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kUniformShare without a uniform_share function");
      }
      break;
    case FastForwardKind::kWeightedShare:
      if (ff.weighted_rates == nullptr) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kWeightedShare without a weighted_rates function");
      }
      break;
    case FastForwardKind::kTopPriority:
      break;
    case FastForwardKind::kQuantumRR:
      if (!(ff.quantum > 0.0) || !std::isfinite(ff.quantum)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kQuantumRR with a non-positive quantum");
      }
      if (ff.switch_cost < 0.0 || !std::isfinite(ff.switch_cost)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kQuantumRR with a negative switch cost");
      }
      break;
    case FastForwardKind::kEqualAttained:
      if (!(ff.level_tolerance >= 0.0) || !std::isfinite(ff.level_tolerance)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kEqualAttained with a negative or non-finite "
            "level tolerance");
      }
      break;
    case FastForwardKind::kLatestArrival:
      if (!(ff.beta > 0.0) || ff.beta > 1.0) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLatestArrival with beta outside (0, 1]");
      }
      break;
    case FastForwardKind::kLevelPriority:
      if (!(ff.mlfq_base > 0.0) || !std::isfinite(ff.mlfq_base)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLevelPriority with a non-positive base quantum");
      }
      if (!(ff.mlfq_growth > 1.0) || !std::isfinite(ff.mlfq_growth)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLevelPriority with growth <= 1");
      }
      break;
  }
}

// Pull-based arrival cursors; both expose the same tiny interface so
// run_impl is generic over materialized and streaming sources.
class InstanceArrivals {
 public:
  explicit InstanceArrivals(const Instance& instance)
      : instance_(&instance), order_(instance.release_order()) {
    if (!order_.empty()) ahead_release_ = instance.job(order_[0]).release;
  }

  [[nodiscard]] bool exhausted() const { return next_ == order_.size(); }
  // The next release is cached at take() time: the kernel peeks it at least
  // twice per event (the dt min and the admit loop), and each uncached peek
  // is a bounds-checked Instance::job() lookup.
  [[nodiscard]] Time peek_release() const { return ahead_release_; }
  [[nodiscard]] Job take() {
    const Job j = instance_->job(order_[next_++]);
    if (next_ < order_.size()) {
      ahead_release_ = instance_->job(order_[next_]).release;
    }
    return j;
  }
  [[nodiscard]] std::size_t total() const { return order_.size(); }

 private:
  const Instance* instance_;
  std::span<const JobId> order_;
  std::size_t next_ = 0;
  Time ahead_release_ = 0.0;
};

class StreamArrivals {
 public:
  explicit StreamArrivals(JobStream& stream)
      : stream_(&stream), count_(stream.n()) {
    if (count_ > 0) ahead_ = fetch(0);
  }

  [[nodiscard]] bool exhausted() const { return taken_ == count_; }
  [[nodiscard]] Time peek_release() const { return ahead_.release; }
  [[nodiscard]] Job take() {
    const Job j = ahead_;
    ++taken_;
    if (taken_ < count_) ahead_ = fetch(taken_);
    return j;
  }
  [[nodiscard]] std::size_t total() const { return count_; }

 private:
  // Enforce contract S2 (core/job_stream.h) at the boundary: a generator bug
  // must fail loudly, not silently corrupt a million-job run.
  [[nodiscard]] Job fetch(std::size_t i) {
    const Job j = stream_->next();
    if (j.id != static_cast<JobId>(i)) {
      throw std::invalid_argument(
          "JobStream: call " + std::to_string(i) + " yielded id " +
          std::to_string(j.id) + "; ids must be dense and sequential (S2)");
    }
    if (!std::isfinite(j.release) || j.release < 0.0 ||
        j.release < prev_release_) {
      throw std::invalid_argument(
          "JobStream: job " + std::to_string(i) +
          " release is negative, non-finite, or decreasing (S2)");
    }
    if (!(j.size > 0.0) || !std::isfinite(j.size) || !(j.weight > 0.0) ||
        !std::isfinite(j.weight)) {
      throw std::invalid_argument(
          "JobStream: job " + std::to_string(i) +
          " must have positive finite size and weight (S2)");
    }
    prev_release_ = j.release;
    return j;
  }

  JobStream* stream_;
  std::size_t count_;
  std::size_t taken_ = 0;
  Job ahead_{};
  Time prev_release_ = 0.0;
};

}  // namespace

Schedule FastForwardCore::run(const Instance& instance, const FastForward& ff,
                              const RunRequest& request,
                              std::string_view policy_name,
                              const PolicyInvariantTraits& traits,
                              InvariantStats& inv_stats) {
  validate_descriptor(ff, policy_name);
  InstanceArrivals arrivals(instance);
  return run_impl(arrivals, Schedule(instance, request.machines, request.speed),
                  ff, request, policy_name, traits, inv_stats);
}

Schedule FastForwardCore::run(JobStream& stream, const FastForward& ff,
                              const RunRequest& request,
                              std::string_view policy_name,
                              const PolicyInvariantTraits& traits,
                              InvariantStats& inv_stats) {
  validate_descriptor(ff, policy_name);
  StreamArrivals arrivals(stream);
  return run_impl(arrivals,
                  Schedule(arrivals.total(), request.machines, request.speed),
                  ff, request, policy_name, traits, inv_stats);
}

template <typename Arrivals>
Schedule FastForwardCore::run_impl(Arrivals& arrivals, Schedule schedule,
                                   const FastForward& ff,
                                   const RunRequest& request,
                                   std::string_view policy_name,
                                   const PolicyInvariantTraits& traits,
                                   InvariantStats& inv_stats) {
  obs::ScopedTimer run_timer("engine.run");
  schedule.set_trace_recorded(request.record_trace);

  const std::size_t total_jobs = arrivals.total();
  LiveMetrics* const live = request.live;
  if (live != nullptr) live->set_expected(total_jobs);

  inv_.begin_run(
      InvariantRunProfile{request.machines, request.speed,
                          std::string(policy_name), traits},
      request.invariants, request.invariant_sample_period, &schedule);
  auto finish_invariants = [&] {
    inv_.finish();
    inv_stats = inv_.stats();
    if (request.invariants == InvariantMode::kExhaustive) {
      throw_if_violated(inv_.stats(), policy_name);
    }
  };

  if (arrivals.exhausted()) {
    finish_invariants();
    obs::add("engine.runs", 1);
    obs::add(obs_counters::kFastForwardRuns, 1);
    return schedule;
  }

  const int machines = request.machines;
  const double speed = request.speed;
  const bool trace = request.record_trace;
  const std::string name(policy_name);
  const FastForwardKind kind = ff.kind;

  ids_.clear();
  rem_.clear();
  size_.clear();
  release_.clear();
  weight_.clear();
  attained_.clear();
  order_.clear();
  level_.clear();
  setf_scratch_.idx.clear();
  ord_rem_.clear();
  ord_thr_.clear();
  rates_.clear();
  completing_.clear();
  degen_ids_.clear();
  rr_queue_.clear();

  // kQuantumRR: the replicated QuantumRoundRobin phase state (see
  // policies/quantum_rr.cpp -- every transition below mirrors its rates()
  // bit for bit, evaluated once per event exactly when the generic loop
  // would query the policy).
  enum class QPhase : std::uint8_t { kRunning, kSwitching };
  QPhase qphase = QPhase::kRunning;
  Time qphase_end = -kInfiniteTime;
  bool qphase_started = false;

  const bool uniform = ff.kind == FastForwardKind::kUniformShare;
  // The shared-rule kinds (core/share_rules.h): rates are a pure function
  // of the (attained, release) columns, evaluated per event by the very
  // template the policy's rates() instantiates.  All three keep the
  // id-sorted arrays primary plus the attained_ column.
  const bool rule_kind = kind == FastForwardKind::kEqualAttained ||
                         kind == FastForwardKind::kLatestArrival ||
                         kind == FastForwardKind::kLevelPriority;
  // kUniformShare keeps only the ord_* arrays hot; the id-sorted alive list
  // exists purely to emit id-ordered trace rows.
  const bool keep_ids = !uniform || request.record_trace;

  // Position of `id` in the id-sorted alive arrays.
  auto pos_of = [&](JobId id) -> std::size_t {
    return static_cast<std::size_t>(
        std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
  };

  // kTopPriority: the exact strict weak order the policy's rates() sorts by,
  // tie-breaks included (fast_forward.h, FastForwardPriority).
  auto prio_less = [&](std::size_t a, std::size_t b) {
    if (ff.priority == FastForwardPriority::kRemainingThenReleaseThenId &&
        rem_[a] != rem_[b]) {
      return rem_[a] < rem_[b];
    }
    if (ff.priority == FastForwardPriority::kSizeThenReleaseThenId &&
        size_[a] != size_[b]) {
      return size_[a] < size_[b];
    }
    if (release_[a] != release_[b]) return release_[a] < release_[b];
    return ids_[a] < ids_[b];
  };

  // Jobs whose size is already under the completion threshold can complete
  // at rate zero (the generic loop's zero-rate candidate branch); while any
  // is alive, completion scans must cover the whole alive set, not just the
  // sorted front / running prefix.
  std::size_t degenerate_alive = 0;
  Work max_size_admitted = 0.0;

  // Incremental shared-rule state (see the file comment), kept in step with
  // the id-sorted columns: rule_admitted(p) runs after a job entered them at
  // position p, rule_erasing(p) before the job at p leaves them.
  // kLatestArrival counts adjacent pairs whose release decreases in id
  // order; on a stream (S2) it stays zero.
  std::size_t release_descents = 0;
  auto descends = [&](std::size_t a, std::size_t b) -> std::size_t {
    return release_[a] > release_[b] ? 1 : 0;
  };
  auto rule_admitted = [&](std::size_t p) {
    const std::size_t n = ids_.size();
    if (kind == FastForwardKind::kLevelPriority) {
      const int level =
          share_rules::mlfq_level_of(ff.mlfq_base, ff.mlfq_growth, 0.0);
      level_.insert(level_.begin() + static_cast<std::ptrdiff_t>(p),
                    MlfqLevel{level, share_rules::mlfq_threshold(
                                         ff.mlfq_base, ff.mlfq_growth, level)});
    } else if (kind == FastForwardKind::kLatestArrival) {
      if (p > 0 && p + 1 < n) release_descents -= descends(p - 1, p + 1);
      if (p > 0) release_descents += descends(p - 1, p);
      if (p + 1 < n) release_descents += descends(p, p + 1);
    } else if (kind == FastForwardKind::kEqualAttained) {
      // At attained 0 the job belongs at the front; setf_rates' insertion
      // pass moves it behind any lower-index job also at 0.
      auto& idx = setf_scratch_.idx;
      for (std::size_t& e : idx) e += e >= p ? 1 : 0;
      idx.insert(idx.begin(), p);
    }
  };
  auto rule_erasing = [&](std::size_t p) {
    const std::size_t n = ids_.size();
    if (kind == FastForwardKind::kLevelPriority) {
      level_.erase(level_.begin() + static_cast<std::ptrdiff_t>(p));
    } else if (kind == FastForwardKind::kLatestArrival) {
      if (p > 0) release_descents -= descends(p - 1, p);
      if (p + 1 < n) release_descents -= descends(p, p + 1);
      if (p > 0 && p + 1 < n) release_descents += descends(p - 1, p + 1);
    } else if (kind == FastForwardKind::kEqualAttained) {
      auto& idx = setf_scratch_.idx;
      idx.erase(std::find(idx.begin(), idx.end(), p));
      for (std::size_t& e : idx) e -= e > p ? 1 : 0;
    }
  };

  auto admit_arrivals = [&](Time t) -> std::size_t {
    std::size_t admitted = 0;
    while (!arrivals.exhausted() && arrivals.peek_release() <= t + kAbsEps) {
      const Job j = arrivals.take();
      schedule.admit_job(j.id, j.release, j.size, j.weight);
      if (keep_ids) {
        const auto p = static_cast<std::ptrdiff_t>(pos_of(j.id));
        ids_.insert(ids_.begin() + p, j.id);
        if (!uniform) {
          rem_.insert(rem_.begin() + p, j.size);
          size_.insert(size_.begin() + p, j.size);
          release_.insert(release_.begin() + p, j.release);
          weight_.insert(weight_.begin() + p, j.weight);
          if (rule_kind) {
            attained_.insert(attained_.begin() + p, 0.0);
            rule_admitted(static_cast<std::size_t>(p));
          }
        }
      }
      max_size_admitted = std::max(max_size_admitted, j.size);
      const Work thr = kRelEps * j.size + kAbsEps;
      if (j.size <= thr) {
        ++degenerate_alive;
        degen_ids_.push_back(j.id);
      }
      if (uniform) {
        // Descending by current remaining work (the arriving job's remaining
        // is its size), so the next completer sits at the back.  Ties
        // resolve arbitrarily -- completion detection tests exact
        // thresholds, never positions.
        const auto it =
            std::lower_bound(ord_rem_.begin(), ord_rem_.end(), j.size,
                             [](Work r, Work v) { return r > v; });
        const auto off = it - ord_rem_.begin();
        ord_rem_.insert(it, j.size);
        ord_thr_.insert(ord_thr_.begin() + off, thr);
        order_.insert(order_.begin() + off, j.id);
      } else if (kind == FastForwardKind::kTopPriority) {
        const auto it = std::lower_bound(
            order_.begin(), order_.end(), j.id, [&](JobId a, JobId b) {
              return prio_less(pos_of(a), pos_of(b));
            });
        order_.insert(it, j.id);
      } else if (kind == FastForwardKind::kQuantumRR) {
        rr_queue_.push_back(j.id);  // mirrors QuantumRoundRobin::on_arrival
      }
      ++admitted;
    }
    return admitted;
  };

  // Alive count, whichever layout this kind maintains.
  auto alive_count = [&]() -> std::size_t {
    return uniform ? ord_rem_.size() : ids_.size();
  };

  Time now = arrivals.peek_release();
  admit_arrivals(now);

  std::size_t steps = 0;
  std::size_t zero_progress_streak = 0;
  std::size_t intervals_emitted = 0;
  std::size_t ff_events = 0;
  std::size_t ff_epochs = 0;
  bool epoch_open = false;
  std::vector<double> wrates;  // kWeightedShare per-event rates, id order

  while (alive_count() > 0 || !arrivals.exhausted()) {
    if (request.cancel != nullptr &&
        request.cancel->load(std::memory_order_relaxed)) {
      throw RunCancelled("tempofair::run: cancelled with policy " + name +
                         " at t=" + std::to_string(now));
    }
    if (++steps > request.max_steps) {
      engine_fail("exceeded max_steps=" + std::to_string(request.max_steps) +
                  " with policy " + name);
    }

    if (alive_count() == 0) {
      // Idle gap: jump to the next arrival.
      now = arrivals.peek_release();
      admit_arrivals(now);
      epoch_open = false;
      continue;
    }

    const std::size_t n = alive_count();
    if (!epoch_open) {
      ++ff_epochs;
      epoch_open = true;
    }
    ++ff_events;

    // --- closed-form rates and earliest predicted completion --------------
    // The generic loop's clamp_nonneg/min(r, speed) post-processing is an
    // identity on every rate these rules produce (all nonnegative, none
    // above speed), so the raw closed-form values are already the bits the
    // slow path would use.
    double share = 0.0;            // kUniformShare
    std::size_t run_count = 0;     // kTopPriority / kQuantumRR
    bool qrr_all = false;          // kQuantumRR: n <= m, everyone runs
    // kQuantumRR quantum/switch expiry; kEqualAttained/kLevelPriority
    // shared-rule breakpoint (the policy's RateDecision::max_duration).
    Time breakpoint_dt = kInfiniteTime;
    Time completion_dt = kInfiniteTime;
    // Shared-rule kinds: the alive indices the rule gave a positive rate
    // (SETF's served groups, LAPS's sharing set, MLFQ's running set).
    std::span<const std::size_t> active;
    switch (kind) {
      case FastForwardKind::kUniformShare:
        share = ff.uniform_share(n, machines, speed);
        // F1: the minimum of rem/share over the alive set is the back of
        // the descending remaining order, divided once.
        completion_dt = ord_rem_.back() / share;
        break;
      case FastForwardKind::kTopPriority:
        run_count = std::min(n, static_cast<std::size_t>(machines));
        for (std::size_t i = 0; i < run_count; ++i) {
          const Time cdt = rem_[pos_of(order_[i])] / speed;
          if (cdt < completion_dt) completion_dt = cdt;
        }
        break;
      case FastForwardKind::kWeightedShare:
        wrates = ff.weighted_rates(weight_, machines, speed);
        if (wrates.size() != n) {
          engine_fail("fast_forward: weighted_rates returned " +
                      std::to_string(wrates.size()) + " rates for " +
                      std::to_string(n) + " alive jobs");
        }
        // Zero-weight shares divide to +inf (rem > 0) and drop out of the
        // min, so no positive-rate guard is needed.
        for (std::size_t i = 0; i < n; ++i) {
          const Time cdt = rem_[i] / wrates[i];
          if (cdt < completion_dt) completion_dt = cdt;
        }
        break;
      case FastForwardKind::kQuantumRR: {
        const auto m = static_cast<std::size_t>(machines);
        if (n <= m) {
          // Everyone runs continuously; quanta do not apply.
          qphase = QPhase::kRunning;
          qphase_started = false;
          qrr_all = true;
          run_count = n;
          for (std::size_t i = 0; i < n; ++i) {
            const Time cdt = rem_[i] / speed;
            if (cdt < completion_dt) completion_dt = cdt;
          }
          break;  // no breakpoint: max_duration stays infinite
        }
        // Expired phase: rotate after a quantum, resume after a switch.
        if (qphase_started && now >= qphase_end - kAbsEps) {
          if (qphase == QPhase::kRunning) {
            const std::size_t rotate = std::min(m, rr_queue_.size());
            for (std::size_t i = 0; i < rotate; ++i) {
              rr_queue_.push_back(rr_queue_.front());
              rr_queue_.pop_front();
            }
            if (ff.switch_cost > 0.0) {
              qphase = QPhase::kSwitching;
              qphase_end = now + ff.switch_cost;
            } else {
              qphase_end = now + ff.quantum;
            }
          } else {
            qphase = QPhase::kRunning;
            qphase_end = now + ff.quantum;
          }
        } else if (!qphase_started) {
          qphase = QPhase::kRunning;
          qphase_end = now + ff.quantum;
          qphase_started = true;
        }
        if (qphase == QPhase::kRunning) {
          run_count = std::min(m, rr_queue_.size());
          for (std::size_t i = 0; i < run_count; ++i) {
            const Time cdt = rem_[pos_of(rr_queue_[i])] / speed;
            if (cdt < completion_dt) completion_dt = cdt;
          }
        }  // kSwitching: all machines idle, run_count stays 0
        breakpoint_dt = std::max(qphase_end - now, kAbsEps);
        break;
      }
      // The shared-rule kinds evaluate the policy's exact rule body
      // (core/share_rules.h) over the kernel's own columns and incremental
      // state -- identical floating-point program, so identical rates and
      // breakpoints -- then take the earliest completion as the generic
      // loop does: min over positive-rate jobs of rem/rate.  Only the
      // active jobs are visited: a rate-zero job's rem/rate is +inf
      // (rem > 0), which cannot win the min.
      case FastForwardKind::kEqualAttained:
        breakpoint_dt = share_rules::setf_rates(
            n, machines, speed, ff.level_tolerance,
            [this](std::size_t i) { return attained_[i]; }, rates_,
            setf_scratch_, /*order_kept=*/true);
        active = {setf_scratch_.idx.data(), setf_scratch_.served};
        break;
      case FastForwardKind::kLatestArrival: {
        const std::size_t sharing = share_rules::laps_rates(
            n, machines, speed, ff.beta,
            [this](std::size_t i) { return release_[i]; },
            release_descents == 0, rates_, rule_idx_);
        active = {rule_idx_.data(), sharing};
        break;
      }
      case FastForwardKind::kLevelPriority:
        breakpoint_dt = share_rules::mlfq_rates(
            n, machines, speed,
            [this](std::size_t i) { return level_[i].level; },
            [this](std::size_t i) { return level_[i].threshold; },
            [this](std::size_t i) { return attained_[i]; },
            [this](std::size_t i) { return release_[i]; }, rates_,
            rule_idx_);
        active = {rule_idx_.data(),
                  std::min(n, static_cast<std::size_t>(machines))};
        break;
      case FastForwardKind::kNone:
        engine_fail("fast path invoked without a FastForward capability");
    }
    for (const std::size_t a : active) {
      const Time cdt = rem_[a] / rates_[a];
      if (cdt < completion_dt) completion_dt = cdt;
    }

    // --- next event: arrival, completion, breakpoint, or max_time ---------
    Time dt = std::min(completion_dt, breakpoint_dt);
    if (!arrivals.exhausted()) {
      dt = std::min(dt, arrivals.peek_release() - now);
    }
    if (std::isfinite(request.max_time)) {
      if (now >= request.max_time) {
        engine_fail("simulated clock passed max_time");
      }
      dt = std::min(dt, request.max_time - now);
    }
    if (!std::isfinite(dt)) {
      engine_fail("deadlock: policy " + name + " allocates zero rate to all " +
                  std::to_string(n) +
                  " alive jobs with no arrival or breakpoint pending");
    }
    dt = std::max(dt, 0.0);
    const Time step_start = now;

    // --- advance, emitting the trace row before the clock moves -----------
    // The invariant battery sees the epoch before any remaining-work
    // mutation; epoch_due() is the only per-event cost it adds here.
    const bool inv_due = dt > 0.0 && inv_.epoch_due();
    auto check_id_epoch = [&](std::span<const double> epoch_rates) {
      InvariantEpoch epoch;
      epoch.begin = now;
      epoch.end = now + dt;
      epoch.jobs = ids_;
      epoch.rates = epoch_rates;
      epoch.remaining = rem_;
      epoch.sizes = size_;
      // The attained-tracking kernels expose their column so the
      // attained-accounting witness can audit it against size - remaining.
      if (rule_kind) epoch.attained = attained_;
      inv_.check_epoch(epoch);
    };
    if (dt > 0.0) {
      switch (kind) {
        case FastForwardKind::kUniformShare: {
          if (trace) {
            schedule.push_interval_uniform(now, now + dt, ids_, share);
            ++intervals_emitted;
          }
          if (inv_due) {
            InvariantEpoch epoch;
            epoch.begin = now;
            epoch.end = now + dt;
            epoch.jobs = order_;
            epoch.uniform = true;
            epoch.uniform_rate = share;
            epoch.remaining = ord_rem_;
            epoch.remaining_sorted_descending = true;
            inv_.check_epoch(epoch);
          }
          // One shared delta (every rate is the same double), one fused
          // contiguous pass; F2 keeps the descending order sorted through
          // it.  The pass is elementwise, so the compiler's vectorization
          // of it cannot change a bit.
          const Work delta = share * dt;
          for (Work& r : ord_rem_) r -= delta;
          break;
        }
        case FastForwardKind::kTopPriority: {
          if (trace || inv_due) {
            rates_.assign(n, 0.0);
            for (std::size_t i = 0; i < run_count; ++i) {
              rates_[pos_of(order_[i])] = speed;
            }
            if (inv_due) check_id_epoch(rates_);
            if (trace) {
              schedule.push_interval(now, now + dt, ids_, rates_);
              ++intervals_emitted;
            }
          }
          // F3: waiting jobs (rate 0) keep their bits untouched; only the
          // running prefix advances, so the priority order is preserved.
          const Work delta = speed * dt;
          for (std::size_t i = 0; i < run_count; ++i) {
            rem_[pos_of(order_[i])] -= delta;
          }
          break;
        }
        case FastForwardKind::kWeightedShare:
          if (inv_due) check_id_epoch(wrates);
          if (trace) {
            schedule.push_interval(now, now + dt, ids_, wrates);
            ++intervals_emitted;
          }
          for (std::size_t i = 0; i < n; ++i) rem_[i] -= wrates[i] * dt;
          break;
        case FastForwardKind::kQuantumRR: {
          if (trace || inv_due) {
            rates_.assign(n, qrr_all ? speed : 0.0);
            if (!qrr_all) {
              for (std::size_t i = 0; i < run_count; ++i) {
                rates_[pos_of(rr_queue_[i])] = speed;
              }
            }
            if (inv_due) check_id_epoch(rates_);
            if (trace) {
              // The generic loop emits rows even for all-idle switching
              // phases; so does the kernel.
              schedule.push_interval(now, now + dt, ids_, rates_);
              ++intervals_emitted;
            }
          }
          // F3 again: only the running set loses work.
          const Work delta = speed * dt;
          if (qrr_all) {
            for (Work& r : rem_) r -= delta;
          } else {
            for (std::size_t i = 0; i < run_count; ++i) {
              rem_[pos_of(rr_queue_[i])] -= delta;
            }
          }
          break;
        }
        case FastForwardKind::kEqualAttained:
        case FastForwardKind::kLatestArrival:
        case FastForwardKind::kLevelPriority:
          if (inv_due) check_id_epoch(rates_);
          if (trace) {
            schedule.push_interval(now, now + dt, ids_, rates_);
            ++intervals_emitted;
          }
          // The generic loop's exact per-job advance (delta = rate * dt,
          // attained += delta, remaining -= delta) over the active jobs;
          // rate-zero jobs would keep their bits anyway (F3).  Attained
          // service moved only here, so only these levels can change, and
          // only upward: a job below its cached threshold keeps its level,
          // and one at or past it climbs from the next level up.
          for (const std::size_t a : active) {
            const Work delta = rates_[a] * dt;
            attained_[a] += delta;
            rem_[a] -= delta;
          }
          if (kind == FastForwardKind::kLevelPriority) {
            for (const std::size_t a : active) {
              MlfqLevel& l = level_[a];
              if (attained_[a] < l.threshold) continue;
              l.level = share_rules::mlfq_level_from(
                  ff.mlfq_base, ff.mlfq_growth, attained_[a], l.level + 1);
              l.threshold = share_rules::mlfq_threshold(
                  ff.mlfq_base, ff.mlfq_growth, l.level);
            }
          }
          break;
        case FastForwardKind::kNone:
          break;  // unreachable; rejected above
      }
      now += dt;
    }

    // --- completions: exact threshold test, same as the generic loop ------
    completing_.clear();
    if (uniform) {
      // Scan backward (ascending remaining).  A completer satisfies
      // rem <= its own threshold; the scan may stop at the first job with
      // rem > kRelEps*max_size + kAbsEps, since every per-job threshold is
      // bounded by that window.  With a degenerate job alive the window
      // argument does not apply (rate-zero jobs complete too), so scan all.
      std::size_t lo = ord_rem_.size();
      const Work window = kRelEps * max_size_admitted + kAbsEps;
      while (lo > 0) {
        const std::size_t i = lo - 1;
        if (ord_rem_[i] > ord_thr_[i] && ord_rem_[i] > window &&
            degenerate_alive == 0) {
          break;
        }
        --lo;
      }
      // Compact the scanned suffix in place, completing as we go.
      std::size_t w = lo;
      for (std::size_t i = lo; i < ord_rem_.size(); ++i) {
        if (ord_rem_[i] <= ord_thr_[i]) {
          completing_.push_back(order_[i]);
        } else {
          ord_rem_[w] = ord_rem_[i];
          ord_thr_[w] = ord_thr_[i];
          order_[w] = order_[i];
          ++w;
        }
      }
      ord_rem_.resize(w);
      ord_thr_.resize(w);
      order_.resize(w);
      for (const JobId id : completing_) {
        schedule.set_completion(id, now);
        if (live != nullptr) live->record(now - schedule.release(id));
        if (keep_ids) ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(pos_of(id)));
      }
    } else {
      std::size_t order_scan_end = 0;  // prefix of order_ the scan covered
      if (degenerate_alive > 0 || kind == FastForwardKind::kWeightedShare ||
          (kind == FastForwardKind::kQuantumRR && qrr_all)) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rem_[i] <= kRelEps * size_[i] + kAbsEps) {
            completing_.push_back(ids_[i]);
          }
        }
        order_scan_end = order_.size();
      } else if (rule_kind) {
        // Only the active jobs lost work; completions are recorded in id
        // order, as a full scan would find them.
        for (const std::size_t a : active) {
          if (rem_[a] <= kRelEps * size_[a] + kAbsEps) {
            completing_.push_back(ids_[a]);
          }
        }
        std::sort(completing_.begin(), completing_.end());
      } else if (kind == FastForwardKind::kQuantumRR) {
        // Only the running queue prefix lost work (none while switching).
        for (std::size_t i = 0; i < run_count; ++i) {
          const std::size_t p = pos_of(rr_queue_[i]);
          if (rem_[p] <= kRelEps * size_[p] + kAbsEps) {
            completing_.push_back(rr_queue_[i]);
          }
        }
      } else {  // kTopPriority: only running jobs lose work
        for (std::size_t i = 0; i < run_count; ++i) {
          const std::size_t p = pos_of(order_[i]);
          if (rem_[p] <= kRelEps * size_[p] + kAbsEps) {
            completing_.push_back(order_[i]);
          }
        }
        order_scan_end = run_count;
      }

      if (!completing_.empty()) {
        if (kind == FastForwardKind::kQuantumRR) {
          // Mirrors QuantumRoundRobin::on_completion: the job may sit
          // anywhere in the queue (front if it was running).
          for (const JobId id : completing_) {
            const auto it =
                std::find(rr_queue_.begin(), rr_queue_.end(), id);
            if (it != rr_queue_.end()) rr_queue_.erase(it);
          }
        } else if (kind == FastForwardKind::kTopPriority) {
          const auto scan_end =
              order_.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(order_scan_end, order_.size()));
          order_.erase(
              std::remove_if(order_.begin(), scan_end,
                             [&](JobId id) {
                               return std::find(completing_.begin(),
                                                completing_.end(),
                                                id) != completing_.end();
                             }),
              scan_end);
        }
        for (const JobId id : completing_) {
          schedule.set_completion(id, now);
          if (live != nullptr) live->record(now - schedule.release(id));
          const auto p = static_cast<std::ptrdiff_t>(pos_of(id));
          if (rule_kind) rule_erasing(static_cast<std::size_t>(p));
          ids_.erase(ids_.begin() + p);
          rem_.erase(rem_.begin() + p);
          size_.erase(size_.begin() + p);
          release_.erase(release_.begin() + p);
          weight_.erase(weight_.begin() + p);
          if (rule_kind) attained_.erase(attained_.begin() + p);
        }
      }
    }
    if (degenerate_alive > 0 && !completing_.empty()) {
      // Sole owner of the degenerate count: every branch above defers the
      // decrement here.  Degenerate jobs are rare enough that linear
      // membership only ever runs while one is alive.
      for (const JobId id : completing_) {
        const auto it = std::find(degen_ids_.begin(), degen_ids_.end(), id);
        if (it != degen_ids_.end()) {
          degen_ids_.erase(it);
          --degenerate_alive;
        }
      }
    }

    const std::size_t admitted = admit_arrivals(now);
    if (admitted > 0) epoch_open = false;

    // Livelock guard, mirrored from the generic loop.  With closed-form
    // rates a zero-progress event is essentially unreachable (every alive
    // job has remaining > kAbsEps and some rate is positive), but the guard
    // stays so a latent bug fails with a diagnostic instead of burning
    // max_steps.
    if (now > step_start || !completing_.empty() || admitted > 0) {
      zero_progress_streak = 0;
    } else if (++zero_progress_streak >= request.max_zero_progress_steps) {
      engine_fail("livelock: " + std::to_string(zero_progress_streak) +
                  " consecutive zero-progress fast-path events (no clock "
                  "advance, completion, or arrival) with policy " +
                  name + " at t=" + std::to_string(now) + " with " +
                  std::to_string(alive_count()) + " alive jobs");
    }
  }

  finish_invariants();

  obs::add("engine.runs", 1);
  obs::add("engine.events", steps);
  obs::add("engine.jobs", total_jobs);
  obs::add("engine.trace_intervals", intervals_emitted);
  obs::add(obs_counters::kFastForwardRuns, 1);
  obs::add(obs_counters::kFastForwardEvents, ff_events);
  obs::add(obs_counters::kFastForwardEpochs, ff_epochs);
  return schedule;
}

}  // namespace tempofair
