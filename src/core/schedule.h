// Schedule: the complete record of one simulated run.
//
// A run of the engine produces, per job, its completion time (hence flow
// time), and optionally the full piecewise-constant rate trace: a sequence of
// half-open intervals [begin, end) during which the alive set and all rates
// are constant.  Every analysis in this library -- l_k norms, fairness
// curves, and the paper's dual-fitting construction -- is computed from this
// trace in closed form, without sampling.
//
// The trace lives in a columnar TraceArena (see core/trace_arena.h) and is
// consumed through zero-copy views: TraceIntervalView for interval-major
// scans and JobTraceView for per-job slicing.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/time_types.h"
#include "core/trace_arena.h"

namespace tempofair {

class Schedule {
 public:
  Schedule() = default;
  Schedule(const Instance& instance, int machines, double speed);
  /// Streaming construction: sizes the per-job columns for `n` jobs whose
  /// facts arrive later via admit_job (the engine's JobStream path).
  Schedule(std::size_t n, int machines, double speed);

  // --- mutation (used by the engine) ---------------------------------------
  /// Records the release/size/weight of job `id` (streaming runs, where no
  /// Instance exists at construction time).
  void admit_job(JobId id, Time release, Work size, double weight);
  void set_completion(JobId id, Time t);
  /// Appends one trace interval row; `jobs` and `rates` are parallel and
  /// sorted by job id.  Zero-length intervals carry no info and are dropped.
  void push_interval(Time begin, Time end, std::span<const JobId> jobs,
                     std::span<const double> rates);
  /// Appends one uniform-rate row: every job in `jobs` runs at `rate`.
  /// Stores exactly what push_interval would for an all-equal rate vector,
  /// without materializing it.
  void push_interval_uniform(Time begin, Time end, std::span<const JobId> jobs,
                             double rate);
  /// Convenience for hand-built traces (tests).
  void push_interval(Time begin, Time end,
                     std::initializer_list<RateShare> shares);
  /// Switches trace recording on or off.  Switching it on sizes the trace
  /// columns once for n() jobs (see schedule.cpp for the bound).
  void set_trace_recorded(bool recorded);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] std::size_t n() const noexcept { return completion_.size(); }
  [[nodiscard]] int machines() const noexcept { return machines_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }

  [[nodiscard]] Time release(JobId id) const { return release_.at(id); }
  [[nodiscard]] Work size(JobId id) const { return size_.at(id); }
  [[nodiscard]] double weight(JobId id) const { return weight_.at(id); }
  /// All job releases, indexed by job id.
  [[nodiscard]] std::span<const Time> releases() const noexcept {
    return release_;
  }
  /// All job sizes, indexed by job id.
  [[nodiscard]] std::span<const Work> sizes() const noexcept { return size_; }
  /// All job weights, indexed by job id.
  [[nodiscard]] std::span<const double> weights() const noexcept {
    return weight_;
  }
  [[nodiscard]] Time completion(JobId id) const { return completion_.at(id); }
  /// All job completions, indexed by job id.
  [[nodiscard]] std::span<const Time> completions() const noexcept {
    return completion_;
  }
  /// Flow (response) time F_j = C_j - r_j.
  [[nodiscard]] Time flow(JobId id) const {
    return completion_.at(id) - release_.at(id);
  }
  /// All flow times, indexed by job id.
  [[nodiscard]] std::vector<Time> flows() const;

  [[nodiscard]] Time makespan() const noexcept { return makespan_; }

  [[nodiscard]] bool has_trace() const noexcept { return has_trace_; }
  /// The columnar trace: iterable over TraceIntervalView, random access by
  /// interval index, and per-job cursors via job_trace().
  [[nodiscard]] const TraceArena& trace() const noexcept { return trace_; }
  /// Cursor over the intervals containing `id` (O(intervals containing id)).
  [[nodiscard]] JobTraceView job_trace(JobId id) const {
    return trace_.job_trace(id);
  }
  /// Bytes the stored trace rows hold (size-based, see
  /// TraceArena::memory_bytes).
  [[nodiscard]] std::size_t trace_memory_bytes() const noexcept {
    return trace_.memory_bytes();
  }

  /// Total work processed according to the trace (for conservation checks).
  [[nodiscard]] Work traced_work() const;
  /// Work processed for one job according to the trace; O(intervals
  /// containing id) via the arena's per-job index.
  [[nodiscard]] Work traced_work(JobId id) const;

  /// Validates internal consistency: completions present and >= release +
  /// size/speed-share lower bound, traced work equals sizes (if traced),
  /// interval rates within machine capacity.  Throws std::logic_error with a
  /// description on the first violation.
  void validate() const;

 private:
  std::vector<Time> release_;
  std::vector<Work> size_;
  std::vector<double> weight_;
  std::vector<Time> completion_;
  TraceArena trace_;
  Time makespan_ = 0.0;
  int machines_ = 1;
  double speed_ = 1.0;
  bool has_trace_ = false;
};

}  // namespace tempofair
