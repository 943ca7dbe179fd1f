// Columnar (structure-of-arrays) arena for the piecewise-constant rate trace.
//
// A simulated run produces a sequence of half-open intervals [begin, end)
// during which the alive set and all rates are constant.  The arena stores
// that sequence in contiguous column arrays -- interval bounds, a CSR offset
// table, flat job ids and flat rates -- instead of one heap-allocated
// std::vector<RateShare> per interval.  Consequences:
//
//   * appending a row is two bulk copies into flat arrays (no per-interval
//     allocation in the engine's inner loop);
//   * every analysis (l_k norms, fairness, dual fitting) is a linear scan
//     over dense memory;
//   * a per-job CSR index (built lazily, O(total entries)) gives each job a
//     cursor over exactly the intervals it appears in, so per-job integrals
//     -- traced work, alpha_j, service-lag curves -- cost O(intervals
//     containing j) instead of O(whole trace);
//   * intervals whose rates are all bitwise-equal (every Round Robin
//     interval) store a single rate, cutting the dominant column by the
//     alive-set size.
//
// Invariants (maintained by append, relied upon by all consumers):
//   I1. Intervals are appended in nondecreasing time order and have
//       end > begin (zero-length rows are the caller's job to drop).
//   I2. job_off_/rate_off_ are 32-bit CSR tables of size size()+1 with
//       offset[0] == 0; interval i owns ids [job_off_[i], job_off_[i+1])
//       and rates [rate_off_[i], rate_off_[i+1]).  An append that would take
//       either flat column past 2^32 - 1 entries throws std::length_error.
//   I3. rate_off_[i+1]-rate_off_[i] is either the interval's alive count
//       (per-job rates) or exactly 1 (uniform rate shared by all jobs
//       of the interval).  The two coincide for single-job intervals.
//   I4. Within an interval, job ids appear in the order the caller emitted
//       them (the engine emits sorted by id; Schedule::validate checks it).
//
// Memory: each row is written once, in place.  Schedule::set_trace_recorded
// sizes the columns once for the run (reserve); a column that outgrows the
// hint grows geometrically, and nothing is shrunk or copied after the last
// append.  Reserved capacity that no row reaches is never written, so it
// costs address space, not resident memory.
//
// View lifetime: TraceIntervalView / JobTraceView / ShareRange are
// non-owning raw-pointer views.  They are invalidated by append() and
// clear(), exactly like std::span into a std::vector.  The lazily built
// per-job index is NOT thread-safe on first use; call job_trace() (or
// Schedule::validate) once before sharing a schedule across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "core/time_types.h"

namespace tempofair {

/// One job's share of the machines during a trace interval.
struct RateShare {
  JobId job = kInvalidJob;
  /// Processing rate in work units per time unit; for a policy running at
  /// speed s on m machines this lies in [0, s] and rates sum to <= s*m.
  double rate = 0.0;
};

/// Lightweight random-access range of RateShares materialized on the fly
/// from the arena's columns (handles the uniform-rate compressed case).
class ShareRange {
 public:
  ShareRange(const JobId* jobs, const double* rates, std::size_t n,
             bool uniform) noexcept
      : jobs_(jobs), rates_(rates), n_(n), uniform_(uniform) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] RateShare operator[](std::size_t i) const noexcept {
    return RateShare{jobs_[i], uniform_ ? rates_[0] : rates_[i]};
  }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RateShare;
    using difference_type = std::ptrdiff_t;
    using pointer = const RateShare*;
    using reference = RateShare;

    iterator() noexcept = default;
    iterator(const ShareRange* r, std::size_t i) noexcept : r_(r), i_(i) {}
    RateShare operator*() const noexcept { return (*r_)[i_]; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

   private:
    const ShareRange* r_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, n_); }

 private:
  const JobId* jobs_ = nullptr;
  const double* rates_ = nullptr;
  std::size_t n_ = 0;
  bool uniform_ = false;
};

/// Zero-copy view of one trace interval: bounds plus spans into the arena's
/// id and rate columns.  Cheap to construct and pass by value.
class TraceIntervalView {
 public:
  TraceIntervalView() noexcept = default;
  TraceIntervalView(Time begin, Time end, const JobId* jobs,
                    const double* rates, std::size_t n, bool uniform) noexcept
      : begin_(begin), end_(end), jobs_(jobs), rates_(rates), n_(n),
        uniform_(uniform) {}

  [[nodiscard]] Time begin() const noexcept { return begin_; }
  [[nodiscard]] Time end() const noexcept { return end_; }
  [[nodiscard]] Time length() const noexcept { return end_ - begin_; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return n_; }

  [[nodiscard]] std::span<const JobId> jobs() const noexcept {
    return {jobs_, n_};
  }
  [[nodiscard]] JobId job(std::size_t i) const noexcept { return jobs_[i]; }
  [[nodiscard]] double rate(std::size_t i) const noexcept {
    return uniform_ ? rates_[0] : rates_[i];
  }
  [[nodiscard]] RateShare share(std::size_t i) const noexcept {
    return RateShare{jobs_[i], rate(i)};
  }
  /// True if this interval is stored in uniform-rate compressed form
  /// (all rates bitwise-equal at append time).
  [[nodiscard]] bool uniform_rate() const noexcept { return uniform_; }

  [[nodiscard]] ShareRange shares() const noexcept {
    return ShareRange(jobs_, rates_, n_, uniform_);
  }

 private:
  Time begin_ = 0.0;
  Time end_ = 0.0;
  const JobId* jobs_ = nullptr;
  const double* rates_ = nullptr;
  std::size_t n_ = 0;
  bool uniform_ = false;
};

/// One entry of a job's trace cursor: the job's rate during one interval it
/// is alive in, plus the interval's position in the arena (usable to query
/// global per-interval facts such as the alive count).
struct JobSlice {
  std::size_t interval = 0;
  Time begin = 0.0;
  Time end = 0.0;
  double rate = 0.0;

  [[nodiscard]] Time length() const noexcept { return end - begin; }
};

class TraceArena;

/// Cursor over the intervals containing one job, in trace order.  Backed by
/// the arena's per-job CSR index; iterating costs O(intervals containing j).
class JobTraceView {
 public:
  JobTraceView() noexcept = default;
  JobTraceView(const TraceArena* arena, const std::uint32_t* intervals,
               const std::uint32_t* positions, std::size_t n) noexcept
      : arena_(arena), intervals_(intervals), positions_(positions), n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] JobSlice operator[](std::size_t i) const noexcept;
  [[nodiscard]] JobSlice front() const noexcept { return (*this)[0]; }
  [[nodiscard]] JobSlice back() const noexcept { return (*this)[n_ - 1]; }

  /// Total work processed for the job: sum of rate * length over slices.
  [[nodiscard]] Work total_work() const noexcept;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = JobSlice;
    using difference_type = std::ptrdiff_t;
    using pointer = const JobSlice*;
    using reference = JobSlice;

    iterator() noexcept = default;
    iterator(const JobTraceView* v, std::size_t i) noexcept : v_(v), i_(i) {}
    JobSlice operator*() const noexcept { return (*v_)[i_]; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

   private:
    const JobTraceView* v_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, n_); }

 private:
  const TraceArena* arena_ = nullptr;
  const std::uint32_t* intervals_ = nullptr;
  const std::uint32_t* positions_ = nullptr;
  std::size_t n_ = 0;
};

/// The columnar trace store.  See the file comment for layout and invariants.
class TraceArena {
 public:
  TraceArena() = default;

  // --- mutation -------------------------------------------------------------
  void clear() noexcept;
  /// Sizes the row columns for `intervals` rows and the id and rate columns
  /// for `entries` entries each, so appends up to that size copy nothing.
  void reserve(std::size_t intervals, std::size_t entries);
  /// Appends one interval row.  `jobs` and `rates` must be parallel; the
  /// engine emits jobs sorted by id (I4).  Requires end > begin.
  void append(Time begin, Time end, std::span<const JobId> jobs,
              std::span<const double> rates);
  /// Appends a uniform-rate row (every job at `rate`) directly in the I3
  /// compressed form, producing exactly the columns append() would for an
  /// all-equal rate vector -- without the caller materializing one.  The
  /// engine's epoch-coalescing fast path emits Round-Robin rows this way.
  void append_uniform(Time begin, Time end, std::span<const JobId> jobs,
                      double rate);
  /// Convenience for hand-built traces (tests).
  void append(Time begin, Time end, std::initializer_list<RateShare> shares);
  /// The CSR offset that ends a row of `count` entries appended at flat
  /// position `offset` (I2).  Throws std::length_error past 2^32 - 1.
  [[nodiscard]] static std::uint32_t end_offset(std::size_t offset,
                                                std::size_t count);

  // --- interval access ------------------------------------------------------
  [[nodiscard]] std::size_t size() const noexcept { return begin_.size(); }
  [[nodiscard]] bool empty() const noexcept { return begin_.empty(); }
  /// Flat (interval, job) pair count across all intervals.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return ids_.size();
  }
  [[nodiscard]] TraceIntervalView operator[](std::size_t i) const noexcept {
    const std::uint32_t jo = job_off_[i];
    return TraceIntervalView(begin_[i], end_[i], ids_.data() + jo,
                             rates_.data() + rate_off_[i],
                             job_off_[i + 1] - jo, interval_uniform(i));
  }
  [[nodiscard]] TraceIntervalView front() const noexcept { return (*this)[0]; }
  [[nodiscard]] TraceIntervalView back() const noexcept {
    return (*this)[size() - 1];
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceIntervalView;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceIntervalView*;
    using reference = TraceIntervalView;

    const_iterator() noexcept = default;
    const_iterator(const TraceArena* a, std::size_t i) noexcept
        : a_(a), i_(i) {}
    TraceIntervalView operator*() const noexcept { return (*a_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return i_ != o.i_;
    }

   private:
    const TraceArena* a_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, size());
  }

  // --- per-job access -------------------------------------------------------
  /// Cursor over the intervals containing `job`.  Builds the per-job CSR
  /// index on first use (O(total entries)); subsequent calls are O(1).
  [[nodiscard]] JobTraceView job_trace(JobId job) const;
  /// Total traced work for one job, via the per-job index.
  [[nodiscard]] Work job_work(JobId job) const {
    return job_trace(job).total_work();
  }

  // --- memory accounting ----------------------------------------------------
  /// Bytes the stored rows hold in the core columns: sizes, not capacity,
  /// so reserved slack no row has written does not count.  Excludes the
  /// lazily built per-job index.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  friend class JobTraceView;

  void ensure_job_index() const;
  [[nodiscard]] bool interval_uniform(std::size_t i) const noexcept {
    const std::uint32_t nrates = rate_off_[i + 1] - rate_off_[i];
    return nrates != job_off_[i + 1] - job_off_[i] || nrates == 1;
  }

  std::vector<Time> begin_;
  std::vector<Time> end_;
  std::vector<std::uint32_t> job_off_{0};   // size()+1 CSR into ids_
  std::vector<std::uint32_t> rate_off_{0};  // size()+1 CSR into rates_
  std::vector<JobId> ids_;
  std::vector<double> rates_;

  // Per-job CSR index, built lazily by ensure_job_index().
  mutable bool index_built_ = false;
  mutable std::vector<std::uint64_t> jidx_off_;       // n_jobs+1
  mutable std::vector<std::uint32_t> jidx_interval_;  // entry -> interval
  mutable std::vector<std::uint32_t> jidx_pos_;       // entry -> pos in row
};

}  // namespace tempofair
