#include "core/trace_arena.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tempofair {

JobSlice JobTraceView::operator[](std::size_t i) const noexcept {
  const std::size_t iv = intervals_[i];
  const TraceIntervalView view = (*arena_)[iv];
  return JobSlice{iv, view.begin(), view.end(), view.rate(positions_[i])};
}

Work JobTraceView::total_work() const noexcept {
  Work total = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const JobSlice s = (*this)[i];
    total += s.rate * s.length();
  }
  return total;
}

void TraceArena::clear() noexcept {
  begin_.clear();
  end_.clear();
  job_off_.assign(1, 0);
  rate_off_.assign(1, 0);
  ids_.clear();
  rates_.clear();
  index_built_ = false;
  jidx_off_.clear();
  jidx_interval_.clear();
  jidx_pos_.clear();
}

void TraceArena::reserve(std::size_t intervals, std::size_t entries) {
  begin_.reserve(intervals);
  end_.reserve(intervals);
  job_off_.reserve(intervals + 1);
  rate_off_.reserve(intervals + 1);
  ids_.reserve(entries);
  rates_.reserve(entries);
}

std::uint32_t TraceArena::end_offset(std::size_t offset, std::size_t count) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (offset > kMax || count > kMax - offset) {
    throw std::length_error("TraceArena: more than 2^32 - 1 trace entries");
  }
  return static_cast<std::uint32_t>(offset + count);
}

// Both appends check their arguments and both offsets before the first
// column changes.
void TraceArena::append(Time begin, Time end, std::span<const JobId> jobs,
                        std::span<const double> rates) {
  if (jobs.size() != rates.size()) {
    throw std::invalid_argument(
        "TraceArena::append: jobs/rates size mismatch");
  }
  if (!(end > begin)) {
    throw std::invalid_argument(
        "TraceArena::append: interval must have end > begin");
  }
  // Uniform-rate compression (I3): when every rate is bitwise-equal --
  // true for every Round Robin interval -- store the shared value once.
  bool uniform = !rates.empty();
  for (double r : rates) {
    if (r != rates[0]) {
      uniform = false;
      break;
    }
  }
  const std::span<const double> stored = uniform ? rates.first(1) : rates;
  const std::uint32_t job_end = end_offset(ids_.size(), jobs.size());
  const std::uint32_t rate_end = end_offset(rates_.size(), stored.size());

  begin_.push_back(begin);
  end_.push_back(end);
  ids_.insert(ids_.end(), jobs.begin(), jobs.end());
  job_off_.push_back(job_end);
  rates_.insert(rates_.end(), stored.begin(), stored.end());
  rate_off_.push_back(rate_end);
  index_built_ = false;
}

void TraceArena::append_uniform(Time begin, Time end,
                                std::span<const JobId> jobs, double rate) {
  if (!(end > begin)) {
    throw std::invalid_argument(
        "TraceArena::append_uniform: interval must have end > begin");
  }
  const std::uint32_t job_end = end_offset(ids_.size(), jobs.size());
  const std::uint32_t rate_end =
      end_offset(rates_.size(), jobs.empty() ? 0 : 1);

  begin_.push_back(begin);
  end_.push_back(end);
  ids_.insert(ids_.end(), jobs.begin(), jobs.end());
  job_off_.push_back(job_end);
  if (!jobs.empty()) rates_.push_back(rate);
  rate_off_.push_back(rate_end);
  index_built_ = false;
}

void TraceArena::append(Time begin, Time end,
                        std::initializer_list<RateShare> shares) {
  std::vector<JobId> jobs;
  std::vector<double> rates;
  jobs.reserve(shares.size());
  rates.reserve(shares.size());
  for (const RateShare& s : shares) {
    jobs.push_back(s.job);
    rates.push_back(s.rate);
  }
  append(begin, end, jobs, rates);
}

void TraceArena::ensure_job_index() const {
  if (index_built_) return;
  if (size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("TraceArena: too many intervals for job index");
  }
  JobId max_id = 0;
  for (JobId id : ids_) max_id = std::max(max_id, id);
  const std::size_t n_jobs = ids_.empty() ? 0 : static_cast<std::size_t>(max_id) + 1;

  // Counting sort of flat entries by job id, preserving interval order.
  jidx_off_.assign(n_jobs + 1, 0);
  for (JobId id : ids_) ++jidx_off_[id + 1];
  for (std::size_t j = 0; j < n_jobs; ++j) jidx_off_[j + 1] += jidx_off_[j];

  jidx_interval_.resize(ids_.size());
  jidx_pos_.resize(ids_.size());
  std::vector<std::uint64_t> cursor(jidx_off_.begin(), jidx_off_.end() - 1);
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::uint64_t k = job_off_[i]; k < job_off_[i + 1]; ++k) {
      const std::uint64_t slot = cursor[ids_[k]]++;
      jidx_interval_[slot] = static_cast<std::uint32_t>(i);
      jidx_pos_[slot] = static_cast<std::uint32_t>(k - job_off_[i]);
    }
  }
  index_built_ = true;
}

JobTraceView TraceArena::job_trace(JobId job) const {
  ensure_job_index();
  const std::size_t n_jobs = jidx_off_.empty() ? 0 : jidx_off_.size() - 1;
  if (job >= n_jobs) return JobTraceView(this, nullptr, nullptr, 0);
  const std::uint64_t lo = jidx_off_[job];
  const std::uint64_t hi = jidx_off_[job + 1];
  return JobTraceView(this, jidx_interval_.data() + lo, jidx_pos_.data() + lo,
                      static_cast<std::size_t>(hi - lo));
}

std::size_t TraceArena::memory_bytes() const noexcept {
  return size() * (sizeof(Time) * 2) +
         (size() + 1) * (sizeof(std::uint32_t) * 2) +
         ids_.size() * sizeof(JobId) + rates_.size() * sizeof(double);
}

}  // namespace tempofair
