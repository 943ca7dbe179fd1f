#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tempofair {

Schedule::Schedule(const Instance& instance, int machines, double speed)
    : machines_(machines), speed_(speed) {
  const std::size_t n = instance.n();
  release_.resize(n);
  size_.resize(n);
  weight_.resize(n);
  completion_.assign(n, kInfiniteTime);
  for (const Job& j : instance.jobs()) {
    release_[j.id] = j.release;
    size_[j.id] = j.size;
    weight_[j.id] = j.weight;
  }
}

Schedule::Schedule(std::size_t n, int machines, double speed)
    : machines_(machines), speed_(speed) {
  release_.resize(n);
  size_.resize(n);
  weight_.resize(n);
  completion_.assign(n, kInfiniteTime);
}

void Schedule::admit_job(JobId id, Time release, Work size, double weight) {
  release_.at(id) = release;
  size_.at(id) = size;
  weight_.at(id) = weight;
}

void Schedule::set_completion(JobId id, Time t) {
  completion_.at(id) = t;
  makespan_ = std::max(makespan_, t);
}

void Schedule::set_trace_recorded(bool recorded) {
  has_trace_ = recorded;
  // A fast-path uniform-share row (RR) ends at an arrival or a completion,
  // so n jobs make at most 2n rows, each storing one rate.  Rows of other
  // kinds and the id column (one entry per alive job per row) may outgrow
  // the hint; they grow geometrically from it.
  if (recorded) trace_.reserve(2 * n(), 2 * n());
}

void Schedule::push_interval(Time begin, Time end,
                             std::span<const JobId> jobs,
                             std::span<const double> rates) {
  if (!(end > begin)) return;  // zero-length intervals carry no info
  trace_.append(begin, end, jobs, rates);
}

void Schedule::push_interval(Time begin, Time end,
                             std::initializer_list<RateShare> shares) {
  if (!(end > begin)) return;
  trace_.append(begin, end, shares);
}

void Schedule::push_interval_uniform(Time begin, Time end,
                                     std::span<const JobId> jobs,
                                     double rate) {
  if (!(end > begin)) return;
  trace_.append_uniform(begin, end, jobs, rate);
}

std::vector<Time> Schedule::flows() const {
  std::vector<Time> out(n());
  for (std::size_t i = 0; i < n(); ++i) {
    out[i] = completion_[i] - release_[i];
  }
  return out;
}

Work Schedule::traced_work() const {
  Work total = 0.0;
  for (const TraceIntervalView iv : trace_) {
    const Time len = iv.length();
    for (std::size_t i = 0; i < iv.alive_count(); ++i) {
      total += iv.rate(i) * len;
    }
  }
  return total;
}

Work Schedule::traced_work(JobId id) const { return trace_.job_work(id); }

void Schedule::validate() const {
  auto fail = [](const std::string& msg) { throw std::logic_error("Schedule::validate: " + msg); };

  for (std::size_t i = 0; i < n(); ++i) {
    if (!std::isfinite(completion_[i])) {
      fail("job " + std::to_string(i) + " never completed");
    }
    // Even owning a full machine at speed s, job i needs size/speed time.
    const Time earliest = release_[i] + size_[i] / speed_;
    if (definitely_less(completion_[i], earliest, 1e-6)) {
      fail("job " + std::to_string(i) + " completed impossibly early");
    }
  }

  if (!has_trace_) return;

  const double cap = speed_ * machines_;
  Time prev_end = -kInfiniteTime;
  for (const TraceIntervalView iv : trace_) {
    if (!(iv.end() > iv.begin())) fail("empty trace interval");
    if (definitely_less(iv.begin(), prev_end, 1e-9)) fail("overlapping trace intervals");
    prev_end = iv.end();
    double sum = 0.0;
    JobId prev = kInvalidJob;
    for (const RateShare s : iv.shares()) {
      if (s.rate < -1e-9) fail("negative rate");
      if (s.rate > speed_ * (1.0 + 1e-6)) fail("per-job rate exceeds machine speed");
      if (prev != kInvalidJob && s.job <= prev) fail("shares not sorted by id");
      prev = s.job;
      sum += s.rate;
      if (definitely_less(completion_[s.job], iv.end(), 1e-9) ||
          definitely_less(iv.begin(), release_[s.job], 1e-9)) {
        fail("job " + std::to_string(s.job) + " traced outside its lifespan");
      }
    }
    if (sum > cap * (1.0 + 1e-6)) {
      std::ostringstream os;
      os << "interval [" << iv.begin() << "," << iv.end() << ") rate sum " << sum
         << " exceeds capacity " << cap;
      fail(os.str());
    }
  }

  // Per-job work conservation via the arena's CSR index: O(total entries)
  // for all jobs together, instead of O(n * entries) full rescans.
  for (std::size_t i = 0; i < n(); ++i) {
    const Work w = traced_work(static_cast<JobId>(i));
    if (!approx_equal(w, size_[i], 1e-6, 1e-6)) {
      std::ostringstream os;
      os << "job " << i << " traced work " << w << " != size " << size_[i];
      fail(os.str());
    }
  }
}

}  // namespace tempofair
