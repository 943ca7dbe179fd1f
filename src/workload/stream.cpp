#include "workload/stream.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tempofair::workload {

InstanceRefStream::InstanceRefStream(const Instance& instance)
    : instance_(&instance) {
  const std::span<const JobId> order = instance.release_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<JobId>(i)) {
      throw std::invalid_argument(
          "InstanceRefStream: job ids are not sequential in release order "
          "(job at release rank " + std::to_string(i) + " has id " +
          std::to_string(order[i]) + "); cannot stream without relabeling");
    }
  }
}

std::size_t InstanceRefStream::n() const noexcept { return instance_->n(); }

Job InstanceRefStream::next() {
  if (next_ == instance_->n()) {
    throw std::logic_error("InstanceRefStream: next() called past n()");
  }
  return instance_->job(static_cast<JobId>(next_++));
}

Instance materialize(JobStream& stream) {
  std::vector<Job> jobs;
  jobs.reserve(stream.n());
  for (std::size_t i = 0; i < stream.n(); ++i) jobs.push_back(stream.next());
  return Instance::from_jobs(std::move(jobs));
}

}  // namespace tempofair::workload
