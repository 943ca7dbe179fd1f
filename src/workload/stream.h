// Streaming adapters around core/job_stream.h.
//
// The generator streams themselves (Poisson, MMPP, trace replay) are built
// from a WorkloadSpec by workload::make_source() (workload/source.h).  This
// header holds the two adapters between streams and materialized
// instances: InstanceRefStream replays an Instance as a JobStream (for
// equivalence tests and replay), and materialize() drains a stream into an
// Instance (for the generic engine loop or a non-streaming analysis).
#pragma once

#include <cstddef>

#include "core/instance.h"
#include "core/job_stream.h"

namespace tempofair::workload {

/// Adapts a materialized Instance as a JobStream.  Requires the instance's
/// ids to already be sequential in release order (true for the generator
/// outputs); throws std::invalid_argument otherwise, since relabeling would
/// silently change the id -> job mapping being compared.  The instance must
/// outlive the stream.
class InstanceRefStream final : public JobStream {
 public:
  explicit InstanceRefStream(const Instance& instance);

  [[nodiscard]] std::size_t n() const noexcept override;
  [[nodiscard]] Job next() override;

 private:
  const Instance* instance_;
  std::size_t next_ = 0;
};

/// Drains `stream` into a materialized Instance.
[[nodiscard]] Instance materialize(JobStream& stream);

}  // namespace tempofair::workload
