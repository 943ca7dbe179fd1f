// Randomized workload generators.
//
// The paper's model is adversarial; for the typical-case side of the
// experiment suite we generate stochastic workloads with a pluggable size
// distribution.  The workloads themselves are named by a WorkloadSpec and
// built by workload::make_source() / make_instance() (workload/spec.h,
// workload/source.h); this header holds the building blocks they share.
#pragma once

#include <variant>

#include "core/instance.h"
#include "workload/rng.h"

namespace tempofair::workload {

// --- Size distributions -----------------------------------------------------

struct FixedSize {
  double value = 1.0;
};
struct UniformSize {
  double lo = 0.5;
  double hi = 1.5;
};
struct ExponentialSize {
  double mean = 1.0;
};
/// Heavy-tailed sizes; `cap` truncates the tail (0 = uncapped).
struct ParetoSize {
  double alpha = 1.8;
  double xmin = 0.5;
  double cap = 0.0;
};
/// With probability p_small a small job, else a large one.
struct BimodalSize {
  double p_small = 0.9;
  double small = 1.0;
  double large = 50.0;
};

using SizeDist =
    std::variant<FixedSize, UniformSize, ExponentialSize, ParetoSize, BimodalSize>;

/// Draws one size from the distribution.
[[nodiscard]] double draw_size(const SizeDist& dist, Rng& rng);
/// Expected size of the distribution (Pareto uses the capped mean when
/// capped; requires alpha > 1 when uncapped).
[[nodiscard]] double mean_size(const SizeDist& dist);
/// Short human-readable name, e.g. "pareto(1.8)".
[[nodiscard]] std::string dist_name(const SizeDist& dist);

// --- Weight assignment (for weighted-flow experiments) ----------------------

enum class WeightScheme {
  kUniform,          ///< all weights 1 (the paper's unweighted objective)
  kRandom,           ///< iid uniform in [1, 10]
  kInverseSize,      ///< w = 1 / p  (every job equally important per se)
  kProportionalSize  ///< w = p     (large jobs more important)
};

/// Returns a copy of `instance` with weights assigned by `scheme`.
[[nodiscard]] Instance with_weights(const Instance& instance,
                                    WeightScheme scheme, Rng& rng);

}  // namespace tempofair::workload
