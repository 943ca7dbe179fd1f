#include "lpsolve/mincost_flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace {

constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

/// Indexed 4-ary min-heap of node ids ordered by (dist[v], v), with
/// decrease-key.  A std::priority_queue of (dist, node) pairs with lazy
/// deletion pops its live entries in exactly this order, so swapping one
/// for the other leaves the settle order -- and every tie-break -- intact.
class NodeHeap {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  explicit NodeHeap(std::size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Inserts v, or restores heap order after dist[v] decreased.
  void push_or_decrease(std::uint32_t v, const double* dist) {
    std::uint32_t i = pos_[v];
    if (i == kAbsent) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(v);
    }
    sift_up(i, v, dist);
  }

  std::uint32_t pop(const double* dist) {
    const std::uint32_t top = heap_.front();
    pos_[top] = kAbsent;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last, dist);
    return top;
  }

  void clear() noexcept {
    for (const std::uint32_t v : heap_) pos_[v] = kAbsent;
    heap_.clear();
  }

 private:
  static bool before(std::uint32_t a, std::uint32_t b, const double* dist) {
    return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
  }

  void place(std::uint32_t i, std::uint32_t v) {
    heap_[i] = v;
    pos_[v] = i;
  }

  void sift_up(std::uint32_t i, std::uint32_t v, const double* dist) {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 4;
      if (!before(v, heap_[parent], dist)) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }

  /// Sifts v down from the root.
  void sift_down(std::uint32_t v, const double* dist) {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    std::uint32_t i = 0;
    for (;;) {
      const std::uint32_t c = 4 * i + 1;
      if (c >= n) break;
      std::uint32_t best = c;
      for (std::uint32_t k = c + 1; k < std::min(c + 4, n); ++k) {
        if (before(heap_[k], heap_[best], dist)) best = k;
      }
      if (!before(heap_[best], v, dist)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, v);
  }

  std::vector<std::uint32_t> heap_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes >= kMaxIndex) {
    throw std::length_error("MinCostFlow: too many nodes");
  }
}

std::size_t MinCostFlow::add_edge(std::size_t u, std::size_t v, double cap,
                                  double cost) {
  if (frozen_) {
    throw std::logic_error("MinCostFlow::add_edge: graph frozen by solve()");
  }
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("MinCostFlow::add_edge: node out of range");
  }
  if (cap < 0.0 || cost < 0.0 || !std::isfinite(cap) || !std::isfinite(cost)) {
    throw std::invalid_argument(
        "MinCostFlow::add_edge: capacity and cost must be finite and >= 0");
  }
  if (2 * (pending_.size() + 1) > kMaxIndex) {
    throw std::length_error("MinCostFlow::add_edge: too many edges");
  }
  pending_.push_back(PendingEdge{static_cast<std::uint32_t>(u),
                                 static_cast<std::uint32_t>(v), cost});
  initial_cap_.push_back(cap);
  max_cost_ = std::max(max_cost_, cost);
  return pending_.size() - 1;
}

void MinCostFlow::freeze() {
  // Counting sort of the arcs by tail.  Edge i contributes its forward arc
  // to u's list and then its reverse arc to v's list, so every node sees
  // its arcs in insertion order.
  const std::size_t arcs = 2 * pending_.size();
  first_.assign(num_nodes_ + 1, 0);
  for (const PendingEdge& e : pending_) {
    ++first_[e.u + 1];
    ++first_[e.v + 1];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) first_[v + 1] += first_[v];
  std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
  to_.resize(arcs);
  rev_.resize(arcs);
  cap_.resize(arcs);
  cost_.resize(arcs);
  handle_arc_.resize(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PendingEdge& e = pending_[i];
    const std::uint32_t fwd = next[e.u]++;
    const std::uint32_t back = next[e.v]++;
    to_[fwd] = e.v;
    rev_[fwd] = back;
    cap_[fwd] = initial_cap_[i];
    cost_[fwd] = e.cost;
    to_[back] = e.u;
    rev_[back] = fwd;
    cap_[back] = 0.0;
    cost_[back] = -e.cost;
    handle_arc_[i] = fwd;
  }
  pending_ = {};
  frozen_ = true;
}

MinCostFlow::Result MinCostFlow::solve(std::size_t s, std::size_t t,
                                       double max_flow) {
  if (s >= num_nodes_ || t >= num_nodes_ || s == t) {
    throw std::invalid_argument("MinCostFlow::solve: bad source/sink");
  }
  if (!frozen_) freeze();
  const std::size_t n = num_nodes_;
  const auto source = static_cast<std::uint32_t>(s);
  const auto sink = static_cast<std::uint32_t>(t);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Tolerances must scale with the cost magnitude: with costs spanning many
  // orders of magnitude (the flow-time LP's k-th-power costs do), fixed
  // absolute epsilons let floating-point noise turn reduced costs negative,
  // which degrades Dijkstra into exponential re-expansion.
  const double cost_eps = std::max(kFlowEps, 1e-12 * max_cost_);

  potential_.assign(n, 0.0);  // costs are >= 0, so 0 is valid
  std::vector<double>& potential = potential_;
  std::vector<double> dist(n, kInf);
  std::vector<std::uint32_t> prev_arc(n);
  NodeHeap heap(n);
  Result result;

  const std::size_t max_augmentations = 100 * (to_.size() + n) + 1000;
  std::uint64_t augmentations = 0;
  std::uint64_t settled = 0;
  std::uint64_t arcs_scanned = 0;

  while (result.flow < max_flow - kFlowEps) {
    if (++augmentations > max_augmentations) {
      throw std::runtime_error(
          "MinCostFlow::solve: augmentation budget exhausted (numerically "
          "degenerate instance)");
    }
    // Dijkstra on reduced costs, stopped when the sink settles.  Reduced
    // costs are clamped at 0, so settled distances never change afterwards;
    // every node still unsettled has a tentative and a final distance
    // >= dist[t].  The path to t and the capped potential update below are
    // therefore the same as a full Dijkstra's.
    dist[s] = 0.0;
    heap.push_or_decrease(source, dist.data());
    while (!heap.empty()) {
      const std::uint32_t u = heap.pop(dist.data());
      ++settled;
      if (u == sink) break;
      const double d = dist[u];
      const double pu = potential[u];
      const std::uint32_t end = first_[u + 1];
      arcs_scanned += end - first_[u];
      for (std::uint32_t a = first_[u]; a < end; ++a) {
        if (cap_[a] <= kFlowEps) continue;
        const std::uint32_t v = to_[a];
        // Clamp tiny negative reduced costs (float noise) to preserve
        // Dijkstra's monotonicity invariant.
        const double reduced = std::max(cost_[a] + pu - potential[v], 0.0);
        const double nd = d + reduced;
        if (nd < dist[v] - cost_eps) {
          dist[v] = nd;
          prev_arc[v] = a;
          heap.push_or_decrease(v, dist.data());
        }
      }
    }
    heap.clear();
    const double dist_t = dist[t];
    if (dist_t == kInf) break;  // no augmenting path left

    // Cap every update at dist[t]: unlike the naive "reachable-only" update,
    // this keeps reduced costs nonnegative on *every* residual arc (also ones
    // touching nodes this Dijkstra never reached), so the final potentials
    // are a valid -- and tight -- dual solution, not just a Dijkstra speedup.
    for (std::size_t v = 0; v < n; ++v) {
      potential[v] += std::min(dist[v], dist_t);
      dist[v] = kInf;
    }

    // Bottleneck along the path.
    double push = max_flow - result.flow;
    for (std::uint32_t v = sink; v != source; v = to_[rev_[prev_arc[v]]]) {
      push = std::min(push, cap_[prev_arc[v]]);
    }
    if (push <= kFlowEps) break;  // numerically exhausted

    for (std::uint32_t v = sink; v != source; v = to_[rev_[prev_arc[v]]]) {
      const std::uint32_t a = prev_arc[v];
      cap_[a] -= push;
      cap_[rev_[a]] += push;
      result.cost += push * cost_[a];
    }
    result.flow += push;
  }
  obs::add("lpsolve.mcf.augmentations", augmentations);
  obs::add("lpsolve.mcf.settled", settled);
  obs::add("lpsolve.mcf.arcs_scanned", arcs_scanned);
  return result;
}

double MinCostFlow::flow_on(std::size_t handle) const {
  if (handle >= initial_cap_.size()) {
    throw std::invalid_argument("MinCostFlow::flow_on: bad handle");
  }
  if (!frozen_) return 0.0;
  return initial_cap_[handle] - cap_[handle_arc_[handle]];
}

}  // namespace tempofair::lpsolve
