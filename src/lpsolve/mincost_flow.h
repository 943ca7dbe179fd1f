// Min-cost max-flow with real-valued capacities and costs.
//
// Successive shortest augmenting paths with Johnson potentials: one Dijkstra
// per augmentation, run on reduced costs and stopped as soon as the sink
// settles.  Costs must be nonnegative on original edges; capacities and flow
// amounts are doubles with epsilon hygiene (residuals below kFlowEps are
// treated as saturated).  This is the exact solver behind the discretized
// flow-time LP of Section 3.1, a pure transportation problem.
//
// Edges are collected by add_edge() and frozen into a flat (CSR) residual
// graph on the first solve(); each node keeps its arcs in insertion order,
// so ties between equal-cost paths break the same way on every build.
// Adding an edge after solve() is an error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tempofair::lpsolve {

inline constexpr double kFlowEps = 1e-9;

class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t num_nodes);

  /// Adds a directed edge u -> v; returns its handle for flow queries.
  /// Requires cap >= 0 and cost >= 0 (SSP with potentials needs nonnegative
  /// reduced costs; our LPs have nonnegative costs natively).  Throws
  /// std::logic_error once solve() has frozen the graph.
  std::size_t add_edge(std::size_t u, std::size_t v, double cap, double cost);

  struct Result {
    double flow = 0.0;
    double cost = 0.0;
  };

  /// Sends up to `max_flow` units from s to t along successive shortest
  /// paths; returns achieved flow and its total cost.  Records the
  /// counters lpsolve.mcf.{augmentations,settled,arcs_scanned} once per call.
  Result solve(std::size_t s, std::size_t t, double max_flow);

  /// Flow currently on edge `handle` (0 before solve()).
  [[nodiscard]] double flow_on(std::size_t handle) const;

  /// Johnson potentials after solve(): potentials()[v] is the shortest-path
  /// distance from the source to v in the final residual network, capped at
  /// the sink's distance in every round.  These are (approximate) optimal
  /// duals of the underlying transportation LP, which the flow-time
  /// certificate pass repairs into an exactly-feasible dual.
  [[nodiscard]] const std::vector<double>& potentials() const noexcept {
    return potential_;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

 private:
  struct PendingEdge {
    std::uint32_t u;
    std::uint32_t v;
    double cost;
  };

  void freeze();

  std::size_t num_nodes_;
  bool frozen_ = false;
  std::vector<PendingEdge> pending_;  // until freeze()
  std::vector<double> initial_cap_;  // per handle
  double max_cost_ = 0.0;

  // Residual graph in CSR form: node u's arcs are [first_[u], first_[u+1]).
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> to_;
  std::vector<std::uint32_t> rev_;  // index of the paired reverse arc
  std::vector<double> cap_;         // residual capacity
  std::vector<double> cost_;

  std::vector<std::uint32_t> handle_arc_;  // forward arc of each handle
  std::vector<double> potential_;          // after solve()
};

}  // namespace tempofair::lpsolve
