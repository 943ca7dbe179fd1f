#include "lpsolve/mincost_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.h"
#include "workload/source.h"

namespace tempofair::lpsolve {
namespace {

TEST(MinCostFlow, SingleEdge) {
  MinCostFlow g(2);
  (void)g.add_edge(0, 1, 5.0, 2.0);
  const auto r = g.solve(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  // 0 -> 1 -> 3 (cost 1+1) and 0 -> 2 -> 3 (cost 5+5), caps 1 each.
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 1.0, 1.0);
  (void)g.add_edge(1, 3, 1.0, 1.0);
  (void)g.add_edge(0, 2, 1.0, 5.0);
  (void)g.add_edge(2, 3, 1.0, 5.0);
  const auto r = g.solve(0, 3, 2.0);
  EXPECT_DOUBLE_EQ(r.flow, 2.0);
  EXPECT_DOUBLE_EQ(r.cost, 1.0 * 2 + 5.0 * 2);
}

TEST(MinCostFlow, RespectsMaxFlowCap) {
  MinCostFlow g(2);
  (void)g.add_edge(0, 1, 10.0, 1.0);
  const auto r = g.solve(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(r.flow, 3.0);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(MinCostFlow, StopsAtCapacityLimit) {
  MinCostFlow g(3);
  (void)g.add_edge(0, 1, 2.0, 1.0);
  (void)g.add_edge(1, 2, 1.5, 1.0);
  const auto r = g.solve(0, 2, 100.0);
  EXPECT_DOUBLE_EQ(r.flow, 1.5);
}

TEST(MinCostFlow, UsesResidualEdgesForOptimality) {
  // Classic case where the greedy path must be partially undone.
  //   0->1 (cap 1, cost 1), 0->2 (cap 1, cost 2),
  //   1->2 (cap 1, cost 0), 1->3 (cap 1, cost 2), 2->3 (cap 1, cost 1).
  // Max flow 2 with min cost: 0->1->2->3 (2) and 0->1... need residual logic.
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 1.0, 1.0);
  (void)g.add_edge(0, 2, 1.0, 2.0);
  (void)g.add_edge(1, 2, 1.0, 0.0);
  (void)g.add_edge(1, 3, 1.0, 2.0);
  (void)g.add_edge(2, 3, 1.0, 1.0);
  const auto r = g.solve(0, 3, 2.0);
  EXPECT_DOUBLE_EQ(r.flow, 2.0);
  // Optimal: 0->1->2->3 (cost 2) + 0->2? cap... 0->2->3 used by first path;
  // best total is 0->1->2->3 = 2 and 0->2 + 2->3 blocked => 0->1->3? cap of
  // 0->1 is 1.  Routes: {0->1->2->3, 0->2->(2->3 full)...} -> the two units
  // must use 0->1->3 and 0->2->3: cost (1+2)+(2+1)=6?  Or 0->1->2->3 (2) and
  // 0->2->3 is then full on 2->3: 0->2 has no other exit -> so 6 is right
  // only if sharing impossible; SSP finds min = 6 or better.  Assert exact
  // optimum computed by hand: paths P1=0->1->2->3 cost 2, P2=0->2->3 cost 3
  // conflict on 2->3 (cap 1).  Alternatives: P1'=0->1->3 cost 3, P2=0->2->3
  // cost 3 -> total 6; or P1=2 + P2'=0->2->(1?) no edge.  Optimum = 5:
  // flow A: 0->1 ->2 ->3 (cost 1+0+1=2); flow B: 0->2 (2), then 2->3 full,
  // no path -> infeasible; so pairing must be (0->1->3, 0->2->3) = 6 or
  // (0->1->2->3, 0->2 ... dead end).  Hence 6? But residual: after P1,
  // augmenting 0->2, then 2->1 (residual of 1->2), then 1->3: cost
  // 2 + 0 (undo) ... = 2 + (2 - 0 + 2) = hmm.  Let the solver answer and
  // verify against brute force: total flow 2, min cost is 6 via {0->1->3,
  // 0->2->3} OR 2+4=6 via residual path 0->2->1->3 (2 + (-0) + 2 = 4).
  // Both give 6.
  EXPECT_DOUBLE_EQ(r.cost, 6.0);
}

TEST(MinCostFlow, FractionalCapacities) {
  MinCostFlow g(3);
  (void)g.add_edge(0, 1, 0.3, 1.0);
  (void)g.add_edge(0, 1, 0.7, 3.0);
  (void)g.add_edge(1, 2, 1.0, 0.0);
  const auto r = g.solve(0, 2, 1.0);
  EXPECT_NEAR(r.flow, 1.0, 1e-9);
  EXPECT_NEAR(r.cost, 0.3 * 1.0 + 0.7 * 3.0, 1e-9);
}

TEST(MinCostFlow, FlowOnReportsPerEdgeFlow) {
  MinCostFlow g(3);
  const auto cheap = g.add_edge(0, 1, 2.0, 1.0);
  const auto expensive = g.add_edge(0, 1, 2.0, 10.0);
  (void)g.add_edge(1, 2, 3.0, 0.0);
  (void)g.solve(0, 2, 3.0);
  EXPECT_NEAR(g.flow_on(cheap), 2.0, 1e-9);
  EXPECT_NEAR(g.flow_on(expensive), 1.0, 1e-9);
}

TEST(MinCostFlow, TransportationProblem) {
  // 2 supplies (3, 2), 2 demands (2, 3); cost matrix [[1, 4], [2, 1]].
  // Optimal: s0->d0: 2, s0->d1: 1, s1->d1: 2 => 2*1 + 1*4 + 2*1 = 8?
  // Or s0->d0:2, s1->d1:2, s0->d1:1 -> 8; s1->d0? cost2: s0->d1:3(12)... 8.
  MinCostFlow g(6);  // 0=src, 1,2=supply, 3,4=demand, 5=sink
  (void)g.add_edge(0, 1, 3.0, 0.0);
  (void)g.add_edge(0, 2, 2.0, 0.0);
  (void)g.add_edge(1, 3, 10.0, 1.0);
  (void)g.add_edge(1, 4, 10.0, 4.0);
  (void)g.add_edge(2, 3, 10.0, 2.0);
  (void)g.add_edge(2, 4, 10.0, 1.0);
  (void)g.add_edge(3, 5, 2.0, 0.0);
  (void)g.add_edge(4, 5, 3.0, 0.0);
  const auto r = g.solve(0, 5, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0 * 1.0 + 1.0 * 4.0 + 2.0 * 1.0);
}

TEST(MinCostFlow, RejectsInvalidInput) {
  MinCostFlow g(2);
  EXPECT_THROW((void)g.add_edge(0, 5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(0, 1, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)g.solve(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.flow_on(99), std::invalid_argument);
}

TEST(MinCostFlow, AddEdgeAfterSolveIsAnError) {
  MinCostFlow g(3);
  const auto e = g.add_edge(0, 1, 2.0, 1.0);
  (void)g.add_edge(1, 2, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(g.flow_on(e), 0.0);  // before solve
  (void)g.solve(0, 2, 2.0);
  EXPECT_THROW((void)g.add_edge(0, 2, 1.0, 1.0), std::logic_error);
  EXPECT_DOUBLE_EQ(g.flow_on(e), 2.0);
}

TEST(MinCostFlow, DisconnectedGraphDeliversPartialFlow) {
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 5.0, 1.0);
  // node 2,3 unreachable
  const auto r = g.solve(0, 3, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 0.0);
}

// --- Equivalence with the full-Dijkstra solver ------------------------------
//
// ReferenceMinCostFlow is the solver this class replaced: adjacency vectors,
// a std::priority_queue with lazy deletion, and a Dijkstra that runs until
// the queue is empty.  The sink-bounded search on the flat graph must
// reproduce its cost, flow, potentials and per-edge flows bit for bit.

struct EdgeSpec {
  std::size_t u, v;
  double cap, cost;
};

struct Graph {
  std::size_t nodes = 0;
  std::size_t source = 0, sink = 0;
  double demand = 0.0;
  std::vector<EdgeSpec> edges;
};

struct Solution {
  double flow = 0.0, cost = 0.0;
  std::vector<double> potentials, edge_flow;
};

class ReferenceMinCostFlow {
 public:
  explicit ReferenceMinCostFlow(std::size_t n) : graph_(n) {}

  void add_edge(std::size_t u, std::size_t v, double cap, double cost) {
    graph_[u].push_back(Edge{v, graph_[v].size(), cap, cost});
    graph_[v].push_back(Edge{u, graph_[u].size() - 1, 0.0, -cost});
    handles_.emplace_back(u, graph_[u].size() - 1);
    initial_cap_.push_back(cap);
    max_cost_ = std::max(max_cost_, cost);
  }

  MinCostFlow::Result solve(std::size_t s, std::size_t t, double max_flow) {
    const std::size_t n = graph_.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double cost_eps = std::max(kFlowEps, 1e-12 * max_cost_);
    potential_.assign(n, 0.0);
    std::vector<double>& potential = potential_;
    std::vector<double> dist(n);
    std::vector<std::size_t> prev_node(n), prev_edge(n);
    MinCostFlow::Result result;
    using QItem = std::pair<double, std::size_t>;
    while (result.flow < max_flow - kFlowEps) {
      std::fill(dist.begin(), dist.end(), kInf);
      dist[s] = 0.0;
      std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
      pq.emplace(0.0, s);
      while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[u] + cost_eps) continue;
        for (std::size_t ei = 0; ei < graph_[u].size(); ++ei) {
          const Edge& e = graph_[u][ei];
          if (e.cap <= kFlowEps) continue;
          const double reduced =
              std::max(e.cost + potential[u] - potential[e.to], 0.0);
          const double nd = d + reduced;
          if (nd < dist[e.to] - cost_eps) {
            dist[e.to] = nd;
            prev_node[e.to] = u;
            prev_edge[e.to] = ei;
            pq.emplace(nd, e.to);
          }
        }
      }
      if (dist[t] == kInf) break;
      for (std::size_t v = 0; v < n; ++v) {
        potential[v] += std::min(dist[v], dist[t]);
      }
      double push = max_flow - result.flow;
      for (std::size_t v = t; v != s; v = prev_node[v]) {
        push = std::min(push, graph_[prev_node[v]][prev_edge[v]].cap);
      }
      if (push <= kFlowEps) break;
      for (std::size_t v = t; v != s; v = prev_node[v]) {
        Edge& e = graph_[prev_node[v]][prev_edge[v]];
        e.cap -= push;
        graph_[e.to][e.rev].cap += push;
        result.cost += push * e.cost;
      }
      result.flow += push;
    }
    return result;
  }

  [[nodiscard]] double flow_on(std::size_t handle) const {
    const auto [u, idx] = handles_[handle];
    return initial_cap_[handle] - graph_[u][idx].cap;
  }
  [[nodiscard]] const std::vector<double>& potentials() const {
    return potential_;
  }

 private:
  struct Edge {
    std::size_t to, rev;
    double cap, cost;
  };
  std::vector<std::vector<Edge>> graph_;
  std::vector<std::pair<std::size_t, std::size_t>> handles_;
  std::vector<double> initial_cap_, potential_;
  double max_cost_ = 0.0;
};

template <class Solver>
Solution solve_with(const Graph& g) {
  Solver solver(g.nodes);
  for (const EdgeSpec& e : g.edges) solver.add_edge(e.u, e.v, e.cap, e.cost);
  const MinCostFlow::Result r = solver.solve(g.source, g.sink, g.demand);
  Solution out{r.flow, r.cost, solver.potentials(), {}};
  for (std::size_t h = 0; h < g.edges.size(); ++h) {
    out.edge_flow.push_back(solver.flow_on(h));
  }
  return out;
}

/// Supplies -> demands with costs drawn from a small set (many equal-cost
/// ties) and dyadic capacities; some supply/demand pairs have no arc.
Graph random_transportation(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> count(2, 12), coin(0, 3), eighths(1, 40);
  const std::size_t supplies = static_cast<std::size_t>(count(rng));
  const std::size_t demands = static_cast<std::size_t>(count(rng));
  Graph g;
  g.nodes = supplies + demands + 2;
  g.source = 0;
  g.sink = g.nodes - 1;
  for (std::size_t i = 0; i < supplies; ++i) {
    const double cap = eighths(rng) / 8.0;
    g.edges.push_back({g.source, 1 + i, cap, 0.0});
    g.demand += cap;
  }
  for (std::size_t i = 0; i < supplies; ++i) {
    for (std::size_t j = 0; j < demands; ++j) {
      if (coin(rng) == 0) continue;
      const double cost = 0.5 * coin(rng);
      g.edges.push_back({1 + i, 1 + supplies + j, eighths(rng) / 4.0, cost});
    }
  }
  for (std::size_t j = 0; j < demands; ++j) {
    g.edges.push_back({1 + supplies + j, g.sink, eighths(rng) / 8.0, 0.0});
  }
  return g;
}

/// The discretized flow-time LP's network for `inst`: source -> jobs ->
/// slots -> sink, unit costs ((t - r_j)^k + p_j^k) / p_j at slot starts.
Graph flowtime_graph(const Instance& inst, double k, std::size_t max_slots) {
  const double t0 = inst.min_release();
  const double horizon = inst.horizon_bound(1, 1.0) - t0;
  const double slot = std::max(std::min(1.0, inst.min_size()),
                               horizon / static_cast<double>(max_slots));
  const auto slots = static_cast<std::size_t>(std::ceil(horizon / slot)) + 1;
  Graph g;
  g.nodes = inst.n() + slots + 2;
  g.source = 0;
  g.sink = g.nodes - 1;
  for (const Job& j : inst.jobs()) g.demand += j.size;
  for (std::size_t s = 0; s < slots; ++s) {
    g.edges.push_back({1 + inst.n() + s, g.sink, slot, 0.0});
  }
  for (const Job& j : inst.jobs()) {
    g.edges.push_back({g.source, 1 + j.id, j.size, 0.0});
    const auto first = static_cast<std::size_t>(
        std::floor((j.release - t0) / slot + 1e-12));
    for (std::size_t s = first; s < slots; ++s) {
      const double t =
          std::max(t0 + static_cast<double>(s) * slot - j.release, 0.0);
      g.edges.push_back({1 + j.id, 1 + inst.n() + s, g.demand + 1.0,
                         (std::pow(t, k) + std::pow(j.size, k)) / j.size});
    }
  }
  return g;
}

void expect_bitwise_equal(const Solution& got, const Solution& want,
                          const std::string& what) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.flow), bits(want.flow)) << what;
  EXPECT_EQ(bits(got.cost), bits(want.cost)) << what;
  ASSERT_EQ(got.potentials.size(), want.potentials.size()) << what;
  for (std::size_t v = 0; v < got.potentials.size(); ++v) {
    EXPECT_EQ(bits(got.potentials[v]), bits(want.potentials[v]))
        << what << " potential " << v;
  }
  ASSERT_EQ(got.edge_flow.size(), want.edge_flow.size()) << what;
  for (std::size_t h = 0; h < got.edge_flow.size(); ++h) {
    EXPECT_EQ(bits(got.edge_flow[h]), bits(want.edge_flow[h]))
        << what << " edge " << h;
  }
}

TEST(MinCostFlow, MatchesFullDijkstraReferenceBitwise) {
  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 200; ++i) {
    const Graph g = random_transportation(rng);
    expect_bitwise_equal(solve_with<MinCostFlow>(g),
                         solve_with<ReferenceMinCostFlow>(g),
                         "transportation #" + std::to_string(i));
  }
  for (const char* spec :
       {"poisson:n=30,load=0.9,dist=exp(1.5),seed=7",
        "poisson:n=30,load=0.9,dist=pareto(1.8,0.5,50),seed=8",
        "adv-rr-l2-hard:n=12"}) {
    const Instance inst = workload::make_instance(spec);
    for (const double k : {1.0, 2.0, 3.0}) {
      const Graph g = flowtime_graph(inst, k, 300);
      expect_bitwise_equal(solve_with<MinCostFlow>(g),
                           solve_with<ReferenceMinCostFlow>(g),
                           std::string(spec) + " k=" + std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace tempofair::lpsolve
