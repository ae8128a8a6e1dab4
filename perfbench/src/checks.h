#ifndef FLASH_PERFBENCH_CHECKS_H_
#define FLASH_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "serving/query.h"

/// Output checks of the benchmark. Each compares one engine output against
/// src/reference/ (code that shares no logic with the engine) or against a
/// property the method must have. A check returns "" when the output is
/// right and a one-line reason when it is not.
namespace flash::perfbench {

/// Hop distances equal reference::BfsDistances.
std::string CheckBfs(const Graph& graph, VertexId root,
                     const std::vector<uint32_t>& distance);

/// Distances match reference::SsspDistances (Dijkstra in double) within
/// float rounding; unreachable vertices must be +inf on both sides.
std::string CheckSssp(const Graph& graph, VertexId root,
                      const std::vector<float>& distance);

/// Labels induce the same partition as reference::ConnectedComponents.
std::string CheckComponents(const Graph& graph,
                            const std::vector<VertexId>& label);

/// Every rank is within 1e-9 of reference::PageRank.
std::string CheckPageRank(const Graph& graph, int iterations,
                          const std::vector<double>& rank);

/// The colouring is proper and uses at most max-degree + 1 colours.
std::string CheckColoring(const Graph& graph,
                          const std::vector<uint32_t>& color);

/// Uniform-walk corpus: walker i starts at vertex i mod |V|, takes at most
/// `walk_length` hops, every consecutive pair is an edge, and the visit
/// counts recounted from the traces equal the engine's `visits`.
std::string CheckWalks(const Graph& graph, uint32_t walk_length,
                       const std::vector<std::vector<VertexId>>& traces,
                       const std::vector<uint64_t>& visits);

/// Walk-PPR: visits sum to total_visits, and every rank lies within a
/// six-sigma Monte-Carlo bound of reference::PersonalizedPageRank
/// (restart alpha = 0.15). A walker's visits to v number p/(1-r) on
/// average, r being the chance to return before dying (r <= 1 - alpha), so
/// with N walkers a rank's variance is at most (2 - alpha) * ppr(v) / N;
/// the 4*alpha/N floor covers vertices whose true mass is
/// below what one visit resolves. Walkers stop after `max_hops`, which cuts
/// a share 0.85^(max_hops+1) of the walk off; on a mixed walk that tail
/// visits v in proportion to deg(v) / |E|, so it moves rank(v) by at most
/// 0.85^(max_hops+1) * (ppr(v) + deg(v) / |E|) -- counted twice.
std::string CheckWalkPpr(const Graph& graph, VertexId source,
                         uint64_t walkers, uint32_t max_hops,
                         const std::vector<double>& rank,
                         const std::vector<uint64_t>& visits,
                         uint64_t total_visits);

/// Checks serving answers, caching one reference BFS / PPR vector per
/// source. Expected values:
///  - bfs-distance: the reference hop distance (+inf when unreachable);
///  - k-hop: the number of vertices at reference distance <= k;
///  - landmark: any value >= the true distance (+inf when unreachable);
///  - ppr: the reference PPR mass at the target minus at most
///    eps * deg(target), the forward-push bound on a symmetric graph.
class ServingOracle {
 public:
  ServingOracle(const Graph& graph, double ppr_eps)
      : graph_(graph), ppr_eps_(ppr_eps) {}

  std::string Check(const serving::Query& query, double value);

 private:
  const std::vector<uint32_t>& Bfs(VertexId source);
  const std::vector<double>& Ppr(VertexId source);

  const Graph& graph_;
  double ppr_eps_;
  std::map<VertexId, std::vector<uint32_t>> bfs_;
  std::map<VertexId, std::vector<double>> ppr_;
};

}  // namespace flash::perfbench

#endif  // FLASH_PERFBENCH_CHECKS_H_
