#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "reference/reference.h"

namespace flash::perfbench {

namespace {

/// Power-iteration rounds for the PPR oracles: the error of the reference
/// after k rounds is below 2 * 0.85^k, about 5e-11 at 150.
constexpr int kPprOracleIterations = 150;

template <typename... Parts>
std::string Fail(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

}  // namespace

std::string CheckBfs(const Graph& graph, VertexId root,
                     const std::vector<uint32_t>& distance) {
  const std::vector<uint32_t> expected =
      reference::BfsDistances(graph, root);
  if (distance.size() != expected.size()) {
    return Fail("bfs root ", root, ": ", distance.size(), " distances for ",
                expected.size(), " vertices");
  }
  for (size_t v = 0; v < expected.size(); ++v) {
    if (distance[v] != expected[v]) {
      return Fail("bfs root ", root, ": vertex ", v, " at ", distance[v],
                  ", reference ", expected[v]);
    }
  }
  return "";
}

std::string CheckSssp(const Graph& graph, VertexId root,
                      const std::vector<float>& distance) {
  const std::vector<double> expected = reference::SsspDistances(graph, root);
  if (distance.size() != expected.size()) {
    return Fail("sssp root ", root, ": ", distance.size(),
                " distances for ", expected.size(), " vertices");
  }
  for (size_t v = 0; v < expected.size(); ++v) {
    const double got = distance[v];
    const bool ok = std::isinf(expected[v])
                        ? std::isinf(got)
                        : std::fabs(got - expected[v]) <=
                              1e-5 * std::max(1.0, expected[v]);
    if (!ok) {
      return Fail("sssp root ", root, ": vertex ", v, " at ", got,
                  ", reference ", expected[v]);
    }
  }
  return "";
}

std::string CheckComponents(const Graph& graph,
                            const std::vector<VertexId>& label) {
  const std::vector<VertexId> expected = reference::ConnectedComponents(graph);
  if (label.size() != expected.size() ||
      !reference::SamePartition(label, expected)) {
    return "component labels differ from the reference partition";
  }
  return "";
}

std::string CheckPageRank(const Graph& graph, int iterations,
                          const std::vector<double>& rank) {
  const std::vector<double> expected = reference::PageRank(graph, iterations);
  if (rank.size() != expected.size()) {
    return Fail("pagerank: ", rank.size(), " ranks for ", expected.size(),
                " vertices");
  }
  for (size_t v = 0; v < expected.size(); ++v) {
    if (!(std::fabs(rank[v] - expected[v]) <= 1e-9)) {
      return Fail("pagerank: vertex ", v, " at ", rank[v], ", reference ",
                  expected[v]);
    }
  }
  return "";
}

std::string CheckColoring(const Graph& graph,
                          const std::vector<uint32_t>& color) {
  if (color.size() != graph.NumVertices() ||
      !reference::IsProperColoring(graph, color)) {
    return "colouring is not proper";
  }
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    max_degree = std::max(max_degree, graph.Degree(v));
  }
  const std::set<uint32_t> used(color.begin(), color.end());
  if (used.size() > static_cast<size_t>(max_degree) + 1) {
    return Fail("colouring uses ", used.size(), " colours, max degree ",
                max_degree);
  }
  return "";
}

std::string CheckWalks(const Graph& graph, uint32_t walk_length,
                       const std::vector<std::vector<VertexId>>& traces,
                       const std::vector<uint64_t>& visits) {
  const VertexId n = graph.NumVertices();
  std::vector<uint64_t> recount(n, 0);
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<VertexId>& trace = traces[i];
    if (trace.empty() || trace.size() > walk_length + 1ull ||
        trace[0] != i % n) {
      return Fail("walk ", i, ": bad start or length ", trace.size());
    }
    for (size_t t = 0; t < trace.size(); ++t) {
      if (trace[t] >= n) return Fail("walk ", i, ": vertex out of range");
      ++recount[trace[t]];
      if (t > 0 && !graph.HasEdge(trace[t - 1], trace[t])) {
        return Fail("walk ", i, ": hop ", trace[t - 1], " -> ", trace[t],
                    " is not an edge");
      }
    }
  }
  if (recount != visits) return "walk visit counts differ from the traces";
  return "";
}

std::string CheckWalkPpr(const Graph& graph, VertexId source,
                         uint64_t walkers, uint32_t max_hops,
                         const std::vector<double>& rank,
                         const std::vector<uint64_t>& visits,
                         uint64_t total_visits) {
  const VertexId n = graph.NumVertices();
  if (rank.size() != n || visits.size() != n || walkers == 0) {
    return "walk-ppr: output size mismatch";
  }
  uint64_t sum = 0;
  for (uint64_t c : visits) sum += c;
  if (sum != total_visits) return "walk-ppr: visits do not sum to the total";
  const std::vector<double> expected = reference::PersonalizedPageRank(
      graph, source, kPprOracleIterations);
  const double alpha = 0.15;
  const double nw = static_cast<double>(walkers);
  const double cut = std::pow(1.0 - alpha, max_hops + 1.0);
  const double edges = static_cast<double>(std::max<EdgeId>(1, graph.NumEdges()));
  for (VertexId v = 0; v < n; ++v) {
    const double bound =
        6.0 * std::sqrt((2.0 - alpha) * (expected[v] + 4.0 * alpha / nw) /
                        nw) +
        2.0 * cut * (expected[v] + graph.Degree(v) / edges);
    if (!(std::fabs(rank[v] - expected[v]) <= bound)) {
      return Fail("walk-ppr source ", source, ": vertex ", v, " at ",
                  rank[v], ", reference ", expected[v], ", bound ", bound);
    }
  }
  return "";
}

const std::vector<uint32_t>& ServingOracle::Bfs(VertexId source) {
  auto it = bfs_.find(source);
  if (it == bfs_.end()) {
    it = bfs_.emplace(source, reference::BfsDistances(graph_, source)).first;
  }
  return it->second;
}

const std::vector<double>& ServingOracle::Ppr(VertexId source) {
  auto it = ppr_.find(source);
  if (it == ppr_.end()) {
    it = ppr_.emplace(source, reference::PersonalizedPageRank(
                                  graph_, source, kPprOracleIterations))
             .first;
  }
  return it->second;
}

std::string ServingOracle::Check(const serving::Query& q, double value) {
  using serving::QueryKind;
  const VertexId n = graph_.NumVertices();
  if (q.source >= n || (q.kind != QueryKind::kKHop && q.target >= n)) {
    return "query names a vertex outside the graph";
  }
  const auto true_distance = [&](VertexId s, VertexId t) {
    const uint32_t d = Bfs(s)[t];
    return d == reference::kUnreachable ? serving::kUnreachable
                                        : static_cast<double>(d);
  };
  switch (q.kind) {
    case QueryKind::kBfsDistance: {
      const double expected = true_distance(q.source, q.target);
      if (value != expected) {
        return Fail("bfs ", q.source, "->", q.target, ": ", value,
                    ", reference ", expected);
      }
      return "";
    }
    case QueryKind::kKHop: {
      const std::vector<uint32_t>& dist = Bfs(q.source);
      const auto expected = static_cast<double>(std::count_if(
          dist.begin(), dist.end(), [&](uint32_t d) { return d <= q.k; }));
      if (value != expected) {
        return Fail("khop ", q.source, " k=", q.k, ": ", value,
                    ", reference ", expected);
      }
      return "";
    }
    case QueryKind::kLandmark: {
      const double truth = true_distance(q.source, q.target);
      const bool ok = std::isinf(truth) ? std::isinf(value) : value >= truth;
      if (!ok) {
        return Fail("landmark ", q.source, "->", q.target, ": ", value,
                    " below true distance ", truth);
      }
      return "";
    }
    case QueryKind::kPpr: {
      const double expected = Ppr(q.source)[q.target];
      const double slack = ppr_eps_ * graph_.Degree(q.target) + 1e-10;
      if (!(value <= expected + 1e-10 && expected - value <= slack)) {
        return Fail("ppr ", q.source, "->", q.target, ": ", value,
                    ", reference ", expected, ", slack ", slack);
      }
      return "";
    }
  }
  return "unknown query kind";
}

}  // namespace flash::perfbench
