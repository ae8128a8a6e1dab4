// Self-test of the benchmark: every output check must accept a correct
// output and reject a deliberately wrong one, the self-time split must
// give each span its own time, and all four workloads must run clean at
// smoke-test size in both the untraced and the traced mode.
//
//   perfbench_selftest [--tmp-dir <dir>]     exit code 0 = all passed

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "checks.h"
#include "graph/generators.h"
#include "reference/reference.h"
#include "serving/server.h"
#include "walks/walk_algorithms.h"
#include "walks/walk_engine.h"
#include "workloads.h"

namespace flash::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// `check` must pass on the engine's output and fail once `mutate` broke it.
template <typename Output, typename Check, typename Mutate>
void ExpectCatches(const std::string& name, Output output, Check check,
                   Mutate mutate) {
  Expect(check(output).empty(), name + ": correct output passes");
  mutate(output);
  const std::string why = check(output);
  Expect(!why.empty(), name + ": wrong output fails (" + why + ")");
}

GraphPtr SmallRmat(bool weighted = false) {
  RmatOptions opt;
  opt.scale = 8;
  opt.avg_degree = 8;
  opt.weighted = weighted;
  opt.seed = 5;
  return GenerateRmat(opt).value();
}

/// A vertex with a neighbour, and that neighbour.
std::pair<VertexId, VertexId> SomeEdge(const Graph& g) {
  for (VertexId v = 0;; ++v) {
    if (g.Degree(v) > 0) return {v, g.OutNeighbors(v)[0]};
  }
}

void NegativeTests() {
  const GraphPtr g = SmallRmat();
  const auto [u, w] = SomeEdge(*g);

  ExpectCatches(
      "bfs distance off by one", algo::RunBfs(g, u).distance,
      [&](const auto& d) { return CheckBfs(*g, u, d); },
      [&](auto& d) { d[w] += 1; });

  const GraphPtr weighted = SmallRmat(/*weighted=*/true);
  const auto [ws, wt] = SomeEdge(*weighted);
  ExpectCatches(
      "sssp distance stretched", algo::RunSssp(weighted, ws).distance,
      [&](const auto& d) { return CheckSssp(*weighted, ws, d); },
      [&](auto& d) { d[wt] *= 1.01f; });

  ExpectCatches(
      "components merged", algo::RunCcOpt(g).label,
      [&](const auto& l) { return CheckComponents(*g, l); },
      [&](auto& l) {
        // Relabel one isolated vertex into u's component.
        for (VertexId v = 0; v < g->NumVertices(); ++v) {
          if (g->Degree(v) == 0) {
            l[v] = l[u];
            return;
          }
        }
        l[u] = static_cast<VertexId>(g->NumVertices());  // Split u off.
      });

  ExpectCatches(
      "pagerank rank perturbed", algo::RunPageRank(g, 5).rank,
      [&](const auto& r) { return CheckPageRank(*g, 5, r); },
      [&](auto& r) { r[u] += 1e-6; });

  ExpectCatches(
      "adjacent vertices share a colour", algo::RunGraphColoring(g).color,
      [&](const auto& c) { return CheckColoring(*g, c); },
      [&](auto& c) { c[w] = c[u]; });

  RuntimeOptions walk_options;
  walk_options.num_walkers = 512;
  walk_options.walk_length = 8;
  walks::WalkResult walk = walks::WalkEngine(g, walk_options).Run({});
  ExpectCatches(
      "walk hop that is not an edge", walk,
      [&](const walks::WalkResult& r) {
        return CheckWalks(*g, 8, r.traces, r.visits);
      },
      [&](walks::WalkResult& r) {
        // Re-point one hop at a vertex that is not a neighbour, and keep
        // the visit counts consistent so only the edge check can object.
        for (auto& trace : r.traces) {
          if (trace.size() < 2) continue;
          for (VertexId x = 0; x < g->NumVertices(); ++x) {
            if (x != trace[0] && !g->HasEdge(trace[0], x)) {
              --r.visits[trace[1]];
              ++r.visits[x];
              trace[1] = x;
              return;
            }
          }
        }
      });

  const VertexId ppr_source = u;
  RuntimeOptions ppr_options;
  ppr_options.num_walkers = 2048;
  ppr_options.walk_length = 50;
  walks::WalkPprResult ppr = walks::RunWalkPpr(g, ppr_source, ppr_options);
  ExpectCatches(
      "walk-ppr mass moved far from the source", ppr,
      [&](const walks::WalkPprResult& r) {
        return CheckWalkPpr(*g, ppr_source, 2048, 50, r.rank, r.visits,
                            r.total_visits);
      },
      [&](walks::WalkPprResult& r) {
        // Move 0.01 of the source's mass to the reachable vertex farthest
        // from it, whose true rank is near 0; visits stay consistent.
        const auto d = reference::BfsDistances(*g, ppr_source);
        VertexId far = ppr_source;
        for (VertexId v = 0; v < g->NumVertices(); ++v) {
          if (d[v] != reference::kUnreachable && d[v] > d[far]) far = v;
        }
        r.rank[ppr_source] -= 0.01;
        r.rank[far] += 0.01;
      });

  // Serving: replay a handful of queries, check every answer, then change
  // one answer of each kind.
  serving::ServerOptions server_options;
  serving::Server server(g, RuntimeOptions{}, server_options);
  std::vector<serving::Query> queries(4);
  queries[0].kind = serving::QueryKind::kBfsDistance;
  queries[1].kind = serving::QueryKind::kKHop;
  queries[1].k = 2;
  queries[2].kind = serving::QueryKind::kLandmark;
  queries[3].kind = serving::QueryKind::kPpr;
  for (serving::Query& q : queries) {
    q.source = u;
    q.target = w;
    Expect(server.Submit(q, 0.0).ok(), "serving query admitted");
  }
  server.Drain();
  ServingOracle oracle(*g, server_options.ppr_eps);
  const double wrong_by[] = {1.0, 1.0, -1.0, 1e-3};
  for (const serving::Answer& a : server.answers()) {
    const serving::Query& q = queries[a.query_id];
    const std::string kind = serving::QueryKindName(q.kind);
    Expect(oracle.Check(q, a.value).empty(),
           "serving " + kind + ": correct answer passes");
    const std::string why = oracle.Check(q, a.value + wrong_by[a.query_id]);
    Expect(!why.empty(), "serving " + kind + ": wrong answer fails (" + why +
                             ")");
  }
}

obs::Span MakeSpan(const char* name, int worker, uint64_t begin_us,
                   uint64_t end_us) {
  obs::Span s;
  s.name = name;
  s.worker = static_cast<int16_t>(worker);
  s.begin_ns = begin_us * 1000;
  s.end_ns = end_us * 1000;
  return s;
}

/// A hand-made trace of one call. The per-worker slices of a phase and the
/// bus channels repeat host-lane spans and must add nothing; overlapping
/// block reads count once and come out of the phase they ran in; the
/// unlisted ckpt:snapshot keeps its own time to itself.
void SelfTimeTests() {
  const int host = obs::kHostLane;
  std::vector<obs::Span> spans = {
      MakeSpan("bench:call", host, 0, 1000),
      MakeSpan("step:edgemap_dense", host, 100, 900),
      MakeSpan("dense:scan", host, 100, 500),
      MakeSpan("storage:block_read", 0, 200, 300),
      MakeSpan("storage:block_read", 0, 250, 350),
      MakeSpan("bus:exchange", host, 500, 700),
      MakeSpan("bus:channel", 1, 520, 600),
      MakeSpan("ckpt:snapshot", host, 900, 1000),
      MakeSpan("walk:shuffle", 2, 920, 960),
  };
  for (int w = 0; w < 4; ++w) {
    spans.push_back(MakeSpan("dense:scan", w, 100, 480));
  }
  Values got;
  AddSelfTimes(spans, got);
  const Values want = {
      {"core.call_self_s", 100e-6},
      {"core.step.edgemap_dense_self_s", 200e-6},
      {"core.phase.dense_scan_self_s", 250e-6},
      {"storage.block_read_self_s", 150e-6},
      {"flashware.exchange_self_s", 200e-6},
      {"walks.shuffle_self_s", 40e-6},
  };
  bool same = got.size() == want.size();
  for (const auto& [metric, seconds] : want) {
    auto it = got.find(metric);
    same = same && it != got.end() && std::fabs(it->second - seconds) < 1e-12;
  }
  std::string seen;
  for (const auto& [metric, seconds] : got) {
    seen += " " + metric + "=" + std::to_string(seconds * 1e6) + "us";
  }
  Expect(same, "self times split the call's wall time:" + seen);
}

void SmokeRuns(const std::string& tmp_dir) {
  const Timer since_start;
  for (const std::string& name : WorkloadNames()) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = name;
      options.seed = 3;
      options.seconds = 0;  // One round (one pair when traced).
      options.trace = trace;
      options.tiny = true;
      options.tmp_dir = tmp_dir;
      const std::string label =
          "smoke " + name + (trace ? " traced" : " untraced");
      auto report = RunWorkload(options, since_start);
      if (!report.ok()) {
        Expect(false, label + ": " + report.status().ToString());
        continue;
      }
      const RunReport& r = report.value();
      for (const std::string& e : r.errors) std::printf("  %s\n", e.c_str());
      Expect(r.correct && r.failed == 0 && r.attempted > 0,
             label + ": " + std::to_string(r.attempted) + " operations, " +
                 std::to_string(r.failed) + " failed");
      const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
      bool complete = r.metrics.size() == specs.size();
      for (const MetricSpec& m : specs) {
        auto it = r.metrics.find(m.name);
        complete = complete && it != r.metrics.end() &&
                   std::isfinite(it->second) && (trace || it->second > 0);
      }
      Expect(complete, label + ": every metric present" +
                           (trace ? "" : " and above 0"));
      if (trace) {
        // One traced round: its self times cannot exceed its call time.
        double self = 0;
        for (const auto& [span, metric] : SelfTimeMetrics()) {
          self += r.metrics.at(metric);
        }
        const double calls = r.metrics.at("obs.run_s_traced");
        Expect(self > 0 && self <= calls,
               label + ": self times " + std::to_string(self) +
                   " s within call time " + std::to_string(calls) + " s");
      }
    }
  }
  bool leftover = false;
  for (const auto& entry : std::filesystem::directory_iterator(tmp_dir)) {
    leftover |= entry.path().extension() == ".blk";
  }
  Expect(!leftover, "paged block file removed");
}

}  // namespace
}  // namespace flash::perfbench

int main(int argc, char** argv) {
  std::string tmp_dir = ".";
  if (argc == 3 && std::string(argv[1]) == "--tmp-dir") tmp_dir = argv[2];
  flash::perfbench::NegativeTests();
  flash::perfbench::SelfTimeTests();
  flash::perfbench::SmokeRuns(tmp_dir);
  std::printf("%s: %d failure(s)\n",
              flash::perfbench::g_failures == 0 ? "OK" : "FAILED",
              flash::perfbench::g_failures);
  return flash::perfbench::g_failures == 0 ? 0 : 1;
}
