#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "algorithms/algorithms.h"
#include "checks.h"
#include "common/hash.h"
#include "common/random.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "serving/arrivals.h"
#include "serving/server.h"
#include "walks/walk_algorithms.h"
#include "walks/walk_engine.h"

namespace flash::perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"run_s", "s"},
      {"modelled_s", "s"},       {"wire_bytes", "bytes"},
      {"wire_messages", "count"}, {"barriers", "count"},
      {"peak_rss_bytes", "bytes"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m = {
        {"graph.generate_s", "s"},
        {"graph.partition_s", "s"},
        {"graph.replication_factor", "ratio"},
        {"graph.cut_edges", "count"},
        {"storage.blockfile_write_s", "s"},
        {"storage.blockfile_open_s", "s"},
        {"storage.file_bytes", "bytes"},
        {"storage.bytes_read", "bytes"},
        {"storage.blocks_read", "count"},
        {"storage.decode_bytes", "bytes"},
        {"storage.demand_misses", "count"},
        {"storage.evictions", "count"},
        {"storage.prefetch_issued", "count"},
        {"storage.peak_resident_bytes", "bytes"},
        {"storage.block_hit_ratio", "ratio"},
        {"algorithms.bfs.bsp_s", "s"},
        {"algorithms.pagerank.bsp_s", "s"},
        {"algorithms.ccopt.bsp_s", "s"},
        {"algorithms.gc.bsp_s", "s"},
        {"algorithms.bfs.async_s", "s"},
        {"algorithms.sssp.bsp_s", "s"},
        {"algorithms.sssp.async_s", "s"},
        {"algorithms.cc.bsp_s", "s"},
        {"algorithms.cc.async_s", "s"},
        {"algorithms.bfs.paged_s", "s"},
        {"algorithms.pagerank.paged_s", "s"},
        {"algorithms.deepwalk.paged_s", "s"},
        {"algorithms.walkppr.paged_s", "s"},
        {"core.supersteps", "count"},
        {"core.dense_steps", "count"},
        {"core.sparse_steps", "count"},
        {"core.edges_scanned", "count"},
        {"core.vertices_updated", "count"},
        {"core.masters_committed", "count"},
        {"core.compute_s", "s"},
        {"core.unattributed_s", "s"},
        {"core.async.rounds", "count"},
        {"core.async.token_sweeps", "count"},
        {"core.async.relaxations", "count"},
        {"core.async.bucket_inserts", "count"},
        {"core.async.msgs_sent", "count"},
        {"flashware.comm_s", "s"},
        {"flashware.serialize_s", "s"},
        {"flashware.bytes_per_message", "bytes"},
        {"flashware.wire_pool_peak_bytes", "bytes"},
        {"flashware.model.compute_s", "s"},
        {"flashware.model.comm_s", "s"},
        {"flashware.model.serialize_s", "s"},
        {"flashware.model.other_s", "s"},
        {"flashware.model.io_s", "s"},
        {"flashware.model.decode_s", "s"},
        {"walks.walker_steps", "count"},
        {"walks.walker_steps_per_s", "1/s"},
        {"walks.walkers_shipped", "count"},
        {"walks.frame_bytes", "bytes"},
        {"walks.shuffle_entries", "count"},
        {"serving.answered", "count"},
        {"serving.batches", "count"},
        {"serving.mean_batch_width", "count"},
        {"serving.engine_passes", "count"},
        {"serving.cache_hit_ratio", "ratio"},
        {"serving.latency_p50_s", "s"},
        {"serving.latency_p99_s", "s"},
        {"serving.queries_per_s", "1/s"},
        {"obs.run_s_untraced", "s"},
        {"obs.run_s_traced", "s"},
        {"obs.trace_overhead", "ratio"},
        {"obs.spans", "count"},
    };
    for (const auto& [span, metric] : SelfTimeMetrics()) {
      m.push_back({metric.c_str(), "s"});
    }
    return m;
  }();
  return kMetrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "social-bsp", "road-async", "paged-walks", "serve-mixed"};
  return kNames;
}

namespace {

constexpr int kWorkers = 4;

template <typename T>
uint64_t Digest(const std::vector<T>& values) {
  return Fnv1a64(values.data(), values.size() * sizeof(T));
}

uint64_t Digest(const std::vector<std::vector<VertexId>>& traces) {
  uint64_t h = Fnv1a64(nullptr, 0);
  for (const auto& trace : traces) {
    h = Fnv1a64(trace.data(), trace.size() * sizeof(VertexId), h);
    h = Fnv1a64(&h, sizeof(h), h);  // Separates consecutive traces.
  }
  return h;
}

int DefaultHostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, kWorkers);
}

double PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Per-key medians over rounds (a key missing from a round counts as 0).
Values Medians(const std::vector<Values>& rounds) {
  std::set<std::string> keys;
  for (const Values& r : rounds) {
    for (const auto& kv : r) keys.insert(kv.first);
  }
  Values out;
  for (const std::string& key : keys) {
    std::vector<double> column;
    for (const Values& r : rounds) {
      auto it = r.find(key);
      column.push_back(it == r.end() ? 0.0 : it->second);
    }
    out[key] = Median(std::move(column));
  }
  return out;
}

/// The sum, over the calls of a round, of each call's fastest time over
/// `rounds` (the calls' wall-clock seconds, in round order; every round
/// makes the same calls). Other tenants of a shared host slow whole
/// stretches of seconds: a single-threaded road-async round took from
/// 0.62 s to 1.14 s within one 150 s process, and a pool thread that the
/// host deschedules stalls every barrier it meets, so a round's time, even
/// the fastest round's, depends on how much of the run such stretches
/// cover. Each call's best time needs only one fast moment of its own. A
/// slower program slows every call, its fastest run too.
double BestCallsSeconds(const std::vector<std::vector<double>>& rounds) {
  double total = 0;
  for (size_t k = 0; k < rounds.front().size(); ++k) {
    double best = rounds.front()[k];
    for (const auto& round : rounds) best = std::min(best, round[k]);
    total += best;
  }
  return total;
}

/// `count` distinct vertices with at least one edge, drawn from `seed`.
std::vector<VertexId> PickVertices(const Graph& graph, size_t count,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> picked;
  std::set<VertexId> seen;
  while (picked.size() < count) {
    const auto v = static_cast<VertexId>(rng.Uniform(graph.NumVertices()));
    if (graph.Degree(v) > 0 && seen.insert(v).second) picked.push_back(v);
  }
  return picked;
}

/// The ledger of one round. Every engine call goes through Call(), which
/// times it, folds the Metrics it returns into the round's sums, and on a
/// traced round arms a fresh span tracer, wraps the call in a bench span
/// and adds the spans' self times.
class Job {
 public:
  Job(RuntimeOptions base, GraphStorage* paged, bool traced)
      : base_(std::move(base)), paged_(paged), traced_(traced) {
    cluster_.nodes = base_.num_workers;
  }

  /// Runs fn(RuntimeOptions) and accounts the returned result's .metrics;
  /// `metric` (may be null) also receives the call's wall-clock seconds,
  /// reported as a mean per call.
  template <typename Fn>
  auto Call(const char* metric, Fn&& fn) {
    RuntimeOptions options = base_;
    std::shared_ptr<obs::Tracer> tracer;
    if (traced_) {
      tracer = std::make_shared<obs::Tracer>();
      options.trace = true;
      options.tracer = tracer;
    }
    const StorageStats before = paged_ ? paged_->stats() : StorageStats{};
    Timer timer;
    auto result = [&] {
      OBS_SPAN(tracer.get(), "bench:call", obs::SpanKind::kPhase);
      return fn(options);
    }();
    last_seconds_ = timer.Seconds();
    // The paged backend keeps the run's raw tracer pointer after the run,
    // and the next run's partition pass pages blocks before the engine
    // re-points it, so it must not outlive this call's tracer.
    if (paged_ != nullptr && tracer != nullptr) paged_->SetTracer(nullptr);
    call_seconds_.push_back(last_seconds_);
    if (metric != nullptr) {
      sums_[metric] += last_seconds_;
      ++calls_[metric];
    }
    Account(result.metrics, before, tracer.get());
    return result;
  }

  /// Records one operation's output digest, in round order.
  void Op(uint64_t digest) { digests_.push_back(digest); }

  double last_seconds() const { return last_seconds_; }
  Values& sums() { return sums_; }
  const std::vector<uint64_t>& digests() const { return digests_; }
  /// Wall-clock seconds of each call, in call order.
  const std::vector<double>& call_seconds() const { return call_seconds_; }

  /// The round's metrics: sums, per-call means and the derived ratios.
  Values Finish() const {
    Values v = sums_;
    for (const auto& [metric, n] : calls_) v[metric] = sums_.at(metric) / n;
    const auto get = [&](const char* key) {
      auto it = sums_.find(key);
      return it == sums_.end() ? 0.0 : it->second;
    };
    if (get("wire_messages") > 0) {
      v["flashware.bytes_per_message"] =
          get("wire_bytes") / get("wire_messages");
    }
    if (get("storage.accesses") > 0) {
      v["storage.block_hit_ratio"] =
          1.0 - get("storage.demand_misses") / get("storage.accesses");
    }
    if (get("walks.call_s") > 0) {
      v["walks.walker_steps_per_s"] =
          get("walks.walker_steps") / get("walks.call_s");
    }
    return v;
  }

 private:
  void Account(const Metrics& m, const StorageStats& before,
               obs::Tracer* tracer) {
    const double seconds = last_seconds_;
    sums_["run_s"] += seconds;
    const ModeledTime model = ModelTime(m, cluster_);
    sums_["modelled_s"] += model.total;
    sums_["flashware.model.compute_s"] += model.compute;
    sums_["flashware.model.comm_s"] += model.comm;
    sums_["flashware.model.serialize_s"] += model.serialize;
    sums_["flashware.model.other_s"] += model.other;
    sums_["flashware.model.io_s"] += model.io;
    sums_["flashware.model.decode_s"] += model.decode;
    sums_["wire_bytes"] += m.bytes;
    sums_["wire_messages"] += m.messages;
    sums_["barriers"] += m.supersteps + m.async.token_sweeps;
    sums_["core.supersteps"] += m.supersteps;
    sums_["core.dense_steps"] += m.dense_steps;
    sums_["core.sparse_steps"] += m.sparse_steps;
    sums_["core.edges_scanned"] += m.edges_scanned;
    sums_["core.vertices_updated"] += m.vertices_updated;
    sums_["core.masters_committed"] += m.masters_committed;
    sums_["core.compute_s"] += m.compute_seconds;
    sums_["flashware.comm_s"] += m.comm_seconds;
    sums_["flashware.serialize_s"] += m.serialize_seconds;
    sums_["core.unattributed_s"] +=
        seconds - (m.compute_seconds + m.comm_seconds + m.serialize_seconds);
    double& pool_peak = sums_["flashware.wire_pool_peak_bytes"];
    pool_peak = std::max(pool_peak, static_cast<double>(m.wire_pool_peak_bytes));
    sums_["core.async.rounds"] += m.async.rounds;
    sums_["core.async.token_sweeps"] += m.async.token_sweeps;
    sums_["core.async.relaxations"] += m.async.relaxations;
    sums_["core.async.bucket_inserts"] += m.async.bucket_inserts;
    sums_["core.async.msgs_sent"] += m.async.msgs_sent;
    if (m.walks.walkers > 0) {
      sums_["walks.call_s"] += seconds;
      sums_["walks.walker_steps"] += m.walks.walker_steps;
      sums_["walks.walkers_shipped"] += m.walks.walkers_shipped;
      sums_["walks.frame_bytes"] += m.walks.frame_bytes;
      sums_["walks.shuffle_entries"] += m.walks.shuffle_entries;
    }
    if (paged_ != nullptr) {
      const StorageStats after = paged_->stats();
      sums_["storage.accesses"] += after.accesses - before.accesses;
      sums_["storage.bytes_read"] += after.bytes_read - before.bytes_read;
      sums_["storage.blocks_read"] += after.blocks_read - before.blocks_read;
      sums_["storage.decode_bytes"] += after.decode_bytes - before.decode_bytes;
      sums_["storage.demand_misses"] +=
          after.demand_misses - before.demand_misses;
      sums_["storage.evictions"] += after.evictions - before.evictions;
      sums_["storage.prefetch_issued"] +=
          after.prefetch_issued - before.prefetch_issued;
      sums_["storage.peak_resident_bytes"] =
          static_cast<double>(after.peak_resident_bytes);
    }
    if (tracer != nullptr) {
      tracer->Fold();
      AddSelfTimes(tracer->spans(), sums_);
      sums_["obs.spans"] += static_cast<double>(tracer->spans().size());
    }
  }

  RuntimeOptions base_;
  GraphStorage* paged_;
  bool traced_;
  ClusterConfig cluster_;
  Values sums_;
  std::map<std::string, int> calls_;
  std::vector<uint64_t> digests_;
  std::vector<double> call_seconds_;
  double last_seconds_ = 0;
};

/// One workload: inputs built once by Setup(), then whole rounds of the
/// same operations. The first round keeps its outputs for Verify(); every
/// later round must reproduce the first round's output digests.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs; records graph.* / storage.* set-up metrics.
  virtual Status Setup(Values& setup) = 0;
  /// The paged backend whose lifetime counters the calls advance, if any.
  virtual GraphStorage* paged_storage() const { return nullptr; }
  virtual void Round(Job& job, bool keep) = 0;
  /// One verdict per operation of a round, in order; "" = correct.
  virtual std::vector<std::string> Verify() = 0;
  /// Whole-run invariants (not tied to one operation); "" = hold.
  virtual std::string VerifyRun() { return ""; }
};

Status RecordPartition(const GraphPtr& graph, Values& setup) {
  Timer timer;
  FLASH_ASSIGN_OR_RETURN(Partition part, Partition::Create(graph, kWorkers));
  setup["graph.partition_s"] = timer.Seconds();
  setup["graph.replication_factor"] =
      1.0 + static_cast<double>(part.TotalMirrors()) / graph->NumVertices();
  setup["graph.cut_edges"] = static_cast<double>(part.CutEdges(*graph));
  return Status::OK();
}

RmatOptions SocialRmat(int scale, uint64_t seed) {
  RmatOptions opt;
  opt.scale = scale;
  opt.avg_degree = 16.0;
  opt.seed = seed;
  return opt;
}

Result<GraphPtr> GenerateTimed(const RmatOptions& opt, Values& setup) {
  Timer timer;
  FLASH_ASSIGN_OR_RETURN(GraphPtr graph, GenerateRmat(opt));
  setup["graph.generate_s"] = timer.Seconds();
  return graph;
}

// --- social-bsp -------------------------------------------------------------

/// In-memory R-MAT social graph under BSP: multi-root BFS, PageRank,
/// CC-opt and graph colouring. Dense pull sweeps and mirror sync make the
/// compute kernels and the wire codec do the work.
class SocialBsp final : public Workload {
 public:
  explicit SocialBsp(const RunOptions& o)
      : seed_(o.seed),
        scale_(o.tiny ? 9 : 13),
        num_roots_(o.tiny ? 2 : 48),
        pr_iters_(o.tiny ? 5 : 60) {}

  Status Setup(Values& setup) override {
    FLASH_ASSIGN_OR_RETURN(graph_,
                           GenerateTimed(SocialRmat(scale_, seed_), setup));
    FLASH_RETURN_NOT_OK(RecordPartition(graph_, setup));
    roots_ = PickVertices(*graph_, num_roots_, CounterMix(seed_, 0xBF5));
    return Status::OK();
  }

  void Round(Job& job, bool keep) override {
    for (VertexId root : roots_) {
      auto r = job.Call("algorithms.bfs.bsp_s", [&](const RuntimeOptions& o) {
        return algo::RunBfs(graph_, root, o);
      });
      job.Op(Digest(r.distance));
      if (keep) bfs_.push_back(std::move(r.distance));
    }
    auto pr = job.Call("algorithms.pagerank.bsp_s",
                       [&](const RuntimeOptions& o) {
                         return algo::RunPageRank(graph_, pr_iters_, o);
                       });
    job.Op(Digest(pr.rank));
    auto cc = job.Call("algorithms.ccopt.bsp_s", [&](const RuntimeOptions& o) {
      return algo::RunCcOpt(graph_, o);
    });
    job.Op(Digest(cc.label));
    auto gc = job.Call("algorithms.gc.bsp_s", [&](const RuntimeOptions& o) {
      return algo::RunGraphColoring(graph_, o);
    });
    job.Op(Digest(gc.color));
    if (keep) {
      rank_ = std::move(pr.rank);
      label_ = std::move(cc.label);
      color_ = std::move(gc.color);
    }
  }

  std::vector<std::string> Verify() override {
    std::vector<std::string> v;
    for (size_t i = 0; i < roots_.size(); ++i) {
      v.push_back(CheckBfs(*graph_, roots_[i], bfs_[i]));
    }
    v.push_back(CheckPageRank(*graph_, pr_iters_, rank_));
    v.push_back(CheckComponents(*graph_, label_));
    v.push_back(CheckColoring(*graph_, color_));
    return v;
  }

 private:
  uint64_t seed_;
  int scale_;
  size_t num_roots_;
  int pr_iters_;
  GraphPtr graph_;
  std::vector<VertexId> roots_;
  std::vector<std::vector<uint32_t>> bfs_;
  std::vector<double> rank_;
  std::vector<VertexId> label_;
  std::vector<uint32_t> color_;
};

// --- road-async -------------------------------------------------------------

/// High-diameter weighted road grid: BFS, SSSP and CC under BSP and async
/// from both ends of the strip. Thousands of barriers with tiny frontiers
/// make per-superstep fixed cost and the async scheduler do the work. The
/// grid's shape is fixed; the seed perturbs only the edge weights.
class RoadAsync final : public Workload {
 public:
  explicit RoadAsync(const RunOptions& o)
      : seed_(o.seed),
        diameter_(o.tiny ? 32 : 512),
        width_(o.tiny ? 4 : 16) {}

  Status Setup(Values& setup) override {
    RoadGridOptions opt;
    opt.target_diameter = diameter_;
    opt.width = width_;
    opt.weighted = true;
    opt.seed = seed_;
    Timer timer;
    FLASH_ASSIGN_OR_RETURN(graph_, MakeRoadGrid(opt));
    setup["graph.generate_s"] = timer.Seconds();
    FLASH_RETURN_NOT_OK(RecordPartition(graph_, setup));
    sources_ = {0, graph_->NumVertices() - 1};
    return Status::OK();
  }

  void Round(Job& job, bool keep) override {
    static constexpr ExecutionMode kModes[] = {ExecutionMode::kBsp,
                                               ExecutionMode::kAsync};
    for (VertexId source : sources_) {
      for (ExecutionMode mode : kModes) {
        const bool bsp = mode == ExecutionMode::kBsp;
        auto bfs = job.Call(
            bsp ? "algorithms.bfs.bsp_s" : "algorithms.bfs.async_s",
            [&](RuntimeOptions o) {
              o.execution_mode = mode;
              return algo::RunBfs(graph_, source, o);
            });
        job.Op(Digest(bfs.distance));
        auto sssp = job.Call(
            bsp ? "algorithms.sssp.bsp_s" : "algorithms.sssp.async_s",
            [&](RuntimeOptions o) {
              o.execution_mode = mode;
              return algo::RunSssp(graph_, source, o);
            });
        job.Op(Digest(sssp.distance));
        if (keep) {
          bfs_.push_back(std::move(bfs.distance));
          sssp_.push_back(std::move(sssp.distance));
        }
      }
    }
    for (ExecutionMode mode : kModes) {
      auto cc = job.Call(mode == ExecutionMode::kBsp ? "algorithms.cc.bsp_s"
                                                     : "algorithms.cc.async_s",
                         [&](RuntimeOptions o) {
                           o.execution_mode = mode;
                           return algo::RunCcBasic(graph_, o);
                         });
      job.Op(Digest(cc.label));
      if (keep) cc_.push_back(std::move(cc.label));
    }
  }

  std::vector<std::string> Verify() override {
    std::vector<std::string> v;
    size_t i = 0;
    for (VertexId source : sources_) {
      for (int mode = 0; mode < 2; ++mode, ++i) {
        v.push_back(CheckBfs(*graph_, source, bfs_[i]));
        v.push_back(CheckSssp(*graph_, source, sssp_[i]));
      }
    }
    for (const auto& label : cc_) v.push_back(CheckComponents(*graph_, label));
    return v;
  }

 private:
  uint64_t seed_;
  uint32_t diameter_;
  uint32_t width_;
  GraphPtr graph_;
  std::vector<VertexId> sources_;
  std::vector<std::vector<uint32_t>> bfs_;
  std::vector<std::vector<float>> sssp_;
  std::vector<std::vector<VertexId>> cc_;
};

// --- paged-walks ------------------------------------------------------------

/// R-MAT graph in a delta-coded block file behind a block cache far smaller
/// than the file: multi-root BFS and PageRank over paged storage, then
/// DeepWalk and walk-PPR. Block reads, decode, the walk shuffle and walker
/// frames do the work.
class PagedWalks final : public Workload {
 public:
  explicit PagedWalks(const RunOptions& o)
      : seed_(o.seed),
        scale_(o.tiny ? 9 : 16),
        num_roots_(o.tiny ? 2 : 4),
        pr_iters_(o.tiny ? 3 : 5),
        deepwalk_walkers_(o.tiny ? 1024 : (1u << 17)),
        ppr_walkers_(o.tiny ? 2048 : (1u << 16)),
        cache_bytes_(o.tiny ? (16u << 10) : (1u << 20)),
        path_(o.tmp_dir + "/perfbench-" + std::to_string(getpid()) + ".blk") {
  }

  ~PagedWalks() override {
    // Dropping the last reference joins the backend's prefetch thread.
    graph_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  Status Setup(Values& setup) override {
    GraphPtr memory;
    FLASH_ASSIGN_OR_RETURN(memory,
                           GenerateTimed(SocialRmat(scale_, seed_), setup));
    FLASH_RETURN_NOT_OK(RecordPartition(memory, setup));
    Timer write;
    BlockFileOptions file;
    file.codec = BlockCodec::kDelta;
    FLASH_RETURN_NOT_OK(SaveBlockFile(*memory, path_, file));
    setup["storage.blockfile_write_s"] = write.Seconds();
    memory.reset();  // Only the paged copy stays resident.
    Timer open;
    PagedOptions paged;
    paged.cache_bytes = cache_bytes_;
    Result<GraphPtr> opened = OpenPagedGraph(path_, paged);
    if (!opened.ok()) return opened.status();
    graph_ = std::move(opened).value();
    setup["storage.blockfile_open_s"] = open.Seconds();
    setup["storage.file_bytes"] =
        static_cast<double>(std::filesystem::file_size(path_));
    roots_ = PickVertices(*graph_, num_roots_, CounterMix(seed_, 0xBF5));
    ppr_source_ = PickVertices(*graph_, 1, CounterMix(seed_, 0x99))[0];
    return Status::OK();
  }

  GraphStorage* paged_storage() const override { return graph_->storage(); }

  void Round(Job& job, bool keep) override {
    for (VertexId root : roots_) {
      auto r = job.Call("algorithms.bfs.paged_s", [&](const RuntimeOptions& o) {
        return algo::RunBfs(graph_, root, o);
      });
      job.Op(Digest(r.distance));
      if (keep) bfs_.push_back(std::move(r.distance));
    }
    auto pr = job.Call("algorithms.pagerank.paged_s",
                       [&](const RuntimeOptions& o) {
                         return algo::RunPageRank(graph_, pr_iters_, o);
                       });
    job.Op(Digest(pr.rank));
    auto walk = job.Call("algorithms.deepwalk.paged_s", [&](RuntimeOptions o) {
      o.num_walkers = deepwalk_walkers_;
      o.walk_length = kDeepWalkLength;
      walks::WalkSpec spec;
      spec.seed = seed_;
      return walks::WalkEngine(graph_, o).Run(spec);
    });
    job.Op(Digest(walk.traces) ^ Digest(walk.visits));
    auto ppr = job.Call("algorithms.walkppr.paged_s", [&](RuntimeOptions o) {
      o.num_walkers = ppr_walkers_;
      o.walk_length = kPprWalkCap;
      return walks::RunWalkPpr(graph_, ppr_source_, o, 0.15, seed_);
    });
    job.Op(Digest(ppr.visits));
    if (keep) {
      rank_ = std::move(pr.rank);
      walks_ = std::move(walk.traces);
      walk_visits_ = std::move(walk.visits);
      ppr_rank_ = std::move(ppr.rank);
      ppr_visits_ = std::move(ppr.visits);
      ppr_total_ = ppr.total_visits;
    }
  }

  std::vector<std::string> Verify() override {
    // The oracles read an in-memory twin regenerated from the same seed.
    Result<GraphPtr> twin = GenerateRmat(SocialRmat(scale_, seed_));
    if (!twin.ok()) return {twin.status().ToString()};
    const Graph& g = *twin.value();
    std::vector<std::string> v;
    for (size_t i = 0; i < roots_.size(); ++i) {
      v.push_back(CheckBfs(g, roots_[i], bfs_[i]));
    }
    v.push_back(CheckPageRank(g, pr_iters_, rank_));
    v.push_back(CheckWalks(g, kDeepWalkLength, walks_, walk_visits_));
    v.push_back(CheckWalkPpr(g, ppr_source_, ppr_walkers_, kPprWalkCap,
                             ppr_rank_, ppr_visits_, ppr_total_));
    return v;
  }

 private:
  static constexpr uint32_t kDeepWalkLength = 20;
  /// Cap of a walk-PPR walker's geometric lifetime. At 50, some of the
  /// 2^16 walkers always live to the cap (0.85^50 * 2^16 ~ 19 expected),
  /// so every run takes exactly 50 walk steps, and the cut-off tail moves a
  /// rank far less than the Monte-Carlo bound (CheckWalkPpr).
  static constexpr uint32_t kPprWalkCap = 50;

  uint64_t seed_;
  int scale_;
  size_t num_roots_;
  int pr_iters_;
  uint64_t deepwalk_walkers_;
  uint64_t ppr_walkers_;
  uint64_t cache_bytes_;
  std::string path_;
  GraphPtr graph_;
  std::vector<VertexId> roots_;
  VertexId ppr_source_ = 0;
  std::vector<std::vector<uint32_t>> bfs_;
  std::vector<double> rank_;
  std::vector<std::vector<VertexId>> walks_;
  std::vector<uint64_t> walk_visits_;
  std::vector<double> ppr_rank_;
  std::vector<uint64_t> ppr_visits_;
  uint64_t ppr_total_ = 0;
};

// --- serve-mixed ------------------------------------------------------------

/// The serving front door over an in-memory social graph: a seeded log of
/// bfs-distance / k-hop / landmark / PPR queries from three tenants, offered
/// open-loop on the Poisson arrival clock (modelled time) below capacity.
/// Some (source, target) pairs repeat, so the result cache hits; a share of
/// the queries carry deadlines. The scheduler, the multi-source BFS core
/// and the result cache do the work.
class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const RunOptions& o)
      : seed_(o.seed),
        scale_(o.tiny ? 9 : 12),
        num_queries_(o.tiny ? 64 : 1000) {}

  Status Setup(Values& setup) override {
    FLASH_ASSIGN_OR_RETURN(graph_,
                           GenerateTimed(SocialRmat(scale_, seed_), setup));
    FLASH_RETURN_NOT_OK(RecordPartition(graph_, setup));
    MakeLog();
    options_.cluster.nodes = kWorkers;
    return Status::OK();
  }

  void Round(Job& job, bool keep) override {
    struct Replay {
      std::vector<double> value;  // By query id; NaN = shed.
      serving::ServingStats stats;
      Metrics metrics;
    };
    Replay replay = job.Call(nullptr, [&](const RuntimeOptions& o) {
      serving::Server server(graph_, o, options_);
      Replay r;
      r.value.assign(log_.size(), std::nan(""));
      for (size_t i = 0; i < log_.size(); ++i) {
        (void)server.Submit(log_[i], arrivals_[i]);  // Shed = NaN below.
      }
      server.Drain();
      for (const serving::Answer& a : server.answers()) {
        r.value[a.query_id] = a.value;
      }
      r.stats = server.stats();
      r.metrics = r.stats.engine_metrics;
      return r;
    });
    for (double value : replay.value) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      job.Op(bits);
    }
    const serving::ServingStats& s = replay.stats;
    Values& sums = job.sums();
    sums["serving.answered"] += s.answered;
    sums["serving.batches"] += s.batches;
    sums["serving.engine_passes"] += s.engine_passes;
    sums["serving.mean_batch_width"] =
        s.batches == 0 ? 0.0 : static_cast<double>(s.answered) / s.batches;
    const uint64_t cacheable = s.cache_hits + s.cache_misses;
    sums["serving.cache_hit_ratio"] =
        cacheable == 0 ? 0.0 : static_cast<double>(s.cache_hits) / cacheable;
    const LatencyStats latency = SummarizeLatencies(s.latencies);
    sums["serving.latency_p50_s"] = latency.p50;
    sums["serving.latency_p99_s"] = latency.p99;
    sums["serving.queries_per_s"] = s.answered / job.last_seconds();
    if (keep) {
      values_ = std::move(replay.value);
      submitted_ = s.submitted;
      answered_ = s.answered;
      shed_ = s.shed;
    }
  }

  std::vector<std::string> Verify() override {
    ServingOracle oracle(*graph_, options_.ppr_eps);
    std::vector<std::string> v;
    for (size_t i = 0; i < log_.size(); ++i) {
      v.push_back(std::isnan(values_[i]) ? "query shed"
                                         : oracle.Check(log_[i], values_[i]));
    }
    return v;
  }

  std::string VerifyRun() override {
    if (answered_ + shed_ != submitted_ || submitted_ != log_.size()) {
      return "serving: answered + shed != submitted";
    }
    return "";
  }

 private:
  /// Offered rate in modelled queries per second: the modelled executor is
  /// busy about half of the time at 2^12 vertices, so nothing is shed.
  static constexpr double kOfferedQps = 600.0;
  /// Deadline carried by a share of the queries, in modelled seconds.
  static constexpr double kDeadlineS = 0.004;

  /// The log holds exact shares of each kind (50 / 25 / 20 / 5), of
  /// repeats (every 4th bfs-distance or landmark query after the first
  /// reuses an earlier pair of its kind) and of deadlines (every 5th query),
  /// in a seeded order: the seed moves which vertices and when, not how
  /// much work of each kind there is.
  void MakeLog() {
    using serving::QueryKind;
    static const char* const kTenants[] = {"web", "mobile", "batch"};
    Rng rng(CounterMix(seed_, 0x5E7E));
    const VertexId n = graph_->NumVertices();
    const auto any_vertex = [&] {
      while (true) {
        const auto v = static_cast<VertexId>(rng.Uniform(n));
        if (graph_->Degree(v) > 0) return v;
      }
    };
    std::vector<QueryKind> kinds;
    for (size_t i = 0; i < num_queries_; ++i) {
      const size_t slot = i % 20;
      kinds.push_back(slot < 10   ? QueryKind::kBfsDistance
                      : slot < 15 ? QueryKind::kKHop
                      : slot < 19 ? QueryKind::kLandmark
                                  : QueryKind::kPpr);
    }
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.Uniform(i)]);
    }
    std::vector<std::pair<VertexId, VertexId>> seen[serving::kNumQueryKinds];
    size_t of_kind[serving::kNumQueryKinds] = {};
    for (size_t i = 0; i < num_queries_; ++i) {
      serving::Query q;
      q.kind = kinds[i];
      const auto kind = static_cast<int>(q.kind);
      const size_t nth = of_kind[kind]++;
      q.tenant = kTenants[i % 3];
      auto& pairs = seen[kind];
      const bool cached_kind = q.kind == QueryKind::kBfsDistance ||
                               q.kind == QueryKind::kLandmark;
      if (cached_kind && nth % 4 == 3) {
        std::tie(q.source, q.target) = pairs[rng.Uniform(pairs.size())];
      } else {
        q.source = any_vertex();
        q.target = any_vertex();
        pairs.emplace_back(q.source, q.target);
      }
      q.k = 1 + static_cast<uint32_t>(nth % 3);
      if (i % 5 == 4) q.deadline_s = kDeadlineS;
      log_.push_back(q);
    }
    arrivals_ = serving::PoissonArrivalTimes(log_.size(), kOfferedQps,
                                             CounterMix(seed_, 0xA77));
  }

  uint64_t seed_;
  int scale_;
  size_t num_queries_;
  GraphPtr graph_;
  serving::ServerOptions options_;
  std::vector<serving::Query> log_;
  std::vector<double> arrivals_;
  std::vector<double> values_;
  uint64_t submitted_ = 0;
  uint64_t answered_ = 0;
  uint64_t shed_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& o) {
  if (o.workload == "social-bsp") return std::make_unique<SocialBsp>(o);
  if (o.workload == "road-async") return std::make_unique<RoadAsync>(o);
  if (o.workload == "paged-walks") return std::make_unique<PagedWalks>(o);
  if (o.workload == "serve-mixed") return std::make_unique<ServeMixed>(o);
  return nullptr;
}

bool IsTracedMetric(const std::string& name) {
  return name == "obs.spans" ||
         (name.size() > 7 && name.compare(name.size() - 7, 7, "_self_s") == 0);
}

}  // namespace

Result<RunReport> RunWorkload(const RunOptions& options,
                              const Timer& since_start) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  Values setup;
  FLASH_RETURN_NOT_OK(workload->Setup(setup));
  setup["setup_s"] = since_start.Seconds();

  RuntimeOptions base;
  base.num_workers = kWorkers;
  base.host_threads =
      options.host_threads > 0 ? options.host_threads : DefaultHostThreads();
  std::vector<Values> untraced;
  std::vector<Values> traced;
  std::vector<std::vector<double>> untraced_calls;
  std::vector<std::vector<double>> traced_calls;
  std::vector<std::vector<uint64_t>> digests;
  Timer clock;
  for (int round = 0;; ++round) {
    // A traced run alternates untraced and traced rounds, so both see the
    // same drift of the host; it always ends on a traced round.
    const bool traced_round = options.trace && round % 2 == 1;
    Job job(base, workload->paged_storage(), traced_round);
    workload->Round(job, round == 0);
    (traced_round ? traced : untraced).push_back(job.Finish());
    (traced_round ? traced_calls : untraced_calls)
        .push_back(job.call_seconds());
    digests.push_back(job.digests());
    if (clock.Seconds() >= options.seconds &&
        (!options.trace || traced_round)) {
      break;
    }
  }
  const double peak_rss = PeakRssBytes();

  RunReport report;
  const std::vector<std::string> verdicts = workload->Verify();
  for (const auto& round : digests) {
    for (size_t k = 0; k < round.size(); ++k) {
      ++report.attempted;
      std::string why = k < verdicts.size() ? verdicts[k] : "no verdict";
      if (why.empty() && round[k] != digests[0][k]) {
        why = "output differs from the first round";
      }
      if (!why.empty()) {
        ++report.failed;
        if (report.errors.size() < 5) report.errors.push_back(why);
      }
    }
  }
  if (const std::string why = workload->VerifyRun(); !why.empty()) {
    report.correct = false;
    report.errors.push_back(why);
  }

  const Values plain = Medians(untraced);
  const auto lookup = [](const Values& v, const std::string& key) {
    auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  };
  if (!options.trace) {
    for (const MetricSpec& m : EndToEndMetrics()) {
      report.metrics[m.name] = lookup(plain, m.name);
    }
    report.metrics["setup_s"] = setup["setup_s"];
    report.metrics["run_s"] = BestCallsSeconds(untraced_calls);
    report.metrics["peak_rss_bytes"] = peak_rss;
    return report;
  }
  const Values with_trace = Medians(traced);
  for (const MetricSpec& m : PerLayerMetrics()) {
    const std::string name = m.name;
    report.metrics[name] = setup.count(name) != 0 ? setup[name]
                           : IsTracedMetric(name) ? lookup(with_trace, name)
                                                  : lookup(plain, name);
  }
  const double run_plain = BestCallsSeconds(untraced_calls);
  const double run_traced = BestCallsSeconds(traced_calls);
  report.metrics["obs.run_s_untraced"] = run_plain;
  report.metrics["obs.run_s_traced"] = run_traced;
  report.metrics["obs.trace_overhead"] =
      run_plain > 0 ? run_traced / run_plain : 0.0;
  return report;
}

}  // namespace flash::perfbench
