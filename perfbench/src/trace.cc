#include "trace.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace flash::perfbench {

const std::map<std::string, std::string>& SelfTimeMetrics() {
  static const std::map<std::string, std::string> kMetrics = {
      {"bench:call", "core.call_self_s"},
      {"step:vertexmap", "core.step.vertexmap_self_s"},
      {"step:edgemap_dense", "core.step.edgemap_dense_self_s"},
      {"step:edgemap_sparse", "core.step.edgemap_sparse_self_s"},
      {"step:aggregate", "core.step.aggregate_self_s"},
      {"dense:scan", "core.phase.dense_scan_self_s"},
      {"dense:merge", "core.phase.dense_merge_self_s"},
      {"sparse:push", "core.phase.sparse_push_self_s"},
      {"sparse:flush", "core.phase.sparse_flush_self_s"},
      {"sparse:scan", "core.phase.sparse_scan_self_s"},
      {"sparse:decode", "core.phase.sparse_decode_self_s"},
      {"sparse:apply", "core.phase.sparse_apply_self_s"},
      {"reduce:map", "core.phase.reduce_map_self_s"},
      {"vmap:filter", "core.phase.vmap_filter_self_s"},
      {"vmap:merge", "core.phase.vmap_merge_self_s"},
      {"barrier:commit", "core.phase.barrier_commit_self_s"},
      {"barrier:apply", "core.phase.barrier_apply_self_s"},
      {"async:round", "core.async.round_self_s"},
      {"async:drain", "core.phase.async_drain_self_s"},
      {"async:apply", "core.phase.async_apply_self_s"},
      {"async:sync", "core.phase.async_sync_self_s"},
      {"async:sync_apply", "core.phase.async_sync_apply_self_s"},
      {"bus:exchange", "flashware.exchange_self_s"},
      {"walk:epoch", "walks.epoch_self_s"},
      {"walk:shuffle", "walks.shuffle_self_s"},
      {"storage:block_read", "storage.block_read_self_s"},
      {"serve:batch", "serving.batch_self_s"},
  };
  return kMetrics;
}

namespace {

/// Worker-lane spans that stand for work of their own, in the order that
/// decides which one owns an instant when several are in flight. Every
/// other worker-lane span repeats a host-lane span: the per-worker task
/// slices of a phase carry the phase's name, and bus:channel runs inside
/// bus:exchange.
constexpr const char* kWorkerLeaves[] = {"storage:block_read", "walk:shuffle"};
constexpr int kNumLeaves = static_cast<int>(std::size(kWorkerLeaves));

int LeafIndex(const obs::Span& s) {
  if (s.worker == obs::kHostLane) return -1;
  for (int i = 0; i < kNumLeaves; ++i) {
    if (std::string_view(s.name) == kWorkerLeaves[i]) return i;
  }
  return -1;
}

struct Edge {
  uint64_t t;
  bool begin;
  const obs::Span* span;
  int leaf;      // Index into kWorkerLeaves, or -1 for a host-lane span.
  double* self;  // The metric that receives the span's self time, or null.
};

}  // namespace

void AddSelfTimes(const std::vector<obs::Span>& spans, Values& out) {
  const auto& table = SelfTimeMetrics();
  const auto slot = [&](const char* name) -> double* {
    auto it = table.find(name);
    return it == table.end() ? nullptr : &out[it->second];
  };
  double* leaf_slot[kNumLeaves];
  for (int i = 0; i < kNumLeaves; ++i) leaf_slot[i] = slot(kWorkerLeaves[i]);

  std::vector<Edge> edges;
  for (const obs::Span& s : spans) {
    if (s.end_ns <= s.begin_ns) continue;  // Instants cover no time.
    const int leaf = LeafIndex(s);
    if (s.worker != obs::kHostLane && leaf < 0) continue;
    double* self = leaf >= 0 ? leaf_slot[leaf] : slot(s.name);
    edges.push_back({s.begin_ns, true, &s, leaf, self});
    edges.push_back({s.end_ns, false, &s, leaf, self});
  }
  // By time; at one instant ends first, then the longer (outer) span.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.begin != b.begin) return !a.begin;
    return a.span->end_ns > b.span->end_ns;
  });

  // Sweep: each stretch of time between two edges goes to one owner, so
  // the self times of a trace sum to at most the time its outermost host
  // spans cover. Inside a host span, a stretch in which some worker runs a
  // leaf span belongs to that leaf; any other stretch belongs to the
  // innermost open host span.
  std::vector<const Edge*> open;  // Open host-lane spans, outermost first.
  int leaves_open[kNumLeaves] = {};
  uint64_t last = 0;
  for (const Edge& e : edges) {
    if (e.t > last && !open.empty()) {
      double* owner = open.back()->self;
      for (int i = 0; i < kNumLeaves; ++i) {
        if (leaves_open[i] > 0) {
          owner = leaf_slot[i];
          break;
        }
      }
      if (owner != nullptr) *owner += static_cast<double>(e.t - last) * 1e-9;
    }
    last = e.t;
    if (e.leaf >= 0) {
      leaves_open[e.leaf] += e.begin ? 1 : -1;
    } else if (e.begin) {
      open.push_back(&e);
    } else {
      auto it = std::find_if(open.rbegin(), open.rend(), [&](const Edge* o) {
        return o->span == e.span;
      });
      if (it != open.rend()) open.erase(std::next(it).base());
    }
  }
}

}  // namespace flash::perfbench
