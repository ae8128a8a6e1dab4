#ifndef FLASH_PERFBENCH_WORKLOADS_H_
#define FLASH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "trace.h"

namespace flash::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Rounds of the workload's operations run until this much wall-clock
  /// time has passed; every round runs to its end.
  double seconds = 10;
  /// Report per-layer metrics: alternate untraced rounds with rounds that
  /// arm the engine's span tracer.
  bool trace = false;
  /// Host threads of every engine call; 0 = min(4, CPUs this process may
  /// run on). Counters must not depend on it.
  int host_threads = 0;
  /// Smoke-test sizes (a few hundred vertices) instead of the measured ones.
  bool tiny = false;
  /// Directory for the paged workload's block file, which is deleted again
  /// before the run returns.
  std::string tmp_dir = ".";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The seven job-level metrics every workload reports from untraced rounds.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The per-layer metrics of a traced run; a layer a workload never runs
/// reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

struct RunReport {
  /// False when a whole-run invariant fails (e.g. serving conservation).
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failed checks, one line each.
  std::vector<std::string> errors;
  /// Every metric of EndToEndMetrics() (untraced run) or PerLayerMetrics()
  /// (traced run).
  Values metrics;
};

/// Sets up the workload's inputs, runs whole rounds of its operations for
/// `options.seconds`, samples the peak RSS, then checks the outputs.
/// `since_start` runs from process start: setup_s is read off it.
Result<RunReport> RunWorkload(const RunOptions& options,
                              const Timer& since_start);

}  // namespace flash::perfbench

#endif  // FLASH_PERFBENCH_WORKLOADS_H_
