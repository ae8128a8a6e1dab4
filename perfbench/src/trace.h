#ifndef FLASH_PERFBENCH_TRACE_H_
#define FLASH_PERFBENCH_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace flash::perfbench {

/// Named metric values (one round's sums, or one run's report).
using Values = std::map<std::string, double>;

/// Span name -> per-layer metric that receives the span's self time.
/// Spans not listed still nest (their time is taken out of their parent's
/// self time) but report nothing of their own.
const std::map<std::string, std::string>& SelfTimeMetrics();

/// Adds the self time, in seconds, of every listed span in `spans` to
/// `out[metric]`. The wall time inside the outermost host-lane spans is
/// split among the spans, so the self times never sum to more than those
/// spans cover. A stretch in which some worker runs a demand block read or
/// a walk shuffle (worker-lane spans of their own) goes to that span;
/// several workers at once count once. Any other stretch goes to the
/// innermost host-lane span. The other worker-lane spans, the per-worker
/// slices of a phase and the bus channels, repeat host-lane spans and are
/// skipped.
void AddSelfTimes(const std::vector<obs::Span>& spans, Values& out);

}  // namespace flash::perfbench

#endif  // FLASH_PERFBENCH_TRACE_H_
