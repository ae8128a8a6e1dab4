// Job-level benchmark of the FLASH engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--host-threads <n>] [--tmp-dir <dir>]
//   perfbench --list-metrics
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (perfbench/README.md). --list-metrics prints one line per
// workload ("workload <name>") and metric ("end_to_end|per_layer <name>
// <unit>"), which `run.py --selftest` compares with BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using flash::perfbench::MetricSpec;
using flash::perfbench::RunOptions;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--host-threads <n>] "
               "[--tmp-dir <dir>]\n",
               why);
  return 2;
}

bool ParseUnsigned(const std::string& text, unsigned long long& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int ListMetrics() {
  for (const std::string& name : flash::perfbench::WorkloadNames()) {
    std::printf("workload %s\n", name.c_str());
  }
  for (const MetricSpec& m : flash::perfbench::EndToEndMetrics()) {
    std::printf("end_to_end %s %s\n", m.name, m.unit);
  }
  for (const MetricSpec& m : flash::perfbench::PerLayerMetrics()) {
    std::printf("per_layer %s %s\n", m.name, m.unit);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flash::Timer since_start;
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    return ListMetrics();
  }
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--tmp-dir") {
      options.tmp_dir = value;
    } else if (!ParseUnsigned(value, number)) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = number;
    } else if (flag == "--seconds") {
      if (number < 1 || number > 3600) return Usage("--seconds out of range");
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (number > 1) return Usage("--trace takes 0 or 1");
      options.trace = number == 1;
    } else if (flag == "--host-threads") {
      if (number > 64) return Usage("--host-threads out of range");
      options.host_threads = static_cast<int>(number);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  auto report_or = flash::perfbench::RunWorkload(options, since_start);
  if (!report_or.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 report_or.status().ToString().c_str());
    return 1;
  }
  const flash::perfbench::RunReport& report = report_or.value();
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  const auto& specs = options.trace ? flash::perfbench::PerLayerMetrics()
                                    : flash::perfbench::EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& m = specs[i];
    double v = report.metrics.at(m.name);
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n",
                   m.name);
      v = 0;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + std::string(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
