// perfbench: runs one workload of the layer-resolved PASS benchmark and
// prints its metrics. See ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Every line before it is a human-readable report.
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "jit/kernel_cache.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Peak resident set of this process, from /proc (0 when unavailable).
long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// Prints a number with all its digits, as JSON allows.
std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  return Fmt("%.17g", v);
}

int Main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed needs an integer");
      opts.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 3600) {
        return Usage("--seconds needs an integer in [1, 3600]");
      }
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("--trace is 0 or 1");
      opts.trace = n == 1;
      have_trace = true;
    } else if (flag == "--spans") {
      opts.span_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == opts.workload;
  }
  if (!known) return Usage(("unknown workload " + opts.workload).c_str());
  if (opts.span_path.empty()) {
    opts.span_path = "spans-" + opts.workload + "-" +
                     std::to_string(opts.seed) + ".jsonl";
  }

  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%.0f trace=%d\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "PASS_SIMD=%d PASS_JIT=%d stencil_tier=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_SIMD,
              PERFBENCH_JIT,
              pass::KernelCache::StencilTierAvailable() ? "available"
                                                        : "unavailable");
  std::printf("# threads: load generator 1, scheduler workers %zu, shard "
              "pool %zu (threads a workload does not use stay idle)\n",
              SchedulerThreads(),
              static_cast<size_t>(std::thread::hardware_concurrency()));
  std::fflush(stdout);

  const Report report = RunWorkload(opts);
  for (const std::string& line : report.lines) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : report.metrics) {
    if (m.count > 0) {
      std::printf("# %s = %.6g %s (n=%" PRIu64 ")\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.count);
    } else {
      std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("# peak process RSS %.1f MB\n", PeakRssKb() / 1024.0);
  const double error_rate =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("# error_rate = %.6g (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              error_rate, report.failed, report.attempted);

  std::string json = Fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                         ", \"failed\": %" PRIu64 ", \"metrics\": {",
                         report.failed == 0 ? "true" : "false",
                         report.attempted, report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += Fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), Json(m.value).c_str(),
                m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
