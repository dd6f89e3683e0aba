// The perfbench workloads: fresh_explore, dashboard_revisit and live_mix.
//
// Each run builds its inputs from the workload seed, sets the system up
// several times (the median set-up time is reported), measures one timed
// window, and checks every response it gets back. See ../README.md for what
// each workload exercises and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: traced run (profiler on,
  /// spans recorded, layer probe), per-layer metrics.
  bool trace = false;
  /// Client threads (closed loop) or generator + fleet workers (open loop).
  /// 0 = min(hardware concurrency, 4).
  size_t workers = 0;
  /// > 0: serve exactly this many requests instead of a timed window (the
  /// exact-repeat guard). Not combined with trace.
  size_t fixed_requests = 0;
  /// Set-ups per run; setup_s is their median. At least 1.
  size_t setups = 3;
  /// Where the traced run writes its spans (JSON lines); empty = not written.
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Correctness failures, one line each; empty means correct.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Untraced runs fill end_to_end; traced runs fill per_layer.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Counts that repeat exactly for a fixed seed and request count at one
  /// worker: vqp_pct, aqrt_ms, engine.executions_per_request,
  /// core.steps_per_request and qte.slots_per_request.*.
  std::vector<Metric> guard;

  bool correct() const { return failures.empty(); }
};

/// Names accepted by RunWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Unknown names and invalid options are reported as
/// failures, never thrown.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
