// perfbench: runs one workload against the maliva library and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every correctness check passed.
//
//   perfbench --workload fresh_explore --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs with the profiler on, records spans (written as JSON lines under
// .bench_build/traces/) and reports the per-layer metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const std::string& w : perfbench::WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  const std::string span_dir = ".bench_build/traces";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(opt.seconds) || opt.seconds <= 0.0) {
        Usage();
        return 2;
      }
    } else if (ParseUnsigned(value, &n)) {
      if (flag == "--seed") {
        opt.seed = n;
      } else if (flag == "--trace" && n <= 1) {
        opt.trace = n == 1;
      } else {
        Usage();
        return 2;
      }
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload) {
    Usage();
    return 2;
  }
  if (opt.trace) {
    opt.span_path = span_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
  }

  perfbench::RunResult r = perfbench::RunWorkload(opt);
  const std::vector<perfbench::Metric>& metrics = opt.trace ? r.per_layer : r.end_to_end;
  for (const perfbench::Metric& m : metrics) {
    if (!std::isfinite(m.value)) r.failures.push_back("metric " + m.name + " is not finite");
  }
  for (const std::string& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  if (r.attempted == 0 && r.failures.empty()) r.failures.push_back("no request was attempted");

  std::printf("workload %s seed %llu trace %d: %llu attempted, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace && !opt.span_path.empty()) std::printf("spans: %s\n", opt.span_path.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + std::string("\"") + JsonEscape(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
