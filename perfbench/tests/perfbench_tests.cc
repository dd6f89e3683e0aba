// perfbench's own tests: the timing-statistics rule, span self time on a
// hand-built span tree, and the exact-repeat guard (a fixed seed and
// request count at one worker must reproduce every decision count bit for
// bit, and equal the values committed in guard_golden.txt, so a speed-up
// that changes decisions shows as a count change).
//
//   ctest --test-dir .bench_build     (or run perfbench_tests directly)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "timing.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestNearestRank() {
  using perfbench::NearestRankIndex;
  Expect(NearestRankIndex(0.5, 1) == 0, "median of one sample");
  Expect(NearestRankIndex(0.5, 10) == 5, "median of ten is sorted[5]");
  Expect(NearestRankIndex(0.99, 100) == 99, "p99 of 100 is sorted[99]");
  Expect(NearestRankIndex(1.0, 100) == 99, "q = 1 clamps to the last sample");
  Expect(NearestRankIndex(0.0, 100) == 0, "q = 0 is the first sample");
}

void TestSupportedTail() {
  using perfbench::SupportedTailQuantile;
  // Ten samples must rank beyond sorted[floor(q * n)].
  Expect(SupportedTailQuantile(0) == 0.0, "no samples, no tail");
  Expect(SupportedTailQuantile(20) == 0.0, "20 samples: median has only 9 beyond");
  Expect(SupportedTailQuantile(21) == 0.5, "21 samples: median has 10 beyond");
  Expect(SupportedTailQuantile(100) == 0.75, "100 samples: p90 has 9 beyond, p75 has 24");
  Expect(SupportedTailQuantile(101) == 0.9, "101 samples: p90 has 10 beyond");
  Expect(SupportedTailQuantile(1000) == 0.95, "1000 samples: p99 has only 9 beyond");
  Expect(SupportedTailQuantile(1001) == 0.99, "1001 samples: p99 has 10 beyond");
  Expect(SupportedTailQuantile(10000) == 0.99, "10000 samples: p99.9 has only 9 beyond");
  Expect(SupportedTailQuantile(10001) == 0.999, "10001 samples: p99.9 has 10 beyond");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  perfbench::TimingSummary s = perfbench::Summarize(&v);
  Expect(s.n == 100, "summary count");
  Expect(s.p50 == 51.0, "summary median is sorted[50]");
  Expect(s.tail_q == 0.75 && s.tail == 76.0, "summary tail is sorted[75]");
}

void TestTiming() {
  // One tick per nanosecond: exact below 64 ns, like the sorted sample.
  perfbench::Timing small;
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) {
    small.Record((i * 37) % 64);
    v.push_back((i * 37) % 64);
  }
  const perfbench::TimingSummary exact = perfbench::Summarize(&v);
  const perfbench::TimingSummary got = small.Summary(1.0);
  Expect(got.n == exact.n && got.p50 == exact.p50 && got.tail_q == exact.tail_q &&
             got.tail == exact.tail,
         "timing matches the sorted sample below 64 ns");
  // Microsecond-scale values stay within 1/128 of the exact rank, and merge.
  perfbench::Timing big;
  std::vector<double> w;
  for (int64_t i = 1; i <= 5000; ++i) {
    big.Record(i * 7);
    w.push_back(static_cast<double>(i * 7));
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = perfbench::Quantile(&w, q);
    Expect(std::abs(big.QuantileNs(q) - want) <= want / 128.0, "timing quantile within 1/128");
  }
  perfbench::Timing merged;
  merged.Merge(small);
  merged.Merge(big);
  Expect(merged.Snapshot().count == 5200, "timing merge adds counts");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100]; a [10,30] with grandchild g [15,25]; b [20,50] overlaps a;
  // c [90,120] runs past the root's end and is clipped there.
  std::vector<Span> spans = {
      {"root", 1, -1, 0, 100, 0},  {"a", 1, 0, 10, 30, 0},  {"g", 1, 1, 15, 25, 0},
      {"b", 1, 0, 20, 50, 0},      {"c", 1, 0, 90, 120, 0},
  };
  perfbench::ComputeSelfTimes(&spans);
  Expect(spans[0].self_ns == 50, "root self = 100 - |[10,50] u [90,100]|");
  Expect(spans[1].self_ns == 10, "a self = 20 - 10");
  Expect(spans[2].self_ns == 10, "leaf self = duration");
  Expect(spans[3].self_ns == 30, "b self = duration");
  Expect(spans[4].self_ns == 30, "c self = its own duration");

  perfbench::SpanLog log(2);
  int64_t first = log.Add("x", 1, -1, 0, 10);
  log.Add("y", 1, first, 2, 3);
  Expect(log.Add("z", 1, -1, 0, 1) == -1 && log.dropped() == 1, "span log capacity");
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::string GuardLine(const std::string& workload, const perfbench::Metric& m) {
  char value[64];
  std::snprintf(value, sizeof(value), "%.17g", m.value);
  return workload + " " + m.name + " " + value;
}

/// Runs the guard twice on `workload` and appends its lines to `lines`.
void TestExactRepeat(const std::string& workload, std::vector<std::string>* lines) {
  perfbench::RunOptions opt;
  opt.workload = workload;
  opt.seed = 7;
  opt.workers = 1;
  opt.fixed_requests = 90;
  opt.setups = 1;
  perfbench::RunResult a = perfbench::RunWorkload(opt);
  perfbench::RunResult b = perfbench::RunWorkload(opt);
  for (const std::string& f : a.failures) Expect(false, workload + " run 1: " + f);
  for (const std::string& f : b.failures) Expect(false, workload + " run 2: " + f);
  Expect(a.attempted == 90 && b.attempted == 90, workload + ": fixed request count");
  Expect(a.guard.size() == 7 && a.guard.size() == b.guard.size(), workload + ": guard size");
  for (size_t i = 0; i < a.guard.size() && i < b.guard.size(); ++i) {
    Expect(a.guard[i].name == b.guard[i].name && SameBits(a.guard[i].value, b.guard[i].value),
           workload + ": " + a.guard[i].name + " repeats bit for bit (" +
               std::to_string(a.guard[i].value) + " vs " + std::to_string(b.guard[i].value) + ")");
  }
  for (const perfbench::Metric& m : a.guard) lines->push_back(GuardLine(workload, m));
}

/// The guard's values must equal the committed ones, so a change that moves
/// a decision fails here until the file is regenerated on purpose with
/// PERFBENCH_UPDATE_GOLDEN=1.
void TestGuardGolden(const std::vector<std::string>& lines) {
  const char* update = std::getenv("PERFBENCH_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(PERFBENCH_GUARD_GOLDEN);
    for (const std::string& l : lines) out << l << "\n";
    Expect(static_cast<bool>(out), "cannot write " + std::string(PERFBENCH_GUARD_GOLDEN));
    std::printf("wrote %s\n", PERFBENCH_GUARD_GOLDEN);
    return;
  }
  std::ifstream in(PERFBENCH_GUARD_GOLDEN);
  Expect(static_cast<bool>(in), "cannot read " + std::string(PERFBENCH_GUARD_GOLDEN));
  std::vector<std::string> want;
  for (std::string l; std::getline(in, l);) {
    if (!l.empty()) want.push_back(l);
  }
  Expect(want.size() == lines.size(), "golden guard line count");
  for (size_t i = 0; i < want.size() && i < lines.size(); ++i) {
    Expect(want[i] == lines[i], "guard changed: want '" + want[i] + "', got '" + lines[i] + "'");
  }
}

}  // namespace

int main() {
  TestNearestRank();
  TestSupportedTail();
  TestTiming();
  TestSelfTime();
  std::vector<std::string> guard;
  TestExactRepeat("fresh_explore", &guard);
  TestExactRepeat("dashboard_revisit", &guard);
  TestGuardGolden(guard);
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
