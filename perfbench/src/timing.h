// Timing statistics and in-memory spans for the perfbench harness.
//
// Percentiles use the nearest-rank convention sorted[floor(q * n)] that
// ReplayReport uses. A timing is reported with its sample count, its median,
// and the highest percentile of a fixed ladder that still has at least ten
// samples ranked beyond it, so a tail figure is never read off one or two
// outliers.
//
// Spans are what the traced run records around each public library call the
// benchmark makes: name, request id, parent, start and end. A span's self
// time is its duration minus the part of its interval covered by the union of
// its children's intervals.

#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Index of the q-quantile in a sorted sample of size n: floor(q * n),
/// clamped to the last element. Requires n > 0.
inline size_t NearestRankIndex(double q, size_t n) {
  size_t idx = static_cast<size_t>(std::floor(q * static_cast<double>(n)));
  return std::min(idx, n - 1);
}

/// Percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};

/// Samples that must rank beyond a reported percentile.
inline constexpr size_t kMinBeyond = 10;

/// Highest ladder percentile with at least kMinBeyond samples beyond its
/// rank in a sample of size n; 0 when even the median lacks that support.
inline double SupportedTailQuantile(size_t n) {
  if (n == 0) return 0.0;
  for (double q : kTailLadder) {
    if (n - 1 - NearestRankIndex(q, n) >= kMinBeyond) return q;
  }
  return 0.0;
}

/// Summary of one timing: count, median, and the supported tail.
struct TimingSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when n is too small for any supported tail
  double tail = 0.0;
};

/// Sorts `samples` in place and summarizes them.
inline TimingSummary Summarize(std::vector<double>* samples) {
  TimingSummary s;
  s.n = samples->size();
  if (s.n == 0) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = (*samples)[NearestRankIndex(0.5, s.n)];
  s.tail_q = SupportedTailQuantile(s.n);
  if (s.tail_q > 0.0) s.tail = (*samples)[NearestRankIndex(s.tail_q, s.n)];
  return s;
}

/// Value at quantile q of a sample (sorted in place); 0 for an empty one.
inline double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[NearestRankIndex(q, samples->size())];
}

/// A window timing, kept in the library's log-linear maliva::LatencyHistogram
/// so that a window's memory does not grow with the requests it serves. The
/// histogram takes milliseconds and keeps microsecond ticks; durations go in
/// scaled by 1e-3, so one tick is one nanosecond. Values below 64 ns are then
/// exact and larger ones read at a bucket midpoint within 1/128 of the value,
/// fine enough for the sub-10 us cache hits of dashboard_revisit.
class Timing {
 public:
  void Record(int64_t ns) { hist_->Record(static_cast<double>(ns) * 1e-3); }

  /// Adds `other`'s samples to this timing.
  void Merge(const Timing& other) { merged_.MergeFrom(other.Snapshot()); }

  maliva::HistogramSnapshot Snapshot() const {
    maliva::HistogramSnapshot s = hist_->Snapshot();
    s.MergeFrom(merged_);
    return s;
  }

  /// Nanoseconds at nearest rank floor(q * n); 0 when empty.
  double QuantileNs(double q) const { return Snapshot().Percentile(q) * 1e3; }

  /// Count, median and supported tail, in units of `ns_per_unit` ns.
  TimingSummary Summary(double ns_per_unit) const {
    const maliva::HistogramSnapshot s = Snapshot();
    TimingSummary out;
    out.n = s.count;
    if (out.n == 0) return out;
    out.p50 = s.Percentile(0.5) * 1e3 / ns_per_unit;
    out.tail_q = SupportedTailQuantile(out.n);
    if (out.tail_q > 0.0) out.tail = s.Percentile(out.tail_q) * 1e3 / ns_per_unit;
    return out;
  }

 private:
  std::unique_ptr<maliva::LatencyHistogram> hist_ = std::make_unique<maliva::LatencyHistogram>();
  maliva::HistogramSnapshot merged_;
};

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;  ///< index into the same SpanLog, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;  ///< filled by ComputeSelfTimes
};

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent's interval. Children may overlap
/// (asynchronous work), so the union, not the sum, is subtracted.
inline void ComputeSelfTimes(std::vector<Span>* spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans->size());
  for (const Span& s : *spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans->size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  for (size_t i = 0; i < spans->size(); ++i) {
    Span& s = (*spans)[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    s.self_ns = std::max<int64_t>(0, (s.end_ns - s.start_ns) - covered);
  }
}

/// Span buffer owned by one thread. Stores at most `capacity` spans; calls
/// beyond that are counted in dropped() but not kept, so a long traced run
/// cannot grow memory without bound.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 0) : capacity_(capacity) {
    spans_.reserve(std::min<size_t>(capacity, 1 << 16));
  }

  bool enabled() const { return capacity_ > 0; }

  /// Opens a span now; returns its index, or -1 when not kept.
  int64_t Open(const char* name, uint64_t request, int64_t parent = -1) {
    if (!enabled()) return -1;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size() - 1);
  }

  void Close(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  /// Records an already timed span; returns its index, or -1 when not kept.
  int64_t Add(const char* name, uint64_t request, int64_t parent, int64_t start_ns,
              int64_t end_ns) {
    if (!enabled()) return -1;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, request, parent, start_ns, end_ns, 0});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request, int64_t parent = -1)
      : log_(log), index_(log != nullptr ? log->Open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// Appends `log`'s spans as JSON lines to `out`: one object per span with
/// thread, index, name, request, parent, start/end (ns, relative to
/// `origin_ns`) and self time. Self times must already be computed.
inline void WriteSpansJsonl(std::FILE* out, const SpanLog& log, size_t thread,
                            int64_t origin_ns) {
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\",\"request\":%llu,"
                 "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 thread, i, s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns),
                 static_cast<long long>(s.self_ns));
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
