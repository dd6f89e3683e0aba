#include "service/serving_telemetry.h"

#include <algorithm>

namespace maliva {

ServeMetrics::ServeMetrics(MetricsRegistry& reg)
    : requests_ok(reg.GetCounter("maliva_requests_total", {{"verdict", "ok"}})),
      requests_error(reg.GetCounter("maliva_requests_total", {{"verdict", "error"}})),
      exact_fallbacks(reg.GetCounter("maliva_exact_fallbacks_total")),
      tier_shared(reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "shared"}})),
      tier_histogram(
          reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "histogram"}})),
      tier_probe(reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "probe"}})),
      shared_published(reg.GetCounter("maliva_shared_published_total")),
      admission_admitted(
          reg.GetCounter("maliva_admission_total", {{"verdict", "admitted"}})),
      admission_degraded(
          reg.GetCounter("maliva_admission_total", {{"verdict", "degraded"}})),
      admission_shed_deadline(
          reg.GetCounter("maliva_admission_total", {{"verdict", "shed_deadline"}})),
      admission_shed_overload(
          reg.GetCounter("maliva_admission_total", {{"verdict", "shed_overload"}})),
      serve_latency(reg.GetHistogram("maliva_serve_latency_ms")),
      queue_wait(reg.GetHistogram("maliva_queue_wait_ms")),
      result_cache_entries(reg.GetGauge("maliva_result_cache_entries")),
      shared_store_entries(reg.GetGauge("maliva_shared_store_entries")),
      shared_store_evictions(reg.GetGauge("maliva_shared_store_evictions")),
      histogram_error_samples(reg.GetGauge("maliva_histogram_error_samples")),
      histogram_demoted_columns(reg.GetGauge("maliva_histogram_demoted_columns")),
      online_recorded(reg.GetGauge("maliva_online_transitions", {{"state", "recorded"}})),
      online_dropped(reg.GetGauge("maliva_online_transitions", {{"state", "dropped"}})),
      online_pending(reg.GetGauge("maliva_online_transitions", {{"state", "pending"}})),
      online_published(reg.GetGauge("maliva_online_retrains", {{"outcome", "published"}})),
      online_rejected(reg.GetGauge("maliva_online_retrains", {{"outcome", "rejected"}})),
      agent_snapshot_version(reg.GetGauge("maliva_agent_snapshot_version")) {}

ServiceStats StatsFromMetrics(const MetricsSnapshot& m) {
  auto count = [&m](const char* name, MetricLabels match = {}) {
    return m.CounterSum(name, match);
  };
  auto level = [&m](const char* name, MetricLabels match = {}) {
    return static_cast<uint64_t>(std::max<int64_t>(0, m.GaugeSum(name, match)));
  };
  auto sum_ms = [&m](const char* name) {
    double total = 0.0;
    for (const MetricsSnapshot::HistogramRow& row : m.histograms) {
      if (row.name == name) total += row.hist.sum_ms;
    }
    return total;
  };

  ServiceStats s;
  s.requests = count("maliva_requests_total");
  s.errors = count("maliva_requests_total", {{"verdict", "error"}});
  s.exact_fallbacks = count("maliva_exact_fallbacks_total");
  s.serve_wall_ms_total = sum_ms("maliva_serve_latency_ms");

  s.shared_hits = count("maliva_selectivity_slots_total", {{"rung", "shared"}});
  s.histogram_hits = count("maliva_selectivity_slots_total", {{"rung", "histogram"}});
  s.probe_collections = count("maliva_selectivity_slots_total", {{"rung", "probe"}});
  // The paid rungs partition what requests collected themselves.
  s.selectivities_collected = s.histogram_hits + s.probe_collections;
  s.shared_published = count("maliva_shared_published_total");
  s.store_size = level("maliva_shared_store_entries");
  s.store_evictions = level("maliva_shared_store_evictions");
  s.histogram_error_samples = level("maliva_histogram_error_samples");
  s.histogram_demoted_columns = level("maliva_histogram_demoted_columns");

  s.result_cache_hits = count("maliva_result_cache_total", {{"outcome", "hit"}});
  s.result_cache_misses = count("maliva_result_cache_total", {{"outcome", "miss"}});
  s.result_cache_coalesced = count("maliva_result_cache_total", {{"outcome", "coalesced"}});
  s.result_cache_evictions = count("maliva_result_cache_evictions_total");
  s.result_cache_stale_declines = count("maliva_result_cache_stale_declines_total");
  s.result_cache_size = level("maliva_result_cache_entries");

  s.online_transitions = level("maliva_online_transitions", {{"state", "recorded"}});
  s.online_transitions_dropped = level("maliva_online_transitions", {{"state", "dropped"}});
  s.online_transitions_pending = level("maliva_online_transitions", {{"state", "pending"}});
  s.online_retrains = level("maliva_online_retrains", {{"outcome", "published"}});
  s.online_rejected = level("maliva_online_retrains", {{"outcome", "rejected"}});
  // A version is not additive: a merged snapshot reports the newest model
  // anywhere in the fleet.
  for (const MetricsSnapshot::GaugeRow& row : m.gauges) {
    if (row.name == "maliva_agent_snapshot_version" && row.value > 0) {
      s.online_snapshot_version =
          std::max(s.online_snapshot_version, static_cast<uint64_t>(row.value));
    }
  }

  s.admission_admitted = count("maliva_admission_total", {{"verdict", "admitted"}});
  s.admission_degraded = count("maliva_admission_total", {{"verdict", "degraded"}});
  s.admission_shed_deadline = count("maliva_admission_total", {{"verdict", "shed_deadline"}});
  s.admission_shed_overload = count("maliva_admission_total", {{"verdict", "shed_overload"}});
  s.admission_queue_wait_ms_total = sum_ms("maliva_queue_wait_ms");
  return s;
}

}  // namespace maliva
