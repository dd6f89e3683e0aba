// Serving telemetry: what one request reports about itself (RequestStats)
// and the service-wide view of the metrics plane (ServiceStats).
//
// There is one accounting plane. Every MalivaService owns a MetricsRegistry
// (util/metrics.h), and every serving event — a request served or failed, a
// selectivity rung used, a cache outcome, an admission verdict, a queue
// wait — is counted there exactly once, through handles resolved at
// construction (ServeMetrics). Levels owned by a component (store and cache
// sizes, online-learning counts) are mirrored into gauges when a snapshot
// is cut. ServiceStats is then a *view*: StatsFromMetrics reads it from a
// MetricsSnapshot, a shard's own or a fleet's merge of every shard's, so a
// fleet total is by construction the sum of its shards.
//
// Note the two time axes: everything in RewriteOutcome is deterministic
// *virtual* time (DESIGN.md "Virtual time"); serve latency here is host
// wall-clock time, the one quantity that must be measured, not modeled.

#ifndef MALIVA_SERVICE_SERVING_TELEMETRY_H_
#define MALIVA_SERVICE_SERVING_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/metrics.h"
#include "util/query_profiler.h"

namespace maliva {

/// Per-request serving telemetry carried on the response. The counters are
/// deterministic given the shared-store snapshot the request saw;
/// selectivities_collected is populated in every mode (it is the request's
/// full bill when cross_request_cache is off), while the shared_* fields
/// are identically zero with the plane off. serve_wall_ms is host
/// wall-clock time — the one non-virtual, run-varying number — and is
/// excluded from byte-identity guarantees (as are the result_cache_* flags,
/// which describe *how* the decision was obtained, not the decision).
struct RequestStats {
  /// Selectivity slots this request collected (and paid for) itself.
  size_t selectivities_collected = 0;
  /// Slots pre-seeded free from the shared store.
  size_t shared_hits = 0;
  /// Per-rung slot accounting of the selectivity ladder: [0] shared-store
  /// seeds (== shared_hits), [1] histogram-tier estimates, [2] probes
  /// (sample/true-selectivity collections, statistics fallbacks included).
  /// [1] + [2] == selectivities_collected; [1] is identically zero while
  /// ServiceConfig::histogram_selectivity is off.
  size_t selectivity_tier_hits[3] = {0, 0, 0};
  /// New entries this request contributed to the shared store.
  size_t shared_published = 0;
  /// Version of the agent snapshot that served this request; 0 when the
  /// online learning plane is off or the strategy serves frozen weights.
  uint64_t agent_snapshot_version = 0;
  /// Rewrite-result cache (service/rewrite_result_cache.h): true when this
  /// response replayed a cached decision instead of running the search. The
  /// selectivity counters above are then the *template* of the miss that
  /// computed the entry — the original search's bill, not new work.
  bool result_cache_hit = false;
  /// True when the decision came from another request's in-flight search
  /// (single-flight follower, or a ServeBatch in-batch dedup replay).
  bool result_cache_coalesced = false;
  /// Overload control plane (service_fleet.h): true when the admission gate
  /// predicted the requested strategy would miss its deadline and forced the
  /// configured degrade strategy instead. Always false off that path.
  bool degraded = false;
  /// Wall ms this request waited in the fleet's deadline scheduler between
  /// arrival and dispatch; 0 off the scheduler path.
  double queue_wait_ms = 0.0;
  /// Host wall-clock serving latency, milliseconds.
  double serve_wall_ms = 0.0;
  /// Per-phase cost breakdown (ISSUE 9): set only when this request was
  /// profiled (ServiceConfig::profile_requests, sampled every
  /// profile_sample_every-th request). Wall-clock based and run-varying like
  /// serve_wall_ms — excluded from byte-identity; the decision bytes of a
  /// response are identical with profiling on or off. Cache-hit responses
  /// carry the hit path's own (partial) breakdown, never the template of the
  /// miss that computed the entry.
  std::optional<ProfileBreakdown> profile;
};

/// One consistent-enough snapshot of the service's serving counters, read
/// from its metrics registry (StatsFromMetrics). Each field is individually
/// exact; the whole is not one atomic cut.
struct ServiceStats {
  uint64_t requests = 0;         ///< Serve calls (batch members included)
  uint64_t errors = 0;           ///< requests answered with a non-OK Status
  uint64_t exact_fallbacks = 0;  ///< quality-floor fallbacks to "baseline"

  // Knowledge plane. selectivities_collected is meaningful in every mode
  // (with cross_request_cache off it is simply each request's full bill);
  // the shared_* and store_* fields are identically zero while the plane
  // is off.
  uint64_t selectivities_collected = 0;  ///< slots paid for by requests
  uint64_t shared_hits = 0;              ///< slots served free from the store
  uint64_t shared_published = 0;         ///< new entries contributed
  uint64_t store_size = 0;               ///< resident entries at snapshot time
  uint64_t store_evictions = 0;          ///< FIFO evictions so far
  uint64_t store_epoch = 0;              ///< engine catalog version at snapshot

  // Selectivity ladder (DESIGN.md "Selectivity tiers"). histogram_hits and
  // probe_collections split selectivities_collected by rung: slots answered
  // O(1) from full-table histograms vs slots that paid a sample probe (or
  // statistics fallback). histogram_hits is identically zero while
  // ServiceConfig::histogram_selectivity is off; the health fields below it
  // come from the tier's trust windows at snapshot time.
  uint64_t histogram_hits = 0;        ///< slots answered by the histogram tier
  uint64_t probe_collections = 0;     ///< slots that paid a probe
  double histogram_mean_abs_rel_error = 0.0;  ///< windowed estimate-vs-probe error
  uint64_t histogram_error_samples = 0;       ///< samples behind that mean
  uint64_t histogram_demoted_columns = 0;     ///< columns demoted to probing

  // Rewrite-result cache (DESIGN.md "Rewrite-result cache"; identically
  // zero while ServiceConfig::result_cache is off). hits/misses/coalesced
  // partition the cache-probed requests: replayed from a resident entry,
  // computed (leader or solo), or served by another request's in-flight
  // search. stale_declines counts fingerprint matches refused because their
  // epoch or snapshot context had moved on — the O(1) invalidation at work.
  uint64_t result_cache_hits = 0;       ///< decisions replayed from the cache
  uint64_t result_cache_misses = 0;     ///< decisions computed (and published)
  uint64_t result_cache_coalesced = 0;  ///< served by another's search
  uint64_t result_cache_evictions = 0;  ///< entries the CLOCK hand dropped
  uint64_t result_cache_stale_declines = 0;  ///< context-mismatch refusals
  uint64_t result_cache_size = 0;       ///< resident entries at snapshot time

  // Online learning plane (identically zero while ServiceConfig::
  // online_learning is off). online_snapshot_version is the newest
  // published agent snapshot across agent keys (1 = offline warm-up weights
  // only); the last_retrain_* rewards are the validation gate's evidence
  // from the most recent fine-tune round, whether it published or was
  // rejected.
  uint64_t online_transitions = 0;       ///< serving transitions recorded
  uint64_t online_transitions_dropped = 0;  ///< evicted before training
  uint64_t online_transitions_pending = 0;  ///< buffered, awaiting a round
  uint64_t online_retrains = 0;          ///< fine-tune rounds published
  uint64_t online_rejected = 0;          ///< rounds the validation gate refused
  uint64_t online_snapshot_version = 0;  ///< newest agent snapshot version
  double last_retrain_reward_pre = 0.0;  ///< incumbent validation reward
  double last_retrain_reward_post = 0.0; ///< fine-tuned clone's reward

  // Overload control plane (identically zero for a standalone MalivaService
  // and while FleetConfig::admission is off). The fleet's gate counts each
  // verdict and queue wait into the routed shard's registry — shed requests
  // included, though they never reach the shard's serve path — so these
  // appear in the shard's own Stats() and in its FleetStats row alike.
  uint64_t admission_admitted = 0;       ///< gate verdicts: served as asked
  uint64_t admission_degraded = 0;       ///< served with the degrade strategy
  uint64_t admission_shed_deadline = 0;  ///< refused: deadline unmakeable
  uint64_t admission_shed_overload = 0;  ///< refused: queue at capacity
  /// Summed scheduler queue wait: the maliva_queue_wait_ms histogram sum,
  /// so each wait is rounded to whole microseconds.
  double admission_queue_wait_ms_total = 0.0;

  /// Summed host wall-clock serve latency: the maliva_serve_latency_ms
  /// histogram sum, so each request is rounded to whole microseconds.
  double serve_wall_ms_total = 0.0;

  /// Fraction of needed selectivities that came free from the shared store.
  double SharedHitRatio() const {
    uint64_t total = shared_hits + selectivities_collected;
    return total == 0 ? 0.0 : static_cast<double>(shared_hits) / static_cast<double>(total);
  }

  double MeanServeWallMs() const {
    return requests == 0 ? 0.0 : serve_wall_ms_total / static_cast<double>(requests);
  }
};

/// The service's serve-path series, resolved from its registry once at
/// construction so recording is relaxed atomics only — zero registry map
/// lookups per request (MetricsRegistry::lookups() proves it). The fleet
/// records the admission handles on the routed shard's behalf.
struct ServeMetrics {
  explicit ServeMetrics(MetricsRegistry& registry);

  Counter* requests_ok;        ///< maliva_requests_total{verdict="ok"}
  Counter* requests_error;     ///< maliva_requests_total{verdict="error"}
  Counter* exact_fallbacks;    ///< maliva_exact_fallbacks_total
  Counter* tier_shared;        ///< maliva_selectivity_slots_total{rung="shared"}
  Counter* tier_histogram;     ///< maliva_selectivity_slots_total{rung="histogram"}
  Counter* tier_probe;         ///< maliva_selectivity_slots_total{rung="probe"}
  Counter* shared_published;   ///< maliva_shared_published_total
  Counter* admission_admitted;       ///< maliva_admission_total{verdict="admitted"}
  Counter* admission_degraded;       ///< maliva_admission_total{verdict="degraded"}
  Counter* admission_shed_deadline;  ///< maliva_admission_total{verdict="shed_deadline"}
  Counter* admission_shed_overload;  ///< maliva_admission_total{verdict="shed_overload"}
  LatencyHistogram* serve_latency;   ///< maliva_serve_latency_ms
  LatencyHistogram* queue_wait;      ///< maliva_queue_wait_ms

  // Levels owned by a component, mirrored when a snapshot is cut.
  Gauge* result_cache_entries;       ///< maliva_result_cache_entries
  Gauge* shared_store_entries;       ///< maliva_shared_store_entries
  Gauge* shared_store_evictions;     ///< maliva_shared_store_evictions
  Gauge* histogram_error_samples;    ///< maliva_histogram_error_samples
  Gauge* histogram_demoted_columns;  ///< maliva_histogram_demoted_columns
  Gauge* online_recorded;            ///< maliva_online_transitions{state="recorded"}
  Gauge* online_dropped;             ///< maliva_online_transitions{state="dropped"}
  Gauge* online_pending;             ///< maliva_online_transitions{state="pending"}
  Gauge* online_published;           ///< maliva_online_retrains{outcome="published"}
  Gauge* online_rejected;            ///< maliva_online_retrains{outcome="rejected"}
  Gauge* agent_snapshot_version;     ///< maliva_agent_snapshot_version
};

/// The one view of the accounting plane: ServiceStats read from a snapshot
/// of one shard's registry or of a fleet's merge. Counters, histogram sums
/// and level gauges add up across series; online_snapshot_version takes the
/// max. The fields no snapshot can carry — store_epoch,
/// histogram_mean_abs_rel_error and last_retrain_reward_* — stay zero here:
/// a service fills them from its components, and a fleet total keeps the
/// epoch and rewards at zero and weights the error mean by sample count.
ServiceStats StatsFromMetrics(const MetricsSnapshot& snapshot);

}  // namespace maliva

#endif  // MALIVA_SERVICE_SERVING_TELEMETRY_H_
