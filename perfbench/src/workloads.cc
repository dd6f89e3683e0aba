#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/query_env.h"
#include "engine/optimizer.h"
#include "core/rewriter.h"
#include "query/rewritten_query.h"
#include "query/signature.h"
#include "service/service.h"
#include "service/service_fleet.h"
#include "timing.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/query_gen.h"
#include "workload/replay_driver.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using maliva::AdmissionConfig;
using maliva::ApproxKind;
using maliva::ArrivalGenerator;
using maliva::CanonicalQuery;
using maliva::DatasetKind;
using maliva::FleetConfig;
using maliva::FleetStats;
using maliva::MalivaFleet;
using maliva::MalivaRewriter;
using maliva::MalivaService;
using maliva::OutputKind;
using maliva::ProfileBreakdown;
using maliva::QAgent;
using maliva::Query;
using maliva::QueryEnv;
using maliva::QueryGenConfig;
using maliva::ReplayDriver;
using maliva::Result;
using maliva::RewriteOption;
using maliva::RewriteOutcome;
using maliva::RewriteRequest;
using maliva::RewriteResponse;
using maliva::Rewriter;
using maliva::RewriterEnv;
using maliva::RewriteSession;
using maliva::RewrittenQuery;
using maliva::Rng;
using maliva::Scenario;
using maliva::ScenarioConfig;
using maliva::SelectivityCache;
using maliva::ServiceConfig;
using maliva::ServiceStats;
using maliva::SignatureOptions;
using maliva::Status;
using maliva::ZipfTable;

// ------------------------------------------------------------ constants ---

constexpr const char* kFreshExplore = "fresh_explore";
constexpr const char* kDashboardRevisit = "dashboard_revisit";
constexpr const char* kLiveMix = "live_mix";

constexpr const char* kTwitterShard = "twitter";
constexpr const char* kTpchShard = "tpch";

/// The closed-loop strategy interleave and its metric-name spelling.
constexpr size_t kNumStrategies = 3;
constexpr const char* kStrategies[kNumStrategies] = {"mdp/accurate", "mdp/sampling",
                                                    "baseline"};
constexpr const char* kStrategyMetric[kNumStrategies] = {"mdp_accurate", "mdp_sampling",
                                                        "baseline"};
constexpr const char* kQualityStrategy = "quality/one-stage";

// The dataset, training, rewrite options and the revisited working sets are
// fixed (a dashboard's tiles do not change between runs); the workload seed
// drives the requests: which fresh queries, which revisits in which order,
// and when they arrive.
constexpr uint64_t kTwitterSeed = 101;
constexpr uint64_t kTpchSeed = 303;
constexpr uint64_t kWorkingSetSeed = 404;
constexpr size_t kTwitterRows = 80000;
constexpr size_t kTpchRows = 30000;
constexpr size_t kScenarioQueries = 600;
constexpr size_t kTpchScenarioQueries = 400;
constexpr size_t kTrainerIterations = 6;

/// A timed window is cut into this many equal slices. The wall-clock
/// end-to-end metrics are medians over slices, so a burst of noise or one
/// pathological request in one slice does not move them.
constexpr size_t kSlices = 10;

/// Wall deadline of a request = its tau (virtual ms) x this factor, as wall
/// ms. The admission gate uses it on live_mix; on_time_pct uses it everywhere.
constexpr double kSlackFactor = 0.5;

/// Result-cache capacity: the dashboard working set fits, live_mix's does not.
constexpr size_t kCacheCapacity = 4096;
constexpr size_t kLiveMixCacheCapacity = 256;

/// Fresh queries served during set-up to fill the shared selectivity store
/// (popular keywords recur across fresh queries) and the histogram tier's
/// trust windows, so the store's hit ratio barely drifts while timing.
constexpr size_t kPrewarmFresh = 600;
constexpr size_t kLivePrewarmFresh = 2000;
/// Generated queries per FreshStream chunk.
constexpr size_t kFreshChunk = 256;

constexpr size_t kDashboardQueries = 256;
constexpr double kZipfTheta = 0.9;
constexpr size_t kSequenceLength = 1 << 18;

/// live_mix: constant offered rate, fresh share and stream layout.
constexpr double kLiveMixRateQps = 10000.0;
constexpr size_t kLiveTwitterQueries = 128;
constexpr size_t kLiveTpchQueries = 64;
constexpr double kLiveTaus[] = {300.0, 500.0, 800.0};
constexpr double kQualityTau = 300.0;
constexpr double kQualityFloor = 0.95;
/// Every kFreshEvery-th request is fresh (an exact 0.5% share); the others
/// revisit the working set, drawn across three streams by these weights:
/// twitter mdp/accurate, twitter mdp/sampling, tpch quality floor.
constexpr size_t kFreshEvery = 200;
/// Fresh live_mix queries use the sampling QTE: the accurate QTE's engine
/// executions on never-seen queries are fresh_explore's subject, and their
/// heavy tail would dominate an open loop's per-request CPU.
constexpr const char* kLiveFreshStrategy = "mdp/sampling";
constexpr double kStreamWeights[3] = {0.50, 0.22, 0.28};
/// Revisit requests served during set-up so the CLOCK state is warm.
constexpr size_t kLiveWarmStream = 3000;
constexpr size_t kWarmBatch = 64;

/// Query-id bases, disjoint from every scenario's own ids (seed * 1e6 + i).
constexpr uint64_t kFreshIdBase = 1ull << 44;
constexpr uint64_t kWorkingIdBase = 1ull << 41;
constexpr uint64_t kTpchWorkingIdBase = 1ull << 42;
/// Fresh stream of the fresh_explore probe: never served by the run.
constexpr uint64_t kProbeStream = 63;

/// Layer probe: sampled requests, and repeats of each cheap call.
constexpr size_t kProbeQueries = 32;
constexpr size_t kProbeRepeats = 8;

/// Spans kept per thread in a traced run.
constexpr size_t kSpanCapacity = 25000;

constexpr size_t kMaxFailures = 20;

/// Relative size of one unit in the last place of a double.
constexpr double kUlp = 2.220446049250313e-16;

/// The open-loop generator spins for the last stretch before a send.
constexpr int64_t kSpinNs = 50'000;

/// An open-loop run whose generator is later than this at p99 is invalid:
/// it is below the tightest wall deadline (300 ms x kSlackFactor).
constexpr int64_t kMaxGenLateNs = 100'000'000;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MedianOf(std::vector<double> v) { return Quantile(&v, 0.5); }

double Pct(double part, double whole) { return whole > 0.0 ? 100.0 * part / whole : 0.0; }

// ------------------------------------------------------------- requests ---

/// One revisitable request: the decision context a result-cache key covers.
struct Key {
  int shard = 0;  ///< 0 = twitter, 1 = tpch
  const Query* query = nullptr;
  const char* strategy = "";
  std::optional<double> tau_ms;
  std::optional<double> floor;
};

RewriteRequest MakeRequest(const Key& key) {
  RewriteRequest r;
  r.scenario = key.shard == 0 ? kTwitterShard : kTpchShard;
  r.query = key.query;
  r.strategy = key.strategy;
  r.tau_ms = key.tau_ms;
  r.quality_floor = key.floor;
  return r;
}

QueryGenConfig GenConfig(const Scenario& scenario, size_t count, uint64_t seed,
                         uint64_t id_base) {
  QueryGenConfig qg;
  qg.attrs = scenario.attrs;
  qg.num_queries = count;
  qg.seed = seed;
  qg.id_base = id_base;
  qg.output = scenario.config.kind == DatasetKind::kTpch ? OutputKind::kScatter
                                                           : scenario.config.output;
  if (scenario.config.kind == DatasetKind::kTwitter) qg.output_column = "coordinates";
  return qg;
}

const maliva::Table& BaseTable(const Scenario& scenario) {
  return *scenario.engine->FindEntry(scenario.config.kind == DatasetKind::kTpch ? "lineitem"
                                                                                : "tweets")
              ->table;
}

/// Canonical signatures already used by a run's queries. Fresh queries must
/// not share one with any earlier query, or they could share a result-cache
/// key and stop being fresh.
class SeenSignatures {
 public:
  bool Insert(uint64_t signature) {
    std::lock_guard<std::mutex> lock(mutex_);
    return set_.insert(signature).second;
  }

 private:
  std::mutex mutex_;
  std::unordered_set<uint64_t> set_;
};

/// Generated queries whose canonical signatures are new to `seen`.
std::vector<Query> DistinctQueries(const Scenario& scenario, size_t count, uint64_t seed,
                                   uint64_t id_base, const SignatureOptions& sig,
                                   SeenSignatures* seen) {
  std::vector<Query> out;
  for (Query& q :
       maliva::GenerateQueries(BaseTable(scenario), nullptr,
                               GenConfig(scenario, count, seed, id_base))) {
    if (seen->Insert(maliva::Canonicalize(q, sig).signature.value)) out.push_back(std::move(q));
  }
  return out;
}

/// A stream of never-seen queries, generated in seeded chunks on demand so
/// it never runs out however fast the system serves, and holding one chunk
/// at a time so memory does not grow with the requests served. Ids are
/// id_base + generation position, so they strictly increase.
class FreshStream {
 public:
  FreshStream(const Scenario* scenario, uint64_t seed, uint64_t id_base, SignatureOptions sig,
              SeenSignatures* seen)
      : scenario_(scenario), seed_(seed), id_base_(id_base), sig_(sig), seen_(seen) {}

  /// The next fresh query; valid until the following call.
  const Query& Next() {
    while (pos_ >= chunk_.size()) {
      chunk_ = DistinctQueries(*scenario_, kFreshChunk, Mix(seed_, chunks_),
                               id_base_ + chunks_ * kFreshChunk, sig_, seen_);
      pos_ = 0;
      ++chunks_;
    }
    return chunk_[pos_++];
  }

  uint64_t id_base() const { return id_base_; }

 private:
  const Scenario* scenario_;
  uint64_t seed_;
  uint64_t id_base_;
  SignatureOptions sig_;
  SeenSignatures* seen_;
  std::vector<Query> chunk_;
  size_t pos_ = 0;
  uint64_t chunks_ = 0;
};

/// Id range of one fresh stream: each client draws from its own.
constexpr uint64_t kFreshStreamSpan = 1ull << 32;

// --------------------------------------------------------------- system ---

ScenarioConfig TwitterConfig() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = kTwitterRows;
  cfg.num_queries = kScenarioQueries;
  cfg.tau_ms = 500.0;
  cfg.seed = kTwitterSeed;
  return cfg;
}

ScenarioConfig TpchConfig() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTpch;
  cfg.num_rows = kTpchRows;
  cfg.num_queries = kTpchScenarioQueries;
  cfg.tau_ms = 500.0;
  cfg.seed = kTpchSeed;
  cfg.profile.cardinality_scale = 600.0;
  cfg.approx_sample_rates = {0.2, 0.4};
  return cfg;
}

/// A strategy's option set as seen by the correctness check.
struct StrategyView {
  const Rewriter* rewriter = nullptr;
  const maliva::RewriteOptionSet* options = nullptr;  ///< set for MalivaRewriter
};

/// One set-up of a workload: scenarios, the fleet serving them, and the
/// request material derived from the seed.
struct System {
  std::string workload;
  uint64_t seed = 1;
  std::unique_ptr<Scenario> scenarios[2];
  std::unique_ptr<MalivaFleet> fleet;
  std::shared_ptr<const MalivaService> services[2];
  std::map<std::string, StrategyView> views[2];
  SignatureOptions signature_options;
  SeenSignatures seen;

  std::vector<Query> working[2];
  std::vector<Key> catalog;
  /// Digests of every computed (non-replayed) decision per catalog key.
  std::vector<std::vector<uint64_t>> miss_digests;

  /// live_mix stream layout: catalog ranges and popularity.
  size_t stream_begin[3] = {0, 0, 0};
  size_t stream_end[3] = {0, 0, 0};
  std::vector<ZipfTable> stream_zipf;
  std::vector<std::vector<size_t>> stream_perm;
  /// dashboard_revisit request sequence (catalog indices).
  std::vector<uint32_t> sequence;

  double build_s = 0.0;
  double train_s[kNumStrategies] = {0.0, 0.0, 0.0};
  double train_all_s = 0.0;
  double fill_s = 0.0;
  double setup_s = 0.0;

  /// Fresh stream `index` of this system: its own seed and id range.
  FreshStream MakeFreshStream(uint64_t index) {
    return FreshStream(scenarios[0].get(), Mix(seed, 100 + index),
                       kFreshIdBase + index * kFreshStreamSpan, signature_options, &seen);
  }
};

ServiceConfig ShardConfig(bool traced, size_t threads, size_t cache_capacity) {
  ServiceConfig c = ServiceConfig()
                        .WithTrainerIterations(kTrainerIterations)
                        .WithAgentSeeds(1)
                        .WithNumThreads(threads)
                        .WithCrossRequestCache(true)
                        .WithHistogramSelectivity(true)
                        .WithResultCache(true)
                        .WithResultCacheCapacity(cache_capacity);
  if (traced) c.WithProfileRequests(true);
  return c;
}

/// Collects failures (bounded) from any thread.
class Failures {
 public:
  void Add(std::string what) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
    if (list_.size() < kMaxFailures) list_.push_back(std::move(what));
  }
  void MoveTo(std::vector<std::string>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::string& s : list_) out->push_back(std::move(s));
    if (count_ > list_.size()) {
      out->push_back(std::to_string(count_ - list_.size()) + " more failures");
    }
    list_.clear();
    count_ = 0;
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ == 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> list_;
  size_t count_ = 0;
};

/// Checks one answered response; returns an empty string when it is sound.
std::string CheckResponse(const System& sys, const RewriteRequest& req,
                          const RewriteResponse& resp) {
  const int shard = req.scenario == kTpchShard ? 1 : 0;
  const RewriteOutcome& o = resp.outcome;
  const double tau = req.tau_ms.value_or(sys.scenarios[shard]->config.tau_ms);
  // Known deviation: on the quality-floor fallback path the service adds the
  // abandoned attempt's planning time to planning_ms and to total_ms
  // separately, so total_ms is (p + e) + a while planning_ms + exec_ms is
  // (p + a) + e, and the two may differ by rounding. Those responses are
  // held to a few units in the last place; all others to exact equality.
  const double sum = o.planning_ms + o.exec_ms;
  if (resp.exact_fallback ? std::abs(o.total_ms - sum) > 4 * kUlp * std::abs(o.total_ms)
                          : o.total_ms != sum) {
    return "total_ms != planning_ms + exec_ms";
  }
  if (o.viable != (o.total_ms <= tau)) return "viable disagrees with total_ms <= tau";
  if (resp.rewritten_sql.empty()) return "empty rewritten SQL";
  auto it = sys.views[shard].find(resp.strategy);
  if (it == sys.views[shard].end()) return "unexpected strategy " + resp.strategy;
  const StrategyView& view = it->second;
  if (view.options != nullptr) {
    if (o.option_index >= view.options->size()) return "option index outside its set";
    if (resp.option != &(*view.options)[o.option_index]) return "option not the decided one";
  } else if (resp.option != view.rewriter->DecidedOption(o)) {
    return "option not the decided one";
  }
  return "";
}

struct Totals {
  ServiceStats service;
  uint64_t admission = 0;  ///< admitted + degraded + shed
  uint64_t executions = 0;
};

Totals Snapshot(const System& sys) {
  FleetStats fs = sys.fleet->Stats();
  Totals t;
  t.service = fs.totals;
  t.admission = fs.admission.admitted + fs.admission.degraded + fs.admission.shed_deadline +
                fs.admission.shed_overload;
  for (const auto& s : sys.scenarios) {
    if (s) t.executions += s->oracle->CacheSize();
  }
  return t;
}

/// Serves catalog keys in one ServeBatch on `shard` and records the digest
/// of every computed decision.
void FillKeys(System* sys, int shard, const std::vector<size_t>& keys, Failures* failures) {
  std::vector<RewriteRequest> reqs;
  for (size_t k : keys) reqs.push_back(MakeRequest(sys->catalog[k]));
  std::vector<Result<RewriteResponse>> out = sys->services[shard]->ServeBatch(reqs);
  for (size_t i = 0; i < out.size(); ++i) {
    if (!out[i].ok()) {
      failures->Add("fill request failed: " + out[i].status().ToString());
      continue;
    }
    std::string bad = CheckResponse(*sys, reqs[i], out[i].value());
    if (!bad.empty()) failures->Add("fill: " + bad);
    const maliva::RequestStats& st = out[i].value().stats;
    if (!st.result_cache_hit && !st.result_cache_coalesced) {
      sys->miss_digests[keys[i]].push_back(ReplayDriver::ResponseDigest(out[i]));
    }
  }
}

/// Serves `count` fresh queries during set-up, filling the shared
/// selectivity store and the histogram tier's trust windows. `strategy`
/// null interleaves the closed-loop strategies.
void PrewarmFresh(System* sys, size_t count, const char* strategy, Failures* failures) {
  FreshStream stream = sys->MakeFreshStream(0);
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) queries.push_back(stream.Next());
  std::vector<RewriteRequest> reqs(count);
  for (size_t i = 0; i < count; ++i) {
    reqs[i].scenario = kTwitterShard;
    reqs[i].query = &queries[i];
    reqs[i].strategy = strategy != nullptr ? strategy : kStrategies[i % kNumStrategies];
  }
  for (Result<RewriteResponse>& r : sys->services[0]->ServeBatch(reqs)) {
    if (!r.ok()) failures->Add("prewarm request failed: " + r.status().ToString());
  }
}

/// The live_mix request at position `i`: a catalog index drawn by stream
/// weight and popularity, or -1 for a fresh query.
int64_t DrawLiveKey(const System& sys, size_t i, Rng* rng) {
  if (i % kFreshEvery == kFreshEvery - 1) return -1;
  double u = rng->Uniform(0.0, 1.0);
  int s = 0;
  while (s < 2 && u >= kStreamWeights[s]) u -= kStreamWeights[s++];
  const size_t rank = static_cast<size_t>(sys.stream_zipf[s].Sample(rng));
  return static_cast<int64_t>(sys.stream_begin[s] + sys.stream_perm[s][rank]);
}

/// Catalog indices 0..n-1 in a seeded order, drawn from by popularity rank.
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  rng.Shuffle(&perm);
  return perm;
}

void FillDashboard(System* sys, Failures* failures) {
  sys->working[0] = DistinctQueries(*sys->scenarios[0], kDashboardQueries,
                                    Mix(kWorkingSetSeed, 2), kWorkingIdBase,
                                    sys->signature_options, &sys->seen);
  for (const Query& q : sys->working[0]) {
    for (const char* s : kStrategies) sys->catalog.push_back(Key{0, &q, s, {}, {}});
  }
  sys->miss_digests.resize(sys->catalog.size());
  std::vector<size_t> all(sys->catalog.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  FillKeys(sys, 0, all, failures);
  ZipfTable zipf(static_cast<int64_t>(all.size()), kZipfTheta);
  const std::vector<size_t> perm = Permutation(all.size(), Mix(kWorkingSetSeed, 3));
  Rng rng(Mix(sys->seed, 4));
  sys->sequence.resize(kSequenceLength);
  for (uint32_t& k : sys->sequence) k = static_cast<uint32_t>(perm[zipf.Sample(&rng)]);
}

void FillLiveMix(System* sys, Failures* failures) {
  sys->working[0] = DistinctQueries(*sys->scenarios[0], kLiveTwitterQueries,
                                    Mix(kWorkingSetSeed, 2), kWorkingIdBase,
                                    sys->signature_options, &sys->seen);
  SignatureOptions tpch_sig;
  tpch_sig.literal_bins = sys->services[1]->config().signature_literal_bins;
  SeenSignatures tpch_seen;
  sys->working[1] = DistinctQueries(*sys->scenarios[1], kLiveTpchQueries,
                                    Mix(kWorkingSetSeed, 5), kTpchWorkingIdBase, tpch_sig,
                                    &tpch_seen);
  sys->stream_begin[0] = sys->catalog.size();
  for (const Query& q : sys->working[0]) {
    for (double tau : kLiveTaus) sys->catalog.push_back(Key{0, &q, kStrategies[0], tau, {}});
  }
  sys->stream_end[0] = sys->stream_begin[1] = sys->catalog.size();
  for (const Query& q : sys->working[0]) sys->catalog.push_back(Key{0, &q, kStrategies[1], {}, {}});
  sys->stream_end[1] = sys->stream_begin[2] = sys->catalog.size();
  for (const Query& q : sys->working[1]) {
    sys->catalog.push_back(Key{1, &q, kQualityStrategy, kQualityTau, kQualityFloor});
  }
  sys->stream_end[2] = sys->catalog.size();
  sys->miss_digests.resize(sys->catalog.size());
  for (int s = 0; s < 3; ++s) {
    const size_t n = sys->stream_end[s] - sys->stream_begin[s];
    sys->stream_zipf.emplace_back(static_cast<int64_t>(n), kZipfTheta);
    sys->stream_perm.push_back(
        Permutation(n, Mix(kWorkingSetSeed, 20 + static_cast<uint64_t>(s))));
  }

  // Every key once, then a revisit stream drawn like the timed one so the
  // result cache's CLOCK state is warm when timing starts.
  std::vector<size_t> keys[2];
  for (size_t k = 0; k < sys->catalog.size(); ++k) keys[sys->catalog[k].shard].push_back(k);
  for (int shard = 0; shard < 2; ++shard) FillKeys(sys, shard, keys[shard], failures);
  keys[0].clear();
  keys[1].clear();
  Rng rng(Mix(sys->seed, 6));
  for (size_t i = 0; i < kLiveWarmStream; ++i) {
    const int64_t k = DrawLiveKey(*sys, i, &rng);
    if (k >= 0) keys[sys->catalog[static_cast<size_t>(k)].shard].push_back(static_cast<size_t>(k));
  }
  for (int shard = 0; shard < 2; ++shard) {
    for (size_t b = 0; b < keys[shard].size(); b += kWarmBatch) {
      const size_t e = std::min(b + kWarmBatch, keys[shard].size());
      FillKeys(sys, shard,
               std::vector<size_t>(keys[shard].begin() + static_cast<long>(b),
                                   keys[shard].begin() + static_cast<long>(e)),
               failures);
    }
  }
}

struct SetupArgs {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  size_t batch_threads = 1;  ///< set-up ServeBatch workers
  size_t fleet_threads = 1;  ///< live_mix scheduler workers
};

/// Builds, trains and fills one system; nullptr (with failures) on error.
/// setup_s covers all three steps.
std::unique_ptr<System> Setup(const SetupArgs& args, SpanLog* log, Failures* failures) {
  auto sys = std::make_unique<System>();
  sys->workload = args.workload;
  sys->seed = args.seed;
  const bool live = args.workload == kLiveMix;
  const int64_t t0 = NowNs();
  ScopedSpan setup_span(log, "setup", 0);

  {
    ScopedSpan span(log, "workload.BuildScenario", 0, setup_span.index());
    sys->scenarios[0] = std::make_unique<Scenario>(maliva::BuildScenario(TwitterConfig()));
    if (live) sys->scenarios[1] = std::make_unique<Scenario>(maliva::BuildScenario(TpchConfig()));
    sys->build_s = Seconds(NowNs() - t0);
  }

  FleetConfig fc =
      FleetConfig()
          .WithDefaults(ShardConfig(args.traced, args.batch_threads,
                                    live ? kLiveMixCacheCapacity : kCacheCapacity))
          .WithNumThreads(live ? args.fleet_threads : 1)
          .WithWarmupThreads(0);
  if (live) fc.WithAdmission(AdmissionConfig().WithEnabled(true).WithSlackFactor(kSlackFactor));
  sys->fleet = std::make_unique<MalivaFleet>(fc);
  {
    ScopedSpan span(log, "fleet.RegisterScenario", 0, setup_span.index());
    Status st = sys->fleet->RegisterScenario(kTwitterShard, sys->scenarios[0].get());
    if (st.ok() && live) {
      st = sys->fleet->RegisterScenario(kTpchShard, sys->scenarios[1].get(),
                                        [](ServiceConfig& c) {
                                          c.WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                                                             {ApproxKind::kSampleTable, 0.4}});
                                        });
    }
    if (!st.ok()) {
      failures->Add("RegisterScenario: " + st.ToString());
      return nullptr;
    }
  }
  for (int shard = 0; shard < (live ? 2 : 1); ++shard) {
    auto svc = sys->fleet->ServiceFor(shard == 0 ? kTwitterShard : kTpchShard);
    if (!svc.ok()) {
      failures->Add("ServiceFor: " + svc.status().ToString());
      return nullptr;
    }
    sys->services[shard] = svc.value();
  }
  sys->signature_options.literal_bins = sys->services[0]->config().signature_literal_bins;

  // Training: each strategy the workload serves, built (and timed) alone.
  auto train = [&](int shard, const char* strategy) -> double {
    ScopedSpan span(log, "core.GetRewriter", 0, setup_span.index());
    const int64_t a = NowNs();
    Result<const Rewriter*> r = sys->services[shard]->GetRewriter(strategy);
    const double s = Seconds(NowNs() - a);
    sys->train_all_s += s;
    if (!r.ok()) {
      failures->Add(std::string("GetRewriter ") + strategy + ": " + r.status().ToString());
      return s;
    }
    StrategyView view;
    view.rewriter = r.value();
    if (auto* m = dynamic_cast<const MalivaRewriter*>(r.value())) view.options = m->renv().options;
    sys->views[shard][strategy] = view;
    return s;
  };
  for (size_t j = 0; j < kNumStrategies; ++j) sys->train_s[j] = train(0, kStrategies[j]);
  if (live) {
    sys->train_s[2] += train(1, "baseline");  // the quality floor's exact fallback
    train(1, kQualityStrategy);
  }
  if (!failures->empty()) return nullptr;

  {
    ScopedSpan span(log, "workload.Fill", 0, setup_span.index());
    const int64_t f0 = NowNs();
    if (args.workload == kDashboardRevisit) {
      FillDashboard(sys.get(), failures);
    } else if (live) {
      PrewarmFresh(sys.get(), kLivePrewarmFresh, kLiveFreshStrategy, failures);
      FillLiveMix(sys.get(), failures);
    } else {
      PrewarmFresh(sys.get(), kPrewarmFresh, nullptr, failures);
    }
    sys->fill_s = Seconds(NowNs() - f0);
  }
  sys->setup_s = Seconds(NowNs() - t0);

  // Stationarity: the dashboard working set must fit and stay resident.
  if (args.workload == kDashboardRevisit) {
    const ServiceStats st = sys->services[0]->Stats();
    if (sys->catalog.size() > sys->services[0]->config().result_cache_capacity) {
      failures->Add("dashboard working set exceeds result_cache_capacity");
    }
    if (st.result_cache_size != sys->catalog.size() || st.result_cache_evictions != 0) {
      failures->Add("dashboard working set not resident after fill: " +
                    std::to_string(st.result_cache_size) + " of " +
                    std::to_string(sys->catalog.size()));
    }
  }
  return sys;
}

// --------------------------------------------------------------- window ---

/// What the window keeps of one answered response.
struct Answer {
  double planning_ms = 0.0;
  double exec_ms = 0.0;
  double serve_wall_ms = 0.0;
  double queue_wait_ms = 0.0;
  size_t steps = 0;
  bool viable = false;
  bool degraded = false;
  bool exact_fallback = false;
  bool replayed = false;  ///< result-cache hit or coalesced
  uint64_t digest = 0;    ///< ReplayDriver::ResponseDigest
  std::optional<ProfileBreakdown> profile;
};

Answer AnswerOf(const Result<RewriteResponse>& r) {
  const RewriteResponse& resp = r.value();
  Answer a;
  a.planning_ms = resp.outcome.planning_ms;
  a.exec_ms = resp.outcome.exec_ms;
  a.serve_wall_ms = resp.stats.serve_wall_ms;
  a.queue_wait_ms = resp.stats.queue_wait_ms;
  a.steps = resp.outcome.steps;
  a.viable = resp.outcome.viable;
  a.degraded = resp.stats.degraded;
  a.exact_fallback = resp.exact_fallback;
  a.replayed = resp.stats.result_cache_hit || resp.stats.result_cache_coalesced;
  a.digest = ReplayDriver::ResponseDigest(r);
  a.profile = resp.stats.profile;
  return a;
}

/// What one timed window measured.
struct Window {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t viable = 0;
  uint64_t on_time = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t exact_fallbacks = 0;
  uint64_t steps = 0;
  double qrt_ms_sum = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Timing serve;  ///< RequestStats::serve_wall_ms
  Timing response;  ///< from the scheduled send to completion
  /// RequestStats::queue_wait_ms as parts per million of the request's wall
  /// deadline (tau x kSlackFactor): how much of its budget queueing took.
  Timing queue_share;
  Timing gen_late;  ///< send time minus scheduled send time
  double phase_self_ms[ProfileBreakdown::kNumPhases] = {};
  uint64_t profiled = 0;
  Totals before;
  Totals after;

  /// Per-slice completions, CPU, wall time and latency.
  struct Slice {
    uint64_t requests = 0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    Timing latency;
  };
  std::vector<Slice> slices = std::vector<Slice>(kSlices);

  void Merge(const Window& o) {
    sent += o.sent;
    answered += o.answered;
    viable += o.viable;
    on_time += o.on_time;
    degraded += o.degraded;
    shed += o.shed;
    exact_fallbacks += o.exact_fallbacks;
    steps += o.steps;
    qrt_ms_sum += o.qrt_ms_sum;
    serve.Merge(o.serve);
    response.Merge(o.response);
    queue_share.Merge(o.queue_share);
    gen_late.Merge(o.gen_late);
    for (int p = 0; p < ProfileBreakdown::kNumPhases; ++p) phase_self_ms[p] += o.phase_self_ms[p];
    profiled += o.profiled;
    for (size_t k = 0; k < kSlices; ++k) {
      slices[k].requests += o.slices[k].requests;
      slices[k].latency.Merge(o.slices[k].latency);
    }
  }

  /// Records one request's end-to-end latency in its slice.
  void Latency(size_t slice, int64_t ns) {
    slices[slice].latency.Record(ns);
    ++slices[slice].requests;
  }

  /// Folds one answered request in; `response_ns` runs from the scheduled
  /// send to completion.
  void Answered(const Answer& a, double tau, int64_t response_ns) {
    ++answered;
    if (a.viable) ++viable;
    if (Millis(response_ns) <= tau * kSlackFactor) ++on_time;
    if (a.degraded) ++degraded;
    if (a.exact_fallback) ++exact_fallbacks;
    steps += a.steps;
    qrt_ms_sum += a.planning_ms + a.exec_ms;
    serve.Record(std::llround(a.serve_wall_ms * 1e6));
    response.Record(response_ns);
    queue_share.Record(std::llround(a.queue_wait_ms / (tau * kSlackFactor) * 1e6));
    if (a.profile) {
      ++profiled;
      for (int p = 0; p < ProfileBreakdown::kNumPhases; ++p) {
        phase_self_ms[p] += a.profile->SelfMs(p);
      }
    }
  }
};

/// A decision whose check waits for the end of the window.
struct Decision {
  int64_t key = -1;  ///< catalog index
  uint64_t digest = 0;
  bool replayed = false;
};

/// Checks a replayed decision against the computed decisions of its key
/// while the window runs (miss_digests is read-only then); anything that
/// cannot be settled yet is deferred to CheckDeferred.
void CheckDecision(const System& sys, int64_t key, const Answer& a,
                   std::vector<Decision>* deferred, Failures* failures) {
  if (key < 0) {
    if (a.replayed) failures->Add("a fresh query was answered from the result cache");
    return;
  }
  if (a.replayed) {
    const std::vector<uint64_t>& m = sys.miss_digests[static_cast<size_t>(key)];
    if (std::find(m.begin(), m.end(), a.digest) != m.end()) return;
  }
  deferred->push_back(Decision{key, a.digest, a.replayed});
}

/// Every replayed decision must repeat one computed for its key, during
/// set-up or in the window.
void CheckDeferred(System* sys, const std::vector<Decision>& deferred, Failures* failures) {
  for (const Decision& d : deferred) {
    if (!d.replayed) sys->miss_digests[static_cast<size_t>(d.key)].push_back(d.digest);
  }
  for (const Decision& d : deferred) {
    if (!d.replayed) continue;
    const std::vector<uint64_t>& m = sys->miss_digests[static_cast<size_t>(d.key)];
    if (std::find(m.begin(), m.end(), d.digest) == m.end()) {
      failures->Add("cache hit digest differs from the miss that filled its key");
    }
  }
}

struct WindowArgs {
  double seconds = 10.0;
  size_t fixed = 0;
  size_t clients = 1;
};

/// Closed loop: each client sends its next request when the previous one
/// returns, through MalivaFleet::Serve. `logs` holds one span log per
/// client in a traced run, else is empty.
Window RunClosed(System* sys, const WindowArgs& args, std::vector<SpanLog>* logs,
                 Failures* failures) {
  const bool fresh = sys->workload == kFreshExplore;
  std::atomic<size_t> next{0};
  std::atomic<bool> go{false};
  std::vector<Window> parts(args.clients);
  std::vector<std::vector<Decision>> deferred(args.clients);
  std::vector<int64_t> last_done(args.clients, 0);
  const double tau = sys->scenarios[0]->config.tau_ms;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const int64_t slice_ns = static_cast<int64_t>(args.seconds * 1e9 / kSlices);

  auto client = [&](size_t c) {
    std::optional<FreshStream> stream;
    if (fresh) stream.emplace(sys->MakeFreshStream(1 + c));
    uint64_t last_id = 0;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    Window& w = parts[c];
    SpanLog* log = logs->empty() ? nullptr : &(*logs)[c];
    int64_t prev_done = start_ns;
    for (uint64_t j = 0;; ++j) {
      if (args.fixed == 0 && NowNs() >= end_ns) break;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (args.fixed > 0 && i >= args.fixed) break;
      ScopedSpan root(log, "request", i);
      RewriteRequest req;
      int64_t key = -1;
      if (fresh) {
        req.scenario = kTwitterShard;
        req.query = &stream->Next();
        req.strategy = kStrategies[j % kNumStrategies];
        // Stationarity: ids strictly increase inside the client's own range.
        const uint64_t id = req.query->id;
        if (id < stream->id_base() || id >= stream->id_base() + kFreshStreamSpan ||
            (j > 0 && id <= last_id)) {
          failures->Add("fresh_explore repeated or reused a query id");
        }
        last_id = id;
      } else {
        key = sys->sequence[i % sys->sequence.size()];
        req = MakeRequest(sys->catalog[static_cast<size_t>(key)]);
      }
      const int64_t send = NowNs();
      w.gen_late.Record(send - prev_done);
      std::optional<Result<RewriteResponse>> served;
      {
        ScopedSpan span(log, "fleet.Serve", i, root.index());
        served.emplace(sys->fleet->Serve(req));
      }
      const int64_t done = NowNs();
      prev_done = done;
      ++w.sent;
      w.Latency(args.fixed > 0 ? 0
                               : std::min<size_t>(kSlices - 1, static_cast<size_t>(
                                                                   (done - start_ns) / slice_ns)),
                done - send);
      const Result<RewriteResponse>& resp = *served;
      if (!resp.ok()) {
        failures->Add("request failed: " + resp.status().ToString());
        continue;
      }
      std::string bad = CheckResponse(*sys, req, resp.value());
      if (!bad.empty()) failures->Add(bad);
      const Answer answer = AnswerOf(resp);
      w.Answered(answer, tau, done - send);
      CheckDecision(*sys, key, answer, &deferred[c], failures);
    }
    last_done[c] = prev_done;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < args.clients; ++c) threads.emplace_back(client, c);
  Window total;
  total.before = Snapshot(*sys);
  double cpu_mark[kSlices + 1];
  int64_t wall_mark[kSlices + 1];
  cpu_mark[0] = ProcessCpuSeconds();
  start_ns = wall_mark[0] = NowNs();
  end_ns = start_ns + slice_ns * static_cast<int64_t>(kSlices);
  go.store(true, std::memory_order_release);
  // Timed mode: sample the process CPU and the clock at each slice boundary.
  for (size_t k = 1; k < kSlices && args.fixed == 0; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start_ns + slice_ns * static_cast<int64_t>(k))));
    cpu_mark[k] = ProcessCpuSeconds();
    wall_mark[k] = NowNs();
  }
  for (std::thread& t : threads) t.join();
  const double cpu_end = ProcessCpuSeconds();
  total.cpu_s = cpu_end - cpu_mark[0];
  total.after = Snapshot(*sys);
  const int64_t last = *std::max_element(last_done.begin(), last_done.end());
  total.wall_s = Seconds(last - start_ns);
  for (const Window& w : parts) total.Merge(w);
  if (args.fixed > 0) {
    total.slices[0].cpu_s = total.cpu_s;
    total.slices[0].wall_s = total.wall_s;
  } else {
    // The last slice runs until the last in-flight request returns.
    cpu_mark[kSlices] = cpu_end;
    wall_mark[kSlices] = last;
    for (size_t k = 0; k < kSlices; ++k) {
      total.slices[k].cpu_s = cpu_mark[k + 1] - cpu_mark[k];
      total.slices[k].wall_s = Seconds(wall_mark[k + 1] - wall_mark[k]);
    }
  }
  std::vector<Decision> all;
  for (const auto& d : deferred) all.insert(all.end(), d.begin(), d.end());
  CheckDeferred(sys, all, failures);
  return total;
}

/// One open-loop request's completion, written by its callback.
struct Slot {
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  bool shed = false;
  std::optional<Answer> answer;  ///< set when the request was answered
  std::string failure;
};

/// Open loop: one generator thread sends Poisson arrivals at a constant
/// rate through MalivaFleet::ServeAsync and never waits for completions.
Window RunOpen(System* sys, const WindowArgs& args, SpanLog* log, Failures* failures) {
  const size_t n = args.fixed > 0
                       ? args.fixed
                       : static_cast<size_t>(std::llround(kLiveMixRateQps * args.seconds));
  // Poisson arrivals conditioned on exactly n in the window: n + 1
  // exponential gaps, scaled so the (n+1)-th lands on the window's end.
  std::vector<double> offset_ms(n);
  {
    ArrivalGenerator gen(kLiveMixRateQps, Mix(sys->seed, 11));
    for (double& o : offset_ms) o = gen.NextMs();
    const double scale = args.fixed > 0 ? 1.0 : args.seconds * 1e3 / gen.NextMs();
    for (double& o : offset_ms) o *= scale;
  }
  std::vector<RewriteRequest> reqs(n);
  std::vector<int64_t> keys(n);
  std::vector<Query> fresh_queries;
  fresh_queries.reserve(n);  // stable addresses for the requests below
  {
    FreshStream stream = sys->MakeFreshStream(1);
    Rng rng(Mix(sys->seed, 12));
    for (size_t i = 0; i < n; ++i) {
      keys[i] = DrawLiveKey(*sys, i, &rng);
      if (keys[i] >= 0) {
        reqs[i] = MakeRequest(sys->catalog[static_cast<size_t>(keys[i])]);
      } else {
        fresh_queries.push_back(stream.Next());
        reqs[i].scenario = kTwitterShard;
        reqs[i].query = &fresh_queries.back();
        reqs[i].strategy = kLiveFreshStrategy;
      }
    }
  }

  // Shared with the callbacks, which may outlive this frame on a timeout.
  struct State {
    std::vector<Slot> slots;
    std::atomic<size_t> completed{0};
  };
  auto state = std::make_shared<State>();
  state->slots.resize(n);

  Window w;
  w.before = Snapshot(*sys);
  std::vector<int64_t> call_start(n), call_end(n);
  std::vector<size_t> slice_of(n, 0);
  // CPU attributed to the system at a point in time: the process's, minus
  // the generator's own (sleeping, pacing, bookkeeping) but keeping what it
  // spends inside ServeAsync (routing, the gate, inline cache hits).
  const double gen_cpu0 = ThreadCpuSeconds();
  double gen_cpu_in_calls = 0.0;
  auto system_cpu = [&] {
    return ProcessCpuSeconds() - (ThreadCpuSeconds() - gen_cpu0 - gen_cpu_in_calls);
  };
  double cpu_mark[kSlices + 1];
  cpu_mark[0] = system_cpu();
  const double window_ms = args.fixed > 0 ? (n > 0 ? offset_ms.back() + 1.0 : 1.0)
                                          : args.seconds * 1e3;
  size_t slice = 0;
  const int64_t t0 = NowNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = state->slots[i];
    slot.due_ns = t0 + static_cast<int64_t>(offset_ms[i] * 1e6);
    slice_of[i] = args.fixed > 0 ? 0
                                 : std::min<size_t>(kSlices - 1, static_cast<size_t>(
                                                                     offset_ms[i] * kSlices /
                                                                     window_ms));
    // Sleep until shortly before the request is due, then spin: a generator
    // that sleeps to the deadline wakes late and cold, and the cache hits it
    // answers inline would measure the wake-up.
    if (slot.due_ns - NowNs() > kSpinNs) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(slot.due_ns - kSpinNs)));
    }
    while (NowNs() < slot.due_ns) {
    }
    while (slice < slice_of[i]) cpu_mark[++slice] = system_cpu();
    const double c0 = ThreadCpuSeconds();
    call_start[i] = NowNs();
    w.gen_late.Record(call_start[i] - slot.due_ns);
    const RewriteRequest* req = &reqs[i];
    const System* csys = sys;
    Status st = sys->fleet->ServeAsync(*req, [state, i, req, csys](Result<RewriteResponse> r) {
      Slot& s = state->slots[i];
      if (r.ok()) {
        s.failure = CheckResponse(*csys, *req, r.value());
        s.answer.emplace(AnswerOf(r));
      } else {
        const Status::Code code = r.status().code();
        s.shed = code == Status::Code::kDeadlineExceeded ||
                 code == Status::Code::kResourceExhausted;
        s.failure = "request failed: " + r.status().ToString();
      }
      s.done_ns = NowNs();
      state->completed.fetch_add(1, std::memory_order_release);
    });
    call_end[i] = NowNs();
    gen_cpu_in_calls += ThreadCpuSeconds() - c0;
    if (!st.ok()) failures->Add("ServeAsync refused: " + st.ToString());
  }
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while (state->completed.load(std::memory_order_acquire) < n && NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (slice + 1 < kSlices) cpu_mark[++slice] = system_cpu();
  cpu_mark[kSlices] = system_cpu();
  w.cpu_s = cpu_mark[kSlices] - cpu_mark[0];
  for (size_t k = 0; k < kSlices; ++k) w.slices[k].cpu_s = cpu_mark[k + 1] - cpu_mark[k];
  w.after = Snapshot(*sys);
  w.sent = n;
  if (state->completed.load(std::memory_order_acquire) < n) {
    failures->Add("live_mix: requests did not complete within 60 s");
    return w;
  }

  int64_t last = t0;
  std::vector<Decision> deferred;
  for (size_t i = 0; i < n; ++i) {
    Slot& s = state->slots[i];
    last = std::max(last, s.done_ns);
    if (!s.failure.empty()) failures->Add(s.failure);
    if (log != nullptr) {
      const int64_t root = log->Add("request", i, -1, s.due_ns, s.done_ns);
      log->Add("fleet.ServeAsync", i, root, call_start[i], call_end[i]);
    }
    if (!s.answer) {
      if (s.shed) ++w.shed;
      continue;
    }
    const Answer& a = *s.answer;
    const int shard = reqs[i].scenario == kTpchShard ? 1 : 0;
    w.Answered(a, reqs[i].tau_ms.value_or(sys->scenarios[shard]->config.tau_ms),
               s.done_ns - s.due_ns);
    // Open-loop response times include queueing and generator lateness, so
    // the end-to-end latency is the shard's own serve time.
    w.Latency(slice_of[i], std::llround(a.serve_wall_ms * 1e6));
    if (!a.degraded) CheckDecision(*sys, keys[i], a, &deferred, failures);
  }
  w.wall_s = Seconds(last - t0);
  for (size_t k = 0; k < kSlices; ++k) w.slices[k].wall_s = window_ms / 1e3 / kSlices;
  w.slices[kSlices - 1].wall_s = Seconds(last - t0) - window_ms / 1e3 * (kSlices - 1) / kSlices;
  CheckDeferred(sys, deferred, failures);
  if (w.after.admission - w.before.admission != n) {
    failures->Add("admitted + degraded + shed != requests sent");
  }
  return w;
}

// ---------------------------------------------------------------- probe ---

struct ProbeTimes {
  std::vector<double> rewrite_us[kNumStrategies];
  std::vector<double> qvalues_us, estimate_accurate_us, estimate_sampling_us;
  std::vector<double> execute_ms, true_sel_us, sampled_sel_us, hist_sel_us, resolve_us;
  std::vector<double> canonicalize_us, fingerprint_us, render_us, route_us;
};

/// Times `fn` once, inside a span; returns the elapsed ns.
template <typename Fn>
int64_t Timed(SpanLog* log, const char* name, uint64_t request, int64_t parent, Fn&& fn) {
  ScopedSpan span(log, name, request, parent);
  const int64_t a = NowNs();
  fn();
  return NowNs() - a;
}

/// Calls each module's public functions in turn on a fixed sample of the
/// workload's twitter queries. Later calls on a query see the memo entries
/// earlier ones filled (the rewrite runs first, as a served miss would).
void RunProbe(const System& sys, const std::vector<std::pair<const Query*, const char*>>& sample,
              SpanLog* log, ProbeTimes* t, Failures* failures) {
  const MalivaService& svc = *sys.services[0];
  const maliva::Engine& engine = *sys.scenarios[0]->engine;
  SignatureOptions sig;
  sig.literal_bins = svc.config().signature_literal_bins;
  maliva::FingerprintOptions fp;
  fp.tau_bin_ms = svc.config().result_cache_tau_bin_ms;
  fp.quality_floor_bins = svc.config().result_cache_floor_bins;
  const double tau = sys.scenarios[0]->config.tau_ms;
  const RewriterEnv acc = svc.MakeEnv(svc.accurate_qte());
  const RewriterEnv smp = svc.MakeEnv(svc.sampling_qte());
  const QAgent agent(acc.options->size(), 7);
  volatile size_t sink = 0;

  for (size_t qi = 0; qi < sample.size(); ++qi) {
    const Query& q = *sample[qi].first;
    const uint64_t id = q.id;
    ScopedSpan root(log, "probe.query", id);
    const int64_t parent = root.index();

    for (size_t j = 0; j < kNumStrategies; ++j) {
      const Rewriter* rw = sys.views[0].at(kStrategies[j]).rewriter;
      RewriteSession session(RewriteSession::SeedFor(1, qi));
      RewriteOutcome out;
      t->rewrite_us[j].push_back(Micros(Timed(log, "core.RewriteForSession", id, parent, [&] {
        out = rw->RewriteForSession(q, tau, session);
      })));
      const RewriteOption* option = rw->DecidedOption(out);
      for (size_t r = 0; r < kProbeRepeats; ++r) {
        t->render_us.push_back(Micros(Timed(log, "query.RewrittenQuery::ToString", id, parent, [&] {
          sink = sink + (option != nullptr ? RewrittenQuery{&q, *option}.ToString().size()
                                           : q.ToString().size());
        })));
      }
    }

    CanonicalQuery canonical;
    for (size_t r = 0; r < kProbeRepeats; ++r) {
      t->canonicalize_us.push_back(Micros(Timed(log, "query.Canonicalize", id, parent, [&] {
        canonical = maliva::Canonicalize(q, sig);
      })));
      t->fingerprint_us.push_back(
          Micros(Timed(log, "query.MakeRequestFingerprint", id, parent, [&] {
            sink = sink + maliva::MakeRequestFingerprint(canonical.signature, sample[qi].second,
                                                         tau, std::nullopt, fp)
                              .value;
          })));
    }

    const maliva::QteContext ctx = acc.MakeContext(q);
    {
      QueryEnv env(&ctx, acc.qte, acc.env_config);
      const std::vector<double> features = env.Features();
      for (size_t r = 0; r < kProbeRepeats; ++r) {
        t->qvalues_us.push_back(Micros(Timed(log, "ml.QAgent::QValues", id, parent, [&] {
          sink = sink + agent.QValues(features).size();
        })));
      }
    }
    const maliva::QteContext sctx = smp.MakeContext(q);
    for (size_t o = 0; o < ctx.options->size(); ++o) {
      SelectivityCache a(ctx.NumSlots());
      t->estimate_accurate_us.push_back(Micros(Timed(log, "qte.Estimate", id, parent, [&] {
        sink = sink + static_cast<size_t>(acc.qte->Estimate(ctx, o, &a).est_ms);
      })));
      SelectivityCache s(sctx.NumSlots());
      t->estimate_sampling_us.push_back(Micros(Timed(log, "qte.Estimate", id, parent, [&] {
        sink = sink + static_cast<size_t>(smp.qte->Estimate(sctx, o, &s).est_ms);
      })));
    }

    for (size_t slot = 0; slot < ctx.NumSlots(); ++slot) {
      const maliva::QteContext::SlotTarget target = ctx.SlotTargetFor(slot);
      for (size_t r = 0; r < kProbeRepeats; ++r) {
        Result<double> sel = Status::Internal("not called");
        t->true_sel_us.push_back(Micros(Timed(log, "engine.TrueSelectivity", id, parent, [&] {
          sel = engine.TrueSelectivity(*target.table, *target.pred);
        })));
        if (!sel.ok()) failures->Add("TrueSelectivity: " + sel.status().ToString());
        t->sampled_sel_us.push_back(Micros(Timed(log, "engine.SampledSelectivity", id, parent, [&] {
          sel = engine.SampledSelectivity(*target.table, *target.pred,
                                          svc.qte_params().qte_sample_rate);
        })));
        if (!sel.ok()) failures->Add("SampledSelectivity: " + sel.status().ToString());
        // Keyword predicates have no histogram: NotFound is the expected
        // answer there and is not timed.
        const int64_t ns = Timed(log, "engine.HistogramSelectivity", id, parent, [&] {
          sel = engine.HistogramSelectivity(*target.table, *target.pred,
                                            engine.catalog_version());
        });
        if (sel.ok()) t->hist_sel_us.push_back(Micros(ns));
      }
    }
    for (size_t o = 0; o < ctx.options->size(); ++o) {
      const RewriteOption& option = (*ctx.options)[o];
      for (size_t r = 0; r < kProbeRepeats; ++r) {
        t->resolve_us.push_back(Micros(Timed(log, "engine.Optimizer::ResolvePlan", id, parent, [&] {
          sink = sink + engine.optimizer().ResolvePlan(q, option).index_mask;
        })));
      }
      Result<maliva::ExecResult> exec = Status::Internal("not called");
      t->execute_ms.push_back(Millis(Timed(log, "engine.Execute", id, parent, [&] {
        exec = engine.Execute(RewrittenQuery{&q, option});
      })));
      if (!exec.ok()) failures->Add("Execute: " + exec.status().ToString());
    }
    for (size_t r = 0; r < kProbeRepeats; ++r) {
      t->route_us.push_back(Micros(Timed(log, "fleet.ServiceFor", id, parent, [&] {
        sink = sink + (sys.fleet->ServiceFor(kTwitterShard).ok() ? 1 : 0);
      })));
    }
  }
}

/// The probe's sample: the workload's first kProbeQueries twitter requests,
/// as (query, strategy) pairs. `owned` holds the fresh queries among them.
std::vector<std::pair<const Query*, const char*>> ProbeSample(const System& sys,
                                                              std::vector<Query>* owned) {
  std::vector<std::pair<const Query*, const char*>> out;
  owned->reserve(kProbeQueries);  // stable addresses
  // A private signature set: the probe regenerates queries the run already
  // used, which the run's own set would reject.
  SeenSignatures seen;
  const uint64_t stream_index = sys.workload == kFreshExplore ? kProbeStream : 1;
  FreshStream fresh(sys.scenarios[0].get(), Mix(sys.seed, 100 + stream_index),
                    kFreshIdBase + stream_index * kFreshStreamSpan, sys.signature_options, &seen);
  Rng rng(Mix(sys.seed, 12));
  for (size_t draw = 0; out.size() < kProbeQueries; ++draw) {
    const size_t i = out.size();
    if (sys.workload == kFreshExplore) {
      // Never-served queries, so the probe sees the fresh miss path.
      owned->push_back(fresh.Next());
      out.push_back({&owned->back(), kStrategies[i % kNumStrategies]});
    } else if (sys.workload == kDashboardRevisit) {
      const Key& k = sys.catalog[sys.sequence[i]];
      out.push_back({k.query, k.strategy});
    } else {
      const int64_t k = DrawLiveKey(sys, draw, &rng);
      if (k < 0) {
        owned->push_back(fresh.Next());
        out.push_back({&owned->back(), kLiveFreshStrategy});
      } else if (sys.catalog[static_cast<size_t>(k)].shard == 0) {
        const Key& key = sys.catalog[static_cast<size_t>(k)];
        out.push_back({key.query, key.strategy});
      }
    }
  }
  return out;
}

// -------------------------------------------------------------- metrics ---

void Add(std::vector<Metric>* out, std::string name, double value, const char* unit) {
  out->push_back(Metric{std::move(name), value, unit});
}

/// A timing: median, sample count, and the supported tail with its
/// percentile.
void AddTiming(std::vector<Metric>* out, const std::string& name, const char* unit,
               const TimingSummary& s) {
  Add(out, name, s.p50, unit);
  Add(out, name + ".n", static_cast<double>(s.n), "count");
  Add(out, name + ".tail", s.tail, unit);
  Add(out, name + ".tail_pct", s.tail_q * 100.0, "%");
}

void AddTiming(std::vector<Metric>* out, const std::string& name, const char* unit,
               std::vector<double> samples) {
  AddTiming(out, name, unit, Summarize(&samples));
}

double ServeQps(const Window& w) { return w.wall_s > 0.0 ? w.answered / w.wall_s : 0.0; }

double CpuUsPerRequest(const Window& w) {
  return w.sent > 0 ? w.cpu_s * 1e6 / static_cast<double>(w.sent) : 0.0;
}

/// Median over the window's non-empty slices of `f(slice)`.
template <typename F>
double SliceMedian(const Window& w, F f) {
  std::vector<double> v;
  for (const Window::Slice& s : w.slices) {
    if (s.requests > 0 && s.wall_s > 0.0) v.push_back(f(s));
  }
  return MedianOf(std::move(v));
}

double VqpPct(const Window& w) {
  return Pct(static_cast<double>(w.viable), static_cast<double>(w.sent));
}

double AqrtMs(const Window& w) {
  return w.answered > 0 ? w.qrt_ms_sum / static_cast<double>(w.answered) : 0.0;
}

/// The window's latency, merged over groups of adjacent slices: as many
/// groups as each still holds enough samples for a supported p99, at most
/// kSlices, and one group (the whole window) on a host too slow for that.
std::vector<maliva::HistogramSnapshot> LatencyGroups(const Window& w) {
  for (size_t groups = kSlices;; --groups) {
    std::vector<maliva::HistogramSnapshot> out(groups);
    for (size_t k = 0; k < kSlices; ++k) {
      out[k * groups / kSlices].MergeFrom(w.slices[k].latency.Snapshot());
    }
    const bool supported = std::all_of(out.begin(), out.end(), [](const auto& g) {
      return SupportedTailQuantile(g.count) >= 0.99;
    });
    if (supported || groups == 1) return out;
  }
}

/// Median over the latency groups of each group's q-quantile, in ms.
double LatencyMs(const std::vector<maliva::HistogramSnapshot>& groups, double q) {
  std::vector<double> v;
  for (const maliva::HistogramSnapshot& g : groups) v.push_back(g.Percentile(q) / 1e3);
  return MedianOf(std::move(v));
}

/// Wall-clock metrics are medians over the window's slices; the open loop's
/// throughput is its whole-window achieved rate (the offered rate is fixed).
void EndToEnd(const Window& w, bool open_loop, double setup_s, std::vector<Metric>* out) {
  using Slice = Window::Slice;
  const std::vector<maliva::HistogramSnapshot> groups = LatencyGroups(w);
  Add(out, "setup_s", setup_s, "s");
  Add(out, "serve_qps",
      open_loop ? ServeQps(w)
                : SliceMedian(w, [](const Slice& s) { return s.requests / s.wall_s; }),
      "req/s");
  Add(out, "latency_p50_ms", LatencyMs(groups, 0.5), "ms");
  Add(out, "latency_p99_ms", LatencyMs(groups, 0.99), "ms");
  Add(out, "cpu_us_per_req",
      SliceMedian(w, [](const Slice& s) { return s.cpu_s * 1e6 / s.requests; }), "us");
  Add(out, "vqp_pct", VqpPct(w), "%");
  Add(out, "aqrt_ms", AqrtMs(w), "ms");
  Add(out, "answered_pct", Pct(static_cast<double>(w.answered), static_cast<double>(w.sent)), "%");
  Add(out, "on_time_pct", Pct(static_cast<double>(w.on_time), static_cast<double>(w.sent)), "%");
  Add(out, "peak_rss_mb", PeakRssMb(), "MiB");
}

/// Counts that repeat exactly for a fixed seed and request count at one
/// worker (the exact-repeat guard).
std::vector<Metric> GuardCounts(const Window& w) {
  const double n = static_cast<double>(std::max<uint64_t>(w.sent, 1));
  const ServiceStats& a = w.before.service;
  const ServiceStats& b = w.after.service;
  std::vector<Metric> out;
  Add(&out, "vqp_pct", VqpPct(w), "%");
  Add(&out, "aqrt_ms", AqrtMs(w), "ms");
  Add(&out, "engine.executions_per_request",
      static_cast<double>(w.after.executions - w.before.executions) / n, "count");
  Add(&out, "core.steps_per_request",
      w.answered > 0 ? static_cast<double>(w.steps) / static_cast<double>(w.answered) : 0.0,
      "count");
  Add(&out, "qte.slots_per_request.shared",
      static_cast<double>(b.shared_hits - a.shared_hits) / n, "count");
  Add(&out, "qte.slots_per_request.histogram",
      static_cast<double>(b.histogram_hits - a.histogram_hits) / n, "count");
  Add(&out, "qte.slots_per_request.probe",
      static_cast<double>(b.probe_collections - a.probe_collections) / n, "count");
  return out;
}

struct SetupTimes {
  std::vector<double> setup_s, build_s, fill_s, train_all_s;
  std::vector<double> train_s[kNumStrategies];

  void Add(const System& sys) {
    setup_s.push_back(sys.setup_s);
    build_s.push_back(sys.build_s);
    fill_s.push_back(sys.fill_s);
    train_all_s.push_back(sys.train_all_s);
    for (size_t j = 0; j < kNumStrategies; ++j) train_s[j].push_back(sys.train_s[j]);
  }
};

/// The traced run's per-layer metrics.
void PerLayer(const System& sys, const SetupTimes& st, const Window& w, const Window& untraced,
              const ProbeTimes& pt, size_t spans, std::vector<Metric>* out) {
  const bool live = sys.workload == kLiveMix;
  Add(out, "workload.setups", static_cast<double>(st.setup_s.size()), "count");
  Add(out, "workload.build_scenario_s", MedianOf(st.build_s), "s");
  Add(out, "workload.fill_s", MedianOf(st.fill_s), "s");
  for (size_t j = 0; j < kNumStrategies; ++j) {
    Add(out, std::string("core.train_s.") + kStrategyMetric[j], MedianOf(st.train_s[j]), "s");
  }
  Add(out, "core.train_s.all", MedianOf(st.train_all_s), "s");

  for (size_t j = 0; j < kNumStrategies; ++j) {
    AddTiming(out, std::string("core.rewrite_us.") + kStrategyMetric[j], "us", pt.rewrite_us[j]);
  }
  AddTiming(out, "ml.qvalues_us", "us", pt.qvalues_us);
  AddTiming(out, "qte.estimate_us.accurate", "us", pt.estimate_accurate_us);
  AddTiming(out, "qte.estimate_us.sampling", "us", pt.estimate_sampling_us);
  AddTiming(out, "engine.execute_ms", "ms", pt.execute_ms);
  AddTiming(out, "engine.true_selectivity_us", "us", pt.true_sel_us);
  AddTiming(out, "engine.sampled_selectivity_us", "us", pt.sampled_sel_us);
  AddTiming(out, "engine.histogram_selectivity_us", "us", pt.hist_sel_us);
  AddTiming(out, "engine.optimizer_resolve_us", "us", pt.resolve_us);
  AddTiming(out, "query.canonicalize_us", "us", pt.canonicalize_us);
  AddTiming(out, "query.fingerprint_us", "us", pt.fingerprint_us);
  AddTiming(out, "query.render_us", "us", pt.render_us);
  AddTiming(out, "fleet.route_us", "us", pt.route_us);

  AddTiming(out, "service.serve_us", "us", w.serve.Summary(1e3));
  AddTiming(out, "fleet.response_ms", "ms", w.response.Summary(1e6));
  AddTiming(out, "admission.queue_wait_pct_of_deadline", "%", w.queue_share.Summary(1e4));
  AddTiming(out, "workload.gen_late_ms", "ms", w.gen_late.Summary(1e6));
  Add(out, "service.profiled", static_cast<double>(w.profiled), "count");
  for (int p = 0; p < ProfileBreakdown::kNumPhases; ++p) {
    Add(out, std::string("service.profile_ms.") + ProfileBreakdown::PhaseName(p),
        w.profiled > 0 ? w.phase_self_ms[p] / static_cast<double>(w.profiled) : 0.0, "ms");
  }

  for (Metric& m : GuardCounts(w)) {
    if (m.name != "vqp_pct" && m.name != "aqrt_ms") out->push_back(std::move(m));
  }
  const ServiceStats& a = w.before.service;
  const ServiceStats& b = w.after.service;
  const double shared = static_cast<double>(b.shared_hits - a.shared_hits);
  const double collected =
      static_cast<double>(b.selectivities_collected - a.selectivities_collected);
  Add(out, "service.shared_store_hit_ratio",
      shared + collected > 0.0 ? shared / (shared + collected) : 0.0, "ratio");
  const double hits = static_cast<double>(b.result_cache_hits - a.result_cache_hits);
  const double probes = hits + static_cast<double>(b.result_cache_misses - a.result_cache_misses) +
                        static_cast<double>(b.result_cache_coalesced - a.result_cache_coalesced);
  Add(out, "service.result_cache_hit_ratio", probes > 0.0 ? hits / probes : 0.0, "ratio");
  Add(out, "service.result_cache_evictions",
      static_cast<double>(b.result_cache_evictions - a.result_cache_evictions), "count");
  const double sent = static_cast<double>(w.sent);
  Add(out, "admission.degraded_pct", Pct(static_cast<double>(w.degraded), sent), "%");
  Add(out, "admission.shed_pct", Pct(static_cast<double>(w.shed), sent), "%");
  Add(out, "quality.exact_fallback_pct",
      Pct(static_cast<double>(w.exact_fallbacks), static_cast<double>(w.answered)), "%");

  Add(out, "workload.working_set_keys", static_cast<double>(sys.catalog.size()), "count");
  Add(out, "workload.cache_capacity_keys",
      static_cast<double>(sys.services[0]->config().result_cache_capacity), "count");
  Add(out, "workload.fresh_pct",
      live ? 100.0 / kFreshEvery : (sys.workload == kFreshExplore ? 100.0 : 0.0), "%");
  Add(out, "workload.offered_qps", live ? kLiveMixRateQps : 0.0, "req/s");
  Add(out, "workload.latency_groups", static_cast<double>(LatencyGroups(untraced).size()),
      "count");

  // Closed loops pay tracing in throughput; the open loop's throughput is
  // its fixed offered rate, so it pays in CPU per request instead.
  double overhead = 0.0;
  if (live) {
    const double base = CpuUsPerRequest(untraced);
    if (base > 0.0) overhead = 100.0 * (CpuUsPerRequest(w) - base) / base;
  } else {
    const double base = ServeQps(untraced);
    if (base > 0.0) overhead = 100.0 * (base - ServeQps(w)) / base;
  }
  Add(out, "trace.overhead_pct", overhead, "%");
  Add(out, "trace.spans", static_cast<double>(spans), "count");
}

/// Computes self times and writes every log as JSON lines.
bool WriteSpans(const std::string& path, std::vector<SpanLog*> logs) {
  std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    ComputeSelfTimes(&logs[t]->spans());
    WriteSpansJsonl(f, *logs[t], t, origin);
  }
  return std::fclose(f) == 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {kFreshExplore, kDashboardRevisit, kLiveMix};
  return names;
}

RunResult RunWorkload(const RunOptions& opt) {
  RunResult result;
  Failures failures;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    result.failures.push_back("unknown workload " + opt.workload);
    return result;
  }
  if (opt.setups == 0 || !(opt.seconds > 0.0) || (opt.trace && opt.fixed_requests > 0)) {
    result.failures.push_back("invalid options");
    return result;
  }
  const bool live = opt.workload == kLiveMix;
  // Thread budget: closed loops run `budget` clients; the open loop runs one
  // generator plus budget - 2 fleet workers, leaving a core for the rest of
  // the machine so the generator is not preempted off its schedule.
  const size_t budget =
      opt.workers > 0 ? opt.workers
                      : std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  SetupArgs sa;
  sa.workload = opt.workload;
  sa.seed = opt.seed;
  sa.fleet_threads = budget > 2 ? budget - 2 : 1;
  // live_mix fills sequentially: with the shared store on, a parallel fill's
  // decisions depend on completion order, and its hot keys' decisions then
  // differ from run to run.
  sa.batch_threads = live ? 1 : budget;

  WindowArgs wa;
  wa.fixed = opt.fixed_requests;
  wa.clients = budget;
  // A traced run splits its time between an untraced and a traced window.
  wa.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;

  const size_t span_capacity = opt.trace ? kSpanCapacity : 0;
  SpanLog setup_log(span_capacity);
  SetupTimes times;
  std::unique_ptr<System> sys;
  Window untraced;
  for (size_t k = 0; k < opt.setups; ++k) {
    sys.reset();  // one system alive at a time
    sa.traced = opt.trace && k + 1 == opt.setups;
    sys = Setup(sa, opt.trace ? &setup_log : nullptr, &failures);
    if (!sys) break;
    times.Add(*sys);
    // The traced run's overhead baseline: an untraced window on the last
    // untraced set-up (or, with one set-up, none).
    if (opt.trace && k + 2 == opt.setups) {
      std::vector<SpanLog> none;
      untraced = live ? RunOpen(sys.get(), wa, nullptr, &failures)
                      : RunClosed(sys.get(), wa, &none, &failures);
    }
  }
  if (!sys || !failures.empty()) {
    failures.MoveTo(&result.failures);
    if (result.failures.empty()) result.failures.push_back("set-up failed");
    return result;
  }

  std::vector<SpanLog> logs;
  if (opt.trace && !live) {
    for (size_t c = 0; c < budget; ++c) logs.emplace_back(span_capacity);
  }
  SpanLog main_log(span_capacity);
  Window w = live ? RunOpen(sys.get(), wa, opt.trace ? &main_log : nullptr, &failures)
                  : RunClosed(sys.get(), wa, &logs, &failures);
  result.attempted = w.sent;
  result.failed = w.sent - w.answered;
  result.guard = GuardCounts(w);

  if (!opt.trace) {
    EndToEnd(w, live, MedianOf(times.setup_s), &result.end_to_end);
  } else {
    ProbeTimes pt;
    std::vector<Query> probe_owned;
    RunProbe(*sys, ProbeSample(*sys, &probe_owned), &main_log, &pt, &failures);
    std::vector<SpanLog*> all = {&setup_log, &main_log};
    for (SpanLog& l : logs) all.push_back(&l);
    size_t spans = 0;
    for (SpanLog* l : all) spans += l->spans().size();
    PerLayer(*sys, times, w, untraced, pt, spans, &result.per_layer);
    if (!opt.span_path.empty() && !WriteSpans(opt.span_path, all)) {
      failures.Add("cannot write spans to " + opt.span_path);
    }
  }
  // A generator that falls behind its schedule invalidates the open loop.
  if (live && opt.fixed_requests == 0 && w.gen_late.QuantileNs(0.99) > kMaxGenLateNs) {
    failures.Add("the arrival generator fell behind its schedule");
  }
  failures.MoveTo(&result.failures);
  return result;
}

}  // namespace perfbench
