// Rewrite-result cache tests (service/rewrite_result_cache.h): the cache
// module's single-flight / CLOCK / context-validation mechanics, the service
// wiring (hit byte-identity, in-batch dedup, probe-only admission path), and
// the invalidation races (catalog epoch + agent snapshot bumps mid-stream).
// The suite names carry "ResultCache" so the scripts/ci.sh sanitizer legs
// (-R '...|ResultCache') run them under TSan/ASan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "service/rewrite_result_cache.h"
#include "service/service.h"
#include "service/service_fleet.h"
#include "util/query_profiler.h"

namespace maliva {
namespace {

// ------------------------------------------------------------ unit tests ---

/// Marker payloads: entries are told apart by outcome.total_ms.
CachedRewrite Marked(double marker) {
  CachedRewrite value;
  value.strategy = "marker";
  value.outcome.total_ms = marker;
  return value;
}

TEST(ResultCacheUnitTest, BeginMissPublishHitRoundTrip) {
  RewriteResultCache cache({.capacity = 16, .shards = 2});
  RewriteResultCache::Ticket miss = cache.Begin(42, 1, 1);
  ASSERT_EQ(miss.role, RewriteResultCache::Role::kLeader);
  cache.Publish(miss, Marked(7.0));

  RewriteResultCache::Ticket hit = cache.Begin(42, 1, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  ASSERT_TRUE(hit.value.has_value());
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 7.0);

  RewriteResultCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.stale_declines, 0u);
}

TEST(ResultCacheUnitTest, ContextMismatchDeclinesAndReplacesInPlace) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  RewriteResultCache::Ticket t = cache.Begin(42, /*epoch=*/1, /*snapshot=*/1);
  cache.Publish(t, Marked(1.0));

  // Same fingerprint, moved epoch: never trusted, and the recompute's
  // publish replaces the resident entry without growing the map.
  RewriteResultCache::Ticket stale = cache.Begin(42, /*epoch=*/2, 1);
  ASSERT_EQ(stale.role, RewriteResultCache::Role::kLeader);
  cache.Publish(stale, Marked(2.0));
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Snapshot().stale_declines, 1u);

  RewriteResultCache::Ticket hit = cache.Begin(42, 2, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 2.0);

  // A snapshot-version move declines the same way.
  RewriteResultCache::Ticket snap = cache.Begin(42, 2, /*snapshot=*/9);
  EXPECT_EQ(snap.role, RewriteResultCache::Role::kLeader);
  cache.Abort(snap);
  EXPECT_EQ(cache.Snapshot().stale_declines, 2u);
}

TEST(ResultCacheUnitTest, ClockEvictionGivesReferencedEntriesASecondChance) {
  RewriteResultCache cache({.capacity = 4, .shards = 1});
  for (uint64_t key = 1; key <= 4; ++key) {
    RewriteResultCache::Ticket t = cache.Begin(key, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kLeader);
    cache.Publish(t, Marked(static_cast<double>(key)));
  }
  // Reference key 2 — the first entry the hand will reach. The sweep must
  // clear its bit and evict key 3 (the first unreferenced victim) instead.
  ASSERT_EQ(cache.Begin(2, 1, 1).role, RewriteResultCache::Role::kHit);

  RewriteResultCache::Ticket t5 = cache.Begin(5, 1, 1);
  ASSERT_EQ(t5.role, RewriteResultCache::Role::kLeader);
  cache.Publish(t5, Marked(5.0));

  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  EXPECT_EQ(cache.Size(), 4u);
  EXPECT_EQ(cache.Begin(2, 1, 1).role, RewriteResultCache::Role::kHit);
  EXPECT_EQ(cache.Begin(5, 1, 1).role, RewriteResultCache::Role::kHit);
  RewriteResultCache::Ticket evicted = cache.Begin(3, 1, 1);
  EXPECT_EQ(evicted.role, RewriteResultCache::Role::kLeader);
  cache.Abort(evicted);
}

TEST(ResultCacheUnitTest, ShardCountIsClampedToCapacity) {
  RewriteResultCache cache({.capacity = 3, .shards = 64});
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.num_shards(), 3u);
  RewriteResultCache floor({.capacity = 0, .shards = 0});
  EXPECT_EQ(floor.capacity(), 1u);
  EXPECT_EQ(floor.num_shards(), 1u);
}

TEST(ResultCacheUnitTest, FollowerReceivesLeaderValue) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  RewriteResultCache::Ticket leader = cache.Begin(42, 1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  std::optional<CachedRewrite> followed;
  std::atomic<bool> enrolled{false};
  std::thread follower([&cache, &followed, &enrolled] {
    RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kFollower);
    enrolled.store(true);
    followed = cache.WaitForLeader(t);
  });
  // Publish only after the follower holds its ticket; whether it has
  // reached WaitForLeader yet must not matter (done is latched, not
  // pulsed).
  while (!enrolled.load()) std::this_thread::yield();
  cache.Publish(leader, Marked(7.0));
  follower.join();

  ASSERT_TRUE(followed.has_value());
  EXPECT_DOUBLE_EQ(followed->outcome.total_ms, 7.0);
  RewriteResultCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.coalesced, 1u);
  // Outcomes partition the two probed requests: the leader's miss and the
  // follower's coalesced replay, each counted once.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced, 2u);
}

TEST(ResultCacheUnitTest, AbortWakesFollowersEmptyAndFreesTheKey) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  RewriteResultCache::Ticket leader = cache.Begin(42, 1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  std::optional<CachedRewrite> followed = Marked(0.0);
  std::atomic<bool> enrolled{false};
  std::thread follower([&cache, &followed, &enrolled] {
    RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kFollower);
    enrolled.store(true);
    followed = cache.WaitForLeader(t);
  });
  while (!enrolled.load()) std::this_thread::yield();
  cache.Abort(leader);
  follower.join();

  EXPECT_FALSE(followed.has_value());  // compute solo, not coalesced
  EXPECT_EQ(cache.Snapshot().coalesced, 0u);
  EXPECT_EQ(cache.Size(), 0u);

  // The aborted flight is deregistered: the key is free to lead again.
  RewriteResultCache::Ticket retry = cache.Begin(42, 1, 1);
  EXPECT_EQ(retry.role, RewriteResultCache::Role::kLeader);
  cache.Abort(retry);
}

TEST(ResultCacheUnitTest, DroppingAnUnresolvedLeaderTicketAbortsItsFlight) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  std::optional<RewriteResultCache::Ticket> leader;
  leader.emplace(cache.Begin(42, 1, 1));
  ASSERT_EQ(leader->role, RewriteResultCache::Role::kLeader);
  // Moving a ticket moves the duty to resolve it: the moved-from shell
  // aborts nothing, so the flight stays open for the follower below.
  std::optional<RewriteResultCache::Ticket> moved;
  moved.emplace(std::move(*leader));
  leader.reset();

  std::optional<CachedRewrite> followed = Marked(0.0);
  std::atomic<bool> enrolled{false};
  std::thread follower([&cache, &followed, &enrolled] {
    RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kFollower);
    enrolled.store(true);
    followed = cache.WaitForLeader(t);
  });
  while (!enrolled.load()) std::this_thread::yield();
  moved.reset();  // an early return between Begin and Publish
  follower.join();

  EXPECT_FALSE(followed.has_value());  // woken empty: computes solo
  EXPECT_EQ(cache.Size(), 0u);
  RewriteResultCache::Ticket retry = cache.Begin(42, 1, 1);
  ASSERT_EQ(retry.role, RewriteResultCache::Role::kLeader);
  cache.Publish(retry, Marked(1.0));
  EXPECT_EQ(cache.Begin(42, 1, 1).role, RewriteResultCache::Role::kHit);
}

TEST(ResultCacheUnitTest, FlightUnderDifferentContextYieldsSolo) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  RewriteResultCache::Ticket leader = cache.Begin(42, /*epoch=*/1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  // A new-epoch request must not inherit the old-epoch leader's answer.
  RewriteResultCache::Ticket solo = cache.Begin(42, /*epoch=*/2, 1);
  EXPECT_EQ(solo.role, RewriteResultCache::Role::kSolo);
  EXPECT_EQ(solo.flight, nullptr);
  cache.Publish(leader, Marked(1.0));
  cache.Publish(solo, Marked(2.0));

  // The solo's newer-context publish landed last and is the resident entry.
  RewriteResultCache::Ticket hit = cache.Begin(42, 2, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 2.0);
}

TEST(ResultCacheUnitTest, ProbeNeverCountsMissesOrEnrollsFlights) {
  RewriteResultCache cache({.capacity = 16, .shards = 1});
  EXPECT_FALSE(cache.Probe(42, 1, 1).has_value());
  EXPECT_EQ(cache.Snapshot().misses, 0u);

  // The probe did not become a leader: the next Begin leads.
  RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
  ASSERT_EQ(t.role, RewriteResultCache::Role::kLeader);
  cache.Publish(t, Marked(7.0));

  std::optional<CachedRewrite> probed = cache.Probe(42, 1, 1);
  ASSERT_TRUE(probed.has_value());
  EXPECT_DOUBLE_EQ(probed->outcome.total_ms, 7.0);
  EXPECT_FALSE(cache.Probe(42, /*epoch=*/2, 1).has_value());  // context-exact
  RewriteResultCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// --------------------------------------------------------- service tests ---

class ResultCacheServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 211;
    cfg.approx_sample_rates = {0.2, 0.4};
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static ServiceConfig SmallConfig() {
    return ServiceConfig()
        .WithTrainerIterations(3)
        .WithAgentSeeds(1)
        .WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                          {ApproxKind::kSampleTable, 0.4}});
  }

  static RewriteRequest Request(size_t query_index,
                                const std::string& strategy = "mdp/accurate") {
    RewriteRequest req;
    req.query = scenario_->evaluation[query_index % scenario_->evaluation.size()];
    req.strategy = strategy;
    return req;
  }

  /// The decision bytes a hit must replay exactly (wall clock and the
  /// result_cache_* how-served flags are the documented exclusions).
  static void ExpectSameDecision(const Result<RewriteResponse>& a,
                                 const Result<RewriteResponse>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      EXPECT_EQ(a.status().message(), b.status().message());
      return;
    }
    const RewriteResponse& ra = a.value();
    const RewriteResponse& rb = b.value();
    EXPECT_EQ(ra.strategy, rb.strategy);
    EXPECT_EQ(ra.rewritten_sql, rb.rewritten_sql);
    EXPECT_EQ(ra.exact_fallback, rb.exact_fallback);
    EXPECT_EQ(ra.outcome.option_index, rb.outcome.option_index);
    EXPECT_EQ(ra.outcome.planning_ms, rb.outcome.planning_ms);
    EXPECT_EQ(ra.outcome.exec_ms, rb.outcome.exec_ms);
    EXPECT_EQ(ra.outcome.total_ms, rb.outcome.total_ms);
    EXPECT_EQ(ra.outcome.viable, rb.outcome.viable);
    EXPECT_EQ(ra.outcome.steps, rb.outcome.steps);
    EXPECT_EQ(ra.outcome.quality, rb.outcome.quality);
    EXPECT_EQ(ra.outcome.approximate, rb.outcome.approximate);
    EXPECT_EQ(ra.stats.selectivities_collected, rb.stats.selectivities_collected);
    EXPECT_EQ(ra.stats.agent_snapshot_version, rb.stats.agent_snapshot_version);
  }

  static Scenario* scenario_;
};

Scenario* ResultCacheServiceTest::scenario_ = nullptr;

TEST_F(ResultCacheServiceTest, OffByDefaultWithZeroTelemetry) {
  MalivaService service(scenario_, SmallConfig());
  RewriteRequest req = Request(0);
  Result<RewriteResponse> a = service.Serve(req);
  Result<RewriteResponse> b = service.Serve(req);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a.value().stats.result_cache_hit);
  EXPECT_FALSE(b.value().stats.result_cache_hit);
  EXPECT_FALSE(service.TryServeCached(req).has_value());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 0u);
  EXPECT_EQ(stats.result_cache_misses, 0u);
  EXPECT_EQ(stats.result_cache_coalesced, 0u);
  EXPECT_EQ(stats.result_cache_size, 0u);
}

TEST_F(ResultCacheServiceTest, HitReplaysTheMissByteForByte) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(0);

  Result<RewriteResponse> miss = service.Serve(req);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().stats.result_cache_hit);

  Result<RewriteResponse> hit = service.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);
  EXPECT_FALSE(hit.value().stats.result_cache_coalesced);
  ExpectSameDecision(miss, hit);
  // The replayed template carries the original search's bill; the hit
  // itself did no selectivity work.
  EXPECT_EQ(hit.value().stats.shared_hits, miss.value().stats.shared_hits);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.result_cache_misses, 1u);
  EXPECT_EQ(stats.result_cache_size, 1u);
  EXPECT_EQ(stats.requests, 2u);

  // Distinct query, distinct fingerprint: a miss, not a collision.
  Result<RewriteResponse> other = service.Serve(Request(1));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_misses, 2u);
}

TEST_F(ResultCacheServiceTest, HitsDoNotRebillSelectivityTelemetry) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(2);
  ASSERT_TRUE(service.Serve(req).ok());
  uint64_t collected_after_miss = service.Stats().selectivities_collected;
  ASSERT_TRUE(service.Serve(req).ok());
  ASSERT_TRUE(service.Serve(req).ok());
  // Replays bill no new selectivity work; only the request counter moves.
  EXPECT_EQ(service.Stats().selectivities_collected, collected_after_miss);
  EXPECT_EQ(service.Stats().requests, 3u);
}

TEST_F(ResultCacheServiceTest, MissPathMatchesCacheOffServiceByteForByte) {
  MalivaService off(scenario_, SmallConfig().WithNumThreads(1));
  MalivaService on(scenario_,
                   SmallConfig().WithResultCache(true).WithNumThreads(8));

  // Mixed strategies, taus, floors, and error requests: with the cache on,
  // every decision (first-seen misses and replayed duplicates alike) must
  // carry the bytes the cache-off service computes.
  std::vector<RewriteRequest> requests;
  const char* strategies[] = {"baseline", "naive", "mdp/accurate", "bao"};
  for (size_t i = 0; i < 80; ++i) {
    RewriteRequest req = Request(i / 2, strategies[i % 4]);
    if (i % 5 == 0) req.tau_ms = 250.0 + 50.0 * static_cast<double>(i % 4);
    if (i % 7 == 0) req.quality_floor = 0.9;
    if (i % 17 == 0) req.strategy = "definitely/not-a-strategy";
    requests.push_back(req);
  }
  std::vector<Result<RewriteResponse>> expected = off.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> got = on.ServeBatch(requests);
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameDecision(expected[i], got[i]);
  }
  // And a second identical batch — now served mostly from the cache — still
  // reproduces the same bytes.
  std::vector<Result<RewriteResponse>> replayed = on.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameDecision(expected[i], replayed[i]);
  }
  EXPECT_GT(on.Stats().result_cache_hits + on.Stats().result_cache_coalesced,
            0u);
}

TEST_F(ResultCacheServiceTest, BatchDedupCoalescesDuplicatesWithinOneBatch) {
  MalivaService service(scenario_,
                        SmallConfig().WithResultCache(true).WithNumThreads(4));
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());

  // 4 distinct requests, 4 copies each, interleaved. The cache is cold, so
  // every replayed copy can only come from the in-batch dedup pre-pass.
  std::vector<RewriteRequest> requests;
  for (size_t copy = 0; copy < 4; ++copy) {
    for (size_t q = 0; q < 4; ++q) requests.push_back(Request(q));
  }
  std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    ExpectSameDecision(responses[i % 4], responses[i]);
    EXPECT_EQ(responses[i].value().stats.result_cache_coalesced, i >= 4);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_coalesced, 12u);  // 3 replayed copies x 4
  EXPECT_EQ(stats.result_cache_misses, 4u);      // one search per distinct
  EXPECT_EQ(stats.requests, 16u);
}

TEST_F(ResultCacheServiceTest, TauAndFloorBinsShareDecisionsWithinABin) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));

  RewriteRequest req = Request(0);
  req.tau_ms = 300.0;
  ASSERT_TRUE(service.Serve(req).ok());
  // 310ms falls in the same 25ms bin (floor(300/25) == floor(310/25) == 12).
  req.tau_ms = 310.0;
  Result<RewriteResponse> same_bin = service.Serve(req);
  ASSERT_TRUE(same_bin.ok());
  EXPECT_TRUE(same_bin.value().stats.result_cache_hit);
  // 330ms crosses into bin 13: its own search.
  req.tau_ms = 330.0;
  Result<RewriteResponse> next_bin = service.Serve(req);
  ASSERT_TRUE(next_bin.ok());
  EXPECT_FALSE(next_bin.value().stats.result_cache_hit);

  // Quality floors bin at 1/100 granularity; absent is its own key.
  RewriteRequest floored = Request(1);
  floored.quality_floor = 0.901;
  ASSERT_TRUE(service.Serve(floored).ok());
  floored.quality_floor = 0.909;
  Result<RewriteResponse> same_floor = service.Serve(floored);
  ASSERT_TRUE(same_floor.ok());
  EXPECT_TRUE(same_floor.value().stats.result_cache_hit);
  floored.quality_floor.reset();
  Result<RewriteResponse> no_floor = service.Serve(floored);
  ASSERT_TRUE(no_floor.ok());
  EXPECT_FALSE(no_floor.value().stats.result_cache_hit);
}

TEST_F(ResultCacheServiceTest, FingerprintRequestIsZeroUntilTheStrategyIsBuilt) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(0, "baseline");
  // Cold strategy: its default tau is unknown without building it, and
  // fingerprinting never builds.
  EXPECT_EQ(service.FingerprintRequest(req), 0u);
  EXPECT_EQ(service.FingerprintRequest(RewriteRequest{}), 0u);  // invalid
  EXPECT_EQ(service.Stats().requests, 0u);

  ASSERT_TRUE(service.Warmup({"baseline"}).ok());
  req.tau_ms = 300.0;
  const uint64_t fp300 = service.FingerprintRequest(req);
  EXPECT_NE(fp300, 0u);
  Result<RewriteResponse> miss = service.Serve(req);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().stats.result_cache_hit);

  // Same 25 ms bin: the same key, so the same decision.
  req.tau_ms = 310.0;
  EXPECT_EQ(service.FingerprintRequest(req), fp300);
  Result<RewriteResponse> hit = service.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);

  // Next bin: a different key and its own search.
  req.tau_ms = 330.0;
  EXPECT_NE(service.FingerprintRequest(req), fp300);
  Result<RewriteResponse> next_bin = service.Serve(req);
  ASSERT_TRUE(next_bin.ok());
  EXPECT_FALSE(next_bin.value().stats.result_cache_hit);
}

TEST_F(ResultCacheServiceTest, ProfiledHitBillsItsRender) {
  MalivaService service(
      scenario_, SmallConfig().WithResultCache(true).WithProfileRequests(true));
  RewriteRequest req = Request(0, "baseline");
  Result<RewriteResponse> miss = service.Serve(req);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(miss.value().stats.profile.has_value());
  EXPECT_EQ(miss.value().stats.profile->phases[QueryProfiler::kRender].count, 1u);

  Result<RewriteResponse> hit = service.Serve(req);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.value().stats.result_cache_hit);
  ASSERT_TRUE(hit.value().stats.profile.has_value());
  const ProfileBreakdown& profile = *hit.value().stats.profile;
  EXPECT_EQ(profile.phases[QueryProfiler::kRender].count, 1u);
  EXPECT_EQ(profile.phases[QueryProfiler::kCacheProbe].count, 1u);
  EXPECT_EQ(profile.phases[QueryProfiler::kSearch].count, 0u);
  EXPECT_EQ(hit.value().rewritten_sql, miss.value().rewritten_sql);
}

TEST_F(ResultCacheServiceTest, TryServeCachedIsProbeOnly) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(0);

  // Cold cache, cold strategy: the probe refuses to build or train anything
  // and counts no miss.
  EXPECT_FALSE(service.TryServeCached(req).has_value());
  EXPECT_EQ(service.Stats().result_cache_misses, 0u);

  ASSERT_TRUE(service.Serve(req).ok());
  std::optional<RewriteResponse> cached = service.TryServeCached(req);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_hits, 1u);
  EXPECT_EQ(service.Stats().result_cache_misses, 1u);  // the Serve's only
}

TEST_F(ResultCacheServiceTest, ValidateRejectsBadKnobs) {
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "baseline";
  ServiceConfig bad[] = {
      SmallConfig().WithResultCache(true).WithResultCacheCapacity(0),
      SmallConfig().WithResultCache(true).WithResultCacheTauBinMs(0.0),
      SmallConfig().WithResultCache(true).WithResultCacheTauBinMs(-5.0),
      SmallConfig().WithResultCache(true).WithResultCacheFloorBins(0),
  };
  for (size_t i = 0; i < sizeof(bad) / sizeof(bad[0]); ++i) {
    SCOPED_TRACE(i);
    ASSERT_FALSE(bad[i].Validate().ok());
    MalivaService service(scenario_, bad[i]);
    EXPECT_EQ(service.Serve(req).status().code(),
              Status::Code::kInvalidArgument);
  }
  // The knobs are inert while the cache is off.
  EXPECT_TRUE(SmallConfig().WithResultCacheCapacity(0).Validate().ok());
}

TEST_F(ResultCacheServiceTest, FleetRollsUpCacheCountersAcrossShards) {
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(SmallConfig().WithResultCache(true))
                        .WithWarmupThreads(0));
  ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());

  RewriteRequest req = Request(0);
  req.scenario = "tweets";
  ASSERT_TRUE(fleet.Serve(req).ok());
  Result<RewriteResponse> hit = fleet.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.totals.result_cache_hits, 1u);
  EXPECT_EQ(stats.totals.result_cache_misses, 1u);
  EXPECT_EQ(stats.totals.result_cache_size, 1u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].second.result_cache_hits, 1u);
}

TEST_F(ResultCacheServiceTest, AdmissionGateServesCacheHitsBeforeDeciding) {
  // Admission on, cache on: a duplicate request must be answered from the
  // cache ahead of the Decide ladder (counted as admitted, never shed or
  // degraded, no scheduler dispatch).
  AdmissionConfig admission;
  admission.enabled = true;
  admission.slack_factor = 10.0;  // lazy first-use training must not shed
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(SmallConfig().WithResultCache(true))
                        .WithWarmupThreads(0)
                        .WithAdmission(admission));
  ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());

  RewriteRequest req = Request(0);
  req.scenario = "tweets";
  Result<RewriteResponse> miss = fleet.Serve(req);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  Result<RewriteResponse> hit = fleet.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);
  EXPECT_FALSE(hit.value().stats.degraded);
  ExpectSameDecision(miss, hit);

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.admission.admitted, 2u);
  EXPECT_EQ(stats.admission.shed_deadline + stats.admission.shed_overload, 0u);
  EXPECT_EQ(stats.totals.result_cache_hits, 1u);
}

/// Baseline whose search holds while `held` is set, so concurrent identical
/// misses are forced to enroll as single-flight followers of the held
/// leader.
class HeldBaseline : public BaselineRewriter {
 public:
  using BaselineRewriter::BaselineRewriter;
  static inline std::atomic<bool> held{false};
  static inline std::atomic<int> entered{0};

  RewriteOutcome RewriteForSession(const Query& query, double tau_ms,
                                   RewriteSession& session) const override {
    entered.fetch_add(1);
    while (held.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return BaselineRewriter::RewriteForSession(query, tau_ms, session);
  }
};

TEST_F(ResultCacheServiceTest, FleetTotalsSumShardRowsAndOutcomesPartition) {
  static const bool registered = RewriterFactory::Global()
                                     .Register("test/held-baseline",
                                               [](MalivaService& s)
                                                   -> Result<std::unique_ptr<Rewriter>> {
                                                 return std::unique_ptr<Rewriter>(
                                                     std::make_unique<HeldBaseline>(
                                                         s.scenario()->engine.get(),
                                                         s.scenario()->oracle.get(),
                                                         s.scenario()->config.tau_ms));
                                               })
                                     .ok();
  ASSERT_TRUE(registered);

  AdmissionConfig admission;
  admission.enabled = true;
  admission.slack_factor = 1000.0;  // nothing sheds; verdicts are admitted
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(SmallConfig().WithResultCache(true))
                        .WithNumThreads(4)
                        .WithWarmupThreads(0)
                        .WithAdmission(admission));
  ASSERT_TRUE(fleet.RegisterScenario("a", scenario_, [](ServiceConfig& c) {
                     c.WithCrossRequestCache(true);
                   }).ok());
  ASSERT_TRUE(fleet.RegisterScenario("b", scenario_).ok());
  for (const char* id : {"a", "b"}) {
    ASSERT_TRUE(fleet.ServiceFor(id).value()->GetRewriter("test/held-baseline").ok());
  }
  auto request = [](const char* shard, size_t query, const char* strategy) {
    RewriteRequest req = Request(query, strategy);
    req.scenario = shard;
    return req;
  };

  // Forced followers: the leader holds its search until three identical
  // requests have had ample time to enroll behind it.
  HeldBaseline::held = true;
  const RewriteRequest held_req = request("a", 0, "test/held-baseline");
  std::vector<Result<RewriteResponse>> held_out(4, Status::Internal("unset"));
  std::vector<std::thread> threads;
  threads.emplace_back([&] { held_out[0] = fleet.Serve(held_req); });
  while (HeldBaseline::entered.load() == 0) std::this_thread::yield();
  for (size_t t = 1; t < held_out.size(); ++t) {
    threads.emplace_back([&, t] { held_out[t] = fleet.Serve(held_req); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  HeldBaseline::held = false;
  for (std::thread& th : threads) th.join();
  size_t followers = 0;
  for (const Result<RewriteResponse>& r : held_out) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    followers += r.value().stats.result_cache_coalesced ? 1 : 0;
  }
  EXPECT_GT(followers, 0u);

  // A mixed admission batch (misses, gate-path hits, concurrent copies, one
  // invalid request), then in-batch dedup on one shard's own ServeBatch.
  std::vector<RewriteRequest> batch;
  for (size_t i = 0; i < 24; ++i) {
    batch.push_back(request(i % 3 == 0 ? "b" : "a", i % 5,
                            i % 4 == 1 ? "naive" : "baseline"));
  }
  batch.push_back(request("b", 1, "baseline"));
  batch.back().quality_floor = 1.5;  // InvalidArgument before any cache probe
  size_t errors = 0;
  for (const Result<RewriteResponse>& r : fleet.ServeBatch(batch)) errors += r.ok() ? 0 : 1;
  EXPECT_EQ(errors, 1u);
  std::vector<RewriteRequest> dups(6, Request(7, "baseline"));
  for (const Result<RewriteResponse>& r :
       fleet.ServiceFor("b").value()->ServeBatch(dups)) {
    ASSERT_TRUE(r.ok());
  }

  FleetStats stats = fleet.Stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  const std::pair<const char*, uint64_t ServiceStats::*> kAdditive[] = {
      {"requests", &ServiceStats::requests},
      {"errors", &ServiceStats::errors},
      {"exact_fallbacks", &ServiceStats::exact_fallbacks},
      {"selectivities_collected", &ServiceStats::selectivities_collected},
      {"shared_hits", &ServiceStats::shared_hits},
      {"shared_published", &ServiceStats::shared_published},
      {"store_size", &ServiceStats::store_size},
      {"store_evictions", &ServiceStats::store_evictions},
      {"histogram_hits", &ServiceStats::histogram_hits},
      {"probe_collections", &ServiceStats::probe_collections},
      {"histogram_error_samples", &ServiceStats::histogram_error_samples},
      {"histogram_demoted_columns", &ServiceStats::histogram_demoted_columns},
      {"result_cache_hits", &ServiceStats::result_cache_hits},
      {"result_cache_misses", &ServiceStats::result_cache_misses},
      {"result_cache_coalesced", &ServiceStats::result_cache_coalesced},
      {"result_cache_evictions", &ServiceStats::result_cache_evictions},
      {"result_cache_stale_declines", &ServiceStats::result_cache_stale_declines},
      {"result_cache_size", &ServiceStats::result_cache_size},
      {"online_transitions", &ServiceStats::online_transitions},
      {"online_transitions_dropped", &ServiceStats::online_transitions_dropped},
      {"online_transitions_pending", &ServiceStats::online_transitions_pending},
      {"online_retrains", &ServiceStats::online_retrains},
      {"online_rejected", &ServiceStats::online_rejected},
      {"admission_admitted", &ServiceStats::admission_admitted},
      {"admission_degraded", &ServiceStats::admission_degraded},
      {"admission_shed_deadline", &ServiceStats::admission_shed_deadline},
      {"admission_shed_overload", &ServiceStats::admission_shed_overload},
  };
  for (const auto& [name, field] : kAdditive) {
    uint64_t sum = 0;
    for (const auto& [id, row] : stats.shards) sum += row.*field;
    EXPECT_EQ(stats.totals.*field, sum) << name;
  }
  double wall_sum = 0.0;
  double wait_sum = 0.0;
  for (const auto& [id, row] : stats.shards) {
    wall_sum += row.serve_wall_ms_total;
    wait_sum += row.admission_queue_wait_ms_total;
  }
  EXPECT_DOUBLE_EQ(stats.totals.serve_wall_ms_total, wall_sum);
  EXPECT_DOUBLE_EQ(stats.totals.admission_queue_wait_ms_total, wait_sum);

  // 4 held + 25 batch + 6 dedup requests; only the invalid one failed.
  const ServiceStats& t = stats.totals;
  EXPECT_EQ(t.requests, 35u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_GT(t.shared_published, 0u);
  EXPECT_GT(t.result_cache_coalesced, 0u);
  // Every valid request probed the cache once, with exactly one outcome.
  EXPECT_EQ(t.result_cache_hits + t.result_cache_misses + t.result_cache_coalesced,
            t.requests - t.errors);
  // The fleet's admission rollup reads the same counters.
  EXPECT_EQ(stats.admission.admitted + stats.admission.degraded +
                stats.admission.shed_deadline + stats.admission.shed_overload,
            29u);
  EXPECT_EQ(stats.admission.admitted, t.admission_admitted);
}

// ---------------------------------------------------- invalidation races ---

class ResultCacheRaceTest : public ::testing::Test {
 protected:
  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }
};

TEST_F(ResultCacheRaceTest, CatalogBumpInvalidatesResidentDecisions) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 5000;
  cfg.num_queries = 40;
  cfg.seed = 223;
  Scenario scenario = BuildScenario(cfg);
  MalivaService service(&scenario, SmallConfig().WithResultCache(true));

  RewriteRequest req;
  req.query = scenario.evaluation[0];
  req.strategy = "naive";
  ASSERT_TRUE(service.Serve(req).ok());
  Result<RewriteResponse> warm = service.Serve(req);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().stats.result_cache_hit);

  // A stats refresh moves catalog_version(): the resident decision predates
  // the new ground truth and must never be replayed.
  uint64_t before = scenario.engine->catalog_version();
  ASSERT_TRUE(scenario.engine->BuildSampleTables("tweets", {0.33}, 4242).ok());
  ASSERT_GT(scenario.engine->catalog_version(), before);

  Result<RewriteResponse> recomputed = service.Serve(req);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed.value().stats.result_cache_hit);
  EXPECT_GE(service.Stats().result_cache_stale_declines, 1u);
  // The recompute re-warms the new epoch in place: same single entry.
  Result<RewriteResponse> rewarmed = service.Serve(req);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed.value().stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_size, 1u);
}

TEST_F(ResultCacheRaceTest, SnapshotPublishInvalidatesResidentDecisions) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 20000;
  cfg.num_queries = 120;
  cfg.seed = 227;
  Scenario scenario = BuildScenario(cfg);
  MalivaService service(&scenario, SmallConfig()
                                       .WithResultCache(true)
                                       .WithOnlineLearning(true)
                                       .WithOnlineTrainerThreads(0)
                                       .WithOnlineGradientSteps(4)
                                       .WithOnlineGateTolerance(10.0));
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  const std::string key = "agent/exact-accurate";

  // Misses on distinct queries feed the replay sink (hits record no
  // feedback, so the fine-tune round below runs on miss transitions only).
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 32; ++i) {
    RewriteRequest req;
    req.query = scenario.evaluation[i % scenario.evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& resp : service.ServeBatch(requests)) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().stats.agent_snapshot_version, 1u);
  }
  Result<RewriteResponse> v1_hit = service.Serve(requests[0]);
  ASSERT_TRUE(v1_hit.ok());
  ASSERT_TRUE(v1_hit.value().stats.result_cache_hit);

  // Publish snapshot v2: every resident v1 decision is dead, O(1).
  ASSERT_TRUE(service.online_trainer()->RetrainNow(key));
  ASSERT_EQ(service.model_registry()->CurrentVersion(key), 2u);

  Result<RewriteResponse> recomputed = service.Serve(requests[0]);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed.value().stats.result_cache_hit);
  EXPECT_EQ(recomputed.value().stats.agent_snapshot_version, 2u);
  EXPECT_GE(service.Stats().result_cache_stale_declines, 1u);

  // And the v2 decision is the new resident entry.
  Result<RewriteResponse> v2_hit = service.Serve(requests[0]);
  ASSERT_TRUE(v2_hit.ok());
  EXPECT_TRUE(v2_hit.value().stats.result_cache_hit);
  EXPECT_EQ(v2_hit.value().stats.agent_snapshot_version, 2u);
}

TEST_F(ResultCacheRaceTest, EightThreadsUnderSnapshotAndCatalogChurn) {
  // The suite's TSan/ASan stress leg: 8 serving threads hammering a small
  // hot set (maximal hit/coalesce pressure) while the main thread publishes
  // new agent snapshots concurrently and bumps the catalog epoch between
  // rounds (engine catalog mutation is documented build-phase-only, so the
  // bump itself happens at a barrier; the *invalidations* land mid-stream).
  // Invariants: every response ok, and per thread the served snapshot
  // version never moves backwards — a replayed decision is never older than
  // one the thread already observed.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 20000;
  cfg.num_queries = 120;
  cfg.seed = 229;
  Scenario scenario = BuildScenario(cfg);
  MalivaService service(&scenario, SmallConfig()
                                       .WithResultCache(true)
                                       .WithResultCacheCapacity(64)
                                       .WithOnlineLearning(true)
                                       .WithOnlineTrainerThreads(0)
                                       .WithOnlineGradientSteps(4)
                                       .WithOnlineGateTolerance(10.0));
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  const std::string key = "agent/exact-accurate";

  std::atomic<bool> failed{false};
  auto run_round = [&] {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        uint64_t last_version = 0;
        for (size_t i = 0; i < 40; ++i) {
          RewriteRequest req;
          req.query = scenario.evaluation[(t + i) % 6];  // 6-query hot set
          req.strategy = "mdp/accurate";
          Result<RewriteResponse> resp = service.Serve(req);
          if (!resp.ok()) {
            failed.store(true);
            return;
          }
          uint64_t version = resp.value().stats.agent_snapshot_version;
          if (version < last_version) {
            failed.store(true);  // stale decision replayed
            return;
          }
          last_version = version;
        }
      });
    }
    // Concurrent snapshot churn while the 8 threads serve.
    for (int round = 0; round < 3; ++round) {
      (void)service.online_trainer()->RetrainNow(key);
    }
    for (std::thread& thread : threads) thread.join();
  };

  run_round();
  uint64_t before = scenario.engine->catalog_version();
  ASSERT_TRUE(scenario.engine->BuildSampleTables("tweets", {0.25}, 4242).ok());
  ASSERT_GT(scenario.engine->catalog_version(), before);
  run_round();

  EXPECT_FALSE(failed.load());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, 2u * 8u * 40u);
  EXPECT_GT(stats.result_cache_hits, 0u);
  // The catalog bump (and any mid-stream snapshot publish) must have forced
  // context declines rather than stale replays.
  EXPECT_GE(stats.result_cache_stale_declines, 1u);
}

}  // namespace
}  // namespace maliva
