// Microbenchmarks (google-benchmark) for the performance-critical substrate
// components: index probes, plan execution, Q-network inference/training.

#include <benchmark/benchmark.h>

#include "core/agent.h"
#include "engine/engine.h"
#include "engine/optimizer.h"
#include "index/btree_index.h"
#include "index/inverted_index.h"
#include "index/rtree_index.h"
#include "ml/mlp.h"
#include "query/signature.h"
#include "workload/twitter.h"

namespace maliva {
namespace {

std::unique_ptr<Table> BenchTweets(size_t rows) {
  TwitterConfig cfg;
  cfg.num_rows = rows;
  cfg.seed = 77;
  return GenerateTweetsTable(cfg);
}

void BM_BTreeRangeScan(benchmark::State& state) {
  auto table = BenchTweets(50000);
  BTreeIndex idx(*table, "created_at");
  double lo = idx.MinKey();
  double span = (idx.MaxKey() - idx.MinKey()) / static_cast<double>(state.range(0));
  for (auto _ : state) {
    // Walk the zero-copy key-order view, as the selection kernel does.
    uint64_t sum = 0;
    for (RowId row : idx.RangeRows(lo, lo + span)) sum += row;
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel("1/" + std::to_string(state.range(0)) + " of key space");
}
BENCHMARK(BM_BTreeRangeScan)->Arg(8)->Arg(64)->Arg(512);

void BM_RTreeBoxQuery(benchmark::State& state) {
  auto table = BenchTweets(50000);
  RTreeIndex idx(*table, "coordinates");
  BoundingBox all = idx.Bounds();
  double frac = 1.0 / static_cast<double>(state.range(0));
  BoundingBox box{all.min_lon, all.min_lat,
                  all.min_lon + all.Width() * frac,
                  all.min_lat + all.Height() * frac};
  for (auto _ : state) {
    uint64_t sum = 0;
    idx.ForEach(box, [&sum](RowId row) { sum += row; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RTreeBoxQuery)->Arg(4)->Arg(16)->Arg(64);

void BM_InvertedLookup(benchmark::State& state) {
  auto table = BenchTweets(50000);
  InvertedIndex idx(*table, "text");
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup("w1"));
    benchmark::DoNotOptimize(idx.Lookup("w42"));
    benchmark::DoNotOptimize(idx.Lookup("event0"));
  }
}
BENCHMARK(BM_InvertedLookup);

void BM_ExecuteIndexPlan(benchmark::State& state) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 1);
  Status st = engine->RegisterTable(BenchTweets(50000),
                                    {"text", "created_at", "coordinates"});
  (void)st;
  Query q;
  q.id = 1;
  q.table = "tweets";
  q.output = OutputKind::kScatter;
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", "w5"));
  q.predicates.push_back(
      Predicate::Time("created_at", 1446336000, 1446336000 + 40LL * 86400));
  q.predicates.push_back(Predicate::Spatial("coordinates", {-110, 30, -90, 45}));
  PlanSpec spec;
  spec.index_mask = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->ExecutePlan(q, spec));
  }
}
BENCHMARK(BM_ExecuteIndexPlan)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(7);

void BM_OptimizerResolve(benchmark::State& state) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 1);
  Status st = engine->RegisterTable(BenchTweets(20000),
                                    {"text", "created_at", "coordinates"});
  (void)st;
  Query q;
  q.id = 2;
  q.table = "tweets";
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", "w5"));
  q.predicates.push_back(
      Predicate::Time("created_at", 1446336000, 1446336000 + 10LL * 86400));
  q.predicates.push_back(Predicate::Spatial("coordinates", {-110, 30, -100, 40}));
  RewriteOption unhinted;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->optimizer().ResolvePlan(q, unhinted));
  }
}
BENCHMARK(BM_OptimizerResolve);

void BM_SampleTableNameFormat(benchmark::State& state) {
  // The per-probe string formatting SampledSelectivity used to pay before
  // the per-(table, rate) sample-entry cache; kept as the reference cost the
  // cached hot path avoids.
  for (auto _ : state) {
    benchmark::DoNotOptimize(Engine::SampleTableName("tweets", 0.05));
  }
}
BENCHMARK(BM_SampleTableNameFormat);

void BM_SampledSelectivityProbe(benchmark::State& state) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 1);
  Status st = engine->RegisterTable(BenchTweets(50000),
                                    {"text", "created_at", "coordinates"});
  st = engine->BuildSampleTables("tweets", {0.05}, 9);
  (void)st;
  Predicate pred =
      Predicate::Time("created_at", 1446336000, 1446336000 + 10LL * 86400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->SampledSelectivity("tweets", pred, 0.05));
  }
}
BENCHMARK(BM_SampledSelectivityProbe);

void BM_HistogramSelectivity(benchmark::State& state) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 1);
  Status st = engine->RegisterTable(BenchTweets(50000),
                                    {"text", "created_at", "coordinates"});
  (void)st;
  Predicate pred =
      Predicate::Time("created_at", 1446336000, 1446336000 + 10LL * 86400);
  uint64_t epoch = engine->catalog_version();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->HistogramSelectivity("tweets", pred, epoch));
  }
}
BENCHMARK(BM_HistogramSelectivity);

void BM_QuerySignature(benchmark::State& state) {
  // Cost of the per-request canonicalization + fingerprint the serving path
  // hoists once per request (shared by the selectivity store and the
  // rewrite-result cache): three-predicate query, signature + cache key.
  Query q;
  q.id = 3;
  q.table = "tweets";
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", "w5"));
  q.predicates.push_back(
      Predicate::Time("created_at", 1446336000, 1446336000 + 10LL * 86400));
  q.predicates.push_back(Predicate::Spatial("coordinates", {-110, 30, -100, 40}));
  const std::string strategy = "mdp";
  for (auto _ : state) {
    CanonicalQuery canonical = Canonicalize(q);
    benchmark::DoNotOptimize(
        MakeRequestFingerprint(canonical.signature, strategy, 100.0, 0.9));
    benchmark::DoNotOptimize(canonical);
  }
}
BENCHMARK(BM_QuerySignature);

void BM_QNetworkForward(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  QAgent agent(n, 3);
  std::vector<double> f(2 * n + 1, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.QValues(f));
  }
}
BENCHMARK(BM_QNetworkForward)->Arg(8)->Arg(21)->Arg(32)->Arg(48);

void BM_QNetworkTrainStep(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  QAgent agent(n, 3);
  std::vector<double> f(2 * n + 1, 0.2);
  for (auto _ : state) {
    for (int b = 0; b < 64; ++b) {
      agent.online()->AccumulateGradient(f, b % static_cast<int>(n), 0.5);
    }
    agent.online()->Step(1e-3, 64);
  }
}
BENCHMARK(BM_QNetworkTrainStep)->Arg(8)->Arg(32);

}  // namespace
}  // namespace maliva

BENCHMARK_MAIN();
