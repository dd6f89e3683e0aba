// Differential exactness tests for the engine's selection kernel.
//
// ReferenceExecutePlan below is the row-at-a-time executor the kernel
// replaced: per-row predicate evaluation, materialized and sorted index
// lists intersected smallest first, and a right-side join filter that
// re-evaluates every predicate by column name. Engine::ExecutePlan must
// return the same ExecResult for every plan: exec_ms bit for bit, every
// PlanCards field, and the visualization output.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <unordered_map>

#include "engine/binning.h"
#include "engine/optimizer.h"
#include "index/rowset.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/query_gen.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

// ------------------------------------------------------------ reference ---

bool RefEvalPredicate(const Table& table, const Predicate& pred, RowId row) {
  const Column& col = table.GetColumn(pred.column);
  switch (pred.type) {
    case PredicateType::kKeyword: {
      std::vector<std::string> tokens = Tokenize(col.TextAt(row));
      return std::find(tokens.begin(), tokens.end(), pred.keyword) != tokens.end();
    }
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange:
      return pred.range.Contains(col.NumericAt(row));
    case PredicateType::kSpatialBox:
      return pred.box.Contains(col.PointAt(row));
  }
  return false;
}

/// The rows of a B-tree range, materialized and sorted into row order.
RowIdList RefRangeScan(const BTreeIndex& idx, double lo, double hi) {
  std::span<const RowId> rows = idx.RangeRows(lo, hi);
  RowIdList out(rows.begin(), rows.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The rows of an R-tree box query, materialized and sorted into row order.
RowIdList RefBoxQuery(const RTreeIndex& idx, const BoundingBox& box) {
  RowIdList out;
  idx.ForEach(box, [&out](RowId r) { out.push_back(r); });
  std::sort(out.begin(), out.end());
  return out;
}

/// Intersection of sorted lists, smallest first; empty for no lists.
RowIdList RefIntersectAll(std::vector<const RowIdList*> lists) {
  if (lists.empty()) return {};
  std::sort(lists.begin(), lists.end(),
            [](const RowIdList* x, const RowIdList* y) { return x->size() < y->size(); });
  RowIdList acc = *lists[0];
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    RowIdList next;
    std::set_intersection(acc.begin(), acc.end(), lists[i]->begin(), lists[i]->end(),
                          std::back_inserter(next));
    acc = std::move(next);
  }
  return acc;
}

uint64_t RefMixSeed(uint64_t engine_seed, const Query& query, const PlanSpec& spec) {
  uint64_t h = engine_seed;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(query.id);
  mix(spec.index_mask);
  mix(static_cast<uint64_t>(spec.join_method));
  mix(static_cast<uint64_t>(spec.approx.kind));
  mix(std::bit_cast<uint64_t>(spec.approx.fraction));
  return h;
}

Result<ExecResult> ReferenceExecutePlan(const Engine& engine, const Query& query,
                                        const PlanSpec& spec) {
  const EngineProfile& profile = engine.profile();
  Rng rng(RefMixSeed(engine.seed(), query, spec));

  PlanSpec effective = spec;
  if (profile.plan_instability_prob > 0.0 && rng.Bernoulli(profile.plan_instability_prob)) {
    RewriteOption free;
    free.approx = spec.approx;
    effective = engine.optimizer().ResolvePlan(query, free);
    effective.approx = spec.approx;
  }

  std::string exec_table = query.table;
  if (effective.approx.kind == ApproxKind::kSampleTable) {
    exec_table = Engine::SampleTableName(query.table, effective.approx.fraction);
  }
  const TableEntry* entry = engine.FindEntry(exec_table);
  if (entry == nullptr) return Status::NotFound("table '" + exec_table + "' not registered");
  const Table& table = *entry->table;
  const size_t m = query.predicates.size();
  const size_t n = table.NumRows();
  const double scale = profile.cardinality_scale;

  size_t limit_actual = std::numeric_limits<size_t>::max();
  if (effective.approx.kind == ApproxKind::kLimit) {
    double est = engine.EstimateOutputCardinality(query);
    limit_actual = static_cast<size_t>(
        std::max<double>(1.0, std::llround(effective.approx.fraction * est)));
  }

  ExecResult result;
  result.plan = effective;
  PlanCards& cards = result.cards;
  cards.heatmap = (query.output == OutputKind::kHeatmap);

  std::vector<std::function<bool(RowId)>> eval;
  for (const Predicate& p : query.predicates) {
    if (p.type == PredicateType::kKeyword) {
      auto it = entry->inverted.find(p.column);
      if (it != entry->inverted.end()) {
        const RowIdList* postings = &it->second->Lookup(p.keyword);
        eval.push_back([postings](RowId row) {
          return std::binary_search(postings->begin(), postings->end(), row);
        });
        continue;
      }
    }
    const Predicate* pred = &p;
    eval.push_back([&table, pred](RowId row) { return RefEvalPredicate(table, *pred, row); });
  }

  std::vector<RowId> matched;
  uint32_t mask = effective.index_mask;
  if (mask == 0) {
    size_t scanned = 0;
    for (RowId row = 0; row < n; ++row) {
      ++scanned;
      bool ok = true;
      for (size_t i = 0; i < m && ok; ++i) ok = eval[i](row);
      if (ok) {
        matched.push_back(row);
        if (matched.size() >= limit_actual) break;
      }
    }
    cards.scanned_rows = static_cast<double>(scanned) * scale;
    cards.scan_preds = static_cast<double>(m);
  } else {
    std::vector<RowIdList> lists;
    for (size_t i = 0; i < m; ++i) {
      if (((mask >> i) & 1u) == 0) continue;
      const Predicate& p = query.predicates[i];
      RowIdList list;
      switch (p.type) {
        case PredicateType::kKeyword: {
          auto it = entry->inverted.find(p.column);
          if (it == entry->inverted.end()) {
            return Status::FailedPrecondition("no inverted index on " + p.column);
          }
          list = it->second->Lookup(p.keyword);
          break;
        }
        case PredicateType::kTimeRange:
        case PredicateType::kNumericRange: {
          auto it = entry->btrees.find(p.column);
          if (it == entry->btrees.end()) {
            return Status::FailedPrecondition("no btree index on " + p.column);
          }
          list = RefRangeScan(*it->second, p.range.lo, p.range.hi);
          break;
        }
        case PredicateType::kSpatialBox: {
          auto it = entry->rtrees.find(p.column);
          if (it == entry->rtrees.end()) {
            return Status::FailedPrecondition("no rtree index on " + p.column);
          }
          list = RefBoxQuery(*it->second, p.box);
          break;
        }
      }
      cards.postings.push_back(static_cast<double>(list.size()) * scale);
      lists.push_back(std::move(list));
    }
    std::vector<const RowIdList*> list_ptrs;
    for (const RowIdList& l : lists) list_ptrs.push_back(&l);
    RowIdList candidates = RefIntersectAll(list_ptrs);
    cards.residual_preds = static_cast<double>(m - static_cast<size_t>(std::popcount(mask)));
    size_t processed = 0;
    for (RowId row : candidates) {
      ++processed;
      bool ok = true;
      for (size_t i = 0; i < m && ok; ++i) {
        if (((mask >> i) & 1u) == 0) ok = eval[i](row);
      }
      if (ok) {
        matched.push_back(row);
        if (matched.size() >= limit_actual) break;
      }
    }
    cards.candidates = static_cast<double>(processed) * scale;
  }
  cards.output_rows = static_cast<double>(matched.size()) * scale;

  if (query.join.has_value()) {
    const JoinSpec& js = *query.join;
    const TableEntry* right = engine.FindEntry(js.right_table);
    if (right == nullptr) return Status::NotFound("no table '" + js.right_table + "'");
    const Table& rtable = *right->table;
    cards.has_join = true;
    cards.join_method = effective.join_method;
    cards.output_rows = 0.0;
    const Column& fk_col = table.GetColumn(js.left_key);
    std::vector<RowId> joined;
    auto right_row_passes = [&](RowId rrow) {
      for (const Predicate& p : js.right_predicates) {
        if (!RefEvalPredicate(rtable, p, rrow)) return false;
      }
      return true;
    };
    auto filtered_right = [&]() -> RowIdList {
      RowIdList rows;
      if (!js.right_predicates.empty()) {
        const Predicate& p0 = js.right_predicates[0];
        auto it = right->btrees.find(p0.column);
        if (it != right->btrees.end() && p0.type != PredicateType::kKeyword &&
            p0.type != PredicateType::kSpatialBox) {
          rows = RefRangeScan(*it->second, p0.range.lo, p0.range.hi);
          if (js.right_predicates.size() > 1) {
            RowIdList kept;
            for (RowId r : rows) {
              if (right_row_passes(r)) kept.push_back(r);
            }
            rows = std::move(kept);
          }
          return rows;
        }
      }
      for (RowId r = 0; r < rtable.NumRows(); ++r) {
        if (right_row_passes(r)) rows.push_back(r);
      }
      return rows;
    };
    switch (effective.join_method) {
      case JoinMethod::kNestedLoop: {
        auto it = right->hashes.find(js.right_key);
        if (it == right->hashes.end()) {
          return Status::FailedPrecondition("no hash index on " + js.right_key);
        }
        cards.nl_outer = static_cast<double>(matched.size()) * scale;
        for (RowId row : matched) {
          for (RowId rrow : it->second->Lookup(fk_col.Int64At(row))) {
            if (right_row_passes(rrow)) {
              joined.push_back(row);
              break;
            }
          }
        }
        break;
      }
      case JoinMethod::kHash: {
        RowIdList rrows = filtered_right();
        cards.right_scanned = static_cast<double>(rrows.size()) * scale;
        cards.build_rows = static_cast<double>(rrows.size()) * scale;
        cards.probe_rows = static_cast<double>(matched.size()) * scale;
        const Column& pk_col = rtable.GetColumn(js.right_key);
        std::unordered_map<int64_t, bool> built;
        for (RowId r : rrows) built.emplace(pk_col.Int64At(r), true);
        for (RowId row : matched) {
          if (built.count(fk_col.Int64At(row)) > 0) joined.push_back(row);
        }
        break;
      }
      case JoinMethod::kMerge: {
        RowIdList rrows = filtered_right();
        cards.right_scanned = static_cast<double>(rrows.size()) * scale;
        cards.sort_rows = static_cast<double>(matched.size() + rrows.size()) * scale;
        cards.merge_rows = cards.sort_rows;
        const Column& pk_col = rtable.GetColumn(js.right_key);
        std::vector<std::pair<int64_t, RowId>> left_sorted;
        for (RowId row : matched) left_sorted.emplace_back(fk_col.Int64At(row), row);
        std::sort(left_sorted.begin(), left_sorted.end());
        std::vector<int64_t> right_keys;
        for (RowId r : rrows) right_keys.push_back(pk_col.Int64At(r));
        std::sort(right_keys.begin(), right_keys.end());
        size_t ri = 0;
        for (const auto& [key, row] : left_sorted) {
          while (ri < right_keys.size() && right_keys[ri] < key) ++ri;
          if (ri < right_keys.size() && right_keys[ri] == key) joined.push_back(row);
        }
        break;
      }
      case JoinMethod::kOptimizerChoice:
        return Status::Internal("unresolved join method at execution time");
    }
    cards.join_output = static_cast<double>(joined.size()) * scale;
    matched = std::move(joined);
  }

  if (query.output == OutputKind::kHeatmap) {
    BoundingBox viewport{};
    bool have_viewport = false;
    for (const Predicate& p : query.predicates) {
      if (p.type == PredicateType::kSpatialBox) {
        viewport = p.box;
        have_viewport = true;
        break;
      }
    }
    if (!have_viewport) {
      auto it = entry->rtrees.find(query.output_column);
      if (it != entry->rtrees.end()) viewport = it->second->Bounds();
    }
    const Column& out_col = table.GetColumn(query.output_column);
    for (RowId row : matched) {
      ++result.vis.bins[BinId(out_col.PointAt(row), viewport, query.heatmap_bins)];
    }
  } else {
    Result<size_t> id_idx = table.ColumnIndex("id");
    if (id_idx.ok()) {
      const Column& id_col = table.ColumnAt(id_idx.value());
      for (RowId row : matched) result.vis.ids.push_back(id_col.Int64At(row));
    } else {
      for (RowId row : matched) result.vis.ids.push_back(static_cast<int64_t>(row));
    }
  }

  double ms = engine.cost_model().PlanTimeMs(cards);
  if (profile.buffer_hit_prob > 0.0 && rng.Bernoulli(profile.buffer_hit_prob)) {
    ms /= std::max(1.0, profile.buffer_speedup);
  }
  if (profile.noise_sigma > 0.0) {
    double sigma = profile.noise_sigma;
    ms *= std::exp(rng.Normal(0.0, sigma) - 0.5 * sigma * sigma);
  }
  result.exec_ms = ms;
  return result;
}

// ------------------------------------------------------------ comparison ---

/// Bitwise double equality (NaN-safe, distinguishes -0.0).
bool Same(double a, double b) { return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b); }

/// Empty when `got` equals `want` in every field; otherwise the first
/// differing field's name.
std::string Diff(const ExecResult& want, const ExecResult& got) {
  if (!Same(want.exec_ms, got.exec_ms)) return "exec_ms";
  if (want.plan.index_mask != got.plan.index_mask) return "plan.index_mask";
  if (want.plan.join_method != got.plan.join_method) return "plan.join_method";
  if (want.plan.approx.kind != got.plan.approx.kind) return "plan.approx.kind";
  if (!Same(want.plan.approx.fraction, got.plan.approx.fraction)) return "plan.approx.fraction";
  const PlanCards& a = want.cards;
  const PlanCards& b = got.cards;
  if (!Same(a.scanned_rows, b.scanned_rows)) return "scanned_rows";
  if (!Same(a.scan_preds, b.scan_preds)) return "scan_preds";
  if (a.postings.size() != b.postings.size()) return "postings.size";
  for (size_t i = 0; i < a.postings.size(); ++i) {
    if (!Same(a.postings[i], b.postings[i])) return "postings[" + std::to_string(i) + "]";
  }
  if (!Same(a.candidates, b.candidates)) return "candidates";
  if (!Same(a.residual_preds, b.residual_preds)) return "residual_preds";
  if (!Same(a.output_rows, b.output_rows)) return "output_rows";
  if (a.heatmap != b.heatmap) return "heatmap";
  if (a.has_join != b.has_join) return "has_join";
  if (a.join_method != b.join_method) return "join_method";
  if (!Same(a.right_scanned, b.right_scanned)) return "right_scanned";
  if (!Same(a.build_rows, b.build_rows)) return "build_rows";
  if (!Same(a.probe_rows, b.probe_rows)) return "probe_rows";
  if (!Same(a.nl_outer, b.nl_outer)) return "nl_outer";
  if (!Same(a.sort_rows, b.sort_rows)) return "sort_rows";
  if (!Same(a.merge_rows, b.merge_rows)) return "merge_rows";
  if (!Same(a.join_output, b.join_output)) return "join_output";
  if (want.vis.ids != got.vis.ids) return "vis.ids";
  if (want.vis.bins != got.vis.bins) return "vis.bins";
  return "";
}

/// Runs `option` on `query` through the engine and through the reference;
/// both must agree on the status and, when OK, on every result field.
void ExpectSameExecution(const Engine& engine, const Query& query,
                         const RewriteOption& option) {
  PlanSpec spec = engine.optimizer().ResolvePlan(query, option);
  Result<ExecResult> want = ReferenceExecutePlan(engine, query, spec);
  Result<ExecResult> got = engine.ExecutePlan(query, spec);
  ASSERT_EQ(want.ok(), got.ok()) << want.status().ToString() << " vs "
                                 << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString());
    return;
  }
  std::string diff = Diff(want.value(), got.value());
  EXPECT_EQ(diff, "") << "query " << query.id << " option "
                      << option.ToString(query.predicates.size());
}

// ------------------------------------------------------------- scenarios ---

ScenarioConfig KernelScenario(DatasetKind kind, bool join) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.join = join;
  cfg.num_rows = 12000;
  cfg.num_users = 1500;
  cfg.num_queries = 40;
  cfg.approx_sample_rates = {0.2, 0.4};
  cfg.seed = 29;
  return cfg;
}

/// `count` queries generated afresh over the scenario's tables (same shape
/// as its own queries, new seed and ids).
std::vector<Query> FreshQueries(const Scenario& s, size_t count) {
  const Query& shape = s.queries.front();
  QueryGenConfig qg;
  qg.attrs = s.attrs;
  qg.num_queries = count;
  qg.seed = 4242;
  qg.id_base = 1000000;
  qg.output = shape.output;
  qg.output_column = shape.output_column;
  const Table* right = nullptr;
  if (shape.join.has_value()) {
    qg.join = true;
    qg.right_table = shape.join->right_table;
    qg.left_key = shape.join->left_key;
    qg.right_key = shape.join->right_key;
    qg.right_attr = shape.join->right_predicates.front().column;
    right = s.engine->FindEntry(qg.right_table)->table.get();
  }
  return GenerateQueries(*s.engine->FindEntry(shape.table)->table, right, qg);
}

/// The scenario's option set (hint-only or join), crossed with LIMIT and
/// sample-table rules for hint-only sets, plus the unhinted option.
RewriteOptionSet KernelOptions(const Scenario& s) {
  RewriteOptionSet options = s.options;
  if (!s.config.join) {
    options = CrossWithApproxRules(s.options,
                                   {{ApproxKind::kLimit, 0.1},
                                    {ApproxKind::kLimit, 0.5},
                                    {ApproxKind::kSampleTable, 0.2},
                                    {ApproxKind::kSampleTable, 0.4}},
                                   /*include_exact=*/true);
  }
  options.push_back(RewriteOption{});
  return options;
}

void ExpectScenarioMatchesReference(const ScenarioConfig& cfg) {
  Scenario s = BuildScenario(cfg);
  std::vector<Query> fresh = FreshQueries(s, 200);
  std::vector<const Query*> queries;
  for (const Query& q : s.queries) queries.push_back(&q);
  for (const Query& q : fresh) queries.push_back(&q);
  RewriteOptionSet options = KernelOptions(s);
  for (const Query* q : queries) {
    for (const RewriteOption& ro : options) {
      ExpectSameExecution(*s.engine, *q, ro);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(EngineKernelTest, TwitterMatchesReference) {
  ExpectScenarioMatchesReference(KernelScenario(DatasetKind::kTwitter, false));
}

TEST(EngineKernelTest, TwitterJoinMatchesReference) {
  ExpectScenarioMatchesReference(KernelScenario(DatasetKind::kTwitter, true));
}

TEST(EngineKernelTest, TaxiMatchesReference) {
  ExpectScenarioMatchesReference(KernelScenario(DatasetKind::kTaxi, false));
}

TEST(EngineKernelTest, TpchMatchesReference) {
  ExpectScenarioMatchesReference(KernelScenario(DatasetKind::kTpch, false));
}

TEST(EngineKernelTest, PlanInstabilityReplanMatchesReference) {
  // The commercial profile re-plans 15% of executions, ignoring the hints.
  ScenarioConfig cfg = KernelScenario(DatasetKind::kTaxi, false);
  cfg.profile = EngineProfile::CommercialLike();
  ASSERT_GT(cfg.profile.plan_instability_prob, 0.0);
  ExpectScenarioMatchesReference(cfg);
}

// ------------------------------------------------------------ edge cases ---

/// Every hint mask of `q` on `engine`, plus masks with a bit that names no
/// predicate, each exact and under two LIMITs.
void ExpectAllMasksMatch(const Engine& engine, const Query& q) {
  const uint32_t beyond = 1u << q.predicates.size();
  for (uint32_t mask = 0; mask <= beyond + 1; ++mask) {
    for (ApproxRule rule : {ApproxRule{}, ApproxRule{ApproxKind::kLimit, 0.05},
                            ApproxRule{ApproxKind::kLimit, 0.6}}) {
      RewriteOption ro;
      ro.hints.index_mask = mask;
      ro.approx = rule;
      ExpectSameExecution(engine, q, ro);
    }
  }
}

Query EdgeQuery(uint64_t id, const std::string& keyword, double lo, double hi,
                BoundingBox box) {
  Query q;
  q.id = id;
  q.table = "tweets";
  q.output = OutputKind::kHeatmap;
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", keyword));
  q.predicates.push_back(Predicate::Time("created_at", lo, hi));
  q.predicates.push_back(Predicate::Spatial("coordinates", box));
  return q;
}

TEST(EngineKernelTest, KeywordWithEmptyPostings) {
  auto engine = testing_helpers::SmallEngine(4000, 7);
  ASSERT_TRUE(engine->FindEntry("tweets")->inverted.at("text")->Lookup("nosuchword").empty());
  ExpectAllMasksMatch(*engine, EdgeQuery(1, "nosuchword", 0, 9999, {0, 0, 100, 50}));
}

TEST(EngineKernelTest, InvertedRange) {
  auto engine = testing_helpers::SmallEngine(4000, 7);
  ExpectAllMasksMatch(*engine, EdgeQuery(2, "w1", 6000, 5000, {0, 0, 100, 50}));
}

TEST(EngineKernelTest, ZeroAreaBox) {
  auto engine = testing_helpers::SmallEngine(4000, 7);
  GeoPoint p = engine->FindEntry("tweets")->table->GetColumn("coordinates").PointAt(17);
  Query q = EdgeQuery(3, "w0", 0, 9999, {p.lon, p.lat, p.lon, p.lat});
  q.predicates.erase(q.predicates.begin());  // keep the row whatever its words
  ExpectAllMasksMatch(*engine, q);
  PlanSpec scan;
  Result<ExecResult> r = engine->ExecutePlan(q, scan);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().cards.output_rows, 1.0);
}

TEST(EngineKernelTest, NanBoundsKeepIndexAndRowMeanings) {
  // A hinted range is the B+ tree's rows (a NaN bound is open there); an
  // unhinted one is the rows it accepts (none).
  auto engine = testing_helpers::SmallEngine(4000, 7);
  double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectAllMasksMatch(*engine, EdgeQuery(4, "w2", nan, 5000, {0, 0, 100, 50}));
  ExpectAllMasksMatch(*engine, EdgeQuery(5, "w2", 5000, nan, {0, 0, 100, 50}));
}

TEST(EngineKernelTest, UnindexedPredicateScannedAndHinted) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 7);
  ASSERT_TRUE(
      engine->RegisterTable(testing_helpers::SmallTweets(3000, 7), {"coordinates"}).ok());
  Query q = EdgeQuery(6, "burst", 4000, 7000, {30, 0, 70, 50});
  ExpectAllMasksMatch(*engine, q);
  for (uint32_t mask : {1u, 2u, 3u, 7u}) {
    PlanSpec spec;
    spec.index_mask = mask;
    Result<ExecResult> r = engine->ExecutePlan(q, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
  }
  PlanSpec spatial_only;
  spatial_only.index_mask = 4;
  EXPECT_TRUE(engine->ExecutePlan(q, spatial_only).ok());
}

TEST(EngineKernelTest, LimitTruncatesInRowOrder) {
  auto engine = testing_helpers::SmallEngine(4000, 7);
  Query q = EdgeQuery(7, "w0", 0, 9999, {0, 0, 100, 50});
  q.output = OutputKind::kScatter;
  for (uint32_t mask = 0; mask < 8; ++mask) {
    PlanSpec exact;
    exact.index_mask = mask;
    PlanSpec limited = exact;
    limited.approx = {ApproxKind::kLimit, 0.1};
    Result<ExecResult> full = engine->ExecutePlan(q, exact);
    Result<ExecResult> cut = engine->ExecutePlan(q, limited);
    ASSERT_TRUE(full.ok() && cut.ok());
    const std::vector<int64_t>& all = full.value().vis.ids;
    const std::vector<int64_t>& head = cut.value().vis.ids;
    ASSERT_LT(head.size(), all.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), all.begin()));
    Result<ExecResult> want = ReferenceExecutePlan(*engine, q, limited);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Diff(want.value(), cut.value()), "");
  }
}

}  // namespace
}  // namespace maliva
