// Unit + property tests for indexes: results must match brute-force scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>

#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/rtree_index.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace maliva {
namespace {

/// True when `rows` is strictly increasing (sorted and duplicate-free).
bool StrictlyIncreasing(const RowIdList& rows) {
  return std::adjacent_find(rows.begin(), rows.end(), std::greater_equal<RowId>()) ==
         rows.end();
}

/// The rows of a B-tree range, in row order.
RowIdList RangeRowsSorted(const BTreeIndex& idx, double lo, double hi) {
  std::span<const RowId> rows = idx.RangeRows(lo, hi);
  RowIdList out(rows.begin(), rows.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The rows an R-tree visits for `box`, in row order.
RowIdList ForEachSorted(const RTreeIndex& idx, const BoundingBox& box) {
  RowIdList out;
  idx.ForEach(box, [&out](RowId r) { out.push_back(r); });
  std::sort(out.begin(), out.end());
  return out;
}

// ---------- BTreeIndex ----------

class BTreeIndexProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeIndexProperty, MatchesBruteForce) {
  size_t n = GetParam();
  Rng rng(n * 7 + 1);
  Table t("t", {{"v", ColumnType::kDouble}});
  std::vector<double> vals;
  for (size_t i = 0; i < n; ++i) {
    double v = rng.Uniform(-100.0, 100.0);
    // Inject duplicates to exercise equal-key handling.
    if (i % 5 == 0) v = std::floor(v);
    vals.push_back(v);
    t.MutableColumnAt(0).AppendDouble(v);
  }
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");

  for (int trial = 0; trial < 30; ++trial) {
    double lo = rng.Uniform(-120.0, 120.0);
    double hi = lo + rng.Uniform(0.0, 80.0);
    RowIdList got = RangeRowsSorted(idx, lo, hi);
    RowIdList expect;
    for (RowId r = 0; r < n; ++r) {
      if (vals[r] >= lo && vals[r] <= hi) expect.push_back(r);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(idx.RangeCount(lo, hi), expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeIndexProperty,
                         ::testing::Values(0, 1, 2, 17, 256, 2000));

TEST(BTreeIndexTest, InclusiveBounds) {
  Table t("t", {{"v", ColumnType::kInt64}});
  for (int64_t v : {10, 20, 20, 30}) t.MutableColumnAt(0).AppendInt64(v);
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");
  EXPECT_EQ(idx.RangeCount(20, 20), 2u);
  EXPECT_EQ(idx.RangeCount(10, 30), 4u);
  EXPECT_EQ(idx.RangeCount(31, 40), 0u);
  EXPECT_EQ(idx.RangeCount(30, 10), 0u);  // inverted range
  EXPECT_DOUBLE_EQ(idx.MinKey(), 10.0);
  EXPECT_DOUBLE_EQ(idx.MaxKey(), 30.0);
}

TEST(BTreeIndexTest, ResultsSorted) {
  Rng rng(99);
  Table t("t", {{"v", ColumnType::kDouble}});
  for (int i = 0; i < 500; ++i) t.MutableColumnAt(0).AppendDouble(rng.Uniform(0, 1));
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");
  // RangeRows walks the range in key order (ties by row id), so its rows
  // are distinct and their keys nondecreasing.
  std::span<const RowId> rows = idx.RangeRows(0.2, 0.8);
  ASSERT_FALSE(rows.empty());
  const Column& col = t.GetColumn("v");
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(col.NumericAt(rows[i - 1]), col.NumericAt(rows[i]));
  }
  EXPECT_TRUE(StrictlyIncreasing(RangeRowsSorted(idx, 0.2, 0.8)));
}

// ---------- RTreeIndex ----------

class RTreeIndexProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeIndexProperty, MatchesBruteForce) {
  size_t n = GetParam();
  Rng rng(n * 13 + 5);
  Table t("t", {{"p", ColumnType::kPoint}});
  std::vector<GeoPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    GeoPoint p{rng.Uniform(-10, 10), rng.Uniform(-5, 5)};
    pts.push_back(p);
    t.MutableColumnAt(0).AppendPoint(p);
  }
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_EQ(idx.size(), n);

  for (int trial = 0; trial < 30; ++trial) {
    double lon = rng.Uniform(-12, 10);
    double lat = rng.Uniform(-6, 4);
    BoundingBox box{lon, lat, lon + rng.Uniform(0, 8), lat + rng.Uniform(0, 4)};
    RowIdList got = ForEachSorted(idx, box);
    RowIdList expect;
    for (RowId r = 0; r < n; ++r) {
      if (box.Contains(pts[r])) expect.push_back(r);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(idx.Count(box), expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeIndexProperty,
                         ::testing::Values(0, 1, 63, 64, 65, 1000, 5000));

TEST(RTreeIndexTest, BoundsCoverAll) {
  Rng rng(3);
  Table t("t", {{"p", ColumnType::kPoint}});
  for (int i = 0; i < 300; ++i) {
    t.MutableColumnAt(0).AppendPoint({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_EQ(ForEachSorted(idx, idx.Bounds()).size(), 300u);
  EXPECT_GE(idx.Height(), 2u);  // 300 points, fanout 64 -> at least 2 levels
}

TEST(RTreeIndexTest, EmptyQuery) {
  Table t("t", {{"p", ColumnType::kPoint}});
  t.MutableColumnAt(0).AppendPoint({0, 0});
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_TRUE(ForEachSorted(idx, {5, 5, 6, 6}).empty());
}

// ---------- InvertedIndex ----------

TEST(InvertedIndexTest, LookupMatchesTokenization) {
  Table t("t", {{"text", ColumnType::kText}});
  t.MutableColumnAt(0).AppendText("covid vaccine news");
  t.MutableColumnAt(0).AppendText("Weather today. COVID update");
  t.MutableColumnAt(0).AppendText("sports scores");
  t.MutableColumnAt(0).AppendText("covid covid covid");  // distinct once
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  EXPECT_EQ(idx.Lookup("covid"), (RowIdList{0, 1, 3}));
  EXPECT_EQ(idx.Lookup("COVID"), (RowIdList{0, 1, 3}));  // case-insensitive
  EXPECT_EQ(idx.DocFreq("weather"), 1u);
  EXPECT_TRUE(idx.Lookup("absent").empty());
}

TEST(InvertedIndexTest, PostingsSorted) {
  Rng rng(7);
  Table t("t", {{"text", ColumnType::kText}});
  for (int i = 0; i < 1000; ++i) {
    std::string s;
    for (int w = 0; w < 4; ++w) s += "w" + std::to_string(rng.UniformInt(0, 30)) + " ";
    t.MutableColumnAt(0).AppendText(s);
  }
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  for (int w = 0; w <= 30; ++w) {
    EXPECT_TRUE(StrictlyIncreasing(idx.Lookup("w" + std::to_string(w))));
  }
}

TEST(InvertedIndexTest, VocabularySize) {
  Table t("t", {{"text", ColumnType::kText}});
  t.MutableColumnAt(0).AppendText("a b c");
  t.MutableColumnAt(0).AppendText("b c d");
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  EXPECT_EQ(idx.VocabularySize(), 4u);
}

// ---------- HashIndex ----------

TEST(HashIndexTest, LookupWithDuplicates) {
  Table t("t", {{"k", ColumnType::kInt64}});
  for (int64_t v : {5, 7, 5, 9, 7, 5}) t.MutableColumnAt(0).AppendInt64(v);
  ASSERT_TRUE(t.Seal().ok());
  HashIndex idx(t, "k");
  EXPECT_EQ(idx.Lookup(5), (RowIdList{0, 2, 5}));
  EXPECT_EQ(idx.Lookup(7), (RowIdList{1, 4}));
  EXPECT_EQ(idx.Lookup(9), (RowIdList{3}));
  EXPECT_TRUE(idx.Lookup(404).empty());
  EXPECT_EQ(idx.DistinctKeys(), 3u);
}

}  // namespace
}  // namespace maliva
