#include "engine/selection.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "engine/engine.h"
#include "util/string_util.h"

namespace maliva {

namespace {

const RowIdList kNoRows;

/// Rough cost of one postings binary search, in bitmap-bit settings.
constexpr size_t kSearchSteps = 16;

/// True when `keyword` can equal a row token: Tokenize yields only
/// non-empty lower-cased alphanumeric runs.
bool IsToken(const std::string& keyword) {
  std::vector<std::string> tokens = Tokenize(keyword);
  return tokens.size() == 1 && tokens[0] == keyword;
}

}  // namespace

bool EvalPredicate(const Table& table, const Predicate& pred, RowId row) {
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

bool Conjunction::Evaluator::Accepts(const Table& table, RowId row) const {
  switch (test) {
    case Test::kInt64: {
      double v = static_cast<double>(ints[row]);
      return v >= lo && v <= hi;
    }
    case Test::kDouble: {
      double v = doubles[row];
      return v >= lo && v <= hi;
    }
    case Test::kPoint:
      return box.Contains(points[row]);
    case Test::kPostings:
      return std::binary_search(postings->begin(), postings->end(), row);
    case Test::kRow:
      return EvalPredicate(table, *pred, row);
  }
  return false;
}

Conjunction::Evaluator Conjunction::Resolve(const TableEntry& entry, const Predicate& pred,
                                            bool index_rows, KeywordMatch keywords) {
  Evaluator e;
  e.pred = &pred;
  Result<size_t> col_idx = entry.table->ColumnIndex(pred.column);
  if (!col_idx.ok()) return e;
  const Column& col = entry.table->ColumnAt(col_idx.value());
  switch (pred.type) {
    case PredicateType::kKeyword: {
      const RowIdList* postings = nullptr;
      if (keywords == KeywordMatch::kTokens && !IsToken(pred.keyword)) {
        postings = &kNoRows;
      } else if (auto it = entry.inverted.find(pred.column); it != entry.inverted.end()) {
        postings = &it->second->Lookup(pred.keyword);
      } else {
        return e;  // no index: tokenize each row
      }
      e.test = Evaluator::Test::kPostings;
      e.postings = postings;
      e.source = Evaluator::Source::kPostings;
      e.count = postings->size();
      return e;
    }
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange: {
      auto it = entry.btrees.find(pred.column);
      const BTreeIndex* btree = it == entry.btrees.end() ? nullptr : it->second.get();
      e.lo = pred.range.lo;
      e.hi = pred.range.hi;
      if (btree != nullptr && index_rows) {
        // The B+ tree's lower_bound/upper_bound treat a NaN bound as open.
        if (std::isnan(e.lo)) e.lo = -std::numeric_limits<double>::infinity();
        if (std::isnan(e.hi)) e.hi = std::numeric_limits<double>::infinity();
      }
      switch (col.type()) {
        case ColumnType::kInt64:
          e.test = Evaluator::Test::kInt64;
          e.ints = col.AsInt64().data();
          break;
        case ColumnType::kTimestamp:
          e.test = Evaluator::Test::kInt64;
          e.ints = col.AsTimestamp().data();
          break;
        case ColumnType::kDouble:
          e.test = Evaluator::Test::kDouble;
          e.doubles = col.AsDouble().data();
          break;
        default:
          return e;
      }
      if (btree != nullptr && !std::isnan(e.lo) && !std::isnan(e.hi)) {
        e.source = Evaluator::Source::kBTree;
        e.btree = btree;
        e.count = btree->RangeCount(e.lo, e.hi);
      }
      return e;
    }
    case PredicateType::kSpatialBox: {
      if (col.type() != ColumnType::kPoint) return e;
      e.test = Evaluator::Test::kPoint;
      e.points = col.AsPoint().data();
      e.box = pred.box;
      if (auto it = entry.rtrees.find(pred.column); it != entry.rtrees.end()) {
        e.source = Evaluator::Source::kRTree;
        e.rtree = it->second.get();
        e.count = e.rtree->Count(e.box);
      }
      return e;
    }
  }
  return e;
}

Conjunction::Conjunction(const TableEntry& entry, const std::vector<Predicate>& preds,
                         uint32_t index_rows, KeywordMatch keywords)
    : table_(entry.table.get()) {
  evals_.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    bool hinted = i < 32 && ((index_rows >> i) & 1u) != 0;
    evals_.push_back(Resolve(entry, preds[i], hinted, keywords));
  }
  // Column reads first, postings searches next, by-name row evaluation last.
  auto rank = [this](size_t i) {
    switch (evals_[i].test) {
      case Evaluator::Test::kPostings:
        return 1;
      case Evaluator::Test::kRow:
        return 2;
      default:
        return 0;
    }
  };
  for (int r = 0; r <= 2; ++r) {
    for (size_t i = 0; i < evals_.size(); ++i) {
      if (rank(i) == r) by_cost_.push_back(i);
    }
  }
}

template <typename Visit>
bool Conjunction::Scan(const std::vector<size_t>& members, RowId last, Visit&& visit) const {
  auto is_member = [&members](size_t i) {
    return std::find(members.begin(), members.end(), i) != members.end();
  };
  const Evaluator* src = nullptr;
  for (size_t i : members) {
    const Evaluator& e = evals_[i];
    if (e.source != Evaluator::Source::kNone && (src == nullptr || e.count < src->count)) {
      src = &e;
    }
  }
  // A postings filter is a binary search per row. When the walk is long
  // next to the postings, a row bitmap of them answers with one load.
  const size_t n = table_->NumRows();
  const size_t walk = src == nullptr ? n : src->count;
  std::vector<std::vector<uint64_t>> bitmaps;
  bitmaps.reserve(members.size());
  struct Filter {
    const Evaluator* eval;
    const uint64_t* bits;  // non-null: postings membership as a bitmap
  };
  std::vector<Filter> filters;
  for (size_t i : by_cost_) {
    const Evaluator& e = evals_[i];
    if (!is_member(i) || &e == src) continue;
    const uint64_t* bits = nullptr;
    if (e.test == Evaluator::Test::kPostings && walk * kSearchSteps > e.postings->size()) {
      std::vector<uint64_t>& bitmap = bitmaps.emplace_back((n + 63) / 64, 0);
      for (RowId row : *e.postings) bitmap[row >> 6] |= uint64_t{1} << (row & 63);
      bits = bitmap.data();
    }
    filters.push_back({&e, bits});
  }
  auto step = [&](RowId row) {
    if (row > last) return;
    for (const Filter& f : filters) {
      bool pass = f.bits != nullptr ? ((f.bits[row >> 6] >> (row & 63)) & 1u) != 0
                                    : f.eval->Accepts(*table_, row);
      if (!pass) return;
    }
    visit(row);
  };

  if (src == nullptr) {
    for (RowId row = 0; row < n && row <= last; ++row) step(row);
    return true;
  }
  switch (src->source) {
    case Evaluator::Source::kPostings: {
      auto end = std::upper_bound(src->postings->begin(), src->postings->end(), last);
      for (auto it = src->postings->begin(); it != end; ++it) step(*it);
      return true;
    }
    case Evaluator::Source::kBTree:
      for (RowId row : src->btree->RangeRows(src->lo, src->hi)) step(row);
      return false;
    case Evaluator::Source::kRTree:
      src->rtree->ForEach(src->box, step);
      return false;
    case Evaluator::Source::kNone:
      break;
  }
  return true;
}

RowIdList Conjunction::Select() const {
  RowIdList rows;
  bool ordered = Scan(by_cost_, std::numeric_limits<RowId>::max(),
                      [&rows](RowId row) { rows.push_back(row); });
  if (!ordered) std::sort(rows.begin(), rows.end());
  return rows;
}

size_t Conjunction::Count(const std::vector<size_t>& members, RowId last) const {
  if (members.size() == 1 && last == std::numeric_limits<RowId>::max() &&
      evals_[members[0]].source != Evaluator::Source::kNone) {
    return evals_[members[0]].count;
  }
  size_t count = 0;
  Scan(members, last, [&count](RowId) { ++count; });
  return count;
}

bool Conjunction::AcceptsAll(RowId row) const {
  for (size_t i : by_cost_) {
    if (!evals_[i].Accepts(*table_, row)) return false;
  }
  return true;
}

}  // namespace maliva
