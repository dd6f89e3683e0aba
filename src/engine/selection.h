// Selection kernel: the rows of one table that satisfy a conjunction of
// predicates, computed from the smallest exact index-backed row source.
//
// Each predicate is resolved once into a typed evaluator — a raw column
// pointer plus its bounds, or the keyword's sorted postings — and, when an
// index serves it, into a row source whose size comes from the index's count
// (no list is materialized to be counted). A selection walks its smallest
// source and filters it with the other evaluators.
//
// Exactness contract: every index returns exactly the rows its predicate
// accepts. B+-tree [lo, hi] is inclusive over NumericAt-widened keys, the
// R-tree leaf test is BoundingBox::Contains, and keyword predicates are
// postings membership. So any source filtered by the remaining predicates is
// the conjunction itself, and Select returns it in increasing row order —
// the same rows, counts and order as a row-at-a-time scan.

#ifndef MALIVA_ENGINE_SELECTION_H_
#define MALIVA_ENGINE_SELECTION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "index/rowset.h"
#include "query/query.h"
#include "storage/table.h"

namespace maliva {

struct TableEntry;
class BTreeIndex;
class RTreeIndex;

/// Evaluates one predicate against one row by by-name column access (the
/// fallback for predicates no typed evaluator covers).
bool EvalPredicate(const Table& table, const Predicate& pred, RowId row);

/// How keyword predicates match rows.
enum class KeywordMatch {
  /// Through the column's inverted index when one exists: the keyword is
  /// looked up lower-cased (the base-table selection semantics).
  kIndexed,
  /// The keyword must equal one of the row's tokens exactly as written (the
  /// row-evaluation semantics of the join's right side). The postings still
  /// serve it when the keyword is itself a token.
  kTokens,
};

/// A conjunction of predicates resolved against one table entry. Holds
/// pointers into the entry, its table and `preds`; all must outlive it.
class Conjunction {
 public:
  /// `index_rows` bit i makes predicate i mean "the rows its index returns"
  /// (a hinted predicate) rather than "the rows it accepts". The two differ
  /// only for a range bound that is NaN, which the B+ tree treats as open.
  Conjunction(const TableEntry& entry, const std::vector<Predicate>& preds,
              uint32_t index_rows, KeywordMatch keywords);

  /// Row count of predicate i's index (valid when an index serves it).
  size_t IndexCount(size_t i) const { return evals_[i].count; }

  /// Rows accepted by every predicate, in increasing order.
  RowIdList Select() const;

  /// Number of rows accepted by every predicate in `members` whose id is at
  /// most `last`.
  size_t Count(const std::vector<size_t>& members,
               RowId last = std::numeric_limits<RowId>::max()) const;

  /// True when every predicate accepts `row`.
  bool AcceptsAll(RowId row) const;

 private:
  /// One resolved predicate: a typed row test plus, when an index serves it,
  /// an exact row source.
  struct Evaluator {
    enum class Test : uint8_t { kInt64, kDouble, kPoint, kPostings, kRow };
    enum class Source : uint8_t { kNone, kPostings, kBTree, kRTree };

    Test test = Test::kRow;
    Source source = Source::kNone;
    double lo = 0.0;
    double hi = 0.0;
    BoundingBox box;
    const int64_t* ints = nullptr;
    const double* doubles = nullptr;
    const GeoPoint* points = nullptr;
    const RowIdList* postings = nullptr;
    const BTreeIndex* btree = nullptr;
    const RTreeIndex* rtree = nullptr;
    const Predicate* pred = nullptr;  // kRow
    size_t count = 0;                 // rows in the source

    bool Accepts(const Table& table, RowId row) const;
  };

  static Evaluator Resolve(const TableEntry& entry, const Predicate& pred,
                           bool index_rows, KeywordMatch keywords);

  /// Calls `visit(row)` for every row accepted by all of `members`, walking
  /// the smallest source. Returns whether the rows came in increasing order.
  template <typename Visit>
  bool Scan(const std::vector<size_t>& members, RowId last, Visit&& visit) const;

  const Table* table_;
  std::vector<Evaluator> evals_;
  std::vector<size_t> by_cost_;  // all predicates, cheapest test first
};

}  // namespace maliva

#endif  // MALIVA_ENGINE_SELECTION_H_
