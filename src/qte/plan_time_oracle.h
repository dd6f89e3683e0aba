// Cached ground-truth execution times of rewritten queries.
//
// The accurate QTE, the MDP reward function, and the evaluation harness all
// need the true (virtual) execution time of applying a rewrite option to a
// query. Executing a plan is deterministic, so results are computed once and
// memoized here.
//
// The memo is bounded (util/recent_map.h): it keeps the kMemoEntries most
// recently inserted keys, so a training working set of that many plans stays
// resident, and evicts the oldest insertion beyond that. It grows with the
// live entries up to ~1.5 MiB. An evicted key simply re-executes to the
// bit-identical value.
//
// Thread-safe: the oracle sits on the concurrent serving path (one instance
// shared by every worker), so the memo table is guarded by a shared mutex.
// Cache misses execute the plan *outside* the lock — execution is
// deterministic, so a racing duplicate computes the identical value and the
// second insert is a no-op.

#ifndef MALIVA_QTE_PLAN_TIME_ORACLE_H_
#define MALIVA_QTE_PLAN_TIME_ORACLE_H_

#include <cstdint>
#include <shared_mutex>

#include "engine/engine.h"
#include "query/rewritten_query.h"
#include "util/recent_map.h"

namespace maliva {

/// Memoized Engine::Execute by (query id, rewrite option) identity.
class PlanTimeOracle {
 public:
  /// Memo capacity in (query, option) keys.
  static constexpr size_t kMemoEntries = size_t{1} << 16;

  explicit PlanTimeOracle(const Engine* engine) : engine_(engine), memo_(kMemoEntries) {}

  /// True virtual execution time of `option` applied to `query`.
  double TrueTimeMs(const Query& query, const RewriteOption& option) const;

  /// Number of (query, option) executions stored so far. Monotone: a key
  /// that was evicted and executes again counts again.
  size_t CacheSize() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return executions_;
  }

  const Engine* engine() const { return engine_; }

 private:
  static uint64_t Key(const Query& query, const RewriteOption& option);

  const Engine* engine_;
  mutable std::shared_mutex mutex_;
  mutable RecentMap<double> memo_;
  mutable size_t executions_ = 0;
};

}  // namespace maliva

#endif  // MALIVA_QTE_PLAN_TIME_ORACLE_H_
