#include "qte/plan_time_oracle.h"

#include <bit>
#include <cassert>
#include <mutex>

namespace maliva {

uint64_t PlanTimeOracle::Key(const Query& query, const RewriteOption& option) {
  uint64_t h = query.id * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(option.hints.index_mask.has_value() ? (*option.hints.index_mask + 1) : 0);
  mix(static_cast<uint64_t>(option.hints.join_method));
  mix(static_cast<uint64_t>(option.approx.kind));
  mix(std::bit_cast<uint64_t>(option.approx.fraction));
  return h;
}

double PlanTimeOracle::TrueTimeMs(const Query& query, const RewriteOption& option) const {
  uint64_t key = Key(query, option);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (const double* ms = memo_.Find(key)) return *ms;
  }
  // Execute outside the lock: deterministic, so a concurrent duplicate
  // computes the same value and the insert keeps whichever landed first.
  RewrittenQuery rq{&query, option};
  Result<ExecResult> result = engine_->Execute(rq);
  assert(result.ok());
  double ms = result.value().exec_ms;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (memo_.Find(key) == nullptr) {
    memo_.Insert(key, ms);
    ++executions_;
  }
  return ms;
}

}  // namespace maliva
