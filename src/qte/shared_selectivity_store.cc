#include "qte/shared_selectivity_store.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace maliva {

SharedSelectivityStore::SharedSelectivityStore(const Config& config)
    : capacity_(std::max<size_t>(1, config.capacity)) {
  size_t shards = std::clamp<size_t>(config.shards, 1, capacity_);
  per_shard_capacity_ = (capacity_ + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard_capacity_));
  }
}

SharedSelectivityStore::Shard& SharedSelectivityStore::ShardFor(uint64_t key) const {
  // Slot keys are already avalanche-mixed (query/signature.h), so the low
  // bits are uniformly distributed across shards.
  return *shards_[key % shards_.size()];
}

std::optional<double> SharedSelectivityStore::Lookup(uint64_t key,
                                                     uint64_t epoch) const {
  const Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  const Entry* entry = shard.entries.Find(key);
  if (entry == nullptr || entry->epoch != epoch) return std::nullopt;
  return entry->selectivity;
}

bool SharedSelectivityStore::Publish(uint64_t key, uint64_t epoch,
                                     double selectivity) {
  Shard& shard = ShardFor(key);
  {
    // Fast path for the warm steady state: requests re-publish the slots
    // they were seeded with, which are resident by definition — discover
    // the no-op under the shared side of the lock so publishers of known
    // keys never serialize.
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const Entry* entry = std::as_const(shard.entries).Find(key);
    if (entry != nullptr && entry->epoch >= epoch) return false;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (Entry* entry = shard.entries.Find(key)) {
    // First writer wins within an epoch, and epochs only move forward: a
    // stale-epoch entry is refreshed in place (keeping its FIFO position —
    // residency age, not value age), while a laggard publisher from an older
    // epoch must not clobber newer knowledge.
    if (entry->epoch >= epoch) return false;
    *entry = Entry{epoch, selectivity};
    return true;
  }
  if (shard.entries.Insert(key, Entry{epoch, selectivity})) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

size_t SharedSelectivityStore::Size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

void SharedSelectivityStore::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    shard->entries.Clear();
  }
}

}  // namespace maliva
