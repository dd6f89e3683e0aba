// Bounded map from 64-bit keys to small values, evicting the oldest
// insertion first.
//
// Entries live in insertion order in a log, which becomes a ring once the
// map holds `capacity` keys: the next insertion overwrites the oldest entry.
// An open-addressing index (linear probing, load at most 1/2) maps keys to
// log positions. Both arrays grow with the live entries, so memory stays
// proportional to them up to the cap: sizeof(key + Value) per entry plus
// 8 to 16 bytes of index, roughly half what a node-based map with a FIFO
// side queue costs.
//
// Not synchronized: owners guard it with their own lock.

#ifndef MALIVA_UTIL_RECENT_MAP_H_
#define MALIVA_UTIL_RECENT_MAP_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace maliva {

template <typename Value>
class RecentMap {
 public:
  /// Holds at most `capacity` (>= 1, < 2^32) keys.
  explicit RecentMap(size_t capacity) : capacity_(capacity) {
    assert(capacity >= 1 && capacity < kFree);
  }

  size_t size() const { return log_.size(); }
  size_t capacity() const { return capacity_; }

  /// The value stored under `key`, or nullptr.
  const Value* Find(uint64_t key) const {
    if (index_.empty()) return nullptr;
    uint32_t pos = index_[Probe(key)];
    return pos == kFree ? nullptr : &log_[pos].value;
  }
  Value* Find(uint64_t key) {
    return const_cast<Value*>(static_cast<const RecentMap*>(this)->Find(key));
  }

  /// Stores `value` under `key`, which must be absent. At capacity the
  /// oldest insertion is evicted first; returns whether one was.
  bool Insert(uint64_t key, const Value& value) {
    assert(Find(key) == nullptr);
    size_t pos;
    bool evicted = false;
    if (log_.size() == capacity_) {
      pos = oldest_;
      EraseAt(Probe(log_[pos].key));
      log_[pos] = Entry{key, value};
      oldest_ = (oldest_ + 1) % capacity_;
      evicted = true;
    } else {
      if (2 * (log_.size() + 1) > index_.size()) Grow();
      pos = log_.size();
      log_.push_back(Entry{key, value});
    }
    index_[Probe(key)] = static_cast<uint32_t>(pos);
    return evicted;
  }

  /// Drops every entry and releases the memory.
  void Clear() {
    std::vector<Entry>().swap(log_);
    std::vector<uint32_t>().swap(index_);
    oldest_ = 0;
  }

 private:
  struct Entry {
    uint64_t key;
    Value value;
  };
  static constexpr uint32_t kFree = 0xffffffffu;
  static constexpr size_t kInitialSlots = 16;

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi index the table.
    const int bits = std::countr_zero(index_.size());
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
  }

  /// Index slot holding `key`'s log position, or the free slot where it
  /// would go.
  size_t Probe(uint64_t key) const {
    const size_t mask = index_.size() - 1;
    size_t i = Home(key);
    while (index_[i] != kFree && log_[index_[i]].key != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    index_.assign(index_.empty() ? kInitialSlots : index_.size() * 2, kFree);
    for (size_t pos = 0; pos < log_.size(); ++pos) {
      index_[Probe(log_[pos].key)] = static_cast<uint32_t>(pos);
    }
  }

  /// Frees index slot `i`, shifting later slots of its probe run back.
  void EraseAt(size_t i) {
    const size_t mask = index_.size() - 1;
    for (size_t j = (i + 1) & mask; index_[j] != kFree; j = (j + 1) & mask) {
      // The slot at j may fill the hole at i when i lies on its probe path,
      // i.e. its home is no closer to j than i is.
      if (((j - Home(log_[index_[j]].key)) & mask) >= ((j - i) & mask)) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i] = kFree;
  }

  size_t capacity_;
  std::vector<Entry> log_;
  std::vector<uint32_t> index_;
  size_t oldest_ = 0;  // once full, log_[oldest_] is the next eviction
};

}  // namespace maliva

#endif  // MALIVA_UTIL_RECENT_MAP_H_
