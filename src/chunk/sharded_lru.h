// ShardedLru — the chunk layer's one LRU, keyed by chunk id.
//
// Chunks are immutable, so nothing keyed by a chunk id ever needs
// invalidation: an LRU over them tracks only recency and bytes. Three
// callers share this class — CachingChunkStore's read cache (bounded),
// TieredChunkStore's hot-residency tracker (unbounded; its owner evicts
// with PopOldest against the hot tier's real footprint) and FileChunkStore's
// delta-base cache (one bounded shard).
//
// Entries split into power-of-two shards chosen from digest bytes. Each
// shard has its own mutex, recency list and map, so callers on different
// shards never contend. Every entry carries a byte charge. With a capacity,
// each shard evicts from its tail past capacity / shards (at least 1 byte)
// but always keeps its newest entry, so with S shards the resident total
// may overshoot the capacity by up to S-1 entries. A capacity of 0 is
// therefore the tightest bound, one entry per shard; only an explicit
// kUnbounded capacity turns eviction off.
#ifndef FORKBASE_CHUNK_SHARDED_LRU_H_
#define FORKBASE_CHUNK_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/chunk_store.h"
#include "util/sha256.h"

namespace forkbase {

template <typename V>
class ShardedLru {
 public:
  /// Counters summed over all shards.
  using Stats = LruStats;
  /// Capacity that never evicts: entries leave only through Erase and
  /// PopOldest.
  static constexpr uint64_t kUnbounded = UINT64_MAX;
  /// One entry as it leaves the LRU.
  struct Entry {
    Hash256 key;
    V value;
    uint64_t charge = 0;
  };

  /// @param shards    rounded up to a power of two, at most 1024.
  /// @param capacity  byte budget over all shards, or kUnbounded.
  explicit ShardedLru(uint32_t shards, uint64_t capacity = kUnbounded)
      : shards_(RoundShards(shards)),
        shard_capacity_(capacity == kUnbounded
                            ? kUnbounded
                            : std::max<uint64_t>(capacity / shards_.size(),
                                                 1)) {}
  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  size_t shard_count() const { return shards_.size(); }

  /// On a hit copies the value into `*out` (when non-null), moves the entry
  /// to the front of its shard and counts a hit; otherwise counts a miss.
  bool Lookup(const Hash256& key, V* out) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.stats.misses;
      return false;
    }
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (out != nullptr) *out = it->second->value;
    return true;
  }

  /// Presence probe: changes neither recency nor the counters.
  bool Contains(const Hash256& key) const {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.count(key) > 0;
  }

  /// Inserts `value` at the front of its shard, or — when `key` is already
  /// resident — only refreshes its recency (value and charge stay).
  /// Returns true when the entry is new. A bounded shard then evicts from
  /// its tail down to its budget, never evicting its newest entry.
  bool Insert(const Hash256& key, V value, uint64_t charge) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return false;
    }
    shard.lru.push_front(Entry{key, std::move(value), charge});
    shard.map.emplace(key, shard.lru.begin());
    shard.stats.resident_bytes += charge;
    while (shard.stats.resident_bytes > shard_capacity_ &&
           shard.lru.size() > 1) {
      Entry& back = shard.lru.back();
      shard.stats.resident_bytes -= back.charge;
      shard.map.erase(back.key);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    return true;
  }

  /// Calls fn(value, charge) on a resident entry under its shard lock,
  /// without changing its recency. Returns whether `key` was resident.
  template <typename Fn>
  bool Update(const Hash256& key, Fn&& fn) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    fn(it->second->value, it->second->charge);
    return true;
  }

  /// Removes `key`, returning its entry when it was resident.
  std::optional<Entry> Erase(const Hash256& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    Entry entry = std::move(*it->second);
    shard.stats.resident_bytes -= entry.charge;
    shard.lru.erase(it->second);
    shard.map.erase(it);
    return entry;
  }

  /// Removes and returns up to `max` entries, oldest first within each
  /// shard, leaving in place every entry for which skip(value) is true.
  /// Successive calls start at successive shards, so repeated passes spread
  /// over the shards instead of draining shard 0 first.
  template <typename Skip>
  std::vector<Entry> PopOldest(size_t max, Skip&& skip) {
    std::vector<Entry> out;
    const size_t n = shards_.size();
    const size_t start = cursor_.fetch_add(1, std::memory_order_relaxed);
    for (size_t s = 0; s < n && out.size() < max; ++s) {
      Shard& shard = shards_[(start + s) & (n - 1)];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.lru.end();
      while (it != shard.lru.begin() && out.size() < max) {
        --it;
        if (skip(it->value)) continue;
        shard.stats.resident_bytes -= it->charge;
        shard.map.erase(it->key);
        out.push_back(std::move(*it));
        it = shard.lru.erase(it);
      }
    }
    return out;
  }

  /// Adds lookups the caller resolved on its own (for example a batch's
  /// repeated ids, served by one fetch) to `key`'s shard counters.
  void CountLookups(const Hash256& key, uint64_t hits, uint64_t misses) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.hits += hits;
    shard.stats.misses += misses;
  }

  Stats stats() const {
    Stats total;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.evictions += shard.stats.evictions;
      total.resident_bytes += shard.stats.resident_bytes;
    }
    return total;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Hash256, typename std::list<Entry>::iterator,
                       Hash256Hasher>
        map;
    Stats stats;
  };

  static size_t RoundShards(uint32_t requested) {
    size_t n = 1;
    while (n < requested && n < 1024) n <<= 1;
    return n;
  }

  Shard& ShardFor(const Hash256& key) const {
    // Other digest bytes than FileChunkStore's index stripes (0 and 2), so
    // the two layers do not share contention patterns; two bytes cover all
    // 1024 shards.
    const size_t v = static_cast<size_t>(key.bytes[1]) |
                     (static_cast<size_t>(key.bytes[3]) << 8);
    return shards_[v & (shards_.size() - 1)];
  }

  mutable std::vector<Shard> shards_;
  const uint64_t shard_capacity_;
  std::atomic<size_t> cursor_{0};
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_SHARDED_LRU_H_
