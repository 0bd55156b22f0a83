// LRU read-cache decorator over any ChunkStore.
//
// POS-Tree operations repeatedly touch upper-level index chunks; the cache
// keeps the hot working set in memory above a slow backend (FileChunkStore).
// Chunks are immutable, so the cache never needs invalidation — the single
// reason this decorator is trivially correct.
//
// The entries live in a ShardedLru (chunk/sharded_lru.h), so concurrent
// readers on different shards never contend, and a batched miss fill
// (GetMany) fetches every absent chunk from the backend in one call before
// distributing the results across shards.
#ifndef FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_
#define FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_

#include <memory>
#include <vector>

#include "chunk/chunk_store.h"
#include "chunk/sharded_lru.h"

namespace forkbase {

class CachingChunkStore : public ChunkStore {
 public:
  /// @param base      the underlying store (shared; must outlive the cache)
  /// @param capacity_bytes  max bytes of cached chunks (LRU eviction). The
  ///                  LRU gets one shard per 256 KiB of capacity, capped at
  ///                  16, so small caches keep the strict single-LRU byte
  ///                  bound while large ones gain concurrency. Each shard
  ///                  always retains its most recent chunk, so with S shards
  ///                  the resident total may overshoot capacity by up to S-1
  ///                  max-sized chunks, and a capacity of 0 keeps one chunk.
  CachingChunkStore(std::shared_ptr<ChunkStore> base, size_t capacity_bytes);

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  /// Pass-through async: hits are resolved inline against the shards, only
  /// the (deduplicated) miss set rides the base store's async path. The
  /// cache fill and hit/miss merge run on the taker's thread, never on the
  /// base store's I/O pool.
  AsyncChunkBatch GetManyAsync(std::span<const Hash256> ids) const override;
  bool SupportsAsyncGet() const override { return base_->SupportsAsyncGet(); }
  bool Contains(const Hash256& id) const override;
  /// Erase passes through to the base store after dropping any cached
  /// copies, so the decorator never serves a chunk its backend reclaimed.
  bool SupportsErase() const override { return base_->SupportsErase(); }
  Status Erase(std::span<const Hash256> ids) override;
  /// Physical-representation probes pass through: the cache holds logical
  /// chunks only, the backend owns the stored form.
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override {
    return base_->GetDeltaBase(id, base);
  }
  Encoding StoredEncoding(const Hash256& id) const override {
    return base_->StoredEncoding(id);
  }
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override {
    return base_->GetPhysicalRecord(id, rec);
  }
  uint64_t space_used() const override { return base_->space_used(); }
  ChunkStoreStats stats() const override;
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override {
    base_->ForEachId(fn);
  }

  using CacheStats = LruStats;
  /// Aggregated over all shards.
  CacheStats cache_stats() const { return lru_.stats(); }

  size_t shard_count() const { return lru_.shard_count(); }

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  /// Shard-probe result shared by the sync and async batch paths: resolved
  /// hit slots plus the deduplicated miss set with the slots each miss id
  /// must fill.
  struct BatchProbe {
    std::vector<std::optional<StatusOr<Chunk>>> slots;
    std::vector<Hash256> miss_ids;               // unique, in first-seen order
    std::vector<std::vector<size_t>> miss_slots; // parallel to miss_ids
  };
  BatchProbe ProbeShards(std::span<const Hash256> ids) const;
  /// Fills the cache from `fetched` (parallel to probe.miss_ids) and
  /// scatters the results into every slot that requested them.
  std::vector<StatusOr<Chunk>> MergeMisses(
      BatchProbe probe, std::vector<StatusOr<Chunk>> fetched) const;
  /// Collapses fully-resolved probe slots into the result vector.
  static std::vector<StatusOr<Chunk>> UnwrapSlots(
      std::vector<std::optional<StatusOr<Chunk>>> slots);

  std::shared_ptr<ChunkStore> base_;
  mutable ShardedLru<Chunk> lru_;
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_
