#include "chunk/caching_chunk_store.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace forkbase {

CachingChunkStore::CachingChunkStore(std::shared_ptr<ChunkStore> base,
                                     size_t capacity_bytes)
    : base_(std::move(base)),
      lru_(std::clamp<size_t>(capacity_bytes / (256u << 10), 1, 16),
           capacity_bytes) {}

StatusOr<Chunk> CachingChunkStore::Get(const Hash256& id) const {
  Chunk hit;
  if (lru_.Lookup(id, &hit)) return hit;
  auto result = base_->Get(id);
  if (result.ok()) lru_.Insert(id, *result, result->size());
  return result;
}

CachingChunkStore::BatchProbe CachingChunkStore::ProbeShards(
    std::span<const Hash256> ids) const {
  BatchProbe probe;
  probe.slots.resize(ids.size());
  // Maps a pending miss id to its index in miss_ids, so a duplicate id
  // later in the batch is served by the same base fetch. Its hit/miss is
  // accounted in MergeMisses once the fetch outcome is known — exactly as
  // the scalar sequence Get(x); Get(x) would count it (a successful first
  // call fills the cache so the second hits; a NotFound fills nothing, so
  // the second misses again).
  std::unordered_map<Hash256, size_t, Hash256Hasher> pending;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto seen = pending.find(ids[i]);
    if (seen != pending.end()) {
      probe.miss_slots[seen->second].push_back(i);
      continue;
    }
    Chunk hit;
    if (lru_.Lookup(ids[i], &hit)) {
      probe.slots[i] = StatusOr<Chunk>(std::move(hit));
    } else {
      pending.emplace(ids[i], probe.miss_ids.size());
      probe.miss_ids.push_back(ids[i]);
      probe.miss_slots.push_back({i});
    }
  }
  return probe;
}

std::vector<StatusOr<Chunk>> CachingChunkStore::UnwrapSlots(
    std::vector<std::optional<StatusOr<Chunk>>> slots) {
  std::vector<StatusOr<Chunk>> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

std::vector<StatusOr<Chunk>> CachingChunkStore::MergeMisses(
    BatchProbe probe, std::vector<StatusOr<Chunk>> fetched) const {
  for (size_t j = 0; j < fetched.size(); ++j) {
    const auto& targets = probe.miss_slots[j];
    const Hash256& id = probe.miss_ids[j];
    // Invariant (tiered-store contract): only an ok() fetch enters the
    // cache. kNotFound caches nothing (no negative caching — a later Put
    // must become visible), and a transient cold-tier error (timeout,
    // connection reset) caches nothing AND keeps its error status in every
    // slot it feeds — it must surface to the caller, never be remembered as
    // "absent". Covered by the CacheErrorPropagation tests.
    if (fetched[j].ok()) lru_.Insert(id, *fetched[j], fetched[j]->size());
    // Deferred accounting for intra-batch duplicates (slots past the
    // first): a successful fetch means the duplicate would have hit the
    // just-filled cache; a failure means it would have missed again.
    if (const uint64_t dups = targets.size() - 1; dups > 0) {
      lru_.CountLookups(id, fetched[j].ok() ? dups : 0,
                        fetched[j].ok() ? 0 : dups);
    }
    for (size_t k = 0; k + 1 < targets.size(); ++k) {
      probe.slots[targets[k]] = fetched[j];
    }
    probe.slots[targets.back()] = std::move(fetched[j]);
  }
  return UnwrapSlots(std::move(probe.slots));
}

std::vector<StatusOr<Chunk>> CachingChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  BatchProbe probe = ProbeShards(ids);
  if (probe.miss_ids.empty()) {
    return UnwrapSlots(std::move(probe.slots));
  }
  auto fetched = base_->GetMany(probe.miss_ids);
  return MergeMisses(std::move(probe), std::move(fetched));
}

AsyncChunkBatch CachingChunkStore::GetManyAsync(
    std::span<const Hash256> ids) const {
  BatchProbe probe = ProbeShards(ids);
  if (probe.miss_ids.empty()) {
    return AsyncChunkBatch::Ready(UnwrapSlots(std::move(probe.slots)));
  }
  AsyncChunkBatch base_batch = base_->GetManyAsync(probe.miss_ids);
  return AsyncChunkBatch::Mapped(
      std::move(base_batch),
      [this, probe = std::move(probe)](
          std::vector<StatusOr<Chunk>> fetched) mutable {
        return MergeMisses(std::move(probe), std::move(fetched));
      });
}

Status CachingChunkStore::PutImpl(const Chunk& chunk) {
  FB_RETURN_IF_ERROR(base_->Put(chunk));
  lru_.Insert(chunk.hash(), chunk, chunk.size());
  return Status::OK();
}

Status CachingChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  FB_RETURN_IF_ERROR(base_->PutMany(chunks));
  for (const Chunk& chunk : chunks) {
    lru_.Insert(chunk.hash(), chunk, chunk.size());
  }
  return Status::OK();
}

bool CachingChunkStore::Contains(const Hash256& id) const {
  return lru_.Contains(id) || base_->Contains(id);
}

Status CachingChunkStore::Erase(std::span<const Hash256> ids) {
  // Drop cached copies first so no reader refills a hit for a chunk the
  // base is about to reclaim, then erase below.
  for (const Hash256& id : ids) lru_.Erase(id);
  return base_->Erase(ids);
}

ChunkStoreStats CachingChunkStore::stats() const { return base_->stats(); }

void CachingChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  base_->ForEach(fn);
}

}  // namespace forkbase
