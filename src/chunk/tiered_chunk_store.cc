#include "chunk/tiered_chunk_store.h"

#include <algorithm>
#include <optional>

namespace forkbase {

namespace {
// One promotion per distinct chunk: duplicate ids in a batch each produce
// their own cold-hit slot, but the hot tier stores (and the promotions
// counter reports) one copy.
void DedupByHash(std::vector<Chunk>* chunks) {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  size_t w = 0;
  for (auto& chunk : *chunks) {
    if (seen.insert(chunk.hash()).second) (*chunks)[w++] = std::move(chunk);
  }
  chunks->resize(w);
}
}  // namespace

TieredChunkStore::TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                                   std::shared_ptr<ChunkStore> cold)
    : TieredChunkStore(std::move(hot), std::move(cold), Options{}) {}

TieredChunkStore::TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                                   std::shared_ptr<ChunkStore> cold,
                                   Options options)
    : hot_(std::move(hot)),
      cold_(std::move(cold)),
      options_(std::move(options)),
      hot_lru_(/*shards=*/8),
      demote_pool_(1) {
  // Restore the dirty set a previous incarnation left behind. With a
  // manifest that replayed an existing journal, its word is authoritative:
  // demotion resumes exactly where the crash left it. With a manifest whose
  // file was missing (first open, or the journal was lost with the disk),
  // fall back to reconciling the tiers: anything hot-resident the cold tier
  // lacks is an undemoted write-back chunk.
  std::vector<Hash256> restored;
  if (options_.policy == TierPolicy::kWriteBack && options_.dirty_manifest) {
    DirtyManifest& manifest = *options_.dirty_manifest;
    if (manifest.existed()) {
      restored = manifest.DirtyIds();
    } else {
      hot_->ForEachId([&](const Hash256& id, uint64_t size) {
        (void)size;
        if (!cold_->Contains(id)) restored.push_back(id);
      });
      if (!restored.empty()) (void)manifest.MarkDirty(restored);
    }
  }
  std::unordered_set<Hash256, Hash256Hasher> restored_set(restored.begin(),
                                                          restored.end());
  // Seed the eviction tracker from the hot tier's index (an id walk, no
  // chunk reads): restored-dirty chunks enter pinned, the rest clean.
  if (tracking()) {
    hot_->ForEachId([&](const Hash256& id, uint64_t size) {
      NoteHot(id, size, restored_set.count(id) > 0);
    });
  }
  if (!restored.empty()) {
    std::vector<Hash256> batch;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty_.insert(restored.begin(), restored.end());
      if (options_.background_demotion &&
          dirty_.size() >= options_.write_back_watermark) {
        batch.assign(dirty_.begin(), dirty_.end());
        dirty_.clear();
        ++demotions_in_flight_;
      }
    }
    if (!batch.empty()) ScheduleDemotion(std::move(batch));
  }
  EnforceHotBudget();
}

TieredChunkStore::~TieredChunkStore() {
  (void)FlushColdTier();  // best effort; failures leave chunks hot-only
  demote_pool_.Shutdown();
}

// ---- hot-residency tracker ------------------------------------------------

bool TieredChunkStore::NoteHot(const Hash256& id, uint64_t size,
                               bool dirty) const {
  if (!tracking()) return dirty;  // untracked: every write-back put queues
  // Never clean -> dirty: a clean entry is cold-resident (same id, same
  // bytes — the demotion already happened), and a dirty entry is already
  // queued or riding an in-flight drain. The pin is counted before the
  // entry becomes visible, so a racing Erase or MarkCleanMeta can never
  // subtract it first.
  if (dirty) pinned_dirty_bytes_.fetch_add(size, std::memory_order_relaxed);
  if (hot_lru_.Insert(id, dirty, size)) return dirty;
  if (dirty) pinned_dirty_bytes_.fetch_sub(size, std::memory_order_relaxed);
  return false;
}

void TieredChunkStore::MarkCleanMeta(std::span<const Hash256> ids) const {
  if (!tracking()) return;
  for (const Hash256& id : ids) {
    hot_lru_.Update(id, [this](bool& dirty, uint64_t size) {
      if (!dirty) return;
      dirty = false;
      pinned_dirty_bytes_.fetch_sub(size, std::memory_order_relaxed);
    });
  }
}

void TieredChunkStore::EnforceHotBudget() const {
  if (!tracking() || !hot_->SupportsErase()) return;
  // One pass at a time; a racing caller's over-budget state is this pass's
  // to fix.
  if (!evict_mu_.try_lock()) return;
  std::lock_guard<std::mutex> lock(evict_mu_, std::adopt_lock);
  const uint64_t budget = options_.hot_bytes_budget;
  const uint64_t space = hot_->space_used();
  if (space <= budget) return;
  // Evict as if each erase frees its chunk immediately; the hot tier's own
  // reclamation (segment rewrite) catches up, and the next pass re-reads
  // the real footprint. Estimating by chunk size (without framing overhead)
  // under-counts, which errs toward evicting slightly more — the safe side
  // of a budget.
  uint64_t need = space - budget;
  uint64_t freed = 0;
  while (freed < need) {
    // Dirty entries are pinned until their demotion lands.
    auto victims = hot_lru_.PopOldest(options_.evict_batch,
                                      [](bool dirty) { return dirty; });
    if (victims.empty()) break;  // everything left is pinned dirty
    std::vector<Hash256> confirmed;
    std::vector<uint64_t> confirmed_sizes;
    confirmed.reserve(victims.size());
    confirmed_sizes.reserve(victims.size());
    for (const auto& [id, dirty, size] : victims) {
      // Final safety check: only erase what the cold tier provably holds.
      // A clean entry whose chunk the cold tier lacks (a lost manifest, a
      // cold tier swapped out from under us) re-enters the dirty pipeline
      // instead of being dropped.
      if (cold_->Contains(id)) {
        confirmed.push_back(id);
        confirmed_sizes.push_back(size);
        freed += size;
      } else {
        NoteHot(id, size, true);
        std::lock_guard<std::mutex> dirty_lock(dirty_mu_);
        dirty_.insert(id);
      }
    }
    if (confirmed.empty()) continue;
    if (!hot_->Erase(confirmed).ok()) {
      // The erase may have partially applied (FileChunkStore's in-memory
      // erase stands even when its tombstone journal fails), so put the
      // victims back in the tracker as clean rather than losing them from
      // the budget's books: a still-resident chunk stays evictable, and a
      // tracker entry for one that did go is harmless (the next eviction
      // pass forgets it again via an idempotent erase).
      for (size_t i = 0; i < confirmed.size(); ++i) {
        NoteHot(confirmed[i], confirmed_sizes[i], false);
      }
      break;
    }
    evictions_.fetch_add(confirmed.size(), std::memory_order_relaxed);
  }
}

// ---- writes ---------------------------------------------------------------

Status TieredChunkStore::PutImpl(const Chunk& chunk) {
  const Chunk* one = &chunk;
  return PutManyImpl(std::span<const Chunk>(one, 1));
}

Status TieredChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  FB_RETURN_IF_ERROR(hot_->PutMany(chunks));
  if (options_.policy == TierPolicy::kWriteThrough) {
    // Track hot residency before attempting the cold write: the chunks
    // occupy hot-tier space whether or not the cold tier accepts them, and
    // an untracked chunk is invisible to the budget until reopen. Marking
    // them clean is safe even when the cold write then fails — the
    // evictor's final cold_->Contains check refuses to drop a chunk the
    // cold tier does not hold.
    for (const Chunk& chunk : chunks) {
      NoteHot(chunk.hash(), chunk.size(), /*dirty=*/false);
    }
    Status cold_status = cold_->PutMany(chunks);
    EnforceHotBudget();
    return cold_status;
  }
  Status status = MarkDirty(chunks);
  EnforceHotBudget();
  return status;
}

Status TieredChunkStore::MarkDirty(std::span<const Chunk> chunks) {
  // The tracker decides which chunks truly need demotion: re-puts of clean
  // (already-demoted) chunks and of already-queued dirty ones are skipped.
  std::vector<Hash256> newly_dirty;
  newly_dirty.reserve(chunks.size());
  for (const Chunk& chunk : chunks) {
    if (NoteHot(chunk.hash(), chunk.size(), /*dirty=*/true)) {
      newly_dirty.push_back(chunk.hash());
    }
  }
  // Journal before acknowledging: an id must be recoverable as dirty the
  // instant its Put returns. On journal failure the in-memory pipeline
  // still runs (this process will demote), but the caller learns its
  // durability guarantee degraded.
  Status journal;
  if (!newly_dirty.empty() && options_.dirty_manifest) {
    journal = options_.dirty_manifest->MarkDirty(newly_dirty);
  }
  std::vector<Hash256> batch;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.insert(newly_dirty.begin(), newly_dirty.end());
    if (!options_.background_demotion) return journal;
    if (dirty_.size() < options_.write_back_watermark) return journal;
    // One drain in flight at a time; the set keeps absorbing new ids while
    // the previous drain runs, and the drain's completion re-checks the
    // watermark itself (ScheduleDemotion), so a burst that outruns one
    // drain still demotes without waiting for the next Put.
    if (demotions_in_flight_ > 0) return journal;
    batch.assign(dirty_.begin(), dirty_.end());
    dirty_.clear();
    ++demotions_in_flight_;
  }
  ScheduleDemotion(std::move(batch));
  return journal;
}

void TieredChunkStore::ScheduleDemotion(std::vector<Hash256> batch) {
  // Precondition: the caller holds one demotions_in_flight_ slot.
  demote_pool_.Submit([this, batch = std::move(batch)]() mutable {
    const bool drained = DemoteIds(std::move(batch)).ok();
    std::vector<Hash256> next;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      // Chain into the ids that accumulated during this drain — but only
      // after a clean drain: a failure re-marked its ids dirty, and
      // re-submitting immediately would spin against a down cold tier
      // (the next Put or FlushColdTier retries instead).
      if (drained && dirty_.size() >= options_.write_back_watermark) {
        next.assign(dirty_.begin(), dirty_.end());
        dirty_.clear();
      } else {
        --demotions_in_flight_;
      }
      demote_cv_.notify_all();
    }
    if (!next.empty()) ScheduleDemotion(std::move(next));
  });
}

Status TieredChunkStore::DemoteIds(std::vector<Hash256> ids) {
  for (size_t start = 0; start < ids.size();) {
    const size_t n = std::min(options_.demote_batch, ids.size() - start);
    std::span<const Hash256> sub(ids.data() + start, n);
    auto slots = hot_->GetMany(sub);
    std::vector<Chunk> chunks;
    chunks.reserve(n);
    Status read_error;
    for (auto& slot : slots) {
      if (slot.ok()) {
        chunks.push_back(std::move(*slot));
      } else if (read_error.ok() && !slot.status().IsNotFound()) {
        read_error = slot.status();
      }
      // kNotFound: the chunk left the hot tier (evicted after its earlier
      // demotion, or external cleanup); there is nothing to copy, so it is
      // dropped rather than retried forever.
    }
    Status status = read_error;
    if (status.ok() && !chunks.empty()) {
      status = cold_->PutMany(chunks);  // skip the round trip for a batch
                                        // of vanished ids
    }
    if (!status.ok()) {
      // Nothing from this run landed (PutMany faults before applying, and a
      // read error skips the cold write): everything from `start` on stays
      // dirty for the next drain. Chunks remain readable from the hot tier.
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty_.insert(ids.begin() + static_cast<ptrdiff_t>(start), ids.end());
      return status;
    }
    // The whole sub-batch is settled: landed chunks are cold-resident, and
    // vanished ids have nothing left to demote. Clear the journal, unpin
    // the tracker entries, and let the evictor reclaim what the drain just
    // made evictable.
    if (options_.dirty_manifest) {
      (void)options_.dirty_manifest->MarkClean(sub);
    }
    MarkCleanMeta(sub);
    demotions_.fetch_add(chunks.size(), std::memory_order_relaxed);
    EnforceHotBudget();
    start += n;
  }
  return Status::OK();
}

Status TieredChunkStore::FlushColdTier() {
  if (options_.policy == TierPolicy::kWriteThrough) return Status::OK();
  std::vector<Hash256> ids;
  {
    std::unique_lock<std::mutex> lock(dirty_mu_);
    demote_cv_.wait(lock, [&] { return demotions_in_flight_ == 0; });
    ids.assign(dirty_.begin(), dirty_.end());
    dirty_.clear();
  }
  return DemoteIds(std::move(ids));
}

Status TieredChunkStore::Erase(std::span<const Hash256> ids) {
  // An erased chunk must not come back as a demotion: wait out any
  // in-flight drain (its batch snapshot may hold these ids and would
  // re-write them to the cold tier — or, on failure, re-queue them —
  // after our erase), then clear the pipeline, then the tiers. Erase is
  // an administrative operation; pausing it behind a drain is fine.
  //
  // The dirty-set membership captured here is the tier policy for garbage:
  // a dirty id that never reached the cold tier is evicted from the hot
  // tier and unpinned from the manifest without ever touching the cold
  // backend — demoting garbage just to delete it remotely would be a
  // wasted round trip (and wasted cold-tier writes). A dirty id CAN have a
  // cold copy (re-put of an already-demoted chunk re-marks it dirty), so
  // the hot-only shortcut applies only when the cold tier confirms the id
  // is absent; everything else joins the cold erase below.
  std::vector<Hash256> dirty_garbage;
  {
    std::unique_lock<std::mutex> lock(dirty_mu_);
    demote_cv_.wait(lock, [&] { return demotions_in_flight_ == 0; });
    for (const Hash256& id : ids) {
      if (dirty_.erase(id) > 0) dirty_garbage.push_back(id);
    }
  }
  if (options_.dirty_manifest && !dirty_garbage.empty()) {
    // Unpin exactly the erased dirty ids — clean ids would only bloat the
    // manifest journal with no-op records.
    (void)options_.dirty_manifest->MarkClean(dirty_garbage);
  }
  // Hot-only candidates: dirty ids the cold tier has never seen. The
  // Contains probe is an index lookup on file-backed cold tiers; for the
  // handful of re-put ids it rejects, the cold erase below keeps the
  // both-tiers-cleared contract.
  std::unordered_set<Hash256, Hash256Hasher> hot_only;
  for (const Hash256& id : dirty_garbage) {
    if (!cold_->Contains(id)) hot_only.insert(id);
  }
  for (const Hash256& id : ids) {
    auto gone = hot_lru_.Erase(id);
    if (gone && gone->value) {
      pinned_dirty_bytes_.fetch_sub(gone->charge, std::memory_order_relaxed);
    }
  }
  Status status;
  if (hot_->SupportsErase()) {
    Status hot_status = hot_->Erase(ids);
    if (status.ok()) status = hot_status;
  }
  hot_only_erases_.fetch_add(hot_only.size(), std::memory_order_relaxed);
  if (cold_->SupportsErase() && hot_only.size() < ids.size()) {
    std::vector<Hash256> cold_ids;
    if (hot_only.empty()) {
      cold_ids.assign(ids.begin(), ids.end());
    } else {
      cold_ids.reserve(ids.size() - hot_only.size());
      for (const Hash256& id : ids) {
        if (!hot_only.count(id)) cold_ids.push_back(id);
      }
    }
    Status cold_status = cold_->Erase(cold_ids);
    if (status.ok()) status = cold_status;
  }
  return status;
}

// ---- reads ----------------------------------------------------------------

StatusOr<Chunk> TieredChunkStore::Get(const Hash256& id) const {
  // One hot-tier lookup, not Contains + Get: the read itself is the probe.
  auto hot = hot_->Get(id);
  if (hot.ok()) {
    hot_hits_.fetch_add(1, std::memory_order_relaxed);
    if (tracking()) hot_lru_.Lookup(id, nullptr);
    return hot;
  }
  // Surface a real hot-tier error; only kNotFound goes to the cold tier.
  if (!hot.status().IsNotFound()) return hot;
  auto cold = cold_->Get(id);
  if (cold.ok()) {
    cold_hits_.fetch_add(1, std::memory_order_relaxed);
    if (options_.promote_on_read) {
      const Chunk* one = &*cold;
      // Promotion is advisory: a hot-tier hiccup must not fail a read the
      // cold tier already served.
      if (hot_->PutMany(std::span<const Chunk>(one, 1)).ok()) {
        promotions_.fetch_add(1, std::memory_order_relaxed);
        NoteHot(id, cold->size(), /*dirty=*/false);
        EnforceHotBudget();
      }
    }
    return cold;
  }
  if (cold.status().IsNotFound()) {
    // A concurrent Put may have landed in the hot tier after the partition
    // probe; one local re-probe closes the race. A hot-tier ERROR on that
    // re-probe surfaces too — "unreachable" must never collapse into
    // cold's "absent".
    auto retry = hot_->Get(id);
    if (retry.ok()) {
      hot_hits_.fetch_add(1, std::memory_order_relaxed);
      return retry;
    }
    if (!retry.status().IsNotFound()) return retry;
  }
  return cold;  // cold-tier errors (timeout, transient) surface as-is
}

TieredChunkStore::Partition TieredChunkStore::Split(
    std::span<const Hash256> ids) const {
  // The per-id Contains probe is what lets GetMany issue the cold ranged
  // fetch BEFORE the hot read — an index lookup buys the overlap window.
  // Reading hot first and cold-fetching its kNotFound slots would save the
  // probe but serialize the tiers, which is the wrong trade whenever the
  // cold tier has real latency. Races the probe can lose are healed in
  // MergeTiers (hot-miss → cold retry, cold-miss → hot retry).
  Partition partition;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (hot_->Contains(ids[i])) {
      partition.hot_ids.push_back(ids[i]);
      partition.hot_slots.push_back(i);
    } else {
      partition.cold_ids.push_back(ids[i]);
      partition.cold_slots.push_back(i);
    }
  }
  return partition;
}

std::vector<StatusOr<Chunk>> TieredChunkStore::MergeTiers(
    const Partition& partition, size_t total,
    std::vector<StatusOr<Chunk>> hot_slots,
    std::vector<StatusOr<Chunk>> cold_slots) const {
  std::vector<std::optional<StatusOr<Chunk>>> out(total);
  uint64_t hot_hits = 0;
  // A hot-probed id whose read came back kNotFound (the hot copy vanished
  // between the partition probe and the read — eviction races do exactly
  // this) gets one cold retry below — the mirror of the cold-miss → hot
  // retry — so the batch paths never report absent for a chunk the scalar
  // path would serve.
  std::vector<Hash256> hot_miss_ids;
  std::vector<size_t> hot_miss_out;
  for (size_t i = 0; i < hot_slots.size(); ++i) {
    if (hot_slots[i].ok()) {
      ++hot_hits;
      if (tracking()) hot_lru_.Lookup(partition.hot_ids[i], nullptr);
    } else if (hot_slots[i].status().IsNotFound()) {
      hot_miss_ids.push_back(partition.hot_ids[i]);
      hot_miss_out.push_back(partition.hot_slots[i]);
    }
    out[partition.hot_slots[i]] = std::move(hot_slots[i]);
  }
  std::vector<Chunk> promoted;
  uint64_t cold_hits = 0;
  for (size_t j = 0; j < cold_slots.size(); ++j) {
    auto& slot = cold_slots[j];
    if (slot.ok()) {
      ++cold_hits;
      if (options_.promote_on_read) promoted.push_back(*slot);
      out[partition.cold_slots[j]] = std::move(slot);
      continue;
    }
    if (slot.status().IsNotFound()) {
      auto retry = hot_->Get(partition.cold_ids[j]);  // concurrent-put race
      if (retry.ok()) {
        ++hot_hits;
        out[partition.cold_slots[j]] = std::move(retry);
        continue;
      }
      if (!retry.status().IsNotFound()) {  // hot error: surface, not absent
        out[partition.cold_slots[j]] = std::move(retry);
        continue;
      }
    }
    // Anything else — timeout, transient error, short read — stays an error
    // in its slot. It is never rewritten to kNotFound: a caller (or the
    // cache above) must be able to tell "absent" from "unreachable".
    out[partition.cold_slots[j]] = std::move(slot);
  }
  if (!hot_miss_ids.empty()) {
    // Same retry/promote/accounting rules as the fast path — one shared
    // implementation. The placeholder slots are all kNotFound, so the
    // helper cold-fetches every one.
    std::vector<StatusOr<Chunk>> miss_slots;
    miss_slots.reserve(hot_miss_ids.size());
    for (size_t j = 0; j < hot_miss_ids.size(); ++j) {
      miss_slots.emplace_back(Status::NotFound("hot tier lost the chunk"));
    }
    ResolveHotMisses(hot_miss_ids, &miss_slots);
    for (size_t j = 0; j < miss_slots.size(); ++j) {
      out[hot_miss_out[j]] = std::move(miss_slots[j]);
    }
  }
  DedupByHash(&promoted);
  if (!promoted.empty() && hot_->PutMany(promoted).ok()) {
    promotions_.fetch_add(promoted.size(), std::memory_order_relaxed);
    for (const Chunk& chunk : promoted) {
      NoteHot(chunk.hash(), chunk.size(), /*dirty=*/false);
    }
    EnforceHotBudget();
  }
  hot_hits_.fetch_add(hot_hits, std::memory_order_relaxed);
  cold_hits_.fetch_add(cold_hits, std::memory_order_relaxed);

  std::vector<StatusOr<Chunk>> result;
  result.reserve(total);
  for (auto& slot : out) result.push_back(std::move(*slot));
  return result;
}

void TieredChunkStore::ResolveHotMisses(
    std::span<const Hash256> ids, std::vector<StatusOr<Chunk>>* slots) const {
  uint64_t hits = 0;
  std::vector<Hash256> miss_ids;
  std::vector<size_t> miss_slots;
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i].ok()) {
      ++hits;
      if (tracking()) hot_lru_.Lookup(ids[i], nullptr);
    } else if ((*slots)[i].status().IsNotFound()) {
      miss_ids.push_back(ids[i]);
      miss_slots.push_back(i);
    }
  }
  hot_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (miss_ids.empty()) return;
  auto fetched = cold_->GetMany(miss_ids);
  std::vector<Chunk> promoted;
  uint64_t cold_hits = 0;
  for (size_t j = 0; j < fetched.size(); ++j) {
    if (fetched[j].ok()) {
      ++cold_hits;
      if (options_.promote_on_read) promoted.push_back(*fetched[j]);
    }
    (*slots)[miss_slots[j]] = std::move(fetched[j]);
  }
  DedupByHash(&promoted);
  if (!promoted.empty() && hot_->PutMany(promoted).ok()) {
    promotions_.fetch_add(promoted.size(), std::memory_order_relaxed);
    for (const Chunk& chunk : promoted) {
      NoteHot(chunk.hash(), chunk.size(), /*dirty=*/false);
    }
    EnforceHotBudget();
  }
  cold_hits_.fetch_add(cold_hits, std::memory_order_relaxed);
}

std::vector<StatusOr<Chunk>> TieredChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  Partition partition = Split(ids);
  if (partition.cold_ids.empty()) {
    // Fully hot-resident (the common steady state): one local batched
    // read, with any racy kNotFound slot resolved against the cold tier.
    auto slots = hot_->GetMany(ids);
    ResolveHotMisses(ids, &slots);
    return slots;
  }
  if (cold_->SupportsAsyncGet()) {
    // Start the cold ranged fetch first, read the hot part while it is in
    // flight, then merge — the local read rides under the remote latency.
    AsyncChunkBatch cold_batch = cold_->GetManyAsync(partition.cold_ids);
    auto hot_slots = hot_->GetMany(partition.hot_ids);
    return MergeTiers(partition, ids.size(), std::move(hot_slots),
                      cold_batch.Take());
  }
  auto hot_slots = hot_->GetMany(partition.hot_ids);
  auto cold_slots = cold_->GetMany(partition.cold_ids);
  return MergeTiers(partition, ids.size(), std::move(hot_slots),
                    std::move(cold_slots));
}

AsyncChunkBatch TieredChunkStore::GetManyAsync(
    std::span<const Hash256> ids) const {
  if (!SupportsAsyncGet()) return ChunkStore::GetManyAsync(ids);
  Partition partition = Split(ids);
  const size_t total = ids.size();
  if (partition.cold_ids.empty()) {
    if (hot_->SupportsAsyncGet()) {
      return AsyncChunkBatch::Mapped(
          hot_->GetManyAsync(ids),
          [this, owned = std::vector<Hash256>(ids.begin(), ids.end())](
              std::vector<StatusOr<Chunk>> slots) {
            ResolveHotMisses(owned, &slots);
            return slots;
          });
    }
    // Synchronous hot tier: running its GetManyAsync here would execute
    // the read inline at issue, blocking the speculating caller for zero
    // overlap. Defer the whole read to Take() instead.
    return AsyncChunkBatch::Mapped(
        AsyncChunkBatch::Ready({}),
        [this, owned = std::vector<Hash256>(ids.begin(), ids.end())](
            std::vector<StatusOr<Chunk>>) {
          auto slots = hot_->GetMany(owned);
          ResolveHotMisses(owned, &slots);
          return slots;
        });
  }
  if (!cold_->SupportsAsyncGet()) {
    // Async hot tier over a synchronous cold store: the cold store's
    // GetManyAsync would execute the whole cold read inline AT ISSUE,
    // blocking the speculating caller — worse than not prefetching. Ride
    // the hot tier's pool and defer the cold read to Take() instead, so
    // issuing stays cheap and the hot read still overlaps. The hot handle
    // is issued before the Mapped call: the capture's move of `partition`
    // and an argument reading partition.hot_ids must not share one full
    // expression (unspecified evaluation order).
    AsyncChunkBatch hot_only = hot_->GetManyAsync(partition.hot_ids);
    return AsyncChunkBatch::Mapped(
        std::move(hot_only),
        [this, partition = std::move(partition),
         total](std::vector<StatusOr<Chunk>> hot_slots) {
          auto cold_slots = cold_->GetMany(partition.cold_ids);
          return MergeTiers(partition, total, std::move(hot_slots),
                            std::move(cold_slots));
        });
  }
  // Both tiers' reads go out now — cold first, so that when the hot tier
  // is synchronous (its GetManyAsync runs inline at issue) the remote
  // ranged fetch is already in flight underneath it. The taker's thread
  // merges and promotes (same placement rule as the cache's miss fill:
  // tier mutation never runs on another store's I/O thread). The hot
  // handle rides in a shared_ptr because MapFn is a copyable
  // std::function.
  AsyncChunkBatch cold_batch = cold_->GetManyAsync(partition.cold_ids);
  auto hot_batch =
      std::make_shared<AsyncChunkBatch>(hot_->GetManyAsync(partition.hot_ids));
  return AsyncChunkBatch::Mapped(
      std::move(cold_batch),
      [this, partition = std::move(partition), total,
       hot_batch](std::vector<StatusOr<Chunk>> cold_slots) {
        return MergeTiers(partition, total, hot_batch->Take(),
                          std::move(cold_slots));
      });
}

// ---- bookkeeping ----------------------------------------------------------

bool TieredChunkStore::Contains(const Hash256& id) const {
  return hot_->Contains(id) || cold_->Contains(id);
}

ChunkStoreStats TieredChunkStore::stats() const {
  ChunkStoreStats hot = hot_->stats();
  ChunkStoreStats cold = cold_->stats();
  ChunkStoreStats s = hot;
  // Exact distinct-chunk union via two index walks and a seen-set (no
  // chunk reads) — where the old max(hot, cold) lower bound undercounted
  // mixed states. Counting this way (rather than cold.chunk_count +
  // hot-only probes) is also stable under racing drains and evictions: a
  // chunk mid-demotion or mid-promotion is resident in at least one walked
  // tier for the whole walk, and the seen-set collapses double residency.
  std::unordered_set<Hash256, Hash256Hasher> seen;
  hot_->ForEachId([&](const Hash256& id, uint64_t size) {
    (void)size;
    seen.insert(id);
  });
  uint64_t cold_only = 0;
  cold_->ForEachId([&](const Hash256& id, uint64_t size) {
    (void)size;
    if (!seen.count(id)) ++cold_only;
  });
  s.chunk_count = seen.size() + cold_only;
  s.physical_bytes = hot.physical_bytes + cold.physical_bytes;
  return s;
}

void TieredChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  hot_->ForEach([&](const Hash256& id, const Chunk& chunk) {
    seen.insert(id);
    fn(id, chunk);
  });
  cold_->ForEach([&](const Hash256& id, const Chunk& chunk) {
    if (!seen.count(id)) fn(id, chunk);
  });
}

void TieredChunkStore::ForEachId(
    const std::function<void(const Hash256&, uint64_t)>& fn) const {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  hot_->ForEachId([&](const Hash256& id, uint64_t size) {
    seen.insert(id);
    fn(id, size);
  });
  cold_->ForEachId([&](const Hash256& id, uint64_t size) {
    if (!seen.count(id)) fn(id, size);
  });
}

TieredChunkStore::TierStats TieredChunkStore::tier_stats() const {
  TierStats stats;
  stats.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  stats.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  stats.promotions = promotions_.load(std::memory_order_relaxed);
  stats.demotions = demotions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.hot_only_erases = hot_only_erases_.load(std::memory_order_relaxed);
  stats.hot_bytes = hot_lru_.stats().resident_bytes;
  stats.pinned_dirty_bytes =
      pinned_dirty_bytes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(dirty_mu_);
  stats.dirty_pending = dirty_.size();
  return stats;
}

}  // namespace forkbase
