#include "store/gc.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "postree/node.h"

namespace forkbase {

namespace {

// Appends the chunk ids directly referenced by `chunk` to `frontier`.
Status ExpandReferences(const Chunk& chunk, std::vector<Hash256>* frontier) {
  switch (chunk.type()) {
    case ChunkType::kMeta:
      if (!AppendIndexChildren(chunk.payload(), frontier)) {
        return Status::Corruption("malformed index node during GC mark");
      }
      return Status::OK();
    case ChunkType::kFNode: {
      FB_ASSIGN_OR_RETURN(FNode node, FNode::FromChunk(chunk));
      frontier->insert(frontier->end(), node.bases.begin(), node.bases.end());
      if (node.value.is_container()) frontier->push_back(node.value.root());
      return Status::OK();
    }
    case ChunkType::kTableMeta: {
      // Last 32 payload bytes are the rows root (see FTable::WriteHeader).
      Slice payload = chunk.payload();
      if (payload.size() < 32) {
        return Status::Corruption("malformed table header during GC mark");
      }
      Hash256 rows_root;
      std::memcpy(rows_root.bytes.data(),
                  payload.data() + payload.size() - 32, 32);
      frontier->push_back(rows_root);
      return Status::OK();
    }
    default:
      return Status::OK();  // leaves and cells reference nothing
  }
}

// Every branch head of every key, unsorted. A key whose branches were all
// deleted contributes nothing (that is exactly the state GC reclaims).
StatusOr<std::vector<Hash256>> CollectRoots(const ForkBase& db) {
  std::vector<Hash256> roots;
  for (const auto& key : db.ListKeys()) {
    auto heads = db.Latest(key);
    if (!heads.ok()) {
      if (heads.status().IsNotFound()) continue;  // no branches left
      return heads.status();
    }
    for (const auto& [branch, uid] : *heads) {
      (void)branch;
      roots.push_back(uid);
    }
  }
  return roots;
}

}  // namespace

StatusOr<std::unordered_set<Hash256, Hash256Hasher>> MarkLive(
    const ChunkStore& store, const std::vector<Hash256>& roots,
    const std::unordered_set<Hash256, Hash256Hasher>* exclude,
    const std::function<Status(const Chunk&)>& visit) {
  std::unordered_set<Hash256, Hash256Hasher> live;
  // BFS in waves: each wave's unseen ids are read in capped batches, with
  // the next batch's read in flight (on async stores) while the previous
  // batch's references are expanded — so the mark phase streams instead of
  // stalling on one giant read per wave.
  std::vector<Hash256> wave(roots.begin(), roots.end());
  while (!wave.empty()) {
    std::vector<Hash256> to_load;
    to_load.reserve(wave.size());
    for (const auto& id : wave) {
      if (exclude && exclude->count(id)) continue;
      if (live.insert(id).second) to_load.push_back(id);
    }
    if (to_load.empty()) break;
    wave.clear();
    FB_RETURN_IF_ERROR(ForEachChunkBatch(
        store, to_load, kChunkSweepBatch,
        [&](size_t, StatusOr<Chunk>& chunk_or) -> Status {
          if (!chunk_or.ok()) return chunk_or.status();
          FB_RETURN_IF_ERROR(ExpandReferences(*chunk_or, &wave));
          if (visit) return visit(*chunk_or);
          return Status::OK();
        }));
  }
  return live;
}

namespace {

/// One MarkDelta run. `known_` holds every id proven to lie in
/// closure(have) ∪ ids: trusted tree nodes the pairing uncovered and every
/// id already returned. A `want` side id found there is pruned.
class DeltaWalk {
 public:
  explicit DeltaWalk(const ChunkStore& store) : store_(store) {}

  StatusOr<DeltaClosure> Run(const std::vector<Hash256>& want,
                             const std::vector<Hash256>& have);

 private:
  enum Flag : uint8_t {
    kWant = 1,       ///< reachable from a want head
    kHave = 2,       ///< reachable from a have head: closure trusted
    kWantDone = 4,   ///< expanded as a new version
    kHaveDone = 8,   ///< bases marked kHave
    kTouched = 16,   ///< a want head, or a base of a new version
  };
  struct Version {
    FNode node;
    uint8_t flags = 0;
  };

  /// The parsed version `uid`, loaded once; nullptr when not an FNode.
  StatusOr<Version*> Load(const Hash256& uid);
  /// Adds `flag` to `v` and queues it when that leaves work to do.
  void Mark(const Hash256& uid, Version* v, uint8_t flag);
  Status WalkHistory();
  /// New versions, bases before dependents.
  std::vector<Hash256> NewVersionsInOrder() const;
  /// Walks the tree under `root` paired with the `trusted` trees.
  Status WalkTree(const Hash256& root, const std::vector<Hash256>& trusted);
  /// MarkLive over `wave`, pruned by known_.
  Status PlainWalk(std::vector<Hash256> wave);
  /// Levels of the tree under `root` (a leaf is 1), by its leftmost path.
  StatusOr<int> Height(const Hash256& root);
  template <typename Fn>
  Status LoadNodes(const std::vector<Hash256>& ids, Fn&& fn);
  /// Records `id` as part of the delta; false if already known.
  bool Add(const Hash256& id) {
    if (!known_.insert(id).second) return false;
    result_.ids.push_back(id);
    return true;
  }

  const ChunkStore& store_;
  std::unordered_map<Hash256, Version, Hash256Hasher> versions_;
  /// Newest first; an entry's flags are read when it is popped.
  std::priority_queue<std::pair<uint64_t, Hash256>> queue_;
  size_t want_pending_ = 0;  ///< queued kWant versions not yet resolved
  std::vector<Hash256> expanded_;  ///< versions expanded as new
  std::unordered_set<Hash256, Hash256Hasher> known_;
  /// Chunks Height loaded, reused by the walk that follows it.
  std::unordered_map<Hash256, Chunk, Hash256Hasher> preloaded_;
  DeltaClosure result_;
};

StatusOr<DeltaWalk::Version*> DeltaWalk::Load(const Hash256& uid) {
  auto it = versions_.find(uid);
  if (it != versions_.end()) return &it->second;
  FB_ASSIGN_OR_RETURN(Chunk chunk, store_.Get(uid));
  if (chunk.type() != ChunkType::kFNode) return static_cast<Version*>(nullptr);
  FB_ASSIGN_OR_RETURN(FNode node, FNode::FromChunk(chunk));
  Version& v = versions_[uid];
  v.node = std::move(node);
  return &v;
}

void DeltaWalk::Mark(const Hash256& uid, Version* v, uint8_t flag) {
  const uint8_t before = v->flags;
  if (before & flag) return;
  v->flags |= flag;
  const bool pending = (before & kWant) && !(before & (kHave | kWantDone));
  if (flag == kHave) {
    if (pending) --want_pending_;
  } else if (before & kHave) {
    return;  // already trusted: nothing to expand
  } else {
    ++want_pending_;
  }
  queue_.emplace(v->node.logical_time, uid);
}

Status DeltaWalk::WalkHistory() {
  while (want_pending_ > 0 && !queue_.empty()) {
    const Hash256 uid = queue_.top().second;
    queue_.pop();
    Version& v = versions_.at(uid);  // references survive rehashing
    if (v.flags & kHave) {
      if (v.flags & kHaveDone) continue;
      v.flags |= kHaveDone;
      for (const Hash256& base : v.node.bases) {
        // A gap in trusted history is not this walk's to report: the
        // have side just stops there.
        auto b = Load(base);
        if (b.ok() && *b) Mark(base, *b, kHave);
      }
    } else if (!(v.flags & kWantDone)) {
      v.flags |= kWantDone;
      --want_pending_;
      expanded_.push_back(uid);
      for (const Hash256& base : v.node.bases) {
        FB_ASSIGN_OR_RETURN(Version * b, Load(base));
        if (b == nullptr) {
          return Status::Corruption("version " + uid.ToBase32() +
                                    " has a base that is not a version");
        }
        b->flags |= kTouched;
        Mark(base, b, kWant);
      }
    }
  }
  return Status::OK();
}

std::vector<Hash256> DeltaWalk::NewVersionsInOrder() const {
  // Depth-first post-order over the new versions. A version the have side
  // reached after it was expanded is trusted after all and left out.
  auto is_new = [this](const Version& v) {
    return (v.flags & kWantDone) && !(v.flags & kHave);
  };
  std::vector<Hash256> order;
  std::unordered_set<Hash256, Hash256Hasher> placed;
  std::vector<std::pair<Hash256, size_t>> stack;
  for (const Hash256& top : expanded_) {
    if (!is_new(versions_.at(top)) || !placed.insert(top).second) continue;
    stack.emplace_back(top, 0);
    while (!stack.empty()) {
      const Hash256 uid = stack.back().first;
      const std::vector<Hash256>& bases = versions_.at(uid).node.bases;
      const size_t next = stack.back().second++;
      if (next < bases.size()) {
        const Hash256& base = bases[next];
        if (is_new(versions_.at(base)) && placed.insert(base).second) {
          stack.emplace_back(base, 0);
        }
        continue;
      }
      order.push_back(uid);
      stack.pop_back();
    }
  }
  return order;
}

template <typename Fn>
Status DeltaWalk::LoadNodes(const std::vector<Hash256>& ids, Fn&& fn) {
  std::vector<Hash256> fetch;
  fetch.reserve(ids.size());
  for (const Hash256& id : ids) {
    auto it = preloaded_.find(id);
    if (it == preloaded_.end()) {
      fetch.push_back(id);
    } else {
      FB_RETURN_IF_ERROR(fn(it->second));
    }
  }
  return ForEachChunkBatch(
      store_, fetch, kChunkSweepBatch,
      [&](size_t, StatusOr<Chunk>& chunk) -> Status {
        if (!chunk.ok()) return chunk.status();
        return fn(*chunk);
      });
}

StatusOr<int> DeltaWalk::Height(const Hash256& root) {
  std::vector<Hash256> children;
  Hash256 id = root;
  for (int height = 1;; ++height) {
    auto it = preloaded_.find(id);
    if (it == preloaded_.end()) {
      FB_ASSIGN_OR_RETURN(Chunk chunk, store_.Get(id));
      it = preloaded_.emplace(id, std::move(chunk)).first;
    }
    children.clear();
    FB_RETURN_IF_ERROR(ExpandReferences(it->second, &children));
    if (children.empty()) return height;
    id = children.front();
  }
}

Status DeltaWalk::PlainWalk(std::vector<Hash256> wave) {
  // MarkLive's batched waves, with known_ as both the seen set and the
  // exclusion, so each child id costs one probe.
  std::vector<Hash256> to_load;
  for (;;) {
    to_load.clear();
    for (const Hash256& id : wave) {
      if (Add(id)) to_load.push_back(id);
    }
    if (to_load.empty()) return Status::OK();
    wave.clear();
    FB_RETURN_IF_ERROR(LoadNodes(to_load, [&](const Chunk& chunk) {
      return ExpandReferences(chunk, &wave);
    }));
  }
}

Status DeltaWalk::WalkTree(const Hash256& root,
                           const std::vector<Hash256>& trusted) {
  known_.insert(trusted.begin(), trusted.end());
  if (known_.count(root)) return Status::OK();

  // Equal subtrees sit at the same distance from the leaves, not from the
  // roots (an edit can add or remove a level), so the two sides descend
  // level by level from the taller root, each tree entering at its height.
  preloaded_.clear();
  FB_ASSIGN_OR_RETURN(const int want_height, Height(root));
  int level = want_height;
  std::vector<std::pair<int, Hash256>> bases;
  for (const Hash256& base : trusted) {
    FB_ASSIGN_OR_RETURN(int height, Height(base));
    bases.emplace_back(height, base);
    level = std::max(level, height);
  }
  std::vector<Hash256> want_level, base_level, load_want, expand_base;
  for (;; --level) {
    if (level == want_height) want_level.push_back(root);
    for (const auto& [height, base] : bases) {
      if (height == level) base_level.push_back(base);
    }
    load_want.clear();
    for (const Hash256& id : want_level) {
      if (Add(id)) load_want.push_back(id);
    }
    if (load_want.empty() && level <= want_height) break;
    // A base node no want node equals covers what changed: its children
    // are the ids the want side's next level may share. Leaves have none.
    expand_base.clear();
    if (level > 1) {
      std::unordered_set<Hash256, Hash256Hasher> same(want_level.begin(),
                                                      want_level.end());
      for (const Hash256& id : base_level) {
        if (!same.count(id)) expand_base.push_back(id);
      }
    }
    want_level.clear();
    base_level.clear();
    FB_RETURN_IF_ERROR(LoadNodes(load_want, [&](const Chunk& chunk) {
      return ExpandReferences(chunk, &want_level);
    }));
    FB_RETURN_IF_ERROR(LoadNodes(expand_base, [&](const Chunk& chunk) {
      const size_t first = base_level.size();
      FB_RETURN_IF_ERROR(ExpandReferences(chunk, &base_level));
      known_.insert(base_level.begin() + first, base_level.end());
      return Status::OK();
    }));
  }
  preloaded_.clear();
  return Status::OK();
}

StatusOr<DeltaClosure> DeltaWalk::Run(const std::vector<Hash256>& want,
                                      const std::vector<Hash256>& have) {
  std::vector<Hash256> tree_roots;  // walked unpaired: no trusted base
  std::unordered_set<std::string> keys;
  for (const Hash256& uid : want) {
    FB_ASSIGN_OR_RETURN(Version * v, Load(uid));
    if (v == nullptr) {
      tree_roots.push_back(uid);
    } else {
      keys.insert(v->node.key);
    }
  }
  std::vector<Hash256> have_heads;
  for (const Hash256& uid : have) {
    auto v = Load(uid);
    if (!v.ok() || *v == nullptr || ((*v)->flags & kHave) ||
        !keys.count((*v)->node.key)) {
      continue;
    }
    Mark(uid, *v, kHave);
    have_heads.push_back(uid);
  }
  if (have_heads.empty()) {
    // Nothing trusted: the delta is the whole closure, walked as MarkLive
    // walks it, in batched waves with no history bookkeeping.
    FB_RETURN_IF_ERROR(PlainWalk(want));
    return std::move(result_);
  }
  for (const Hash256& uid : want) {
    auto it = versions_.find(uid);
    if (it == versions_.end()) continue;
    it->second.flags |= kTouched;
    Mark(uid, &it->second, kWant);
  }
  FB_RETURN_IF_ERROR(WalkHistory());

  // Trees paired with trusted bases first; every other tree goes into one
  // MarkLive-style walk at the end, where known_ already holds what the
  // paired walks found.
  for (const Hash256& uid : NewVersionsInOrder()) {
    Add(uid);
    const FNode& node = versions_.at(uid).node;
    if (!node.value.is_container()) continue;
    std::vector<Hash256> trusted;
    for (const Hash256& base : node.bases) {
      const Version& b = versions_.at(base);
      if ((b.flags & kHave) && b.node.value.is_container()) {
        trusted.push_back(b.node.value.root());
      }
    }
    if (trusted.empty()) {
      tree_roots.push_back(node.value.root());
    } else {
      FB_RETURN_IF_ERROR(WalkTree(node.value.root(), trusted));
    }
  }
  FB_RETURN_IF_ERROR(PlainWalk(std::move(tree_roots)));
  for (const Hash256& uid : have_heads) {
    if (versions_.at(uid).flags & kTouched) result_.reached.push_back(uid);
  }
  return std::move(result_);
}

}  // namespace

StatusOr<DeltaClosure> MarkDelta(const ChunkStore& store,
                                 const std::vector<Hash256>& want,
                                 const std::vector<Hash256>& have) {
  return DeltaWalk(store).Run(want, have);
}

size_t ExpandPhysicalBases(const ChunkStore& store,
                           std::unordered_set<Hash256, Hash256Hasher>* live) {
  // Chase base edges to a fixpoint: a base can itself be chain-resident.
  // The wave starts as the whole live set (one cheap GetDeltaBase probe per
  // id — no chunk bodies are read) and shrinks to just-added ids after.
  size_t added = 0;
  std::vector<Hash256> wave(live->begin(), live->end());
  while (!wave.empty()) {
    std::vector<Hash256> next;
    for (const Hash256& id : wave) {
      Hash256 base;
      if (!store.GetDeltaBase(id, &base)) continue;
      if (live->insert(base).second) {
        ++added;
        next.push_back(base);
      }
    }
    wave = std::move(next);
  }
  return added;
}

StatusOr<GcStats> CopyLive(const ForkBase& db, ChunkStore* dst) {
  const ChunkStore& src = *db.store();
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(db));

  GcStats stats;
  stats.roots = roots.size();
  // Copy during the mark itself: each live chunk is already in memory when
  // the walk expands it, so the visitor batches it straight into the
  // destination — the live set is read from the source exactly once.
  std::vector<Chunk> batch;
  batch.reserve(kChunkSweepBatch);
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    FB_RETURN_IF_ERROR(dst->PutMany(batch));
    batch.clear();
    return Status::OK();
  };
  FB_ASSIGN_OR_RETURN(
      auto live,
      MarkLive(src, roots, /*exclude=*/nullptr,
               [&](const Chunk& chunk) -> Status {
                 ++stats.live_chunks;
                 stats.live_bytes += chunk.size();
                 batch.push_back(chunk);
                 if (batch.size() >= kChunkSweepBatch) return flush_batch();
                 return Status::OK();
               }));
  (void)live;
  FB_RETURN_IF_ERROR(flush_batch());
  // Source totals via the index walk — no chunk bodies re-read.
  src.ForEachId([&stats](const Hash256&, uint64_t size) {
    ++stats.total_chunks;
    stats.total_bytes += size;
  });
  return stats;
}

StatusOr<std::vector<Hash256>> FindGarbage(const ForkBase& db) {
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(db));
  FB_ASSIGN_OR_RETURN(auto live, MarkLive(*db.store(), roots));
  // A chain base under a live dependent is not garbage even when logically
  // unreachable: the store needs its record to resolve reads.
  ExpandPhysicalBases(*db.store(), &live);
  std::vector<Hash256> garbage;
  db.store()->ForEachId([&](const Hash256& id, uint64_t) {
    if (!live.count(id)) garbage.push_back(id);
  });
  return garbage;
}

StatusOr<GcStats> SweepInPlace(ForkBase* db, const SweepOptions& options) {
  ChunkStore* store = db->store();
  if (!store->SupportsErase()) {
    return Status::Unimplemented(
        "store cannot erase in place; fall back to copy collection "
        "(CopyLive into a fresh store)");
  }
  const size_t erase_batch = std::max<size_t>(1, options.erase_batch);

  // Pin before anything else: every Put from here on — dedup hits included
  // — is recorded, so a chunk re-put after the snapshot below can never be
  // erased by this sweep. The sweep scope makes re-pointing publishes
  // (BranchFromVersion, sync fast-forwards) validate + pin their target's
  // closure for the duration (see PinReachableForSweep in forkbase.cc).
  ChunkStore::PutPin pin(*store);
  ForkBase::SweepScope sweep_scope(db);

  // Epoch barrier: writers hold the write lease (shared) across their whole
  // build→commit→publish span. Acquiring it exclusively once and releasing
  // immediately means every writer that predates the pin has published its
  // head (visible to the root collection below); any later put is
  // pin-visible. Writers are blocked only for this instant, not the mark.
  { auto barrier = db->ExcludeWriters(); }

  // Candidate snapshot + totals: a pure index walk, no chunk reads.
  std::vector<std::pair<Hash256, uint64_t>> candidates;
  GcStats stats;
  store->ForEachId([&](const Hash256& id, uint64_t size) {
    candidates.emplace_back(id, size);
    ++stats.total_chunks;
    stats.total_bytes += size;
  });

  // Mark. Live accounting is the candidate ∩ live intersection so the
  // total/live pair describes one snapshot (see GcStats).
  FB_ASSIGN_OR_RETURN(std::vector<Hash256> roots, CollectRoots(*db));
  stats.roots = roots.size();
  FB_ASSIGN_OR_RETURN(auto live, MarkLive(*store, roots));
  // Physical retention: a delta base stays while any live dependent needs
  // it, even when nothing logically reachable references it. Erasing one
  // anyway would be survivable — the store flattens dependents at erase
  // time — but that backstop turns a sweep into a rewrite storm; sparing
  // the base is both cheaper and the accounting-honest choice.
  ExpandPhysicalBases(*store, &live);
  std::vector<std::pair<Hash256, uint64_t>> garbage;
  for (const auto& [id, size] : candidates) {
    if (live.count(id)) {
      ++stats.live_chunks;
      stats.live_bytes += size;
    } else {
      garbage.emplace_back(id, size);
    }
  }

  // Erase in batches, each under the exclusive lease so no writer can
  // publish between a batch's safety checks and its erase. Between batches
  // writers run freely; anything they put is pinned, anything they
  // re-point a branch at is caught by the head re-check below.
  std::vector<Hash256> head_sig = std::move(roots);
  std::sort(head_sig.begin(), head_sig.end());
  std::vector<Hash256> batch;
  batch.reserve(erase_batch);
  for (size_t start = 0; start < garbage.size(); start += erase_batch) {
    const size_t end = std::min(garbage.size(), start + erase_batch);
    auto writers_excluded = db->ExcludeWriters();

    // Branch mutations (BranchFromVersion, sync pushes) can resurrect
    // history the mark saw as garbage without putting a single chunk. The
    // heads changed ⇒ delta-mark the new roots with the known live set
    // excluded; the walk touches only the newly reachable chunks.
    FB_ASSIGN_OR_RETURN(std::vector<Hash256> now_roots, CollectRoots(*db));
    std::sort(now_roots.begin(), now_roots.end());
    if (now_roots != head_sig) {
      FB_ASSIGN_OR_RETURN(auto delta, MarkLive(*store, now_roots, &live));
      live.insert(delta.begin(), delta.end());
      // Resurrected chunks may be chain-resident: re-expand so their bases
      // leave the erase queue too.
      ExpandPhysicalBases(*store, &live);
      head_sig = std::move(now_roots);
    }

    batch.clear();
    uint64_t batch_bytes = 0;
    for (size_t i = start; i < end; ++i) {
      const auto& [id, size] = garbage[i];
      if (live.count(id)) continue;  // rescued by a head re-check
      // ANY pin spares the id, not just this sweep's: an in-flight bundle
      // upload's pin quarantines its not-yet-published chunks, and
      // PinReachableForSweep marks resurrected closures here too. (A put
      // that lands strictly AFTER this batch's erase simply re-inserts
      // the bytes fresh — content addressing makes that safe.)
      if (store->PutPinned(id)) {
        ++stats.pinned_skipped;
        continue;
      }
      batch.push_back(id);
      batch_bytes += size;
    }
    if (batch.empty()) continue;
    FB_RETURN_IF_ERROR(store->Erase(batch));
    stats.swept_chunks += batch.size();
    stats.swept_bytes += batch_bytes;
  }

  db->RecordGcSweep(stats.swept_chunks, stats.swept_bytes);
  if (options.wait_for_maintenance) {
    // The erases above made segments dead-heavy; their rewrites may still
    // be running on the maintenance pool. Quiesce so space_used() reflects
    // the reclaim when we return.
    db->WaitForMaintenance();
  }
  return stats;
}

}  // namespace forkbase
