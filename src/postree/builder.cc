#include "postree/builder.h"

namespace forkbase {

Chunk NodeWriter::Seal(IndexEntry* entry) {
  Chunk chunk = Chunk::Make(type_, buffer_);
  entry->child = chunk.hash();
  entry->count = count_;
  entry->key = std::move(last_key_);
  buffer_.clear();
  count_ = 0;
  entries_ = 0;
  last_key_.clear();
  splitter_.ResetNode();
  return chunk;
}

TreeBuilder::TreeBuilder(ChunkStore* store, ChunkType leaf_type,
                         TreeConfig config)
    : store_(store), leaf_type_(leaf_type), config_(config) {}

TreeBuilder::Level& TreeBuilder::LeafLevel() {
  if (levels_.empty()) {
    levels_.push_back(Level{NodeWriter(leaf_type_, config_.leaf), {}, 0});
  }
  return levels_[0];
}

Status TreeBuilder::AddIndexEntry(size_t level, const IndexEntry& e) {
  while (levels_.size() <= level) {
    levels_.push_back(
        Level{NodeWriter(ChunkType::kMeta, config_.index), {}, 0});
  }
  Level& lv = levels_[level];
  if (lv.writer.empty()) lv.first_pending = e;
  if (lv.writer.Add(EncodeIndexEntry(e), e.key, e.count)) {
    return CloseNode(level);
  }
  return Status::OK();
}

Status TreeBuilder::AddEntry(Slice entry_bytes, Slice key) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  ++entries_added_;
  if (LeafLevel().writer.Add(entry_bytes, key, 1)) return CloseNode(0);
  return Status::OK();
}

Status TreeBuilder::AddBytes(Slice bytes) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (leaf_type_ != ChunkType::kBlobLeaf) {
    return Status::InvalidArgument("AddBytes only valid for blob trees");
  }
  LeafLevel();
  // Block feed: the splitter consumes up to a cut decision per call, so the
  // open node's bytes append in bulk instead of one push_back per byte.
  const uint8_t* p = bytes.udata();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    bool cut = false;
    // Re-fetch levels_[0] each pass: CloseNode may grow levels_.
    const size_t took = levels_[0].writer.AddBytes(p, remaining, &cut);
    entries_added_ += took;
    p += took;
    remaining -= took;
    if (cut) {
      FB_RETURN_IF_ERROR(CloseNode(0));
    }
  }
  return Status::OK();
}

Status TreeBuilder::FlushPending() {
  if (pending_chunks_.empty()) return Status::OK();
  FB_RETURN_IF_ERROR(store_->PutMany(pending_chunks_));
  pending_chunks_.clear();
  return Status::OK();
}

Status TreeBuilder::CloseNode(size_t level) {
  IndexEntry e;
  // The index entry only needs the hash (computed locally), so the write can
  // be deferred into a batch; nothing reads chunks mid-build.
  pending_chunks_.push_back(levels_[level].writer.Seal(&e));
  if (pending_chunks_.size() >= kTreePutBatch) {
    FB_RETURN_IF_ERROR(FlushPending());
  }
  ++levels_[level].nodes_closed;
  ++nodes_written_;
  return AddIndexEntry(level + 1, e);
}

StatusOr<TreeInfo> TreeBuilder::Finish() {
  if (finished_) return Status::InvalidArgument("builder already finished");
  finished_ = true;
  if (entries_added_ == 0) {
    // Empty tree: canonical representation is a single empty leaf chunk.
    Chunk chunk = Chunk::Make(leaf_type_, Slice());
    pending_chunks_.push_back(chunk);
    FB_RETURN_IF_ERROR(FlushPending());
    ++nodes_written_;
    TreeInfo info;
    info.root = chunk.hash();
    info.count = 0;
    info.height = 1;
    info.nodes_written = nodes_written_;
    return info;
  }
  // Close open nodes bottom-up; each close pushes an index entry one level
  // up. The loop re-reads levels_.size() because closes can create levels.
  for (size_t level = 0; level < levels_.size(); ++level) {
    Level& lv = levels_[level];
    // Collapse rule: a level that never closed a node and holds exactly one
    // pending index entry is redundant — its single child is the root.
    // (Such a level is necessarily the topmost: lower levels only push
    // upward when they close nodes.)
    if (level > 0 && lv.nodes_closed == 0 && lv.writer.entries() == 1) {
      FB_RETURN_IF_ERROR(FlushPending());
      TreeInfo info;
      info.root = lv.first_pending.child;
      info.count = lv.first_pending.count;
      info.height = static_cast<uint32_t>(level);
      info.nodes_written = nodes_written_;
      return info;
    }
    if (!lv.writer.empty()) {
      FB_RETURN_IF_ERROR(CloseNode(level));
    }
  }
  // Unreachable: the final CloseNode always pushes a single pending entry
  // into a fresh top level, which the collapse rule then returns.
  return Status::Corruption("tree builder failed to converge to a root");
}

}  // namespace forkbase
