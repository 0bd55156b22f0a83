#include "postree/splice.h"

#include <algorithm>
#include <cstring>

namespace forkbase {

/// A parsed old node. Items view into the chunk, which the node keeps.
struct TreeSplicer::Node {
  struct Item {
    Slice raw;
    Slice key;
    uint64_t count;
  };
  Chunk chunk;
  std::vector<Item> items;  ///< index and entry leaves
  bool bytes = false;       ///< blob leaf: the entries are payload bytes

  size_t size() const { return bytes ? chunk.payload().size() : items.size(); }
  Hash256 Child(size_t i) const;
};

namespace {

Hash256 ChildOf(Slice index_entry) {
  Hash256 h;
  std::memcpy(h.bytes.data(), index_entry.data(), h.bytes.size());
  return h;
}

TreePos NodeOf(const TreePos& pos) {
  return TreePos(pos.begin(), pos.end() - 1);
}

}  // namespace

Hash256 TreeSplicer::Node::Child(size_t i) const {
  return ChildOf(items[i].raw);
}

StatusOr<std::shared_ptr<TreeSplicer::Node>> TreeSplicer::Parse(Chunk chunk) {
  auto node = std::make_shared<Node>();
  node->chunk = std::move(chunk);
  const ChunkType type = node->chunk.type();
  const Slice payload = node->chunk.payload();
  if (type == ChunkType::kBlobLeaf) {
    node->bytes = true;
  } else if (type == ChunkType::kMeta) {
    Decoder dec(payload);
    while (!dec.AtEnd()) {
      const size_t start = dec.position();
      Slice hash, key;
      uint64_t count;
      if (!dec.GetRaw(32, &hash) || !dec.GetVarint64(&count) ||
          !dec.GetLengthPrefixed(&key)) {
        return Status::Corruption("malformed index node");
      }
      node->items.push_back(
          {payload.substr(start, dec.position() - start), key, count});
    }
    if (node->items.empty()) return Status::Corruption("empty index node");
  } else if (IsLeafType(type)) {
    // Map entries are key then value, set entries a key, list entries a
    // value (node.h); only the key is kept.
    node->items.reserve(payload.size() / 24 + 8);
    Decoder dec(payload);
    while (!dec.AtEnd()) {
      const size_t start = dec.position();
      Slice key, value;
      const bool ok = type == ChunkType::kListLeaf
                          ? dec.GetLengthPrefixed(&value)
                          : dec.GetLengthPrefixed(&key) &&
                                (type == ChunkType::kSetLeaf ||
                                 dec.GetLengthPrefixed(&value));
      if (!ok) return Status::Corruption("malformed leaf payload");
      node->items.push_back(
          {payload.substr(start, dec.position() - start), key, 1});
    }
  } else {
    return Status::Corruption("unexpected chunk type in tree");
  }
  return node;
}

TreeSplicer::TreeSplicer(ChunkStore* store, ChunkType leaf_type,
                         const TreeConfig& config, const Hash256& root)
    : store_(store), leaf_type_(leaf_type), config_(config), root_(root) {}

StatusOr<std::shared_ptr<const TreeSplicer::Node>> TreeSplicer::Load(
    const Hash256& id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) return it->second;
  FB_ASSIGN_OR_RETURN(Chunk chunk, store_->Get(id));
  FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> node,
                      Parse(std::move(chunk)));
  cache_.emplace(id, node);
  return node;
}

StatusOr<std::shared_ptr<const TreeSplicer::Node>> TreeSplicer::LoadAny(
    const Hash256& id, uint32_t level) {
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->second.hash() != id) continue;
    FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> node, Parse(it->second));
    return node;
  }
  return LoadAt(id, level);
}

Status TreeSplicer::Open() {
  FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> root, Load(root_));
  IndexEntry top;
  top.child = root_;
  if (root->chunk.type() == ChunkType::kMeta) {
    for (const auto& item : root->items) top.count += item.count;
  } else {
    top.count = root->size();
  }
  if (!root->items.empty()) top.key = root->items.back().key.ToString();
  count_ = top.count;
  FB_ASSIGN_OR_RETURN(super_, Parse(Chunk::Make(ChunkType::kMeta,
                                                EncodeIndexEntry(top))));
  return Status::OK();
}

template <typename ChooseChild>
StatusOr<std::shared_ptr<const TreeSplicer::Node>> TreeSplicer::Descend(
    TreePos* path, ChooseChild choose) {
  path->assign(1, 0);
  FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> node, Load(root_));
  while (node->chunk.type() == ChunkType::kMeta) {
    const uint32_t c = static_cast<uint32_t>(choose(*node));
    path->push_back(c);
    FB_ASSIGN_OR_RETURN(node, Load(node->Child(c)));
  }
  if (node->chunk.type() != leaf_type_) {
    return Status::Corruption("unexpected chunk type in tree");
  }
  const uint32_t depth = static_cast<uint32_t>(path->size());
  if (height_ != 0 && height_ != depth) {
    return Status::Corruption("leaves at multiple depths");
  }
  height_ = depth;
  return node;
}

StatusOr<TreePos> TreeSplicer::SeekKey(Slice key, bool* found) {
  KeyLeaf& last = last_key_leaf_;
  if (!last.leaf || (last.has_lo && !(last.lo < key)) ||
      (last.has_hi && last.hi < key)) {
    last.has_lo = last.has_hi = false;
    // First child whose split key (subtree max) is >= key; the last child
    // when every key is smaller, so the position lands after the last
    // entry. Deeper levels narrow the range (lo, hi] that shares the leaf.
    auto choose = [&](const Node& n) {
      size_t lo = 0, hi = n.items.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (n.items[mid].key < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo > 0) {
        last.lo = n.items[lo - 1].key;
        last.has_lo = true;
      }
      if (!(n.items[lo].key < key)) {
        last.hi = n.items[lo].key;
        last.has_hi = true;
      }
      return lo;
    };
    FB_ASSIGN_OR_RETURN(last.leaf, Descend(&last.path, choose));
  }
  const auto& items = last.leaf->items;
  const auto it = std::lower_bound(
      items.begin(), items.end(), key,
      [](const Node::Item& item, Slice k) { return item.key < k; });
  *found = it != items.end() && it->key == key;
  TreePos pos;
  pos.reserve(last.path.size() + 1);
  pos.assign(last.path.begin(), last.path.end());
  pos.push_back(static_cast<uint32_t>(it - items.begin()));
  return pos;
}

StatusOr<TreePos> TreeSplicer::SeekIndex(uint64_t index) {
  TreePos path;
  uint64_t offset = index;
  auto choose = [&offset](const Node& n) {
    size_t c = 0;
    while (c + 1 < n.items.size() && offset >= n.items[c].count) {
      offset -= n.items[c].count;
      ++c;
    }
    return c;
  };
  FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> leaf, Descend(&path, choose));
  if (offset > leaf->size()) {
    return Status::InvalidArgument("splice position past the end");
  }
  path.push_back(static_cast<uint32_t>(offset));
  return path;
}

Status TreeSplicer::Replace(TreePos begin, TreePos end,
                            std::vector<SpliceEntry> entries) {
  // The leaf level is rebuilt as edits arrive, while their leaves are hot.
  if (!leaves_) leaves_ = std::make_unique<LevelSplice>(MakeLevel(0));
  FB_RETURN_IF_ERROR(Apply(
      leaves_.get(),
      Edit{std::move(begin), std::move(end), std::move(entries)}));
  // Every new leaf is part of the result, so leaves are written in batches
  // as they close, like TreeBuilder does.
  if (leaf_chunks_.size() < kTreePutBatch) return Status::OK();
  return FlushLeaves();
}

Status TreeSplicer::FlushLeaves() {
  FB_RETURN_IF_ERROR(store_->PutMany(leaf_chunks_));
  nodes_written_ += leaf_chunks_.size();
  leaf_chunks_.clear();
  return Status::OK();
}

StatusOr<std::shared_ptr<const TreeSplicer::Node>> TreeSplicer::LoadAt(
    const Hash256& id, uint32_t level) {
  FB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> node, Load(id));
  // Walks by path assume every leaf at the same depth; a malformed tree
  // must not have a leaf's bytes read as index entries.
  if (node->chunk.type() != (level == 0 ? leaf_type_ : ChunkType::kMeta)) {
    return Status::Corruption("tree node at an unexpected level");
  }
  return node;
}

Status TreeSplicer::Seek(uint32_t level, const TreePos& path, Cursor* cur) {
  if (path.size() != height_ - level) {
    return Status::Corruption("splice position has the wrong depth");
  }
  cur->frames.clear();
  std::shared_ptr<const Node> node = super_;
  for (const uint32_t c : path) {
    if (c >= node->items.size()) {
      return Status::Corruption("splice position out of range");
    }
    cur->frames.push_back({node, c});
    const auto child_level =
        height_ - static_cast<uint32_t>(cur->frames.size());
    FB_ASSIGN_OR_RETURN(node, LoadAt(node->Child(c), child_level));
  }
  cur->node = std::move(node);
  cur->path = path;
  return Status::OK();
}

StatusOr<bool> TreeSplicer::Next(Cursor* cur) {
  auto& frames = cur->frames;
  size_t k = frames.size();
  while (k > 0 && frames[k - 1].pos + 1 >= frames[k - 1].node->items.size()) {
    --k;
  }
  if (k == 0) return false;
  ++frames[k - 1].pos;
  ++cur->path[k - 1];
  // frames[j] holds a node of level height_ - j (frames[0]: the super-root).
  FB_ASSIGN_OR_RETURN(
      std::shared_ptr<const Node> node,
      LoadAt(frames[k - 1].node->Child(frames[k - 1].pos),
             height_ - static_cast<uint32_t>(k)));
  for (size_t j = k; j < frames.size(); ++j) {
    frames[j] = {node, 0};
    cur->path[j] = 0;
    FB_ASSIGN_OR_RETURN(node, LoadAt(node->Child(0),
                                     height_ - static_cast<uint32_t>(j) - 1));
  }
  cur->node = std::move(node);
  return true;
}

void TreeSplicer::Seal(uint32_t level, NodeWriter* w,
                       std::vector<SpliceEntry>* out) {
  IndexEntry e;
  Chunk chunk = w->Seal(&e);
  if (level == 0) {
    leaf_chunks_.push_back(std::move(chunk));
  } else {
    staged_.emplace_back(level, std::move(chunk));
  }
  std::string raw = EncodeIndexEntry(e);
  out->push_back(SpliceEntry{std::move(raw), std::move(e.key), e.count});
}

bool TreeSplicer::ClosesAlone(const SpliceEntry& e) const {
  NodeSplitter splitter(config_.index);
  return splitter.AddEntry(e.raw);
}

TreeSplicer::LevelSplice::LevelSplice(uint32_t lvl, ChunkType type,
                                      const SplitConfig& config, bool blob)
    : level(lvl), bytes(blob), writer(type, config) {}

TreeSplicer::LevelSplice TreeSplicer::MakeLevel(uint32_t level) const {
  if (level == 0) {
    return LevelSplice(0, leaf_type_, config_.leaf,
                       leaf_type_ == ChunkType::kBlobLeaf);
  }
  return LevelSplice(level, ChunkType::kMeta, config_.index, false);
}

void TreeSplicer::FeedBytes(LevelSplice* s, Slice bytes) {
  const uint8_t* p = bytes.udata();
  size_t left = bytes.size();
  while (left > 0) {
    bool cut = false;
    const size_t took = s->writer.AddBytes(p, left, &cut);
    p += took;
    left -= took;
    if (cut) Seal(s->level, &s->writer, &s->window.entries);
  }
}

void TreeSplicer::FeedOld(LevelSplice* s, size_t to) {
  const Node& n = *s->cur.node;
  if (s->bytes) {
    if (s->idx < to) {
      FeedBytes(s, n.chunk.payload().substr(s->idx, to - s->idx));
    }
  } else {
    for (size_t k = s->idx; k < to; ++k) {
      const Node::Item& item = n.items[k];
      if (s->writer.Add(item.raw, item.key, item.count)) {
        Seal(s->level, &s->writer, &s->window.entries);
      }
    }
  }
  s->idx = to;
}

void TreeSplicer::FeedPrefix(LevelSplice* s, size_t to) {
  // A window starts its old node with a fresh splitter, and the old node
  // had no cut before its last entry: those entries go in as one run.
  const Node& n = *s->cur.node;
  const size_t run = std::min(to, n.size() > 0 ? n.size() - 1 : 0);
  if (run > 0) {
    const Slice payload = n.chunk.payload();
    if (s->bytes) {
      s->writer.AddRun(payload.substr(0, run), Slice(), run, run);
    } else {
      uint64_t count = 0;
      for (size_t k = 0; k < run; ++k) count += n.items[k].count;
      const Node::Item& last = n.items[run - 1];
      s->writer.AddRun(
          payload.substr(0, last.raw.data() + last.raw.size() - payload.data()),
          last.key, count, run);
    }
  }
  s->idx = run;
  FeedOld(s, to);
}

void TreeSplicer::CloseWindow(LevelSplice* s, bool after_node) {
  s->window.end = s->cur.path;
  if (after_node) ++s->window.end.back();
  s->open = false;
  if (s->window.begin == s->window.end && s->window.entries.empty()) return;
  s->up.push_back(std::move(s->window));
}

Status TreeSplicer::Walk(LevelSplice* s, const TreePos* next) {
  const TreePos& path = s->cur.path;
  auto in_node = [&path](const TreePos& pos) {
    return pos.size() == path.size() + 1 &&
           std::equal(path.begin(), path.end(), pos.begin());
  };
  // Old entries after the last edit, until the streams resync, the next
  // edit begins or the level ends. Resync: the new stream has just been
  // cut (the writer is empty) at an old node boundary.
  for (;;) {
    const size_t n = s->cur.node->size();
    if (s->idx == 0 && n > 0 && s->writer.empty()) {
      CloseWindow(s, false);  // this node and the rest are reused
      return Status::OK();
    }
    if (next != nullptr && in_node(*next)) {
      FeedOld(s, next->back());
      return Status::OK();
    }
    FeedOld(s, n);
    bool more = n == 0 || !s->writer.empty();  // false: resynced after it
    if (more) {
      FB_ASSIGN_OR_RETURN(more, Next(&s->cur));
    }
    if (!more) {
      // Resynced, or the level ended: close the open node as the
      // builder's end-of-stream close would.
      if (!s->writer.empty()) {
        Seal(s->level, &s->writer, &s->window.entries);
      }
      CloseWindow(s, true);
      return Status::OK();
    }
    s->idx = 0;
  }
}

Status TreeSplicer::Apply(LevelSplice* s, const Edit& edit) {
  if (s->open) FB_RETURN_IF_ERROR(Walk(s, &edit.begin));
  if (!s->open) {
    // Start rule: a window opens at the first entry of the node holding
    // the edit; that node's predecessor fixed the boundary before it.
    FB_RETURN_IF_ERROR(Seek(s->level, NodeOf(edit.begin), &s->cur));
    s->window = Edit{s->cur.path, {}, {}};
    s->open = true;
    FeedPrefix(s, edit.begin.back());
  }
  for (const auto& e : edit.entries) {
    if (s->bytes) {
      FeedBytes(s, e.raw);
    } else if (s->writer.Add(e.raw, e.key, e.count)) {
      Seal(s->level, &s->writer, &s->window.entries);
    }
  }
  if (!std::equal(s->cur.path.begin(), s->cur.path.end(), edit.end.begin())) {
    FB_RETURN_IF_ERROR(Seek(s->level, NodeOf(edit.end), &s->cur));
  }
  s->idx = edit.end.back();
  return Status::OK();
}

StatusOr<std::vector<TreeSplicer::Edit>> TreeSplicer::FinishLevel(
    LevelSplice* s) {
  if (s->open) FB_RETURN_IF_ERROR(Walk(s, nullptr));
  return std::move(s->up);
}

StatusOr<TreeInfo> TreeSplicer::FinishTop(std::vector<SpliceEntry> stream) {
  if (stream.empty()) {
    // Everything was deleted: the canonical empty tree is one empty leaf.
    Chunk empty = Chunk::Make(leaf_type_, Slice());
    FB_RETURN_IF_ERROR(store_->Put(empty));
    TreeInfo info;
    info.root = empty.hash();
    info.nodes_written = 1;
    return info;
  }
  // Chunk the levels above the old root from scratch until one entry that
  // does not close a node by itself is left. `level` is the stream's level.
  uint32_t level = height_;
  while (stream.size() > 1 || ClosesAlone(stream[0])) {
    NodeWriter w(ChunkType::kMeta, config_.index);
    std::vector<SpliceEntry> next;
    for (const auto& e : stream) {
      if (w.Add(e.raw, e.key, e.count)) Seal(level, &w, &next);
    }
    if (!w.empty()) Seal(level, &w, &next);
    stream = std::move(next);
    ++level;
  }
  // TreeBuilder's collapse rule: the root is the child of the LOWEST level
  // (>= 1) whose stream is a single entry that does not close a node by
  // itself. Single-entry levels are the chain of one-child index nodes
  // under the top entry; chain[k] is the lone entry of level `level - k`.
  std::vector<SpliceEntry> chain{std::move(stream[0])};
  while (level > chain.size()) {
    FB_ASSIGN_OR_RETURN(
        std::shared_ptr<const Node> node,
        LoadAny(ChildOf(chain.back().raw),
                level - static_cast<uint32_t>(chain.size())));
    if (node->items.size() != 1) break;
    const Node::Item& only = node->items[0];
    chain.push_back(
        SpliceEntry{only.raw.ToString(), only.key.ToString(), only.count});
  }
  size_t k = chain.size() - 1;
  while (k > 0 && ClosesAlone(chain[k])) --k;
  TreeInfo info;
  info.root = ChildOf(chain[k].raw);
  info.count = chain[k].count;
  info.height = level - static_cast<uint32_t>(k);
  // Index nodes built above the root (a shrinking tree) are not part of it.
  for (const auto& [node_level, chunk] : staged_) {
    if (node_level < info.height) leaf_chunks_.push_back(chunk);
  }
  FB_RETURN_IF_ERROR(FlushLeaves());
  info.nodes_written = nodes_written_;
  return info;
}

StatusOr<TreeInfo> TreeSplicer::Finish() {
  std::vector<Edit> edits;
  if (leaves_) {
    FB_ASSIGN_OR_RETURN(edits, FinishLevel(leaves_.get()));
  }
  for (uint32_t level = 1; level < height_ && !edits.empty(); ++level) {
    LevelSplice s = MakeLevel(level);
    for (const auto& e : edits) FB_RETURN_IF_ERROR(Apply(&s, e));
    FB_ASSIGN_OR_RETURN(edits, FinishLevel(&s));
  }
  if (edits.empty()) {
    // Nothing changed (or nothing was queued): the old tree stands.
    if (height_ == 0) {
      TreePos path;
      FB_RETURN_IF_ERROR(
          Descend(&path, [](const Node&) { return size_t{0}; }).status());
    }
    TreeInfo info;
    info.root = root_;
    info.count = count_;
    info.height = height_;
    return info;
  }
  // The edits now address the super-root's lone entry, the old root: the
  // new stream one level above it is that entry with the edits applied.
  std::vector<SpliceEntry> stream;
  uint32_t at = 0;
  const Node::Item& old_root = super_->items[0];
  auto keep_old_root = [&] {
    stream.push_back(SpliceEntry{old_root.raw.ToString(),
                                 old_root.key.ToString(), old_root.count});
  };
  for (auto& e : edits) {
    if (e.begin[0] > at) keep_old_root();
    for (auto& entry : e.entries) stream.push_back(std::move(entry));
    at = e.end[0];
  }
  if (at == 0) keep_old_root();
  return FinishTop(std::move(stream));
}

}  // namespace forkbase
