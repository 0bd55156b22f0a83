// Bottom-up POS-Tree builder.
//
// Entries stream in sorted (keyed trees) or positional order; the builder
// feeds their serialized bytes through a NodeSplitter per level. When a node
// closes it is written to the chunk store as an immutable chunk and an index
// entry `(child hash, subtree count, split key)` is pushed into the level
// above, which is chunked by the same mechanism — recursively up to a single
// root. Because no state other than the entry stream influences boundaries,
// any two builds of the same record set yield bit-identical chunks
// (structural invariance), and builds of overlapping record sets share all
// chunks outside the divergence region (recursive identity): the chunk
// store's idempotent Put turns that sharing into physical deduplication.
//
// A from-scratch build costs O(N). Edits of an existing tree do not come
// through here: TreeSplicer (splice.h) rewrites only the nodes an edit
// touches, O(edits × height × node size), and this builder is the oracle
// it must match bit for bit.
#ifndef FORKBASE_POSTREE_BUILDER_H_
#define FORKBASE_POSTREE_BUILDER_H_

#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "postree/node.h"
#include "postree/splitter.h"

namespace forkbase {

/// Identity and shape of a finished tree.
struct TreeInfo {
  Hash256 root;        ///< root chunk id (the Merkle root)
  uint64_t count = 0;  ///< total leaf entries (blob: bytes)
  uint32_t height = 1; ///< 1 = a single leaf node
  uint64_t nodes_written = 0;  ///< chunks produced by this build
};

/// Splitter configuration for leaf and index levels.
struct TreeConfig {
  SplitConfig leaf = SplitConfig::Entries();
  SplitConfig index = SplitConfig::Entries();

  static TreeConfig ForBlob() {
    TreeConfig c;
    c.leaf = SplitConfig::Blob();
    return c;
  }
  static TreeConfig ForEntries() { return TreeConfig{}; }
};

/// Closed nodes staged before one batched store write. 64 nodes ≈ a few
/// hundred KiB — enough to amortize the store's per-batch flush without
/// holding a meaningful slice of the tree in memory.
inline constexpr size_t kTreePutBatch = 64;

/// The open node of one tree level: accumulates serialized entries, asks the
/// level's splitter after each one whether the node closes, and seals the
/// node into a chunk plus the index entry that references it. TreeBuilder
/// stacks one per level; TreeSplicer drives one per rebuilt window.
class NodeWriter {
 public:
  NodeWriter(ChunkType type, const SplitConfig& config)
      : type_(type), splitter_(config) {}

  /// Appends one serialized entry covering `count` leaf entries whose max
  /// key is `key`. Returns true iff the node must close after it (Seal()).
  bool Add(Slice raw, Slice key, uint64_t count) {
    buffer_.append(raw.data(), raw.size());
    count_ += count;
    ++entries_;
    last_key_.assign(key.data(), key.size());
    return splitter_.AddEntry(raw);
  }

  /// Blob leaves: appends bytes from p[0..n) up to and including the first
  /// cut; returns the number taken and sets *cut iff the node must close.
  size_t AddBytes(const uint8_t* p, size_t n, bool* cut) {
    const size_t took = splitter_.Feed(p, n, cut);
    buffer_.append(reinterpret_cast<const char*>(p), took);
    count_ += took;
    entries_ += took;
    return took;
  }

  /// Appends a run of `entries` serialized entries (covering `count` leaf
  /// entries, max key `key`) known not to close the node; see
  /// NodeSplitter::Skip.
  void AddRun(Slice raw, Slice key, uint64_t count, uint64_t entries) {
    buffer_.append(raw.data(), raw.size());
    count_ += count;
    entries_ += entries;
    last_key_.assign(key.data(), key.size());
    splitter_.Skip(raw.udata(), raw.size());
  }

  /// Closes the open node: returns its chunk and fills `entry` with the
  /// index entry that references it. The writer starts a fresh node.
  Chunk Seal(IndexEntry* entry);

  bool empty() const { return entries_ == 0; }
  uint64_t entries() const { return entries_; }

 private:
  ChunkType type_;
  NodeSplitter splitter_;
  std::string buffer_;     ///< serialized bytes of the open node
  uint64_t count_ = 0;     ///< leaf entries covered by the open node
  uint64_t entries_ = 0;   ///< entries in the open node
  std::string last_key_;   ///< max key in the open node
};

/// Streaming builder. Usage: construct, Add*() in order, Finish().
class TreeBuilder {
 public:
  /// @param store      destination for produced chunks (not owned)
  /// @param leaf_type  kMapLeaf / kSetLeaf / kListLeaf / kBlobLeaf
  TreeBuilder(ChunkStore* store, ChunkType leaf_type, TreeConfig config);

  /// Appends one pre-serialized entry. `key` must be the entry's sort key
  /// (empty for positional trees); keys must arrive in strictly ascending
  /// order for keyed trees (not checked here — callers own ordering).
  Status AddEntry(Slice entry_bytes, Slice key);

  /// Appends raw bytes to a kBlobLeaf tree (each byte is one entry).
  Status AddBytes(Slice bytes);

  /// Closes all open nodes and returns the root. The builder is then spent.
  StatusOr<TreeInfo> Finish();

  uint64_t entries_added() const { return entries_added_; }

 private:
  struct Level {
    NodeWriter writer;
    IndexEntry first_pending;     ///< first entry of the open node (collapse)
    uint64_t nodes_closed = 0;
  };

  /// Closes the open node at `level`, stages its chunk for a batched write,
  /// pushes an index entry into level+1 (creating it on demand).
  Status CloseNode(size_t level);
  /// Writes all staged chunks to the store in one PutMany batch. Called when
  /// the staging buffer fills and before Finish() returns, so every chunk a
  /// returned TreeInfo references is resident.
  Status FlushPending();
  /// Feeds an index entry into level `level` (≥1).
  Status AddIndexEntry(size_t level, const IndexEntry& e);
  /// The leaf level, created on first use.
  Level& LeafLevel();

  ChunkStore* store_;
  ChunkType leaf_type_;
  TreeConfig config_;
  std::vector<Level> levels_;
  std::vector<Chunk> pending_chunks_;  ///< closed nodes staged for PutMany
  uint64_t entries_added_ = 0;
  uint64_t nodes_written_ = 0;
  bool finished_ = false;
};

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_BUILDER_H_
