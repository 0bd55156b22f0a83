// TreeSplicer — incremental POS-Tree edits.
//
// Node boundaries are content-defined and depend only on the bytes inside
// each node (splitter.h), so an edit can change only the nodes its bytes
// reach. The splicer rewrites exactly those, level by level:
//
//   * Start rule. At each level a rebuild starts at the first entry of the
//     old node holding the first edit: the boundary before that node was
//     decided by its predecessor's bytes, which the edit leaves alone.
//   * Feed. The level's splitter gets the node's old entries before the
//     edit, the edit's new entries, then the old entries after it.
//   * Resync rule. Once every edit so far is fed and a new node closes
//     exactly where an old node closed, the two entry streams are identical
//     from there to the next edit, and so are their cuts: every old node in
//     between is reused as it stands, index entry and all. Edits far apart
//     each get their own rebuilt window; the spans between are skipped.
//
// The rebuilt windows become edits of the parent level — old index entries
// replaced by the new nodes' entries — and the same rules apply one level
// up. Above the old root the new top stream is chunked from scratch until
// a single entry remains, and TreeBuilder's collapse rule picks the root,
// so the result is the root a from-scratch build of the edited content
// gives, bit for bit (structural invariance), including height growth,
// height shrink and the canonical empty leaf.
//
// Cost: O(edits × height × node size) chunk reads, splitter bytes and puts,
// against O(N) for a rebuild; a batch that touches every leaf degrades to
// one pass over the tree.
#ifndef FORKBASE_POSTREE_SPLICE_H_
#define FORKBASE_POSTREE_SPLICE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"
#include "postree/builder.h"

namespace forkbase {

/// Position of a leaf entry: the child index taken at each index node from
/// the root down, then the entry's index in its leaf (blob trees: the byte
/// offset). The entry index may equal the leaf's size, meaning "after the
/// leaf's last entry".
using TreePos = std::vector<uint32_t>;

/// One serialized entry to insert. Leaves: count 1 (blob trees: one entry
/// holding all inserted bytes, count = its size).
struct SpliceEntry {
  std::string raw;    ///< serialized entry bytes
  std::string key;    ///< sort key ("" for positional trees)
  uint64_t count = 1; ///< leaf entries covered
};

class TreeSplicer {
 public:
  /// Edits the tree rooted at `root`; new chunks go to `store`.
  TreeSplicer(ChunkStore* store, ChunkType leaf_type, const TreeConfig& config,
              const Hash256& root);

  /// Loads the root. Call before anything else.
  Status Open();

  /// Leaf entries in the old tree (blob trees: bytes).
  uint64_t count() const { return count_; }

  /// Position of the first entry whose key is >= `key` (keyed trees);
  /// *found is set iff that entry's key equals `key`.
  StatusOr<TreePos> SeekKey(Slice key, bool* found);

  /// Position of entry `index` (blob trees: byte offset), index <= count().
  /// index == count() gives the end of the last leaf.
  StatusOr<TreePos> SeekIndex(uint64_t index);

  /// Adds an edit: the old entries in [begin, end) are replaced by
  /// `entries`. Edits must come in position order and must not overlap (a
  /// later edit may begin where an earlier one ends).
  Status Replace(TreePos begin, TreePos end, std::vector<SpliceEntry> entries);

  /// Applies the queued edits and writes the new nodes.
  StatusOr<TreeInfo> Finish();

 private:
  struct Node;
  /// A node of one level plus the index frames above it, from the
  /// super-root.
  struct Cursor {
    struct Frame {
      std::shared_ptr<const Node> node;
      uint32_t pos;
    };
    std::vector<Frame> frames;
    std::shared_ptr<const Node> node;
    TreePos path;  ///< frames' positions: the node's path
  };
  struct Edit {
    TreePos begin, end;
    std::vector<SpliceEntry> entries;
  };

  static StatusOr<std::shared_ptr<Node>> Parse(Chunk chunk);
  StatusOr<std::shared_ptr<const Node>> Load(const Hash256& id);
  /// Load, checking the node's type against the level it sits at.
  StatusOr<std::shared_ptr<const Node>> LoadAt(const Hash256& id,
                                               uint32_t level);
  /// Positions `cur` on the level-`level` node at `path` (child indices
  /// from the virtual super-root down).
  Status Seek(uint32_t level, const TreePos& path, Cursor* cur);
  /// Moves `cur` to the next node of its level; false at the level's end.
  StatusOr<bool> Next(Cursor* cur);
  /// Descends from the root choosing a child per index node; fills the
  /// path and returns the leaf.
  template <typename ChooseChild>
  StatusOr<std::shared_ptr<const Node>> Descend(TreePos* path,
                                                ChooseChild choose);
  /// The rebuild of one level in progress. Edits arrive in position
  /// order; each rebuilt window becomes one edit of the level above.
  struct LevelSplice {
    LevelSplice(uint32_t lvl, ChunkType type, const SplitConfig& config,
                bool blob);
    uint32_t level;
    bool bytes;          ///< blob leaves: entries are payload bytes
    NodeWriter writer;
    Cursor cur;          ///< the old node being fed
    size_t idx = 0;      ///< next old entry of cur's node to feed
    bool open = false;   ///< a window is being rebuilt
    Edit window;         ///< its span in the level above, its new entries
    std::vector<Edit> up;  ///< closed windows
  };
  LevelSplice MakeLevel(uint32_t level) const;
  /// Feeds `edit`: walks the open window up to it (or closes the window
  /// at a resync), opens a window if none is open, feeds the new entries.
  Status Apply(LevelSplice* s, const Edit& edit);
  /// Walks old entries until a resync, the node holding `next` (fed up to
  /// it) or the end of the level.
  Status Walk(LevelSplice* s, const TreePos* next);
  /// Walks the open window to its end; returns the level above's edits.
  StatusOr<std::vector<Edit>> FinishLevel(LevelSplice* s);
  /// Feeds old entries [idx, to) of the current node.
  void FeedOld(LevelSplice* s, size_t to);
  /// Feeds old entries [0, to) of the node a window opens at.
  void FeedPrefix(LevelSplice* s, size_t to);
  void FeedBytes(LevelSplice* s, Slice bytes);
  void CloseWindow(LevelSplice* s, bool after_node);
  /// Builds the levels above the old root from the new top stream and
  /// picks the root by TreeBuilder's collapse rule.
  StatusOr<TreeInfo> FinishTop(std::vector<SpliceEntry> stream);
  /// True iff a lone index entry closes a node by itself.
  bool ClosesAlone(const SpliceEntry& e) const;
  /// Seals `w`'s open node at `level`, stages it and appends its entry.
  void Seal(uint32_t level, NodeWriter* w, std::vector<SpliceEntry>* out);
  /// A node of `level`, new (staged) or old.
  StatusOr<std::shared_ptr<const Node>> LoadAny(const Hash256& id,
                                                uint32_t level);
  /// Writes leaf_chunks_ in one batch.
  Status FlushLeaves();

  ChunkStore* store_;
  ChunkType leaf_type_;
  TreeConfig config_;
  Hash256 root_;
  uint64_t count_ = 0;
  uint32_t height_ = 0;  ///< known after the first seek
  /// Virtual parent of the root holding its one index entry: positions and
  /// rebuilt windows at the root level address it like any other node.
  std::shared_ptr<Node> super_;
  std::unordered_map<Hash256, std::shared_ptr<const Node>, Hash256Hasher>
      cache_;
  /// The last SeekKey's leaf and path, and the key range (lo, hi] that
  /// descends to it: a sorted batch mostly lands where it just was.
  struct KeyLeaf {
    std::shared_ptr<const Node> leaf;
    TreePos path;
    Slice lo, hi;  ///< point into cached nodes
    bool has_lo = false, has_hi = false;
  } last_key_leaf_;
  std::unique_ptr<LevelSplice> leaves_;  ///< created by the first edit
  /// New leaves not yet written (all of them belong to the result).
  std::vector<Chunk> leaf_chunks_;
  /// New index nodes by level; only those below the final root are written.
  std::vector<std::pair<uint32_t, Chunk>> staged_;
  uint64_t nodes_written_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_SPLICE_H_
