// Entry-aligned content-defined node splitter (§II-A).
//
// The splitter consumes the serialized entry stream of one tree level and
// decides node (page) boundaries. The pattern is the cyclic-polynomial
// rolling hash with its q low bits zero. Per the paper, if the pattern fires
// in the middle of an entry, the boundary is extended to the entry end so no
// entry spans two pages; the node then "ends with a pattern".
//
// Two engineering bounds keep pages sane (standard practice in CDC systems):
// a node never closes below `min_bytes`, and always closes at `max_bytes`.
// The min clamp is load-bearing, not cosmetic: RollingHash::Roll can fire on
// the very first full window (byte `window` of a node), so without it a
// stream could open with a `window`-sized sliver chunk. The clamp must
// therefore dominate the window — the constructor raises `min_bytes` to
// `window` if a config says otherwise (both stock configs already do).
// The rolling window resets at every node start, so boundary decisions
// depend only on bytes within the current node. That makes cut points a
// pure function of the byte stream regardless of how callers slice their
// writes, and it is what lets TreeSplicer (splice.h) edit a tree by
// rewriting only the nodes an edit's bytes reach: it resynchronizes with
// the existing node sequence at the first coinciding boundary, so an edit
// costs O(edits × height × node size) splitter bytes, not O(N).
#ifndef FORKBASE_POSTREE_SPLITTER_H_
#define FORKBASE_POSTREE_SPLITTER_H_

#include <algorithm>
#include <cstddef>

#include "util/rolling_hash.h"
#include "util/slice.h"

namespace forkbase {

/// Boundary-detection parameters for one tree level.
struct SplitConfig {
  size_t window = 32;       ///< rolling window k, bytes
  uint32_t q_bits = 11;     ///< pattern ⇔ q low bits zero ⇒ E[node] ≈ 2^q B
  size_t min_bytes = 256;   ///< never close a node smaller than this
  size_t max_bytes = 8192;  ///< always close a node at/after this size

  /// Defaults for entry-stream levels (map/set/list leaves, index nodes).
  static SplitConfig Entries() { return SplitConfig{}; }
  /// Defaults for byte blobs: 4 KiB expected chunks.
  static SplitConfig Blob() { return SplitConfig{48, 12, 1024, 16384}; }
};

/// Streaming splitter; feed entries (or raw bytes) in order, reset per node.
///
/// The byte path is block-wise: positions below min_bytes cannot close the
/// node, so their bytes only need to pass through the rolling window's ring
/// (RollingHash::SkipRoll — a memcpy, no hashing); positions from min_bytes
/// to max_bytes are rolled with the unrolled buffer scan. Boundaries are
/// bit-identical to byte-at-a-time Roll() calls in every case (see
/// rolling_hash.h for why the reseeded hash matches the streamed one).
class NodeSplitter {
 public:
  explicit NodeSplitter(const SplitConfig& cfg)
      : cfg_(cfg), roller_(cfg.window, cfg.q_bits) {
    // A pattern can fire as soon as the window first fills; min_bytes is the
    // only thing standing between that and a sub-minimum chunk at node start.
    if (cfg_.min_bytes < cfg_.window) cfg_.min_bytes = cfg_.window;
  }

  /// Feeds one whole entry. Returns true iff the node must close after it.
  ///
  /// The pattern flag is local to this entry (a fire in an earlier entry
  /// does not arm a later close), and — matching the original per-byte
  /// formulation — a fire anywhere inside the entry counts, even at a
  /// position below min_bytes, as long as the entry END is at or past it.
  /// Hence two regimes: entries ending below both bounds can't close the
  /// node and their fires are discarded, so they skip-roll; any other entry
  /// must be fully scanned.
  bool AddEntry(Slice entry) {
    const size_t end = node_bytes_ + entry.size();
    if (end < cfg_.min_bytes && end < cfg_.max_bytes) {
      roller_.SkipRoll(entry.udata(), entry.size());
      node_bytes_ = end;
      return false;
    }
    const bool pattern = roller_.ScanAny(entry.udata(), entry.size());
    node_bytes_ = end;
    if (node_bytes_ >= cfg_.max_bytes) return true;
    return pattern && node_bytes_ >= cfg_.min_bytes;
  }

  /// Feeds one raw byte (blob path). Returns true iff the node closes here.
  bool AddByte(uint8_t b) {
    bool cut = false;
    Feed(&b, 1, &cut);
    return cut;
  }

  /// Block-wise byte feed: consumes bytes from p[0..n) up to and including
  /// the first position where the node closes, or all n bytes. Returns the
  /// number of bytes consumed and sets *cut iff the node closes after them.
  /// Callers loop: append the consumed bytes to the open node, close it when
  /// *cut, repeat with the remainder. Cut positions are bit-identical to n
  /// successive AddByte() calls.
  size_t Feed(const uint8_t* p, size_t n, bool* cut) {
    *cut = false;
    if (n == 0) return 0;
    size_t consumed = 0;
    // No test below min(min,max): neither the min-gated pattern test nor the
    // max clamp can fire, so the bytes only feed the ring.
    const size_t first_testable =
        cfg_.min_bytes < cfg_.max_bytes ? cfg_.min_bytes : cfg_.max_bytes;
    if (node_bytes_ + 1 < first_testable) {
      const size_t skip = std::min(n, first_testable - 1 - node_bytes_);
      roller_.SkipRoll(p, skip);
      node_bytes_ += skip;
      consumed = skip;
      if (consumed == n) return n;
    }
    // Test region: at most `room` bytes remain before max forces a close
    // (clamped to one byte if the node somehow already sits at/past max —
    // matching AddByte, which closed after every further byte).
    const size_t room =
        cfg_.max_bytes > node_bytes_ ? cfg_.max_bytes - node_bytes_ : 1;
    const size_t span = std::min(n - consumed, room);
    const size_t idx = roller_.Scan(p + consumed, span);
    if (idx < span) {
      // Pattern fired; node_bytes_ >= min_bytes here whenever min <= max,
      // and when max < min the max clamp below covers the same position.
      node_bytes_ += idx + 1;
      *cut = true;
      return consumed + idx + 1;
    }
    node_bytes_ += span;
    consumed += span;
    if (span == room) *cut = true;  // max_bytes reached
    return consumed;
  }

  /// Feeds bytes known not to close the node, without testing them: a
  /// prefix of an old node re-fed from that node's start (the node had no
  /// cut there, and the window state is the same). Only the ring takes the
  /// bytes, so this is O(min(n, window)).
  void Skip(const uint8_t* p, size_t n) {
    roller_.SkipRoll(p, n);
    node_bytes_ += n;
  }

  /// Starts a new node: clears size and window state.
  void ResetNode() {
    node_bytes_ = 0;
    roller_.Reset();
  }

  size_t node_bytes() const { return node_bytes_; }
  const SplitConfig& config() const { return cfg_; }

 private:
  SplitConfig cfg_;
  RollingHash roller_;
  size_t node_bytes_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_SPLITTER_H_
