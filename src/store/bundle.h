// Version bundles — portable replication of a version closure.
//
// The published ForkBase runs distributed; this repository substitutes a
// bundle format (in the spirit of `git bundle`) that carries every chunk a
// version uid transitively references, so a branch can be pushed/pulled
// between independent chunk stores without any network substrate. Content
// addressing makes transfer self-verifying: every chunk must re-hash to its
// declared id, and the requested uids must be present, before anything is
// admitted to the destination store.
//
// One wire layout is written, "FBD3":
//   [magic][varint n_heads][32B × n_heads][varint n_chunks]
//   [record × n_chunks], record = [varint body_len][u8 enc][body]
// `enc` is a ChunkStore::Encoding selecting the body's form: 0 = raw chunk
// bytes, 1 = an LZ block of the chunk bytes (util/compress.h), 2 = [32B base
// id][delta bytes] (util/delta_codec.h) against a chunk that appears EARLIER
// in the same bundle. The exporter lifts reduced forms straight out of an
// encoding store's records (no materialize + recompress round trip on the
// push path) and orders records base-before-dependent, so the importer can
// resolve every delta against chunks it has already admitted. A delta
// whose base is outside the shipped set ships raw instead — bundles are
// always self-contained in their physical dependencies even when the
// logical closure is a subset. On a store without reduced forms every
// record is raw.
//
// Records may be any subset of the heads' closure: the import closure check
// runs against bundle ∪ destination, which is what makes incremental push
// ship only missing chunks. Records sort by (delta chain depth within the
// bundle, id): byte-equal for equal store states, but the same logical
// chunks can pack differently on stores whose physical representation
// differs — ids, not bundle bytes, are the canonical identity.
//
// The importer also accepts the two raw-only layouts older builds wrote:
//   "FBND": [magic][32B head][varint n][length-prefixed chunk bytes × n]
//   "FBD2": FBD3's header, records [varint len][chunk bytes]
#ifndef FORKBASE_STORE_BUNDLE_H_
#define FORKBASE_STORE_BUNDLE_H_

#include <functional>
#include <string>
#include <vector>

#include "store/gc.h"

namespace forkbase {

/// Output sink for streaming bundle export: called with consecutive byte
/// ranges of the bundle, in order. Returning non-OK aborts the export with
/// that status. The Slice is only valid for the duration of the call.
using BundleSink = std::function<Status(Slice)>;

/// Accounting for a streamed export.
struct BundleStats {
  uint64_t chunks = 0;  ///< chunk records written
  uint64_t bytes = 0;   ///< total bundle bytes pushed through the sink
  /// How many records went out in each reduced form.
  /// `chunks - delta_chunks - compressed_chunks` shipped raw.
  uint64_t delta_chunks = 0;
  uint64_t compressed_chunks = 0;
};

/// The closure of `uid` (value tree + full derivation history) as one
/// bundle in memory: ExportDeltaBundle({uid}, {}) into a string.
StatusOr<std::string> ExportBundle(const ChunkStore& store,
                                   const Hash256& uid);

/// Delta closure export: the chunks MarkDelta finds reachable from the
/// `want` heads but not from the `have` heads — what a receiver holding
/// `have` is missing, found in O(delta) loads however long the history.
/// `have` uids absent from `store` are ignored (the receiver may know
/// versions this store never saw); `want` uids must resolve.
StatusOr<BundleStats> ExportDeltaBundle(const ChunkStore& store,
                                        const std::vector<Hash256>& want,
                                        const std::vector<Hash256>& have,
                                        const BundleSink& sink);

/// Explicit-set export, and the one bundle writer: ships exactly `ids`
/// (deduplicated) under the given heads. This is the sync push's
/// post-negotiation pack: the have/want rounds already decided which
/// chunks the peer lacks. Every id must resolve in `store` and re-hash to
/// itself — records are read batched through the store's cache and
/// checked before they ship. Ids the store reports as stored reduced
/// (ChunkStore::StoredEncoding) ship in that form: an LZ record as its
/// compressed payload, a delta record whose base is also in `ids` as the
/// stored delta, ordered after its base. Everything else ships raw.
StatusOr<BundleStats> ExportBundleOfIds(const ChunkStore& store,
                                        const std::vector<Hash256>& heads,
                                        const std::vector<Hash256>& ids,
                                        const BundleSink& sink);

/// Result of importing a bundle.
struct ImportResult {
  Hash256 head;                ///< first head (the uid of an FBND bundle)
  std::vector<Hash256> heads;  ///< all heads the bundle was exported for
  uint64_t chunks = 0;         ///< chunks carried by the bundle
  uint64_t new_chunks = 0;     ///< chunks the destination did not already have
  uint64_t bytes = 0;
};

/// Validates and imports a bundle (any accepted layout) into `dst`. Fails
/// with kCorruption if any chunk's bytes do not hash to its declared id, if
/// a head is missing from bundle ∪ dst, or if the closure is incomplete (a
/// referenced chunk absent from bundle+dst). `trusted` is as for
/// BundleImporter::Finish.
StatusOr<ImportResult> ImportBundle(
    Slice bundle, ChunkStore* dst,
    const std::vector<Hash256>& trusted = std::vector<Hash256>());

/// Streaming, incremental bundle import. Feed() accepts bundle bytes in
/// arbitrary split points as they arrive off the wire; every chunk record
/// that completes is hashed and written to `dst` immediately. Two
/// consequences the network edge depends on:
///
///   * staging memory is bounded by the largest single record plus one
///     transfer part, not by the bundle — pending_bytes() is the whole
///     footprint;
///   * chunks landed before a connection dies persist (content addressing
///     makes them self-verifying in isolation), so a retried push
///     re-negotiates and ships strictly less.
///
/// Finish() runs the head-presence and closure checks that one-shot
/// ImportBundle runs, and returns the same accounting. Errors are sticky;
/// an importer is single-use.
///
/// The closure check is MarkDelta from the bundle's heads against the
/// `trusted` heads the caller passes: the receiver's current branch heads
/// of the keys the bundle's heads belong to (ForkBase::HeadsOfKeysOf).
/// A chunk reachable from a current branch head has a complete closure —
/// ForkBase::FastForward checks that before it publishes a head — so the
/// check loads only what the bundle adds, not every past version. With
/// nothing trusted it walks the heads' whole closure.
class BundleImporter {
 public:
  explicit BundleImporter(ChunkStore* dst) : dst_(dst) {}

  /// Consumes the next range of bundle bytes. kCorruption on a malformed
  /// prefix (sticky).
  Status Feed(Slice bytes);

  /// Validates bundle completeness (no partial record, heads present in
  /// bundle ∪ dst, closure traversable down to the `trusted` heads) and
  /// returns the accounting.
  StatusOr<ImportResult> Finish(
      const std::vector<Hash256>& trusted = std::vector<Hash256>());

  /// The head uids of the bundle header, once it has been parsed; after
  /// Feed returns, every chunk fed so far is in the store, so a caller can
  /// look these heads up to choose Finish's trusted heads.
  const std::vector<Hash256>& heads() const { return result_.heads; }

  /// Bytes buffered awaiting a complete parse unit — the importer's entire
  /// staging footprint.
  uint64_t pending_bytes() const { return buffer_.size(); }
  uint64_t chunks_imported() const { return result_.chunks; }

 private:
  enum class State { kMagic, kHeadCount, kHeadList, kChunkCount, kRecords };

  Status Fail(std::string message);
  /// Parses as many complete units from buffer_ as possible.
  Status Parse();
  /// Writes every staged chunk to dst in one PutMany batch (identities are
  /// computed batched there). Called at each Parse boundary, when staging
  /// fills, and before anything resolves a chunk out of dst that this very
  /// feed may have carried (delta bases).
  Status FlushStaged();

  ChunkStore* dst_;
  State state_ = State::kMagic;
  bool packed_ = false;  ///< FBD3: records carry an encoding tag
  std::string buffer_;
  std::vector<Chunk> staged_;  ///< decoded, not yet written records
  Status error_;
  ImportResult result_;
  uint64_t heads_expected_ = 0;
  uint64_t chunks_expected_ = 0;
  uint64_t chunks_seen_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_BUNDLE_H_
