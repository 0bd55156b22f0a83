#include "store/bundle.h"

#include <algorithm>
#include <unordered_set>

#include "util/codec.h"
#include "util/compress.h"
#include "util/delta_codec.h"

namespace forkbase {

namespace {

using Encoding = ChunkStore::Encoding;

constexpr uint32_t kBundleMagic = 0x46424433;  // "FBD3" — the layout written
// Layouts older builds wrote (raw records only); accepted on import.
constexpr uint32_t kLegacyMagicV1 = 0x46424e44;  // "FBND" — single head
constexpr uint32_t kLegacyMagicV2 = 0x46424432;  // "FBD2" — multi-head
// Ceiling on the in-bundle base chain the exporter will preserve. Longer
// (or cyclic, which a healthy store cannot produce) chains are materialized
// instead of shipped — the importer never needs more lookback than this.
constexpr int kMaxBundleChainHops = 512;

Status SinkString(const BundleSink& sink, const std::string& bytes,
                  BundleStats* stats) {
  FB_RETURN_IF_ERROR(sink(Slice(bytes)));
  stats->bytes += bytes.size();
  return Status::OK();
}

/// One record of the export plan. `enc` is the form the record may ship
/// in (kRaw unless the store holds it reduced and the receiver can rebuild
/// it from the bundle); `base` is the in-bundle delta base when `enc` is
/// kDelta.
struct PlannedRecord {
  int depth = 0;  ///< delta hops that stay inside the shipped set
  Hash256 id;
  Encoding enc = Encoding::kRaw;
  Hash256 base{};
  bool operator<(const PlannedRecord& o) const {
    return depth != o.depth ? depth < o.depth : id < o.id;
  }
};

}  // namespace

StatusOr<std::string> ExportBundle(const ChunkStore& store,
                                   const Hash256& uid) {
  std::string out;
  auto sink = [&out](Slice bytes) -> Status {
    out.append(bytes.data(), bytes.size());
    return Status::OK();
  };
  FB_RETURN_IF_ERROR(ExportDeltaBundle(store, {uid}, {}, sink).status());
  return out;
}

StatusOr<BundleStats> ExportDeltaBundle(const ChunkStore& store,
                                        const std::vector<Hash256>& want,
                                        const std::vector<Hash256>& have,
                                        const BundleSink& sink) {
  // `have` heads the store never saw contribute nothing (the receiver may
  // be ahead on other branches); MarkDelta ignores them.
  FB_ASSIGN_OR_RETURN(DeltaClosure delta, MarkDelta(store, want, have));
  return ExportBundleOfIds(store, want, delta.ids, sink);
}

StatusOr<BundleStats> ExportBundleOfIds(const ChunkStore& store,
                                        const std::vector<Hash256>& heads,
                                        const std::vector<Hash256>& ids,
                                        const BundleSink& sink) {
  if (heads.empty()) {
    return Status::InvalidArgument("bundle export needs at least one head");
  }
  std::vector<Hash256> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  auto in_set = [&sorted](const Hash256& id) {
    return std::binary_search(sorted.begin(), sorted.end(), id);
  };

  // Plan from the store's index alone (StoredEncoding and GetDeltaBase do
  // no I/O). A delta ships as a delta only when its base ships too, and
  // then sorts after it: records order by (in-bundle chain depth, id),
  // exactly the base-before-dependent order the importer relies on. A
  // chain past kMaxBundleChainHops ships materialized — a healthy store
  // never produces one, so this is a corruption firewall, not a tuning
  // knob.
  std::vector<PlannedRecord> plan(sorted.size());
  bool any_delta = false;
  for (size_t i = 0; i < sorted.size(); ++i) {
    PlannedRecord& rec = plan[i];
    rec.id = sorted[i];
    rec.enc = store.StoredEncoding(rec.id);
    if (rec.enc != Encoding::kDelta) continue;
    if (!store.GetDeltaBase(rec.id, &rec.base) || !in_set(rec.base)) {
      rec.enc = Encoding::kRaw;
      continue;
    }
    any_delta = true;
    rec.depth = 1;
    Hash256 next;
    for (Hash256 cur = rec.base;
         store.GetDeltaBase(cur, &next) && in_set(next); cur = next) {
      if (++rec.depth > kMaxBundleChainHops) {
        rec.enc = Encoding::kRaw;
        rec.depth = 0;
        break;
      }
    }
  }
  if (any_delta) std::sort(plan.begin(), plan.end());
  std::vector<Hash256> order(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) order[i] = plan[i].id;

  BundleStats stats;
  std::string header;
  PutFixed32(&header, kBundleMagic);
  PutVarint64(&header, heads.size());
  for (const auto& head : heads) {
    header.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  }
  PutVarint64(&header, order.size());
  FB_RETURN_IF_ERROR(SinkString(sink, header, &stats));

  // Every record is read through the store's batched (cached, pipelined)
  // path and re-hashed before anything ships; only the ids planned as
  // reduced pay one more read for their stored form, which goes out
  // verbatim. A stored form that changed since planning (a rewrite
  // flattened it) ships as the raw bytes already in hand.
  std::string record;
  auto emit = [&](size_t index, StatusOr<Chunk>& chunk_or) -> Status {
    if (!chunk_or.ok()) return chunk_or.status();
    const PlannedRecord& planned = plan[index];
    if (chunk_or->hash() != planned.id) {
      return Status::Corruption("chunk " + planned.id.ToBase32() +
                                " is tampered; refusing to export");
    }
    Encoding enc = Encoding::kRaw;
    Slice body = chunk_or->bytes();
    ChunkStore::PhysicalRecord stored;
    if (planned.enc != Encoding::kRaw &&
        store.GetPhysicalRecord(planned.id, &stored) &&
        stored.encoding == planned.enc &&
        (planned.enc != Encoding::kDelta ||
         stored.delta_base == planned.base)) {
      enc = planned.enc;
      body = Slice(stored.payload);
    }
    const bool delta = enc == Encoding::kDelta;
    record.clear();
    PutVarint64(&record, body.size() + (delta ? 32 : 0));
    record.push_back(static_cast<char>(enc));
    if (delta) {
      record.append(reinterpret_cast<const char*>(planned.base.bytes.data()),
                    32);
      ++stats.delta_chunks;
    } else if (enc == Encoding::kCompressed) {
      ++stats.compressed_chunks;
    }
    record.append(body.data(), body.size());
    FB_RETURN_IF_ERROR(SinkString(sink, record, &stats));
    ++stats.chunks;
    return Status::OK();
  };
  FB_RETURN_IF_ERROR(ForEachChunkBatch(store, order, kChunkSweepBatch, emit,
                                       BatchHashing::kPrecompute));
  return stats;
}

StatusOr<ImportResult> ImportBundle(Slice bundle, ChunkStore* dst,
                                    const std::vector<Hash256>& trusted) {
  BundleImporter importer(dst);
  FB_RETURN_IF_ERROR(importer.Feed(bundle));
  return importer.Finish(trusted);
}

namespace {

// Parse-time sanity caps. A head list or chunk record larger than these is
// not a plausible bundle; failing fast here turns a hostile length prefix
// into kCorruption instead of an attempted giant allocation.
constexpr uint64_t kMaxBundleHeads = 1u << 20;
constexpr uint64_t kMaxChunkRecordBytes = 1u << 30;
constexpr size_t kMaxVarintBytes = 10;

}  // namespace

Status BundleImporter::Fail(std::string message) {
  error_ = Status::Corruption(std::move(message));
  return error_;
}

Status BundleImporter::Feed(Slice bytes) {
  if (!error_.ok()) return error_;
  buffer_.append(bytes.data(), bytes.size());
  return Parse();
}

Status BundleImporter::Parse() {
  size_t pos = 0;
  for (;;) {
    Slice rest(buffer_.data() + pos, buffer_.size() - pos);
    if (state_ == State::kMagic) {
      if (rest.size() < 4) break;
      Decoder dec(rest);
      uint32_t magic = 0;
      dec.GetFixed32(&magic);
      if (magic != kBundleMagic && magic != kLegacyMagicV1 &&
          magic != kLegacyMagicV2) {
        return Fail("not a ForkBase bundle");
      }
      pos += 4;
      packed_ = magic == kBundleMagic;
      if (magic == kLegacyMagicV1) {
        heads_expected_ = 1;
        state_ = State::kHeadList;
      } else {
        state_ = State::kHeadCount;
      }
    } else if (state_ == State::kHeadCount ||
               state_ == State::kChunkCount) {
      Decoder dec(rest);
      uint64_t v = 0;
      if (!dec.GetVarint64(&v)) {
        // A varint never needs more than 10 bytes: with that many on hand
        // a failed decode is malformed, not merely incomplete.
        if (rest.size() >= kMaxVarintBytes) {
          return Fail("bundle: malformed varint");
        }
        break;
      }
      pos += dec.position();
      if (state_ == State::kHeadCount) {
        if (v == 0) return Fail("bundle: missing head list");
        if (v > kMaxBundleHeads) return Fail("bundle: absurd head count");
        heads_expected_ = v;
        state_ = State::kHeadList;
      } else {
        chunks_expected_ = v;
        state_ = State::kRecords;
      }
    } else if (state_ == State::kHeadList) {
      if (rest.size() < 32) break;
      Hash256 head;
      std::memcpy(head.bytes.data(), rest.data(), 32);
      result_.heads.push_back(head);
      pos += 32;
      if (result_.heads.size() == heads_expected_) {
        result_.head = result_.heads.front();
        state_ = State::kChunkCount;
      }
    } else {  // State::kRecords
      if (chunks_seen_ == chunks_expected_) {
        if (!rest.empty()) return Fail("bundle: trailing bytes");
        break;
      }
      Decoder dec(rest);
      uint64_t len = 0;
      if (!dec.GetVarint64(&len)) {
        if (rest.size() >= kMaxVarintBytes) {
          return Fail("bundle: malformed varint");
        }
        break;
      }
      if (len == 0) return Fail("bundle: truncated chunk record");
      if (len > kMaxChunkRecordBytes) {
        return Fail("bundle: absurd chunk record length");
      }
      // An FBD3 record carries a 1-byte encoding tag between the length and
      // the body; legacy records are raw chunk bytes.
      const size_t body_extra = packed_ ? 1 : 0;
      if (dec.remaining() < len + body_extra) break;
      const size_t prefix = dec.position() + body_extra;
      std::string chunk_bytes;
      if (packed_) {
        const uint8_t enc =
            static_cast<uint8_t>(rest.data()[dec.position()]);
        const Slice body(rest.data() + prefix, len);
        if (enc == static_cast<uint8_t>(Encoding::kRaw)) {
          chunk_bytes.assign(body.data(), body.size());
        } else if (enc == static_cast<uint8_t>(Encoding::kCompressed)) {
          if (!LzDecompressBlock(body, &chunk_bytes)) {
            return Fail("bundle: malformed compressed record");
          }
        } else if (enc == static_cast<uint8_t>(Encoding::kDelta)) {
          // The exporter orders bases before dependents, so the base is
          // already admitted to dst — resolve it there, not from staging.
          if (body.size() < ChunkStore::kMinDeltaBody) {
            return Fail("bundle: short delta record");
          }
          Hash256 base;
          std::memcpy(base.bytes.data(), body.data(), 32);
          // The base may be a record staged earlier in this very feed —
          // admit the backlog before looking it up.
          FB_RETURN_IF_ERROR(FlushStaged());
          auto base_chunk = dst_->Get(base);
          if (!base_chunk.ok()) {
            if (base_chunk.status().IsNotFound()) {
              return Fail("bundle: delta base " + base.ToBase32() +
                          " not resident at import time");
            }
            error_ = base_chunk.status();
            return error_;
          }
          if (!ApplyDelta(base_chunk->bytes(),
                          Slice(body.data() + 32, body.size() - 32),
                          &chunk_bytes)) {
            return Fail("bundle: delta record does not apply to its base");
          }
        } else {
          return Fail("bundle: unknown record encoding");
        }
      } else {
        chunk_bytes.assign(rest.data() + prefix, len);
      }
      // Self-verification: the id is recomputed from the bytes, so a chunk
      // can be admitted the moment its record completes — a record the wire
      // corrupted simply lands under a different id (or fails its codec's
      // own guards above) and the closure check at Finish() reports the gap.
      Chunk chunk = Chunk::FromBytes(std::move(chunk_bytes));
      result_.bytes += chunk.size();
      staged_.push_back(std::move(chunk));
      ++result_.chunks;
      ++chunks_seen_;
      if (staged_.size() >= kChunkSweepBatch) {
        FB_RETURN_IF_ERROR(FlushStaged());
      }
      pos += prefix + len;
    }
  }
  buffer_.erase(0, pos);
  // One batched write per feed (bounded above by kChunkSweepBatch flushes):
  // PutMany computes the batch's identities through the pooled hasher, so
  // import rehashing rides the same fan-out as ingest.
  return FlushStaged();
}

Status BundleImporter::FlushStaged() {
  if (staged_.empty()) return Status::OK();
  Chunk::PrecomputeHashes(staged_, SharedHashPool());
  // new_chunks must count a chunk repeated within one batch only once, like
  // the old record-at-a-time Contains-then-Put did.
  std::unordered_set<Hash256, Hash256Hasher> batch_new;
  for (const Chunk& chunk : staged_) {
    const Hash256& id = chunk.hash();
    if (!dst_->Contains(id) && batch_new.insert(id).second) {
      ++result_.new_chunks;
    }
  }
  Status put = dst_->PutMany(staged_);
  staged_.clear();
  if (!put.ok()) {
    error_ = put;
    return error_;
  }
  return Status::OK();
}

StatusOr<ImportResult> BundleImporter::Finish(
    const std::vector<Hash256>& trusted) {
  if (!error_.ok()) return error_;
  FB_RETURN_IF_ERROR(FlushStaged());
  if (state_ != State::kRecords || chunks_seen_ != chunks_expected_ ||
      !buffer_.empty()) {
    return Fail("bundle: truncated");
  }
  // Every bundle chunk is already in dst, so head presence in bundle ∪ dst
  // collapses to a Contains probe.
  for (const auto& head : result_.heads) {
    if (!dst_->Contains(head)) {
      return Fail("bundle does not contain its head uid");
    }
  }
  // Closure check: every head must be traversable in dst down to what the
  // trusted heads already hold.
  auto closure = MarkDelta(*dst_, result_.heads, trusted);
  if (!closure.ok()) {
    return Fail("bundle closure incomplete: " + closure.status().message());
  }
  return result_;
}

}  // namespace forkbase
