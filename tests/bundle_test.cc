// Tests for version bundles: export/import closure transfer between
// independent chunk stores, self-verification, corruption rejection — the
// repo's substitution for the paper's distributed replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <utility>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "store/bundle.h"
#include "util/codec.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

constexpr uint32_t kFbd3Magic = 0x46424433;  // "FBD3", the layout written
constexpr uint32_t kFbndMagic = 0x46424e44;  // "FBND", older builds
constexpr uint32_t kFbd2Magic = 0x46424432;  // "FBD2", older builds

// Builds a bundle in one of the raw-only layouts older builds wrote. No
// exporter writes these any more; the importer still accepts them, so the
// tests build them by hand.
std::string LegacyBundle(uint32_t magic, const std::vector<Hash256>& heads,
                         const std::vector<Chunk>& chunks) {
  std::string out;
  PutFixed32(&out, magic);
  if (magic != kFbndMagic) PutVarint64(&out, heads.size());
  for (const auto& head : heads) {
    out.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  }
  PutVarint64(&out, chunks.size());
  for (const auto& chunk : chunks) PutLengthPrefixed(&out, chunk.bytes());
  return out;
}

// The closure of `head` in `store`, sorted by id (the legacy layouts'
// record order).
std::vector<Chunk> ClosureChunks(const ChunkStore& store,
                                 const Hash256& head) {
  auto live = MarkLive(store, {head});
  EXPECT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());
  std::sort(ids.begin(), ids.end());
  std::vector<Chunk> chunks;
  for (const auto& id : ids) {
    auto chunk = store.Get(id);
    EXPECT_TRUE(chunk.ok());
    chunks.push_back(*chunk);
  }
  return chunks;
}

uint32_t MagicOf(const std::string& bundle) {
  Decoder dec{Slice(bundle)};
  uint32_t magic = 0;
  EXPECT_TRUE(dec.GetFixed32(&magic));
  return magic;
}

TEST(BundleTest, RoundTripReplicatesBranch) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  CsvGenOptions opts;
  opts.num_rows = 800;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts), 0, "master",
                                  {"alice", "v1"})
                  .ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000100", 2, "edited", "master",
                                  {"alice", "v2"})
                  .ok());
  auto head = src.Head("ds");
  ASSERT_TRUE(head.ok());

  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());
  EXPECT_GT(bundle->size(), 1000u);
  EXPECT_EQ(MagicOf(*bundle), kFbd3Magic);

  // Pull into a completely fresh store.
  auto dst_store = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(*bundle, dst_store.get());
  ASSERT_TRUE(import.ok());
  EXPECT_EQ(import->head, *head);
  EXPECT_EQ(import->new_chunks, import->chunks);

  ForkBase dst(dst_store);
  dst.branches().SetHead("ds", "master", import->head);
  EXPECT_TRUE(dst.Verify(*head).ok());
  auto table = dst.GetTable("ds");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(**table->GetCell("r00000100", 2), "edited");
  // Full history travelled with the bundle.
  auto history = dst.History("ds");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[1].author, "alice");
}

TEST(BundleTest, IncrementalPushSendsOnlyNewChunks) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  auto dst_store = std::make_shared<MemChunkStore>();

  CsvGenOptions opts;
  opts.num_rows = 1500;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = src.Head("ds");
  ASSERT_TRUE(v1.ok());
  auto b1 = ExportBundle(*src_store, *v1);
  ASSERT_TRUE(b1.ok());
  auto i1 = ImportBundle(*b1, dst_store.get());
  ASSERT_TRUE(i1.ok());

  // Small edit; the second bundle still carries the closure, but only a few
  // chunks are NEW on the destination.
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000750", 3, "x").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());
  auto b2 = ExportBundle(*src_store, *v2);
  ASSERT_TRUE(b2.ok());
  auto i2 = ImportBundle(*b2, dst_store.get());
  ASSERT_TRUE(i2.ok());
  EXPECT_LT(i2->new_chunks, i2->chunks / 4)
      << "most chunks were already present (content-addressed transfer)";
}

TEST(BundleTest, RejectsGarbage) {
  MemChunkStore dst;
  EXPECT_TRUE(ImportBundle(Slice("not a bundle"), &dst).status().IsCorruption());
  EXPECT_TRUE(ImportBundle(Slice(""), &dst).status().IsCorruption());
}

TEST(BundleTest, RejectsTamperedChunk) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());

  // Flip one byte inside the bundle body (past magic + head).
  std::string corrupted = *bundle;
  corrupted[corrupted.size() - 5] ^= 0x10;
  MemChunkStore dst;
  auto import = ImportBundle(corrupted, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST(BundleTest, RejectsMissingHead) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());
  // Swap the head uid for a different hash: closure can't contain it. The
  // head list starts after the magic and the one-byte head count.
  std::string forged = *bundle;
  Hash256 fake = Sha256(Slice("fake"));
  std::memcpy(forged.data() + 5, fake.bytes.data(), 32);
  MemChunkStore dst;
  auto import = ImportBundle(forged, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST(BundleTest, ExportRefusesTamperedSource) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto map = src.GetMap("k");
  ASSERT_TRUE(map.ok());
  src_store->TamperForTesting(map->root(), 2, 0x01);
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption());
}

TEST(BundleTest, DeterministicBytes) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"x", "1"}, {"y", "2"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto b1 = ExportBundle(*store, *head);
  auto b2 = ExportBundle(*store, *head);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(*b1, *b2);
}

TEST(BundleTest, StreamingSinkMatchesStringForm) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 600;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto head = db.Head("ds");
  ASSERT_TRUE(head.ok());

  auto whole = ExportBundle(*store, *head);
  ASSERT_TRUE(whole.ok());

  // The sink form produces the same bytes regardless of write granularity.
  std::string streamed;
  auto stats = ExportDeltaBundle(*store, {*head}, {}, [&](Slice bytes) {
    streamed.append(bytes.data(), bytes.size());
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(streamed, *whole);
  EXPECT_EQ(stats->bytes, whole->size());
  EXPECT_GT(stats->chunks, 0u);

  // Sink errors abort the export and surface unchanged.
  auto refused = ExportDeltaBundle(*store, {*head}, {}, [](Slice) {
    return Status::IOError("disk full");
  });
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
}

TEST(BundleTest, DeltaBundleShipsOnlyNewChunks) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  CsvGenOptions opts;
  opts.num_rows = 1200;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = src.Head("ds");
  ASSERT_TRUE(v1.ok());

  // Replicate v1, then make a small edit on the source.
  auto dst_store = std::make_shared<MemChunkStore>();
  auto full = ExportBundle(*src_store, *v1);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(ImportBundle(*full, dst_store.get()).ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000600", 2, "edited").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());

  // The delta against the replicated frontier carries only the edit's
  // chunks — unlike the full bundle, which re-ships the whole closure.
  std::string delta;
  auto stats = ExportDeltaBundle(*src_store, {*v2}, {*v1},
                                 [&](Slice bytes) {
                                   delta.append(bytes.data(), bytes.size());
                                   return Status::OK();
                                 });
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(delta.size(), full->size() / 4);

  auto import = ImportBundle(delta, dst_store.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->new_chunks, import->chunks)
      << "a delta bundle carries nothing the receiver already had";
  EXPECT_EQ(import->head, *v2);

  // The replica now reads v2 bit-exact.
  ForkBase dst(dst_store);
  dst.branches().SetHead("ds", "master", *v2);
  ASSERT_TRUE(dst.Verify(*v2).ok());
  EXPECT_EQ(**dst.GetTable("ds")->GetCell("r00000600", 2), "edited");
}

// ------------------------------------------------ streaming importer --

namespace {
// Builds a moderately sized bundle (two commits, many chunks) and returns
// (bundle bytes, head) for the streaming-importer tests.
std::pair<std::string, Hash256> MakeTestBundle() {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase src(store);
  CsvGenOptions opts;
  opts.num_rows = 400;
  EXPECT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts), 0, "master",
                                  {"alice", "v1"})
                  .ok());
  EXPECT_TRUE(src.UpdateTableCell("ds", "r00000100", 2, "edited", "master",
                                  {"alice", "v2"})
                  .ok());
  auto head = src.Head("ds");
  EXPECT_TRUE(head.ok());
  auto bundle = ExportBundle(*store, *head);
  EXPECT_TRUE(bundle.ok());
  return {*bundle, *head};
}
}  // namespace

TEST(BundleTest, StreamingImporterMatchesOneShot) {
  auto [bundle, head] = MakeTestBundle();

  auto one_shot_store = std::make_shared<MemChunkStore>();
  auto one_shot = ImportBundle(bundle, one_shot_store.get());
  ASSERT_TRUE(one_shot.ok());

  // Feed the same bytes in awkward, uneven slices — the importer must parse
  // across every possible record boundary.
  auto streamed_store = std::make_shared<MemChunkStore>();
  BundleImporter importer(streamed_store.get());
  const size_t steps[] = {1, 7, 13, 64, 4096};
  size_t offset = 0, turn = 0;
  while (offset < bundle.size()) {
    size_t take = std::min(steps[turn++ % 5], bundle.size() - offset);
    ASSERT_TRUE(importer.Feed(Slice(bundle.data() + offset, take)).ok());
    offset += take;
  }
  auto streamed = importer.Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(streamed->head, one_shot->head);
  EXPECT_EQ(streamed->chunks, one_shot->chunks);
  EXPECT_EQ(streamed->new_chunks, one_shot->new_chunks);
  EXPECT_EQ(importer.pending_bytes(), 0u);
  EXPECT_TRUE(streamed_store->Contains(head));
}

TEST(BundleTest, StreamingImporterKeepsCompletedChunksOfATornUpload) {
  auto [bundle, head] = MakeTestBundle();
  (void)head;

  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  // Only half the stream arrives before the "connection" dies.
  ASSERT_TRUE(importer.Feed(Slice(bundle.data(), bundle.size() / 2)).ok());
  EXPECT_GT(importer.chunks_imported(), 0u)
      << "complete records should land as they stream in";
  auto result = importer.Finish();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // The chunks that did land persist — this is what lets a retried push
  // negotiate a strictly smaller delta.
  EXPECT_GT(dst->stats().chunk_count, 0u);
}

TEST(BundleTest, StreamingImporterRejectsTamperedRecordMidStream) {
  auto [bundle, head] = MakeTestBundle();
  (void)head;
  bundle[bundle.size() - 5] ^= 0x10;  // flip a bit inside the last record

  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  Status status = Status::OK();
  size_t offset = 0;
  while (offset < bundle.size() && status.ok()) {
    size_t take = std::min<size_t>(512, bundle.size() - offset);
    status = importer.Feed(Slice(bundle.data() + offset, take));
    offset += take;
  }
  if (status.ok()) status = importer.Finish().status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The error is sticky: the importer refuses everything after.
  EXPECT_FALSE(importer.Feed(Slice(bundle.data(), 1)).ok());
}

// ------------------------------------------------ packed (v3) bundles --

TEST(PackedBundleTest, RawFallbackIsV2PlusOneTagBytePerRecord) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 500;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto head = db.Head("ds");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());

  std::string v3;
  auto s3 = ExportBundleOfIds(*store, {*head}, ids, [&](Slice bytes) {
    v3.append(bytes.data(), bytes.size());
    return Status::OK();
  });
  ASSERT_TRUE(s3.ok());
  const std::string v2 =
      LegacyBundle(kFbd2Magic, {*head}, ClosureChunks(*store, *head));
  EXPECT_EQ(s3->chunks, ids.size());
  EXPECT_EQ(s3->delta_chunks, 0u) << "a MemChunkStore has no delta records";
  EXPECT_EQ(s3->compressed_chunks, 0u);
  // Identical header length, identical bodies, one encoding tag per record.
  EXPECT_EQ(v3.size(), v2.size() + s3->chunks);

  auto dst = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(Slice(v3), dst.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->chunks, s3->chunks);
  EXPECT_EQ(import->head, *head);
  ForkBase replica(dst);
  replica.branches().SetHead("ds", "master", *head);
  EXPECT_TRUE(replica.Verify(*head).ok());
}

TEST(PackedBundleTest, StreamingImporterHandlesPackedRecords) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());
  std::string packed;
  ASSERT_TRUE(ExportBundleOfIds(*store, {*head}, ids,
                                [&](Slice bytes) {
                                  packed.append(bytes.data(), bytes.size());
                                  return Status::OK();
                                })
                  .ok());

  // Byte-at-a-time feed: the tag byte must not confuse record framing.
  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  for (size_t i = 0; i < packed.size(); ++i) {
    ASSERT_TRUE(importer.Feed(Slice(packed.data() + i, 1)).ok());
  }
  auto result = importer.Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->chunks, ids.size());
  EXPECT_TRUE(dst->Contains(*head));
}

TEST(PackedBundleTest, ShipsDeltaAndCompressedRecordsFromAnEncodedStore) {
  // The payoff case: a source store that actually holds delta chains and LZ
  // blocks exports them at their physical footprint, and the importer
  // rebuilds every logical chunk bit-exactly on a store that knows nothing
  // about the source's encoding.
  const std::string dir =
      ::testing::TempDir() + "/fb_bundle_encoded_src";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.compression = FileChunkStore::Compression::kLz;
  fopts.delta_chain_depth = 3;
  fopts.delta_window = 8;
  auto fstore_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(fstore_or.ok());
  auto& fstore = **fstore_or;

  // A version chain (deltas) plus a repetitive chunk (compressed).
  Rng rng(51);
  std::string payload = rng.NextString(1024);
  std::vector<Chunk> chunks;
  for (int v = 0; v < 6; ++v) {
    if (v > 0) payload[rng.Uniform(payload.size())] ^= 0x5a;
    chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
  }
  chunks.push_back(Chunk::Make(ChunkType::kCell,
                               std::string(2048, 'z') + "unique tail"));
  ASSERT_TRUE(fstore.PutMany(chunks).ok());

  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  std::string packed;
  auto sp = ExportBundleOfIds(fstore, {chunks.front().hash()}, ids,
                              [&](Slice bytes) {
                                packed.append(bytes.data(), bytes.size());
                                return Status::OK();
                              });
  ASSERT_TRUE(sp.ok());
  const std::string raw =
      LegacyBundle(kFbd2Magic, {chunks.front().hash()}, chunks);
  EXPECT_GT(sp->delta_chunks, 0u) << "the chain must cross the wire as deltas";
  EXPECT_GT(sp->compressed_chunks, 0u);
  EXPECT_LT(packed.size(), raw.size())
      << "physical records must make the packed bundle smaller";

  auto dst = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(Slice(packed), dst.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->chunks, chunks.size());
  for (const auto& c : chunks) {
    auto got = dst->Get(c.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), c.bytes().ToString());
  }
  std::filesystem::remove_all(dir);
}

TEST(PackedBundleTest, RejectsUnknownRecordEncoding) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());
  std::string packed;
  ASSERT_TRUE(ExportBundleOfIds(*store, {*head}, ids,
                                [&](Slice bytes) {
                                  packed.append(bytes.data(), bytes.size());
                                  return Status::OK();
                                })
                  .ok());
  // Header: magic(4) + varint(1 head) + 32 + varint(chunk count). The first
  // record's tag byte sits right after its length varint; corrupt it.
  size_t pos = 4 + 1 + 32;
  while (static_cast<uint8_t>(packed[pos]) & 0x80) ++pos;  // chunk count
  ++pos;
  while (static_cast<uint8_t>(packed[pos]) & 0x80) ++pos;  // record length
  ++pos;
  packed[pos] = 0x7f;  // no such encoding
  MemChunkStore dst;
  auto import = ImportBundle(Slice(packed), &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST(PackedBundleTest, RejectsAShortDeltaRecord) {
  // One delta record whose body is the 32-byte base id plus `tail` bytes.
  auto delta_bundle = [](size_t tail) {
    std::string out;
    PutFixed32(&out, kFbd3Magic);
    PutVarint64(&out, 1);
    const Hash256 head = Sha256(Slice("head"));
    out.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
    PutVarint64(&out, 1);
    PutVarint64(&out, 32 + tail);
    out.push_back(static_cast<char>(ChunkStore::Encoding::kDelta));
    const Hash256 base = Sha256(Slice("base"));
    out.append(reinterpret_cast<const char*>(base.bytes.data()), 32);
    out.append(tail, '\x01');
    return out;
  };
  MemChunkStore dst;
  // 34 bytes: shorter than any delta a store can hold (ChunkStore::
  // kMinDeltaBody), so the record is malformed before its base is looked up.
  auto short_import = ImportBundle(Slice(delta_bundle(2)), &dst);
  ASSERT_FALSE(short_import.ok());
  EXPECT_TRUE(short_import.status().IsCorruption());
  EXPECT_NE(short_import.status().message().find("short delta record"),
            std::string::npos)
      << short_import.status().ToString();
  // At the minimum size the record is well-formed and fails on its base.
  auto min_import = ImportBundle(
      Slice(delta_bundle(ChunkStore::kMinDeltaBody - 32)), &dst);
  ASSERT_FALSE(min_import.ok());
  EXPECT_EQ(min_import.status().message().find("short delta record"),
            std::string::npos)
      << min_import.status().ToString();
}

// ------------------------------------------------ legacy bundle layouts --

TEST(LegacyBundleTest, ImportsHandBuiltFbndAndFbd2) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase src(store);
  CsvGenOptions opts;
  opts.num_rows = 300;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000100", 2, "edited").ok());
  auto head = src.Head("ds");
  ASSERT_TRUE(head.ok());
  const std::vector<Chunk> closure = ClosureChunks(*store, *head);

  for (uint32_t magic : {kFbndMagic, kFbd2Magic}) {
    SCOPED_TRACE(magic == kFbndMagic ? "FBND" : "FBD2");
    const std::string bundle = LegacyBundle(magic, {*head}, closure);

    auto one_shot_dst = std::make_shared<MemChunkStore>();
    auto one_shot = ImportBundle(Slice(bundle), one_shot_dst.get());
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
    EXPECT_EQ(one_shot->head, *head);
    EXPECT_EQ(one_shot->chunks, closure.size());
    EXPECT_EQ(one_shot->new_chunks, closure.size());

    // Byte-at-a-time: every legacy framing boundary is crossed mid-unit.
    auto streamed_dst = std::make_shared<MemChunkStore>();
    BundleImporter importer(streamed_dst.get());
    for (size_t i = 0; i < bundle.size(); ++i) {
      ASSERT_TRUE(importer.Feed(Slice(bundle.data() + i, 1)).ok());
    }
    auto streamed = importer.Finish();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed->head, *head);
    EXPECT_EQ(streamed->chunks, closure.size());

    ForkBase replica(streamed_dst);
    replica.branches().SetHead("ds", "master", *head);
    ASSERT_TRUE(replica.Verify(*head).ok());
    EXPECT_EQ(**replica.GetTable("ds")->GetCell("r00000100", 2), "edited");
  }
}

// ------------------------------------------- typed update conveniences --

TEST(FacadeUpdateTest, UpdateMapCommits) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("m", {{"a", "1"}}).ok());
  ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{"b", std::string("2")},
                                 KeyedOp{"a", std::nullopt}})
                  .ok());
  auto map = db.GetMap("m");
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE((*map->Get("a")).has_value());
  EXPECT_EQ(**map->Get("b"), "2");
  auto history = db.History("m");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 2u);
}

TEST(FacadeUpdateTest, AppendBlobAndList) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutBlob("b", "hello").ok());
  ASSERT_TRUE(db.AppendBlob("b", " world").ok());
  EXPECT_EQ(*db.GetBlob("b")->ReadAll(), "hello world");

  ASSERT_TRUE(db.PutList("l", {"one"}).ok());
  ASSERT_TRUE(db.AppendList("l", "two").ok());
  EXPECT_EQ(*db.GetList("l")->Get(1), "two");
}

TEST(FacadeUpdateTest, UpdateRequiresMatchingType) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.Put("s", Value::String("not a map")).ok());
  EXPECT_FALSE(db.UpdateMap("s", {KeyedOp{"k", std::string("v")}}).ok());
  EXPECT_FALSE(db.AppendBlob("s", "x").ok());
}

}  // namespace
}  // namespace forkbase
