// Instance-to-instance sync tests: two ForkBase instances converging through
// SyncPush/SyncPull over a loopback server — the acceptance scenario (100
// versions across 3 branches, delta-exact second sync) plus convergence
// under a seeded FaultSchedule injected into the client transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chunk/mem_chunk_store.h"
#include "net/client.h"
#include "net/server.h"
#include "net/sync.h"
#include "net/transport.h"
#include "store/bundle.h"
#include "store/forkbase.h"
#include "store/gc.h"
#include "util/fault_schedule.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::string TestAddress(const std::string& name) {
  return "unix:" + ::testing::TempDir() + name + ".sock";
}

// Commits `n` string versions on (key, branch).
void CommitVersions(ForkBase* db, const std::string& key,
                    const std::string& branch, const std::string& tag,
                    int n) {
  for (int i = 0; i < n; ++i) {
    auto uid = db->Put(key,
                       Value::String(tag + "-" + std::to_string(i) +
                                     std::string(512, 'p')),
                       branch, {"sync-test", tag + std::to_string(i)});
    ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  }
}

// Asserts every branch head of `key` is bit-exact between the instances:
// same uid (content-addressed, so same bytes), same value, same history.
void ExpectConverged(ForkBase* a, ForkBase* b, const std::string& key) {
  auto a_heads = a->Latest(key);
  auto b_heads = b->Latest(key);
  ASSERT_TRUE(a_heads.ok() && b_heads.ok());
  ASSERT_EQ(a_heads->size(), b_heads->size());
  for (size_t i = 0; i < a_heads->size(); ++i) {
    EXPECT_EQ((*a_heads)[i].first, (*b_heads)[i].first);
    EXPECT_EQ((*a_heads)[i].second, (*b_heads)[i].second);
    const std::string& branch = (*a_heads)[i].first;
    auto a_value = a->Get(key, branch);
    auto b_value = b->Get(key, branch);
    ASSERT_TRUE(a_value.ok() && b_value.ok());
    EXPECT_EQ(a_value->ToString(), b_value->ToString());
    auto a_history = a->History(key, branch);
    auto b_history = b->History(key, branch);
    ASSERT_TRUE(a_history.ok() && b_history.ok());
    ASSERT_EQ(a_history->size(), b_history->size());
    for (size_t j = 0; j < a_history->size(); ++j) {
      EXPECT_EQ((*a_history)[j].uid, (*b_history)[j].uid);
    }
    EXPECT_TRUE(b->Verify((*b_heads)[i].second).ok());
  }
}

TEST(SyncTest, TwoInstanceAcceptance) {
  // Instance A: 100 versions across 3 branches of one key.
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 40);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 30);
  ASSERT_TRUE(a.Branch("doc", "exp", "dev").ok());
  CommitVersions(&a, "doc", "exp", "e", 30);

  // Instance B: empty, served.
  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("accept"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Push everything into the empty peer.
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  auto first = SyncPush(&a, &*client);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->branches_considered, 3u);
  EXPECT_EQ(first->branches_updated, 3u);
  EXPECT_EQ(first->branches_conflicted, 0u);
  EXPECT_GE(first->chunks_sent, 100u);  // one FNode per version at least
  EXPECT_EQ(first->chunks_sent, first->remote_new_chunks)
      << "an empty peer lacks everything offered";
  ExpectConverged(&a, &b, "doc");

  // A keeps committing; the second push ships ONLY the new chunks.
  CommitVersions(&a, "doc", "master", "m2", 5);
  auto second = SyncPush(&a, &*client);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->branches_updated, 1u);
  EXPECT_EQ(second->branches_skipped, 2u);
  EXPECT_GT(second->chunks_sent, 0u);
  EXPECT_LT(second->chunks_sent, first->chunks_sent / 4);
  EXPECT_EQ(second->chunks_sent, second->remote_new_chunks)
      << "negotiation shipped something the peer already had";
  ExpectConverged(&a, &b, "doc");

  // An idempotent third push moves nothing.
  auto third = SyncPush(&a, &*client);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->branches_updated, 0u);
  EXPECT_EQ(third->branches_skipped, 3u);
  EXPECT_EQ(third->chunks_sent, 0u);

  // Instance C pulls the same state down from B's server, then pulls a
  // later delta after B advances (via another push from A).
  ForkBase c(std::make_shared<MemChunkStore>());
  auto c_client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(c_client.ok());
  auto pull = SyncPull(&c, &*c_client);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->branches_updated, 3u);
  EXPECT_GE(pull->chunks_received, 100u);
  ExpectConverged(&b, &c, "doc");

  CommitVersions(&a, "doc", "dev", "d2", 4);
  ASSERT_TRUE(SyncPush(&a, &*client).ok());
  auto delta_pull = SyncPull(&c, &*c_client);
  ASSERT_TRUE(delta_pull.ok()) << delta_pull.status().ToString();
  EXPECT_EQ(delta_pull->branches_updated, 1u);
  EXPECT_GT(delta_pull->chunks_received, 0u);
  EXPECT_LT(delta_pull->chunks_received, pull->chunks_received / 4);
  EXPECT_EQ(delta_pull->chunks_received, delta_pull->remote_new_chunks)
      << "the server's delta carried chunks this instance already had";
  ExpectConverged(&a, &c, "doc");
  (*server)->Stop();
}

TEST(SyncTest, DivergedBranchConflictsWithoutClobbering) {
  ForkBase a(std::make_shared<MemChunkStore>());
  ForkBase b(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "base", 3);

  auto server = ForkBaseServer::Start(&b, TestAddress("diverge"));
  ASSERT_TRUE(server.ok());
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SyncPush(&a, &*client).ok());

  // Both sides commit independently: no longer a fast-forward.
  CommitVersions(&a, "doc", "master", "a-side", 2);
  CommitVersions(&b, "doc", "master", "b-side", 2);
  auto b_head = b.Head("doc");
  ASSERT_TRUE(b_head.ok());

  auto push = SyncPush(&a, &*client);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->branches_conflicted, 1u);
  EXPECT_EQ(push->branches_updated, 0u);
  // B's head is untouched; A's chunks still landed for a future merge.
  EXPECT_EQ(*b.Head("doc"), *b_head);

  auto pull = SyncPull(&a, &*client);
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->branches_conflicted, 1u);
  ASSERT_TRUE(a.Head("doc").ok());
  (*server)->Stop();
}

// ---- closure checks on the receiving side --------------------------------

std::vector<std::pair<std::string, std::string>> MapEntries(int n,
                                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < n; ++i) {
    kvs.emplace_back("key" + std::to_string(i), rng.NextBytes(32));
  }
  return kvs;
}

// Uploads exactly `ids` from `store` as one bundle under `head` and returns
// BUNDLE_END's outcome.
Status UploadIds(ForkBaseClient* client, const ChunkStore& store,
                 const Hash256& head, const std::vector<Hash256>& ids) {
  std::string bundle;
  auto exported = ExportBundleOfIds(store, {head}, ids, [&](Slice bytes) {
    bundle.append(bytes.data(), bytes.size());
    return Status::OK();
  });
  if (!exported.ok()) return exported.status();
  FB_RETURN_IF_ERROR(client->BeginBundle());
  FB_RETURN_IF_ERROR(client->SendBundlePart(Slice(bundle)));
  return client->EndBundle().status();
}

TEST(SyncTest, IncompleteClosureIsNeverPublished) {
  // The closure of a 3,000-key map minus one leaf: BUNDLE_END refuses it,
  // and so must UPDATE_HEAD — the chunks that did land stay in the store
  // (a torn push resumes from them), so the head would otherwise dangle.
  auto a_store = std::make_shared<MemChunkStore>();
  ForkBase a(a_store);
  ASSERT_TRUE(a.PutMap("big", MapEntries(3000, 1)).ok());
  const Hash256 head = *a.Head("big");
  auto closure = MarkLive(*a_store, {head});
  ASSERT_TRUE(closure.ok());
  std::vector<Hash256> ids;
  bool dropped = false;
  for (const Hash256& id : *closure) {
    auto chunk = a_store->Get(id);
    ASSERT_TRUE(chunk.ok());
    if (!dropped && chunk->type() == ChunkType::kMapLeaf) {
      dropped = true;
      continue;
    }
    ids.push_back(id);
  }
  ASSERT_TRUE(dropped);

  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("incomplete"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  Status ended = UploadIds(&*client, *a_store, head, ids);
  EXPECT_FALSE(ended.ok());
  EXPECT_NE(ended.message().find("closure incomplete"), std::string::npos)
      << ended.ToString();
  EXPECT_FALSE(client->UpdateHead("big", "master", head).ok());
  EXPECT_FALSE(b.Head("big").ok()) << "a head with a hole was published";

  // Same for a branch that already exists on the server: its head stays.
  ASSERT_TRUE(SyncPush(&a, &*client).ok());
  ASSERT_TRUE(a.UpdateMap("big", {{"key7", "edited"}}).ok());
  const Hash256 next = *a.Head("big");
  auto delta = MarkDelta(*a_store, {next}, {head});
  ASSERT_TRUE(delta.ok());
  // Ship the new FNode and all but one of the new tree nodes.
  std::vector<Hash256> partial = delta->ids;
  auto tree_node = std::find_if(partial.begin(), partial.end(),
                                [&](const Hash256& id) { return id != next; });
  ASSERT_NE(tree_node, partial.end());
  partial.erase(tree_node);
  EXPECT_FALSE(UploadIds(&*client, *a_store, next, partial).ok());
  EXPECT_FALSE(client->UpdateHead("big", "master", next).ok());
  EXPECT_EQ(*b.Head("big"), head);
  EXPECT_TRUE(b.Verify(head).ok());
  (*server)->Stop();
}

TEST(SyncTest, EveryDroppedDeltaChunkFailsBundleEndAndUpdateHead) {
  auto a_store = std::make_shared<MemChunkStore>();
  ForkBase a(a_store);
  ASSERT_TRUE(a.PutMap("m", MapEntries(5000, 2)).ok());
  const Hash256 base = *a.Head("m");
  ASSERT_TRUE(a.UpdateMap("m", {{"key4242", "edited"}}).ok());
  const Hash256 head = *a.Head("m");
  // The exact delta (the closure-difference oracle) is what the push
  // ships; MarkDelta finds that set and no more for a one-key edit.
  auto want = MarkLive(*a_store, {head});
  auto have = MarkLive(*a_store, {base});
  ASSERT_TRUE(want.ok() && have.ok());
  std::vector<Hash256> exact;
  for (const Hash256& id : *want) {
    if (!have->count(id)) exact.push_back(id);
  }
  auto delta = MarkDelta(*a_store, {head}, {base});
  ASSERT_TRUE(delta.ok());
  using IdSet = std::unordered_set<Hash256, Hash256Hasher>;
  EXPECT_EQ(IdSet(delta->ids.begin(), delta->ids.end()),
            IdSet(exact.begin(), exact.end()));
  ASSERT_GE(exact.size(), 3u);

  for (size_t drop = 0; drop < exact.size(); ++drop) {
    SCOPED_TRACE("dropping chunk " + std::to_string(drop));
    ForkBase b(std::make_shared<MemChunkStore>());
    auto server =
        ForkBaseServer::Start(&b, TestAddress("drop" + std::to_string(drop)));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = ForkBaseClient::Connect((*server)->address());
    ASSERT_TRUE(client.ok());
    // The server holds `base`, published through a complete push.
    auto seed = UploadIds(&*client, *a_store, base, [&] {
      return std::vector<Hash256>(have->begin(), have->end());
    }());
    ASSERT_TRUE(seed.ok()) << seed.ToString();
    ASSERT_TRUE(client->UpdateHead("m", "master", base).ok());

    std::vector<Hash256> ids = exact;
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(UploadIds(&*client, *a_store, head, ids).ok());
    EXPECT_FALSE(client->UpdateHead("m", "master", head).ok());
    EXPECT_EQ(*b.Head("m"), base);
    (*server)->Stop();
  }
}

// Counts chunk reads (single and batched) on top of a memory store.
class CountingChunkStore : public ChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    ++gets;
    return base_.Get(id);
  }
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override {
    gets += ids.size();
    return base_.GetMany(ids);
  }
  bool Contains(const Hash256& id) const override {
    return base_.Contains(id);
  }
  ChunkStoreStats stats() const override { return base_.stats(); }
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override {
    base_.ForEach(fn);
  }

  mutable std::atomic<uint64_t> gets{0};

 protected:
  Status PutImpl(const Chunk& chunk) override { return base_.Put(chunk); }
  Status PutManyImpl(std::span<const Chunk> chunks) override {
    return base_.PutMany(chunks);
  }

 private:
  MemChunkStore base_;
};

TEST(SyncTest, PushCostIsIndependentOfHistoryLength) {
  // A one-key update pushed after 10 and after 300 versions reads a few
  // tree paths on each end, not the history: the same bound holds for
  // both. (Walking whole closures reads thousands of chunks here.)
  auto a_store = std::make_shared<CountingChunkStore>();
  auto b_store = std::make_shared<CountingChunkStore>();
  ForkBase a(a_store);
  ForkBase b(b_store);
  auto server = ForkBaseServer::Start(&b, TestAddress("cost"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(a.PutMap("m", MapEntries(12000, 3)).ok());
  auto stat = a.StatObject("m");
  ASSERT_TRUE(stat.ok());
  const uint64_t height = stat->shape.height;
  ASSERT_GE(height, 2u);
  const uint64_t bound = 8 * height;

  Rng rng(3);
  int versions = 1;
  for (const int target : {10, 300}) {
    while (versions < target - 1) {
      ASSERT_TRUE(a.UpdateMap("m", {{"key" + std::to_string(rng.Uniform(12000)),
                                     rng.NextBytes(32)}})
                      .ok());
      ++versions;
    }
    ASSERT_TRUE(SyncPush(&a, &*client).ok());
    ASSERT_TRUE(a.UpdateMap("m", {{"key" + std::to_string(rng.Uniform(12000)),
                                   rng.NextBytes(32)}})
                    .ok());
    ++versions;
    a_store->gets = 0;
    b_store->gets = 0;
    auto pushed = SyncPush(&a, &*client);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->branches_updated, 1u);
    EXPECT_EQ(pushed->chunks_sent, 1 + height) << "the FNode and one path";
    SCOPED_TRACE("after " + std::to_string(versions) + " versions");
    EXPECT_LE(a_store->gets.load(), bound);
    EXPECT_LE(b_store->gets.load(), bound);
  }
  EXPECT_EQ(*b.Head("m"), *a.Head("m"));
  EXPECT_TRUE(b.Verify(*b.Head("m")).ok());
  (*server)->Stop();
}

// ByteStream decorator driving a FaultSchedule: writes consult kPut, reads
// consult kGet. kTransient fails the call; kShortRead hangs up the socket
// (the peer sees a torn frame / early EOF mid-conversation); kStall models a
// deadline firing on a peer that stopped moving bytes; kDisconnectMidFrame
// lets half a frame escape before the connection drops (the peer sees a torn
// frame, this side an I/O error); kSlowDrip trickles one byte per read.
class FaultyStream : public ByteStream {
 public:
  FaultyStream(std::unique_ptr<ByteStream> inner, FaultSchedule* faults)
      : inner_(std::move(inner)), faults_(faults) {}

  Status WriteAll(Slice bytes) override {
    if (auto fault = faults_->Draw(FaultSchedule::Op::kPut)) {
      switch (fault->kind) {
        case FaultSchedule::Kind::kStall:
          inner_->Close();
          return Status::DeadlineExceeded("injected write stall");
        case FaultSchedule::Kind::kDisconnectMidFrame:
          (void)inner_->WriteAll(Slice(bytes.data(), bytes.size() / 2));
          inner_->Close();
          return Status::IOError("injected disconnect mid-frame");
        default:
          inner_->Close();
          return Status::IOError("injected transport write fault");
      }
    }
    return inner_->WriteAll(bytes);
  }

  StatusOr<size_t> ReadSome(char* buf, size_t cap) override {
    if (auto fault = faults_->Draw(FaultSchedule::Op::kGet)) {
      switch (fault->kind) {
        case FaultSchedule::Kind::kShortRead:
          inner_->Close();
          return static_cast<size_t>(0);  // premature EOF
        case FaultSchedule::Kind::kStall:
          inner_->Close();
          return Status::DeadlineExceeded("injected read stall");
        case FaultSchedule::Kind::kSlowDrip:
          return inner_->ReadSome(buf, std::min<size_t>(cap, 1));
        default:
          inner_->Close();
          return Status::IOError("injected transport read fault");
      }
    }
    return inner_->ReadSome(buf, cap);
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  FaultSchedule* const faults_;
};

TEST(SyncTest, PushAndPullConvergeUnderTransportFaults) {
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 20);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 10);

  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("faulty"));
  ASSERT_TRUE(server.ok());

  // Seeded probabilistic faults on both directions of the client's stream:
  // every run draws the same fault sequence.
  FaultSchedule faults;
  faults.SetProbability(FaultSchedule::Op::kPut, 0.04,
                        {FaultSchedule::Kind::kTransient}, /*seed=*/7);
  faults.SetProbability(FaultSchedule::Op::kGet, 0.04,
                        {FaultSchedule::Kind::kTransient,
                         FaultSchedule::Kind::kShortRead},
                        /*seed=*/9);

  // Each attempt reconnects (a failed stream is dead) and retries the sync
  // from negotiation: the protocol is idempotent, so partial uploads from
  // torn attempts never corrupt the peer, only get completed.
  auto sync_with_retries = [&](ForkBase* db, bool push) -> SyncStats {
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto raw = SocketStream::Connect((*server)->address());
      if (!raw.ok()) continue;
      auto client = ForkBaseClient::Attach(
          std::make_unique<FaultyStream>(std::move(*raw), &faults));
      if (!client.ok()) continue;  // handshake hit a fault
      auto stats = push ? SyncPush(db, &*client) : SyncPull(db, &*client);
      if (stats.ok()) return *stats;
    }
    ADD_FAILURE() << "sync never survived the fault schedule";
    return SyncStats{};
  };

  SyncStats push_stats = sync_with_retries(&a, /*push=*/true);
  EXPECT_EQ(push_stats.branches_conflicted, 0u);
  ExpectConverged(&a, &b, "doc");

  // Pull direction into a third instance through the same faulty pipe.
  ForkBase c(std::make_shared<MemChunkStore>());
  SyncStats pull_stats = sync_with_retries(&c, /*push=*/false);
  EXPECT_EQ(pull_stats.branches_conflicted, 0u);
  ExpectConverged(&a, &c, "doc");

  EXPECT_GT(faults.injected_count(), 0u)
      << "the schedule never fired; the test proved nothing";
  // The server outlived every torn session.
  auto probe = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->Heads().ok());
  (*server)->Stop();
}

// -- SyncWithRetry ------------------------------------------------------------

TEST(SyncTest, SyncWithRetryResumesATornPush) {
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 25);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 10);

  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("retry"));
  ASSERT_TRUE(server.ok());

  // One scripted fault: the connection drops mid-frame several writes into
  // the first attempt — HELLO, HEADS, OFFER, BUNDLE_BEGIN take the first
  // four, so write #9 lands inside the bundle-part stream.
  FaultSchedule faults;
  faults.InjectOnce(FaultSchedule::Op::kPut,
                    {FaultSchedule::Kind::kDisconnectMidFrame}, /*skip=*/8);

  StreamFactory factory = [&]() -> StatusOr<std::unique_ptr<ByteStream>> {
    FB_ASSIGN_OR_RETURN(auto raw, SocketStream::Connect((*server)->address()));
    return StatusOr<std::unique_ptr<ByteStream>>(
        std::make_unique<FaultyStream>(std::move(raw), &faults));
  };
  RetryPolicy policy;
  policy.initial_backoff_millis = 1;
  policy.max_backoff_millis = 4;
  SyncOptions sync_options;
  sync_options.part_bytes = 2048;  // many small parts: the cut lands mid-upload
  std::vector<int64_t> sleeps;
  auto report =
      SyncWithRetry(&a, SyncDirection::kPush, factory, policy, sync_options,
                    [&](int64_t millis) { sleeps.push_back(millis); });

  ASSERT_TRUE(report.succeeded) << report.final_status.ToString();
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_TRUE(IsRetryableSyncError(report.attempts.front().status));
  EXPECT_EQ(sleeps.size(), report.attempts.size() - 1);
  EXPECT_GT(faults.injected_count(), 0u)
      << "the schedule never fired; the test proved nothing";
  ExpectConverged(&a, &b, "doc");

  // The resumability proof: the torn attempt landed its completed chunks on
  // the server (the streaming importer persists them), so the retry's
  // negotiation shipped strictly fewer.
  const SyncStats& first = report.attempts.front().stats;
  EXPECT_GT(first.chunks_negotiated, 0u);
  EXPECT_GT(report.stats.chunks_negotiated, 0u);
  EXPECT_LT(report.stats.chunks_negotiated, first.chunks_negotiated);
  (*server)->Stop();
}

TEST(SyncTest, SyncWithRetryStopsOnNonRetryableErrors) {
  ForkBase a(std::make_shared<MemChunkStore>());
  int factory_calls = 0;
  StreamFactory factory = [&]() -> StatusOr<std::unique_ptr<ByteStream>> {
    ++factory_calls;
    return Status::InvalidArgument("no such transport");
  };
  auto report = SyncWithRetry(&a, SyncDirection::kPull, factory, RetryPolicy(),
                              SyncOptions(), [](int64_t) {});
  EXPECT_FALSE(report.succeeded);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.final_status.code(), StatusCode::kInvalidArgument);
}

TEST(SyncTest, SyncWithRetryBackoffIsCappedJitteredAndDeterministic) {
  ForkBase a(std::make_shared<MemChunkStore>());
  StreamFactory refused = []() -> StatusOr<std::unique_ptr<ByteStream>> {
    return Status::IOError("connection refused");
  };
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_millis = 8;
  policy.max_backoff_millis = 20;
  policy.jitter_seed = 77;

  auto run = [&]() {
    std::vector<int64_t> sleeps;
    auto report =
        SyncWithRetry(&a, SyncDirection::kPush, refused, policy, SyncOptions(),
                      [&](int64_t millis) { sleeps.push_back(millis); });
    EXPECT_FALSE(report.succeeded);
    EXPECT_EQ(report.attempts.size(), 5u);
    EXPECT_EQ(report.final_status.code(), StatusCode::kIOError);
    // Every non-final attempt records the backoff it then slept.
    for (size_t i = 0; i + 1 < report.attempts.size(); ++i) {
      EXPECT_EQ(report.attempts[i].backoff_millis, sleeps[i]);
    }
    EXPECT_EQ(report.attempts.back().backoff_millis, 0);
    return sleeps;
  };

  const std::vector<int64_t> first = run();
  ASSERT_EQ(first.size(), 4u);
  // Exponential envelope 8, 16, 20, 20 (capped), each jittered down into
  // [envelope/2, envelope] — never past the cap.
  const int64_t envelope[] = {8, 16, 20, 20};
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_GE(first[i], envelope[i] / 2);
    EXPECT_LE(first[i], envelope[i]);
  }
  // The jitter is seeded: a rerun replays the exact same sleeps.
  EXPECT_EQ(run(), first);
}

}  // namespace
}  // namespace forkbase
