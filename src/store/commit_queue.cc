#include "store/commit_queue.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "store/fnode.h"

namespace forkbase {

namespace {
/// Max FNodes landed per PutMany drain.
constexpr size_t kMaxBatch = 128;
}  // namespace

CommitQueue::CommitQueue(ChunkStore* store, BranchTable* branches,
                         std::atomic<uint64_t>* clock,
                         std::atomic<uint64_t>* commits)
    : store_(store), branches_(branches), clock_(clock), commits_(commits) {}

CommitQueue::~CommitQueue() { pool_.Shutdown(); }

uint64_t CommitQueue::BaseTime(
    const Hash256& base,
    const std::unordered_map<Hash256, uint64_t, Hash256Hasher>& batch_times)
    const {
  auto it = batch_times.find(base);
  if (it != batch_times.end()) return it->second;
  auto chunk = store_->Get(base);
  if (!chunk.ok()) return 0;
  auto node = FNode::FromChunk(*chunk);
  return node.ok() ? node->logical_time : 0;
}

StatusOr<Hash256> CommitQueue::Commit(Request req) {
  auto entry = std::make_unique<Entry>();
  entry->req = std::move(req);
  return Enqueue(std::move(entry));
}

StatusOr<Hash256> CommitQueue::AdvanceHead(const std::string& key,
                                           const std::string& branch,
                                           const Hash256& expected,
                                           const Hash256& target) {
  auto entry = std::make_unique<Entry>();
  entry->req.key = key;
  entry->req.branch = branch;
  entry->advance = std::make_pair(expected, target);
  return Enqueue(std::move(entry));
}

CommitQueue::Stats CommitQueue::stats() const {
  Stats s;
  s.commits = landed_commits_.load();
  s.batches = landed_batches_.load();
  s.advances = landed_advances_.load();
  return s;
}

StatusOr<Hash256> CommitQueue::Enqueue(std::unique_ptr<Entry> entry) {
  std::future<StatusOr<Hash256>> done = entry->done.get_future();
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(entry));
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) pool_.Submit([this] { Drain(); });
  return done.get();
}

void CommitQueue::Drain() {
  for (;;) {
    std::vector<std::unique_ptr<Entry>> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        // The empty-check and the flag reset share one critical section
        // with Commit's enqueue+check, so a request can never slip between
        // "drain gave up" and "no drain scheduled".
        drain_scheduled_ = false;
        return;
      }
      const size_t n = std::min(queue_.size(), kMaxBatch);
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }

    // Build the group's FNodes in enqueue order. Heads committed earlier in
    // this batch are visible to later requests through `pending_heads`,
    // even though nothing is published to the branch table yet.
    std::map<std::pair<std::string, std::string>, Hash256> pending_heads;
    auto head_at_drain =
        [&](const std::string& key,
            const std::string& branch) -> std::optional<Hash256> {
      auto pending = pending_heads.find({key, branch});
      if (pending != pending_heads.end()) return pending->second;
      auto head = branches_->Head(key, branch);
      if (head.ok()) return *head;
      return std::nullopt;
    };

    std::unordered_map<Hash256, uint64_t, Hash256Hasher> batch_times;
    std::vector<Chunk> chunks;          // commit entries only
    std::vector<std::optional<Hash256>> uids(batch.size());  // nullopt=raced
    for (size_t i = 0; i < batch.size(); ++i) {
      const Request& req = batch[i]->req;
      if (batch[i]->advance) {
        // Compare-and-advance: only valid if the head (including earlier
        // entries of this very batch) is still where the caller saw it.
        const auto& [expected, target] = *batch[i]->advance;
        auto current = head_at_drain(req.key, req.branch);
        if (current && *current == expected) {
          uids[i] = target;
          pending_heads[{req.key, req.branch}] = target;
        }
        continue;
      }
      if (req.expected_head) {
        auto current = head_at_drain(req.key, req.branch);
        if (!current || *current != *req.expected_head) {
          continue;  // raced: uids[i] stays empty, no chunk is written
        }
      }
      FNode node;
      node.key = req.key;
      node.value = req.value;
      if (req.bases) {
        node.bases = *req.bases;
      } else if (auto head = head_at_drain(req.key, req.branch)) {
        node.bases.push_back(*head);
      }
      node.author = req.author;
      node.message = req.message;
      // Lamport order: a version's time exceeds its bases', also across
      // instances whose counters started apart, so history walks that go
      // newest first (MarkDelta) meet descendants before their ancestors.
      uint64_t time = clock_->load() + 1;
      for (const Hash256& base : node.bases) {
        time = std::max(time, BaseTime(base, batch_times) + 1);
      }
      clock_->store(time);
      node.logical_time = time;
      Chunk chunk = node.ToChunk();
      uids[i] = chunk.hash();
      batch_times[chunk.hash()] = time;
      pending_heads[{req.key, req.branch}] = chunk.hash();
      chunks.push_back(std::move(chunk));
    }

    // One record run, one flush for the whole group.
    Status landed = store_->PutMany(chunks);
    if (landed.ok()) {
      landed_batches_.fetch_add(1);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!uids[i]) continue;  // raced advance: no head change
        branches_->SetHead(batch[i]->req.key, batch[i]->req.branch,
                           *uids[i]);
        if (batch[i]->advance) {
          landed_advances_.fetch_add(1);
        } else {
          commits_->fetch_add(1);
          landed_commits_.fetch_add(1);
        }
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (uids[i]) {
          batch[i]->done.set_value(*uids[i]);
        } else {
          batch[i]->done.set_value(Status::AlreadyExists(
              "head moved past the expected version; recompute and retry"));
        }
      }
    } else {
      // No head moved: every follower sees the same failure and no reader
      // can observe a head whose FNode may not be on disk. Advances fail
      // too — applying them ahead of failed commits would reorder
      // publishes relative to enqueue order.
      for (auto& entry : batch) {
        entry->done.set_value(landed);
      }
    }
  }
}

}  // namespace forkbase
