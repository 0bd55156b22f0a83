// Commit queue — the only path that moves a branch head.
//
// Every ForkBase commit and head advance enqueues a request and blocks on a
// future; a single drain task (on a one-thread WorkerPool, the same
// primitive the read prefetcher uses) pops everything queued, builds the
// FNode chunks in enqueue order, lands them with ONE ChunkStore::PutMany —
// on FileChunkStore that is one record run, one fwrite and one flush for
// the whole group — then publishes the branch heads in the same order and
// wakes every follower with its version uid.
//
// Because one thread publishes every head, the queue defines the commit
// semantics:
//   * same-branch chaining: a Put enqueued without explicit bases resolves
//     its parent at drain time, against heads that include earlier commits
//     of the same drain — so N racing Puts to one branch form a chain of N
//     versions instead of racing read-modify-write and losing updates;
//   * compare-and-set: a request carrying an expected head (PutIf, Merge,
//     AdvanceHead) is checked at drain time, so of racing requests with the
//     same expectation exactly one lands;
//   * durability order: heads are published only after PutMany returned,
//     and PutMany flushes before returning, so a crash never leaves a head
//     pointing at an unwritten FNode (one flush per group).
#ifndef FORKBASE_STORE_COMMIT_QUEUE_H_
#define FORKBASE_STORE_COMMIT_QUEUE_H_

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"
#include "store/branch_table.h"
#include "types/value.h"
#include "util/worker_pool.h"

namespace forkbase {

class CommitQueue {
 public:
  struct Request {
    std::string key;
    Value value;
    /// Explicit parent uids (Merge passes both heads). nullopt = resolve
    /// the branch head at drain time (Put), which is what chains racing
    /// same-branch commits.
    std::optional<std::vector<Hash256>> bases;
    /// Precondition for explicit-bases commits: only land if the branch
    /// head at drain time still equals this (Merge's dst head — the value
    /// it merged against). On mismatch the entry fails with
    /// kAlreadyExists and the caller recomputes, so a merge can never
    /// orphan a commit that landed after its head read.
    std::optional<Hash256> expected_head;
    std::string branch;
    std::string author;
    std::string message;
  };

  /// All pointers are borrowed from the owning ForkBase and must outlive
  /// the queue.
  CommitQueue(ChunkStore* store, BranchTable* branches,
              std::atomic<uint64_t>* clock, std::atomic<uint64_t>* commits);
  ~CommitQueue();  // drains everything already enqueued, then joins

  /// Enqueues and blocks until the group containing this request is
  /// durably written and its head published. Returns the version uid.
  StatusOr<Hash256> Commit(Request req);

  /// Queue-ordered compare-and-advance of a branch head: publishes
  /// `target` iff the head at drain time still equals `expected`. This is
  /// the fast-forward path of Merge and ForkBase::FastForward — routed
  /// through the queue so it cannot interleave with a drain and silently
  /// discard a commit that is being landed. Returns `target` on success;
  /// kAlreadyExists when the head moved (the caller recomputes and
  /// retries).
  StatusOr<Hash256> AdvanceHead(const std::string& key,
                                const std::string& branch,
                                const Hash256& expected,
                                const Hash256& target);

  /// Queue counters, folded into ForkBaseStats by ForkBase::Stat().
  struct Stats {
    uint64_t commits = 0;   ///< commit entries durably landed
    uint64_t batches = 0;   ///< drain groups (PutMany runs) that landed
    uint64_t advances = 0;  ///< AdvanceHead entries applied
  };
  Stats stats() const;

 private:
  struct Entry {
    Request req;
    /// Set for AdvanceHead entries: (expected, target). Such entries
    /// write no chunk; they only participate in head-publish ordering.
    std::optional<std::pair<Hash256, Hash256>> advance;
    std::promise<StatusOr<Hash256>> done;
  };

  StatusOr<Hash256> Enqueue(std::unique_ptr<Entry> entry);

  /// Runs on the pool thread; loops until the queue is observed empty.
  void Drain();
  /// Logical time of the version `base`: from this drain's batch, else
  /// from the store (0 when it cannot be read).
  uint64_t BaseTime(const Hash256& base,
                    const std::unordered_map<Hash256, uint64_t, Hash256Hasher>&
                        batch_times) const;

  ChunkStore* const store_;
  BranchTable* const branches_;
  std::atomic<uint64_t>* const clock_;
  std::atomic<uint64_t>* const commits_;

  std::mutex mu_;
  std::deque<std::unique_ptr<Entry>> queue_;
  bool drain_scheduled_ = false;

  std::atomic<uint64_t> landed_commits_{0};
  std::atomic<uint64_t> landed_batches_{0};
  std::atomic<uint64_t> landed_advances_{0};

  // Last member: its destructor runs first and executes any scheduled
  // drain before the queue state above can be torn down.
  WorkerPool pool_{1};
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_COMMIT_QUEUE_H_
