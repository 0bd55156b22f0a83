// Shared machinery of the benchmark's load generator: the results file,
// span tracing, the span-recording chunk-store and byte-stream decorators,
// the ForkBase stack each workload opens, and `forkbase_cli serve`
// subprocesses.
//
// The driver measures from outside the library: spans are recorded around
// calls into public APIs from the benchmark's own files, never inside src/.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <signal.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "net/client.h"
#include "net/sync.h"
#include "net/transport.h"
#include "store/forkbase.h"

namespace perfbench {

using forkbase::ForkBase;
using forkbase::Hash256;
using forkbase::Status;
using forkbase::StatusOr;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Aborts the run with a message on stderr (exit code 3): a benchmark step
/// that cannot run is not a measurement.
[[noreturn]] void Die(const std::string& what);
void CheckOk(const Status& status, const std::string& what);
template <typename T>
T ValueOrDie(StatusOr<T> value_or, const std::string& what) {
  CheckOk(value_or.status(), what);
  return std::move(*value_or);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;   ///< path of the forkbase_cli binary
  std::string work;  ///< scratch directory for stores and sockets
  std::string out;   ///< results file read by run.py
};

/// What a run reports to run.py: raw latency samples (aggregated into
/// percentiles there), scalar values, output checks and spans.
class Results {
 public:
  void Sample(const std::string& name, double v);
  void Value(const std::string& name, double v);
  void Context(const std::string& key, const std::string& v);
  /// Records an output check; a failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  /// Operation accounting: a failed or refused operation counts against
  /// completed_op_share; a compare-and-set conflict is a correct outcome.
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  bool all_checks_ok() const { return checks_ok_; }
  /// Writes everything (spans included) to `path`.
  void WriteTo(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> checks_;
  bool checks_ok_ = true;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// ------------------------------------------------------------------ spans --

/// In-memory span recorder. Off by default; Span is a no-op while off.
/// Each thread appends to its own buffer; WriteSpans merges them.
class Tracer {
 public:
  static void Enable(bool on) { on_.store(on, std::memory_order_release); }
  static bool on() { return on_.load(std::memory_order_relaxed); }
  static void WriteSpans(std::ostream& out);
  /// Records an already-finished interval as a child of this thread's
  /// current span (for intervals that do not nest in one scope).
  static void Add(const char* name, int64_t start, int64_t end);

  struct Rec {
    uint64_t id, parent;
    const char* name;
    int64_t start, end;
  };

 private:
  friend class Span;
  static thread_local uint64_t current_;
  static std::vector<Rec>& Buffer();
  static std::atomic<bool> on_;
  static std::atomic<uint64_t> next_id_;
};

/// RAII span: name (a string literal), start, end and the enclosing span
/// on the same thread as parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  uint64_t id_ = 0, parent_ = 0;
  int64_t start_ = 0;
};

// --------------------------------------------------------------- counters --

/// Call counts and busy time at the chunk-store boundary, accumulated by
/// TracedChunkStore. Read deltas around single-threaded operations.
struct ChunkCounters {
  std::atomic<uint64_t> get_chunks{0}, get_ns{0};
  std::atomic<uint64_t> put_chunks{0}, put_bytes{0}, put_ns{0};
  struct Snapshot {
    uint64_t get_chunks, get_ns, put_chunks, put_bytes, put_ns;
    Snapshot operator-(const Snapshot& o) const {
      return {get_chunks - o.get_chunks, get_ns - o.get_ns,
              put_chunks - o.put_chunks, put_bytes - o.put_bytes,
              put_ns - o.put_ns};
    }
  };
  Snapshot Take() const;
};
ChunkCounters& Counters();

/// Decorator that records a span and counts around every call into the
/// wrapped store. Async reads are counted at issue; their wait lands in the
/// caller's self time (the handle's Take is not observable from outside).
class TracedChunkStore : public forkbase::ChunkStore {
 public:
  explicit TracedChunkStore(std::shared_ptr<forkbase::ChunkStore> base)
      : base_(std::move(base)) {}

  StatusOr<forkbase::Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<forkbase::Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  forkbase::AsyncChunkBatch GetManyAsync(
      std::span<const Hash256> ids) const override;
  bool SupportsAsyncGet() const override { return base_->SupportsAsyncGet(); }
  bool Contains(const Hash256& id) const override {
    return base_->Contains(id);
  }
  bool SupportsErase() const override { return base_->SupportsErase(); }
  Status Erase(std::span<const Hash256> ids) override {
    return base_->Erase(ids);
  }
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override {
    return base_->GetDeltaBase(id, base);
  }
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override {
    return base_->GetPhysicalRecord(id, rec);
  }
  uint64_t space_used() const override { return base_->space_used(); }
  forkbase::ChunkStoreStats stats() const override { return base_->stats(); }
  void ForEach(const std::function<void(const Hash256&,
                                        const forkbase::Chunk&)>& fn)
      const override {
    base_->ForEach(fn);
  }
  void ForEachId(const std::function<void(const Hash256&, uint64_t)>& fn)
      const override {
    base_->ForEachId(fn);
  }

  /// While set, every chunk written is also copied into `*capture` (the
  /// traced run replays SHA-256 over exactly what one version wrote).
  void set_capture(std::vector<std::string>* capture) { capture_ = capture; }

 protected:
  Status PutImpl(const forkbase::Chunk& chunk) override;
  Status PutManyImpl(std::span<const forkbase::Chunk> chunks) override;

 private:
  std::shared_ptr<forkbase::ChunkStore> base_;
  std::vector<std::string>* capture_ = nullptr;
};

/// Byte-stream decorator for client connections: one span per frame round
/// trip, plus the total time spent waiting on Offer replies.
class TracedStream : public forkbase::ByteStream {
 public:
  explicit TracedStream(std::unique_ptr<forkbase::ByteStream> base)
      : base_(std::move(base)) {}
  Status WriteAll(forkbase::Slice bytes) override;
  StatusOr<size_t> ReadSome(char* buf, size_t cap) override;
  void SetIoTimeout(int64_t millis) override { base_->SetIoTimeout(millis); }
  void Close() override { base_->Close(); }

  static std::atomic<uint64_t>& offer_ns();

 private:
  std::unique_ptr<forkbase::ByteStream> base_;
  uint8_t last_verb_ = 0;
  int64_t sent_ns_ = 0;
  bool awaiting_ = false;
};

/// Connects a client; with tracing compiled into the run, through a
/// TracedStream so round trips show up as net.* spans.
forkbase::ForkBaseClient Connect(const std::string& address, bool traced);

// ------------------------------------------------------------------ stack --

/// A ForkBase instance on the CLI's storage stack. Untraced runs open it
/// through ForkBase::Open; traced runs build the same FileChunkStore +
/// CachingChunkStore stack by hand with a TracedChunkStore on top.
struct Stack {
  std::unique_ptr<ForkBase> db;
  forkbase::CachingChunkStore* cache = nullptr;  ///< traced stacks only
  TracedChunkStore* traced = nullptr;            ///< traced stacks only

  /// Cache hits/misses/evictions, from whichever surface the stack has.
  forkbase::ForkBaseStats::Cache CacheStats() const;
  uint64_t PhysicalBytes() const;
};
Stack OpenStack(const std::string& dir, size_t cache_bytes, bool traced);

// ------------------------------------------------------------------ serve --

/// A `forkbase_cli serve` subprocess on a unix socket.
class ServeProcess {
 public:
  ServeProcess(const std::string& cli, const std::string& db_dir,
               const std::string& socket_path);
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  const std::string& address() const { return address_; }
  /// Sends `signal` (SIGTERM: graceful; SIGKILL: a crash), then waits for
  /// exit; records CPU seconds and peak RSS.
  void Stop(int signal = SIGTERM);
  double cpu_s() const { return cpu_s_; }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  std::string address_;
  pid_t pid_ = -1;
  double cpu_s_ = 0, peak_rss_mb_ = 0;
};

/// STAT of a running server as a key → value map.
std::map<std::string, std::string> RemoteStat(forkbase::ForkBaseClient* c);
uint64_t StatU64(const std::map<std::string, std::string>& stat,
                 const std::string& key);

/// Every (key, branch) → head of a local instance / a remote one.
using HeadMap = std::map<std::pair<std::string, std::string>, Hash256>;
HeadMap LocalHeads(ForkBase* db);
HeadMap RemoteHeads(forkbase::ForkBaseClient* c);

/// Chunk-layer counters at the start of a measured loop.
struct LoopBaseline {
  uint64_t physical_bytes;
  forkbase::ForkBaseStats::Cache cache;
  forkbase::ChunkStoreStats store;
  ChunkCounters::Snapshot counters;
};
LoopBaseline TakeBaseline(const Stack& stack);
/// Records the chunk.* metrics of the loop since `base`, and
/// storage_bytes_per_user_byte: physical growth ÷ `user_bytes` committed.
void RecordChunkLayer(Results* r, const Stack& stack, const LoopBaseline& base,
                      uint64_t user_bytes);

/// One timed SyncPush: records push_ms and the net.sync.* samples, or a
/// failed operation. Returns the sync's stats when it succeeded.
std::optional<forkbase::SyncStats> TimedPush(
    Results* r, ForkBase* db, forkbase::ForkBaseClient* client,
    const forkbase::SyncOptions& options, bool traced);
/// Clones the server at `address` into a fresh instance at `dir` with
/// SyncPull: records clone_mb_s and checks the clone's heads.
Stack TimedClone(Results* r, const std::string& address,
                 const std::string& dir, const HeadMap& expected);
/// Records the net.server.* counters and the SHA-256 backend of a server.
void RecordServerStat(Results* r, forkbase::ForkBaseClient* client);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> v);

/// Removes a directory tree (ignores absence).
void RemoveTree(const std::string& path);
std::string MakeDir(const std::string& path);

/// Records proc.* for this process and the given server totals.
void RecordProcess(Results* r, double server_cpu_s, double server_rss_mb);

/// Replays that every workload reports in its traced run: commit and
/// head-table save at the run's head count, frame encode/parse at the
/// workload's typical payload size.
void RecordStoreReplays(Results* r, ForkBase* db, const std::string& dir,
                        size_t frame_payload_bytes);

/// Traced-run replays of the ingest layers on one committed document:
/// SHA-256 over the chunks the commit wrote, NodeSplitter over the table's
/// entry stream and FTable::FromCsv, plus the share of the commit's time
/// those layers, the CSV parse and chunk puts leave unaccounted.
void ReplayIngest(Results* r, ForkBase* db, const forkbase::CsvDocument& doc,
                  const std::vector<std::string>& chunks, double parse_ms,
                  double put_ms, double total_ms);
/// Traced-run replay of a full-closure bundle export and import of `head`.
void ReplayBundle(Results* r, ForkBase* db, const Hash256& head);

/// One TimedClone of the server at `address`, then one load of `csv`
/// through the put-csv path (ParseCsv + PutTableFromCsv) into a fresh
/// instance, recorded as an ingest_mb_s sample; both instances are deleted
/// after. The library workloads run it every few cycles of their loop so
/// that clone_mb_s and ingest_mb_s sample the same seconds as the loop's
/// own metrics. Returns the seconds it took, which the loop leaves out of
/// ops_s.
double CloneAndReload(Results* r, const Args& a, const std::string& address,
                      const HeadMap& expected, const std::string& csv,
                      size_t cache_bytes);

/// Workload entry points.
void RunDatasetVersions(const Args& args, Results* r);
void RunTablePointOps(const Args& args, Results* r);
void RunServeKv(const Args& args, Results* r);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
