#include "common.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <thread>

#include "chunk/mem_chunk_store.h"
#include "net/frame.h"
#include "postree/node.h"
#include "postree/splitter.h"
#include "store/bundle.h"
#include "util/random.h"
#include "util/sha256.h"

namespace perfbench {

void Die(const std::string& what) {
  std::cerr << "perfbench: " << what << std::endl;
  std::_Exit(3);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------- results --

void Results::Sample(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(v);
}

void Results::Value(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = v;
}

void Results::Context(const std::string& key, const std::string& v) {
  std::lock_guard<std::mutex> lock(mu_);
  context_.emplace_back(key, v);
}

void Results::Check(const std::string& name, bool ok,
                    const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok) checks_ok_ = false;
  std::string line = name + (ok ? " ok" : " FAIL");
  if (!ok && !detail.empty()) line += " " + detail;
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  checks_.push_back(line);
}

void Results::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  out << std::setprecision(17);
  for (const auto& [k, v] : context_) out << "ctx " << k << " " << v << "\n";
  out << "attempted " << attempted_.load() << "\n";
  out << "failed " << failed_.load() << "\n";
  for (const auto& c : checks_) out << "check " << c << "\n";
  for (const auto& [k, v] : values_) out << "value " << k << " " << v << "\n";
  for (const auto& [k, vs] : samples_) {
    out << "samples " << k;
    for (double v : vs) out << " " << v;
    out << "\n";
  }
  Tracer::WriteSpans(out);
  out.flush();
  if (!out) Die("cannot write results to " + path);
}

// ------------------------------------------------------------------ spans --

std::atomic<bool> Tracer::on_{false};
std::atomic<uint64_t> Tracer::next_id_{1};
thread_local uint64_t Tracer::current_ = 0;

namespace {
std::mutex g_buffers_mu;
std::vector<std::vector<Tracer::Rec>*>& AllBuffers() {
  static auto* buffers = new std::vector<std::vector<Tracer::Rec>*>();
  return *buffers;
}
}  // namespace

std::vector<Tracer::Rec>& Tracer::Buffer() {
  // Leaked on purpose: worker threads may exit before WriteSpans runs, and
  // their spans must survive them.
  thread_local std::vector<Rec>* buffer = [] {
    auto* b = new std::vector<Rec>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    AllBuffers().push_back(b);
    return b;
  }();
  return *buffer;
}

void Tracer::Add(const char* name, int64_t start, int64_t end) {
  if (!on()) return;
  Buffer().push_back(Rec{next_id_.fetch_add(1), current_, name, start, end});
}

void Tracer::WriteSpans(std::ostream& out) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto* buffer : AllBuffers()) {
    for (const Rec& r : *buffer) {
      out << "span " << r.id << " " << r.parent << " " << r.name << " "
          << r.start << " " << r.end << "\n";
    }
  }
}

Span::Span(const char* name) : name_(name), active_(Tracer::on()) {
  if (!active_) return;
  id_ = Tracer::next_id_.fetch_add(1);
  parent_ = Tracer::current_;
  Tracer::current_ = id_;
  start_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const int64_t end = NowNs();
  Tracer::current_ = parent_;
  Tracer::Buffer().push_back(Tracer::Rec{id_, parent_, name_, start_, end});
}

// --------------------------------------------------------------- counters --

ChunkCounters& Counters() {
  static ChunkCounters counters;
  return counters;
}

ChunkCounters::Snapshot ChunkCounters::Take() const {
  return {get_chunks.load(), get_ns.load(), put_chunks.load(), put_bytes.load(),
          put_ns.load()};
}

namespace {
void CountGet(size_t chunks, int64_t start) {
  auto& c = Counters();
  c.get_chunks.fetch_add(chunks, std::memory_order_relaxed);
  c.get_ns.fetch_add(static_cast<uint64_t>(NowNs() - start),
                     std::memory_order_relaxed);
}
}  // namespace

StatusOr<forkbase::Chunk> TracedChunkStore::Get(const Hash256& id) const {
  Span span("chunk.get");
  const int64_t start = NowNs();
  auto chunk = base_->Get(id);
  CountGet(1, start);
  return chunk;
}

std::vector<StatusOr<forkbase::Chunk>> TracedChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  Span span("chunk.get");
  const int64_t start = NowNs();
  auto chunks = base_->GetMany(ids);
  CountGet(ids.size(), start);
  return chunks;
}

forkbase::AsyncChunkBatch TracedChunkStore::GetManyAsync(
    std::span<const Hash256> ids) const {
  Span span("chunk.get");
  const int64_t start = NowNs();
  auto batch = base_->GetManyAsync(ids);
  CountGet(ids.size(), start);
  return batch;
}

Status TracedChunkStore::PutImpl(const forkbase::Chunk& chunk) {
  return PutManyImpl(std::span<const forkbase::Chunk>(&chunk, 1));
}

Status TracedChunkStore::PutManyImpl(std::span<const forkbase::Chunk> chunks) {
  Span span("chunk.put");
  const int64_t start = NowNs();
  uint64_t bytes = 0;
  for (const auto& c : chunks) {
    bytes += c.size();
    if (capture_ != nullptr) capture_->push_back(c.bytes().ToString());
  }
  Status s = base_->PutMany(chunks);
  auto& c = Counters();
  c.put_chunks.fetch_add(chunks.size(), std::memory_order_relaxed);
  c.put_bytes.fetch_add(bytes, std::memory_order_relaxed);
  c.put_ns.fetch_add(static_cast<uint64_t>(NowNs() - start),
                     std::memory_order_relaxed);
  return s;
}

// ----------------------------------------------------------------- stream --

std::atomic<uint64_t>& TracedStream::offer_ns() {
  static std::atomic<uint64_t> ns{0};
  return ns;
}

Status TracedStream::WriteAll(forkbase::Slice bytes) {
  const int64_t start = NowNs();
  Status s = base_->WriteAll(bytes);
  Tracer::Add("net.send", start, NowNs());
  // One WriteAll carries exactly one frame: [u32 length][u8 verb][payload].
  if (bytes.size() >= 5) last_verb_ = static_cast<uint8_t>(bytes.data()[4]);
  sent_ns_ = NowNs();
  awaiting_ = true;
  return s;
}

StatusOr<size_t> TracedStream::ReadSome(char* buf, size_t cap) {
  const int64_t start = NowNs();
  auto n = base_->ReadSome(buf, cap);
  const int64_t end = NowNs();
  if (awaiting_) {
    // Time to the first reply byte: the peer's work plus the wire.
    awaiting_ = false;
    Tracer::Add("net.wait", start, end);
    if (last_verb_ == static_cast<uint8_t>(forkbase::Verb::kOffer)) {
      offer_ns().fetch_add(static_cast<uint64_t>(end - sent_ns_));
    }
  } else {
    Tracer::Add("net.recv", start, end);
  }
  return n;
}

forkbase::ForkBaseClient Connect(const std::string& address, bool traced) {
  if (!traced) {
    return ValueOrDie(forkbase::ForkBaseClient::Connect(address),
                      "connect " + address);
  }
  auto socket = ValueOrDie(forkbase::SocketStream::Connect(address, 10'000),
                           "connect " + address);
  return ValueOrDie(forkbase::ForkBaseClient::Attach(
                        std::make_unique<TracedStream>(std::move(socket))),
                    "handshake " + address);
}

// ------------------------------------------------------------------ stack --

Stack OpenStack(const std::string& dir, size_t cache_bytes, bool traced) {
  Stack stack;
  if (!traced) {
    ForkBase::Config config;
    config.cache_bytes = cache_bytes;
    stack.db = ValueOrDie(ForkBase::Open(dir, config), "open " + dir);
    return stack;
  }
  // The stack ForkBase::Open builds for a default Config, with the span
  // recorder on top.
  const ForkBase::Config defaults;
  forkbase::FileChunkStore::Options options;
  options.prefetch_threads = defaults.prefetch_threads;
  options.fsync_on_flush = defaults.fsync;
  options.maintenance_threads = defaults.maintenance_threads;
  auto file = ValueOrDie(forkbase::FileChunkStore::Open(dir, options),
                         "open " + dir);
  auto cache = std::make_shared<forkbase::CachingChunkStore>(
      std::shared_ptr<forkbase::ChunkStore>(std::move(file)), cache_bytes);
  stack.cache = cache.get();
  auto top = std::make_shared<TracedChunkStore>(std::move(cache));
  stack.traced = top.get();
  stack.db = std::make_unique<ForkBase>(std::move(top));
  return stack;
}

forkbase::ForkBaseStats::Cache Stack::CacheStats() const {
  if (cache != nullptr) {
    const auto s = cache->cache_stats();
    return {s.hits, s.misses, s.evictions, s.resident_bytes};
  }
  return db->Stat().cache.value_or(forkbase::ForkBaseStats::Cache{});
}

uint64_t Stack::PhysicalBytes() const {
  return db->store()->stats().physical_bytes;
}

// ------------------------------------------------------------------ serve --

ServeProcess::ServeProcess(const std::string& cli, const std::string& db_dir,
                           const std::string& socket_path)
    : address_("unix:" + socket_path) {
  ::unlink(socket_path.c_str());
  const std::string log = db_dir + "/serve.log";
  pid_ = ::fork();
  if (pid_ < 0) Die("fork failed");
  if (pid_ == 0) {
    // A load generator that dies must not leave its server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    FILE* f = std::freopen(log.c_str(), "w", stdout);
    if (f != nullptr) ::dup2(::fileno(stdout), 2);
    ::execl(cli.c_str(), cli.c_str(), "--db", db_dir.c_str(), "serve",
            address_.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      Die("forkbase_cli serve exited at start; see " + log);
    }
    auto client = forkbase::ForkBaseClient::Connect(address_);
    if (client.ok()) {
      client->Close();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop();
  Die("forkbase_cli serve did not come up on " + address_);
}

ServeProcess::~ServeProcess() { Stop(); }

void ServeProcess::Stop(int signal) {
  if (pid_ <= 0) return;
  ::kill(pid_, signal);
  int status = 0;
  struct rusage ru {};
  const pid_t got = ::wait4(pid_, &status, 0, &ru);
  pid_ = -1;
  if (got < 0) return;
  cpu_s_ = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::map<std::string, std::string> RemoteStat(forkbase::ForkBaseClient* c) {
  auto kvs = ValueOrDie(c->Stat(), "STAT");
  return {kvs.begin(), kvs.end()};
}

uint64_t StatU64(const std::map<std::string, std::string>& stat,
                 const std::string& key) {
  auto it = stat.find(key);
  return it == stat.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

HeadMap LocalHeads(ForkBase* db) {
  HeadMap heads;
  for (const auto& key : db->ListKeys()) {
    for (const auto& [branch, uid] : db->branches().Heads(key)) {
      heads[{key, branch}] = uid;
    }
  }
  return heads;
}

HeadMap RemoteHeads(forkbase::ForkBaseClient* c) {
  HeadMap heads;
  for (const auto& h : ValueOrDie(c->Heads(), "HEADS")) {
    heads[{h.key, h.branch}] = h.uid;
  }
  return heads;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string MakeDir(const std::string& path) {
  RemoveTree(path);
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) Die("cannot create " + path + ": " + ec.message());
  return path;
}

void RecordProcess(Results* r, double server_cpu_s, double server_rss_mb) {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  r->Value("proc.cpu_s",
           static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                   1e-6);
  r->Value("proc.peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  r->Value("proc.server_cpu_s", server_cpu_s);
  r->Value("proc.server_peak_rss_mb", server_rss_mb);
}

void RecordStoreReplays(Results* r, ForkBase* db, const std::string& dir,
                        size_t frame_payload_bytes) {
  forkbase::Rng rng(0x5eed);
  const std::string value = rng.NextString(1024);
  // BranchTable::SaveToFile at the run's head count: what serve's
  // after_mutation hook does on every mutation.
  const std::string path = dir + "/probe-branches.tsv";
  size_t heads = 0;
  for (const auto& key : db->branches().Keys()) {
    heads += db->branches().Branches(key).size();
  }
  r->Value("store.branch_table.heads", static_cast<double>(heads));
  for (int i = 0; i < 32; ++i) {
    const int64_t start = NowNs();
    CheckOk(db->branches().SaveToFile(path), "probe save");
    r->Sample("store.branch_table.save_us",
              static_cast<double>(NowNs() - start) * 1e-3);
  }
  // ForkBase::Put at the run's head count: the commit path a served PUT
  // pays, without the head-table hook.
  for (int i = 0; i < 64; ++i) {
    const std::string key = "perfbench.probe." + std::to_string(i);
    const int64_t start = NowNs();
    CheckOk(db->Put(key, forkbase::Value::String(value)).status(),
            "probe put");
    r->Sample("store.commit_us", static_cast<double>(NowNs() - start) * 1e-3);
  }
  // Frame codec at the workload's typical request size.
  const std::string payload = rng.NextString(frame_payload_bytes);
  for (int i = 0; i < 64; ++i) {
    int64_t start = NowNs();
    std::string frame = forkbase::EncodeFrame(forkbase::Verb::kPut, payload);
    r->Sample("net.frame.encode_ns", static_cast<double>(NowNs() - start));
    start = NowNs();
    forkbase::FrameParser parser;
    parser.Feed(forkbase::Slice(frame));
    auto next = parser.Next();
    const bool ok = next.ok() && next->has_value() &&
                    (*next)->payload.size() == payload.size();
    r->Sample("net.frame.parse_ns", static_cast<double>(NowNs() - start));
    if (!ok) Die("frame parse replay failed");
  }
}

LoopBaseline TakeBaseline(const Stack& stack) {
  return {stack.PhysicalBytes(), stack.CacheStats(),
          stack.db->store()->stats(), Counters().Take()};
}

void RecordChunkLayer(Results* r, const Stack& stack, const LoopBaseline& base,
                      uint64_t user_bytes) {
  const uint64_t physical = stack.PhysicalBytes();
  r->Value("storage_bytes_per_user_byte",
           user_bytes ? static_cast<double>(physical - base.physical_bytes) /
                            static_cast<double>(user_bytes)
                      : 0);
  r->Value("chunk.physical_bytes", static_cast<double>(physical));
  const auto cache = stack.CacheStats();
  const double hits = cache.hits - base.cache.hits;
  const double misses = cache.misses - base.cache.misses;
  r->Value("chunk.cache.hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0);
  r->Value("chunk.cache.evictions", cache.evictions - base.cache.evictions);
  const auto store = stack.db->store()->stats();
  const double puts = store.put_calls - base.store.put_calls;
  r->Value("chunk.dedup_hit_ratio",
           puts > 0 ? (store.dedup_hits - base.store.dedup_hits) / puts : 0);
  const auto c = Counters().Take() - base.counters;
  r->Value("chunk.put.calls", static_cast<double>(c.put_chunks));
  r->Value("chunk.put.ms", c.put_ns * 1e-6);
  r->Value("chunk.put.bytes", static_cast<double>(c.put_bytes));
  r->Value("chunk.get.calls", static_cast<double>(c.get_chunks));
  r->Value("chunk.get.ms", c.get_ns * 1e-6);
}

std::optional<forkbase::SyncStats> TimedPush(
    Results* r, ForkBase* db, forkbase::ForkBaseClient* client,
    const forkbase::SyncOptions& options, bool traced) {
  r->Attempted();
  const uint64_t offer0 = TracedStream::offer_ns().load();
  const int64_t start = NowNs();
  StatusOr<forkbase::SyncStats> pushed = Status::NotFound("");
  {
    Span op("op.push");
    Span span("net.sync.push");
    pushed = forkbase::SyncPush(db, client, options);
  }
  const double ms = (NowNs() - start) * 1e-6;
  if (!pushed.ok()) {
    r->Failed();
    r->Check("push", false, pushed.status().ToString());
    return std::nullopt;
  }
  r->Sample("push_ms", ms);
  r->Sample("net.sync.rounds", static_cast<double>(pushed->rounds));
  r->Sample("net.sync.chunks_offered",
            static_cast<double>(pushed->chunks_offered));
  r->Sample("net.sync.chunks_sent", static_cast<double>(pushed->chunks_sent));
  r->Sample("net.sync.bytes_sent", static_cast<double>(pushed->bytes_sent));
  if (traced) {
    r->Sample("net.sync.offer_ms",
              (TracedStream::offer_ns().load() - offer0) * 1e-6);
  }
  return *pushed;
}

Stack TimedClone(Results* r, const std::string& address,
                 const std::string& dir, const HeadMap& expected) {
  Stack clone = OpenStack(MakeDir(dir), 64ull << 20, false);
  auto client = Connect(address, false);
  r->Attempted();
  const int64_t start = NowNs();
  auto pulled = forkbase::SyncPull(clone.db.get(), &client);
  const double s = SecondsSince(start);
  client.Close();
  if (!pulled.ok()) {
    r->Failed();
    r->Check("clone", false, pulled.status().ToString());
  } else {
    r->Sample("clone_mb_s", pulled->bytes_received / 1e6 / s);
    r->Check("clone_heads", LocalHeads(clone.db.get()) == expected);
  }
  return clone;
}

void RecordServerStat(Results* r, forkbase::ForkBaseClient* client) {
  const auto stat = RemoteStat(client);
  r->Value("net.server.requests_served", StatU64(stat, "net_requests_served"));
  r->Value("net.server.requests_shed", StatU64(stat, "net_requests_shed"));
  r->Value("net.server.protocol_errors", StatU64(stat, "net_protocol_errors"));
  auto backend = stat.find("sha256_backend");
  r->Context("sha256_backend",
             backend == stat.end() ? "unknown" : backend->second);
}

double CloneAndReload(Results* r, const Args& a, const std::string& address,
                      const HeadMap& expected, const std::string& csv,
                      size_t cache_bytes) {
  const int64_t start = NowNs();
  const std::string clone_dir = a.work + "/clone";
  TimedClone(r, address, clone_dir, expected);
  RemoveTree(clone_dir);
  const std::string load_dir = MakeDir(a.work + "/reload");
  {
    Stack stack = OpenStack(load_dir, cache_bytes, false);
    const int64_t load_start = NowNs();
    auto doc = ValueOrDie(forkbase::ParseCsv(forkbase::Slice(csv)), "parse");
    CheckOk(stack.db->PutTableFromCsv("reload", doc).status(), "reload");
    r->Sample("ingest_mb_s", static_cast<double>(csv.size()) / 1e6 /
                                 SecondsSince(load_start));
  }
  RemoveTree(load_dir);
  return SecondsSince(start);
}

void ReplayIngest(Results* r, ForkBase* db, const forkbase::CsvDocument& doc,
                  const std::vector<std::string>& chunks, double parse_ms,
                  double put_ms, double total_ms) {
  std::vector<forkbase::Slice> spans;
  uint64_t bytes = 0;
  for (const auto& c : chunks) {
    spans.emplace_back(c);
    bytes += c.size();
  }
  int64_t start = NowNs();
  auto digests = forkbase::Sha256Many(spans, forkbase::SharedHashPool());
  const double sha_ms = (NowNs() - start) * 1e-6;
  if (digests.size() != spans.size()) Die("sha replay");
  r->Value("util.sha256.ms", sha_ms);
  r->Value("util.sha256.bytes", static_cast<double>(bytes));

  // The table's leaf entry stream, as FTable lays it out: row key → row.
  std::vector<std::string> entries;
  entries.reserve(doc.rows.size());
  uint64_t entry_bytes = 0;
  for (const auto& row : doc.rows) {
    entries.push_back(forkbase::EncodeMapEntry(
        forkbase::Slice(row[0]),
        forkbase::Slice(forkbase::FTable::EncodeRow(row))));
    entry_bytes += entries.back().size();
  }
  forkbase::NodeSplitter splitter(forkbase::SplitConfig::Entries());
  uint64_t nodes = 0;
  start = NowNs();
  for (const auto& e : entries) {
    if (splitter.AddEntry(forkbase::Slice(e))) {
      ++nodes;
      splitter.ResetNode();
    }
  }
  const double split_ms = (NowNs() - start) * 1e-6;
  if (nodes == 0) Die("splitter replay closed no node");
  r->Value("postree.split.ms", split_ms);
  r->Value("postree.split.bytes", static_cast<double>(entry_bytes));

  start = NowNs();
  CheckOk(forkbase::FTable::FromCsv(db->store(), doc).status(),
          "table build replay");
  r->Value("types.table.build_ms", (NowNs() - start) * 1e-6);
  r->Value("ingest.unaccounted_share",
           1.0 - (parse_ms + split_ms + sha_ms + put_ms) / total_ms);
}

void ReplayBundle(Results* r, ForkBase* db, const Hash256& head) {
  std::string bundle;
  int64_t start = NowNs();
  CheckOk(forkbase::ExportDeltaBundle(*db->store(), {head}, {},
                                      [&bundle](forkbase::Slice s) {
                                        bundle.append(s.data(), s.size());
                                        return Status::OK();
                                      })
              .status(),
          "export replay");
  r->Value("store.bundle.export_ms", (NowNs() - start) * 1e-6);
  forkbase::MemChunkStore sink;
  start = NowNs();
  CheckOk(forkbase::ImportBundle(forkbase::Slice(bundle), &sink).status(),
          "import replay");
  r->Value("store.bundle.import_ms", (NowNs() - start) * 1e-6);
}

}  // namespace perfbench
