// serve_kv: the served KV path. `forkbase_cli serve` runs on a unix socket
// with CLI defaults (fsync off, no group commit) over ~3,000 heads (1,000
// keys x 3 branches, 1 KiB strings). Three client connections, one thread
// each, run a closed loop with Zipf(0.99) key choice: 70% GET, 20% PUT and
// 10% GET-then-COMMIT with the read uid as expected head. Frames, the poll
// loop, the worker pool, the commit path and the per-mutation head-table
// hook dominate; chunking and POS-trees do almost nothing.
//
// After the loop every head is checked against the acknowledged writes,
// the server is restarted and checked again, then diffed, cloned and
// pushed to.
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "common.h"
#include "util/random.h"
#include "util/sha256.h"

namespace perfbench {
namespace {

constexpr int kKeys = 1000;
constexpr int kBranches = 3;
constexpr size_t kValueBytes = 1024;
constexpr int kClients = 3;
constexpr double kZipfTheta = 0.99;
constexpr int kSetups = 3;
constexpr int kClones = 5;
constexpr int kDiffs = 1000;
constexpr int kPushes = 64;
const char* const kBranchNames[kBranches] = {"master", "b1", "b2"};

std::string KeyName(int k) {
  std::string name = "k";
  return name += std::to_string(k);
}

/// Zipf(theta) over [0, n) by inverse CDF, ranks scattered over the keys.
class Zipf {
 public:
  Zipf(int n, double theta, uint64_t seed) : cdf_(n), key_of_rank_(n) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(i + 1, theta);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    for (int i = 0; i < n; ++i) key_of_rank_[i] = i;
    forkbase::Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {
      std::swap(key_of_rank_[i], key_of_rank_[rng.Uniform(i + 1)]);
    }
  }
  int Next(forkbase::Rng* rng) const {
    const double u = rng->NextDouble();
    const size_t rank =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return key_of_rank_[std::min(rank, cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int> key_of_rank_;
};

/// One acknowledged write to a head, with when it was sent and acked.
struct Write {
  Hash256 uid;
  std::string value;
  int64_t sent = 0, acked = 0;
};

/// The acknowledged writes of every head. The final value of a head must be
/// one no later write supersedes: no other acknowledged write to it was
/// sent after this one was acknowledged.
class Model {
 public:
  void Record(int key, int branch, Write w) {
    std::lock_guard<std::mutex> lock(mu_);
    writes_[{key, branch}].push_back(std::move(w));
  }
  bool Admits(int key, int branch, const Hash256& uid,
              const std::string& value) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = writes_.find({key, branch});
    if (it == writes_.end()) return false;
    int64_t last_sent = 0;
    for (const auto& w : it->second) last_sent = std::max(last_sent, w.sent);
    for (const auto& w : it->second) {
      if (w.uid == uid) return w.value == value && w.acked >= last_sent;
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, std::vector<Write>> writes_;
};

struct ClientStats {
  uint64_t ops = 0, commits = 0, conflicts = 0;
  uint64_t user_bytes = 0;
};

}  // namespace

void RunServeKv(const Args& a, Results* r) {
  const Zipf zipf(kKeys, kZipfTheta, a.seed);
  r->Value("input.heads", kKeys * kBranches);
  r->Value("input.value_bytes", kValueBytes);

  // ---- set-up, repeated: server start, connections, preload.
  std::string dir, sock = a.work + "/kv.sock";
  std::unique_ptr<ServeProcess> serve;
  std::vector<forkbase::ForkBaseClient> clients;
  auto model = std::make_unique<Model>();
  for (int n = 0; n < kSetups; ++n) {
    if (serve) {
      for (auto& c : clients) c.Close();
      clients.clear();
      serve->Stop();
      RemoveTree(dir);
      model = std::make_unique<Model>();
    }
    const int64_t start = NowNs();
    dir = MakeDir(a.work + "/kv" + std::to_string(n));
    serve = std::make_unique<ServeProcess>(a.cli, dir, sock);
    for (int t = 0; t < kClients; ++t) {
      clients.push_back(Connect(serve->address(), a.trace));
    }
    const int64_t load_start = NowNs();
    std::vector<std::thread> loaders;
    for (int t = 0; t < kClients; ++t) {
      loaders.emplace_back([&, t] {
        forkbase::Rng rng(a.seed * 1000 + n * 10 + t);
        for (int k = t; k < kKeys; k += kClients) {
          for (int b = 0; b < kBranches; ++b) {
            Write w;
            w.value = rng.NextString(kValueBytes);
            w.sent = NowNs();
            w.uid = ValueOrDie(clients[t].Put(KeyName(k), w.value,
                                              kBranchNames[b], "perfbench",
                                              ""),
                               "preload put");
            w.acked = NowNs();
            model->Record(k, b, std::move(w));
          }
        }
      });
    }
    for (auto& th : loaders) th.join();
    const double load_s = SecondsSince(load_start);
    r->Sample("setup_s", SecondsSince(start));
    r->Sample("ingest_mb_s",
              kKeys * kBranches * static_cast<double>(kValueBytes) / 1e6 /
                  load_s);
  }

  // ---- measured loop.
  const auto stat0 = RemoteStat(&clients[0]);
  std::vector<ClientStats> per_client(kClients);
  const int64_t loop_start = NowNs();
  const int64_t deadline = loop_start + static_cast<int64_t>(a.seconds * 1e9);
  const int64_t trace_from = loop_start + (deadline - loop_start) / 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      forkbase::Rng rng(a.seed * 7919 + t);
      forkbase::ForkBaseClient& c = clients[t];
      ClientStats& st = per_client[t];
      while (NowNs() < deadline) {
        if (t == 0 && a.trace && !Tracer::on() && NowNs() >= trace_from) {
          Tracer::Enable(true);
        }
        const int k = zipf.Next(&rng);
        const int b = static_cast<int>(rng.Uniform(kBranches));
        const std::string key = KeyName(k);
        const double p = rng.NextDouble();
        r->Attempted();
        if (p < 0.70) {
          const int64_t t0 = NowNs();
          StatusOr<forkbase::ForkBaseClient::GetResult> got =
              Status::NotFound("");
          {
            Span op("op.read");
            Span span("net.rpc.get");
            got = c.Get(key, kBranchNames[b]);
          }
          const double us = (NowNs() - t0) * 1e-3;
          if (!got.ok() || got->value.size() != kValueBytes) {
            r->Failed();
          } else {
            r->Sample("read_us", us);
            r->Sample(Tracer::on() ? "trace.traced_op" : "trace.untraced_op",
                      us * 1e-3);
          }
        } else {
          Write w;
          w.value = rng.NextString(kValueBytes);
          Hash256 expected{};
          const bool cas = p >= 0.90;
          if (cas) {
            auto got = c.Get(key, kBranchNames[b]);
            if (!got.ok()) {
              r->Failed();
              ++st.ops;
              continue;
            }
            expected = got->uid;
          }
          w.sent = NowNs();
          StatusOr<Hash256> uid = Status::NotFound("");
          {
            Span op("op.write");
            Span span(cas ? "net.rpc.commit" : "net.rpc.put");
            uid = cas ? c.Commit(key, w.value, kBranchNames[b], "perfbench",
                                 "", &expected)
                      : c.Put(key, w.value, kBranchNames[b], "perfbench", "");
          }
          w.acked = NowNs();
          const double us = (w.acked - w.sent) * 1e-3;
          if (cas) ++st.commits;
          if (uid.ok()) {
            r->Sample("write_us", us);
            r->Sample("version_ms", us * 1e-3);
            r->Sample(cas ? "kv.commit_us" : "kv.put_us", us);
            st.user_bytes += w.value.size();
            w.uid = *uid;
            model->Record(k, b, std::move(w));
          } else if (cas && uid.status().code() ==
                                forkbase::StatusCode::kAlreadyExists) {
            ++st.conflicts;  // a lost compare-and-set is a correct outcome
            r->Sample("write_us", us);
          } else {
            r->Failed();
          }
        }
        ++st.ops;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double loop_s = SecondsSince(loop_start);
  Tracer::Enable(false);
  ClientStats total;
  for (const auto& st : per_client) {
    total.ops += st.ops;
    total.commits += st.commits;
    total.conflicts += st.conflicts;
    total.user_bytes += st.user_bytes;
  }
  r->Value("ops_s", total.ops / loop_s);
  r->Value("store.cas_conflict_share",
           total.commits ? static_cast<double>(total.conflicts) /
                               static_cast<double>(total.commits)
                         : 0);
  const auto stat1 = RemoteStat(&clients[0]);
  auto delta = [&](const char* key) {
    return static_cast<double>(StatU64(stat1, key) - StatU64(stat0, key));
  };
  r->Value("storage_bytes_per_user_byte",
           total.user_bytes ? delta("physical_bytes") / total.user_bytes : 0);
  r->Value("chunk.physical_bytes", StatU64(stat1, "physical_bytes"));
  {
    const double hits = delta("cache_hits"), misses = delta("cache_misses");
    r->Value("chunk.cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0);
    r->Value("chunk.cache.evictions", delta("cache_evictions"));
    const double puts = delta("put_calls");
    r->Value("chunk.dedup_hit_ratio",
             puts > 0 ? delta("dedup_hits") / puts : 0);
    r->Value("chunk.put.calls", puts);
    r->Value("chunk.get.calls", delta("get_calls"));
  }
  RecordServerStat(r, &clients[0]);

  // ---- every head holds a write no acknowledged write supersedes, before
  // and after the server is killed and restarted: an acknowledged write
  // must survive a crash of the serving process.
  std::map<std::pair<int, int>, forkbase::ForkBaseClient::GetResult> observed;
  for (int k = 0; k < kKeys; ++k) {
    for (int b = 0; b < kBranches; ++b) {
      auto got = ValueOrDie(clients[0].Get(KeyName(k), kBranchNames[b]),
                            "final get");
      if (!model->Admits(k, b, got.uid, got.value)) {
        r->Check("final_value", false, KeyName(k) + "@" + kBranchNames[b]);
      }
      observed[{k, b}] = std::move(got);
    }
  }
  for (auto& c : clients) c.Close();
  clients.clear();
  serve->Stop(SIGKILL);
  double server_cpu_s = serve->cpu_s(), server_rss_mb = serve->peak_rss_mb();
  serve = std::make_unique<ServeProcess>(a.cli, dir, sock);
  auto client = Connect(serve->address(), a.trace);
  bool restart_ok = true;
  for (const auto& [kb, want] : observed) {
    auto got = client.Get(KeyName(kb.first), kBranchNames[kb.second]);
    if (!got.ok() || got->uid != want.uid || got->value != want.value) {
      restart_ok = false;
    }
  }
  r->Check("restart_values", restart_ok);

  // ---- DIFF between branches: identical exactly when the values match.
  for (int i = 0; i < kDiffs; ++i) {
    const int k = i * kKeys / kDiffs;
    r->Attempted();
    const int64_t t0 = NowNs();
    auto diff = client.Diff(KeyName(k), kBranchNames[0], kBranchNames[1]);
    const double ms = (NowNs() - t0) * 1e-6;
    if (!diff.ok()) {
      r->Failed();
      r->Check("diff", false, diff.status().ToString());
      continue;
    }
    r->Sample("diff_ms", ms);
    const bool same = observed[{k, 0}].value == observed[{k, 1}].value;
    if ((*diff == "identical\n") != same) {
      r->Check("diff_identical", false, KeyName(k));
    }
  }

  // ---- clones of the served store, then pushes of local commits back.
  const HeadMap heads = RemoteHeads(&client);
  Stack clone;
  for (int n = 0; n < kClones; ++n) {
    const std::string clone_dir = a.work + "/clone" + std::to_string(n);
    clone = TimedClone(r, serve->address(), clone_dir, heads);
    if (n + 1 < kClones) {
      clone = Stack{};
      RemoveTree(clone_dir);
    }
  }
  forkbase::Rng rng(a.seed * 31 + 5);
  for (int i = 0; i < kPushes; ++i) {
    const std::string key = KeyName(zipf.Next(&rng));
    const std::string value = rng.NextString(kValueBytes);
    CheckOk(clone.db->Put(key, forkbase::Value::String(value)).status(),
            "local commit");
    forkbase::SyncOptions options;
    options.keys = {key};
    if (!TimedPush(r, clone.db.get(), &client, options, a.trace)) continue;
    auto got = client.Get(key, ForkBase::kDefaultBranch);
    if (!got.ok() || got->value != value) {
      r->Check("pushed_value", false, key);
    }
  }
  client.Close();
  serve->Stop();
  server_cpu_s += serve->cpu_s();
  server_rss_mb = std::max(server_rss_mb, serve->peak_rss_mb());

  if (a.trace) {
    // Server-side work replayed in process on the same head count: GET,
    // PUT and COMMIT bodies plus the head-table save the hook adds to each
    // mutation. Client RTT minus these is the network layer's overhead.
    const std::string replay_dir = MakeDir(a.work + "/replay");
    Stack replay = OpenStack(replay_dir, 64ull << 20, true);
    ForkBase* db = replay.db.get();
    forkbase::Rng vrng(a.seed + 99);
    for (int k = 0; k < kKeys; ++k) {
      for (int b = 0; b < kBranches; ++b) {
        CheckOk(db->Put(KeyName(k), forkbase::Value::String(
                                        vrng.NextString(kValueBytes)),
                        kBranchNames[b])
                    .status(),
                "replay preload");
      }
    }
    const std::string tsv = replay_dir + "/branches.tsv";
    std::vector<double> get_us, put_us, commit_us;
    std::vector<std::string> capture;
    const auto counters0 = Counters().Take();
    for (int i = 0; i < 200; ++i) {
      const std::string key = KeyName(zipf.Next(&vrng));
      const std::string branch = kBranchNames[vrng.Uniform(kBranches)];
      int64_t t0 = NowNs();
      auto head = db->Head(key, branch);
      const double head_us = (NowNs() - t0) * 1e-3;
      auto value = db->Get(key, branch);
      get_us.push_back((NowNs() - t0) * 1e-3);
      if (!head.ok() || !value.ok()) Die("replay get");
      r->Sample("store.head_resolve_us", head_us);
      const auto c0 = Counters().Take();
      const auto v = forkbase::Value::String(vrng.NextString(kValueBytes));
      if (i == 0) replay.traced->set_capture(&capture);
      t0 = NowNs();
      CheckOk(db->Put(key, v, branch).status(), "replay put");
      CheckOk(db->branches().SaveToFile(tsv), "replay save");
      put_us.push_back((NowNs() - t0) * 1e-3);
      if (i == 0) replay.traced->set_capture(nullptr);
      const auto c = Counters().Take() - c0;
      r->Sample("postree.update.bytes_rebuilt",
                static_cast<double>(c.put_bytes));
      r->Sample("postree.update.chunks_put",
                static_cast<double>(c.put_chunks));
      const Hash256 expected = ValueOrDie(db->Head(key, branch), "head");
      t0 = NowNs();
      CheckOk(db->PutIf(key, v, expected, branch).status(), "replay putif");
      CheckOk(db->branches().SaveToFile(tsv), "replay save");
      commit_us.push_back((NowNs() - t0) * 1e-3);
    }
    const auto c = Counters().Take() - counters0;
    r->Value("chunk.put.ms", c.put_ns * 1e-6);
    r->Value("chunk.put.bytes", static_cast<double>(c.put_bytes));
    r->Value("chunk.get.ms", c.get_ns * 1e-6);
    r->Value("replay.get_us", Median(get_us));
    r->Value("replay.put_us", Median(put_us));
    r->Value("replay.commit_us", Median(commit_us));
    std::vector<forkbase::Slice> spans(capture.begin(), capture.end());
    uint64_t bytes = 0;
    for (const auto& s : capture) bytes += s.size();
    const int64_t t0 = NowNs();
    forkbase::Sha256Many(spans, forkbase::SharedHashPool());
    r->Value("util.sha256.ms", (NowNs() - t0) * 1e-6);
    r->Value("util.sha256.bytes", static_cast<double>(bytes));
    ReplayBundle(r, db, ValueOrDie(db->Head(KeyName(0)), "head"));
    RecordStoreReplays(r, db, replay_dir, kValueBytes);
  }
  RecordProcess(r, server_cpu_s, server_rss_mb);
}

}  // namespace perfbench
