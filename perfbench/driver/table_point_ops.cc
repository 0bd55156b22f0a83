// table_point_ops: the paper's fine-grained edit. One thread runs a closed
// loop on a ~2 MiB table opened with the default 64 MiB read cache, which
// holds it: GetTable+GetRow on uniformly chosen rows, and every 20th
// operation (5%) an UpdateTableCell. POS-tree lookup and the keyed-update
// rebuild dominate; writes sit beside reads, so a gain for one that costs
// the other shows here. (A cache smaller than the table sends every rebuild
// through file-store reads, whose latency varies too much between runs on a
// shared host to gate on.)
//
// Each update is diffed against its predecessor and pushed to a
// `forkbase_cli serve` replica; every few updates the loop also clones the
// replica and loads the CSV into a fresh instance.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "common.h"
#include "util/datagen.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr size_t kCsvBytes = 2ull << 20;
constexpr size_t kCacheBytes = 64ull << 20;
constexpr uint64_t kWriteEvery = 20;  // every 20th operation is an update
constexpr int kSetups = 5;
constexpr int kSideEvery = 4;  // updates per clone + fresh load in the loop
const char* const kKey = "table";

}  // namespace

void RunTablePointOps(const Args& a, Results* r) {
  forkbase::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 2);
  forkbase::CsvGenOptions gen;
  gen.seed = a.seed;
  gen.target_bytes = kCsvBytes;
  const forkbase::CsvDocument base = forkbase::GenerateCsv(gen);
  const std::string text = forkbase::WriteCsv(base);
  const size_t nrows = base.rows.size(), ncols = base.header.size();
  r->Value("input.csv_bytes", static_cast<double>(text.size()));
  r->Value("input.rows", static_cast<double>(nrows));

  // ---- set-up, repeated; the last instance is the one measured: replica
  // `serve` start, open, CSV load, initial push.
  std::string dir, replica_dir;
  std::unique_ptr<ServeProcess> replica;
  Stack stack;
  std::vector<std::string> capture;
  double parse_ms = 0, put_ms = 0, load_ms = 0;
  for (int n = 0; n < kSetups; ++n) {
    if (replica) {
      replica->Stop();
      stack = Stack{};
      RemoveTree(dir);
      RemoveTree(replica_dir);
    }
    const int64_t start = NowNs();
    replica_dir = MakeDir(a.work + "/replica" + std::to_string(n));
    replica = std::make_unique<ServeProcess>(
        a.cli, replica_dir, a.work + "/r" + std::to_string(n) + ".sock");
    dir = MakeDir(a.work + "/table" + std::to_string(n));
    stack = OpenStack(dir, kCacheBytes, a.trace);
    const bool capture_now = a.trace && n == kSetups - 1;
    if (capture_now) stack.traced->set_capture(&capture);
    const auto counters0 = Counters().Take();
    const int64_t load_start = NowNs();
    auto doc = ValueOrDie(forkbase::ParseCsv(forkbase::Slice(text)), "parse");
    parse_ms = (NowNs() - load_start) * 1e-6;
    CheckOk(stack.db->PutTableFromCsv(kKey, doc).status(), "initial load");
    load_ms = (NowNs() - load_start) * 1e-6;
    put_ms = (Counters().Take() - counters0).put_ns * 1e-6;
    if (capture_now) stack.traced->set_capture(nullptr);
    auto client = Connect(replica->address(), a.trace);
    CheckOk(forkbase::SyncPush(stack.db.get(), &client,
                               forkbase::SyncOptions())
                .status(),
            "initial push");
    client.Close();
    r->Sample("setup_s", SecondsSince(start));
    r->Sample("util.csv.parse_ms", parse_ms);
  }
  ForkBase* db = stack.db.get();
  auto client = Connect(replica->address(), a.trace);

  // ---- measured loop.
  std::map<size_t, std::map<size_t, std::string>> model;  // row → col → v
  std::vector<Hash256> versions = {ValueOrDie(db->Head(kKey), "head")};
  std::vector<size_t> updated_rows;  // row of the update producing versions[i+1]
  uint64_t user_bytes = 0, ops = 0;
  double side_s = 0;  // loop time spent in CloneAndReload
  const LoopBaseline baseline = TakeBaseline(stack);
  const int64_t loop_start = NowNs();
  const int64_t deadline = loop_start + static_cast<int64_t>(a.seconds * 1e9);
  const int64_t trace_from = loop_start + (deadline - loop_start) / 2;
  while (NowNs() < deadline) {
    if (a.trace && !Tracer::on() && NowNs() >= trace_from) {
      Tracer::Enable(true);
    }
    const size_t row = rng.Uniform(nrows);
    const std::string& row_key = base.rows[row][0];
    r->Attempted();
    if (ops++ % kWriteEvery == kWriteEvery - 1) {
      const size_t col = 1 + rng.Uniform(ncols - 1);
      char value[16];
      std::snprintf(value, sizeof(value), "u%08zu", updated_rows.size());
      const auto c0 = Counters().Take();
      const int64_t t0 = NowNs();
      StatusOr<Hash256> uid = Status::NotFound("");
      {
        Span op("op.write");
        Span span("postree.update");
        uid = db->UpdateTableCell(kKey, forkbase::Slice(row_key), col, value);
      }
      const int64_t t1 = NowNs();
      if (!uid.ok()) {
        r->Failed();
        r->Check("update", false, uid.status().ToString());
        continue;
      }
      r->Sample("write_us", (t1 - t0) * 1e-3);
      r->Sample("version_ms", (t1 - t0) * 1e-6);
      if (a.trace) {
        const auto c = Counters().Take() - c0;
        r->Sample("postree.update.bytes_rebuilt",
                  static_cast<double>(c.put_bytes));
        r->Sample("postree.update.chunks_put",
                  static_cast<double>(c.put_chunks));
      }
      // What this commit changed: exactly the updated row. Timed here, in
      // the loop, so the samples spread over the run.
      const int64_t d0 = NowNs();
      auto diff = db->DiffVersions(versions.back(), *uid);
      const double diff_ms = (NowNs() - d0) * 1e-6;
      if (!diff.ok()) {
        r->Check("diff", false, diff.status().ToString());
      } else {
        r->Sample("diff_ms", diff_ms);
        r->Sample("postree.diff.ms", diff_ms);
        r->Sample("postree.diff.nodes_loaded",
                  static_cast<double>(diff->metrics.nodes_loaded));
        if (diff->rows.size() != 1 || diff->rows[0].key != row_key) {
          r->Check("diff_row", false, "row " + row_key);
        }
      }
      // Publish the new version: an incremental push to the replica.
      TimedPush(r, db, &client, forkbase::SyncOptions(), a.trace);
      model[row][col] = value;
      versions.push_back(*uid);
      updated_rows.push_back(row);
      user_bytes += std::strlen(value);
      if (updated_rows.size() % kSideEvery == 0) {
        side_s += CloneAndReload(r, a, replica->address(), LocalHeads(db),
                                 text, kCacheBytes);
      }
    } else {
      const auto c0 = Counters().Take();
      const int64_t t0 = NowNs();
      int64_t t1 = 0;
      StatusOr<std::optional<std::vector<std::string>>> got =
          Status::NotFound("");
      {
        Span op("op.read");
        StatusOr<forkbase::FTable> table = Status::NotFound("");
        {
          Span span("store.head_resolve");
          table = db->GetTable(kKey);
        }
        t1 = NowNs();
        if (table.ok()) {
          Span span("postree.lookup");
          got = table->GetRow(forkbase::Slice(row_key));
        }
      }
      const int64_t t2 = NowNs();
      if (!got.ok()) {
        r->Failed();
        r->Check("read", false, got.status().ToString());
        continue;
      }
      r->Sample("read_us", (t2 - t0) * 1e-3);
      r->Sample("store.head_resolve_us", (t1 - t0) * 1e-3);
      r->Sample(Tracer::on() ? "trace.traced_op" : "trace.untraced_op",
                (t2 - t0) * 1e-6);
      if (a.trace) {
        r->Sample("postree.lookup.chunk_gets",
                  static_cast<double>((Counters().Take() - c0).get_chunks));
      }
      std::vector<std::string> expected = base.rows[row];
      auto it = model.find(row);
      if (it != model.end()) {
        for (const auto& [c, v] : it->second) expected[c] = v;
      }
      if (!got->has_value() || **got != expected) {
        r->Check("read_model", false, "row " + row_key);
      }
    }
  }
  const double loop_s = SecondsSince(loop_start) - side_s;
  Tracer::Enable(false);
  r->Value("ops_s", ops / loop_s);
  RecordChunkLayer(r, stack, baseline, user_bytes);

  // ---- every updated row reads back as the model says (uniform reads in
  // the loop rarely land on one).
  {
    auto table = ValueOrDie(db->GetTable(kKey), "final table");
    for (const auto& [row, cells] : model) {
      std::vector<std::string> expected = base.rows[row];
      for (const auto& [c, v] : cells) expected[c] = v;
      auto got = table.GetRow(forkbase::Slice(base.rows[row][0]));
      if (!got.ok() || !got->has_value() || **got != expected) {
        r->Check("updated_row", false, "row " + base.rows[row][0]);
      }
    }
  }

  // ---- the first version against the last lists every updated row.
  const Hash256 final_uid = versions.back();
  {
    r->Attempted();
    auto diff = db->DiffVersions(versions.front(), final_uid);
    const std::set<size_t> expected(updated_rows.begin(), updated_rows.end());
    if (!diff.ok()) {
      r->Failed();
      r->Check("diff_all", false, diff.status().ToString());
    } else if (diff->rows.size() != expected.size()) {
      r->Check("diff_all_rows", false,
               std::to_string(diff->rows.size()) + " rows, " +
                   std::to_string(expected.size()) + " updated");
    }
  }
  const Status verified = db->Verify(final_uid);
  r->Check("verify", verified.ok(), verified.ToString());

  // ---- the replica holds every pushed version.
  r->Check("replica_heads", RemoteHeads(&client) == LocalHeads(db));
  RecordServerStat(r, &client);
  client.Close();

  if (a.trace) {
    ReplayIngest(r, db, base, capture, parse_ms, put_ms, load_ms);
    ReplayBundle(r, db, final_uid);
    RecordStoreReplays(r, db, a.work, 1 << 20);
  }
  replica->Stop();
  RecordProcess(r, replica->cpu_s(), replica->peak_rss_mb());
}

}  // namespace perfbench
