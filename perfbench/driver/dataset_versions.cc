// dataset_versions: a ~2 MiB CSV dataset loaded through the put-csv path,
// then re-committed whole as a series of lightly edited versions on four
// branches; each version is read back, diffed against the branch's recent
// versions and against master, and pushed to a `forkbase_cli serve`
// replica. Every few versions the loop also clones the replica and loads
// the base CSV into a fresh instance.
//
// Chunking, SHA-256, the tree builder, dedup and bundle/sync do the work;
// the served request path and its head-table hook do almost none. The store
// fits the default 64 MiB read cache.
#include <deque>
#include <map>

#include "common.h"
#include "util/datagen.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr size_t kCsvBytes = 2ull << 20;
constexpr size_t kCacheBytes = 64ull << 20;
constexpr int kBranches = 4;
constexpr int kEditsPerVersion = 8;
constexpr int kReadsPerVersion = 1024;
constexpr int kDiffDepth = 4;  // recent versions each new one is diffed against
constexpr int kSetups = 5;
constexpr int kSideEvery = 3;  // cycles per clone + fresh load in the loop
const char* const kKey = "dataset";

using Edits = std::map<size_t, std::map<size_t, std::string>>;  // row→col→v

std::string BranchName(int b) {
  std::string name = "b";
  return name += std::to_string(b);
}

/// The base document with one branch's cumulative edits applied, as CSV.
std::string RenderCsv(const forkbase::CsvDocument& base, const Edits& edits) {
  std::string out;
  out.reserve(kCsvBytes + (1 << 20));
  auto append_row = [&out](const std::vector<std::string>& cells,
                           const std::map<size_t, std::string>* patch) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c) out.push_back(',');
      const std::string* cell = &cells[c];
      if (patch != nullptr) {
        auto it = patch->find(c);
        if (it != patch->end()) cell = &it->second;
      }
      out += forkbase::CsvQuote(*cell);
    }
    out.push_back('\n');
  };
  append_row(base.header, nullptr);
  for (size_t r = 0; r < base.rows.size(); ++r) {
    auto it = edits.find(r);
    append_row(base.rows[r], it == edits.end() ? nullptr : &it->second);
  }
  return out;
}

std::vector<std::string> ExpectedRow(const forkbase::CsvDocument& base,
                                     const Edits& edits, size_t r) {
  std::vector<std::string> row = base.rows[r];
  auto it = edits.find(r);
  if (it != edits.end()) {
    for (const auto& [c, v] : it->second) row[c] = v;
  }
  return row;
}

/// Rows whose content differs between two sets of edits to the base,
/// where `later` extends `earlier` (edits only add or overwrite cells).
size_t ChangedRows(const forkbase::CsvDocument& base, const Edits& earlier,
                   const Edits& later) {
  size_t n = 0;
  for (const auto& entry : later) {
    n += ExpectedRow(base, earlier, entry.first) !=
         ExpectedRow(base, later, entry.first);
  }
  return n;
}

struct Instance {
  std::string src_dir, replica_dir;
  std::unique_ptr<ServeProcess> replica;
  Stack stack;
};

/// Set-up: replica server, source instance, initial CSV load, branches and
/// the initial push that seeds the replica.
void SetUp(const Args& a, const std::string& text, int n, Instance* inst) {
  inst->replica_dir = MakeDir(a.work + "/replica" + std::to_string(n));
  inst->replica = std::make_unique<ServeProcess>(
      a.cli, inst->replica_dir, a.work + "/r" + std::to_string(n) + ".sock");
  inst->src_dir = MakeDir(a.work + "/src" + std::to_string(n));
  inst->stack = OpenStack(inst->src_dir, kCacheBytes, a.trace);
  ForkBase* db = inst->stack.db.get();
  auto doc = ValueOrDie(forkbase::ParseCsv(forkbase::Slice(text)), "parse");
  CheckOk(db->PutTableFromCsv(kKey, doc).status(), "initial load");
  for (int b = 0; b < kBranches; ++b) {
    CheckOk(db->Branch(kKey, BranchName(b)), "branch");
  }
  auto client = Connect(inst->replica->address(), a.trace);
  forkbase::SyncOptions options;
  options.keys = {kKey};
  CheckOk(forkbase::SyncPush(db, &client, options).status(), "initial push");
  client.Close();
}

}  // namespace

void RunDatasetVersions(const Args& a, Results* r) {
  forkbase::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 1);
  forkbase::CsvGenOptions gen;
  gen.seed = a.seed;
  gen.target_bytes = kCsvBytes;
  const forkbase::CsvDocument base = forkbase::GenerateCsv(gen);
  const std::string base_text = RenderCsv(base, {});
  const size_t nrows = base.rows.size(), ncols = base.header.size();
  r->Value("input.csv_bytes", static_cast<double>(base_text.size()));
  r->Value("input.rows", static_cast<double>(nrows));

  // ---- set-up, repeated; the last instance is the one measured.
  Instance inst;
  for (int n = 0; n < kSetups; ++n) {
    if (inst.replica) {
      inst.replica->Stop();
      inst.stack = Stack{};
      RemoveTree(inst.src_dir);
      RemoveTree(inst.replica_dir);
    }
    const int64_t start = NowNs();
    SetUp(a, base_text, n, &inst);
    r->Sample("setup_s", SecondsSince(start));
  }
  ForkBase* db = inst.stack.db.get();
  auto client = Connect(inst.replica->address(), a.trace);
  forkbase::SyncOptions push_options;
  push_options.keys = {kKey};

  // ---- measured loop: one version cycle per iteration.
  std::vector<Edits> edits(kBranches);
  // Per branch, its last kDiffDepth versions (newest first) with the edits
  // each carried.
  std::vector<std::deque<std::pair<Hash256, Edits>>> history(kBranches);
  for (int b = 0; b < kBranches; ++b) {
    history[b].emplace_front(ValueOrDie(db->Head(kKey, BranchName(b)), "head"),
                             Edits{});
  }
  const LoopBaseline baseline = TakeBaseline(inst.stack);
  uint64_t user_bytes = 0;
  int versions = 0;
  double side_s = 0;  // loop time spent in CloneAndReload
  bool captured = false;
  std::vector<std::string> capture;
  forkbase::CsvDocument captured_doc;
  double captured_parse_ms = 0, captured_version_ms = 0, captured_put_ms = 0;
  const int64_t loop_start = NowNs();
  const int64_t deadline = loop_start + static_cast<int64_t>(a.seconds * 1e9);
  const int64_t trace_from = loop_start + (deadline - loop_start) / 2;
  while (NowNs() < deadline) {
    if (a.trace && !Tracer::on() && NowNs() >= trace_from) {
      Tracer::Enable(true);
    }
    const int b = versions % kBranches;
    const std::string branch = BranchName(b);
    std::vector<size_t> touched;
    for (int e = 0; e < kEditsPerVersion; ++e) {
      const size_t row = rng.Uniform(nrows);
      const size_t col = 1 + rng.Uniform(ncols - 1);
      edits[b][row][col] = "edited" + std::to_string(rng.Uniform(100000));
      touched.push_back(row);
    }
    const std::string text = RenderCsv(base, edits[b]);

    // Re-commit the whole version through the put-csv path.
    const bool capture_now = a.trace && Tracer::on() && !captured;
    if (capture_now) inst.stack.traced->set_capture(&capture);
    const auto put_counters0 = Counters().Take();
    r->Attempted();
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    Status put_status;
    forkbase::CsvDocument doc;
    {
      Span op("op.version");
      {
        Span span("util.csv.parse");
        doc = ValueOrDie(forkbase::ParseCsv(forkbase::Slice(text)), "parse");
      }
      t1 = NowNs();
      Span span("types.table.put_csv");
      put_status = db->PutTableFromCsv(kKey, doc, 0, branch).status();
    }
    const int64_t t2 = NowNs();
    if (capture_now) {
      inst.stack.traced->set_capture(nullptr);
      captured = true;
      captured_doc = std::move(doc);
      captured_parse_ms = (t1 - t0) * 1e-6;
      captured_version_ms = (t2 - t0) * 1e-6;
      captured_put_ms =
          (Counters().Take() - put_counters0).put_ns * 1e-6;
    }
    if (!put_status.ok()) {
      r->Failed();
      r->Check("version_commit", false, put_status.ToString());
      break;
    }
    user_bytes += text.size();
    r->Sample("version_ms", (t2 - t0) * 1e-6);
    r->Sample("write_us", (t2 - t1) * 1e-3);
    r->Sample("util.csv.parse_ms", (t1 - t0) * 1e-6);
    r->Sample(Tracer::on() ? "trace.traced_op" : "trace.untraced_op",
              (t2 - t0) * 1e-6);

    // Read rows back from the new version: this version's edits first.
    for (int i = 0; i < kReadsPerVersion; ++i) {
      const size_t row = i < kEditsPerVersion ? touched[i] : rng.Uniform(nrows);
      const auto get0 = Counters().Take();
      r->Attempted();
      const int64_t s0 = NowNs();
      StatusOr<std::optional<std::vector<std::string>>> got =
          Status::NotFound("");
      int64_t s1 = 0;
      {
        Span op("op.read");
        StatusOr<forkbase::FTable> table = Status::NotFound("");
        {
          Span span("store.head_resolve");
          table = db->GetTable(kKey, branch);
        }
        s1 = NowNs();
        if (table.ok()) {
          Span span("postree.lookup");
          got = table->GetRow(forkbase::Slice(base.rows[row][0]));
        }
      }
      const int64_t s2 = NowNs();
      if (!got.ok()) {
        r->Failed();
        r->Check("read_back", false, got.status().ToString());
        continue;
      }
      r->Sample("read_us", (s2 - s0) * 1e-3);
      r->Sample("store.head_resolve_us", (s1 - s0) * 1e-3);
      if (a.trace) {
        r->Sample("postree.lookup.chunk_gets",
                  static_cast<double>((Counters().Take() - get0).get_chunks));
      }
      if (!got->has_value() || **got != ExpectedRow(base, edits[b], row)) {
        r->Check("read_back", false, "row " + base.rows[row][0]);
      }
    }

    // Diff the new version against each of the branch's recent versions
    // (what the last 1..kDiffDepth commits changed), then the branch
    // against master (every row it has edited).
    const Hash256 head = ValueOrDie(db->Head(kKey, branch), "head");
    for (const auto& [old_uid, old_edits] : history[b]) {
      r->Attempted();
      const int64_t d0 = NowNs();
      StatusOr<forkbase::ObjectDiff> diff = Status::NotFound("");
      {
        Span op("op.diff");
        Span span("postree.diff");
        diff = db->DiffVersions(old_uid, head);
      }
      const double diff_ms = (NowNs() - d0) * 1e-6;
      if (!diff.ok()) {
        r->Failed();
        r->Check("diff", false, diff.status().ToString());
        continue;
      }
      r->Sample("diff_ms", diff_ms);
      r->Sample("postree.diff.ms", diff_ms);
      r->Sample("postree.diff.nodes_loaded",
                static_cast<double>(diff->metrics.nodes_loaded));
      const size_t changed_rows = ChangedRows(base, old_edits, edits[b]);
      if (diff->rows.size() != changed_rows) {
        r->Check("diff_rows", false,
                 std::to_string(diff->rows.size()) + " rows, " +
                     std::to_string(changed_rows) + " changed");
      }
    }
    history[b].emplace_front(head, edits[b]);
    if (history[b].size() > kDiffDepth) history[b].pop_back();
    r->Attempted();
    auto master_diff = db->Diff(kKey, branch, ForkBase::kDefaultBranch);
    if (!master_diff.ok()) {
      r->Failed();
      r->Check("diff_master", false, master_diff.status().ToString());
    } else if (master_diff->rows.size() != edits[b].size()) {
      r->Check("diff_master_rows", false,
               std::to_string(master_diff->rows.size()) + " rows, " +
                   std::to_string(edits[b].size()) + " edited");
    }

    // Push the new version to the replica: exactly this branch moves.
    auto pushed = TimedPush(r, db, &client, push_options, a.trace);
    if (pushed && pushed->branches_updated != 1) {
      r->Check("push_branches", false,
               std::to_string(pushed->branches_updated) + " updated");
    }
    ++versions;
    if (versions % kSideEvery == 0) {
      side_s += CloneAndReload(r, a, inst.replica->address(), LocalHeads(db),
                               base_text, kCacheBytes);
    }
  }
  const double loop_s = SecondsSince(loop_start) - side_s;
  Tracer::Enable(false);
  r->Value("ops_s", versions / loop_s);
  RecordChunkLayer(r, inst.stack, baseline, user_bytes);

  // ---- output checks.
  const HeadMap heads = LocalHeads(db);
  for (const auto& [kb, uid] : heads) {
    const Status verified = db->Verify(uid);
    r->Check("verify." + kb.second, verified.ok(), verified.ToString());
  }
  r->Check("replica_heads", RemoteHeads(&client) == heads);

  RecordServerStat(r, &client);
  client.Close();

  if (a.trace) {
    if (captured) {
      ReplayIngest(r, db, captured_doc, capture, captured_parse_ms,
                   captured_put_ms, captured_version_ms);
    }
    // One UpdateTableCell on a scratch branch: the keyed-update signature.
    CheckOk(db->Branch(kKey, "probe", BranchName(0)), "probe branch");
    const auto u0 = Counters().Take();
    CheckOk(db->UpdateTableCell(kKey, forkbase::Slice(base.rows[0][0]), 1,
                                "probe", "probe")
                .status(),
            "probe update");
    const auto u = Counters().Take() - u0;
    r->Sample("postree.update.bytes_rebuilt", static_cast<double>(u.put_bytes));
    r->Sample("postree.update.chunks_put", static_cast<double>(u.put_chunks));
    ReplayBundle(r, db, heads.at({kKey, BranchName(0)}));
    RecordStoreReplays(r, db, a.work, 1 << 20);
  }
  inst.replica->Stop();
  RecordProcess(r, inst.replica->cpu_s(), inst.replica->peak_rss_mb());
}

}  // namespace perfbench
