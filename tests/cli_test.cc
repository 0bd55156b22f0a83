// End-to-end tests of the CLI semantic view, driving RunCli() directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "util/csv.h"
#include "util/datagen.h"

namespace forkbase {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_dir_ = ::testing::TempDir() + "/fb_cli_db";
    std::filesystem::remove_all(db_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(db_dir_); }

  // Runs the CLI; returns exit code, captures stdout into `out`.
  int Run(std::vector<std::string> args, std::string* out = nullptr,
          std::string* err = nullptr) {
    args.insert(args.begin(), {"--db", db_dir_});
    std::ostringstream oss, ess;
    int rc = RunCli(args, oss, ess);
    if (out) *out = oss.str();
    if (err) *err = ess.str();
    return rc;
  }

  std::string db_dir_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("put-csv"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string err;
  EXPECT_NE(Run({"frobnicate"}, nullptr, &err), 0);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, PutGetRoundTrip) {
  std::string uid, value;
  EXPECT_EQ(Run({"put", "greeting", "hello world"}, &uid), 0);
  EXPECT_EQ(uid.size(), 53u);  // 52 Base32 chars + newline
  EXPECT_EQ(Run({"get", "greeting"}, &value), 0);
  EXPECT_EQ(value, "hello world\n");
}

TEST_F(CliTest, StatePersistsAcrossInvocations) {
  EXPECT_EQ(Run({"put", "k", "v1"}), 0);
  EXPECT_EQ(Run({"put", "k", "v2"}), 0);
  std::string history;
  EXPECT_EQ(Run({"history", "k"}), 0);
  EXPECT_EQ(Run({"history", "k"}, &history), 0);
  EXPECT_EQ(std::count(history.begin(), history.end(), '\n'), 2);
}

TEST_F(CliTest, BranchDiffMergeFlow) {
  // Load a CSV, branch it, edit the branch via a second CSV, diff, merge.
  CsvGenOptions opts;
  opts.num_rows = 50;
  CsvDocument ds = GenerateCsv(opts);
  std::string csv_path = ::testing::TempDir() + "/cli_ds.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(ds);
  }
  EXPECT_EQ(Run({"put-csv", "ds", csv_path}), 0);
  EXPECT_EQ(Run({"branch", "ds", "vendor"}), 0);

  CsvDocument edited = EditOneWord(ds, 10, 2, "EDITED");
  std::string csv2_path = ::testing::TempDir() + "/cli_ds2.csv";
  {
    std::ofstream f(csv2_path);
    f << WriteCsv(edited);
  }
  EXPECT_EQ(Run({"--branch", "vendor", "put-csv", "ds", csv2_path}), 0);

  std::string diff;
  EXPECT_EQ(Run({"diff", "ds", "master", "vendor"}, &diff), 0);
  EXPECT_NE(diff.find("~ "), std::string::npos);

  std::string branches;
  EXPECT_EQ(Run({"branches", "ds"}, &branches), 0);
  EXPECT_EQ(branches, "master\nvendor\n");

  std::string merged_uid;
  EXPECT_EQ(Run({"merge", "ds", "master", "vendor"}, &merged_uid), 0);
  std::string diff2;
  EXPECT_EQ(Run({"diff", "ds", "master", "vendor"}, &diff2), 0);
  EXPECT_EQ(diff2, "identical\n");

  std::filesystem::remove(csv_path);
  std::filesystem::remove(csv2_path);
}

TEST_F(CliTest, ExportReproducesCsv) {
  CsvGenOptions opts;
  opts.num_rows = 30;
  CsvDocument ds = GenerateCsv(opts);
  std::string in_path = ::testing::TempDir() + "/cli_in.csv";
  std::string out_path = ::testing::TempDir() + "/cli_out.csv";
  {
    std::ofstream f(in_path);
    f << WriteCsv(ds);
  }
  EXPECT_EQ(Run({"put-csv", "ds", in_path}), 0);
  EXPECT_EQ(Run({"export", "ds", out_path}), 0);
  std::ifstream f(out_path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), WriteCsv(ds));
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST_F(CliTest, VerifyAndMetaAndLatest) {
  std::string uid_line;
  EXPECT_EQ(Run({"put", "k", "value", "-m", "first commit", "--author",
                 "tester"},
                &uid_line),
            0);
  std::string uid = uid_line.substr(0, uid_line.size() - 1);

  std::string verify;
  EXPECT_EQ(Run({"verify", uid}, &verify), 0);
  EXPECT_EQ(verify, "OK " + uid + "\n");
  EXPECT_EQ(Run({"verify", "k"}, &verify), 0);  // verify by key/branch head

  std::string meta;
  EXPECT_EQ(Run({"meta", uid}, &meta), 0);
  EXPECT_NE(meta.find("author:  tester"), std::string::npos);
  EXPECT_NE(meta.find("first commit"), std::string::npos);

  std::string latest;
  EXPECT_EQ(Run({"latest", "k"}, &latest), 0);
  EXPECT_NE(latest.find("master\t" + uid), std::string::npos);
}

TEST_F(CliTest, StatReportsDedup) {
  std::string blob_path = ::testing::TempDir() + "/cli_blob.bin";
  {
    std::ofstream f(blob_path, std::ios::binary);
    std::string data(100000, 'a');
    f << data;
  }
  EXPECT_EQ(Run({"put-blob", "b1", blob_path}), 0);
  EXPECT_EQ(Run({"put-blob", "b2", blob_path}), 0);  // identical content
  std::string stat;
  EXPECT_EQ(Run({"stat"}, &stat), 0);
  EXPECT_NE(stat.find("dedup_hits"), std::string::npos);
  // Two identical 100 KB blobs must be stored once (physical bytes well
  // under 2x the blob size; the repetitive content itself dedups too).
  size_t pos = stat.find("physical_bytes:");
  ASSERT_NE(pos, std::string::npos);
  uint64_t physical = std::stoull(stat.substr(pos + 15));
  EXPECT_LT(physical, 120000u);
  std::filesystem::remove(blob_path);
}

TEST_F(CliTest, RenameAndDeleteBranch) {
  EXPECT_EQ(Run({"put", "k", "v"}), 0);
  EXPECT_EQ(Run({"branch", "k", "dev"}), 0);
  EXPECT_EQ(Run({"rename", "k", "dev", "feature"}), 0);
  std::string branches;
  EXPECT_EQ(Run({"branches", "k"}, &branches), 0);
  EXPECT_EQ(branches, "feature\nmaster\n");
  EXPECT_EQ(Run({"delete-branch", "k", "feature"}), 0);
  EXPECT_EQ(Run({"branches", "k"}, &branches), 0);
  EXPECT_EQ(branches, "master\n");
}

TEST_F(CliTest, VerifyAllSweepsHeads) {
  EXPECT_EQ(Run({"put", "a", "1"}), 0);
  EXPECT_EQ(Run({"put", "b", "2"}), 0);
  EXPECT_EQ(Run({"branch", "a", "dev"}), 0);
  std::string out;
  EXPECT_EQ(Run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("3/3 heads verified"), std::string::npos);
}

TEST_F(CliTest, GcCompactsIntoNewDirectory) {
  // Create a key, then delete its only branch -> garbage.
  CsvGenOptions opts;
  opts.num_rows = 300;
  std::string csv_path = ::testing::TempDir() + "/cli_gc.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  EXPECT_EQ(Run({"put-csv", "keep", csv_path}), 0);
  EXPECT_EQ(Run({"put-csv", "drop", csv_path}), 0);
  EXPECT_EQ(Run({"put", "drop", "diverge"}), 0);  // unique chunks on 'drop'
  EXPECT_EQ(Run({"delete-branch", "drop", "master"}), 0);

  std::string dest = ::testing::TempDir() + "/cli_gc_dest";
  std::filesystem::remove_all(dest);
  std::string out;
  EXPECT_EQ(Run({"gc", dest}, &out), 0);
  EXPECT_NE(out.find("compacted database written"), std::string::npos);

  // The compacted database is fully usable.
  std::ostringstream oss, ess;
  int rc = RunCli({"--db", dest, "verify-all"}, oss, ess);
  EXPECT_EQ(rc, 0) << ess.str();
  EXPECT_NE(oss.str().find("1/1 heads verified"), std::string::npos);
  std::filesystem::remove(csv_path);
  std::filesystem::remove_all(dest);
}

TEST_F(CliTest, GcInPlaceSweepsTheDatabaseWhereItLives) {
  CsvGenOptions opts;
  opts.num_rows = 300;
  std::string csv_path = ::testing::TempDir() + "/cli_gc_inplace.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  // Distinct content for the doomed key — shared chunks would stay live
  // through "keep" and leave nothing to reclaim.
  opts.seed = 99;
  opts.num_rows = 1200;
  std::string drop_csv_path = ::testing::TempDir() + "/cli_gc_inplace2.csv";
  {
    std::ofstream f(drop_csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  // Small segments so erases translate into rewritten (shrunk) files —
  // the default 64 MiB store would keep everything in one active segment.
  const std::vector<std::string> seg = {"--segment-kb", "4"};
  auto run = [&](std::vector<std::string> args, std::string* out = nullptr,
                 std::string* err = nullptr) {
    args.insert(args.begin(), seg.begin(), seg.end());
    return Run(std::move(args), out, err);
  };
  EXPECT_EQ(run({"put-csv", "keep", csv_path}), 0);
  EXPECT_EQ(run({"put-csv", "drop", drop_csv_path}), 0);
  EXPECT_EQ(run({"delete-branch", "drop", "master"}), 0);

  auto db_bytes = [&] {
    uint64_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(db_dir_)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  };
  const uint64_t before = db_bytes();
  std::string out, err;
  EXPECT_EQ(run({"gc", "--in-place"}, &out, &err), 0) << err;
  EXPECT_NE(out.find("reclaimed in place"), std::string::npos);
  EXPECT_LT(db_bytes(), before);

  // The swept database stays fully usable, in the same directory.
  EXPECT_EQ(run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("1/1 heads verified"), std::string::npos);
  // Deleted content can come back: re-put lands in reclaimed space.
  EXPECT_EQ(run({"put-csv", "drop", drop_csv_path}), 0);
  EXPECT_EQ(run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("2/2 heads verified"), std::string::npos);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(drop_csv_path);
}

TEST_F(CliTest, PushPullReplicatesBetweenDatabases) {
  EXPECT_EQ(Run({"put", "doc", "shared content"}), 0);
  EXPECT_EQ(Run({"put", "doc", "shared content v2"}), 0);
  std::string bundle_path = ::testing::TempDir() + "/cli_bundle.fbb";
  EXPECT_EQ(Run({"push", "doc", bundle_path}), 0);

  // Pull into a second, independent database.
  std::string db2 = ::testing::TempDir() + "/cli_db2";
  std::filesystem::remove_all(db2);
  std::ostringstream oss, ess;
  ASSERT_EQ(RunCli({"--db", db2, "pull", bundle_path}, oss, ess), 0)
      << ess.str();
  std::ostringstream get_out, get_err;
  ASSERT_EQ(RunCli({"--db", db2, "get", "doc"}, get_out, get_err), 0);
  EXPECT_EQ(get_out.str(), "shared content v2\n");
  // History travelled too.
  std::ostringstream hist_out, hist_err;
  ASSERT_EQ(RunCli({"--db", db2, "history", "doc"}, hist_out, hist_err), 0);
  const std::string hist = hist_out.str();
  EXPECT_EQ(std::count(hist.begin(), hist.end(), '\n'), 2);
  std::filesystem::remove(bundle_path);
  std::filesystem::remove_all(db2);
}

TEST_F(CliTest, PullFileRefusesToOverwriteADivergedBranch) {
  // A bundle of an unrelated k@master from another database.
  std::string db2 = ::testing::TempDir() + "/cli_db_unrelated";
  std::filesystem::remove_all(db2);
  std::string bundle_path = ::testing::TempDir() + "/cli_unrelated.fbb";
  std::ostringstream oss, ess;
  ASSERT_EQ(RunCli({"--db", db2, "put", "k", "a1"}, oss, ess), 0);
  ASSERT_EQ(RunCli({"--db", db2, "push", "k", bundle_path}, oss, ess), 0)
      << ess.str();

  std::string b1, b2;
  ASSERT_EQ(Run({"put", "k", "b1"}, &b1), 0);
  ASSERT_EQ(Run({"put", "k", "b2"}, &b2), 0);
  std::string out, err;
  EXPECT_NE(Run({"pull", bundle_path}, &out, &err), 0);
  EXPECT_NE(err.find("MergeConflict"), std::string::npos) << err;

  // The refused pull left the head alone, so a sweep keeps both commits.
  ASSERT_EQ(Run({"gc", "--in-place"}, &out, &err), 0) << err;
  ASSERT_EQ(Run({"get", "k"}, &out), 0);
  EXPECT_EQ(out, "b2\n");
  ASSERT_EQ(Run({"history", "k"}, &out), 0);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find(b1.substr(0, 52)), std::string::npos);
  EXPECT_NE(out.find(b2.substr(0, 52)), std::string::npos);
  EXPECT_EQ(Run({"verify-all"}, &out, &err), 0) << err;
  std::filesystem::remove(bundle_path);
  std::filesystem::remove_all(db2);
}

TEST_F(CliTest, DeepVerifyCensusCountsEncodedRecords) {
  CsvGenOptions opts;
  opts.num_rows = 2000;
  std::string csv_path = ::testing::TempDir() + "/cli_deep.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  std::string out, err;
  ASSERT_EQ(Run({"--compress", "--delta-depth", "3", "put-csv", "ds",
                 csv_path},
                &out, &err),
            0)
      << err;
  ASSERT_EQ(Run({"verify", "--deep"}, &out, &err), 0) << err;
  // "deep: N records, D delta, C compressed, B bad"
  const size_t at = out.find("deep: ");
  ASSERT_NE(at, std::string::npos) << out;
  std::istringstream census(out.substr(at + 6));
  uint64_t records = 0, deltas = 0, compressed = 0, bad = 0;
  std::string word;
  census >> records >> word >> deltas >> word >> compressed >> word >> bad;
  EXPECT_GT(records, 0u) << out;
  EXPECT_GT(deltas, 0u) << out;
  EXPECT_GT(compressed, 0u) << out;
  EXPECT_EQ(bad, 0u) << out;
  std::filesystem::remove(csv_path);
}

TEST_F(CliTest, StatKeyReportsObjectShape) {
  CsvGenOptions opts;
  opts.num_rows = 400;
  std::string csv_path = ::testing::TempDir() + "/cli_stat.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  EXPECT_EQ(Run({"put-csv", "ds", csv_path}), 0);
  std::string out;
  EXPECT_EQ(Run({"stat", "ds"}, &out), 0);
  EXPECT_NE(out.find("type:         table"), std::string::npos);
  EXPECT_NE(out.find("entries:      400"), std::string::npos);
  EXPECT_NE(out.find("tree height:"), std::string::npos);
  std::filesystem::remove(csv_path);
}

TEST_F(CliTest, KeysListsEverything) {
  EXPECT_EQ(Run({"put", "alpha", "1"}), 0);
  EXPECT_EQ(Run({"put", "beta", "2"}), 0);
  std::string keys;
  EXPECT_EQ(Run({"keys"}, &keys), 0);
  EXPECT_EQ(keys, "alpha\nbeta\n");
}

TEST_F(CliTest, TieredFlagsRunTheWholeWorkloadOnTwoTiers) {
  const std::string cold = ::testing::TempDir() + "/fb_cli_cold";
  std::filesystem::remove_all(cold);
  auto tiered = [&](std::vector<std::string> args) {
    args.insert(args.begin(), {"--tier-cold", cold});
    return args;
  };
  // Write-through: the commit reaches both tiers before the CLI exits.
  EXPECT_EQ(Run(tiered({"put", "doc", "tiered value"})), 0);
  EXPECT_TRUE(std::filesystem::exists(cold + "/segment-0.fbc"));
  EXPECT_GT(std::filesystem::file_size(cold + "/segment-0.fbc"), 0u);

  std::string value;
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "tiered value\n");

  // The hot tier dies; the cold backend alone serves the next invocation.
  for (const auto& entry : std::filesystem::directory_iterator(db_dir_)) {
    if (entry.path().extension() == ".fbc") {
      std::filesystem::remove(entry.path());
    }
  }
  value.clear();
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "tiered value\n");

  // Write-back: the destructor's flush demotes before the process exits,
  // so the cold tier keeps accumulating history.
  const auto cold_bytes = std::filesystem::file_size(cold + "/segment-0.fbc");
  EXPECT_EQ(
      Run(tiered({"--tier-policy", "write-back", "put", "doc2", "v2"})), 0);
  EXPECT_GT(std::filesystem::file_size(cold + "/segment-0.fbc"), cold_bytes);

  std::string err;
  EXPECT_NE(Run(tiered({"--tier-policy", "bogus", "put", "x", "y"}), nullptr,
                &err),
            0);
  EXPECT_NE(err.find("--tier-policy"), std::string::npos);

  // --tier-policy without --tier-cold is a configuration error, not a
  // silently untiered store.
  err.clear();
  EXPECT_NE(Run({"--tier-policy", "write-back", "put", "x", "y"}, nullptr,
                &err),
            0);
  EXPECT_NE(err.find("requires --tier-cold"), std::string::npos);
  std::filesystem::remove_all(cold);
}

TEST_F(CliTest, TierHotBudgetFlagBoundsTheHotTierAndShowsInStats) {
  const std::string cold = ::testing::TempDir() + "/fb_cli_budget_cold";
  std::filesystem::remove_all(cold);
  auto tiered = [&](std::vector<std::string> args) {
    args.insert(args.begin(), {"--tier-cold", cold, "--tier-policy",
                               "write-back", "--tier-hot-budget-mb", "1"});
    return args;
  };
  EXPECT_EQ(Run(tiered({"put", "doc", "bounded tier value"})), 0);
  // The write-back stack journals its dirty set beside the hot segments.
  EXPECT_TRUE(std::filesystem::exists(db_dir_ + "/dirty-manifest.fbm"));

  std::string value;
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "bounded tier value\n");

  // `stat` surfaces the tier section: budget, space, pinning, evictions.
  std::string stats;
  EXPECT_EQ(Run(tiered({"stat"}), &stats), 0);
  EXPECT_NE(stats.find("tier_hot_budget: 1048576"), std::string::npos);
  EXPECT_NE(stats.find("tier_hot_space:"), std::string::npos);
  EXPECT_NE(stats.find("tier_pinned_dirty_bytes:"), std::string::npos);
  EXPECT_NE(stats.find("tier_evictions:"), std::string::npos);
  EXPECT_NE(stats.find("tier_demotions:"), std::string::npos);
  // An untiered stat has no tier section.
  stats.clear();
  EXPECT_EQ(Run({"stat"}, &stats), 0);
  EXPECT_EQ(stats.find("tier_hot_budget"), std::string::npos);

  // A budget without a cold tier to evict to is a configuration error.
  std::string err;
  EXPECT_NE(Run({"--tier-hot-budget-mb", "1", "put", "x", "y"}, nullptr,
                &err),
            0);
  EXPECT_NE(err.find("requires --tier-cold"), std::string::npos);
  // And zero is rejected (omit the flag instead).
  err.clear();
  EXPECT_NE(Run(tiered({"--tier-hot-budget-mb", "0", "put", "x", "y"}),
                nullptr, &err),
            0);
  EXPECT_NE(err.find("must be >= 1"), std::string::npos);
  std::filesystem::remove_all(cold);
}

TEST_F(CliTest, NetworkFlagValidation) {
  std::string err;
  // Client retry knob: zero attempts is meaningless.
  EXPECT_NE(Run({"--retries", "0", "keys"}, nullptr, &err), 0);
  EXPECT_NE(err.find("--retries"), std::string::npos);

  // Server outbox cap: zero would deadlock every streamed reply.
  err.clear();
  EXPECT_NE(Run({"--max-outbox-kb", "0", "keys"}, nullptr, &err), 0);
  EXPECT_NE(err.find("--max-outbox-kb"), std::string::npos);

  // Rate limits must be numbers.
  err.clear();
  EXPECT_NE(Run({"--session-rps", "abc", "keys"}, nullptr, &err), 0);

  // net-hold needs ADDRESS and MILLIS.
  err.clear();
  EXPECT_NE(Run({"net-hold"}, nullptr, &err), 0);

  // The new knobs are documented.
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("net-hold"), std::string::npos);
  EXPECT_NE(out.find("--max-outbox-kb"), std::string::npos);
  EXPECT_NE(out.find("--retries"), std::string::npos);
}

}  // namespace
}  // namespace forkbase
