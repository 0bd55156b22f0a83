// perfbench_driver — the benchmark's load generator. run.py builds it,
// runs one workload per invocation and aggregates the results file it
// writes (raw samples, values, output checks and, when traced, spans).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH/forkbase_cli --work DIR --out FILE
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "util/cpu_features.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload dataset_versions|"
               "table_point_ops|serve_kv --seed N --seconds S --trace 0|1 "
               "--cli FORKBASE_CLI --work DIR --out FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--cli") {
      args.cli = v;
    } else if (flag == "--work") {
      args.work = v;
    } else if (flag == "--out") {
      args.out = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.cli.empty() || args.work.empty() || args.out.empty()) {
    Usage("--cli, --work and --out are required");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  perfbench::Results results;
  results.Context("driver_sha256_backend", forkbase::ActiveSha256BackendName());
  results.Context("build_type", PERFBENCH_BUILD_TYPE);
  results.Context("compiler", PERFBENCH_COMPILER);
  perfbench::MakeDir(args.work);
  if (args.workload == "dataset_versions") {
    perfbench::RunDatasetVersions(args, &results);
  } else if (args.workload == "table_point_ops") {
    perfbench::RunTablePointOps(args, &results);
  } else if (args.workload == "serve_kv") {
    perfbench::RunServeKv(args, &results);
  } else {
    Usage("unknown workload " + args.workload);
  }
  results.WriteTo(args.out);
  return results.all_checks_ok() ? 0 : 1;
}
