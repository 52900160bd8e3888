// perfbench_harness: runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload e1_grid --seed 7 --seconds 15 --trace 0
//       --repo-root . --verifyd .bench_build/perfbench/tta_verifyd
//       --work-dir .bench_build/run-123 [--spans FILE] [--reduced]
//       [--inject-wrong-answer]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; untraced runs carry the end-to-end metrics, traced
// runs the per-layer ones. perfbench/run.py builds this binary and calls
// it; see perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --verifyd PATH --work-dir DIR [--repo-root DIR] "
               "[--spans FILE] [--reduced] [--inject-wrong-answer]\n"
               "workloads: e1_grid exhaustive_5node serve_mix campaign\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--reduced") {
      opts.reduced = true;
    } else if (arg == "--inject-wrong-answer") {
      opts.inject_wrong_answer = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--repo-root") {
      opts.repo_root = argv[++i];
    } else if (arg == "--verifyd") {
      opts.verifyd = argv[++i];
    } else if (arg == "--work-dir") {
      opts.work_dir = argv[++i];
    } else if (arg == "--spans") {
      opts.spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.work_dir.empty() || opts.verifyd.empty() || opts.seconds <= 0) {
    return usage();
  }

  Report report;
  if (opts.workload == "e1_grid") {
    run_e1_grid(opts, report);
  } else if (opts.workload == "exhaustive_5node") {
    run_exhaustive_5node(opts, report);
  } else if (opts.workload == "serve_mix") {
    run_serve_mix(opts, report);
  } else if (opts.workload == "campaign") {
    run_campaign(opts, report);
  } else {
    return usage();
  }

  const double fail_frac =
      report.attempted() ? static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted())
                         : 1.0;
  std::printf("perfbench: workload=%s seed=%llu trace=%d threads=%u "
              "attempted=%llu failed=%llu fail_frac=%.6g\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? 1 : 0, opts.threads,
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), fail_frac);
  std::printf("%s\n", report.json().c_str());
  return 0;
}
