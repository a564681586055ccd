// perfbench: end-to-end and per-layer benchmark of fluxtrace.
//
//   perfbench --workload postmortem|live_follow|fleet --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Generates seeded inputs under DIR, drives fluxtrace's public APIs for
// S seconds of measured rounds, checks every answer against the
// generator's reference, and prints one JSON result line last. Run it
// through run.py, which builds it and owns the work directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload postmortem|live_follow|fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  const std::int64_t start = perfbench::now_ns();
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--work-dir") {
      args.work_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.work_dir.empty() || args.seconds <= 0) {
    return usage();
  }

  perfbench::Bench bench(args, start);
  try {
    if (args.workload == "postmortem") {
      perfbench::run_postmortem(bench);
    } else if (args.workload == "live_follow") {
      perfbench::run_live_follow(bench);
    } else if (args.workload == "fleet") {
      perfbench::run_fleet(bench);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
