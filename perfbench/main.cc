// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload day-disposable|day-volume --seed N --seconds S
//             --trace 0|1
//
// Prints a header line echoing the arguments, then, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ledger (README.md lists both).  Exits 1 when a check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload day-disposable|day-volume "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      usage(argv[0]);
    }
  }
  if (options.workload != "day-disposable" &&
      options.workload != "day-volume") {
    usage(argv[0]);
  }
  if (!(options.seconds > 0.0)) usage(argv[0]);
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions options = parse_args(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  const Report report = run_day_workload(options);
  std::printf("%s\n", to_json(report).c_str());
  return report.correct ? 0 : 1;
}
