// mpnj_perfbench: the repository's end-to-end benchmark (README.md).
//
//   mpnj_perfbench --workload kv_pipe|kv_tcp|abisort --seed N --seconds S
//                  [--trace 0|1] [--trace-file PATH] [--corrupt-every N]
//
// Prints progress lines while it runs; the last line of standard output is
// the result object.  Exit status: 0 when every op checked out, 1 when any
// failed, 2 on a usage error, 3 when the watchdog ended a hung run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mpnj_perfbench: %s\nusage: mpnj_perfbench --workload "
               "kv_pipe|kv_tcp|abisort --seed N --seconds S [--trace 0|1] "
               "[--trace-file PATH] [--corrupt-every N]\n",
               msg);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else if (flag == "--corrupt-every") {
      a.corrupt_every = std::strtol(v, &end, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad number for " + flag).c_str());
    }
  }
  if (a.workload != "kv_pipe" && a.workload != "kv_tcp" &&
      a.workload != "abisort") {
    usage("unknown workload");
  }
  if (a.seconds < 1 || a.seconds > 120) usage("--seconds must be 1..120");
  if (a.corrupt_every < 0) usage("--corrupt-every must be >= 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Run run(args);
  const perfbench::WorkloadResult res =
      args.workload == "abisort"
          ? perfbench::run_abisort(run)
          : perfbench::run_kv(run, args.workload == "kv_tcp");
  perfbench::Metrics metrics;
  if (args.trace) perfbench::run_probes(run, &metrics);
  run.finish();
  if (args.trace) {
    metrics.merge(run.per_layer(res.merged, res.spans));
    run.write_trace(res.spans);
  } else {
    metrics = run.end_to_end(res.merged);
  }

  std::uint64_t timed_ops = 0;
  for (const auto& h : res.merged) timed_ops += h.count();
  const std::uint64_t attempted = run.attempted();
  const std::uint64_t failed = attempted - std::min(attempted, run.ok());
  std::printf("info workload=%s seed=%llu seconds=%d trace=%d timed_ops=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              static_cast<unsigned long long>(timed_ops));
  perfbench::print_result(failed == 0 && timed_ops > 0, attempted, failed,
                          metrics);
  return failed == 0 && timed_ops > 0 ? 0 : 1;
}
