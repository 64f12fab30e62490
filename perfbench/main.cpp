// perfbench — the repository benchmark program.
//
//   perfbench --workload <paper-base|large-n|fault-drill|serve>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--digests <file>] [--spans-out <file>] [--print-digests]
//
// Prints one readable line per metric, then the JSON result as the last
// line of standard output. Exits 1 when any correctness check failed and
// 2 on bad arguments or an unexpected error (no JSON line then).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <paper-base|large-n|fault-drill|"
               "serve> --seed <n> --seconds <s> --trace <0|1> "
               "[--digests <file>] [--spans-out <file>] [--print-digests]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      options.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--digests") {
        options.digests_path = value;
      } else if (flag == "--spans-out") {
        options.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty()) {
    usage("--workload is required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    usage("--seconds must be in (0, 60]");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    if (options.workload == "serve") {
      return perfbench::run_serve_workload(options);
    }
    return perfbench::run_sim_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
