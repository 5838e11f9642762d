// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload compress|point_hot|scan_cold --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// output was wrong or any operation failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compress|point_hot|scan_cold "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  perfbench::Report report(args.trace);
  if (args.workload == "compress") {
    perfbench::RunCompress(args, &report);
  } else if (args.workload == "point_hot") {
    perfbench::RunPointHot(args, &report);
  } else if (args.workload == "scan_cold") {
    perfbench::RunScanCold(args, &report);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(args.work_dir, ec);
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
