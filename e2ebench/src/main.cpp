// e2ebench: one run of one workload of the end-to-end benchmark.
//
//   e2ebench --workload <ingest_raw_1lane|ingest_anon_paced|figure_report>
//            --seed N --seconds S --trace 0|1 --work-dir DIR [--lanes N]
//
// Prints a stamp line (machine, build, seed, losses, check failures) and,
// last, the result line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 1 the spans go to DIR/spans.csv for summarize.py, which
// turns them into the per-layer metrics. Exits 1 when a check failed.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  e2e::mark_process_start();
  e2e::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--lanes") {
      opt.lanes = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else {
      std::cerr << "e2ebench: unknown argument " << key << "\n";
      return 2;
    }
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    std::cerr << "e2ebench: --work-dir and a positive --seconds are required\n";
    return 2;
  }

  e2e::RunResult result;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "ingest_raw_1lane") {
      e2e::run_ingest_raw_1lane(opt, result);
    } else if (opt.workload == "ingest_anon_paced") {
      e2e::run_ingest_anon_paced(opt, result);
    } else if (opt.workload == "figure_report") {
      e2e::run_figure_report(opt, result);
    } else {
      std::cerr << "e2ebench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    if (opt.trace && !e2e::spans::dump(opt.work_dir / "spans.csv")) {
      result.fail("cannot write the span dump");
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  e2e::stamp_machine(result);
  result.stamp["workload"] = opt.workload;
  result.stamp["seed"] = std::to_string(opt.seed);
  result.stamp["attempted"] = std::to_string(result.attempted);
  result.stamp["failed"] = std::to_string(result.failed);
  std::cout << e2e::stamp_json(result) << "\n" << e2e::result_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
