// perfbench: the end-to-end view-discovery benchmark.
//
//   perfbench run  --workload W --seed N --seconds S --trace 0|1
//                  --work-dir D [--trace-file F]
//   perfbench prep --workload portal_paged_stream --seed N --work-dir D
//
// `run` prints diagnostics to stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and drives it; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

void PrintResult(const perfbench::RunOutcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics.entries()) {
    char number[64];
    double v = std::isfinite(value.first) ? value.first : 0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run|prep --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir D [--trace-file F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::NowSeconds();  // pin the clock origin to process start
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  perfbench::RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty()) return Usage();

  if (mode == "prep") {
    if (options.workload != "portal_paged_stream") return Usage();
    return perfbench::PreparePagedSnapshot(options);
  }
  if (mode != "run") return Usage();
  perfbench::RunOutcome out;
  if (options.workload == "portal_batch") {
    out = perfbench::RunPortalBatch(options);
  } else if (options.workload == "webtables_served") {
    out = perfbench::RunWebtablesServed(options);
  } else if (options.workload == "portal_paged_stream") {
    out = perfbench::RunPortalPagedStream(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintResult(out);
  return 0;
}
