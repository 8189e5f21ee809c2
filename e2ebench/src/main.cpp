// e2e_bench --workload economy|replicated|import --seed N --seconds S
//           --trace 0|1 --work-dir DIR --out-dir DIR
//
// Runs one seeded workload through the program's public APIs, checks its
// outputs and prints, as the last line of stdout, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer split with --trace 1. The line before it is an
// {"env": ...} record of the machine and build. run.py builds and invokes
// this binary; README.md documents the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload economy|replicated|import "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--out-dir") options.out_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.work_dir.empty() || options.out_dir.empty())
    usage("--work-dir and --out-dir are required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

void print(const e2e::Options& options, const e2e::Result& result) {
  std::string env = "{\"env\":{\"workload\":" + e2e::json_string(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"compiler\":" + e2e::json_string(E2E_COMPILER) +
                    ",\"flags\":" + e2e::json_string(E2E_FLAGS);
  const char* describe = std::getenv("E2E_GIT_DESCRIBE");
  env += ",\"git_describe\":" + e2e::json_string(describe ? describe : "unknown");
  for (const auto& [key, value] : result.info)
    env += "," + e2e::json_string(key) + ":" + e2e::json_string(value);
  env += ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i)
    env += (i ? "," : "") + e2e::json_string(result.errors[i]);
  env += "]}}";
  std::cout << env << "\n";

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string line = "{\"correct\":" + std::string(result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    line += (first ? "" : ",") + e2e::json_string(name) + ":{\"value\":" +
            e2e::json_number(metric.value) + ",\"unit\":" + e2e::json_string(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options options = parse(argc, argv);
  std::filesystem::create_directories(options.work_dir);
  if (options.trace) std::filesystem::create_directories(options.out_dir);
  e2e::Result result;
  if (options.workload == "economy") result = e2e::run_economy(options);
  else if (options.workload == "replicated") result = e2e::run_replicated(options);
  else if (options.workload == "import") result = e2e::run_import(options);
  else usage("unknown workload " + options.workload);
  for (const std::string& error : result.errors)
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", error.c_str());
  print(options, result);
  return 0;
}
