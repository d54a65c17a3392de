// Repository benchmark binary. Normally started by perfbench/run.py, which
// builds it, unsets the QOKIT_* environment overrides and pins the OpenMP
// thread count per workload through OMP_NUM_THREADS:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>] [--env-record <s>]
//
// Prints the run's context, every metric with its unit, the traced run's
// per-span self times, and as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any operation failed or returned a wrong result, 2 on bad
// arguments; a run that cannot complete prints no result line.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Config;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "maxcut24_deep|labs20_optimize|sk16_serve --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR] "
               "[--env-record TEXT]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Config& cfg, std::string& error) {
  bool has_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value after " + arg;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        has_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        cfg.trace = value == "1";
      } else if (arg == "--work-dir") {
        cfg.work_dir = value;
      } else if (arg == "--env-record") {
        cfg.env_record = value;
      } else {
        error = "unknown argument " + arg;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + arg;
      return false;
    }
  }
  if (!has_workload) {
    error = "--workload is required";
    return false;
  }
  if (cfg.workload != "maxcut24_deep" && cfg.workload != "labs20_optimize" &&
      cfg.workload != "sk16_serve") {
    error = "unknown workload " + cfg.workload;
    return false;
  }
  if (!(cfg.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string error;
  if (!parse(argc, argv, cfg, error)) return usage(error.c_str());
  perfbench::SpanRecorder spans;
  perfbench::Outcome outcome;
  try {
    if (cfg.trace)
      outcome = perfbench::run_replay(cfg, spans);
    else if (cfg.workload == "maxcut24_deep")
      outcome = perfbench::run_maxcut(cfg);
    else if (cfg.workload == "labs20_optimize")
      outcome = perfbench::run_labs(cfg);
    else
      outcome = perfbench::run_serve(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 1;
  }

  const std::string context =
      perfbench::context_json(cfg, outcome.working_set_bytes);
  std::printf("context %s\n", context.c_str());
  if (cfg.trace) {
    const auto recorded = spans.snapshot();
    for (const perfbench::SelfTime& t : perfbench::self_times(recorded))
      std::printf("span %-30s count %6ld  total %12.3f ms  self %12.3f ms\n",
                  t.name.c_str(), t.count, t.total_ms, t.self_ms);
    const std::string path = cfg.work_dir + "/perfbench-trace-" +
                             cfg.workload + "-" + std::to_string(cfg.seed) +
                             ".json";
    if (perfbench::write_trace(path, recorded))
      std::printf("trace written to %s\n", path.c_str());
  }
  const long attempted = outcome.tally.attempted();
  const long failed = outcome.tally.failed();
  outcome.info.set(
      "failed_frac",
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0,
      "ratio");
  outcome.metrics.print_lines(stdout);
  outcome.info.print_lines(stdout, "info");
  for (const std::string& e : outcome.tally.errors())
    std::printf("FAILED: %s\n", e.c_str());

  const bool correct = failed == 0 && attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + outcome.metrics.to_json() + "}";

  // The result, stamped with its context, is also kept as a file.
  const std::string result_path =
      cfg.work_dir + "/perfbench-result-" + cfg.workload + "-" +
      std::to_string(cfg.seed) + (cfg.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"context\": %s,\n \"info\": %s,\n \"result\": %s}\n",
                 context.c_str(), outcome.info.to_json().c_str(),
                 result.c_str());
    std::fclose(f);
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
