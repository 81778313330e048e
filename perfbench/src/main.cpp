// qross_perfbench — the end-to-end benchmark of the qross serving stack.
//
//   qross_perfbench --workload tune|solve-open|solve-warm --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//
// Hosts SolveService + TuneService + net::Server in-process (wired as
// tools/qrossd.cpp wires them) and drives them over real sockets through the
// typed net::Client API.  With --trace 0 it prints every end-to-end metric;
// with --trace 1 every per-layer metric.  The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; it is printed only when
// every output check passed — otherwise the exit code is non-zero.
// README.md beside this directory explains the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: qross_perfbench --workload "
               "tune|solve-open|solve-warm --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               message);
  std::exit(2);
}

/// Environment guard, part one: refuse to produce numbers that would not be
/// comparable.  Returns an empty string when the environment is acceptable.
std::string environment_refusal(bool traced) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release";
  }
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF") {
    return "sanitizer build (QROSS_SANITIZE=" + sanitize + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const char* env = std::getenv("QROSS_TRACE");
  if (!traced && env != nullptr && *env != '\0') {
    return "QROSS_TRACE is set for an untraced run";
  }
  return "";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

namespace perfbench {

void report_environment(const Report& report, const std::string& simd_kernel,
                        std::size_t load_threads) {
  report.info(std::string("compiler ") + PERFBENCH_COMPILER + ", build " +
              PERFBENCH_BUILD_TYPE + ", nproc " +
              std::to_string(std::thread::hardware_concurrency()) +
              ", thread budget " + std::to_string(kWorkers) +
              " workers + 1 reactor + " + std::to_string(load_threads) +
              " load thread(s), simd_kernel " + simd_kernel);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_seed || args.work_dir.empty() || args.seconds <= 0.0) {
    usage("--seed, --seconds and --work-dir are required");
  }
  const std::string refusal = environment_refusal(args.trace);
  if (!refusal.empty()) {
    std::fprintf(stderr, "refusing to report: %s\n", refusal.c_str());
    return 3;
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "tune") {
      report = perfbench::run_tune(args, process_start);
    } else if (args.workload == "solve-open") {
      report = perfbench::run_solve_open(args, process_start);
    } else if (args.workload == "solve-warm") {
      report = perfbench::run_solve_warm(args, process_start);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    const std::string path =
        args.work_dir + "/spans-" + args.workload + ".json";
    if (!perfbench::SpanLog::instance().write_chrome_json(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    report.info("benchmark spans written to " + path);
  }
  for (const auto& m : report.metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!report.correct) {
    for (const auto& e : report.errors) {
      std::fprintf(stderr, "output check failed: %s\n", e.c_str());
    }
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
