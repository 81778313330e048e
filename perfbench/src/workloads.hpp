#pragma once

// The three workloads of the benchmark (see README.md for why each exists).

#include <string>

#include "harness.hpp"

namespace perfbench {

Report run_tune(const RunArgs& args, Clock::time_point process_start);
Report run_solve_open(const RunArgs& args, Clock::time_point process_start);
Report run_solve_warm(const RunArgs& args, Clock::time_point process_start);

/// Environment guard, part two: records the kernel arm the daemon reports
/// (ServiceMetrics.simd_kernel) next to the build facts main() checked.
void report_environment(const Report& report, const std::string& simd_kernel,
                        std::size_t load_threads);

}  // namespace perfbench
