#pragma once

// The workloads. Each builds its state (timed as set-up), runs its
// timed window, checks every op's output, and fills the Report with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "svc/job.hpp"

namespace perfbench {

struct Outcome {
  /// Every op whose output was checked, in the passes that ran.
  Tally tally;
  /// Problems other than a wrong op result (a trace that does not parse,
  /// dropped timeline events). Any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::string topology;
  int workers = 0;
};

/// The output check of one svc job: it ran to completion and its
/// value equals the serial reference. Rejected, cancelled and failed jobs
/// fail it like a wrong value does.
bool job_ok(cab::svc::JobState state, std::uint64_t got,
            std::uint64_t expected);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Builds the state kSetupReps times, keeping the last one; the earlier
/// ones are destroyed untimed. The first build is timed from
/// `process_start_ns`, so it includes the process's first-time costs
/// (fresh heap, first thread creation); the median of the three is
/// usually a warm rebuild, which makes it steady but leaves those costs
/// out of setup_s.
template <typename State, typename Make>
std::unique_ptr<State> timed_setup(Make make, std::uint64_t process_start_ns,
                                   std::vector<double>& seconds) {
  std::unique_ptr<State> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    const std::uint64_t t0 = r == 0 ? process_start_ns : wall_ns();
    s = make();
    seconds.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  return s;
}

Outcome run_fj_irregular(const Config& cfg, Report& rep);
Outcome run_fj_heat(const Config& cfg, Report& rep);
Outcome run_svc_burst(const Config& cfg, Report& rep);
Outcome run_sim_memory(const Config& cfg, Report& rep);

}  // namespace perfbench
