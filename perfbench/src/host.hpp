#pragma once

// The host block every record carries: what machine produced the numbers
// and whether it could run the workload's workers in parallel at all.

#include <sched.h>

#include <string>
#include <vector>

namespace perfbench {

struct Host {
  int nproc = 0;
  std::string cpu_model;
  double load1 = 0;  ///< 1-minute load average before the workload ran
  /// N independent spin loops, one pinned to each allowed CPU, against
  /// one loop alone, N = nproc: N * t(1) / t(N).
  /// About N on an idle dedicated host; near 1 when the vCPUs share one
  /// physical core or the host is busy.
  double effective_parallelism = 0;
  bool pmu_hardware = false;  ///< perf_event_open(cycles) succeeded
  std::string pmu_hardware_errno;
  bool pmu_task_clock = false;  ///< software task-clock event opens
  std::string topology;         ///< synthetic topology the workload used
  int workers = 0;
  /// effective_parallelism < 0.9 * workers (the probe's own noise is a
  /// few percent): per-worker numbers on this run include time a worker
  /// was runnable but not running.
  bool noisy = false;
};

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// step, and gives it back its own affinity mask when destroyed. A
/// single-threaded workload that steps this once per op is timed on every
/// vCPU of the host in turn, so its median per-op time is that of a
/// typical vCPU instead of whichever one the run happened to stay on (on a
/// shared KVM host they differ by up to 40% and change over minutes).
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the calling thread to the next allowed CPU.
  void step();

 private:
  std::vector<int> cpus_;
  cpu_set_t saved_;
  std::size_t next_ = 0;
};

/// The host's own readings; call before the workload starts.
Host probe_host();
/// Fills in the workload's topology and worker count, and `noisy`.
void describe_workload(Host& h, const std::string& topology, int workers);
std::string host_json(const Host& h);

}  // namespace perfbench
