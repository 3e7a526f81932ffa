#include "host.hpp"

#include <linux/perf_event.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double load1() {
  std::ifstream f("/proc/loadavg");
  double v = 0;
  f >> v;
  return v;
}

/// Opens and closes one counting event; returns 0 or the errno.
int try_perf(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return errno;
  close(static_cast<int>(fd));
  return 0;
}

/// A fixed amount of dependent hashing; returns its wall time in ns.
std::uint64_t spin(std::uint64_t rounds, std::atomic<std::uint64_t>& sink) {
  const std::uint64_t t0 = wall_ns();
  std::uint64_t x = rounds;
  for (std::uint64_t i = 0; i < rounds; ++i) x = mix(x);
  sink.fetch_add(x, std::memory_order_relaxed);
  return wall_ns() - t0;
}

/// The i-th CPU of the process's affinity mask, or -1.
int nth_allowed_cpu(int i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set) && i-- == 0) return c;
  }
  return -1;
}

double effective_parallelism(int n) {
  constexpr std::uint64_t kRounds = 6'000'000;  // ~20-40 ms on one core
  std::atomic<std::uint64_t> sink{0};
  const double one = static_cast<double>(spin(kRounds, sink));
  const std::uint64_t t0 = wall_ns();
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i) {
    ts.emplace_back([&, i] {
      // One loop per CPU: the probe measures the host, not where the
      // kernel happens to place new threads.
      const int cpu = nth_allowed_cpu(i);
      if (cpu >= 0) {
        cpu_set_t one_cpu;
        CPU_ZERO(&one_cpu);
        CPU_SET(cpu, &one_cpu);
        pthread_setaffinity_np(pthread_self(), sizeof(one_cpu), &one_cpu);
      }
      spin(kRounds, sink);
    });
  }
  for (auto& t : ts) t.join();
  const double all = static_cast<double>(wall_ns() - t0);
  return all > 0 ? static_cast<double>(n) * one / all : 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::step() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

Host probe_host() {
  Host h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.cpu_model = cpu_model();
  h.load1 = load1();
  h.effective_parallelism = effective_parallelism(h.nproc > 0 ? h.nproc : 1);
  const int hw = try_perf(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  h.pmu_hardware = hw == 0;
  h.pmu_hardware_errno = hw == 0 ? "" : std::strerror(hw);
  h.pmu_task_clock =
      try_perf(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK) == 0;
  return h;
}

void describe_workload(Host& h, const std::string& topology, int workers) {
  h.topology = topology;
  h.workers = workers;
  h.noisy = h.effective_parallelism < 0.9 * static_cast<double>(workers);
}

std::string host_json(const Host& h) {
  return "{\"nproc\": " + std::to_string(h.nproc) +
         ", \"cpu_model\": " + json_str(h.cpu_model) +
         ", \"load1\": " + json_num(h.load1) +
         ", \"effective_parallelism\": " + json_num(h.effective_parallelism) +
         ", \"pmu_hardware\": " + (h.pmu_hardware ? "true" : "false") +
         ", \"pmu_hardware_error\": " + json_str(h.pmu_hardware_errno) +
         ", \"pmu_task_clock\": " + (h.pmu_task_clock ? "true" : "false") +
         ", \"topology\": " + json_str(h.topology) +
         ", \"workers\": " + std::to_string(h.workers) +
         ", \"noisy\": " + (h.noisy ? "true" : "false") + "}";
}

}  // namespace perfbench
