#pragma once

// Shared plumbing of the repository benchmark: clocks, order statistics,
// op accounting, the metric catalogue and the printed record.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: `cab_perfbench --workload W --seed N --seconds S
/// --trace 0|1`.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt the result of the first timed op after it is computed and
  /// before it is checked; the benchmark's own tests use it to show that
  /// every workload's output check fires.
  bool inject_fault = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
  /// wall_ns() once the arguments are parsed and the host probed: the
  /// start of the first set-up.
  std::uint64_t process_start_ns = 0;
};

/// Steady clock in ns (the clock JobTicket stamps and timelines use).
std::uint64_t wall_ns();
/// CLOCK_PROCESS_CPUTIME_ID in ns: every thread of the process.
std::uint64_t process_cpu_ns();
/// Peak resident set of the process so far (VmHWM), MiB.
double peak_rss_mb();

// --- Order statistics --------------------------------------------------

double median(std::vector<double> v);

/// The highest percentile of the fixed ladder 50, 75, 90, 95, 99, 99.5,
/// 99.9, 99.99 that still has at least kTailBeyond samples strictly above
/// its nearest rank (1-based rank ceil(p/100 * n)). With fewer than
/// 2 * kTailBeyond samples no ladder step qualifies and the tail is the
/// maximum (percentile 100, beyond 0).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
inline constexpr std::size_t kTailBeyond = 10;
Tail tail_of(std::vector<double> v);

// --- Op accounting -----------------------------------------------------

/// Ops attempted vs ops that failed: a wrong result, a failed, rejected
/// or cancelled job. failed_frac = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Runs `op(i)` back to back (closed loop, one client) until `window_s`
/// has elapsed and at least `min_ops` ran. `op` returns whether its
/// output checked out. Latencies are per op, in ms.
struct LoopResult {
  std::vector<double> lat_ms;
  double wall_s = 0;
  double cpu_s = 0;
  Tally tally;
};
LoopResult closed_loop(double window_s, std::size_t min_ops,
                       const std::function<bool(std::uint64_t)>& op);

// --- Metrics -----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed with --trace 0) and the per-layer
/// metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Metric values a run produced. Every name must come from the catalogue
/// of the run's mode; the record prints the whole catalogue, and names a
/// workload does not exercise read 0 and are listed as not applicable.
class Report {
 public:
  explicit Report(bool trace_mode) : trace_mode_(trace_mode) {}

  void set(const std::string& name, double value);
  /// Attaches a JSON value (already serialized) to the full record.
  void note(const std::string& key, const std::string& json);

  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

  /// `"metrics": {...}` members, every catalogue entry of this mode.
  std::string metrics_json() const;
  /// Names in this mode's catalogue that were never set.
  std::vector<std::string> not_applicable() const;

 private:
  const std::vector<MetricSpec>& specs() const;
  bool trace_mode_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// The end-to-end metrics of a closed-loop window. Closed-loop workloads
/// have no latency limit: goodput counts every correct op.
void report_closed_loop(Report& rep, const LoopResult& r,
                        const std::vector<double>& setup_s);

/// Notes the latency median, tail, op count and window of a closed-loop
/// pass under `key` in the full record.
void note_window(Report& rep, const std::string& key, const LoopResult& r);

// --- JSON helpers ------------------------------------------------------

std::string json_str(const std::string& s);
/// Shortest round-trip decimal form of a finite double ("null" if not).
std::string json_num(double v);
std::string tail_json(const Tail& t);

}  // namespace perfbench
