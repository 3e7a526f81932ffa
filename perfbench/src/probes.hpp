#pragma once

// Outside-in layer probes, timed through public calls only, and the
// per-layer readings shared by the three runtime workloads.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "obs/attrib/attrib.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// A runtime on a synthetic sockets x cores topology with an `l3_bytes`
/// modeled L3 per socket.
cab::runtime::Options runtime_options(int sockets, int cores,
                                      std::uint64_t seed, std::int32_t bl,
                                      std::uint64_t l3_bytes = 6ull << 20);

/// ChaseLevDeque, one thread, no contention: ns per push_bottom +
/// pop_bottom pair, per steal_top, and per steal_batch call (which moves
/// up to 16 tasks; the mean moved is reported beside it).
double deque_push_pop_ns();
double deque_steal_ns();
double deque_steal_batch_ns(double& tasks_per_batch);

/// Median wall time of an empty Runtime::run() / run_on() epoch.
double empty_run_us(cab::runtime::Runtime& rt);
double empty_run_on_us(cab::runtime::Runtime& rt,
                       const std::vector<int>& squads);

/// Counter readings of a window of `ops` ops: steals, steal success,
/// idle sleeps, inter-tier acquires and steals, promotions per spawn.
void report_scheduler_stats(Report& rep,
                            const cab::runtime::SchedulerStats& st,
                            double ops);

/// Attribution buckets summed over the traced ops of a pass.
struct AttribSum {
  cab::obs::attrib::Buckets total;
  std::uint64_t dropped = 0;
  void add(const cab::obs::attrib::Attribution& a);
  /// attrib.*_frac and obs.dropped_events.
  void report(Report& rep) const;
};

/// The untraced pass of a closed-loop runtime workload in a traced run:
/// `op(i)` on `rt` for `window_s`, then the counter readings, CPU per wall
/// and peak live frames of that window. Its ops count toward `out`.
LoopResult untraced_pass(Report& rep, Outcome& out,
                         cab::runtime::Runtime& rt, double window_s,
                         const std::function<bool(std::uint64_t)>& op);

/// The traced pass of a closed-loop workload: `op(i, log)` on `rt`, whose
/// Options::trace is on and which was built right after `epoch_ns` was
/// read, for `window_s` (at least 3 ops), one `op` span each (`op` may add
/// its own spans to `log`). The timeline is emptied before every op.
/// Reports the summed attribution, the dropped events (an error when not
/// 0), obs.trace_overhead_frac against `untraced_p50_ms`, and exports the
/// Chrome trace of the first op.
void traced_pass(const Config& cfg, Report& rep, Outcome& out,
                 cab::runtime::Runtime& rt, std::uint64_t epoch_ns,
                 double window_s, double untraced_p50_ms,
                 const std::function<bool(std::uint64_t, SpanLog&)>& op);

/// traced_pass on a runtime built from `opts` with the timeline on.
void traced_runtime_pass(
    const Config& cfg, Report& rep, Outcome& out, cab::runtime::Options opts,
    double window_s, double untraced_p50_ms,
    const std::function<bool(cab::runtime::Runtime&)>& op);

/// Writes the merged Chrome trace of a traced pass into cfg.out_dir and
/// notes it in the record; a failed export is an error of the run.
void export_trace(const Config& cfg, Report& rep,
                  std::vector<std::string>& errors,
                  const cab::obs::Trace& trace, std::uint64_t epoch_ns,
                  const SpanLog& log);

}  // namespace perfbench
