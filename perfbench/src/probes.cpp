#include "probes.hpp"

#include <array>
#include <cstdlib>
#include <vector>

#include "deque/chase_lev_deque.hpp"

namespace perfbench {

cab::runtime::Options runtime_options(int sockets, int cores,
                                      std::uint64_t seed, std::int32_t bl,
                                      std::uint64_t l3_bytes) {
  cab::runtime::Options o;
  o.topo = cab::hw::Topology::synthetic(sockets, cores, l3_bytes);
  o.boundary_level = bl;
  o.seed = seed;
  // Head-keep tracing must hold a whole traced op (obs.dropped_events
  // must read 0); the buffers grow only as far as they are filled.
  o.trace_capacity = std::size_t{1} << 22;
  return o;
}

namespace {

constexpr int kDequeItems = 1024;
constexpr int kGroups = 21;

std::array<int, kDequeItems>& items() {
  static std::array<int, kDequeItems> a{};
  return a;
}

/// Median over kGroups of (time of `timed` / count it returns), where
/// `prepare` runs untimed before each group.
template <typename Prepare, typename Timed>
double median_per_op_ns(Prepare prepare, Timed timed) {
  std::vector<double> per;
  for (int g = 0; g < kGroups; ++g) {
    prepare();
    const std::uint64_t t0 = wall_ns();
    const std::uint64_t n = timed();
    per.push_back(static_cast<double>(wall_ns() - t0) /
                  static_cast<double>(n));
  }
  return median(per);
}

}  // namespace

double deque_push_pop_ns() {
  cab::deque::ChaseLevDeque<int*> dq(kDequeItems);
  std::uint64_t sink = 0;
  const double ns = median_per_op_ns([] {}, [&] {
    for (int rep = 0; rep < 64; ++rep) {
      for (int& v : items()) dq.push_bottom(&v);
      while (int* p = dq.pop_bottom()) sink += static_cast<std::uint64_t>(*p);
    }
    return std::uint64_t{64} * kDequeItems;
  });
  if (sink == 1) std::abort();  // keeps the pops observable
  return ns;
}

double deque_steal_ns() {
  cab::deque::ChaseLevDeque<int*> dq(kDequeItems);
  std::uint64_t sink = 0;
  return median_per_op_ns(
      [&] {
        for (int& v : items()) dq.push_bottom(&v);
      },
      [&] {
        std::uint64_t n = 0;
        while (int* p = dq.steal_top()) {
          sink += static_cast<std::uint64_t>(*p);
          ++n;
        }
        return n + (sink == 1 ? 1 : 0);
      });
}

double deque_steal_batch_ns(double& tasks_per_batch) {
  cab::deque::ChaseLevDeque<int*> dq(kDequeItems);
  std::uint64_t calls = 0;
  std::uint64_t moved = 0;
  const double ns = median_per_op_ns(
      [&] {
        for (int& v : items()) dq.push_bottom(&v);
      },
      [&] {
        std::uint64_t n = 0;
        int* out[16];
        while (std::size_t k = dq.steal_batch(out, 16)) {
          moved += k;
          ++n;
        }
        calls += n;
        return n;
      });
  tasks_per_batch =
      calls > 0 ? static_cast<double>(moved) / static_cast<double>(calls) : 0;
  return ns;
}

namespace {

template <typename Epoch>
double median_epoch_us(Epoch epoch) {
  constexpr int kReps = 400;
  for (int i = 0; i < 20; ++i) epoch();  // wake every worker once
  std::vector<double> us;
  us.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = wall_ns();
    epoch();
    us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  return median(us);
}

}  // namespace

double empty_run_us(cab::runtime::Runtime& rt) {
  return median_epoch_us([&] { rt.run([] {}); });
}

double empty_run_on_us(cab::runtime::Runtime& rt,
                       const std::vector<int>& squads) {
  return median_epoch_us([&] { rt.run_on(squads, 0, [] {}); });
}

void report_scheduler_stats(Report& rep,
                            const cab::runtime::SchedulerStats& st,
                            double ops) {
  const cab::runtime::WorkerStats& t = st.total;
  const double steals = static_cast<double>(t.intra_steals + t.inter_steals);
  const double tries = steals + static_cast<double>(t.failed_steal_attempts);
  const double spawns = static_cast<double>(t.spawns_intra + t.spawns_inter);
  rep.set("runtime.steals_per_op", steals / ops);
  rep.set("runtime.steal_success_ratio", tries > 0 ? steals / tries : 0);
  rep.set("runtime.idle_sleeps_per_op",
          static_cast<double>(t.idle_backoff_sleeps) / ops);
  rep.set("runtime.inter_acquires_per_op",
          static_cast<double>(t.inter_acquires) / ops);
  rep.set("runtime.inter_steals_per_op",
          static_cast<double>(t.inter_steals) / ops);
  rep.set("runtime.promotion_ratio",
          spawns > 0 ? static_cast<double>(t.alloc_promotions) / spawns : 0);
  rep.note("scheduler_totals",
           "{\"ops\": " + json_num(ops) +
               ", \"tasks\": " + std::to_string(t.tasks_executed) +
               ", \"spawns\": " + json_num(spawns) +
               ", \"lazy_spawns\": " + std::to_string(t.alloc_lazy_spawns) +
               ", \"promotions\": " + std::to_string(t.alloc_promotions) +
               ", \"intra_steals\": " + std::to_string(t.intra_steals) +
               ", \"inter_steals\": " + std::to_string(t.inter_steals) +
               ", \"inter_acquires\": " + std::to_string(t.inter_acquires) +
               ", \"failed_steal_attempts\": " +
               std::to_string(t.failed_steal_attempts) +
               ", \"idle_backoff_sleeps\": " +
               std::to_string(t.idle_backoff_sleeps) + "}");
}

void AttribSum::add(const cab::obs::attrib::Attribution& a) {
  total += a.total;
  dropped += a.dropped_events;
}

void AttribSum::report(Report& rep) const {
  const double wall = static_cast<double>(total.wall);
  auto frac = [&](std::uint64_t v) {
    return wall > 0 ? static_cast<double>(v) / wall : 0.0;
  };
  rep.set("attrib.exec_frac", frac(total.exec()));
  rep.set("attrib.steal_frac", frac(total.steal_intra + total.steal_inter));
  rep.set("attrib.protocol_frac", frac(total.protocol));
  rep.set("attrib.idle_frac", frac(total.idle));
  rep.set("attrib.untracked_frac", frac(total.untracked));
  rep.set("obs.dropped_events", static_cast<double>(dropped));
}

LoopResult untraced_pass(Report& rep, Outcome& out,
                         cab::runtime::Runtime& rt, double window_s,
                         const std::function<bool(std::uint64_t)>& op) {
  rt.reset_stats();
  const LoopResult r = closed_loop(window_s, 10, op);
  out.tally = r.tally;
  note_window(rep, "untraced_window", r);
  report_scheduler_stats(rep, rt.stats(),
                         static_cast<double>(r.tally.attempted));
  rep.set("runtime.cpu_per_wall", r.cpu_s / r.wall_s);
  rep.set("runtime.peak_live_frames",
          static_cast<double>(rt.peak_live_frames()));
  return r;
}

namespace {

/// Adds the level-0 task spans of `trace` (relative to `epoch_ns`) to
/// `log` as unexported children of the `op` span `id`, so the op's self
/// time is the epoch's start and join around the root task.
void add_root_task_spans(SpanLog& log, const cab::obs::Trace& trace,
                         std::uint64_t epoch_ns, std::uint64_t id) {
  for (const auto& w : trace.workers) {
    for (const auto& e : w.events) {
      if (e.kind == cab::obs::EventKind::kTaskExec && e.a == 0) {
        log.add("root_task", "op", id, epoch_ns + e.t0, epoch_ns + e.t1,
                /*exported=*/false);
      }
    }
  }
}

}  // namespace

void traced_pass(const Config& cfg, Report& rep, Outcome& out,
                 cab::runtime::Runtime& rt, std::uint64_t epoch_ns,
                 double window_s, double untraced_p50_ms,
                 const std::function<bool(std::uint64_t, SpanLog&)>& op) {
  SpanLog log;
  AttribSum attrib;
  cab::obs::Trace first;
  std::vector<double> lat_ms;
  const std::uint64_t start = wall_ns();
  for (std::uint64_t i = 0;
       i < 3 || static_cast<double>(wall_ns() - start) < window_s * 1e9;
       ++i) {
    rt.reset_stats();  // also empties the timeline: one op per trace
    const std::uint64_t t0 = wall_ns();
    const bool ok = op(i, log);
    const std::uint64_t t1 = wall_ns();
    out.tally.record(ok);
    lat_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    log.add("op", "", i, t0, t1);
    cab::obs::Trace tr = rt.trace();
    add_root_task_spans(log, tr, epoch_ns, i);
    attrib.add(cab::obs::attrib::attribute(tr));
    if (i == 0) first = std::move(tr);
  }
  attrib.report(rep);
  if (attrib.dropped != 0) out.errors.push_back("timeline dropped events");
  rep.set("obs.trace_overhead_frac",
          (median(lat_ms) - untraced_p50_ms) / untraced_p50_ms);
  export_trace(cfg, rep, out.errors, first, epoch_ns, log);
}

void traced_runtime_pass(
    const Config& cfg, Report& rep, Outcome& out, cab::runtime::Options opts,
    double window_s, double untraced_p50_ms,
    const std::function<bool(cab::runtime::Runtime&)>& op) {
  opts.trace = true;
  // The runtime stamps its timeline epoch first thing in its
  // constructor; this reading precedes it by well under a microsecond.
  const std::uint64_t epoch = wall_ns();
  cab::runtime::Runtime rt(opts);
  traced_pass(cfg, rep, out, rt, epoch, window_s, untraced_p50_ms,
              [&](std::uint64_t, SpanLog&) { return op(rt); });
}

void export_trace(const Config& cfg, Report& rep,
                  std::vector<std::string>& errors,
                  const cab::obs::Trace& trace, std::uint64_t epoch_ns,
                  const SpanLog& log) {
  // ~20 MB of JSON at most: enough to see the schedule's shape.
  constexpr std::size_t kMaxRuntimeEvents = 200'000;
  const std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".json";
  const TraceExport ex =
      write_merged_trace(path, trace, epoch_ns, log, kMaxRuntimeEvents);
  if (!ex.ok) errors.push_back("chrome trace: " + ex.error);
  rep.note("chrome_trace",
           "{\"path\": " + json_str(path) +
               ", \"ok\": " + (ex.ok ? "true" : "false") +
               ", \"runtime_events\": " + std::to_string(ex.runtime_events) +
               ", \"runtime_events_total\": " +
               std::to_string(ex.runtime_events_total) +
               ", \"bench_events\": " + std::to_string(ex.bench_events) +
               ", \"parsed_runtime_events\": " +
               std::to_string(ex.parsed_events) + "}");
  rep.note("self_time", log.self_time_json());
}

}  // namespace perfbench
