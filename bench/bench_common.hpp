#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cab.hpp"
#include "obs/attrib/critical_path.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics/perf_source.hpp"
#include "runtime/graph_runner.hpp"
#include "util/args.hpp"
#include "util/format.hpp"

namespace cab::bench {

/// All figure/table benches run on the paper's testbed model.
inline hw::Topology paper_topology() { return hw::Topology::opteron_8380(); }

/// Scale factor for input sizes: CAB_BENCH_SCALE=0.5 halves matrix rows/
/// cols (quarter data) for quick runs; default 1.0 = the paper's sizes.
inline double bench_scale() {
  if (const char* s = std::getenv("CAB_BENCH_SCALE")) {
    double v = std::atof(s);
    if (v > 0.01 && v <= 4.0) return v;
  }
  return 1.0;
}

inline std::int64_t scaled(std::int64_t v) {
  return static_cast<std::int64_t>(static_cast<double>(v) * bench_scale());
}

/// Flags shared by every figure/table/ablation bench, validated up front.
struct BenchArgs {
  std::string trace_path;  ///< --trace=<file>: Chrome-trace replay dump
  std::string json_path;   ///< --json=<file>: machine-readable record
  /// --attrib (bare) enables cycle-accounting attribution of the runtime
  /// replay: the breakdown + realized-critical-path summary print on
  /// stdout and merge into the --json record; --attrib=<file> also writes
  /// the standalone cab-attrib-v1 record there.
  bool attrib = false;
  std::string attrib_path;
  /// --adapt=static|adaptive|fixed:<bl>: BL policy for the --trace/--json
  /// runtime replay. Adaptive replays run several epochs so the
  /// controller has decisions to record; the cab-adapt-v1 report is
  /// embedded in the cab-bench-v1 record either way.
  adapt::Policy adapt;
  /// --steal=uniform|weighted|weighted+half: in-squad victim selection for
  /// the runtime replay (ablation axis; default = the runtime's default).
  runtime::StealPolicy steal = runtime::Options{}.steal;
  /// --lazy-spawn=on|off: stack-slot lazy task creation with steal-time
  /// promotion vs the eager pooled path (ablation axis; default = the
  /// runtime's default, on).
  bool lazy_spawn = runtime::Options{}.lazy_spawn;
};

inline BenchArgs& bench_args() {
  static BenchArgs a;
  return a;
}

/// Parses and validates argv before the bench runs. Unknown `--` flags
/// are rejected with a usage message (exit code 2) instead of being
/// silently ignored — a misspelled --json must not discard an hour-long
/// run's record. Returns 0 to proceed.
inline int parse_args(int argc, char** argv) {
  bench_args().trace_path = util::args::value(argc, argv, "trace");
  bench_args().json_path = util::args::value(argc, argv, "json");
  bench_args().attrib = util::args::has_flag(argc, argv, "attrib");
  bench_args().attrib_path = util::args::eq_value(argc, argv, "attrib");
  const std::string adapt_spec = util::args::value(argc, argv, "adapt");
  if (!adapt_spec.empty() &&
      !adapt::parse_policy(adapt_spec, bench_args().adapt)) {
    std::fprintf(stderr,
                 "%s: bad --adapt policy \"%s\" "
                 "(expected static|adaptive|fixed:<bl>)\n",
                 argv[0], adapt_spec.c_str());
    return 2;
  }
  const std::string steal_spec = util::args::value(argc, argv, "steal");
  if (!steal_spec.empty() &&
      !runtime::parse_steal_policy(steal_spec, bench_args().steal)) {
    std::fprintf(stderr,
                 "%s: bad --steal policy \"%s\" "
                 "(expected uniform|weighted|weighted+half)\n",
                 argv[0], steal_spec.c_str());
    return 2;
  }
  const std::string lazy_spec = util::args::value(argc, argv, "lazy-spawn");
  if (!lazy_spec.empty()) {
    if (lazy_spec == "on") {
      bench_args().lazy_spawn = true;
    } else if (lazy_spec == "off") {
      bench_args().lazy_spawn = false;
    } else {
      std::fprintf(stderr,
                   "%s: bad --lazy-spawn value \"%s\" (expected on|off)\n",
                   argv[0], lazy_spec.c_str());
      return 2;
    }
  }
  // Unknown `--` flags are rejected (exit 2) instead of being silently
  // ignored — a misspelled --json must not discard an hour-long run's
  // record. `--attrib` takes no space-separated value: only the `=` form
  // carries the record path.
  static const std::vector<util::args::FlagSpec> kKnown = {
      {"trace", true},  {"json", true},       {"adapt", true},
      {"steal", true},  {"lazy-spawn", true}, {"attrib", false},
  };
  const std::string unknown = util::args::first_unknown(argc, argv, kKnown);
  if (!unknown.empty()) {
    std::fprintf(stderr,
                 "%s: unknown flag: %s\n"
                 "usage: %s [--trace=<chrome_trace.json>] "
                 "[--json=<record.json>] [--attrib[=<attrib.json>]] "
                 "[--adapt=<policy>]\n"
                 "  --trace  replay the bench's representative workload on "
                 "the threaded\n"
                 "           runtime and dump a Chrome-trace timeline "
                 "(view: chrome://tracing,\n"
                 "           summarize: tools/cab_trace)\n"
                 "  --json   write a schema-versioned machine-readable "
                 "record of every\n"
                 "           configuration this bench ran (merge/diff: "
                 "tools/cab_bench_report)\n"
                 "  --attrib cycle-accounting attribution of the replay: "
                 "where the epoch's\n"
                 "           time went plus the realized critical path and "
                 "achievable-speedup\n"
                 "           bound; merged into --json, standalone record "
                 "via --attrib=<file>\n"
                 "  --adapt  BL policy for the runtime replay: static "
                 "(default), adaptive\n"
                 "           (multi-epoch feedback retuning), or "
                 "fixed:<bl>; the cab-adapt-v1\n"
                 "           decision record lands in the --json output\n"
                 "  --steal  in-squad victim selection for the runtime "
                 "replay: uniform\n"
                 "           (the paper's Algorithm I), weighted, or "
                 "weighted+half (default)\n"
                 "  --lazy-spawn  on (default) runs spawns on stack-slot "
                 "lazy frames with\n"
                 "           steal-time promotion; off replays the eager "
                 "pooled path\n",
                 argv[0], unknown.c_str(), argv[0]);
    return 2;
  }
  return 0;
}

/// Collects per-configuration results while a bench runs; written out by
/// finish() when --json was requested. Entries are prebuilt JSON objects.
class JsonRecorder {
 public:
  static JsonRecorder& instance() {
    static JsonRecorder r;
    return r;
  }

  /// Records one CAB-vs-baseline comparison under a config name unique
  /// within the bench (e.g. "heat/1kx1k").
  void add_comparison(const std::string& config, const Comparison& c,
                      double wall_s) {
    std::string j = "{\"name\":\"" + config + "\"";
    j += ",\"wall_s\":" + util::format_fixed(wall_s, 6);
    j += ",\"boundary_level\":" + std::to_string(c.boundary_level);
    j += ",\"normalized_time\":" + util::format_fixed(c.normalized_time(), 4);
    j += ",\"gain_percent\":" + util::format_fixed(c.gain_percent(), 2);
    j += ",\"cab\":" + c.cab.to_json();
    j += ",\"cilk\":" + c.cilk.to_json();
    j += "}";
    entries_.push_back(std::move(j));
  }

  /// Records free-form numeric results for benches whose unit of work is
  /// not a Comparison (BL sweeps, ablations, flexible partitioning).
  void add_values(
      const std::string& config,
      const std::vector<std::pair<std::string, double>>& values,
      double wall_s = -1.0) {
    std::string j = "{\"name\":\"" + config + "\"";
    if (wall_s >= 0) j += ",\"wall_s\":" + util::format_fixed(wall_s, 6);
    for (const auto& [k, v] : values) {
      j += ",\"" + k + "\":" + util::format_fixed(v, 6);
    }
    j += "}";
    entries_.push_back(std::move(j));
  }

  const std::vector<std::string>& entries() const { return entries_; }

 private:
  std::vector<std::string> entries_;
};

/// compare_schedulers plus wall-clock timing and JSON recording — the
/// drop-in the figure/table benches use so every printed row also lands
/// in the --json record.
inline Comparison compare_and_record(const std::string& config,
                                     const apps::DagBundle& bundle,
                                     const hw::Topology& topo,
                                     std::int32_t bl = -1,
                                     std::uint64_t seed = 1,
                                     const simsched::CostModel& cost = {}) {
  const auto t0 = std::chrono::steady_clock::now();
  Comparison c = compare_schedulers(bundle, topo, bl, seed, cost);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  JsonRecorder::instance().add_comparison(config, c, wall_s);
  return c;
}

/// One deterministic CAB simulation of a bundle at a fixed BL (the
/// round-robin victim configuration every figure bench uses), full
/// result — cache/coherence stats included.
inline simsched::SimResult simulate_cab_result(const apps::DagBundle& bundle,
                                               const hw::Topology& topo,
                                               std::int32_t bl,
                                               std::uint64_t seed = 1) {
  simsched::SimOptions o;
  o.topo = topo;
  o.policy = simsched::SimPolicy::kCab;
  o.boundary_level = bl;
  o.victims = simsched::VictimSelection::kRoundRobin;
  o.seed = seed;
  return simsched::Simulator(o).run(bundle.graph, bundle.traces);
}

inline double simulate_cab_bl(const apps::DagBundle& bundle,
                              const hw::Topology& topo, std::int32_t bl,
                              std::uint64_t seed = 1) {
  return simulate_cab_result(bundle, topo, bl, seed).makespan;
}

/// Trajectory of an adaptive-BL episode driven by simulator makespans.
struct AdaptiveSimResult {
  std::vector<std::int32_t> bls;  ///< BL each epoch executed under
  std::vector<double> makespans;  ///< simulated makespan per epoch
  std::int32_t final_bl = 0;      ///< BL in force after the last epoch
  double final_makespan = 0.0;    ///< makespan at final_bl
  adapt::Report report;           ///< every controller decision
};

/// Drives an adapt::Controller for `epochs` epochs, scoring each epoch
/// with the deterministic simulator (memoized per BL — revisiting a BL
/// reproduces its score exactly, so trajectories are reproducible and
/// comparable against a fixed-BL oracle sweep of the same bundle). The
/// epoch samples carry the DAG's true shape counters, exactly what the
/// threaded runtime's profiler would accumulate.
inline AdaptiveSimResult run_adaptive_sim(const apps::DagBundle& bundle,
                                          const hw::Topology& topo,
                                          std::int32_t seed_bl, int epochs,
                                          std::uint64_t seed = 1) {
  std::uint64_t spawning = 0;
  for (std::size_t i = 0; i < bundle.graph.size(); ++i) {
    if (!bundle.graph.node(static_cast<dag::NodeId>(i)).children.empty()) {
      ++spawning;
    }
  }
  adapt::Policy pol;
  pol.mode = adapt::Mode::kAdaptive;
  pol.input_bytes_hint = bundle.input_bytes;
  adapt::Controller ctl(pol, topo);

  std::map<std::int32_t, simsched::SimResult> memo;
  AdaptiveSimResult r;
  std::int32_t bl = seed_bl;
  for (int ep = 1; ep <= epochs; ++ep) {
    auto it = memo.find(bl);
    if (it == memo.end()) {
      it = memo.emplace(bl, simulate_cab_result(bundle, topo, bl, seed)).first;
    }
    const simsched::SimResult& sim = it->second;
    const double makespan = sim.makespan;
    r.bls.push_back(bl);
    r.makespans.push_back(makespan);

    adapt::EpochSample s;
    s.epoch = static_cast<std::uint64_t>(ep);
    s.bl = bl;
    s.wall_ns = static_cast<std::uint64_t>(std::llround(makespan));
    s.tasks = bundle.graph.size();
    s.spawns = bundle.graph.size() - 1;  // every non-root node was spawned
    s.spawning_tasks = spawning;
    s.max_level = bundle.graph.max_level();
    s.working_set_hint = bundle.input_bytes;
    // The simulated epoch carries the hierarchy's coherence picture —
    // the signal the threaded runtime can't measure (hardware gives no
    // per-epoch sharing classification), so the profiler only sees it
    // on simulator-driven episodes.
    s.coh_valid = true;
    s.cache_accesses = sim.cache.l2_accesses;
    s.coherence_misses = sim.cache.coherence_misses;
    s.true_sharing_invalidations = sim.cache.true_sharing_invalidations;
    s.false_sharing_invalidations = sim.cache.false_sharing_invalidations;
    bl = ctl.on_epoch_end(s);
  }
  r.final_bl = bl;
  r.final_makespan = memo.count(bl) != 0
                         ? memo[bl].makespan
                         : simulate_cab_bl(bundle, topo, bl, seed);
  r.report = ctl.report();
  return r;
}

namespace detail {

inline void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Best-effort build identity: CAB_GIT_REV env (CI sets it), else a
/// `git rev-parse` of the working tree, else "unknown".
inline std::string git_rev() {
  if (const char* v = std::getenv("CAB_GIT_REV"); v != nullptr && *v) {
    return v;
  }
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, p);
    ::pclose(p);
    std::string rev(buf, n);
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
      rev.pop_back();
    }
    if (!rev.empty()) return rev;
  }
#endif
  return "unknown";
}

}  // namespace detail

/// The envelope every bench record opens with, whatever its schema —
/// schema name, bench id, git rev, timestamp and topology — left open
/// after the topology object so the schema appends its own fields
/// (cab-bench-v1: record_head; cab-svc-v1: bench_service.cpp) and closes
/// the record.
inline std::string record_envelope(const std::string& schema,
                                   const std::string& bench_id,
                                   const hw::Topology& topo) {
  std::string j = "{\"schema\":";
  detail::append_escaped(j, schema);
  j += ",\"bench\":";
  detail::append_escaped(j, bench_id);
  j += ",\"git_rev\":";
  detail::append_escaped(j, detail::git_rev());
  j += ",\"generated_unix\":" +
       std::to_string(static_cast<long long>(std::time(nullptr)));
  j += ",\"topology\":{\"sockets\":" + std::to_string(topo.sockets());
  j += ",\"cores_per_socket\":" + std::to_string(topo.cores_per_socket());
  j += ",\"shared_cache_bytes\":" + std::to_string(topo.shared_cache_bytes());
  j += ",\"describe\":";
  detail::append_escaped(j, topo.describe());
  j += "}";
  return j;
}

/// The head every cab-bench-v1 record shares — the envelope, the scale and
/// the configs JsonRecorder collected — left open after the configs array
/// so the caller appends its `,"runtime":{...}` object and closes the
/// record with `}`.
inline std::string record_head(const std::string& bench_id,
                               const hw::Topology& topo) {
  std::string j = record_envelope("cab-bench-v1", bench_id, topo);
  j += ",\"scale\":" + util::format_fixed(bench_scale(), 2);
  j += ",\"configs\":[";
  const auto& entries = JsonRecorder::instance().entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) j += ',';
    j += '\n';
    j += entries[i];
  }
  j += "]";
  return j;
}

/// Writes a finished record to `path`; reports and returns false on I/O
/// failure.
inline bool write_record(const std::string& path, const std::string& j) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write json record: %s\n", path.c_str());
    return false;
  }
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);
  return true;
}

/// Handles the post-run side of --trace and --json: replays the bench's
/// representative workload (built lazily by `make_bundle`) once on the
/// *real threaded runtime* — paper topology, Eq. 4 boundary level,
/// timeline tracing and hardware counters on — then writes whichever
/// outputs were requested:
///   --trace  Chrome-trace JSON with the metrics registry merged in as
///            counter tracks,
///   --json   a schema-versioned `cab-bench-v1` record: bench id, scale,
///            git rev, topology, every recorded per-config result
///            (wall time + simulator cache stats), and the runtime
///            replay's metrics snapshot incl. HW counters (marked
///            unavailable when perf is not permitted).
/// Returns the bench's exit code (0 when neither flag is present).
inline int finish(const char* bench_id,
                  const std::function<apps::DagBundle()>& make_bundle) {
  const std::string trace_path = bench_args().trace_path;
  const std::string json_path = bench_args().json_path;
  const bool want_attrib = bench_args().attrib;
  // --adapt or --attrib alone still runs the replay (the printed
  // trajectory/breakdown is the output); without any of the flags there
  // is nothing to do.
  if (trace_path.empty() && json_path.empty() && !want_attrib &&
      bench_args().adapt.mode == adapt::Mode::kStatic) {
    return 0;
  }

  apps::DagBundle bundle = make_bundle();
  runtime::Options o;
  o.topo = paper_topology();
  o.kind = runtime::SchedulerKind::kCab;
  o.boundary_level = bundle_boundary_level(bundle, o.topo);
  o.trace = !trace_path.empty() || want_attrib;
  o.metrics = true;
  o.hw_counters = true;
  o.adapt = bench_args().adapt;
  o.steal = bench_args().steal;
  o.lazy_spawn = bench_args().lazy_spawn;
  if (o.adapt.input_bytes_hint == 0) {
    o.adapt.input_bytes_hint = bundle.input_bytes;
  }
  // One epoch suffices for a static/pinned replay; an adaptive replay
  // runs several so the controller has something to climb on (BL only
  // ever changes between run() epochs).
  const int epochs = o.adapt.mode == adapt::Mode::kAdaptive ? 6 : 1;
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Runtime rt(o);
  for (int ep = 0; ep < epochs; ++ep) {
    runtime::run_graph(rt, bundle.graph);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::metrics::Snapshot metrics = rt.metrics_snapshot();
  const adapt::Report adapt_report = rt.adapt_report();
  if (o.adapt.mode != adapt::Mode::kStatic) {
    std::printf("adapt replay: policy %s, %d epoch(s), BL %d -> %d (%zu "
                "decisions)\n",
                adapt::to_string(o.adapt).c_str(), epochs, o.boundary_level,
                rt.current_boundary_level(), adapt_report.decisions.size());
  }

  // Attribution first: the Chrome trace embeds it as counter tracks.
  obs::attrib::Attribution attribution;
  obs::attrib::RealizedPath realized;
  std::string attrib_json, critpath_json;
  if (want_attrib || !trace_path.empty()) {
    obs::Trace t = rt.trace();
    t.workload = bundle.name;
    if (want_attrib) {
      attribution = obs::attrib::attribute(t);
      realized = obs::attrib::realized_critical_path(t, bundle.graph);
      attrib_json = attribution.to_json();
      critpath_json = realized.to_json();
      std::printf("%s%s", attribution.to_string().c_str(),
                  realized.to_string().c_str());
      // The bound next to what the replay actually achieved: realized T1
      // over the attribution window is the measured speedup.
      const double measured =
          attribution.window_ns() > 0
              ? static_cast<double>(realized.realized_t1_ns) /
                    static_cast<double>(attribution.window_ns())
              : 0.0;
      std::printf("  measured speedup %.2fx of achievable bound %.2fx\n",
                  measured, realized.speedup_bound);
      if (!bench_args().attrib_path.empty()) {
        if (std::FILE* f = std::fopen(bench_args().attrib_path.c_str(),
                                      "w")) {
          std::fwrite(attrib_json.data(), 1, attrib_json.size(), f);
          std::fputc('\n', f);
          std::fclose(f);
          std::printf("attrib record: %s\n",
                      bench_args().attrib_path.c_str());
        } else {
          std::fprintf(stderr, "cannot write attrib record: %s\n",
                       bench_args().attrib_path.c_str());
          return 1;
        }
      }
    }
    if (!trace_path.empty()) {
      if (!obs::write_chrome_trace_file(t, trace_path, &metrics,
                                        want_attrib ? &attribution
                                                    : nullptr)) {
        std::fprintf(stderr, "cannot write trace file: %s\n",
                     trace_path.c_str());
        return 1;
      }
      std::printf(
          "trace: %s on %s (BL=%d) -> %s (%zu events, %llu dropped)\n"
          "view in chrome://tracing or summarize with: cab_trace %s\n",
          bundle.name.c_str(), to_string(o.kind), o.boundary_level,
          trace_path.c_str(), t.event_count(),
          static_cast<unsigned long long>(t.dropped_count()),
          trace_path.c_str());
    }
  }

  if (!json_path.empty()) {
    std::string j = record_head(bench_id, o.topo);
    j += ",\"runtime\":{\"workload\":";
    detail::append_escaped(j, bundle.name);
    j += ",\"boundary_level\":" + std::to_string(o.boundary_level);
    j += ",\"steal\":";
    detail::append_escaped(j, to_string(o.steal));
    j += ",\"final_boundary_level\":" +
         std::to_string(rt.current_boundary_level());
    j += ",\"epochs\":" + std::to_string(epochs);
    j += ",\"wall_s\":" + util::format_fixed(wall_s, 6);
    if (!attrib_json.empty()) {
      j += ",\"attrib\":" + attrib_json;
      j += ",\"critical_path\":" + critpath_json;
    }
    j += ",\"adapt\":" + adapt_report.to_json();
    j += ",\"hw_available\":";
    j += metrics.hw_available ? "true" : "false";
    j += ",\"hw_reason\":";
    detail::append_escaped(j, metrics.hw_reason);
    j += ",\"metrics\":" + metrics.to_json();
    j += "}}\n";
    if (!write_record(json_path, j)) return 1;
    std::printf("json record: %s (%zu configs, hw counters %s)\n",
                json_path.c_str(), JsonRecorder::instance().entries().size(),
                metrics.hw_available ? "available" : "unavailable");
  }
  return 0;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("machine model: %s\n", paper_topology().describe().c_str());
  if (bench_scale() != 1.0)
    std::printf("NOTE: CAB_BENCH_SCALE=%.2f (inputs scaled)\n", bench_scale());
  std::printf("================================================================\n");
}

}  // namespace cab::bench
