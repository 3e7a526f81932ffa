// sim-memory: single-threaded compare_schedulers (CAB against random
// stealing) for heat, sor and mergesort on the Opteron 8380 model. Without
// it the cache simulator and the discrete-event scheduler go unmeasured.
// Gaussian elimination is left out: one replay of it takes about a
// minute. Each op replays all three; its check is that the replay agrees
// bit for bit with the reference replay made in set-up, and that every
// DAG node ran exactly once.

#include <cmath>
#include <cstring>
#include <memory>

#include "apps/heat.hpp"
#include "apps/mergesort.hpp"
#include "apps/sor.hpp"
#include "core/experiment.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<cab::apps::DagBundle> build_bundles() {
  // Sized for ~0.2 s per op (all three replays, both schedulers), so a
  // 15 s window holds 40-100 ops: a p75 tail with room either side. Leaves
  // are small enough that every DAG has 31+ tasks per phase to place.
  cab::apps::HeatParams heat;
  heat.rows = 512;
  heat.cols = 512;
  heat.steps = 1;
  heat.leaf_rows = 32;
  cab::apps::SorParams sor;
  sor.rows = 384;
  sor.cols = 384;
  sor.iterations = 1;
  sor.leaf_rows = 24;
  cab::apps::MergesortParams ms;
  ms.n = 1 << 15;
  ms.leaf_elems = 2048;
  std::vector<cab::apps::DagBundle> out;
  out.push_back(cab::apps::build_heat_dag(heat));
  out.push_back(cab::apps::build_sor_dag(sor));
  out.push_back(cab::apps::build_mergesort_dag(ms));
  return out;
}

/// Pieces a complete simulation executes: one `pre` piece per node plus
/// one `post` piece per node that has merge work or a merge trace.
std::uint64_t expected_pieces(const cab::dag::TaskGraph& g) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto& node = g.node(static_cast<cab::dag::NodeId>(i));
    n += 1 + ((node.post_work > 0 || node.post_trace >= 0) ? 1 : 0);
  }
  return n;
}

std::uint64_t pieces(const cab::simsched::SimResult& r) {
  std::uint64_t n = 0;
  for (const auto& w : r.workers) n += w.pieces;
  return n;
}

bool same_level_stats(const cab::cachesim::LevelStats& a,
                      const cab::cachesim::LevelStats& b) {
  return a.l1_accesses == b.l1_accesses && a.l1_misses == b.l1_misses &&
         a.l2_accesses == b.l2_accesses && a.l2_misses == b.l2_misses &&
         a.l3_accesses == b.l3_accesses && a.l3_misses == b.l3_misses &&
         a.invalidations == b.invalidations &&
         a.coherence_misses == b.coherence_misses &&
         a.true_sharing_invalidations == b.true_sharing_invalidations &&
         a.false_sharing_invalidations == b.false_sharing_invalidations;
}

/// Bit-for-bit equality of two simulated runs.
bool same_result(const cab::simsched::SimResult& a,
                 const cab::simsched::SimResult& b) {
  if (std::memcmp(&a.makespan, &b.makespan, sizeof(a.makespan)) != 0 ||
      std::memcmp(&a.total_busy, &b.total_busy, sizeof(a.total_busy)) != 0 ||
      std::memcmp(&a.inter_tier_busy, &b.inter_tier_busy,
                  sizeof(a.inter_tier_busy)) != 0 ||
      a.tasks != b.tasks || !same_level_stats(a.cache, b.cache) ||
      a.socket_cache.size() != b.socket_cache.size() ||
      a.workers.size() != b.workers.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.socket_cache.size(); ++s) {
    if (!same_level_stats(a.socket_cache[s], b.socket_cache[s])) return false;
  }
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    const auto& x = a.workers[w];
    const auto& y = b.workers[w];
    if (std::memcmp(&x.busy, &y.busy, sizeof(x.busy)) != 0 ||
        x.pieces != y.pieces || x.intra_steals != y.intra_steals ||
        x.inter_acquires != y.inter_acquires ||
        x.inter_steals != y.inter_steals) {
      return false;
    }
  }
  return true;
}

std::uint64_t accesses(const cab::cachesim::LevelStats& c) {
  // The first simulated level sees every access (L1 is optional).
  return c.l1_accesses > 0 ? c.l1_accesses : c.l2_accesses;
}

struct State {
  std::vector<cab::apps::DagBundle> bundles;
  std::vector<std::uint64_t> pieces;  ///< expected, per bundle
  std::vector<cab::Comparison> reference;
};

std::unique_ptr<State> make_state(const Config& cfg) {
  auto s = std::make_unique<State>();
  s->bundles = build_bundles();
  for (const auto& b : s->bundles) {
    s->pieces.push_back(expected_pieces(b.graph));
    s->reference.push_back(cab::compare_schedulers(
        b, cab::hw::Topology::opteron_8380(), -1, cfg.seed));
  }
  return s;
}

/// One op: every bundle replayed under both schedulers and checked.
/// With `log`, one `replay.<app>` span per bundle under the `op` span.
bool run_op(const Config& cfg, const State& s, std::uint64_t i, bool corrupt,
            SpanLog* log) {
  bool ok = true;
  for (std::size_t b = 0; b < s.bundles.size(); ++b) {
    const std::uint64_t t0 = wall_ns();
    cab::Comparison c = cab::compare_schedulers(
        s.bundles[b], cab::hw::Topology::opteron_8380(), -1, cfg.seed);
    if (log != nullptr) {
      log->add("replay." + s.bundles[b].name, "op", i, t0, wall_ns());
    }
    if (corrupt && b == 0) c.cab.makespan += 1;
    ok = ok && same_result(c.cab, s.reference[b].cab) &&
         same_result(c.cilk, s.reference[b].cilk) &&
         pieces(c.cab) == s.pieces[b] && pieces(c.cilk) == s.pieces[b];
  }
  return ok;
}

}  // namespace

Outcome run_sim_memory(const Config& cfg, Report& rep) {
  Outcome out;
  out.topology = "simulated Opteron 8380, 4x4 (single host thread)";
  out.workers = 1;
  std::vector<double> setup_s;
  std::unique_ptr<State> s = timed_setup<State>(
      [&] { return make_state(cfg); }, cfg.process_start_ns, setup_s);
  std::string apps = "[";
  for (std::size_t b = 0; b < s->bundles.size(); ++b) {
    const auto& ref = s->reference[b];
    apps += std::string(b ? ", " : "") + "{\"app\": " +
            json_str(s->bundles[b].name) +
            ", \"nodes\": " + std::to_string(s->bundles[b].graph.size()) +
            ", \"boundary_level\": " + std::to_string(ref.boundary_level) +
            ", \"normalized_time\": " + json_num(ref.normalized_time()) +
            ", \"cab_l3_misses\": " + std::to_string(ref.cab.cache.l3_misses) +
            "}";
  }
  rep.note("apps", apps + "]");

  CpuRotation rotation;  // one vCPU per op
  if (!cfg.trace) {
    const LoopResult r = closed_loop(cfg.seconds, 20, [&](std::uint64_t i) {
      rotation.step();
      return run_op(cfg, *s, i, cfg.inject_fault && i == 0, nullptr);
    });
    out.tally = r.tally;
    report_closed_loop(rep, r, setup_s);
    return out;
  }

  const LoopResult plain =
      closed_loop(cfg.seconds * 0.45, 10, [&](std::uint64_t i) {
        rotation.step();
        return run_op(cfg, *s, i, cfg.inject_fault && i == 0, nullptr);
      });
  out.tally = plain.tally;
  note_window(rep, "untraced_window", plain);
  const double op_s = median(plain.lat_ms) / 1e3;
  double tasks = 0, acc = 0, l3 = 0, log_norm = 0;
  for (const cab::Comparison& c : s->reference) {
    tasks += static_cast<double>(c.cab.tasks + c.cilk.tasks);
    acc += static_cast<double>(accesses(c.cab.cache) + accesses(c.cilk.cache));
    l3 += static_cast<double>(c.cab.cache.l3_misses);
    log_norm += std::log(c.normalized_time());
  }
  rep.set("simsched.tasks_per_s", tasks / op_s);
  rep.set("cachesim.accesses_per_s", acc / op_s);
  rep.set("cachesim.l3_misses", l3);
  rep.set("simsched.normalized_time",
          std::exp(log_norm / static_cast<double>(s->reference.size())));

  // Traced pass: the same ops with benchmark spans around each replay.
  // The simulator has no timeline, so the trace holds only those spans.
  SpanLog log;
  const std::uint64_t epoch = wall_ns();
  const LoopResult traced =
      closed_loop(cfg.seconds * 0.45, 3, [&](std::uint64_t i) {
        rotation.step();
        const std::uint64_t t0 = wall_ns();
        const bool ok = run_op(cfg, *s, i, false, &log);
        log.add("op", "", i, t0, wall_ns());
        return ok;
      });
  out.tally.add(traced.tally);
  const double p50 = median(plain.lat_ms);
  rep.set("obs.trace_overhead_frac", (median(traced.lat_ms) - p50) / p50);
  rep.set("obs.dropped_events", 0);
  cab::obs::Trace empty;
  empty.sockets = 1;
  empty.cores_per_socket = 1;
  empty.scheduler = "simulator";
  empty.workload = "sim-memory";
  empty.workers.push_back(cab::obs::WorkerTimeline{});
  export_trace(cfg, rep, out.errors, empty, epoch, log);
  return out;
}

}  // namespace perfbench
