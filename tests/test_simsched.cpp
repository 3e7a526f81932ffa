#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "apps/ge.hpp"
#include "apps/heat.hpp"
#include "apps/mergesort.hpp"
#include "apps/sor.hpp"
#include "cachesim/trace.hpp"
#include "core/experiment.hpp"
#include "dag/flexible.hpp"
#include "dag/generators.hpp"
#include "param_bytes.hpp"
#include "simsched/sim_scheduler.hpp"

namespace cab::simsched {
namespace {

SimOptions base_options(SimPolicy policy, int bl) {
  SimOptions o;
  o.topo = hw::Topology::synthetic(2, 2, /*l3=*/64 * 1024, /*l2=*/64 * 64);
  o.policy = policy;
  o.boundary_level = bl;
  o.seed = 11;
  return o;
}

TEST(EventQueue, OrdersByTimePriorityThenSequence) {
  EventQueue<int> q;
  q.push(2.0, 1);
  q.push(1.0, 2, /*priority=*/5);
  q.push(1.0, 3, /*priority=*/1);
  q.push(1.0, 4, /*priority=*/1);  // same prio: insertion order
  q.push(0.5, 5);
  SimTime t = 0;
  EXPECT_EQ(q.pop(t), 5);
  EXPECT_DOUBLE_EQ(t, 0.5);
  EXPECT_EQ(q.pop(t), 3);
  EXPECT_EQ(q.pop(t), 4);
  EXPECT_EQ(q.pop(t), 2);
  EXPECT_EQ(q.pop(t), 1);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, SingleNodeGraph) {
  dag::TaskGraph g;
  g.add_root(100);
  cachesim::TraceStore store;
  Simulator sim(base_options(SimPolicy::kCab, 2));
  SimResult r = sim.run(g, store);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.tasks, 1u);
}

TEST(Simulator, MakespanRespectsLowerBounds) {
  // T_MN >= max(T1 / P, T_inf) for any scheduler (greedy bound).
  dag::TaskGraph g = dag::make_recursive_dnc(2, 5, 10000, 10);
  cachesim::TraceStore store;
  for (auto policy : {SimPolicy::kCab, SimPolicy::kRandomStealing}) {
    SimOptions o = base_options(policy, 2);
    Simulator sim(o);
    SimResult r = sim.run(g, store);
    const double t1 = static_cast<double>(g.total_work()) *
                      o.cost.cycles_per_work;
    const double tinf = static_cast<double>(g.critical_path()) *
                        o.cost.cycles_per_work;
    EXPECT_GE(r.makespan * 1.0001, t1 / o.topo.total_cores());
    EXPECT_GE(r.makespan * 1.0001, tinf);
    // And is not absurdly worse than the greedy upper bound T1/P + Tinf
    // plus overheads.
    EXPECT_LT(r.makespan, 4 * (t1 / o.topo.total_cores() + tinf) + 1e6);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  dag::TaskGraph g = dag::make_irregular(3, 4, 7, 400, 2000);
  cachesim::TraceStore store;
  for (auto policy : {SimPolicy::kCab, SimPolicy::kRandomStealing}) {
    SimOptions o = base_options(policy, 2);
    SimResult a = Simulator(o).run(g, store);
    SimResult b = Simulator(o).run(g, store);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.cache.l3_misses, b.cache.l3_misses);
    EXPECT_EQ(a.total_busy, b.total_busy);
  }
}

TEST(Simulator, SeedChangesRandomPolicySchedule) {
  dag::TaskGraph g = dag::make_irregular(3, 4, 7, 400, 2000);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  o.victims = VictimSelection::kUniformRandom;
  SimResult a = Simulator(o).run(g, store);
  o.seed = 999;
  SimResult b = Simulator(o).run(g, store);
  // Work conservation regardless of seed.
  EXPECT_EQ(a.tasks, b.tasks);
}

TEST(Simulator, AllPiecesExecuteExactlyOnce) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 4, 100, 5);
  cachesim::TraceStore store;
  std::map<dag::NodeId, int> pre_runs;
  SimOptions o = base_options(SimPolicy::kCab, 2);
  o.on_piece_start = [&](dag::NodeId n, int, SimTime, bool post) {
    if (!post) ++pre_runs[n];
  };
  Simulator(o).run(g, store);
  EXPECT_EQ(pre_runs.size(), g.size());
  for (const auto& [n, count] : pre_runs) EXPECT_EQ(count, 1) << "node " << n;
}

TEST(Simulator, SequentialPhasesDoNotOverlap) {
  // Root with 4 sequential phases; each phase a small parallel tree.
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  g.set_sequential(root, true);
  std::vector<std::set<dag::NodeId>> phase_nodes;
  for (int p = 0; p < 4; ++p) {
    dag::NodeId ph = g.add_child(root, 5);
    std::set<dag::NodeId> nodes{ph};
    for (int i = 0; i < 3; ++i) nodes.insert(g.add_child(ph, 500));
    phase_nodes.push_back(std::move(nodes));
  }
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 1);
  std::map<dag::NodeId, int> node_phase;
  for (int p = 0; p < 4; ++p)
    for (dag::NodeId n : phase_nodes[static_cast<std::size_t>(p)])
      node_phase[n] = p;
  std::vector<double> phase_first_start(4, 1e30), phase_last_start(4, -1);
  o.on_piece_start = [&](dag::NodeId n, int, SimTime t, bool) {
    auto it = node_phase.find(n);
    if (it == node_phase.end()) return;
    phase_first_start[static_cast<std::size_t>(it->second)] =
        std::min(phase_first_start[static_cast<std::size_t>(it->second)], t);
    phase_last_start[static_cast<std::size_t>(it->second)] =
        std::max(phase_last_start[static_cast<std::size_t>(it->second)], t);
  };
  Simulator(o).run(g, store);
  // Phase p+1's first task starts after phase p's last task started
  // (strict ordering: after it *completed*, so certainly after it began).
  for (int p = 0; p + 1 < 4; ++p) {
    EXPECT_GE(phase_first_start[static_cast<std::size_t>(p + 1)],
              phase_last_start[static_cast<std::size_t>(p)]);
  }
}

TEST(Simulator, CabOnlyHeadsRunInterTasks) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 5, 400, 5);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 3);
  bool violation = false;
  o.on_piece_start = [&](dag::NodeId n, int worker, SimTime, bool) {
    // Inter-tier tasks (level <= 3) must execute on head workers
    // (worker id divisible by cores/socket = 2).
    if (g.node(n).level <= 3 && worker % 2 != 0) violation = true;
  };
  Simulator(o).run(g, store);
  EXPECT_FALSE(violation);
}

TEST(Simulator, CabConfinesIntraTasksToOneSocketPerLeafInterSubtree) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 6, 2000, 5);
  cachesim::TraceStore store;
  const std::int32_t bl = 2;
  SimOptions o = base_options(SimPolicy::kCab, bl);
  // Map each node to its leaf-inter ancestor (level == bl).
  std::vector<dag::NodeId> anchor(g.size(), dag::kNoNode);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto& n = g.node(static_cast<dag::NodeId>(i));
    if (n.level == bl) anchor[i] = static_cast<dag::NodeId>(i);
    else if (n.level > bl) anchor[i] = anchor[static_cast<std::size_t>(n.parent)];
  }
  std::map<dag::NodeId, std::set<int>> sockets_used;
  o.on_piece_start = [&](dag::NodeId n, int worker, SimTime, bool) {
    if (g.node(n).level > bl)
      sockets_used[anchor[static_cast<std::size_t>(n)]].insert(worker / 2);
  };
  Simulator(o).run(g, store);
  EXPECT_FALSE(sockets_used.empty());
  for (const auto& [a, socks] : sockets_used)
    EXPECT_EQ(socks.size(), 1u) << "leaf-inter subtree " << a
                                << " ran on multiple sockets";
}

TEST(Simulator, RandomStealingSpreadsAcrossAllWorkers) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 7, 3000, 5);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  o.victims = VictimSelection::kUniformRandom;
  std::set<int> workers_used;
  o.on_piece_start = [&](dag::NodeId, int worker, SimTime, bool) {
    workers_used.insert(worker);
  };
  Simulator(o).run(g, store);
  EXPECT_EQ(workers_used.size(),
            static_cast<std::size_t>(o.topo.total_cores()));
}

TEST(Simulator, PostPiecesRunAfterChildren) {
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1, /*post=*/50);
  dag::NodeId a = g.add_child(root, 10, 20);
  g.add_child(a, 100);
  g.add_child(a, 100);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 1);
  std::map<std::pair<dag::NodeId, bool>, double> starts;
  o.on_piece_start = [&](dag::NodeId n, int, SimTime t, bool post) {
    starts[{n, post}] = t;
  };
  SimResult r = Simulator(o).run(g, store);
  ASSERT_TRUE(starts.count({a, true}));
  ASSERT_TRUE(starts.count({root, true}));
  EXPECT_GT((starts[{a, true}]), (starts[{a, false}]));
  EXPECT_GT((starts[{root, true}]), (starts[{a, true}]));
  EXPECT_GT(r.makespan, (starts[{root, true}]));
}

TEST(Simulator, ChildlessInterTaskHoldsSquadThroughPostPiece) {
  // A childless inter-socket task has no sync to suspend at, so its squad
  // stays busy through its post piece, as a runtime task holds it through
  // its whole body. On one squad whose workers may all take inter tasks,
  // the busy gate then keeps every other level-1 task from starting
  // inside a childless level-1 task's post piece. The leaf's long intra
  // child keeps the non-head awake, so under random arbitration either
  // worker may win the childless tasks.
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  dag::NodeId leaf = g.add_child(root, 1);
  g.add_child(leaf, 5000);  // stolen by the non-head, finishes last
  g.add_child(leaf, 100);
  std::vector<dag::NodeId> childless;
  for (int i = 0; i < 4; ++i) childless.push_back(g.add_child(root, 10, 3000));
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 1);
  o.topo = hw::Topology::synthetic(1, 2, /*l3=*/64 * 1024, /*l2=*/64 * 64);
  o.any_worker_inter_steal = true;
  o.victims = VictimSelection::kUniformRandom;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    o.seed = seed;
    std::map<std::pair<dag::NodeId, bool>, SimTime> starts;
    o.on_piece_start = [&](dag::NodeId n, int, SimTime t, bool post) {
      starts[{n, post}] = t;
    };
    Simulator(o).run(g, store);
    for (dag::NodeId a : childless) {
      const SimTime post_end = starts.at({a, true}) + 3000;
      for (dag::NodeId b : childless) {
        const SimTime t = starts.at({b, false});
        EXPECT_FALSE(b != a && t > starts.at({a, false}) && t < post_end)
            << "seed " << seed << ": task " << b << " started inside task "
            << a << "'s post piece";
      }
    }
  }
}

TEST(Simulator, InterTierFractionSmallForDivideAndConquer) {
  // Paper Section III-E: inter-socket tier is typically < 5% of the work.
  dag::TaskGraph g = dag::make_recursive_dnc(2, 8, 50000, 10);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 3);
  SimResult r = Simulator(o).run(g, store);
  EXPECT_GT(r.inter_tier_fraction(), 0.0);
  EXPECT_LT(r.inter_tier_fraction(), 0.05);
}

TEST(Simulator, UtilizationHighForWideFlatGraphs) {
  dag::TaskGraph g = dag::make_flat(400, 10000);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  SimResult r = Simulator(o).run(g, store);
  EXPECT_GT(r.utilization(), 0.8);
}

TEST(Simulator, ColdCachesOptionResetsBetweenRuns) {
  dag::TaskGraph g;
  g.add_root(1);
  cachesim::TraceStore store;
  cachesim::Trace t{{0, 64 * 100, 1, false}};
  g.set_traces(0, store.add(t), -1);

  SimOptions o = base_options(SimPolicy::kCab, 0);
  o.policy = SimPolicy::kRandomStealing;
  Simulator sim(o);
  SimResult first = sim.run(g, store);
  SimResult second = sim.run(g, store);
  EXPECT_EQ(first.cache.l3_misses, second.cache.l3_misses);  // cold again

  o.cold_caches = false;
  Simulator warm(o);
  SimResult w1 = warm.run(g, store);
  SimResult w2 = warm.run(g, store);
  EXPECT_GT(w1.cache.l3_misses, w2.cache.l3_misses);  // warm reuse
}

TEST(Simulator, BandwidthModelSerializesSocketFills) {
  // 4 equal leaves, each streaming a distinct 256-line region from
  // memory, on 1 socket x 4 cores. Latency-only: they overlap fully.
  // With a bandwidth cap of `bw` cycles/line, the socket must ship
  // 4*256 lines serially => makespan >= 1024 * bw.
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  cachesim::TraceStore store;
  for (int i = 0; i < 4; ++i) {
    dag::NodeId leaf = g.add_child(root, 10);
    g.set_traces(leaf,
                 store.add({{static_cast<std::uint64_t>(i) * (1u << 20),
                             256 * 64, 1, false}}),
                 -1);
  }
  SimOptions o;
  o.topo = hw::Topology::synthetic(1, 4, 64 * 48 * 1024, 64 * 16 * 16);
  o.policy = SimPolicy::kRandomStealing;

  SimResult latency_only = Simulator(o).run(g, store);

  o.cost.socket_bandwidth_cycles_per_line = 500.0;  // slower than latency
  SimResult capped = Simulator(o).run(g, store);
  EXPECT_GE(capped.makespan, 4 * 256 * 500.0);
  EXPECT_GT(capped.makespan, latency_only.makespan);
}

TEST(Simulator, BandwidthCapIrrelevantWhenFasterThanLatency) {
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  cachesim::TraceStore store;
  dag::NodeId leaf = g.add_child(root, 10);
  g.set_traces(leaf, store.add({{0, 256 * 64, 1, false}}), -1);

  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  SimResult a = Simulator(o).run(g, store);
  // One stream: channel ships faster than the latency-bound core
  // consumes => no change.
  o.cost.socket_bandwidth_cycles_per_line = 1.0;
  SimResult b = Simulator(o).run(g, store);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(SimResult, JsonContainsAllKeysAndBalancedBraces) {
  dag::TaskGraph g = dag::make_flat(8, 100);
  cachesim::TraceStore store;
  SimResult r = Simulator(base_options(SimPolicy::kCab, 1)).run(g, store);
  const std::string j = r.to_json();
  for (const char* key :
       {"makespan_cycles", "utilization", "tasks", "l2_misses", "l3_misses",
        "invalidations", "sockets"}) {
    EXPECT_NE(j.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(SimResult, SummaryContainsHeadlineNumbers) {
  dag::TaskGraph g = dag::make_flat(8, 100);
  cachesim::TraceStore store;
  SimResult r = Simulator(base_options(SimPolicy::kCab, 1)).run(g, store);
  std::string s = r.summary();
  EXPECT_NE(s.find("makespan="), std::string::npos);
  EXPECT_NE(s.find("L3-miss="), std::string::npos);
}

/// Property: simulation completes and conserves tasks for arbitrary
/// irregular DAGs under every policy/BL combination.
struct SimPropCase {
  std::uint64_t seed;
  SimPolicy policy;
  std::int32_t bl;
};

void PrintTo(const SimPropCase& c, std::ostream* os) {
  testing_support::print_fields_as_bytes(c, os, &SimPropCase::seed, &SimPropCase::policy,
                                         &SimPropCase::bl);
}

class SimulatorProperty : public ::testing::TestWithParam<SimPropCase> {};

TEST_P(SimulatorProperty, CompletesAndConservesWork) {
  const auto c = GetParam();
  dag::TaskGraph g = dag::make_irregular(c.seed, 5, 9, 600, 1000);
  cachesim::TraceStore store;
  SimOptions o = base_options(c.policy, c.bl);
  std::uint64_t pre_pieces = 0;
  o.on_piece_start = [&](dag::NodeId, int, SimTime, bool post) {
    if (!post) ++pre_pieces;
  };
  SimResult r = Simulator(o).run(g, store);
  EXPECT_EQ(pre_pieces, g.size());
  EXPECT_GT(r.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimulatorProperty,
    ::testing::Values(SimPropCase{1, SimPolicy::kCab, 0},
                      SimPropCase{1, SimPolicy::kCab, 2},
                      SimPropCase{1, SimPolicy::kCab, 5},
                      SimPropCase{1, SimPolicy::kCab, 50},
                      SimPropCase{1, SimPolicy::kRandomStealing, 0},
                      SimPropCase{2, SimPolicy::kCab, 3},
                      SimPropCase{3, SimPolicy::kCab, 3},
                      SimPropCase{4, SimPolicy::kCab, 1},
                      SimPropCase{5, SimPolicy::kRandomStealing, 0},
                      SimPropCase{6, SimPolicy::kCab, 4}));

/// Property over machine shapes: the protocol completes, conserves work
/// and respects the greedy lower bounds on any topology, from a single
/// core to wide many-socket shapes, under both policies.
struct ShapeCase {
  int sockets, cores;
  SimPolicy policy;
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
  testing_support::print_fields_as_bytes(c, os, &ShapeCase::sockets, &ShapeCase::cores,
                                         &ShapeCase::policy);
}

class TopologyShapeProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(TopologyShapeProperty, ProtocolSoundOnAnyShape) {
  const auto c = GetParam();
  dag::TaskGraph g = dag::make_irregular(9, 4, 7, 500, 800);
  cachesim::TraceStore store;
  SimOptions o;
  o.topo = hw::Topology::synthetic(c.sockets, c.cores, 1ull << 20);
  o.policy = c.policy;
  o.boundary_level = 3;
  std::uint64_t pieces = 0;
  o.on_piece_start = [&](dag::NodeId, int worker, SimTime, bool post) {
    if (!post) ++pieces;
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, o.topo.total_cores());
  };
  SimResult r = Simulator(o).run(g, store);
  EXPECT_EQ(pieces, g.size());
  EXPECT_GE(r.makespan * 1.0001,
            static_cast<double>(g.critical_path()) * o.cost.cycles_per_work);
  EXPECT_LE(r.utilization(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapeProperty,
    ::testing::Values(ShapeCase{1, 1, SimPolicy::kCab},
                      ShapeCase{1, 1, SimPolicy::kRandomStealing},
                      ShapeCase{1, 16, SimPolicy::kCab},
                      ShapeCase{16, 1, SimPolicy::kCab},
                      ShapeCase{8, 2, SimPolicy::kCab},
                      ShapeCase{2, 8, SimPolicy::kCab},
                      ShapeCase{3, 5, SimPolicy::kCab},
                      ShapeCase{3, 5, SimPolicy::kRandomStealing},
                      ShapeCase{8, 8, SimPolicy::kCab}));

// --------------------------------------------------------------------------
// Golden schedules: the exact schedule of small models under every
// simulated policy variant, pinned bit for bit. Any change to the acquire
// order, the busy-state bind/release points or the leaf-sync rule moves
// at least one piece-start time, so a refactor of the scheduling core that
// claims to preserve behaviour must leave every fingerprint unchanged.

/// FNV-1a over raw bytes, folded into a running hash.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof v);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// makespan bit pattern, L2/L3/coherence misses, a hash of the per-worker
/// (pieces, intra steals, inter steals, inter acquires) and a hash of the
/// whole on_piece_start (node, worker, time, post) stream.
std::string fingerprint(SimOptions o, const apps::DagBundle& b) {
  std::uint64_t stream = kFnvOffset;
  o.on_piece_start = [&](dag::NodeId n, int worker, SimTime t, bool post) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    stream = fnv1a(stream, static_cast<std::int32_t>(n));
    stream = fnv1a(stream, static_cast<std::int32_t>(worker));
    stream = fnv1a(stream, bits);
    stream = fnv1a(stream, static_cast<std::uint8_t>(post ? 1 : 0));
  };
  const SimResult r = Simulator(o).run(b.graph, b.traces);
  std::uint64_t workers = kFnvOffset;
  for (const SimWorkerReport& w : r.workers) {
    workers = fnv1a(workers, w.pieces);
    workers = fnv1a(workers, w.intra_steals);
    workers = fnv1a(workers, w.inter_steals);
    workers = fnv1a(workers, w.inter_acquires);
  }
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%a l2=%llu l3=%llu coh=%llu workers=%016llx pieces=%016llx",
                r.makespan, static_cast<unsigned long long>(r.cache.l2_misses),
                static_cast<unsigned long long>(r.cache.l3_misses),
                static_cast<unsigned long long>(r.cache.coherence_misses),
                static_cast<unsigned long long>(workers),
                static_cast<unsigned long long>(stream));
  return buf;
}

/// Eight groups of four leaves over one region each, the first leaf of a
/// group writing it: at BL = 1 every group is one leaf inter-socket task,
/// so the busy-state gate decides how many regions a squad mixes.
apps::DagBundle golden_pollution() {
  apps::DagBundle b;
  b.name = "pollution";
  b.branching = 8;
  b.input_bytes = 8ull * (256u << 10);
  dag::NodeId root = b.graph.add_root(1);
  for (int grp = 0; grp < 8; ++grp) {
    dag::NodeId g = b.graph.add_child(root, 4);
    const std::uint64_t region = apps::array_base(grp);
    for (int leaf = 0; leaf < 4; ++leaf) {
      dag::NodeId l = b.graph.add_child(g, 4 * 1024);
      b.graph.set_traces(
          l, b.traces.add({{region, 256u << 10, 1, leaf == 0}}), -1);
    }
  }
  return b;
}

/// An irregular tree with merge (post) work on every non-root node, so
/// the inter tier holds childless tasks with post work: they keep their
/// squad busy through the post piece, as a runtime task does through its
/// whole body.
apps::DagBundle golden_irregular() {
  apps::DagBundle b;
  b.name = "irregular";
  b.branching = 4;
  b.graph = dag::make_irregular(7, 4, 5, 120, 4000);
  return b;
}

std::vector<apps::DagBundle> golden_models() {
  std::vector<apps::DagBundle> m;
  apps::HeatParams hp;
  hp.rows = 256;
  hp.cols = 256;
  hp.steps = 3;
  hp.leaf_rows = 16;
  m.push_back(apps::build_heat_dag(hp));
  apps::SorParams sp;
  sp.rows = 256;
  sp.cols = 256;
  sp.iterations = 3;
  sp.leaf_rows = 16;
  m.push_back(apps::build_sor_dag(sp));
  apps::MergesortParams mp;
  mp.n = 64 * 1024;
  mp.leaf_elems = 2 * 1024;
  m.push_back(apps::build_mergesort_dag(mp));
  apps::GeParams gp;
  gp.n = 128;
  gp.leaf_rows = 16;
  m.push_back(apps::build_ge_dag(gp));
  m.push_back(golden_pollution());
  m.push_back(golden_irregular());
  return m;
}

/// Every (model, topology, variant) case and its fingerprint.
std::map<std::string, std::string> golden_runs() {
  std::map<std::string, std::string> out;
  const std::pair<const char*, hw::Topology> topos[] = {
      {"opteron", hw::Topology::opteron_8380()},
      {"2x2", hw::Topology::synthetic(2, 2, 256u << 10, 32u << 10)}};
  for (const apps::DagBundle& b : golden_models()) {
    for (const auto& [topo_name, topo] : topos) {
      const std::string prefix = b.name + "/" + topo_name + "/";
      const std::int32_t eq4 = bundle_boundary_level(b, topo);
      SimOptions cab;
      cab.topo = topo;
      cab.policy = SimPolicy::kCab;
      cab.boundary_level = eq4;
      out[prefix + "cab-rr"] = fingerprint(cab, b);

      SimOptions o = cab;
      o.victims = VictimSelection::kUniformRandom;
      out[prefix + "cab-uniform"] = fingerprint(o, b);

      o = cab;
      o.policy = SimPolicy::kRandomStealing;
      o.boundary_level = 0;
      o.victims = VictimSelection::kUniformRandom;
      o.cost.duration_jitter = CostModel::kScrambleJitter;
      out[prefix + "random-jitter"] = fingerprint(o, b);

      o = cab;
      o.any_worker_inter_steal = true;
      out[prefix + "any-worker"] = fingerprint(o, b);

      // The BL sweep, each level also with the busy-state guard off and
      // with both protocol guards off.
      for (std::int32_t bl = 1; bl <= b.graph.max_level(); ++bl) {
        const std::string level = prefix + "bl" + std::to_string(bl);
        o = cab;
        o.boundary_level = bl;
        out[level] = fingerprint(o, b);
        o.ignore_busy_state = true;
        out[level + "-ignore-busy"] = fingerprint(o, b);
        o.any_worker_inter_steal = true;
        out[level + "-no-guards"] = fingerprint(o, b);
      }

      const dag::NodeTiers flex = dag::footprint_partition(
          b.graph,
          [&](std::int32_t id) -> std::uint64_t {
            return id >= 0 ? cachesim::trace_bytes(b.traces.get(id)) : 0;
          },
          topo.shared_cache_bytes(), topo.sockets());
      o = cab;
      o.boundary_level = 0;
      o.flexible_tiers = &flex;
      out[prefix + "flexible"] = fingerprint(o, b);
    }
  }
  return out;
}

struct GoldenCase {
  const char* name;
  const char* fingerprint;
};

// clang-format off
const GoldenCase kGolden[] = {
    {"ge/2x2/any-worker", "0x1.563fdp+20 l2=16775 l3=5641 coh=5509 workers=eb62ff9a26776545 pieces=9f803e28ba8c6e62"},
    {"ge/2x2/bl1", "0x1.db687p+20 l2=16698 l3=2048 coh=1770 workers=7b9f6a0dd245f08b pieces=1b8e46893b101921"},
    {"ge/2x2/bl1-ignore-busy", "0x1.db687p+20 l2=16698 l3=2048 coh=1770 workers=7b9f6a0dd245f08b pieces=1b8e46893b101921"},
    {"ge/2x2/bl1-no-guards", "0x1.db687p+20 l2=16698 l3=2048 coh=1770 workers=7b9f6a0dd245f08b pieces=1b8e46893b101921"},
    {"ge/2x2/bl2", "0x1.563fdp+20 l2=16775 l3=5641 coh=5509 workers=eb62ff9a26776545 pieces=9f803e28ba8c6e62"},
    {"ge/2x2/bl2-ignore-busy", "0x1.563fdp+20 l2=16775 l3=5641 coh=5509 workers=eb62ff9a26776545 pieces=9f803e28ba8c6e62"},
    {"ge/2x2/bl2-no-guards", "0x1.563fdp+20 l2=16775 l3=5641 coh=5509 workers=eb62ff9a26776545 pieces=9f803e28ba8c6e62"},
    {"ge/2x2/bl3", "0x1.80a8bp+20 l2=15081 l3=5071 coh=3072 workers=238516859edb66b7 pieces=dfea99193b96da93"},
    {"ge/2x2/bl3-ignore-busy", "0x1.80a8bp+20 l2=15081 l3=5071 coh=3072 workers=238516859edb66b7 pieces=dfea99193b96da93"},
    {"ge/2x2/bl3-no-guards", "0x1.800c7p+20 l2=14781 l3=5071 coh=2777 workers=98ada5e031349e98 pieces=0a689bcb5b2ccd27"},
    {"ge/2x2/bl4", "0x1.1f7f88p+21 l2=16291 l3=5071 coh=1364 workers=a68ee3ebf0f67717 pieces=0a9c7aed07f7897e"},
    {"ge/2x2/bl4-ignore-busy", "0x1.1f7f88p+21 l2=16291 l3=5071 coh=1364 workers=a68ee3ebf0f67717 pieces=0a9c7aed07f7897e"},
    {"ge/2x2/bl4-no-guards", "0x1.1f7f88p+21 l2=16291 l3=5071 coh=1364 workers=a68ee3ebf0f67717 pieces=0a9c7aed07f7897e"},
    {"ge/2x2/cab-rr", "0x1.563fdp+20 l2=16775 l3=5641 coh=5509 workers=eb62ff9a26776545 pieces=9f803e28ba8c6e62"},
    {"ge/2x2/cab-uniform", "0x1.bbb53p+20 l2=18836 l3=12311 coh=14479 workers=9f53cde9e07c0451 pieces=6d07a3ad4d150f4a"},
    {"ge/2x2/flexible", "0x1.db687p+20 l2=16698 l3=2048 coh=1770 workers=7b9f6a0dd245f08b pieces=1b8e46893b101921"},
    {"ge/2x2/random-jitter", "0x1.dc03b5edc8d01p+20 l2=19828 l3=12282 coh=15538 workers=321d06ed07c74124 pieces=ed9a3f41210fa2cf"},
    {"ge/opteron/any-worker", "0x1.20f7bp+20 l2=15105 l3=9441 coh=3971 workers=fb23348eb9f3e5bd pieces=1fb4813c435dd096"},
    {"ge/opteron/bl1", "0x1.ce112p+19 l2=11402 l3=2048 coh=3760 workers=25d6f826d895f524 pieces=46ec20b42b9b49c3"},
    {"ge/opteron/bl1-ignore-busy", "0x1.ce112p+19 l2=11402 l3=2048 coh=3760 workers=25d6f826d895f524 pieces=46ec20b42b9b49c3"},
    {"ge/opteron/bl1-no-guards", "0x1.ce112p+19 l2=11402 l3=2048 coh=3760 workers=25d6f826d895f524 pieces=46ec20b42b9b49c3"},
    {"ge/opteron/bl2", "0x1.ddddap+19 l2=14793 l3=4773 coh=2784 workers=332b6f0ccbba9145 pieces=56d1cbdb679f0900"},
    {"ge/opteron/bl2-ignore-busy", "0x1.ddddap+19 l2=14793 l3=4773 coh=2784 workers=332b6f0ccbba9145 pieces=56d1cbdb679f0900"},
    {"ge/opteron/bl2-no-guards", "0x1.ddddap+19 l2=14793 l3=4773 coh=2784 workers=332b6f0ccbba9145 pieces=56d1cbdb679f0900"},
    {"ge/opteron/bl3", "0x1.20f7bp+20 l2=15105 l3=9441 coh=3971 workers=fb23348eb9f3e5bd pieces=1fb4813c435dd096"},
    {"ge/opteron/bl3-ignore-busy", "0x1.20f7bp+20 l2=15105 l3=9441 coh=3971 workers=fb23348eb9f3e5bd pieces=1fb4813c435dd096"},
    {"ge/opteron/bl3-no-guards", "0x1.20f7bp+20 l2=15105 l3=9441 coh=3971 workers=fb23348eb9f3e5bd pieces=1fb4813c435dd096"},
    {"ge/opteron/bl4", "0x1.93c5bp+20 l2=11462 l3=11462 coh=7308 workers=cfb346c5fef499dd pieces=e0940c1f4f2d8fce"},
    {"ge/opteron/bl4-ignore-busy", "0x1.93c5bp+20 l2=11462 l3=11462 coh=7308 workers=cfb346c5fef499dd pieces=e0940c1f4f2d8fce"},
    {"ge/opteron/bl4-no-guards", "0x1.93c5bp+20 l2=11462 l3=11462 coh=7308 workers=cfb346c5fef499dd pieces=e0940c1f4f2d8fce"},
    {"ge/opteron/cab-rr", "0x1.20f7bp+20 l2=15105 l3=9441 coh=3971 workers=fb23348eb9f3e5bd pieces=1fb4813c435dd096"},
    {"ge/opteron/cab-uniform", "0x1.7ae25p+20 l2=23317 l3=17915 coh=14702 workers=93e872b8f5f0f248 pieces=d0b30a67bf9c2a0d"},
    {"ge/opteron/flexible", "0x1.ce112p+19 l2=11402 l3=2048 coh=3760 workers=25d6f826d895f524 pieces=46ec20b42b9b49c3"},
    {"ge/opteron/random-jitter", "0x1.78e9b3461822p+20 l2=24236 l3=17800 coh=15242 workers=8823cc9febd3f8d5 pieces=1d3802dd7fbfd10d"},
    {"heat/2x2/any-worker", "0x1.97ee48p+21 l2=52032 l3=49568 coh=32 workers=cd1d83d525fc8205 pieces=2c52352d6095362d"},
    {"heat/2x2/bl1", "0x1.93e3c4p+22 l2=52032 l3=49280 coh=0 workers=03ec957f45d92b9e pieces=917229d426dca0d0"},
    {"heat/2x2/bl1-ignore-busy", "0x1.93e3c4p+22 l2=52032 l3=49280 coh=0 workers=03ec957f45d92b9e pieces=917229d426dca0d0"},
    {"heat/2x2/bl1-no-guards", "0x1.93e3c4p+22 l2=52032 l3=49280 coh=0 workers=03ec957f45d92b9e pieces=917229d426dca0d0"},
    {"heat/2x2/bl2", "0x1.97ee48p+21 l2=52032 l3=49568 coh=32 workers=cd1d83d525fc8205 pieces=2c52352d6095362d"},
    {"heat/2x2/bl2-ignore-busy", "0x1.97ee48p+21 l2=52032 l3=49568 coh=32 workers=cd1d83d525fc8205 pieces=2c52352d6095362d"},
    {"heat/2x2/bl2-no-guards", "0x1.97ee48p+21 l2=52032 l3=49568 coh=32 workers=cd1d83d525fc8205 pieces=2c52352d6095362d"},
    {"heat/2x2/bl3", "0x1.9d1c58p+21 l2=52032 l3=49472 coh=0 workers=2d728a0fa4b6e1c9 pieces=1e36ff5868febc9c"},
    {"heat/2x2/bl3-ignore-busy", "0x1.9d1508p+21 l2=52032 l3=49472 coh=0 workers=2d728a0fa4b6e1c9 pieces=13ba31e857243f88"},
    {"heat/2x2/bl3-no-guards", "0x1.9d1508p+21 l2=52032 l3=49472 coh=0 workers=2d728a0fa4b6e1c9 pieces=13ba31e857243f88"},
    {"heat/2x2/bl4", "0x1.a6b168p+21 l2=52032 l3=49344 coh=32 workers=b7d7a1cf1c712e89 pieces=3a6bbb35a662328a"},
    {"heat/2x2/bl4-ignore-busy", "0x1.a6b168p+21 l2=52032 l3=49344 coh=32 workers=b7d7a1cf1c712e89 pieces=3a6bbb35a662328a"},
    {"heat/2x2/bl4-no-guards", "0x1.9549a8p+21 l2=52032 l3=49344 coh=32 workers=d9bb2e9c7417945d pieces=760ec3134391ee0f"},
    {"heat/2x2/bl5", "0x1.93fd3cp+22 l2=52032 l3=49344 coh=32 workers=01e029ee3bda1801 pieces=28d8d0f7c8e0f3f2"},
    {"heat/2x2/bl5-ignore-busy", "0x1.93fd3cp+22 l2=52032 l3=49344 coh=32 workers=01e029ee3bda1801 pieces=28d8d0f7c8e0f3f2"},
    {"heat/2x2/bl5-no-guards", "0x1.93fd3cp+22 l2=52032 l3=49344 coh=32 workers=01e029ee3bda1801 pieces=28d8d0f7c8e0f3f2"},
    {"heat/2x2/cab-rr", "0x1.97ee48p+21 l2=52032 l3=49568 coh=32 workers=cd1d83d525fc8205 pieces=2c52352d6095362d"},
    {"heat/2x2/cab-uniform", "0x1.982598p+21 l2=52032 l3=49600 coh=0 workers=723a82ac292f8225 pieces=3f664d241a0af95f"},
    {"heat/2x2/flexible", "0x1.a6b168p+21 l2=52032 l3=49344 coh=32 workers=b7d7a1cf1c712e89 pieces=3a6bbb35a662328a"},
    {"heat/2x2/random-jitter", "0x1.8e32c50afad2ap+21 l2=52032 l3=45696 coh=512 workers=3b73131ce44fa48a pieces=70b1885b7abe6f1e"},
    {"heat/opteron/any-worker", "0x1.60384p+18 l2=19264 l3=16960 coh=1152 workers=6232f0bef64fd7d3 pieces=163416b8f5be0336"},
    {"heat/opteron/bl1", "0x1.3fbf7p+20 l2=17344 l3=16384 coh=320 workers=a4d1e9cf5c951344 pieces=0b758dd7d029f214"},
    {"heat/opteron/bl1-ignore-busy", "0x1.3fbf7p+20 l2=17344 l3=16384 coh=320 workers=a4d1e9cf5c951344 pieces=0b758dd7d029f214"},
    {"heat/opteron/bl1-no-guards", "0x1.3fbf7p+20 l2=17344 l3=16384 coh=320 workers=a4d1e9cf5c951344 pieces=0b758dd7d029f214"},
    {"heat/opteron/bl2", "0x1.5f7dep+19 l2=23552 l3=16576 coh=608 workers=77a225db7fb7a60d pieces=178fa18d28b30944"},
    {"heat/opteron/bl2-ignore-busy", "0x1.5f7dep+19 l2=23552 l3=16576 coh=608 workers=77a225db7fb7a60d pieces=178fa18d28b30944"},
    {"heat/opteron/bl2-no-guards", "0x1.5f7dep+19 l2=23552 l3=16576 coh=608 workers=77a225db7fb7a60d pieces=178fa18d28b30944"},
    {"heat/opteron/bl3", "0x1.60384p+18 l2=19264 l3=16960 coh=1152 workers=6232f0bef64fd7d3 pieces=163416b8f5be0336"},
    {"heat/opteron/bl3-ignore-busy", "0x1.60384p+18 l2=19264 l3=16960 coh=1152 workers=6232f0bef64fd7d3 pieces=163416b8f5be0336"},
    {"heat/opteron/bl3-no-guards", "0x1.60384p+18 l2=19264 l3=16960 coh=1152 workers=6232f0bef64fd7d3 pieces=163416b8f5be0336"},
    {"heat/opteron/bl4", "0x1.5e66ep+19 l2=19264 l3=17536 coh=1344 workers=b651b5e37796e0c7 pieces=d3c34fa40f190ae1"},
    {"heat/opteron/bl4-ignore-busy", "0x1.6e03ep+19 l2=21312 l3=17536 coh=1216 workers=fbe8e99e33d6e0c7 pieces=706157f0409de2c5"},
    {"heat/opteron/bl4-no-guards", "0x1.66de6p+19 l2=21824 l3=17344 coh=960 workers=e3f1c59f5fa605da pieces=bc928f87df18bdc7"},
    {"heat/opteron/bl5", "0x1.5e797p+20 l2=18112 l3=18112 coh=1152 workers=3dcaf94beecbb5b1 pieces=0fdfb6bed6a7a11f"},
    {"heat/opteron/bl5-ignore-busy", "0x1.5e797p+20 l2=18112 l3=18112 coh=1152 workers=3dcaf94beecbb5b1 pieces=0fdfb6bed6a7a11f"},
    {"heat/opteron/bl5-no-guards", "0x1.5e797p+20 l2=18112 l3=18112 coh=1152 workers=3dcaf94beecbb5b1 pieces=0fdfb6bed6a7a11f"},
    {"heat/opteron/cab-rr", "0x1.60384p+18 l2=19264 l3=16960 coh=1152 workers=6232f0bef64fd7d3 pieces=163416b8f5be0336"},
    {"heat/opteron/cab-uniform", "0x1.a9e4ap+19 l2=48768 l3=37248 coh=128 workers=6e11fe680e30bca1 pieces=5098073dde4c3f24"},
    {"heat/opteron/flexible", "0x1.75201p+20 l2=39264 l3=24608 coh=1152 workers=1249a016e397e507 pieces=f92181c223689c6e"},
    {"heat/opteron/random-jitter", "0x1.aea2b0c99a37bp+19 l2=49792 l3=42720 coh=1600 workers=2240ca7792efffa9 pieces=dac64eeaa8b0bb4c"},
    {"irregular/2x2/any-worker", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/bl1", "0x1.5966p+16 l2=0 l3=0 coh=0 workers=da49641174548b93 pieces=a15c43e58eca3a4f"},
    {"irregular/2x2/bl1-ignore-busy", "0x1.5966p+16 l2=0 l3=0 coh=0 workers=da49641174548b93 pieces=a15c43e58eca3a4f"},
    {"irregular/2x2/bl1-no-guards", "0x1.5966p+16 l2=0 l3=0 coh=0 workers=da49641174548b93 pieces=a15c43e58eca3a4f"},
    {"irregular/2x2/bl2", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/bl2-ignore-busy", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/bl2-no-guards", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/bl3", "0x1.0ddfp+16 l2=0 l3=0 coh=0 workers=9d956832dc4ae548 pieces=7532f0fcb099049c"},
    {"irregular/2x2/bl3-ignore-busy", "0x1.030ap+16 l2=0 l3=0 coh=0 workers=9d956832dc4ae548 pieces=0a710faf08271f4b"},
    {"irregular/2x2/bl3-no-guards", "0x1.eb34p+15 l2=0 l3=0 coh=0 workers=21b654909a7e4c26 pieces=dc118312921a0701"},
    {"irregular/2x2/bl4", "0x1.2d1ep+16 l2=0 l3=0 coh=0 workers=dd1e67024accd857 pieces=4a00b76bfeba0e43"},
    {"irregular/2x2/bl4-ignore-busy", "0x1.10c5p+16 l2=0 l3=0 coh=0 workers=5fde787792b3e0b3 pieces=811cbbb03eb6908e"},
    {"irregular/2x2/bl4-no-guards", "0x1.cf2ep+15 l2=0 l3=0 coh=0 workers=3857842d76e1b800 pieces=ad45384965144c49"},
    {"irregular/2x2/bl5", "0x1.6547p+16 l2=0 l3=0 coh=0 workers=bb8afb0c018e8408 pieces=692c99bf8ea28d2a"},
    {"irregular/2x2/bl5-ignore-busy", "0x1.6547p+16 l2=0 l3=0 coh=0 workers=bb8afb0c018e8408 pieces=692c99bf8ea28d2a"},
    {"irregular/2x2/bl5-no-guards", "0x1.6547p+16 l2=0 l3=0 coh=0 workers=bb8afb0c018e8408 pieces=692c99bf8ea28d2a"},
    {"irregular/2x2/cab-rr", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/cab-uniform", "0x1.1f9bp+16 l2=0 l3=0 coh=0 workers=d2cad44351347879 pieces=a2ae5520d932ba75"},
    {"irregular/2x2/flexible", "0x1.1663p+16 l2=0 l3=0 coh=0 workers=bc55d3424c04181f pieces=d88444c6a32c4838"},
    {"irregular/2x2/random-jitter", "0x1.9571f727039ffp+15 l2=0 l3=0 coh=0 workers=1c425adc175c106a pieces=656696bad1d6b2ca"},
    {"irregular/opteron/any-worker", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=8e0f3760fae3b2ec pieces=9b289760d0bbcf8d"},
    {"irregular/opteron/bl1", "0x1.91b2p+15 l2=0 l3=0 coh=0 workers=197f80ee73ab71a6 pieces=25de4d6b9f37ba70"},
    {"irregular/opteron/bl1-ignore-busy", "0x1.91b2p+15 l2=0 l3=0 coh=0 workers=197f80ee73ab71a6 pieces=25de4d6b9f37ba70"},
    {"irregular/opteron/bl1-no-guards", "0x1.91b2p+15 l2=0 l3=0 coh=0 workers=197f80ee73ab71a6 pieces=25de4d6b9f37ba70"},
    {"irregular/opteron/bl2", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=8e0f3760fae3b2ec pieces=9b289760d0bbcf8d"},
    {"irregular/opteron/bl2-ignore-busy", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=8e0f3760fae3b2ec pieces=9b289760d0bbcf8d"},
    {"irregular/opteron/bl2-no-guards", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=8e0f3760fae3b2ec pieces=9b289760d0bbcf8d"},
    {"irregular/opteron/bl3", "0x1.1c04p+15 l2=0 l3=0 coh=0 workers=2cc8db0ab17804a6 pieces=6a66d1ffa677dec3"},
    {"irregular/opteron/bl3-ignore-busy", "0x1.1c04p+15 l2=0 l3=0 coh=0 workers=2cc8db0ab17804a6 pieces=6a66d1ffa677dec3"},
    {"irregular/opteron/bl3-no-guards", "0x1.1a76p+15 l2=0 l3=0 coh=0 workers=f4e672905b823a60 pieces=d6408a11cca9f5ec"},
    {"irregular/opteron/bl4", "0x1.5262p+15 l2=0 l3=0 coh=0 workers=ad821fa6746d03b9 pieces=b2da186d4a983119"},
    {"irregular/opteron/bl4-ignore-busy", "0x1.2bd8p+15 l2=0 l3=0 coh=0 workers=7a63a15f624de5c7 pieces=5d3ec42f39c40fab"},
    {"irregular/opteron/bl4-no-guards", "0x1.248ap+15 l2=0 l3=0 coh=0 workers=1019c5e15f966fa3 pieces=692a8644d4ea5a4c"},
    {"irregular/opteron/bl5", "0x1.a8f8p+15 l2=0 l3=0 coh=0 workers=5256321f9ac108a0 pieces=a6cce9ce1a33b1ab"},
    {"irregular/opteron/bl5-ignore-busy", "0x1.a8f8p+15 l2=0 l3=0 coh=0 workers=5256321f9ac108a0 pieces=a6cce9ce1a33b1ab"},
    {"irregular/opteron/bl5-no-guards", "0x1.a8f8p+15 l2=0 l3=0 coh=0 workers=5256321f9ac108a0 pieces=a6cce9ce1a33b1ab"},
    {"irregular/opteron/cab-rr", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=8e0f3760fae3b2ec pieces=9b289760d0bbcf8d"},
    {"irregular/opteron/cab-uniform", "0x1.6c7p+15 l2=0 l3=0 coh=0 workers=4f682fbaeaacce8d pieces=0f4e49f898afd29e"},
    {"irregular/opteron/flexible", "0x1.3ea2p+15 l2=0 l3=0 coh=0 workers=3ce1fd87acde02ad pieces=8a0e80489de8fb94"},
    {"irregular/opteron/random-jitter", "0x1.a64baf1de28a2p+14 l2=0 l3=0 coh=0 workers=a7d1e695db30676a pieces=be4081eeee7f0351"},
    {"mergesort/2x2/any-worker", "0x1.5fecd6p+23 l2=118784 l3=71680 coh=0 workers=03fe1a97d0e58c84 pieces=31c08fe145979fc9"},
    {"mergesort/2x2/bl1", "0x1.cc55aap+23 l2=118784 l3=75264 coh=0 workers=fe69eae57ade80d9 pieces=51ef34ba2007302e"},
    {"mergesort/2x2/bl1-ignore-busy", "0x1.cc55aap+23 l2=118784 l3=75264 coh=0 workers=fe69eae57ade80d9 pieces=51ef34ba2007302e"},
    {"mergesort/2x2/bl1-no-guards", "0x1.cc55aap+23 l2=118784 l3=75264 coh=0 workers=fe69eae57ade80d9 pieces=51ef34ba2007302e"},
    {"mergesort/2x2/bl2", "0x1.5fecd6p+23 l2=118784 l3=71680 coh=0 workers=03fe1a97d0e58c84 pieces=31c08fe145979fc9"},
    {"mergesort/2x2/bl2-ignore-busy", "0x1.5fecd6p+23 l2=118784 l3=71680 coh=0 workers=03fe1a97d0e58c84 pieces=31c08fe145979fc9"},
    {"mergesort/2x2/bl2-no-guards", "0x1.5fecd6p+23 l2=118784 l3=71680 coh=0 workers=03fe1a97d0e58c84 pieces=31c08fe145979fc9"},
    {"mergesort/2x2/bl3", "0x1.502e9ep+23 l2=118784 l3=57344 coh=0 workers=85b283b83585ddc4 pieces=2bc08d7581e6703b"},
    {"mergesort/2x2/bl3-ignore-busy", "0x1.502c6ep+23 l2=118784 l3=57344 coh=0 workers=85b283b83585ddc4 pieces=84f6a5660f08b6e8"},
    {"mergesort/2x2/bl3-no-guards", "0x1.502c6ep+23 l2=118784 l3=57344 coh=0 workers=85b283b83585ddc4 pieces=84f6a5660f08b6e8"},
    {"mergesort/2x2/bl4", "0x1.5bb22ep+23 l2=122880 l3=57344 coh=0 workers=59e79635e2d6f534 pieces=10a446c08cf65908"},
    {"mergesort/2x2/bl4-ignore-busy", "0x1.5badcep+23 l2=122880 l3=57344 coh=0 workers=59e79635e2d6f534 pieces=9b6e11fbe75c7bf7"},
    {"mergesort/2x2/bl4-no-guards", "0x1.58307ap+23 l2=121856 l3=63488 coh=0 workers=b4c56ddb9449e2ca pieces=2bd6e4895759919c"},
    {"mergesort/2x2/bl5", "0x1.73594ep+23 l2=126976 l3=57344 coh=0 workers=168a5cb7f1de3614 pieces=17cfed01b9a64848"},
    {"mergesort/2x2/bl5-ignore-busy", "0x1.75508ep+23 l2=131072 l3=57344 coh=0 workers=168a5cb7f1de3614 pieces=6dd10f78e65d0222"},
    {"mergesort/2x2/bl5-no-guards", "0x1.8034cep+23 l2=125952 l3=73728 coh=0 workers=c584a261f55a9402 pieces=1cf38b644180a573"},
    {"mergesort/2x2/bl6", "0x1.89712ep+23 l2=122880 l3=57344 coh=0 workers=3897f5eca4af9e64 pieces=f45c3f25fe47337d"},
    {"mergesort/2x2/bl6-ignore-busy", "0x1.89712ep+23 l2=122880 l3=57344 coh=0 workers=3897f5eca4af9e64 pieces=f45c3f25fe47337d"},
    {"mergesort/2x2/bl6-no-guards", "0x1.89712ep+23 l2=122880 l3=57344 coh=0 workers=3897f5eca4af9e64 pieces=f45c3f25fe47337d"},
    {"mergesort/2x2/cab-rr", "0x1.5fecd6p+23 l2=118784 l3=71680 coh=0 workers=03fe1a97d0e58c84 pieces=31c08fe145979fc9"},
    {"mergesort/2x2/cab-uniform", "0x1.7a360ep+23 l2=118784 l3=75776 coh=0 workers=9100296c52cd3fc4 pieces=7ed72067114329d5"},
    {"mergesort/2x2/flexible", "0x1.73594ep+23 l2=126976 l3=57344 coh=0 workers=168a5cb7f1de3614 pieces=17cfed01b9a64848"},
    {"mergesort/2x2/random-jitter", "0x1.850fcb5a7c27ep+23 l2=118784 l3=79872 coh=4608 workers=b7b0dd4048df956a pieces=222cc08640888558"},
    {"mergesort/opteron/any-worker", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/bl1", "0x1.0291fcp+22 l2=53248 l3=16384 coh=4096 workers=e26b369040eba083 pieces=dbc1440be317a665"},
    {"mergesort/opteron/bl1-ignore-busy", "0x1.0291fcp+22 l2=53248 l3=16384 coh=4096 workers=e26b369040eba083 pieces=dbc1440be317a665"},
    {"mergesort/opteron/bl1-no-guards", "0x1.0291fcp+22 l2=53248 l3=16384 coh=4096 workers=e26b369040eba083 pieces=dbc1440be317a665"},
    {"mergesort/opteron/bl2", "0x1.21d674p+22 l2=57344 l3=24576 coh=4096 workers=dfa613e55f1835c4 pieces=a85f133e6db5c82d"},
    {"mergesort/opteron/bl2-ignore-busy", "0x1.21d674p+22 l2=57344 l3=24576 coh=4096 workers=dfa613e55f1835c4 pieces=a85f133e6db5c82d"},
    {"mergesort/opteron/bl2-no-guards", "0x1.21d674p+22 l2=57344 l3=24576 coh=4096 workers=dfa613e55f1835c4 pieces=a85f133e6db5c82d"},
    {"mergesort/opteron/bl3", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/bl3-ignore-busy", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/bl3-no-guards", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/bl4", "0x1.4a2ea4p+22 l2=60416 l3=34816 coh=2048 workers=559b2e4394d9ed3b pieces=5ef52d43e217f322"},
    {"mergesort/opteron/bl4-ignore-busy", "0x1.4a337cp+22 l2=61440 l3=34816 coh=2048 workers=2a7881ab52747a48 pieces=45eabd342fac1b72"},
    {"mergesort/opteron/bl4-no-guards", "0x1.66164cp+22 l2=61440 l3=36864 coh=1280 workers=0b3fa5627e79cee6 pieces=cb21c2c7e2c3195e"},
    {"mergesort/opteron/bl5", "0x1.74f614p+22 l2=51456 l3=34816 coh=1024 workers=1d27acc14bc74621 pieces=194dd824d328094c"},
    {"mergesort/opteron/bl5-ignore-busy", "0x1.6f652cp+22 l2=51712 l3=34816 coh=1024 workers=8717039d454eed00 pieces=c288902f32517f38"},
    {"mergesort/opteron/bl5-no-guards", "0x1.5716f4p+22 l2=60672 l3=37888 coh=5632 workers=f7e8a1d2339fd979 pieces=f9ad9c27f23259a1"},
    {"mergesort/opteron/bl6", "0x1.8160a4p+22 l2=45824 l3=33536 coh=768 workers=7d42b5bf479e3548 pieces=742b012f89085a3f"},
    {"mergesort/opteron/bl6-ignore-busy", "0x1.8160a4p+22 l2=45824 l3=33536 coh=768 workers=7d42b5bf479e3548 pieces=742b012f89085a3f"},
    {"mergesort/opteron/bl6-no-guards", "0x1.8160a4p+22 l2=45824 l3=33536 coh=768 workers=7d42b5bf479e3548 pieces=742b012f89085a3f"},
    {"mergesort/opteron/cab-rr", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/cab-uniform", "0x1.a51b6cp+22 l2=71680 l3=40960 coh=12288 workers=9f3432d326c0d0c1 pieces=8a1c94dbc13cadd3"},
    {"mergesort/opteron/flexible", "0x1.340a34p+22 l2=64512 l3=32768 coh=4096 workers=d052c67cd4dbb9c4 pieces=5256e109412f3d20"},
    {"mergesort/opteron/random-jitter", "0x1.be770065c6d8cp+22 l2=83712 l3=58368 coh=17664 workers=b11cfc31fc713526 pieces=35fff6b405b9cf18"},
    {"pollution/2x2/any-worker", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/bl1", "0x1.f66398p+21 l2=131072 l3=32768 coh=0 workers=e7ab3f5db3bfe345 pieces=443b865add47984d"},
    {"pollution/2x2/bl1-ignore-busy", "0x1.f66398p+21 l2=131072 l3=32768 coh=0 workers=e7ab3f5db3bfe345 pieces=443b865add47984d"},
    {"pollution/2x2/bl1-no-guards", "0x1.766878p+21 l2=131072 l3=32768 coh=0 workers=f9a8d138a5fb8cc5 pieces=94e7f20d081f0248"},
    {"pollution/2x2/bl2", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/bl2-ignore-busy", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/bl2-no-guards", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/cab-rr", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/cab-uniform", "0x1.0a04cap+23 l2=131072 l3=57344 coh=0 workers=1bbdb63c5f60d913 pieces=9d0da8979ad9c82e"},
    {"pollution/2x2/flexible", "0x1.0a002ep+23 l2=131072 l3=57344 coh=0 workers=52ada66025f89b7d pieces=ce2a85b2b0eb363d"},
    {"pollution/2x2/random-jitter", "0x1.f98929bb3acefp+22 l2=131072 l3=122880 coh=0 workers=2939957c2b1a5d47 pieces=2b789535ee00a66a"},
    {"pollution/opteron/any-worker", "0x1.40b55cp+22 l2=81920 l3=81920 coh=0 workers=e2ada8fd1fc50f2d pieces=7de577f68d380377"},
    {"pollution/opteron/bl1", "0x1.f66b7p+20 l2=131072 l3=32768 coh=0 workers=6bee9fd01ac80085 pieces=a23c0176a205d6af"},
    {"pollution/opteron/bl1-ignore-busy", "0x1.f66b7p+20 l2=131072 l3=32768 coh=0 workers=6bee9fd01ac80085 pieces=a23c0176a205d6af"},
    {"pollution/opteron/bl1-no-guards", "0x1.5f351p+20 l2=106496 l3=32768 coh=4096 workers=80dacf380a467826 pieces=0e6797c2aed5ea01"},
    {"pollution/opteron/bl2", "0x1.40b55cp+22 l2=81920 l3=81920 coh=0 workers=e2ada8fd1fc50f2d pieces=7de577f68d380377"},
    {"pollution/opteron/bl2-ignore-busy", "0x1.40b55cp+22 l2=81920 l3=81920 coh=0 workers=e2ada8fd1fc50f2d pieces=7de577f68d380377"},
    {"pollution/opteron/bl2-no-guards", "0x1.40b55cp+22 l2=81920 l3=81920 coh=0 workers=e2ada8fd1fc50f2d pieces=7de577f68d380377"},
    {"pollution/opteron/cab-rr", "0x1.40b55cp+22 l2=81920 l3=81920 coh=0 workers=e2ada8fd1fc50f2d pieces=7de577f68d380377"},
    {"pollution/opteron/cab-uniform", "0x1.40be94p+22 l2=81920 l3=81920 coh=0 workers=cf006dccb5994c4f pieces=494719bcb1b6f905"},
    {"pollution/opteron/flexible", "0x1.f66b7p+20 l2=131072 l3=32768 coh=0 workers=6bee9fd01ac80085 pieces=a23c0176a205d6af"},
    {"pollution/opteron/random-jitter", "0x1.fe5bb85e753e6p+20 l2=131072 l3=106496 coh=40960 workers=6bd8c1cc12ee7e81 pieces=80193703779ba766"},
    {"sor/2x2/any-worker", "0x1.f2721p+20 l2=97920 l3=12160 coh=288 workers=1b650aeb02ffb089 pieces=ae9e16a95d4377a2"},
    {"sor/2x2/bl1", "0x1.da652cp+22 l2=97920 l3=49216 coh=0 workers=2835572e4744753f pieces=a0fb49e6d603e9a6"},
    {"sor/2x2/bl1-ignore-busy", "0x1.da652cp+22 l2=97920 l3=49216 coh=0 workers=2835572e4744753f pieces=a0fb49e6d603e9a6"},
    {"sor/2x2/bl1-no-guards", "0x1.da652cp+22 l2=97920 l3=49216 coh=0 workers=2835572e4744753f pieces=a0fb49e6d603e9a6"},
    {"sor/2x2/bl2", "0x1.f2721p+20 l2=97920 l3=12160 coh=288 workers=1b650aeb02ffb089 pieces=ae9e16a95d4377a2"},
    {"sor/2x2/bl2-ignore-busy", "0x1.f2721p+20 l2=97920 l3=12160 coh=288 workers=1b650aeb02ffb089 pieces=ae9e16a95d4377a2"},
    {"sor/2x2/bl2-no-guards", "0x1.f2721p+20 l2=97920 l3=12160 coh=288 workers=1b650aeb02ffb089 pieces=ae9e16a95d4377a2"},
    {"sor/2x2/bl3", "0x1.05afe8p+21 l2=97920 l3=12896 coh=320 workers=079d2c6f3d181c9d pieces=75bbecebf57ede72"},
    {"sor/2x2/bl3-ignore-busy", "0x1.05afe8p+21 l2=97920 l3=12896 coh=320 workers=079d2c6f3d181c9d pieces=63dafe63e799e506"},
    {"sor/2x2/bl3-no-guards", "0x1.05a148p+21 l2=97920 l3=12256 coh=320 workers=789e21d443343b9b pieces=2b9a9f7a3e5a752f"},
    {"sor/2x2/bl4", "0x1.0178b8p+21 l2=97920 l3=12896 coh=320 workers=737e9d3aad4042dd pieces=f847883e60bc99bb"},
    {"sor/2x2/bl4-ignore-busy", "0x1.faa01p+20 l2=97920 l3=12896 coh=320 workers=737e9d3aad4042dd pieces=45d3d7b89a89fb33"},
    {"sor/2x2/bl4-no-guards", "0x1.ed47dp+20 l2=97632 l3=12896 coh=320 workers=46d22e285a06c69b pieces=cd3d184789108462"},
    {"sor/2x2/bl5", "0x1.620104p+22 l2=95232 l3=28000 coh=5568 workers=686f8caf35d8dd43 pieces=56276ee7ca3b5662"},
    {"sor/2x2/bl5-ignore-busy", "0x1.620104p+22 l2=95232 l3=28000 coh=5568 workers=686f8caf35d8dd43 pieces=56276ee7ca3b5662"},
    {"sor/2x2/bl5-no-guards", "0x1.620104p+22 l2=95232 l3=28000 coh=5568 workers=686f8caf35d8dd43 pieces=56276ee7ca3b5662"},
    {"sor/2x2/cab-rr", "0x1.f2721p+20 l2=97920 l3=12160 coh=288 workers=1b650aeb02ffb089 pieces=ae9e16a95d4377a2"},
    {"sor/2x2/cab-uniform", "0x1.559a18p+21 l2=97920 l3=26880 coh=4064 workers=7e81e5e1fb7cca61 pieces=0036f89f102f9245"},
    {"sor/2x2/flexible", "0x1.0178b8p+21 l2=97920 l3=12896 coh=320 workers=737e9d3aad4042dd pieces=f847883e60bc99bb"},
    {"sor/2x2/random-jitter", "0x1.89c527781635cp+21 l2=97824 l3=32800 coh=7744 workers=9b1b85e05a8bb299 pieces=9aa3ee93be1b43a7"},
    {"sor/opteron/any-worker", "0x1.384acp+18 l2=13952 l3=9344 coh=5760 workers=52984f70d60d4ed1 pieces=56694691376dc66d"},
    {"sor/opteron/bl1", "0x1.031abp+20 l2=14016 l3=8192 coh=1600 workers=d8f849d45adf8ccb pieces=c05531ed3cd19092"},
    {"sor/opteron/bl1-ignore-busy", "0x1.031abp+20 l2=14016 l3=8192 coh=1600 workers=d8f849d45adf8ccb pieces=c05531ed3cd19092"},
    {"sor/opteron/bl1-no-guards", "0x1.031abp+20 l2=14016 l3=8192 coh=1600 workers=d8f849d45adf8ccb pieces=c05531ed3cd19092"},
    {"sor/opteron/bl2", "0x1.1eff2p+19 l2=14976 l3=8576 coh=3712 workers=121e93f64ff13617 pieces=c9feab95fbe8593c"},
    {"sor/opteron/bl2-ignore-busy", "0x1.1eff2p+19 l2=14976 l3=8576 coh=3712 workers=121e93f64ff13617 pieces=c9feab95fbe8593c"},
    {"sor/opteron/bl2-no-guards", "0x1.1eff2p+19 l2=14976 l3=8576 coh=3712 workers=121e93f64ff13617 pieces=c9feab95fbe8593c"},
    {"sor/opteron/bl3", "0x1.384acp+18 l2=13952 l3=9344 coh=5760 workers=52984f70d60d4ed1 pieces=56694691376dc66d"},
    {"sor/opteron/bl3-ignore-busy", "0x1.384acp+18 l2=13952 l3=9344 coh=5760 workers=52984f70d60d4ed1 pieces=56694691376dc66d"},
    {"sor/opteron/bl3-no-guards", "0x1.384acp+18 l2=13952 l3=9344 coh=5760 workers=52984f70d60d4ed1 pieces=56694691376dc66d"},
    {"sor/opteron/bl4", "0x1.7315ep+19 l2=16032 l3=12512 coh=6464 workers=22b533289c7e9c85 pieces=8307de5e14fac6b4"},
    {"sor/opteron/bl4-ignore-busy", "0x1.342e2p+19 l2=14464 l3=10496 coh=6656 workers=ee5a3552f1529405 pieces=0c66e2845fd75c29"},
    {"sor/opteron/bl4-no-guards", "0x1.32c52p+19 l2=15040 l3=10112 coh=5376 workers=9be143f37716da45 pieces=2ffa934a6b751426"},
    {"sor/opteron/bl5", "0x1.38987p+20 l2=11648 l3=11648 coh=5760 workers=3e5ea0b0ae3d36ad pieces=bbd28b1ab768ccbb"},
    {"sor/opteron/bl5-ignore-busy", "0x1.38987p+20 l2=11648 l3=11648 coh=5760 workers=3e5ea0b0ae3d36ad pieces=bbd28b1ab768ccbb"},
    {"sor/opteron/bl5-no-guards", "0x1.38987p+20 l2=11648 l3=11648 coh=5760 workers=3e5ea0b0ae3d36ad pieces=bbd28b1ab768ccbb"},
    {"sor/opteron/cab-rr", "0x1.384acp+18 l2=13952 l3=9344 coh=5760 workers=52984f70d60d4ed1 pieces=56694691376dc66d"},
    {"sor/opteron/cab-uniform", "0x1.dc346p+19 l2=52512 l3=35680 coh=10176 workers=fb1a3fc251dc1bec pieces=4808649b081195f5"},
    {"sor/opteron/flexible", "0x1.031abp+20 l2=14016 l3=8192 coh=1600 workers=d8f849d45adf8ccb pieces=c05531ed3cd19092"},
    {"sor/opteron/random-jitter", "0x1.e34ae8cd47cdcp+19 l2=53536 l3=43616 coh=20512 workers=f5bff5d097953d8d pieces=56154440862a4816"},
};
// clang-format on

TEST(GoldenSchedule, FingerprintsMatchPinnedValues) {
  const std::map<std::string, std::string> actual = golden_runs();
  std::map<std::string, std::string> pinned;
  for (const GoldenCase& c : kGolden) pinned[c.name] = c.fingerprint;
  for (const auto& [name, fp] : actual) {
    auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned case: {\"" << name << "\", \"" << fp
                    << "\"},";
      continue;
    }
    EXPECT_EQ(it->second, fp) << name;
  }
  EXPECT_EQ(actual.size(), pinned.size());
}

}  // namespace
}  // namespace cab::simsched
