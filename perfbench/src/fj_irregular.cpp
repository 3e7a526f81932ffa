// fj-irregular: Runtime::run on a synthetic 2x2 topology with BL = 0 over
// a seeded irregular spawn tree of 2^20 nodes with sub-microsecond nodes.
// Spawn, deque, steal, promotion and the idle loop do nearly all the
// work; the inter tier and the job service are bypassed. (Balanced fib
// would not do: it almost never steals.)

#include <memory>

#include "inputs.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTreeNodes = std::uint64_t{1} << 20;
constexpr int kSockets = 2;
constexpr int kCores = 2;

struct State {
  TreeNode root;
  std::uint64_t expected = 0;
  std::unique_ptr<cab::runtime::Runtime> rt;
};

std::unique_ptr<State> make_state(const Config& cfg) {
  auto s = std::make_unique<State>();
  s->rt = std::make_unique<cab::runtime::Runtime>(
      runtime_options(kSockets, kCores, cfg.seed, 0));
  s->root = tree_root(cfg.seed, kTreeNodes);
  s->expected = tree_serial(s->root);
  std::uint64_t got = 0;
  s->rt->run([&] { got = tree_parallel(s->root); });  // warm-up
  return s;
}

/// One op: the whole tree in one epoch, checked against the serial walk.
bool run_op(cab::runtime::Runtime& rt, const State& s, bool corrupt) {
  std::uint64_t got = 0;
  rt.run([&] { got = tree_parallel(s.root); });
  if (corrupt) got ^= 1;
  return got == s.expected;
}

/// Wall time of the tree on a 1-worker runtime minus the spawn elision
/// (tree_serial), per spawn: the cost of a spawn that is never stolen.
double spawn_ns(const Config& cfg, const State& s) {
  cab::runtime::Runtime one(runtime_options(1, 1, cfg.seed, 0));
  std::vector<double> par, ser;
  std::uint64_t sink = 0;
  for (int i = 0; i < 7; ++i) {
    std::uint64_t t0 = wall_ns();
    one.run([&] { sink += tree_parallel(s.root); });
    par.push_back(static_cast<double>(wall_ns() - t0));
    t0 = wall_ns();
    sink += tree_serial(s.root);
    ser.push_back(static_cast<double>(wall_ns() - t0));
  }
  if (sink == 1) std::abort();  // keeps both walks observable
  const cab::runtime::WorkerStats t = one.stats().total;
  const double spawns_per_op =
      static_cast<double>(t.spawns_intra + t.spawns_inter) / 7.0;
  return (median(par) - median(ser)) / spawns_per_op;
}

}  // namespace

Outcome run_fj_irregular(const Config& cfg, Report& rep) {
  Outcome out;
  out.topology = "synthetic 2x2 (BL=0)";
  out.workers = kSockets * kCores;
  std::vector<double> setup_s;
  std::unique_ptr<State> s = timed_setup<State>(
      [&] { return make_state(cfg); }, cfg.process_start_ns, setup_s);
  rep.note("tree", "{\"nodes\": " + std::to_string(kTreeNodes) +
                       ", \"depth\": " +
                       std::to_string(tree_depth(s->root)) + "}");
  cab::runtime::Runtime& rt = *s->rt;

  if (!cfg.trace) {
    const LoopResult r = closed_loop(cfg.seconds, 20, [&](std::uint64_t i) {
      return run_op(rt, *s, cfg.inject_fault && i == 0);
    });
    out.tally = r.tally;
    report_closed_loop(rep, r, setup_s);
    return out;
  }

  // Untraced pass: counters, CPU per wall, and the baseline p50 that the
  // traced pass's overhead is measured against.
  const LoopResult plain = untraced_pass(
      rep, out, rt, cfg.seconds * 0.4,
      [&](std::uint64_t i) {
        return run_op(rt, *s, cfg.inject_fault && i == 0);
      });

  rep.set("runtime.spawn_ns", spawn_ns(cfg, *s));
  rep.set("deque.push_pop_ns", deque_push_pop_ns());
  rep.set("deque.steal_ns", deque_steal_ns());
  double per_batch = 0;
  rep.set("deque.steal_batch_ns", deque_steal_batch_ns(per_batch));
  rep.note("deque_tasks_per_batch", json_num(per_batch));

  traced_runtime_pass(
      cfg, rep, out, runtime_options(kSockets, kCores, cfg.seed, 0),
      cfg.seconds * 0.4, median(plain.lat_ms),
      [&](cab::runtime::Runtime& trt) { return run_op(trt, *s, false); });
  return out;
}

}  // namespace perfbench
