// fj-heat: apps::run_heat on a synthetic 2x2 topology — the paper's
// memory-bound running example, scaled down by 4 in grid area and in
// modeled L3: a 1024 x 1024 grid (8 MiB) over a 1.5 MiB modeled L3 has
// the Sd/Sc of the paper-size 2048^2 grid over 6 MiB, so Eq. 4 still
// gives BL = 4 and the row-division tree has the same shape. The
// inter-tier pool, busy_state, head-worker acquire and memory traffic do
// the work; with 30 spawns per ~0.5 ms step, spawn-path changes should
// not show here. run_heat allocates, initialises and sums its grid
// outside the epoch (the `op` span's self time in the traced run).
//
// Sizes chosen for steadiness on a shared host: an 8 MiB grid is reused
// from the heap after the first op, where a 32 MiB one is mapped,
// page-faulted and unmapped on every op (~16k faults); and an op of 400
// steps (~200 ms) spans many host stalls, where the tail over ops of 80
// steps swung with how many ops a stall happened to hit.

#include <cstring>
#include <memory>

#include "apps/heat.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSockets = 2;
constexpr int kCores = 2;
constexpr std::uint64_t kL3Bytes = 1536ull << 10;

cab::apps::HeatParams params() {
  cab::apps::HeatParams p;
  p.rows = 1024;
  p.cols = 1024;
  p.steps = 400;
  p.leaf_rows = 64;
  return p;
}

struct State {
  cab::apps::HeatParams p = params();
  std::int32_t bl = 0;
  double expected = 0;
  double serial_ms = 0;
  std::unique_ptr<cab::runtime::Runtime> rt;
};

std::int32_t heat_bl() {
  return cab::runtime::auto_boundary_level(
      cab::hw::Topology::synthetic(kSockets, kCores, kL3Bytes),
      params().input_bytes(),
      params().branching());
}

std::unique_ptr<State> make_state(const Config& cfg) {
  auto s = std::make_unique<State>();
  s->bl = heat_bl();
  s->rt = std::make_unique<cab::runtime::Runtime>(
      runtime_options(kSockets, kCores, cfg.seed, s->bl, kL3Bytes));
  const std::uint64_t t0 = wall_ns();
  s->expected = cab::apps::run_heat_serial(s->p);
  s->serial_ms = static_cast<double>(wall_ns() - t0) / 1e6;
  cab::apps::run_heat(*s->rt, s->p);  // warm-up
  return s;
}

bool run_op(cab::runtime::Runtime& rt, const State& s, bool corrupt) {
  double got = cab::apps::run_heat(rt, s.p);
  if (corrupt) got += 1.0;
  // Same arithmetic in the same order: the checksums agree bit for bit.
  return std::memcmp(&got, &s.expected, sizeof(double)) == 0;
}

/// Bytes the kernel moves per op, computed from the row division (not
/// measured): each leaf reads its rows plus a one-row halo on each
/// interior side and writes its rows, every step.
double computed_bytes_per_op(const cab::apps::HeatParams& p) {
  std::uint64_t rows_read = 0;
  auto walk = [&](auto&& self, std::int64_t r0, std::int64_t r1) -> void {
    if (r1 - r0 <= p.leaf_rows) {
      const std::int64_t lo = r0 > 0 ? r0 - 1 : 0;
      const std::int64_t hi = r1 < p.rows ? r1 + 1 : p.rows;
      rows_read += static_cast<std::uint64_t>(hi - lo);
      return;
    }
    const std::int64_t mid = r0 + (r1 - r0) / 2;
    self(self, r0, mid);
    self(self, mid, r1);
  };
  walk(walk, 0, p.rows);
  const double row_bytes = static_cast<double>(p.cols) * sizeof(double);
  return static_cast<double>(p.steps) * row_bytes *
         static_cast<double>(rows_read + static_cast<std::uint64_t>(p.rows));
}

}  // namespace

Outcome run_fj_heat(const Config& cfg, Report& rep) {
  Outcome out;
  out.workers = kSockets * kCores;
  std::vector<double> setup_s;
  std::unique_ptr<State> s = timed_setup<State>(
      [&] { return make_state(cfg); }, cfg.process_start_ns, setup_s);
  out.topology =
      "synthetic 2x2, L3 1.5 MiB (BL=" + std::to_string(s->bl) + ")";
  rep.note("heat", "{\"rows\": " + std::to_string(s->p.rows) +
                       ", \"cols\": " + std::to_string(s->p.cols) +
                       ", \"steps\": " + std::to_string(s->p.steps) +
                       ", \"leaf_rows\": " + std::to_string(s->p.leaf_rows) +
                       ", \"boundary_level\": " + std::to_string(s->bl) + "}");
  cab::runtime::Runtime& rt = *s->rt;

  if (!cfg.trace) {
    const LoopResult r = closed_loop(cfg.seconds, 20, [&](std::uint64_t i) {
      return run_op(rt, *s, cfg.inject_fault && i == 0);
    });
    out.tally = r.tally;
    report_closed_loop(rep, r, setup_s);
    return out;
  }

  const LoopResult plain = untraced_pass(
      rep, out, rt, cfg.seconds * 0.45,
      [&](std::uint64_t i) {
        return run_op(rt, *s, cfg.inject_fault && i == 0);
      });
  const double p50 = median(plain.lat_ms);
  rep.set("apps.heat_serial_ms", s->serial_ms);
  rep.set("apps.heat_speedup", s->serial_ms / p50);
  rep.set("apps.heat_bytes_per_op", computed_bytes_per_op(s->p));

  traced_runtime_pass(
      cfg, rep, out, runtime_options(kSockets, kCores, cfg.seed, s->bl, kL3Bytes),
      cfg.seconds * 0.45, p50,
      [&](cab::runtime::Runtime& trt) { return run_op(trt, *s, false); });
  return out;
}

}  // namespace perfbench
