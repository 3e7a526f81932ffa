// bench_service — open-loop tail-latency bench for the job service.
//
// Replays an arrival-time trace (Poisson or bursty) against a
// svc::JobService and reports throughput plus p50/p99/p999 job latency.
// Open-loop means the arrival schedule is fixed *before* the run and
// never waits on the service: when the service falls behind, submits
// happen late but each job's latency is still measured from its
// SCHEDULED arrival, so queueing delay the service caused is charged to
// it. A closed-loop driver (submit, wait, submit) would silently stop
// offering load exactly when the service is slow — the coordinated
// omission trap — and report flat percentiles through an overload
// collapse. See EXPERIMENTS.md "Open-loop service benchmarking".
//
// Emits a `cab-svc-v1` JSON record (same envelope as cab-bench-v1, so
// cab_bench_report merges and diffs it; the percentile metrics are
// lower-is-better).
//
// Usage:
//   bench_service [--rate=500/s] [--duration=2s] [--burst=1.8]
//                 [--burst-period=250ms] [--queue=256]
//                 [--backpressure=reject|block] [--cooldown=1ms]
//                 [--sockets=2] [--cores=2] [--max-squads=2]
//                 [--tiers=2] [--depth=5] [--leaf-iters=400]
//                 [--seed=42] [--only=poisson|bursty] [--json=FILE]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/timeline.hpp"
#include "runtime/runtime.hpp"
#include "svc/service.hpp"
#include "util/args.hpp"

namespace {

using cab::bench::detail::append_escaped;

struct Args {
  double rate_per_sec = 500.0;
  std::uint64_t duration_ns = 2'000'000'000;  // 2s
  double burst = 1.8;  ///< peak-window rate multiplier, in [1, 2]
  std::uint64_t burst_period_ns = 250'000'000;  // 250ms on/off window
  std::size_t queue = 256;
  cab::svc::Backpressure backpressure = cab::svc::Backpressure::kReject;
  std::uint64_t cooldown_ns = 1'000'000;  // 1ms per tier promotion
  int sockets = 2;
  int cores = 2;
  int max_squads = 2;
  int tiers = 2;
  int depth = 5;
  int leaf_iters = 400;
  std::uint64_t seed = 42;
  std::string only;  ///< "" = both traces
  std::string json_path;
};

[[noreturn]] void usage_and_exit(const std::string& why) {
  std::fprintf(stderr, "bench_service: %s\n", why.c_str());
  std::fprintf(
      stderr,
      "usage: bench_service [--rate=R] [--duration=D] [--burst=F]\n"
      "  [--burst-period=D] [--queue=N] [--backpressure=reject|block]\n"
      "  [--cooldown=D] [--sockets=N] [--cores=N] [--max-squads=N]\n"
      "  [--tiers=N] [--depth=N] [--leaf-iters=N] [--seed=N]\n"
      "  [--only=poisson|bursty] [--json=FILE]\n"
      "  (rates like 500/s; durations like 250ms, 2s)\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  namespace args = cab::util::args;
  static const std::vector<args::FlagSpec> kKnown = {
      {"rate", true},       {"duration", true},  {"burst", true},
      {"burst-period", true}, {"queue", true},   {"backpressure", true},
      {"cooldown", true},   {"sockets", true},   {"cores", true},
      {"max-squads", true}, {"tiers", true},     {"depth", true},
      {"leaf-iters", true}, {"seed", true},      {"only", true},
      {"json", true},
  };
  const std::string unknown = args::first_unknown(argc, argv, kKnown);
  if (!unknown.empty()) usage_and_exit("unknown flag " + unknown);

  Args a;
  std::string v;
  if (!(v = args::value(argc, argv, "rate")).empty() &&
      !args::parse_rate(v, a.rate_per_sec)) {
    usage_and_exit("bad --rate '" + v + "' (want e.g. 500/s)");
  }
  if (!(v = args::value(argc, argv, "duration")).empty() &&
      !args::parse_duration(v, a.duration_ns)) {
    usage_and_exit("bad --duration '" + v + "' (want e.g. 2s)");
  }
  if (!(v = args::value(argc, argv, "burst-period")).empty() &&
      !args::parse_duration(v, a.burst_period_ns)) {
    usage_and_exit("bad --burst-period '" + v + "'");
  }
  if (!(v = args::value(argc, argv, "cooldown")).empty() &&
      !args::parse_duration(v, a.cooldown_ns)) {
    usage_and_exit("bad --cooldown '" + v + "'");
  }
  if (!(v = args::value(argc, argv, "backpressure")).empty() &&
      !cab::svc::parse_backpressure(v, a.backpressure)) {
    usage_and_exit("bad --backpressure '" + v + "' (reject|block)");
  }
  if (!(v = args::value(argc, argv, "burst")).empty()) a.burst = std::stod(v);
  if (a.burst < 1.0 || a.burst > 2.0) usage_and_exit("--burst must be in [1,2]");
  if (!(v = args::value(argc, argv, "queue")).empty())
    a.queue = static_cast<std::size_t>(std::stoul(v));
  if (!(v = args::value(argc, argv, "sockets")).empty()) a.sockets = std::stoi(v);
  if (!(v = args::value(argc, argv, "cores")).empty()) a.cores = std::stoi(v);
  if (!(v = args::value(argc, argv, "max-squads")).empty())
    a.max_squads = std::stoi(v);
  if (!(v = args::value(argc, argv, "tiers")).empty()) a.tiers = std::stoi(v);
  if (!(v = args::value(argc, argv, "depth")).empty()) a.depth = std::stoi(v);
  if (!(v = args::value(argc, argv, "leaf-iters")).empty())
    a.leaf_iters = std::stoi(v);
  if (!(v = args::value(argc, argv, "seed")).empty())
    a.seed = std::stoull(v);
  if (!(v = args::value(argc, argv, "only")).empty()) {
    if (v != "poisson" && v != "bursty")
      usage_and_exit("bad --only '" + v + "' (poisson|bursty)");
    a.only = v;
  }
  a.json_path = args::value(argc, argv, "json");
  if (a.rate_per_sec <= 0) usage_and_exit("--rate must be positive");
  if (a.max_squads < 1) usage_and_exit("--max-squads must be >= 1");
  if (a.tiers < 1) usage_and_exit("--tiers must be >= 1");
  return a;
}

void burn(int iters) {
  volatile std::uint64_t acc = 0;
  for (int i = 0; i < iters; ++i)
    acc = acc + static_cast<std::uint64_t>(i) * 2654435761u;
}

// The per-job workload: a binary spawn tree with busy leaves — enough
// real spawn/sync/steal traffic to exercise the partition's bi-tier
// protocol without dominating the run with compute.
void tree(int depth, int iters) {
  if (depth <= 0) {
    burn(iters);
    return;
  }
  cab::runtime::Runtime::spawn([=] { tree(depth - 1, iters); });
  cab::runtime::Runtime::spawn([=] { tree(depth - 1, iters); });
  cab::runtime::Runtime::sync();
}

/// Arrival offsets (ns from trace start) for a Poisson process of the
/// given mean rate over [0, duration).
std::vector<std::uint64_t> poisson_trace(double rate_per_sec,
                                         std::uint64_t duration_ns,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_sec / 1e9);  // per ns
  std::vector<std::uint64_t> out;
  double t = gap(rng);
  while (t < static_cast<double>(duration_ns)) {
    out.push_back(static_cast<std::uint64_t>(t));
    t += gap(rng);
  }
  return out;
}

/// Bursty trace: same mean rate, but alternating windows of
/// burst-period length run at burst*rate then (2-burst)*rate — a square
/// wave of offered load that stresses the admission queue and the tail.
std::vector<std::uint64_t> bursty_trace(double rate_per_sec, double burst,
                                        std::uint64_t period_ns,
                                        std::uint64_t duration_ns,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> out;
  double t = 0;
  while (t < static_cast<double>(duration_ns)) {
    const std::uint64_t window =
        static_cast<std::uint64_t>(t) / period_ns;
    const double mult = (window % 2 == 0) ? burst : (2.0 - burst);
    const double r = rate_per_sec * mult / 1e9;  // per ns
    if (r <= 0) {  // degenerate burst=2: silent window, jump to the next
      t = static_cast<double>((window + 1) * period_ns);
      continue;
    }
    std::exponential_distribution<double> gap(r);
    t += gap(rng);
    if (t < static_cast<double>(duration_ns))
      out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

struct ConfigResult {
  std::string name;
  std::size_t jobs = 0;       ///< trace length (offered)
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t promoted = 0;
  double jobs_per_s = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  double mean_queued_ms = 0;
  double wall_s = 0;
  cab::svc::ServiceCounters counters;
};

double pct(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

ConfigResult run_trace(const Args& a, const std::string& name,
                       const std::vector<std::uint64_t>& offsets) {
  cab::svc::ServiceOptions opts;
  opts.runtime.topo = cab::hw::Topology::synthetic(a.sockets, a.cores);
  opts.runtime.pin_threads = false;
  opts.queue_capacity = a.queue;
  opts.backpressure = a.backpressure;
  opts.promote_cooldown_ns = a.cooldown_ns;
  opts.max_tier = a.tiers - 1;
  cab::svc::JobService svc(opts);

  const int depth = a.depth;
  const int leaf_iters = a.leaf_iters;
  std::vector<cab::svc::JobTicket> tickets;
  tickets.reserve(offsets.size());

  // Replay: pace on the same clock the tickets are stamped with, so
  // scheduled-arrival latency needs no cross-clock conversion.
  const std::uint64_t base = cab::obs::now_ns();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t target = base + offsets[i];
    const std::uint64_t now = cab::obs::now_ns();
    if (target > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
    }
    cab::svc::JobDesc d;
    d.body = [=] { tree(depth, leaf_iters); };
    d.squads = 1 + static_cast<int>(i % static_cast<std::size_t>(a.max_squads));
    d.tier = static_cast<int>(i % static_cast<std::size_t>(a.tiers));
    d.input_bytes = 1u << 20;
    tickets.push_back(svc.submit(std::move(d)));
  }
  svc.drain();
  const std::uint64_t end = cab::obs::now_ns();

  ConfigResult r;
  r.name = name;
  r.jobs = offsets.size();
  r.wall_s = static_cast<double>(end - base) / 1e9;

  std::vector<double> lat_ms;
  lat_ms.reserve(tickets.size());
  double queued_ms = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const cab::svc::JobTicket& t = tickets[i];
    const cab::svc::JobState s = t.state();
    if (s != cab::svc::JobState::kDone) continue;
    // Latency from the SCHEDULED arrival, not the (possibly late)
    // actual submit — the open-loop/coordinated-omission correction.
    const std::uint64_t scheduled = base + offsets[i];
    const std::uint64_t fin = t.finish_ns();
    lat_ms.push_back(fin > scheduled
                         ? static_cast<double>(fin - scheduled) / 1e6
                         : 0.0);
    queued_ms += static_cast<double>(t.queued_ns()) / 1e6;
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  r.counters = svc.counters();
  r.completed = r.counters.completed;
  r.rejected = r.counters.rejected;
  r.failed = r.counters.failed;
  r.promoted = r.counters.promoted;
  r.jobs_per_s = r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0;
  r.p50_ms = pct(lat_ms, 0.50);
  r.p99_ms = pct(lat_ms, 0.99);
  r.p999_ms = pct(lat_ms, 0.999);
  r.mean_queued_ms = lat_ms.empty() ? 0 : queued_ms / static_cast<double>(lat_ms.size());
  svc.shutdown();
  return r;
}

void append_counters(std::string& out, const cab::svc::ServiceCounters& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"svc.submitted\": %llu, \"svc.admitted\": %llu, "
                "\"svc.rejected\": %llu, \"svc.completed\": %llu, "
                "\"svc.failed\": %llu, \"svc.cancelled\": %llu, "
                "\"svc.promoted\": %llu, \"svc.queued_ns\": %llu}",
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.admitted),
                static_cast<unsigned long long>(c.rejected),
                static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.cancelled),
                static_cast<unsigned long long>(c.promoted),
                static_cast<unsigned long long>(c.queued_ns));
  out += buf;
}

std::string to_json(const Args& a, const std::vector<ConfigResult>& results) {
  const cab::hw::Topology topo =
      cab::hw::Topology::synthetic(a.sockets, a.cores);
  std::string out =
      cab::bench::record_envelope("cab-svc-v1", "service", topo) + ",\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"service\": {\"queue_capacity\": %llu, \"backpressure\": \"%s\", "
      "\"promote_cooldown_ns\": %llu, \"tiers\": %d, \"rate_per_s\": %.3f, "
      "\"duration_s\": %.3f, \"burst\": %.3f, \"seed\": %llu},\n",
      static_cast<unsigned long long>(a.queue),
      cab::svc::to_string(a.backpressure),
      static_cast<unsigned long long>(a.cooldown_ns), a.tiers, a.rate_per_sec,
      static_cast<double>(a.duration_ns) / 1e9, a.burst,
      static_cast<unsigned long long>(a.seed));
  out += buf;
  out += "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    out += "    {\"name\": ";
    append_escaped(out, r.name);
    out += ", ";
    std::snprintf(
        buf, sizeof(buf),
        "\"jobs\": %llu, \"completed\": %llu, \"rejected\": %llu, "
        "\"failed\": %llu, \"promoted\": %llu, \"jobs_per_s\": %.3f, "
        "\"job_p50_latency_ms\": %.4f, \"job_p99_latency_ms\": %.4f, "
        "\"job_p999_latency_ms\": %.4f, \"mean_queued_ms\": %.4f, "
        "\"wall_s\": %.4f, \"counters\": ",
        static_cast<unsigned long long>(r.jobs),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.promoted), r.jobs_per_s, r.p50_ms,
        r.p99_ms, r.p999_ms, r.mean_queued_ms, r.wall_s);
    out += buf;
    append_counters(out, r.counters);
    out += i + 1 < results.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  std::vector<ConfigResult> results;
  if (a.only.empty() || a.only == "poisson") {
    results.push_back(run_trace(
        a, "poisson", poisson_trace(a.rate_per_sec, a.duration_ns, a.seed)));
  }
  if (a.only.empty() || a.only == "bursty") {
    results.push_back(run_trace(
        a, "bursty",
        bursty_trace(a.rate_per_sec, a.burst, a.burst_period_ns, a.duration_ns,
                     a.seed + 1)));
  }

  std::printf("%-8s %8s %9s %8s %10s %10s %10s %10s\n", "trace", "jobs",
              "completed", "rejected", "jobs/s", "p50(ms)", "p99(ms)",
              "p999(ms)");
  for (const ConfigResult& r : results) {
    std::printf("%-8s %8llu %9llu %8llu %10.1f %10.3f %10.3f %10.3f\n",
                r.name.c_str(), static_cast<unsigned long long>(r.jobs),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.rejected), r.jobs_per_s,
                r.p50_ms, r.p99_ms, r.p999_ms);
  }

  if (!a.json_path.empty()) {
    if (!cab::bench::write_record(a.json_path, to_json(a, results))) {
      return 1;
    }
    std::printf("wrote %s\n", a.json_path.c_str());
  }
  return 0;
}
