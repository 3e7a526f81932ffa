// svc-burst: the job-service workload. It drives svc::JobService on a
// synthetic 2x2 topology (2 squads) from one client thread. Jobs alternate
// 1- and 2-squad partitions across 2 tiers; each is a seeded irregular
// tree whose value is checked after drain(). The runtime runs as many
// concurrent partitions (run_on epochs) rather than one long epoch.
//
// Closed loop: an op submits 24 jobs of about 20 ms back to back and
// waits for all of them; its latency is the burst's makespan. Submit,
// tiered admission and promotion, squad allocation and partitioned
// execution all run, but the jobs are long enough that the dozen thread
// wake-ups each job costs stay a small part of it: on a virtual machine
// whose host is busy, waking an idle vCPU can take milliseconds.

#include <memory>

#include "inputs.hpp"
#include "probes.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSockets = 2;
constexpr int kCores = 2;
constexpr std::size_t kBurstJobs = 24;
constexpr std::uint64_t kBurstJobNodes = 65536;  // about 20 ms
constexpr std::size_t kQueueCapacity = 4096;

cab::svc::ServiceOptions service_options(const Config& cfg, bool trace) {
  cab::svc::ServiceOptions o;
  o.runtime = runtime_options(kSockets, kCores, cfg.seed, 0);
  o.runtime.trace = trace;
  o.queue_capacity = kQueueCapacity;
  o.backpressure = cab::svc::Backpressure::kReject;
  o.max_tier = 1;
  return o;
}

/// A seeded burst of jobs with their reference values.
struct Burst {
  std::vector<JobSpec> jobs;
  std::vector<std::uint64_t> expected;
};

Burst burst(std::uint64_t seed) {
  Burst b;
  b.jobs.reserve(kBurstJobs);
  b.expected.reserve(kBurstJobs);
  for (std::uint64_t i = 0; i < kBurstJobs; ++i) {
    b.jobs.push_back(job_spec(seed, i, kBurstJobNodes));
    b.expected.push_back(tree_serial(b.jobs.back().tree));
  }
  return b;
}

/// Per-job readings of one replay.
struct Replay {
  // Per done job:
  std::vector<double> latency_ms;  ///< burst start -> finish
  std::vector<double> queue_ms;    ///< submit -> dispatch
  std::vector<double> exec_ms;     ///< dispatch -> finish
  // Per job:
  std::vector<double> submit_us;   ///< the submit() call
  double granted_sum = 0;
  Tally tally;
  std::uint64_t rejected = 0;  ///< service counter deltas over the replay
  std::uint64_t promoted = 0;
};

/// `to - from` in ms; 0 when `to` is not later.
double ms_between(std::uint64_t from, std::uint64_t to) {
  return to > from ? static_cast<double>(to - from) / 1e6 : 0.0;
}

/// Submits every job of `b` to `svc` back to back, drains, and checks
/// every job. With `log`, records one `job` span (burst start to finish)
/// per job with `submit`, `queue` and `exec` children sharing its id,
/// `id_base` + its index.
Replay replay(cab::svc::JobService& svc, const Burst& b, bool corrupt,
              SpanLog* log, std::uint64_t id_base = 0) {
  const std::size_t n = b.jobs.size();
  std::vector<std::uint64_t> results(n, 0);
  std::vector<cab::svc::JobTicket> tickets;
  tickets.reserve(n);
  std::vector<std::uint64_t> call_t0(n), call_t1(n);
  const cab::svc::ServiceCounters before = svc.counters();

  Replay r;
  const std::uint64_t base = wall_ns();
  for (std::size_t i = 0; i < n; ++i) {
    cab::svc::JobDesc d;
    const JobSpec& spec = b.jobs[i];
    std::uint64_t* slot = &results[i];  // read only after drain()
    d.body = [tree = spec.tree, slot] { *slot = tree_parallel(tree); };
    d.squads = spec.squads;
    d.tier = spec.tier;
    d.input_bytes = std::uint64_t{1} << 20;
    call_t0[i] = wall_ns();
    tickets.push_back(svc.submit(std::move(d)));
    call_t1[i] = wall_ns();
  }
  svc.drain();
  if (corrupt && n > 0) results[0] ^= 1;

  for (std::size_t i = 0; i < n; ++i) {
    const cab::svc::JobTicket& t = tickets[i];
    r.submit_us.push_back(ms_between(call_t0[i], call_t1[i]) * 1e3);
    const cab::svc::JobState state = t.state();
    const bool ok = job_ok(state, results[i], b.expected[i]);
    r.tally.record(ok);
    if (state != cab::svc::JobState::kDone) continue;
    const std::uint64_t submit = t.submit_ns();
    const std::uint64_t start = submit + t.queued_ns();
    const std::uint64_t finish = t.finish_ns();
    r.latency_ms.push_back(ms_between(base, finish));
    r.queue_ms.push_back(ms_between(submit, start));
    r.exec_ms.push_back(ms_between(start, finish));
    r.granted_sum += t.granted_squads();
    if (log != nullptr) {
      const std::uint64_t id = id_base + i;
      log->add("job", "", id, base, finish);
      log->add("submit", "job", id, call_t0[i], call_t1[i]);
      log->add("queue", "job", id, submit, start);
      log->add("exec", "job", id, start, finish);
    }
  }
  const cab::svc::ServiceCounters after = svc.counters();
  r.rejected = after.rejected - before.rejected;
  r.promoted = after.promoted - before.promoted;
  return r;
}

struct State {
  std::unique_ptr<cab::svc::JobService> svc;
  Burst timed;
};

/// A warmed-up service and the burst its timed window replays.
std::unique_ptr<State> make_state(const Config& cfg) {
  auto s = std::make_unique<State>();
  s->svc = std::make_unique<cab::svc::JobService>(service_options(cfg, false));
  s->timed = burst(cfg.seed);
  replay(*s->svc, burst(cfg.seed ^ 0x5EED), false, nullptr);  // warm-up
  s->svc->rt().reset_stats();
  return s;
}

/// Per-job readings pooled over replays.
void pool(Replay& into, const Replay& r) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.latency_ms, r.latency_ms);
  append(into.queue_ms, r.queue_ms);
  append(into.exec_ms, r.exec_ms);
  append(into.submit_us, r.submit_us);
  into.granted_sum += r.granted_sum;
  into.tally.add(r.tally);
  into.rejected += r.rejected;
  into.promoted += r.promoted;
}

void note_jobs(Report& rep, const std::string& key, const Replay& r) {
  rep.note(key,
           "{\"jobs\": " + std::to_string(r.tally.attempted) +
               ", \"failed\": " + std::to_string(r.tally.failed) +
               ", \"rejected\": " + std::to_string(r.rejected) +
               ", \"latency_p50_ms\": " + json_num(median(r.latency_ms)) +
               ", \"latency_tail_ms\": " + tail_json(tail_of(r.latency_ms)) +
               ", \"queue_wait_tail_ms\": " + tail_json(tail_of(r.queue_ms)) +
               "}");
}

/// The svc.* readings of a set of jobs.
void report_jobs(Report& rep, const Replay& r) {
  rep.set("svc.submit_us", median(r.submit_us));
  rep.set("svc.exec_ms", median(r.exec_ms));
  rep.set("svc.queue_wait_p50_ms", median(r.queue_ms));
  rep.set("svc.queue_wait_tail_ms", tail_of(r.queue_ms).value);
  rep.set("svc.rejected", static_cast<double>(r.rejected));
  rep.set("svc.promoted", static_cast<double>(r.promoted));
  rep.set("svc.granted_squads_mean",
          r.latency_ms.empty()
              ? 0
              : r.granted_sum / static_cast<double>(r.latency_ms.size()));
}

void report_epoch_probes(const Config& cfg, Report& rep) {
  cab::runtime::Runtime probe(runtime_options(kSockets, kCores, cfg.seed, 0));
  rep.set("runtime.empty_run_us", empty_run_us(probe));
  rep.set("runtime.empty_run_on_us", empty_run_on_us(probe, {0}));
}

std::string topology() {
  return "synthetic 2x2, 2 squads; jobs of 1 and 2 squads";
}

}  // namespace

bool job_ok(cab::svc::JobState state, std::uint64_t got,
            std::uint64_t expected) {
  return state == cab::svc::JobState::kDone && got == expected;
}

Outcome run_svc_burst(const Config& cfg, Report& rep) {
  Outcome out;
  out.topology = topology();
  out.workers = kSockets * kCores;
  std::vector<double> setup_s;
  std::unique_ptr<State> s = timed_setup<State>(
      [&] { return make_state(cfg); }, cfg.process_start_ns, setup_s);
  rep.note("service", "{\"burst_jobs\": " + std::to_string(kBurstJobs) +
                          ", \"queue_capacity\": " +
                          std::to_string(kQueueCapacity) + "}");
  cab::svc::JobService& svc = *s->svc;
  Replay jobs;  // per-job readings, pooled only for the per-layer metrics
  auto op = [&](std::uint64_t i) {
    const Replay r = replay(svc, s->timed, cfg.inject_fault && i == 0, nullptr);
    if (cfg.trace) pool(jobs, r);
    return r.tally.failed == 0;
  };

  if (!cfg.trace) {
    const LoopResult r = closed_loop(cfg.seconds, 20, op);
    out.tally = r.tally;
    report_closed_loop(rep, r, setup_s);
    return out;
  }

  const LoopResult plain =
      untraced_pass(rep, out, svc.rt(), cfg.seconds * 0.4, op);
  note_jobs(rep, "jobs", jobs);
  report_jobs(rep, jobs);
  s.reset();
  report_epoch_probes(cfg, rep);

  const Burst b = burst(cfg.seed);
  const std::uint64_t epoch = wall_ns();
  cab::svc::JobService tsvc(service_options(cfg, true));
  traced_pass(cfg, rep, out, tsvc.rt(), epoch, cfg.seconds * 0.4,
              median(plain.lat_ms), [&](std::uint64_t i, SpanLog& log) {
                return replay(tsvc, b, false, &log, i * kBurstJobs)
                           .tally.failed == 0;
              });
  return out;
}

}  // namespace perfbench
