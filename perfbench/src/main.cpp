// cab_perfbench — the repository benchmark.
//
//   cab_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--inject-fault]
//
// W is fj-irregular, fj-heat, svc-burst or sim-memory; S is 1 to 60.
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the per-layer pass (an untraced window, layer probes, and a traced
// window whose Chrome trace lands in DIR). Prints one full JSON record,
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any op's output was wrong or the trace was incomplete, 2 on
// bad arguments. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cab_perfbench: %s\n"
               "usage: cab_perfbench --workload "
               "fj-irregular|fj-heat|svc-burst|sim-memory --seed N "
               "--seconds 1..60 --trace 0|1 [--out-dir DIR] [--inject-fault]\n",
               why.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::stoull(s);
  return true;
}

perfbench::Config parse(int argc, char** argv) {
  perfbench::Config c;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      c.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      c.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(v, c.seed)) usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      // At most 60 s, so that set-up plus a traced run's two passes stay
      // well inside run.py's time limit.
      if (!parse_u64(v, s) || s < 1 || s > 60) usage("bad --seconds " + v);
      c.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      c.trace = v == "1";
    } else if (flag == "--out-dir") {
      c.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg = parse(argc, argv);
  // The host is probed before the workload starts, so its readings do not
  // include the benchmark's own threads.
  Host host = probe_host();
  cfg.process_start_ns = wall_ns();

  Outcome (*run)(const Config&, Report&) = nullptr;
  if (cfg.workload == "fj-irregular") run = run_fj_irregular;
  else if (cfg.workload == "fj-heat") run = run_fj_heat;
  else if (cfg.workload == "svc-burst") run = run_svc_burst;
  else if (cfg.workload == "sim-memory") run = run_sim_memory;
  else usage("unknown workload " + cfg.workload);

  Report rep(cfg.trace);
  const Outcome o = run(cfg, rep);
  describe_workload(host, o.topology, o.workers);
  const bool correct =
      o.tally.attempted > 0 && o.tally.failed == 0 && o.errors.empty();

  std::string errors = "[";
  for (std::size_t i = 0; i < o.errors.size(); ++i)
    errors += (i ? ", " : "") + json_str(o.errors[i]);
  std::string na = "[";
  const auto missing = rep.not_applicable();
  for (std::size_t i = 0; i < missing.size(); ++i)
    na += (i ? ", " : "") + json_str(missing[i]);
  std::string notes = "{";
  for (std::size_t i = 0; i < rep.notes().size(); ++i) {
    notes += (i ? ", " : "") + json_str(rep.notes()[i].first) + ": " +
             rep.notes()[i].second;
  }
  std::printf(
      "{\"schema\": \"cab-perfbench-v1\", \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"host\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"failed_frac\": %s, "
      "\"errors\": %s], \"not_applicable\": %s], \"details\": %s}, "
      "\"metrics\": %s}\n",
      json_str(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      json_num(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      host_json(host).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(o.tally.attempted),
      static_cast<unsigned long long>(o.tally.failed),
      json_num(o.tally.failed_frac()).c_str(), errors.c_str(), na.c_str(),
      notes.c_str(), rep.metrics_json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(o.tally.attempted),
      static_cast<unsigned long long>(o.tally.failed),
      rep.metrics_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
