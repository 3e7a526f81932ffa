// The benchmark's own unit tests: seeded inputs, the tail rule, failure
// accounting, span self times and the merged Chrome trace.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "obs/chrome_trace.hpp"
#include "spans.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,         \
                   __LINE__, #cond);                                      \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

using namespace perfbench;

/// Depth-first hash of every node's (state, size): equal for equal trees.
std::uint64_t tree_shape_digest(const TreeNode& n) {
  TreeNode kids[kMaxChildren];
  const int k = split(n, kids);
  std::uint64_t d = mix(n.state * 31 + n.size);
  for (int j = 0; j < k; ++j) d = mix(d ^ tree_shape_digest(kids[j]));
  return d;
}

std::uint64_t count_nodes(const TreeNode& n) {
  TreeNode kids[kMaxChildren];
  const int k = split(n, kids);
  std::uint64_t c = 1;
  for (int j = 0; j < k; ++j) c += count_nodes(kids[j]);
  return c;
}

void tree_is_a_function_of_its_seed() {
  for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
    const TreeNode a = tree_root(seed, 5000);
    const TreeNode b = tree_root(seed, 5000);
    CHECK(tree_shape_digest(a) == tree_shape_digest(b));
    CHECK(tree_serial(a) == tree_serial(b));
    CHECK(count_nodes(a) == 5000);  // exact size, whatever the shape
  }
  CHECK(tree_shape_digest(tree_root(1, 5000)) !=
        tree_shape_digest(tree_root(2, 5000)));
  CHECK(tree_serial(tree_root(1, 5000)) != tree_serial(tree_root(2, 5000)));
  // Skewed splits make the tree far deeper than a balanced one (~12).
  CHECK(tree_depth(tree_root(1, 5000)) > 20);
}

void job_stream_is_a_function_of_its_seed() {
  bool differs = false;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const JobSpec x = job_spec(9, i, 48);
    const JobSpec y = job_spec(9, i, 48);
    const JobSpec z = job_spec(10, i, 48);
    CHECK(x.tree.state == y.tree.state && x.tree.size == y.tree.size);
    CHECK(x.squads == y.squads && x.tier == y.tier);
    differs = differs || x.tree.state != z.tree.state;
    CHECK(x.squads == 1 + static_cast<int>(i % 2));
    CHECK(x.tier == static_cast<int>((i / 2) % 2));
    CHECK(x.tree.size >= 48 && x.tree.size <= 80);
  }
  CHECK(differs);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_is_highest_percentile_with_ten_beyond() {
  Tail t = tail_of(one_to(100));
  CHECK(t.percentile == 90 && t.value == 90 && t.beyond == 10);
  t = tail_of(one_to(1000));
  CHECK(t.percentile == 99 && t.value == 990 && t.beyond == 10);
  t = tail_of(one_to(10000));
  CHECK(t.percentile == 99.9 && t.value == 9990 && t.beyond == 10);
  t = tail_of(one_to(999));  // p99 leaves 9 beyond: fall back to p95
  CHECK(t.percentile == 95 && t.beyond >= 10);
  t = tail_of(one_to(20));
  CHECK(t.percentile == 50 && t.value == 10 && t.beyond == 10);
  t = tail_of(one_to(19));  // no ladder step has 10 beyond: the maximum
  CHECK(t.percentile == 100 && t.value == 19 && t.beyond == 0);
  CHECK(t.samples == 19);
}

void failures_land_in_failed_frac() {
  Tally t;
  t.record(job_ok(cab::svc::JobState::kDone, 7, 7));
  t.record(job_ok(cab::svc::JobState::kDone, 8, 7));  // wrong result
  t.record(job_ok(cab::svc::JobState::kRejected, 7, 7));
  t.record(job_ok(cab::svc::JobState::kCancelled, 7, 7));
  t.record(job_ok(cab::svc::JobState::kFailed, 7, 7));
  CHECK(t.attempted == 5 && t.failed == 4);
  CHECK(t.failed_frac() == 0.8);

  // A real rejection: a service with no queue slots rejects every job.
  cab::svc::ServiceOptions o;
  o.runtime.topo = cab::hw::Topology::synthetic(1, 1);
  o.queue_capacity = 0;
  cab::svc::JobService svc(o);
  cab::svc::JobDesc d;
  d.body = [] {};
  const cab::svc::JobTicket ticket = svc.submit(std::move(d));
  Tally r;
  r.record(job_ok(ticket.wait(), 0, 0));
  CHECK(r.failed == 1 && r.failed_frac() == 1.0);
}

void report_prints_whole_catalogue() {
  Report e2e(false);
  e2e.set("latency_p50_ms", 1.5);
  const std::string m = e2e.metrics_json();
  for (const MetricSpec& s : end_to_end_specs())
    CHECK(m.find(std::string("\"") + s.name + "\"") != std::string::npos);
  CHECK(e2e.not_applicable().size() == end_to_end_specs().size() - 1);
  Report layer(true);
  const std::string l = layer.metrics_json();
  for (const MetricSpec& s : per_layer_specs())
    CHECK(l.find(std::string("\"") + s.name + "\"") != std::string::npos);
}

void self_time_subtracts_children() {
  SpanLog log;
  log.add("job", "", 1, 0, 1000);
  log.add("queue", "job", 1, 100, 400);
  log.add("exec", "job", 1, 300, 900);  // overlaps queue by 100
  log.add("exec", "job", 2, 0, 5000);   // another job: not a child of 1
  const std::string j = log.self_time_json();
  // job 1: 1000 - |[100, 900)| = 200 ns = 0.0002 ms.
  CHECK(j.find("\"job\": {\"count\": 1, \"self_ms_p50\": " +
               json_num(0.0002) + ",") != std::string::npos);
}

void merged_trace_parses_and_clips() {
  cab::obs::Trace tr;
  tr.sockets = 2;
  tr.cores_per_socket = 1;
  tr.scheduler = "cab";
  for (int w = 0; w < 2; ++w) {
    cab::obs::WorkerTimeline wt;
    wt.worker = w;
    wt.squad = w;
    wt.is_head = true;
    for (int i = 0; i < 10; ++i) {
      cab::obs::TraceEvent e;
      e.kind = cab::obs::EventKind::kTaskExec;
      e.t0 = static_cast<std::uint64_t>(1000 * i + w);
      e.t1 = e.t0 + 500;
      e.a = 1;
      e.b = 0;
      wt.events.push_back(e);
    }
    tr.workers.push_back(wt);
  }
  const std::uint64_t epoch = 1'000'000;
  SpanLog log;
  log.add("op", "", 0, epoch, epoch + 9000);
  log.add("op", "", 1, epoch + 50'000, epoch + 60'000);  // after the clip
  const std::string path = "perfbench_selftest_trace.json";  // in the cwd

  TraceExport all = write_merged_trace(path, tr, epoch, log, 1000);
  CHECK(all.ok);
  CHECK(all.runtime_events == 20 && all.parsed_events == 20);
  CHECK(all.bench_events == 2);

  TraceExport clipped = write_merged_trace(path, tr, epoch, log, 6);
  CHECK(clipped.ok);
  CHECK(clipped.runtime_events == 6 && clipped.runtime_events_total == 20);
  CHECK(clipped.bench_events == 1);
  const cab::obs::Trace back = cab::obs::parse_chrome_trace_file(path);
  CHECK(back.event_count() == 6);
  std::filesystem::remove(path);
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"tree_is_a_function_of_its_seed", tree_is_a_function_of_its_seed},
      {"job_stream_is_a_function_of_its_seed",
       job_stream_is_a_function_of_its_seed},
      {"tail_is_highest_percentile_with_ten_beyond",
       tail_is_highest_percentile_with_ten_beyond},
      {"failures_land_in_failed_frac", failures_land_in_failed_frac},
      {"report_prints_whole_catalogue", report_prints_whole_catalogue},
      {"self_time_subtracts_children", self_time_subtracts_children},
      {"merged_trace_parses_and_clips", merged_trace_parses_and_clips},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%d check(s) failed\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
