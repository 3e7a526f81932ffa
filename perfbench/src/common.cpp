#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/timeline.hpp"

namespace perfbench {

std::uint64_t wall_ns() { return cab::obs::now_ns(); }

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the process image before exec (the launching interpreter).
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // 1-based rank ceil(p/100 * n), clamped to [1, n]. The epsilon keeps
  // exact products (e.g. 0.9 * 100) from rounding up a rank.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

Tail tail_of(std::vector<double> v) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.5, 99, 95, 90, 75, 50};
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (double p : kLadder) {
    const std::size_t rank = nearest_rank(v.size(), p);
    if (v.size() - rank >= kTailBeyond) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = v.size() - rank;
      return t;
    }
  }
  t.value = v.back();
  return t;
}

LoopResult closed_loop(double window_s, std::size_t min_ops,
                       const std::function<bool(std::uint64_t)>& op) {
  LoopResult r;
  const std::uint64_t window_ns =
      static_cast<std::uint64_t>(window_s * 1e9);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = wall_ns();
  std::uint64_t now = t0;
  for (std::uint64_t i = 0; now - t0 < window_ns || i < min_ops; ++i) {
    const std::uint64_t s = wall_ns();
    const bool ok = op(i);
    now = wall_ns();
    r.lat_ms.push_back(static_cast<double>(now - s) / 1e6);
    r.tally.record(ok);
  }
  r.wall_s = static_cast<double>(now - t0) / 1e9;
  r.cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  return r;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> k = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"goodput_ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},
      {"ok_frac", "frac"},
      {"peak_rss_mb", "MiB"},
  };
  return k;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> k = {
      {"runtime.spawn_ns", "ns"},
      {"runtime.promotion_ratio", "ratio"},
      {"deque.push_pop_ns", "ns"},
      {"deque.steal_ns", "ns"},
      {"deque.steal_batch_ns", "ns"},
      {"runtime.steals_per_op", "count"},
      {"runtime.steal_success_ratio", "ratio"},
      {"runtime.idle_sleeps_per_op", "count"},
      {"runtime.cpu_per_wall", "ratio"},
      {"runtime.inter_acquires_per_op", "count"},
      {"runtime.inter_steals_per_op", "count"},
      {"runtime.empty_run_us", "us"},
      {"runtime.empty_run_on_us", "us"},
      {"runtime.peak_live_frames", "count"},
      {"apps.heat_serial_ms", "ms"},
      {"apps.heat_speedup", "ratio"},
      {"apps.heat_bytes_per_op", "bytes_computed"},
      {"svc.submit_us", "us"},
      {"svc.exec_ms", "ms"},
      {"svc.queue_wait_p50_ms", "ms"},
      {"svc.queue_wait_tail_ms", "ms"},
      {"svc.rejected", "count"},
      {"svc.promoted", "count"},
      {"svc.granted_squads_mean", "count"},
      {"simsched.tasks_per_s", "1/s"},
      {"simsched.normalized_time", "ratio"},
      {"cachesim.accesses_per_s", "1/s"},
      {"cachesim.l3_misses", "count"},
      {"attrib.exec_frac", "frac"},
      {"attrib.steal_frac", "frac"},
      {"attrib.protocol_frac", "frac"},
      {"attrib.idle_frac", "frac"},
      {"attrib.untracked_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.dropped_events", "count"},
  };
  return k;
}

const std::vector<MetricSpec>& Report::specs() const {
  return trace_mode_ ? per_layer_specs() : end_to_end_specs();
}

void Report::set(const std::string& name, double value) {
  const auto& s = specs();
  const bool known = std::any_of(s.begin(), s.end(), [&](const MetricSpec& m) {
    return name == m.name;
  });
  if (!known) {
    std::fprintf(stderr, "perfbench: metric %s is not in the %s catalogue\n",
                 name.c_str(), trace_mode_ ? "per-layer" : "end-to-end");
    std::abort();
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::note(const std::string& key, const std::string& json) {
  notes_.emplace_back(key, json);
}

std::string Report::metrics_json() const {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& m : specs()) {
    double v = 0;
    for (const auto& [n, val] : values_) {
      if (n == m.name) v = val;
    }
    if (!first) out += ", ";
    first = false;
    out += json_str(m.name) + ": {\"value\": " + json_num(v) +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  return out + "}";
}

std::vector<std::string> Report::not_applicable() const {
  std::vector<std::string> out;
  for (const MetricSpec& m : specs()) {
    const bool set =
        std::any_of(values_.begin(), values_.end(),
                    [&](const auto& p) { return p.first == m.name; });
    if (!set) out.emplace_back(m.name);
  }
  return out;
}

void report_closed_loop(Report& rep, const LoopResult& r,
                        const std::vector<double>& setup_s) {
  const double ops = static_cast<double>(r.tally.attempted);
  rep.set("setup_s", median(setup_s));
  rep.set("latency_p50_ms", median(r.lat_ms));
  rep.set("latency_tail_ms", tail_of(r.lat_ms).value);
  rep.set("goodput_ops_per_s",
          static_cast<double>(r.tally.attempted - r.tally.failed) / r.wall_s);
  rep.set("cpu_ms_per_op", r.cpu_s * 1e3 / ops);
  rep.set("ok_frac", 1.0 - r.tally.failed_frac());
  rep.set("peak_rss_mb", peak_rss_mb());
  std::string s = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    s += (i ? ", " : "") + json_num(setup_s[i]);
  rep.note("setup_s_each", s + "]");
  note_window(rep, "window", r);
}

void note_window(Report& rep, const std::string& key, const LoopResult& r) {
  rep.note(key, "{\"ops\": " + std::to_string(r.tally.attempted) +
                    ", \"failed\": " + std::to_string(r.tally.failed) +
                    ", \"wall_s\": " + json_num(r.wall_s) +
                    ", \"cpu_s\": " + json_num(r.cpu_s) +
                    ", \"latency_p50_ms\": " + json_num(median(r.lat_ms)) +
                    ", \"latency_tail_ms\": " + tail_json(tail_of(r.lat_ms)) +
                    "}");
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string tail_json(const Tail& t) {
  return "{\"value\": " + json_num(t.value) +
         ", \"percentile\": " + json_num(t.percentile) +
         ", \"samples\": " + std::to_string(t.samples) +
         ", \"beyond\": " + std::to_string(t.beyond) + "}";
}

}  // namespace perfbench
