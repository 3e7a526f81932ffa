#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "obs/chrome_trace.hpp"

namespace perfbench {

void SpanLog::add(std::string name, std::string parent, std::uint64_t id,
                  std::uint64_t t0, std::uint64_t t1, bool exported) {
  spans_.push_back(Span{std::move(name), std::move(parent), id, t0,
                        t1 > t0 ? t1 : t0, exported});
}

namespace {

/// Length of the union of [a, b) intervals clipped to [lo, hi).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, cur);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      cur = b;
    }
  }
  return total;
}

}  // namespace

std::string SpanLog::self_time_json() const {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_id;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_id[spans_[i].id].push_back(i);

  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      per_name;  // name -> (self ms, total ms)
  for (const Span& s : spans_) {
    if (!s.exported) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (std::size_t j : by_id[s.id]) {
      const Span& c = spans_[j];
      if (c.parent == s.name) kids.emplace_back(c.t0, c.t1);
    }
    const std::uint64_t len = s.t1 - s.t0;
    const std::uint64_t self = len - covered(std::move(kids), s.t0, s.t1);
    auto& [selfs, totals] = per_name[s.name];
    selfs.push_back(static_cast<double>(self) / 1e6);
    totals.push_back(static_cast<double>(len) / 1e6);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : per_name) {
    if (!first) out += ", ";
    first = false;
    out += json_str(name) + ": {\"count\": " + std::to_string(v.first.size()) +
           ", \"self_ms_p50\": " + json_num(median(v.first)) +
           ", \"span_ms_p50\": " + json_num(median(v.second)) + "}";
  }
  return out + "}";
}

namespace {

void append_us(std::string& s, std::uint64_t ns) {
  // Same fixed-point microseconds the runtime exporter writes.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  s += buf;
}

}  // namespace

TraceExport write_merged_trace(const std::string& path,
                               const cab::obs::Trace& rt,
                               std::uint64_t epoch_ns, const SpanLog& log,
                               std::size_t max_runtime_events) {
  TraceExport ex;
  ex.runtime_events_total = rt.event_count();

  // Clip the timeline to its earliest max_runtime_events events.
  std::uint64_t cut = UINT64_MAX;  // relative ns; keep events with t0 <= cut
  if (ex.runtime_events_total > max_runtime_events && max_runtime_events > 0) {
    std::vector<std::uint64_t> starts;
    starts.reserve(ex.runtime_events_total);
    for (const auto& w : rt.workers)
      for (const auto& e : w.events) starts.push_back(e.t0);
    std::nth_element(starts.begin(),
                     starts.begin() + static_cast<std::ptrdiff_t>(
                                          max_runtime_events - 1),
                     starts.end());
    cut = starts[max_runtime_events - 1];
  }
  cab::obs::Trace clipped = rt;
  for (auto& w : clipped.workers) {
    std::erase_if(w.events, [&](const cab::obs::TraceEvent& e) {
      return e.t0 > cut;
    });
  }
  ex.runtime_events = clipped.event_count();

  std::ostringstream os;
  cab::obs::write_chrome_trace(clipped, os);
  std::string text = os.str();
  // The exporter ends its traceEvents array with "]}\n"; append the
  // benchmark lanes inside that array.
  const std::size_t close = text.rfind("]}");
  if (close == std::string::npos) {
    ex.error = "unexpected Chrome trace layout";
    return ex;
  }
  text.resize(close);
  const bool empty_array = text.back() == '[';

  const int pid = rt.sockets;  // one lane group past the last squad
  std::map<std::string, int> lanes;
  std::string add;
  auto sep = [&] {
    if (!(empty_array && add.empty())) add += ",\n";
  };
  for (const Span& s : log.spans()) {
    if (!s.exported) continue;
    if (cut != UINT64_MAX && s.t0 > epoch_ns + cut) continue;
    auto [it, fresh] =
        lanes.emplace(s.name, static_cast<int>(lanes.size()));
    if (fresh) {
      sep();
      add += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(it->second) +
             ",\"args\":{\"name\":" + json_str("bench " + s.name) + "}}";
    }
    const std::uint64_t t0 = s.t0 > epoch_ns ? s.t0 - epoch_ns : 0;
    const std::uint64_t t1 = s.t1 > epoch_ns ? s.t1 - epoch_ns : 0;
    sep();
    add += "{\"name\":" + json_str("metric:bench." + s.name) +
           ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(it->second) + ",\"ts\":";
    append_us(add, t0);
    add += ",\"dur\":";
    append_us(add, t1 - t0);
    add += ",\"args\":{\"id\":" + std::to_string(s.id) + "}}";
    ++ex.bench_events;
  }
  if (!lanes.empty()) {
    sep();
    add += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"args\":{\"name\":\"benchmark\"}}";
  }
  text += add;
  text += "]}\n";

  {
    std::ofstream f(path);
    if (!f) {
      ex.error = "cannot write " + path;
      return ex;
    }
    f << text;
    if (!f.good()) {
      ex.error = "short write to " + path;
      return ex;
    }
  }
  try {
    const cab::obs::Trace back = cab::obs::parse_chrome_trace_file(path);
    ex.parsed_events = back.event_count();
  } catch (const std::exception& e) {
    ex.error = std::string("trace does not parse: ") + e.what();
    return ex;
  }
  if (ex.parsed_events != ex.runtime_events) {
    ex.error = "parsed " + std::to_string(ex.parsed_events) +
               " runtime events, wrote " + std::to_string(ex.runtime_events);
    return ex;
  }
  ex.ok = true;
  return ex;
}

}  // namespace perfbench
