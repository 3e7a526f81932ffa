#pragma once

// The benchmark's own spans, recorded around its calls into the program
// (one `op` span per run() or replay; per job `submit`, `queue` and
// `exec` spans sharing the job id), their self times, and their merge
// with the runtime timeline into one Chrome trace.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeline.hpp"

namespace perfbench {

struct Span {
  std::string name;
  /// Name of the enclosing span kind with the same id ("" at the top).
  std::string parent;
  std::uint64_t id = 0;
  std::uint64_t t0 = 0;  ///< steady-clock ns
  std::uint64_t t1 = 0;
  /// False for spans copied from the runtime timeline only so that
  /// self times can subtract them (they are exported as runtime events).
  bool exported = true;
};

class SpanLog {
 public:
  void add(std::string name, std::string parent, std::uint64_t id,
           std::uint64_t t0, std::uint64_t t1, bool exported = true);
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its length minus the part of it covered by
  /// its children (spans with the same id whose parent is its name).
  /// Returns, per exported span name, {count, median self ms, median ms}
  /// as a JSON object.
  std::string self_time_json() const;

 private:
  std::vector<Span> spans_;
};

/// What write_merged_trace produced.
struct TraceExport {
  bool ok = false;
  std::string error;
  std::size_t runtime_events = 0;  ///< kept after clipping
  std::size_t runtime_events_total = 0;
  std::size_t bench_events = 0;
  std::uint64_t parsed_events = 0;  ///< re-read by obs::parse_chrome_trace
};

/// Writes one Chrome trace holding the runtime timeline `rt` (timestamps
/// relative to `epoch_ns`, the steady-clock time the runtime was built)
/// and the exported spans of `log`. Benchmark spans are named
/// `metric:bench.<name>`: the trace parser shared with cab_trace skips
/// `metric:` events, so the file still parses as a runtime trace. When
/// the timeline holds more than `max_runtime_events` events, only the
/// earliest ones (by start time) are kept, and benchmark spans starting
/// after the last kept event are left out too. The written file is read
/// back through obs::parse_chrome_trace before this returns.
TraceExport write_merged_trace(const std::string& path,
                               const cab::obs::Trace& rt,
                               std::uint64_t epoch_ns, const SpanLog& log,
                               std::size_t max_runtime_events);

}  // namespace perfbench
