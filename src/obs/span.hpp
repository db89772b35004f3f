// Scoped tracing: RAII spans recorded into a TraceSink, exported as
// Chrome trace-event JSON (chrome://tracing / Perfetto "complete" events).
//
// Every span carries two durations:
//   * wall-clock microseconds (steady_clock, rebased to a process epoch) —
//     what the trace viewer's timeline shows;
//   * simulated heap-touch cost units, sampled from an optional monotone
//     cost counter at entry/exit — the deterministic currency the paper's
//     pause accounting uses (gc/gc.hpp). Cost deltas land in the event's
//     `args`, so a Perfetto query can aggregate them per span name.
// Wall-clock values are inherently nondeterministic, which is why spans
// are exported only through `--trace-out`; the byte-identical
// `--metrics-out` path carries cost units alone.
//
// A null sink disables everything: `Span span(nullptr, ...)` compiles to
// two pointer checks, so instrumented hot paths cost nothing until a bench
// actually attaches a sink.
//
// Sinks are single-threaded by design; the parallel sweep discipline is
// one sink per task id (obs::ShardSet), concatenated in id order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace small::obs {

/// Microseconds since the process-wide steady epoch (first use).
std::uint64_t wallMicrosNow();

/// One completed span ("ph":"X" in the Chrome trace format).
struct TraceEvent {
  std::string name;
  std::string category;        ///< "cat" field ("gc", "sweep", "bench", ...)
  std::uint32_t tid = 0;       ///< lane: task id under the sweep harness
  std::uint64_t startUs = 0;   ///< wall-clock start (process epoch)
  std::uint64_t durUs = 0;     ///< wall-clock duration
  std::uint64_t costUnits = 0; ///< heap-touch cost units spent inside
  std::uint32_t depth = 0;     ///< nesting depth at entry (0 = top level)
};

class TraceSink {
 public:
  explicit TraceSink(std::uint32_t tid = 0) : tid_(tid) {}

  void setTid(std::uint32_t tid) { tid_ = tid; }
  std::uint32_t tid() const { return tid_; }

  void record(TraceEvent event) { events_.push_back(std::move(event)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Live nesting depth (maintained by Span).
  std::uint32_t depth() const { return depth_; }

 private:
  friend class Span;
  std::uint32_t tid_;
  std::uint32_t depth_ = 0;
  std::vector<TraceEvent> events_;
};

/// RAII span. No-op when `sink` is null. `cost` optionally points at a
/// monotone counter (e.g. a HeapStats touch total) sampled at entry and
/// exit; pass nullptr for wall-clock-only spans.
class Span {
 public:
  Span(TraceSink* sink, const char* name, const char* category = "span",
       const std::uint64_t* cost = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Add cost units accounted outside the sampled counter.
  void addCost(std::uint64_t units) { extraCost_ += units; }

 private:
  TraceSink* sink_;
  const char* name_;
  const char* category_;
  const std::uint64_t* cost_;
  std::uint64_t startUs_ = 0;
  std::uint64_t costStart_ = 0;
  std::uint64_t extraCost_ = 0;
  std::uint32_t depth_ = 0;
};

/// Render events from one or more sinks (concatenated in the order given)
/// as a Chrome trace-event JSON document: a top-level array of objects
/// with "name", "cat", "ph":"X", "ts", "dur", "pid", "tid" and an "args"
/// object carrying cost units and nesting depth. Loads directly in
/// chrome://tracing and Perfetto.
std::string exportChromeTrace(
    const std::vector<const TraceSink*>& sinks);

/// Append the sinks' span events ("ph":"X") to `out` without the
/// surrounding array, ",\n"-separating from whatever `out` already holds
/// (`*first` tracks that). Lets composite exporters interleave other
/// event phases (obs/timeseries.hpp's counter tracks) in one document.
void appendChromeSpanEvents(const std::vector<const TraceSink*>& sinks,
                            bool* first, std::string& out);

}  // namespace small::obs
