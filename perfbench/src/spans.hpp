// Benchmark-side span recorder.
//
// The traced mode times every call the benchmark makes into a layer's
// public functions, from outside the program: each call opens a span
// (name, start, end, parent, op id) in an in-memory log, and the log is
// written out as a Chrome trace-event file when the run ends. A layer's
// self time is its span's duration minus the time its child spans cover.
//
// When no log is active (the untraced mode, and the untraced half of the
// ops in the traced mode) a LayerSpan costs one pointer test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int32_t group = -1;   ///< index into groups(): the op or set-up
    std::uint64_t work = 0;    ///< primitives the call processed, if any
  };

  explicit SpanLog(std::int64_t epochNs) : epochNs_(epochNs) {}

  /// Start a group (one op or one set-up repetition); spans opened until
  /// the next beginGroup share its id.
  void beginGroup(std::string label);

  std::int32_t open(const char* name);
  void close(std::int32_t id);
  void setWork(std::int32_t id, std::uint64_t work) { spans_[id].work = work; }

  /// Per span name: the median, over the groups that called it, of the
  /// group's summed self time, in milliseconds.
  std::map<std::string, double> medianSelfMs() const;
  /// Per span name: summed work divided by summed duration, per second.
  std::map<std::string, double> workRate() const;

  /// Chrome trace-event JSON (ph "X", integer microsecond ts/dur) with the
  /// exact nanosecond times, span id, parent id and group in args.
  std::string chromeJson() const;

 private:
  std::int64_t epochNs_;
  std::vector<Span> spans_;
  std::vector<std::string> groups_;
  std::int32_t current_ = -1;
};

/// The log LayerSpan records into; null while tracing is off.
extern SpanLog* gLog;

/// RAII span around one call into a layer.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name)
      : id_(gLog != nullptr ? gLog->open(name) : -1) {}
  ~LayerSpan() {
    if (id_ >= 0) gLog->close(id_);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  void setWork(std::uint64_t work) {
    if (id_ >= 0) gLog->setWork(id_, work);
  }

 private:
  std::int32_t id_;
};

/// Run `f` inside a span named `name` and return its result.
template <class F>
auto call(const char* name, F&& f) {
  LayerSpan span(name);
  return f();
}

}  // namespace perfbench
