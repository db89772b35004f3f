#include "obs/span.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace small::obs {

std::uint64_t wallMicrosNow() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

Span::Span(TraceSink* sink, const char* name, const char* category,
           const std::uint64_t* cost)
    : sink_(sink), name_(name), category_(category), cost_(cost) {
  if (sink_ == nullptr) return;
  startUs_ = wallMicrosNow();
  if (cost_ != nullptr) costStart_ = *cost_;
  depth_ = sink_->depth_++;
}

Span::~Span() {
  if (sink_ == nullptr) return;
  --sink_->depth_;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.tid = sink_->tid();
  event.startUs = startUs_;
  event.durUs = wallMicrosNow() - startUs_;
  event.costUnits = extraCost_ + (cost_ != nullptr ? *cost_ - costStart_ : 0);
  event.depth = depth_;
  sink_->record(std::move(event));
}

void appendChromeSpanEvents(const std::vector<const TraceSink*>& sinks,
                            bool* first, std::string& out) {
  for (const TraceSink* sink : sinks) {
    if (sink == nullptr) continue;
    for (const TraceEvent& event : sink->events()) {
      JsonValue line = JsonValue::makeObject();
      line.set("name", JsonValue::makeString(event.name));
      line.set("cat", JsonValue::makeString(event.category));
      line.set("ph", JsonValue::makeString("X"));
      line.set("ts", JsonValue::makeUint(event.startUs));
      line.set("dur", JsonValue::makeUint(event.durUs));
      line.set("pid", JsonValue::makeInt(1));
      line.set("tid", JsonValue::makeUint(event.tid));
      JsonValue args = JsonValue::makeObject();
      args.set("cost_units", JsonValue::makeUint(event.costUnits));
      args.set("depth", JsonValue::makeUint(event.depth));
      line.set("args", std::move(args));
      if (!*first) out += ",\n";
      *first = false;
      out += line.dump();
    }
  }
}

std::string exportChromeTrace(const std::vector<const TraceSink*>& sinks) {
  std::string out;
  out += "[";
  bool first = true;
  appendChromeSpanEvents(sinks, &first, out);
  out += "]\n";
  return out;
}

}  // namespace small::obs
