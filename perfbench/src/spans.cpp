#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanLog* gLog = nullptr;

void SpanLog::beginGroup(std::string label) {
  groups_.push_back(std::move(label));
  current_ = -1;
}

std::int32_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.group = static_cast<std::int32_t>(groups_.size()) - 1;
  spans_.push_back(std::move(span));
  current_ = static_cast<std::int32_t>(spans_.size()) - 1;
  // Stamp the start last so the bookkeeping above stays outside the span.
  spans_.back().startNs = nowNs();
  return current_;
}

void SpanLog::close(std::int32_t id) {
  spans_[id].endNs = nowNs();
  current_ = spans_[id].parent;
}

std::map<std::string, double> SpanLog::medianSelfMs() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) childNs[span.parent] += span.endNs - span.startNs;
  }
  // (name, group) -> summed self time.
  std::map<std::string, std::map<std::int32_t, std::int64_t>> perGroup;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    perGroup[span.name][span.group] +=
        span.endNs - span.startNs - childNs[i];
  }
  std::map<std::string, double> out;
  for (const auto& [name, groups] : perGroup) {
    std::vector<double> values;
    for (const auto& [group, ns] : groups) values.push_back(ns / 1e6);
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    out[name] = n % 2 == 1 ? values[n / 2]
                           : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  }
  return out;
}

std::map<std::string, double> SpanLog::workRate() const {
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> sums;
  for (const Span& span : spans_) {
    if (span.work == 0) continue;
    auto& [work, ns] = sums[span.name];
    work += span.work;
    ns += span.endNs - span.startNs;
  }
  std::map<std::string, double> out;
  for (const auto& [name, sum] : sums) {
    if (sum.second > 0) out[name] = sum.first / (sum.second / 1e9);
  }
  return out;
}

std::string SpanLog::chromeJson() const {
  std::string out = "[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string& name = span.name;
    const std::string category = name.substr(0, name.find('.'));
    const std::int64_t start = span.startNs - epochNs_;
    const std::int64_t dur = span.endNs - span.startNs;
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":\"%s\","
                  "\"start_ns\":%lld,\"dur_ns\":%lld,\"work\":%llu}}",
                  i == 0 ? "" : ",\n", name.c_str(), category.c_str(),
                  static_cast<long long>(start / 1000),
                  static_cast<long long>(dur / 1000), i, span.parent,
                  groups_[span.group].c_str(),
                  static_cast<long long>(start),
                  static_cast<long long>(dur),
                  static_cast<unsigned long long>(span.work));
    out += line;
  }
  out += "\n]\n";
  return out;
}

}  // namespace perfbench
