#include "obs/registry.hpp"

#include "obs/json.hpp"

namespace small::obs {

Counter Registry::counter(const std::string& name) {
  return Counter(&counters_[name]);
}

Max Registry::max(const std::string& name) {
  return Max(&maxima_[name]);
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(&gauges_[name]);
}

support::Histogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

std::uint64_t Registry::counterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::uint64_t Registry::maxValue(const std::string& name) const {
  const auto it = maxima_.find(name);
  return it != maxima_.end() ? it->second : 0;
}

double Registry::gaugeValue(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

const support::Histogram* Registry::findHistogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.maxima_) {
    std::uint64_t& slot = maxima_[name];
    if (value > slot) slot = value;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] += value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    support::Histogram& slot = histograms_[name];
    for (const auto& [value, count] : hist.buckets()) {
      slot.add(value, count);
    }
  }
}

std::string Registry::exportJsonLines() const {
  std::string out;
  const auto emitScalar = [&out](const char* type, const std::string& name,
                                 JsonValue value) {
    JsonValue line = JsonValue::makeObject();
    line.set("type", JsonValue::makeString(type));
    line.set("name", JsonValue::makeString(name));
    line.set("value", std::move(value));
    out += line.dump();
    out.push_back('\n');
  };
  for (const auto& [name, value] : counters_) {
    emitScalar("counter", name, JsonValue::makeUint(value));
  }
  for (const auto& [name, value] : maxima_) {
    emitScalar("max", name, JsonValue::makeUint(value));
  }
  for (const auto& [name, value] : gauges_) {
    emitScalar("gauge", name, JsonValue::makeDouble(value));
  }
  for (const auto& [name, hist] : histograms_) {
    JsonValue line = JsonValue::makeObject();
    line.set("type", JsonValue::makeString("histogram"));
    line.set("name", JsonValue::makeString(name));
    line.set("total", JsonValue::makeUint(hist.total()));
    JsonValue buckets = JsonValue::makeArray();
    for (const auto& [value, count] : hist.buckets()) {
      JsonValue pair = JsonValue::makeArray();
      pair.append(JsonValue::makeInt(value));
      pair.append(JsonValue::makeUint(count));
      buckets.append(std::move(pair));
    }
    line.set("buckets", std::move(buckets));
    out += line.dump();
    out.push_back('\n');
  }
  return out;
}

}  // namespace small::obs
