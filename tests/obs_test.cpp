// Tests for the obs subsystem: JSON round-trips, registry merge
// associativity (the determinism contract's foundation), span nesting,
// Chrome trace export fields, and the sweep shard discipline.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/contrib.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/sweep.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace small;

TEST(ObsJson, IntegerRoundTrip) {
  obs::JsonValue value;
  obs::JsonError error;
  ASSERT_TRUE(obs::parseJson("{\"a\":18446744073709551615,\"b\":-42}",
                             &value, &error))
      << error.message;
  // 2^64-1 does not fit int64; the parser falls back to double for it,
  // but anything in int64 range must stay integral.
  const obs::JsonValue* b = value.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->isInt());
  EXPECT_EQ(b->intValue(), -42);
}

TEST(ObsJson, DumpParsesBack) {
  obs::JsonValue object = obs::JsonValue::makeObject();
  object.set("name", obs::JsonValue::makeString("a \"quoted\"\nname"));
  object.set("value", obs::JsonValue::makeUint(123456789));
  object.set("ratio", obs::JsonValue::makeDouble(0.1));
  obs::JsonValue array = obs::JsonValue::makeArray();
  array.append(obs::JsonValue::makeInt(-1));
  array.append(obs::JsonValue::makeBool(true));
  array.append(obs::JsonValue());
  object.set("items", array);

  obs::JsonValue parsed;
  obs::JsonError error;
  ASSERT_TRUE(obs::parseJson(object.dump(), &parsed, &error))
      << error.message;
  EXPECT_EQ(parsed.dump(), object.dump());
  EXPECT_EQ(parsed.find("name")->stringValue(), "a \"quoted\"\nname");
  EXPECT_DOUBLE_EQ(parsed.find("ratio")->numberValue(), 0.1);
}

TEST(ObsJson, TrailingGarbageRejected) {
  obs::JsonValue value;
  obs::JsonError error;
  EXPECT_FALSE(obs::parseJson("{\"a\":1} trailing", &value, &error));
  EXPECT_FALSE(obs::parseJson("[1,2,]", &value, &error));
  EXPECT_FALSE(obs::parseJson("", &value, &error));
}

obs::Registry makeRegistry(std::uint64_t base) {
  obs::Registry r;
  r.add("shared.counter", base);
  r.add("only." + std::to_string(base), 1);
  r.recordMax("shared.max", base * 3);
  r.gauge("shared.gauge").add(static_cast<double>(base) / 4.0);
  r.histogram("shared.hist").add(base, 2);
  return r;
}

TEST(ObsRegistry, MergeIsAssociative) {
  const obs::Registry a = makeRegistry(1);
  const obs::Registry b = makeRegistry(10);
  const obs::Registry c = makeRegistry(100);

  // (a + b) + c
  obs::Registry left;
  left.merge(a);
  left.merge(b);
  obs::Registry leftTotal;
  leftTotal.merge(left);
  leftTotal.merge(c);

  // a + (b + c)
  obs::Registry right;
  right.merge(b);
  right.merge(c);
  obs::Registry rightTotal;
  rightTotal.merge(a);
  rightTotal.merge(right);

  EXPECT_EQ(leftTotal.exportJsonLines(), rightTotal.exportJsonLines());
  EXPECT_EQ(leftTotal.counterValue("shared.counter"), 111u);
  EXPECT_EQ(leftTotal.maxValue("shared.max"), 300u);
  EXPECT_DOUBLE_EQ(leftTotal.gaugeValue("shared.gauge"), 111.0 / 4.0);
}

TEST(ObsRegistry, MergeOrderInvariant) {
  obs::Registry forward;
  obs::Registry backward;
  for (int i = 0; i < 6; ++i) forward.merge(makeRegistry(1ull << i));
  for (int i = 5; i >= 0; --i) backward.merge(makeRegistry(1ull << i));
  EXPECT_EQ(forward.exportJsonLines(), backward.exportJsonLines());
}

TEST(ObsRegistry, HistogramJsonRoundTrip) {
  obs::Registry registry;
  support::Histogram& hist = registry.histogram("pause.units");
  hist.add(3, 5);
  hist.add(17, 1);
  hist.add(3, 2);

  // Find the histogram line in the export and parse it back.
  const std::string lines = registry.exportJsonLines();
  std::string histLine;
  for (std::size_t pos = 0; pos < lines.size();) {
    const std::size_t end = lines.find('\n', pos);
    const std::string line = lines.substr(pos, end - pos);
    if (line.find("\"histogram\"") != std::string::npos) histLine = line;
    pos = end == std::string::npos ? lines.size() : end + 1;
  }
  ASSERT_FALSE(histLine.empty());

  obs::JsonValue value;
  obs::JsonError error;
  ASSERT_TRUE(obs::parseJson(histLine, &value, &error)) << error.message;
  EXPECT_EQ(value.find("name")->stringValue(), "pause.units");
  EXPECT_EQ(value.find("total")->intValue(), 8);

  support::Histogram rebuilt;
  for (const obs::JsonValue& bucket : value.find("buckets")->items()) {
    ASSERT_EQ(bucket.items().size(), 2u);
    rebuilt.add(static_cast<std::uint64_t>(bucket.items()[0].intValue()),
                static_cast<std::uint64_t>(bucket.items()[1].intValue()));
  }
  EXPECT_EQ(rebuilt.buckets(), hist.buckets());
}

// Regression: default-constructed (unbound) handles used to dereference
// their null slot on the first add/record. They must no-op like the null
// TraceSink fast path, so instrumented code can hold handles
// unconditionally and only bind them when obs is enabled.
TEST(ObsRegistry, UnboundHandlesNoop) {
  obs::Counter counter;
  obs::Max max;
  obs::Gauge gauge;
  counter.add();
  counter.add(17);
  max.record(42);
  gauge.add(2.5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(max.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(ObsTelemetry, DisabledBufferDropsSamples) {
  obs::TelemetryBuffer buffer;
  buffer.sample("gc.pause", 10, 3.0);
  buffer.samplePerf("svc.rate", 1.0);
  EXPECT_FALSE(buffer.enabled());
  EXPECT_TRUE(buffer.empty());
}

TEST(ObsTelemetry, SameEpochResampleOverwrites) {
  obs::TelemetryBuffer buffer;
  buffer.enable("task/0");
  buffer.sample("gc.pause", 5, 1.0);
  buffer.sample("gc.pause", 5, 2.0);
  buffer.sample("gc.pause", 9, 3.0);
  ASSERT_EQ(buffer.series().size(), 1u);
  const obs::TelemetrySeries& series = buffer.series()[0];
  ASSERT_EQ(series.samples.size(), 2u);
  EXPECT_EQ(series.samples[0].epoch, 5u);
  EXPECT_EQ(series.samples[0].value, 2.0);
  EXPECT_EQ(series.samples[1].epoch, 9u);
}

// Snapshotter sampling epochs are a pure function of the epoch stream:
// aligned to `every`-sized buckets regardless of how often advanceTo is
// called, with finish() always stamping the final state once.
TEST(ObsTelemetry, SnapshotterAlignsToStride) {
  obs::TelemetryBuffer buffer;
  buffer.enable("task/0");
  std::uint64_t counter = 0;
  obs::Snapshotter snap(&buffer, 10);
  snap.watchCounter("gc.live_cells", &counter);
  for (std::uint64_t epoch = 0; epoch < 25; ++epoch) {
    counter = epoch * 2;
    snap.advanceTo(epoch);
  }
  counter = 999;
  snap.finish(24);
  ASSERT_EQ(buffer.series().size(), 1u);
  const obs::TelemetrySeries& series = buffer.series()[0];
  // Sampled at 0, 10, 20 (bucket starts) and once more at finish(24).
  ASSERT_EQ(series.samples.size(), 4u);
  EXPECT_EQ(series.samples[0].epoch, 0u);
  EXPECT_EQ(series.samples[1].epoch, 10u);
  EXPECT_EQ(series.samples[1].value, 20.0);
  EXPECT_EQ(series.samples[2].epoch, 20u);
  EXPECT_EQ(series.samples[3].epoch, 24u);
  EXPECT_EQ(series.samples[3].value, 999.0);
}

TEST(ObsTelemetry, SnapshotterFinishDedupesLastEpoch) {
  obs::TelemetryBuffer buffer;
  buffer.enable("task/0");
  std::uint64_t counter = 7;
  obs::Snapshotter snap(&buffer, 5);
  snap.watchCounter("gc.live_cells", &counter);
  snap.advanceTo(15);
  snap.finish(15);  // already sampled at 15 — no duplicate
  ASSERT_EQ(buffer.series().size(), 1u);
  EXPECT_EQ(buffer.series()[0].samples.size(), 1u);
}

TEST(ObsTelemetry, DocRenderIsDeterministicAndParses) {
  obs::TelemetryBuffer a;
  a.enable("task/0");
  a.sample("gc.pause", 3, 550.0);
  a.sample("gc.pause", 7, 1.5);
  obs::TelemetryBuffer b;
  b.enable("task/1");
  b.sample("lpt.occupancy", 2, 4.0);

  obs::TelemetryDoc doc;
  doc.append(a);
  doc.append(b);
  const std::string text = doc.render("unit_test");
  obs::TelemetryDoc doc2;
  doc2.append(a);
  doc2.append(b);
  EXPECT_EQ(text, doc2.render("unit_test"));

  // Integral values print as integers ("550"), not exponent notation.
  EXPECT_NE(text.find("[3,550]"), std::string::npos) << text;
  EXPECT_NE(text.find("[7,1.5]"), std::string::npos) << text;

  std::istringstream lines(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(lines, line)) {
    ++lineNo;
    obs::JsonValue value;
    obs::JsonError error;
    ASSERT_TRUE(obs::parseJson(line, &value, &error))
        << "line " << lineNo << ": " << error.message;
    if (lineNo == 1) {
      EXPECT_EQ(value.find("type")->stringValue(), "telemetry");
      EXPECT_EQ(value.find("version")->intValue(), obs::kTelemetryVersion);
      EXPECT_EQ(value.find("series")->intValue(), 2);
    } else {
      EXPECT_EQ(value.find("type")->stringValue(), "series");
      EXPECT_EQ(value.find("plane")->stringValue(), "epoch");
    }
  }
  EXPECT_EQ(lineNo, 3u);
}

TEST(ObsTelemetry, ChromeCounterEventsCarryEpochAndValue) {
  obs::TelemetryBuffer buffer;
  buffer.enable("session/0");
  buffer.sample("svc.queue.depth", 512, 7.0);
  obs::TelemetryDoc doc;
  doc.append(buffer);
  std::string out = "[";
  bool first = true;
  obs::appendChromeCounterEvents(doc, &first, out);
  out += "]";
  obs::JsonValue trace;
  obs::JsonError error;
  ASSERT_TRUE(obs::parseJson(out, &trace, &error)) << error.message;
  ASSERT_EQ(trace.items().size(), 1u);
  const obs::JsonValue& event = trace.items()[0];
  EXPECT_EQ(event.find("ph")->stringValue(), "C");
  EXPECT_EQ(event.find("name")->stringValue(),
            "svc.queue.depth [session/0]");
  EXPECT_EQ(event.find("cat")->stringValue(), "telemetry.epoch");
  EXPECT_EQ(event.find("ts")->intValue(), 512);
  EXPECT_EQ(event.find("args")->find("value")->numberValue(), 7.0);
}

TEST(ObsSpan, NullSinkIsNoop) {
  obs::Span span(nullptr, "nothing");
  span.addCost(42);
  // No sink: destructor must not record anywhere (would crash on null).
}

TEST(ObsSpan, NestingDepthsRecorded) {
  obs::TraceSink sink;
  {
    obs::Span outer(&sink, "outer");
    {
      obs::Span inner(&sink, "inner", "cat");
      obs::Span innermost(&sink, "innermost");
    }
    obs::Span sibling(&sink, "sibling");
  }
  // Spans record on destruction: innermost closes first.
  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.events()[0].name, "innermost");
  EXPECT_EQ(sink.events()[0].depth, 2u);
  EXPECT_EQ(sink.events()[1].name, "inner");
  EXPECT_EQ(sink.events()[1].depth, 1u);
  EXPECT_EQ(sink.events()[1].category, "cat");
  EXPECT_EQ(sink.events()[2].name, "sibling");
  EXPECT_EQ(sink.events()[2].depth, 1u);
  EXPECT_EQ(sink.events()[3].name, "outer");
  EXPECT_EQ(sink.events()[3].depth, 0u);
}

TEST(ObsSpan, ChromeExportFieldsParse) {
  obs::TraceSink sink;
  sink.setTid(3);
  {
    obs::Span span(&sink, "work", "sweep");
    span.addCost(9);
  }
  const std::string json = obs::exportChromeTrace({&sink});
  obs::JsonValue value;
  obs::JsonError error;
  ASSERT_TRUE(obs::parseJson(json, &value, &error)) << error.message;
  ASSERT_TRUE(value.isArray());
  ASSERT_EQ(value.items().size(), 1u);
  const obs::JsonValue& event = value.items()[0];
  EXPECT_EQ(event.find("name")->stringValue(), "work");
  EXPECT_EQ(event.find("cat")->stringValue(), "sweep");
  EXPECT_EQ(event.find("ph")->stringValue(), "X");
  EXPECT_TRUE(event.find("ts")->isInt());
  EXPECT_TRUE(event.find("dur")->isInt());
  EXPECT_EQ(event.find("pid")->intValue(), 1);
  EXPECT_EQ(event.find("tid")->intValue(), 3);
  EXPECT_EQ(event.find("args")->find("cost_units")->intValue(), 9);
}

TEST(ObsSweep, DisabledShardsAreNull) {
  obs::ShardSet shards(4, /*enabled=*/false);
  EXPECT_EQ(shards.registryAt(0), nullptr);
  EXPECT_EQ(shards.sinkAt(3), nullptr);
  obs::Registry merged;
  shards.mergeInto(merged);
  EXPECT_TRUE(merged.empty());
}

TEST(ObsSweep, ShardMergeMatchesSerialSum) {
  constexpr std::size_t kTasks = 17;
  obs::ShardSet shards(kTasks, /*enabled=*/true);
  obs::runIndexedObs(kTasks, /*jobs=*/4, shards, [&](std::size_t id) {
    obs::Registry* r = shards.registryAt(id);
    ASSERT_NE(r, nullptr);
    r->add("task.value", id);
    r->recordMax("task.max", id);
  });
  obs::Registry merged;
  shards.mergeInto(merged);
  EXPECT_EQ(merged.counterValue("task.value"), kTasks * (kTasks - 1) / 2);
  EXPECT_EQ(merged.maxValue("task.max"), kTasks - 1);
  // runIndexedObs counts its tasks under the canonical sweep counter.
  EXPECT_EQ(merged.counterValue(obs::names::kSweepTasks), kTasks);
  // One "task" span per task id in the shard's own lane.
  for (std::size_t id = 0; id < kTasks; ++id) {
    ASSERT_NE(shards.sinkAt(id), nullptr);
    EXPECT_EQ(shards.sinkAt(id)->events().size(), 1u);
  }
}

TEST(ObsReport, RenderShapeAndDeterminism) {
  obs::BenchReport report("unit_bench");
  report.setConfig("quick", true);
  report.setConfig("scale", 0.25);
  report.addFigure("fig.knee", std::uint64_t{1234});
  report.addFigure("fig.ratio", 0.75);
  report.registry().add("mem.allocs", 10);

  const std::string rendered = report.render();
  EXPECT_EQ(rendered.find("{\"type\":\"bench_report\",\"version\":1,"
                          "\"bench\":\"unit_bench\","),
            0u);
  EXPECT_NE(rendered.find("{\"type\":\"figure\",\"name\":\"fig.knee\","
                          "\"value\":1234}"),
            std::string::npos);
  EXPECT_NE(rendered.find("{\"type\":\"counter\",\"name\":\"mem.allocs\","
                          "\"value\":10}"),
            std::string::npos);

  // Same inputs — byte-identical output.
  obs::BenchReport again("unit_bench");
  again.setConfig("quick", true);
  again.setConfig("scale", 0.25);
  again.addFigure("fig.knee", std::uint64_t{1234});
  again.addFigure("fig.ratio", 0.75);
  again.registry().add("mem.allocs", 10);
  EXPECT_EQ(again.render(), rendered);
}

TEST(ObsContrib, GcAndLptLandOnSharedNames) {
  core::LptStats lpt;
  lpt.refOps = 100;
  lpt.gets = 40;
  lpt.frees = 30;
  gc::GcStats gcStats;
  gcStats.cellsReclaimed = 25;
  gcStats.barrierOps = 60;
  gcStats.collections = 2;

  obs::Registry fromLpt;
  obs::contributeLptStats(fromLpt, lpt);
  obs::Registry fromGc;
  obs::contributeGcStats(fromGc, gcStats);

  // Both accounting schemes answer under the same mem.* names.
  EXPECT_EQ(fromLpt.counterValue(obs::names::kMemRcOps), 100u);
  EXPECT_EQ(fromGc.counterValue(obs::names::kMemRcOps), 60u);
  EXPECT_EQ(fromLpt.counterValue(obs::names::kMemFrees), 30u);
  EXPECT_EQ(fromGc.counterValue(obs::names::kMemFrees), 25u);
}

}  // namespace
