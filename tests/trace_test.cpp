// Tests for the trace model, I/O, preprocessing, and the calibrated
// synthetic generator.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "lisp/interpreter.hpp"
#include "lisp/tracer.hpp"
#include "support/rng.hpp"
#include "trace/io.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "temp_path.hpp"

namespace small::trace {

// gtest's default printer dumps the raw bytes, pointers included, into the
// test names CTest discovers; printing the profile name keeps them stable.
// Defined here rather than in the anonymous namespace so that argument-
// dependent lookup finds it.
void PrintTo(const WorkloadProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

Event primitiveEvent(Primitive p, std::vector<ObjectRecord> args,
                     ObjectRecord result) {
  Event event;
  event.kind = EventKind::kPrimitive;
  event.primitive = p;
  event.args = std::move(args);
  event.result = result;
  return event;
}

ObjectRecord listObject(std::uint64_t fp, std::uint32_t n = 3,
                        std::uint32_t p = 0) {
  ObjectRecord record;
  record.fingerprint = fp;
  record.n = n;
  record.p = p;
  record.isList = true;
  return record;
}

TEST(Trace, PrimitiveNamesRoundtrip) {
  for (std::size_t i = 0; i < kPrimitiveCount; ++i) {
    const auto primitive = static_cast<Primitive>(i);
    const auto parsed = primitiveFromName(primitiveName(primitive));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, primitive);
  }
  EXPECT_FALSE(primitiveFromName("bogus").has_value());
}

TEST(Trace, ContentCountsCallsAndDepth) {
  Trace trace;
  const auto f = trace.internFunction("f");
  const auto g = trace.internFunction("g");
  Event enterF;
  enterF.kind = EventKind::kFunctionEnter;
  enterF.functionId = f;
  enterF.argCount = 2;
  Event enterG = enterF;
  enterG.functionId = g;
  Event exitG;
  exitG.kind = EventKind::kFunctionExit;
  exitG.functionId = g;
  Event exitF = exitG;
  exitF.functionId = f;

  trace.append(enterF);
  trace.append(enterG);
  trace.append(primitiveEvent(Primitive::kCar, {listObject(1)},
                              ObjectRecord{}));
  trace.append(exitG);
  trace.append(exitF);

  const TraceContent content = trace.content();
  EXPECT_EQ(content.functionCalls, 2u);
  EXPECT_EQ(content.primitiveCalls, 1u);
  EXPECT_EQ(content.maxCallDepth, 2u);
}

TEST(Trace, ContentFlagsUnbalancedExits) {
  // Exits at depth 0 (a truncated or corrupted stream) must be counted,
  // not silently clamped away.
  Trace trace;
  const auto f = trace.internFunction("f");
  Event exit;
  exit.kind = EventKind::kFunctionExit;
  exit.functionId = f;
  Event enter;
  enter.kind = EventKind::kFunctionEnter;
  enter.functionId = f;
  enter.argCount = 1;

  trace.append(exit);   // unbalanced: nothing was entered yet
  trace.append(enter);
  trace.append(exit);   // balanced
  trace.append(exit);   // unbalanced again

  const TraceContent content = trace.content();
  EXPECT_EQ(content.functionCalls, 1u);
  EXPECT_EQ(content.unbalancedExits, 2u);
  EXPECT_FALSE(content.balanced());

  // The preprocessed view reports the identical counts.
  const TraceContent preContent = preprocess(trace).content();
  EXPECT_EQ(preContent.functionCalls, content.functionCalls);
  EXPECT_EQ(preContent.maxCallDepth, content.maxCallDepth);
  EXPECT_EQ(preContent.unbalancedExits, 2u);
}

TEST(Trace, BalancedTraceHasNoUnbalancedExits) {
  Trace trace;
  Event enter;
  enter.kind = EventKind::kFunctionEnter;
  enter.functionId = trace.internFunction("g");
  Event exit;
  exit.kind = EventKind::kFunctionExit;
  exit.functionId = enter.functionId;
  trace.append(enter);
  trace.append(primitiveEvent(Primitive::kCons, {listObject(1)},
                              listObject(2)));
  trace.append(exit);
  EXPECT_TRUE(trace.content().balanced());
  EXPECT_TRUE(preprocess(trace).content().balanced());
}

TEST(TraceIo, RoundtripPreservesUnbalancedExitCount) {
  // A malformed trace must stay visibly malformed through save/load.
  Trace trace;
  trace.name = "truncated";
  Event exit;
  exit.kind = EventKind::kFunctionExit;
  exit.functionId = trace.internFunction("h");
  trace.append(exit);
  std::stringstream buffer;
  save(trace, buffer);
  const Trace loaded = load(buffer);
  EXPECT_EQ(loaded.content().unbalancedExits, 1u);
  EXPECT_FALSE(loaded.content().balanced());
}

TEST(TraceIo, SaveLoadRoundtrip) {
  Trace trace;
  trace.name = "unit";
  Event enter;
  enter.kind = EventKind::kFunctionEnter;
  enter.functionId = trace.internFunction("walker");
  enter.argCount = 3;
  trace.append(enter);
  trace.append(primitiveEvent(Primitive::kCons,
                              {listObject(11, 2, 1), listObject(12)},
                              listObject(13, 5, 2)));
  Event exit;
  exit.kind = EventKind::kFunctionExit;
  exit.functionId = 0;
  trace.append(exit);

  std::stringstream buffer;
  save(trace, buffer);
  const Trace loaded = load(buffer);

  EXPECT_EQ(loaded.name, "unit");
  ASSERT_EQ(loaded.events().size(), 3u);
  EXPECT_EQ(loaded.events()[0].kind, EventKind::kFunctionEnter);
  EXPECT_EQ(loaded.events()[0].argCount, 3);
  EXPECT_EQ(loaded.functionName(loaded.events()[0].functionId), "walker");
  const Event& prim = loaded.events()[1];
  EXPECT_EQ(prim.primitive, Primitive::kCons);
  ASSERT_EQ(prim.args.size(), 2u);
  EXPECT_EQ(prim.args[0].fingerprint, 11u);
  EXPECT_EQ(prim.args[0].p, 1u);
  EXPECT_EQ(prim.result.fingerprint, 13u);
  EXPECT_TRUE(prim.result.isList);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream buffer("Z nonsense\n");
  EXPECT_THROW(load(buffer), support::ParseError);
}

namespace {

// What load() says about `text`, or "" if it loads cleanly.
std::string loadError(const std::string& text) {
  std::stringstream in(text);
  try {
    load(in);
  } catch (const support::ParseError& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

TEST(TraceIo, FunctionNamesWithSeparatorsRoundtrip) {
  // Names containing the format's own separators (spaces, tabs) and syntax
  // characters ('#', '%') must survive save/load via percent-encoding.
  const std::vector<std::string> names = {"my func", "weird#name",
                                          "100%scheme", "tab\there",
                                          "a b#c%d"};
  Trace trace;
  trace.name = "escaping";
  for (const std::string& name : names) {
    Event enter;
    enter.kind = EventKind::kFunctionEnter;
    enter.functionId = trace.internFunction(name);
    enter.argCount = 1;
    trace.append(enter);
    Event exit;
    exit.kind = EventKind::kFunctionExit;
    exit.functionId = enter.functionId;
    trace.append(exit);
  }

  std::stringstream buffer;
  save(trace, buffer);
  const Trace loaded = load(buffer);
  ASSERT_EQ(loaded.events().size(), 2 * names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(loaded.functionName(loaded.events()[2 * i].functionId),
              names[i]);
    EXPECT_EQ(loaded.functionName(loaded.events()[2 * i + 1].functionId),
              names[i]);
  }
}

TEST(TraceIo, UnknownTagReportsLineNumber) {
  const std::string error = loadError("E f 1\nQ bogus\n");
  EXPECT_TRUE(contains(error, "line 2")) << error;
  EXPECT_TRUE(contains(error, "unknown record tag")) << error;
}

TEST(TraceIo, UnknownPrimitiveReportsLineNumber) {
  const std::string error = loadError("P frob 1:2:3:1\n");
  EXPECT_TRUE(contains(error, "line 1")) << error;
  EXPECT_TRUE(contains(error, "unknown primitive")) << error;
}

TEST(TraceIo, TruncatedObjectFieldThrows) {
  // Three of four ':'-separated fields.
  const std::string error = loadError("E f 1\n\nP car 1:2:3\n");
  EXPECT_TRUE(contains(error, "line 3")) << error;
  EXPECT_TRUE(contains(error, "truncated object record")) << error;
  // Five fields is just as malformed.
  EXPECT_TRUE(
      contains(loadError("P car 1:2:3:1:9\n"), "malformed object record"));
  // Non-numeric and signed fields are rejected, not coerced.
  EXPECT_TRUE(contains(loadError("P car x:2:3:1\n"), "non-numeric"));
  EXPECT_TRUE(contains(loadError("P car 1:-2:3:1\n"), "non-numeric"));
  EXPECT_TRUE(contains(loadError("P car 1:2:3:7\n"), "out of range"));
  EXPECT_TRUE(contains(loadError("P car\n"), "missing result"));
}

TEST(TraceIo, BadArgCountThrows) {
  const std::string nonNumeric = loadError("E f abc\n");
  EXPECT_TRUE(contains(nonNumeric, "line 1")) << nonNumeric;
  EXPECT_TRUE(contains(nonNumeric, "non-numeric argCount")) << nonNumeric;
  EXPECT_TRUE(contains(loadError("E f -1\n"), "non-numeric argCount"));
  EXPECT_TRUE(contains(loadError("E f 300\n"), "out of range"));
  EXPECT_TRUE(contains(loadError("E f 1 junk\n"), "trailing garbage"));
  EXPECT_TRUE(contains(loadError("E f\n"), "truncated function-enter"));
}

TEST(TraceIo, MalformedFunctionExitThrows) {
  EXPECT_TRUE(contains(loadError("X\n"), "truncated function-exit"));
  EXPECT_TRUE(contains(loadError("X f junk\n"), "trailing garbage"));
  EXPECT_TRUE(contains(loadError("X f%GG\n"), "bad escape"));
  EXPECT_TRUE(contains(loadError("X f%2\n"), "truncated escape"));
}

TEST(TraceIo, FileRoundtrip) {
  Trace trace;
  trace.name = "filetest";
  trace.append(primitiveEvent(Primitive::kCar, {listObject(5, 2, 1)},
                              listObject(6, 1, 0)));
  const std::string path = test::tempPath("roundtrip.txt");
  saveFile(trace, path);
  const Trace loaded = loadFile(path);
  EXPECT_EQ(loaded.name, "filetest");
  ASSERT_EQ(loaded.events().size(), 1u);
  EXPECT_EQ(loaded.events()[0].args[0].fingerprint, 5u);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(loadFile("/nonexistent/dir/trace.txt"), support::Error);
  Trace trace;
  EXPECT_THROW(saveFile(trace, "/nonexistent/dir/trace.txt"),
               support::Error);
}

TEST(Preprocess, AssignsStableUniqueIds) {
  Trace trace;
  trace.append(primitiveEvent(Primitive::kCar, {listObject(100)},
                              listObject(200)));
  trace.append(primitiveEvent(Primitive::kCar, {listObject(100)},
                              listObject(200)));
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_EQ(pre.uniqueListCount, 2u);
  EXPECT_EQ(pre.events[0].args[0].id, pre.events[1].args[0].id);
  EXPECT_EQ(pre.events[0].result.id, pre.events[1].result.id);
  EXPECT_NE(pre.events[0].args[0].id, pre.events[0].result.id);
}

TEST(Preprocess, AtomsGetNoId) {
  ObjectRecord atom;  // isList = false
  Trace trace;
  trace.append(primitiveEvent(Primitive::kCar, {listObject(1)}, atom));
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_EQ(pre.events[0].result.id, kNoObject);
}

TEST(Preprocess, ChainingFlagSetWhenArgIsPreviousResult) {
  Trace trace;
  trace.append(primitiveEvent(Primitive::kCdr, {listObject(1, 4, 0)},
                              listObject(2, 3, 0)));
  trace.append(primitiveEvent(Primitive::kCdr, {listObject(2, 3, 0)},
                              listObject(3, 2, 0)));
  trace.append(primitiveEvent(Primitive::kCdr, {listObject(1, 4, 0)},
                              listObject(2, 3, 0)));
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_FALSE(pre.events[0].args[0].chained);
  EXPECT_TRUE(pre.events[1].args[0].chained);   // arg 2 == previous result
  EXPECT_FALSE(pre.events[2].args[0].chained);  // arg 1 != previous result 3
}

TEST(Preprocess, FunctionEventsDoNotBreakChains) {
  Trace trace;
  trace.append(primitiveEvent(Primitive::kCdr, {listObject(1)},
                              listObject(2)));
  Event enter;
  enter.kind = EventKind::kFunctionEnter;
  enter.functionId = trace.internFunction("f");
  trace.append(enter);
  trace.append(primitiveEvent(Primitive::kCar, {listObject(2)},
                              listObject(4)));
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_TRUE(pre.events[2].args[0].chained);
}

TEST(Preprocess, AtomResultBreaksChain) {
  Trace trace;
  trace.append(primitiveEvent(Primitive::kNull, {listObject(1)},
                              ObjectRecord{}));
  trace.append(primitiveEvent(Primitive::kCar, {listObject(1)},
                              listObject(2)));
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_FALSE(pre.events[1].args[0].chained);
}

// --- synthetic generator calibration ---

class SyntheticTest : public ::testing::TestWithParam<WorkloadProfile> {};

TEST_P(SyntheticTest, LengthMatchesProfile) {
  support::Rng rng(1);
  const WorkloadProfile profile = GetParam();
  const Trace trace = generate(profile, rng);
  EXPECT_EQ(trace.primitiveLength(), profile.primitiveCalls);
  EXPECT_EQ(trace.name, profile.name);
}

TEST_P(SyntheticTest, FunctionEventsBalance) {
  support::Rng rng(2);
  const Trace trace = generate(GetParam(), rng);
  int depth = 0;
  for (const Event& event : trace.events()) {
    if (event.kind == EventKind::kFunctionEnter) ++depth;
    if (event.kind == EventKind::kFunctionExit) --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_P(SyntheticTest, PrimitiveMixNearProfile) {
  support::Rng rng(3);
  const WorkloadProfile profile = GetParam();
  const Trace trace = generate(profile, rng);
  std::uint64_t car = 0, cdr = 0, total = 0;
  for (const Event& event : trace.events()) {
    if (event.kind != EventKind::kPrimitive) continue;
    ++total;
    if (event.primitive == Primitive::kCar) ++car;
    if (event.primitive == Primitive::kCdr) ++cdr;
  }
  const double carFrac = static_cast<double>(car) / total;
  const double cdrFrac = static_cast<double>(cdr) / total;
  EXPECT_NEAR(carFrac, profile.carFrac, 0.05);
  EXPECT_NEAR(cdrFrac, profile.cdrFrac, 0.05);
}

TEST_P(SyntheticTest, MemoizedChildrenShareFingerprints) {
  support::Rng rng(4);
  const Trace trace = generate(GetParam(), rng);
  // car of the same object must yield the same fingerprint each time —
  // until the object is destructively modified (rplaca/rplacd retarget
  // the derivation, so drop mutated objects from the expectation).
  std::unordered_map<std::uint64_t, std::uint64_t> carOf;
  for (const Event& event : trace.events()) {
    if (event.kind != EventKind::kPrimitive) continue;
    if ((event.primitive == Primitive::kRplaca ||
         event.primitive == Primitive::kRplacd) &&
        !event.args.empty() && event.args[0].isList) {
      carOf.erase(event.args[0].fingerprint);
      continue;
    }
    if (event.primitive != Primitive::kCar) continue;
    if (event.args.empty() || !event.args[0].isList) continue;
    if (!event.result.isList) continue;
    const auto [it, inserted] = carOf.try_emplace(
        event.args[0].fingerprint, event.result.fingerprint);
    if (!inserted) {
      EXPECT_EQ(it->second, event.result.fingerprint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SyntheticTest,
    ::testing::Values(slangProfile(0.2), plagenProfile(0.1),
                      lyraProfile(0.02), editorProfile(0.1),
                      pearlProfile(1.0)),
    [](const ::testing::TestParamInfo<WorkloadProfile>& info) {
      return info.param.name;
    });

TEST(Synthetic, DeterministicForFixedSeed) {
  support::Rng rngA(99);
  support::Rng rngB(99);
  const Trace a = generate(slangProfile(0.05), rngA);
  const Trace b = generate(slangProfile(0.05), rngB);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    if (a.events()[i].kind == EventKind::kPrimitive) {
      EXPECT_EQ(a.events()[i].primitive, b.events()[i].primitive);
      EXPECT_EQ(a.events()[i].result.fingerprint,
                b.events()[i].result.fingerprint);
    }
  }
}

TEST(Synthetic, RplacdMutationChangesDerivation) {
  // After (rplacd X Y), cdr of X must be Y.
  support::Rng rng(5);
  const Trace trace = generate(pearlProfile(1.0), rng);
  std::uint64_t pendingTarget = 0;
  std::uint64_t pendingValue = 0;
  bool sawCheck = false;
  for (const Event& event : trace.events()) {
    if (event.kind != EventKind::kPrimitive) continue;
    if (event.primitive == Primitive::kRplacd &&
        event.args.size() == 2 && event.args[1].isList) {
      pendingTarget = event.args[0].fingerprint;
      pendingValue = event.args[1].fingerprint;
    } else if (pendingTarget != 0 && event.primitive == Primitive::kCdr &&
               !event.args.empty() &&
               event.args[0].fingerprint == pendingTarget) {
      EXPECT_EQ(event.result.fingerprint, pendingValue);
      sawCheck = true;
      pendingTarget = 0;
    } else if (event.primitive == Primitive::kRplacd ||
               event.primitive == Primitive::kRplaca ||
               event.primitive == Primitive::kCons) {
      // Another mutation could retarget; stop tracking.
      pendingTarget = 0;
    }
  }
  // The Pearl profile is rplac-heavy, so this path is exercised.
  EXPECT_TRUE(sawCheck);
}

// --- interpreter-to-trace integration ---

TEST(Recorder, InterpreterPrimitivesAreRecorded) {
  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
  lisp::Interpreter interp(arena, symbols);
  Trace trace;
  lisp::TraceRecorder recorder(arena, trace);
  interp.setTracer(&recorder);

  interp.run("(car (cdr '(a b c)))");
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].primitive, Primitive::kCdr);
  EXPECT_EQ(trace.events()[1].primitive, Primitive::kCar);
  // The cdr result (b c) is the car argument: same fingerprint.
  EXPECT_EQ(trace.events()[0].result.fingerprint,
            trace.events()[1].args[0].fingerprint);
  // After preprocessing, that makes the car call chained.
  const PreprocessedTrace pre = preprocess(trace);
  EXPECT_TRUE(pre.events[1].args[0].chained);
}

TEST(Recorder, FunctionEntersAndExitsRecorded) {
  sexpr::SymbolTable symbols;
  sexpr::Arena arena;
  lisp::Interpreter interp(arena, symbols);
  Trace trace;
  lisp::TraceRecorder recorder(arena, trace);
  interp.setTracer(&recorder);

  interp.run("(defun f (x) (car x)) (f '(1 2))");
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kFunctionEnter);
  EXPECT_EQ(trace.events()[0].argCount, 1);
  EXPECT_EQ(trace.events()[1].kind, EventKind::kPrimitive);
  EXPECT_EQ(trace.events()[2].kind, EventKind::kFunctionExit);
}

}  // namespace
}  // namespace small::trace
