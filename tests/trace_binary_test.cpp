// Tests for the SMTR binary trace format: lossless mirroring of the text
// format (including every escaping edge case the text loader accepts),
// the mmap-backed batched decoder, the format-sniffing file API, and
// strict rejection of every class of malformed input — each corruption
// must surface as a clean support::Error (no crash or UB; the suite runs
// under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "temp_path.hpp"

namespace small::trace {
namespace {

using small::test::tempPath;

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

void expectTracesEqual(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.functionCount(), b.functionCount());
  for (std::size_t id = 0; id < a.functionCount(); ++id) {
    EXPECT_EQ(a.functionName(static_cast<std::uint32_t>(id)),
              b.functionName(static_cast<std::uint32_t>(id)));
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const Event& ea = a.events()[i];
    const Event& eb = b.events()[i];
    ASSERT_EQ(ea.kind, eb.kind) << "event " << i;
    if (ea.kind == EventKind::kPrimitive) {
      EXPECT_EQ(ea.primitive, eb.primitive) << "event " << i;
      ASSERT_EQ(ea.args.size(), eb.args.size()) << "event " << i;
      for (std::size_t j = 0; j < ea.args.size(); ++j) {
        EXPECT_EQ(ea.args[j].fingerprint, eb.args[j].fingerprint);
        EXPECT_EQ(ea.args[j].n, eb.args[j].n);
        EXPECT_EQ(ea.args[j].p, eb.args[j].p);
        EXPECT_EQ(ea.args[j].isList, eb.args[j].isList);
      }
      EXPECT_EQ(ea.result.fingerprint, eb.result.fingerprint);
      EXPECT_EQ(ea.result.n, eb.result.n);
      EXPECT_EQ(ea.result.p, eb.result.p);
      EXPECT_EQ(ea.result.isList, eb.result.isList);
    } else {
      EXPECT_EQ(ea.functionId, eb.functionId) << "event " << i;
      EXPECT_EQ(ea.argCount, eb.argCount) << "event " << i;
    }
  }
}

/// A trace exercising every record kind, multi-arg primitives, atoms,
/// and large varint-spanning field values.
Trace sampleTrace() {
  Trace trace;
  trace.name = "binary-sample";
  Event enter;
  enter.kind = EventKind::kFunctionEnter;
  enter.functionId = trace.internFunction("walker");
  enter.argCount = 3;
  trace.append(enter);
  trace.append(primitiveEvent(Primitive::kCons,
                              {listObject(11, 2, 1), listObject(12)},
                              listObject(13, 5, 2)));
  ObjectRecord atom;  // isList = false
  trace.append(primitiveEvent(Primitive::kNull, {listObject(13)}, atom));
  trace.append(primitiveEvent(
      Primitive::kRead, {},
      listObject(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFu, 0xFFFFFFFFu)));
  Event exit;
  exit.kind = EventKind::kFunctionExit;
  exit.functionId = 0;
  trace.append(exit);
  return trace;
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// What MappedTrace::open + toTrace say about the bytes, or "" if clean.
std::string binaryError(const std::string& stem, const std::string& bytes) {
  const std::string path = tempPath(stem + ".trace");
  writeBytes(path, bytes);
  std::string message;
  try {
    const Trace loaded = MappedTrace::open(path).toTrace();
    (void)loaded;
  } catch (const support::Error& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- lossless mirroring ---

TEST(BinaryTrace, RoundTripPreservesEverything) {
  const Trace trace = sampleTrace();
  const std::string path = tempPath("roundtrip.trace");
  saveBinaryFile(trace, path);
  const MappedTrace mapped = MappedTrace::open(path);
  EXPECT_EQ(mapped.version(), kBinaryTraceVersion);
  EXPECT_EQ(mapped.traceName(), "binary-sample");
  EXPECT_EQ(mapped.recordCount(), trace.events().size());
  expectTracesEqual(trace, mapped.toTrace());
  std::remove(path.c_str());
}

TEST(BinaryTrace, MatchesTextRoundTripOnSyntheticWorkload) {
  support::Rng rng(7);
  const Trace trace = generate(slangProfile(0.05), rng);
  const std::string binPath = tempPath("synthetic.trace");
  saveBinaryFile(trace, binPath);
  std::stringstream text;
  save(trace, text);
  const Trace viaText = load(text);
  const Trace viaBinary = MappedTrace::open(binPath).toTrace();
  expectTracesEqual(viaText, viaBinary);
  std::remove(binPath.c_str());
}

TEST(BinaryTrace, EscapedNamesRoundTrip) {
  // The text format percent-escapes these; the binary format is
  // length-prefixed and must carry them verbatim — including control
  // bytes and names that look like record syntax.
  const std::vector<std::string> names = {
      "my func", "weird#name", "100%scheme", "tab\there",
      std::string("ctrl\x01\x02\x7f"), "new\nline", "a b#c%d"};
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
  const std::string path = tempPath("escaped.trace");
  saveBinaryFile(trace, path);
  const Trace loaded = MappedTrace::open(path).toTrace();
  expectTracesEqual(trace, loaded);
  // And the text format agrees after a binary->text cycle (whitespace
  // and syntax characters travel %XX-escaped, other bytes raw).
  std::stringstream text;
  save(loaded, text);
  const Trace viaText = load(text);
  expectTracesEqual(trace, viaText);
  std::remove(path.c_str());
}

TEST(BinaryTrace, ZeroLengthTraceRoundTrips) {
  Trace trace;
  trace.name = "empty-but-named";
  const std::string path = tempPath("zerolen.trace");
  saveBinaryFile(trace, path);
  const MappedTrace mapped = MappedTrace::open(path);
  EXPECT_EQ(mapped.recordCount(), 0u);
  const Trace loaded = mapped.toTrace();
  EXPECT_EQ(loaded.name, "empty-but-named");
  EXPECT_TRUE(loaded.events().empty());
  std::remove(path.c_str());
}

TEST(BinaryTrace, AbsentNameHeaderRoundTrips) {
  // A text trace without a `# name` header loads with an empty name;
  // the binary mirror must preserve that, not invent one.
  std::stringstream text("E f 1\nX f\n");
  const Trace trace = load(text);
  EXPECT_TRUE(trace.name.empty());
  const std::string path = tempPath("noname.trace");
  saveBinaryFile(trace, path);
  const Trace loaded = MappedTrace::open(path).toTrace();
  EXPECT_TRUE(loaded.name.empty());
  expectTracesEqual(trace, loaded);
  std::remove(path.c_str());
}

// --- batched decoding ---

TEST(BinaryTrace, BatchedDecodeMatchesToTraceAtEveryBatchSize) {
  support::Rng rng(9);
  const Trace trace = generate(plagenProfile(0.02), rng);
  const std::string path = tempPath("batched.trace");
  saveBinaryFile(trace, path);
  const MappedTrace mapped = MappedTrace::open(path);
  const Trace whole = mapped.toTrace();
  for (const std::size_t batchSize : {std::size_t{1}, std::size_t{3},
                                      std::size_t{1024}}) {
    BinaryDecoder decoder(mapped);
    std::vector<Event> batch(batchSize);
    std::size_t next = 0;
    for (std::size_t k = decoder.decodeBatch(batch); k != 0;
         k = decoder.decodeBatch(batch)) {
      for (std::size_t i = 0; i < k; ++i, ++next) {
        ASSERT_LT(next, whole.events().size());
        const Event& expected = whole.events()[next];
        const Event& got = batch[i];
        ASSERT_EQ(got.kind, expected.kind);
        if (got.kind == EventKind::kPrimitive) {
          EXPECT_EQ(got.primitive, expected.primitive);
          EXPECT_EQ(got.result.fingerprint, expected.result.fingerprint);
          ASSERT_EQ(got.args.size(), expected.args.size());
        } else {
          EXPECT_EQ(got.functionId, expected.functionId);
          EXPECT_EQ(got.argCount, expected.argCount);
        }
      }
    }
    EXPECT_TRUE(decoder.done());
    EXPECT_EQ(next, whole.events().size());
  }
  std::remove(path.c_str());
}

TEST(BinaryTrace, PreprocessMappedMatchesPreprocess) {
  support::Rng rng(11);
  const Trace trace = generate(editorProfile(0.05), rng);
  const std::string path = tempPath("preprocess.trace");
  saveBinaryFile(trace, path);
  const MappedTrace mapped = MappedTrace::open(path);
  const PreprocessedTrace expected = preprocess(trace);
  const PreprocessedTrace streamed = preprocessMapped(mapped);
  EXPECT_EQ(streamed.name, expected.name);
  EXPECT_EQ(streamed.uniqueListCount, expected.uniqueListCount);
  EXPECT_EQ(streamed.primitiveCount, expected.primitiveCount);
  ASSERT_EQ(streamed.events.size(), expected.events.size());
  for (std::size_t i = 0; i < expected.events.size(); ++i) {
    const PreprocessedEvent& a = expected.events[i];
    const PreprocessedEvent& b = streamed.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.result.id, b.result.id);
    EXPECT_EQ(a.result.chained, b.result.chained);
    ASSERT_EQ(a.args.size(), b.args.size());
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].id, b.args[j].id);
      EXPECT_EQ(a.args[j].chained, b.args[j].chained);
      EXPECT_EQ(a.args[j].n, b.args[j].n);
      EXPECT_EQ(a.args[j].p, b.args[j].p);
    }
  }
  std::remove(path.c_str());
}

// --- file API dispatch ---

TEST(BinaryTrace, LoadFileSniffsBinary) {
  const Trace trace = sampleTrace();
  const std::string path = tempPath("sniff.trace");
  saveFile(trace, path, FileFormat::kBinary);
  EXPECT_EQ(sniffFileFormat(path), FileFormat::kBinary);
  expectTracesEqual(trace, loadFile(path));
  saveFile(trace, path, FileFormat::kText);
  EXPECT_EQ(sniffFileFormat(path), FileFormat::kText);
  expectTracesEqual(trace, loadFile(path));
  std::remove(path.c_str());
}

TEST(BinaryTrace, EmptyFileIsADistinctError) {
  const std::string path = tempPath("emptyfile.trace");
  writeBytes(path, "");
  try {
    loadFile(path);
    FAIL() << "empty file must not load as an empty trace";
  } catch (const support::Error& e) {
    EXPECT_TRUE(contains(e.what(), "empty trace file")) << e.what();
    EXPECT_TRUE(contains(e.what(), path)) << e.what();
  }
  std::remove(path.c_str());
}

TEST(BinaryTrace, TextParseErrorsCarryThePath) {
  const std::string path = tempPath("badtext.trace");
  writeBytes(path, "E f 1\nQ bogus\n");
  try {
    loadFile(path);
    FAIL() << "malformed text must throw";
  } catch (const support::ParseError& e) {
    EXPECT_TRUE(contains(e.what(), path)) << e.what();
    EXPECT_TRUE(contains(e.what(), "line 2")) << e.what();
  }
  std::remove(path.c_str());
}

TEST(BinaryTrace, SaveFileReportsUnwritablePath) {
  const Trace trace = sampleTrace();
  try {
    saveFile(trace, "/nonexistent/dir/trace.smtr", FileFormat::kBinary);
    FAIL() << "unwritable path must throw";
  } catch (const support::Error& e) {
    EXPECT_TRUE(contains(e.what(), "/nonexistent/dir/trace.smtr"))
        << e.what();
  }
}

// --- robustness: every corruption is a clean support::Error ---

TEST(BinaryRobustness, TruncatedHeader) {
  EXPECT_TRUE(contains(binaryError("trunc1", "SM"), "truncated header"));
  EXPECT_TRUE(
      contains(binaryError("trunc2", "SMTR\x01"), "truncated header"));
  // Magic+version present but the name length varint is missing.
  EXPECT_TRUE(contains(
      binaryError("trunc3", std::string("SMTR\x01\x00\x00\x00", 8)),
      "truncated trace name"));
}

TEST(BinaryRobustness, BadMagic) {
  const std::string error = binaryError("magic", "NOPEnope");
  EXPECT_TRUE(contains(error, "bad magic")) << error;
  EXPECT_TRUE(contains(error, "offset 0")) << error;
}

TEST(BinaryRobustness, UnsupportedVersion) {
  std::string bytes("SMTR", 4);
  bytes += '\x63';  // version 99 LE
  bytes += std::string(3, '\x00');
  bytes += '\x00';  // name length 0
  bytes += '\x00';  // function count 0
  bytes += '\x00';  // record count 0
  const std::string error = binaryError("version", bytes);
  EXPECT_TRUE(contains(error, "unsupported version 99")) << error;
}

TEST(BinaryRobustness, VarintOverrun) {
  std::string bytes("SMTR", 4);
  bytes += '\x01';
  bytes += std::string(3, '\x00');
  bytes += std::string(11, '\xFF');  // name length: endless continuations
  const std::string error = binaryError("varint", bytes);
  EXPECT_TRUE(contains(error, "varint overrun")) << error;
}

TEST(BinaryRobustness, NameTableIndexOutOfRange) {
  // Valid header with one function, then an enter record naming id 5.
  std::string bytes("SMTR", 4);
  bytes += '\x01';
  bytes += std::string(3, '\x00');
  bytes += '\x00';        // trace name: empty
  bytes += '\x01';        // function count 1
  bytes += '\x01';        // name length 1
  bytes += 'f';
  bytes += '\x01';        // record count 1
  bytes += '\x01';        // tag: kind 1 (enter)
  bytes += '\x05';        // functionId 5 — out of range
  bytes += '\x00';        // argCount 0
  const std::string error = binaryError("nameidx", bytes);
  EXPECT_TRUE(contains(error, "function name index 5 out of range"))
      << error;
}

TEST(BinaryRobustness, CorruptedValidFileVariants) {
  const Trace trace = sampleTrace();
  const std::string path = tempPath("mutate.trace");
  saveBinaryFile(trace, path);
  const std::string good = fileBytes(path);
  std::remove(path.c_str());

  // Truncation at every prefix length must throw, never crash. (The
  // 4-to-7-byte prefixes die on the version read, earlier ones on the
  // magic, later ones inside the name table or the record stream.)
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    if (cut == 0) continue;  // zero bytes => distinct empty-file error
    const std::string error =
        binaryError("cut", good.substr(0, cut));
    EXPECT_FALSE(error.empty()) << "prefix of " << cut << " bytes loaded";
    EXPECT_TRUE(contains(error, "offset")) << error;
  }

  // Trailing garbage after a well-formed stream.
  EXPECT_TRUE(contains(binaryError("trailing", good + "zzz"),
                       "trailing bytes"));

  // A record count larger than the stream.
  std::string inflated = good;
  // The record count varint precedes the first record; find it by
  // re-encoding: sampleTrace has 5 events, encoded as a single byte 0x05.
  const std::size_t pos = inflated.find('\x05', 8);
  ASSERT_NE(pos, std::string::npos);
  inflated[pos] = '\x7F';  // claim 127 records
  EXPECT_TRUE(contains(binaryError("inflated", inflated), "truncated") ||
              contains(binaryError("inflated", inflated),
                       "exceeds remaining"));
}

TEST(BinaryRobustness, MalformedRecordFields) {
  // Shared valid header: no name, one function "f", one record.
  const std::string header = [] {
    std::string bytes("SMTR", 4);
    bytes += '\x01';
    bytes += std::string(3, '\x00');
    bytes += '\x00';
    bytes += '\x01';
    bytes += '\x01';
    bytes += 'f';
    bytes += '\x01';
    return bytes;
  }();

  // Unknown primitive id (bits 2-7 = 40).
  EXPECT_TRUE(contains(
      binaryError("badprim", header + static_cast<char>(40 << 2)),
      "unknown primitive id"));
  // Record kind 3.
  EXPECT_TRUE(contains(binaryError("badkind", header + '\x03'),
                       "unknown record kind"));
  // Nonzero primitive bits on a function record.
  EXPECT_TRUE(contains(
      binaryError("badtag",
                  header + static_cast<char>((1 << 2) | 1) + '\x00' +
                      '\x00'),
      "malformed tag byte"));
  // Enter record with argCount 300.
  std::string bigArgs = header;
  bigArgs += '\x01';  // enter
  bigArgs += '\x00';  // functionId 0
  bigArgs += '\xAC';  // varint 300
  bigArgs += '\x02';
  EXPECT_TRUE(contains(binaryError("bigargs", bigArgs),
                       "argCount 300 out of range"));
  // Primitive whose declared argument count exceeds the file.
  std::string hugeArgs = header;
  hugeArgs += '\x00';  // tag: primitive kCar
  hugeArgs += '\x7F';  // 127 args declared, nothing follows
  EXPECT_TRUE(contains(binaryError("hugeargs", hugeArgs),
                       "exceeds remaining file bytes"));
}

// --- mmap vs read-fallback backing parity ---
//
// MappedTrace::open has two backings (mmap by default, plain buffered
// read as the fallback / explicit kBuffered choice). The format contract
// is that the choice of backing is invisible: same trace, same errors,
// byte-for-byte — including the two historical divergences, zero-length
// files (mmap would EINVAL on Linux) and files truncated to exactly the
// header.

/// Error messages from opening the same bytes through both backings
/// (same path, so the messages can be compared byte-for-byte).
std::pair<std::string, std::string> bothBackingErrors(
    const char* stem, const std::string& bytes) {
  const std::string path = tempPath(std::string(stem) + ".trace");
  writeBytes(path, bytes);
  const auto attempt = [&](MappedTrace::Backing backing) {
    std::string message;
    try {
      const Trace loaded = MappedTrace::open(path, backing).toTrace();
      (void)loaded;
    } catch (const support::Error& e) {
      message = e.what();
    }
    return message;
  };
  std::pair<std::string, std::string> errors{
      attempt(MappedTrace::Backing::kDefault),
      attempt(MappedTrace::Backing::kBuffered)};
  std::remove(path.c_str());
  return errors;
}

TEST(BackingParity, BufferedBackingDecodesIdentically) {
  const Trace trace = sampleTrace();
  const std::string path = tempPath("buffered.trace");
  saveBinaryFile(trace, path);
  const MappedTrace buffered =
      MappedTrace::open(path, MappedTrace::Backing::kBuffered);
  EXPECT_FALSE(buffered.isMapped());
  expectTracesEqual(trace, buffered.toTrace());
  expectTracesEqual(trace, MappedTrace::open(path).toTrace());
  std::remove(path.c_str());
}

TEST(BackingParity, ZeroLengthFileSameErrorBothBackings) {
  // mmap(2) of a zero-length file fails with EINVAL on Linux; the empty
  // file must be caught before the map and reported identically to the
  // read fallback.
  const auto [viaMmap, viaRead] = bothBackingErrors("parity_empty", "");
  EXPECT_FALSE(viaMmap.empty());
  EXPECT_EQ(viaMmap, viaRead);
  EXPECT_TRUE(contains(viaMmap, "empty trace file")) << viaMmap;
}

TEST(BackingParity, HeaderOnlyTruncationSameErrorBothBackings) {
  // A file cut to exactly the header: valid magic/version/name/table and
  // a record count promising one record, with zero record bytes behind
  // it. Both backings must fail the record-count bound check with the
  // same message (and not, say, diverge into a short-read error).
  std::string headerOnly("SMTR", 4);
  headerOnly += '\x01';
  headerOnly += std::string(3, '\x00');
  headerOnly += '\x00';  // trace name: empty
  headerOnly += '\x01';  // function count 1
  headerOnly += '\x01';  // name length 1
  headerOnly += 'f';
  headerOnly += '\x01';  // record count 1 — but the file ends here
  const auto [viaMmap, viaRead] =
      bothBackingErrors("parity_header", headerOnly);
  EXPECT_FALSE(viaMmap.empty());
  EXPECT_EQ(viaMmap, viaRead);
  EXPECT_TRUE(contains(viaMmap, "exceeds remaining file bytes"))
      << viaMmap;
}

TEST(BackingParity, EveryTruncationPrefixAgreesAcrossBackings) {
  const Trace trace = sampleTrace();
  const std::string path = tempPath("parity_prefix.trace");
  saveBinaryFile(trace, path);
  const std::string good = fileBytes(path);
  std::remove(path.c_str());
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const auto [viaMmap, viaRead] =
        bothBackingErrors("parity_cut", good.substr(0, cut));
    EXPECT_FALSE(viaMmap.empty()) << "prefix of " << cut << " bytes loaded";
    EXPECT_EQ(viaMmap, viaRead) << "backings diverge at prefix " << cut;
  }
}

TEST(BinaryRobustness, ErrorsNameTheFileAndOffset) {
  const std::string path = tempPath("context.trace");
  writeBytes(path, "SMTRxxxx");
  try {
    MappedTrace::open(path);
    FAIL() << "unsupported version must throw";
  } catch (const support::Error& e) {
    EXPECT_TRUE(contains(e.what(), path)) << e.what();
    EXPECT_TRUE(contains(e.what(), "offset")) << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace small::trace
