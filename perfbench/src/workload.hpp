// The four benchmark workloads behind one interface.
//
// A workload builds its inputs in setup() (timed as setup_s, and repeated
// so the median is steady), then serves ops. Every op does the same work
// and differs only in its seed; it checks its own outputs and reports a
// failure text when a check does not hold.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

/// Work counts read from the public result structs. The deterministic
/// part (sums, maxima, detail) is a pure function of the run seed and
/// the ops counted; `perfSums` holds schedule-dependent counts (lock
/// contention) that are reported but never compared byte for byte.
struct Ledger {
  std::map<std::string, std::uint64_t> sums;
  std::map<std::string, std::uint64_t> maxima;
  std::map<std::string, std::uint64_t> perfSums;
  std::string detail;  ///< one fingerprint line per counted result

  void add(const std::string& key, std::uint64_t value) { sums[key] += value; }
  void max(const std::string& key, std::uint64_t value) {
    std::uint64_t& slot = maxima[key];
    if (value > slot) slot = value;
  }
  void line(const std::string& text) { detail += text + "\n"; }
};

struct OpOutcome {
  std::uint64_t primitives = 0;  ///< trace primitives pushed through
  std::string failure;           ///< empty when every check held
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// (Re)build the inputs; every call builds the same ones.
  virtual void setup() = 0;

  /// setup() calls timed as one block, so that a set-up much shorter than
  /// a clock read is still measured.
  virtual int setupReps() const { return 1; }

  /// Threads an op runs at once.
  virtual int threads() const { return 1; }

  /// One op. `ledger`, when non-null, receives the op's work counts.
  virtual OpOutcome op(std::uint64_t seed, Ledger* ledger) = 0;

  /// Traced-mode passes that run once after the timed loop (a standalone
  /// SMTR decode, a concurrency cross-check). Returns a failure text.
  virtual std::string tracedPasses(std::uint64_t /*seed*/, Ledger& /*ledger*/) {
    return {};
  }
};

/// Null for an unknown name. `workDir` holds any files set-up writes.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::filesystem::path& workDir);

}  // namespace perfbench
