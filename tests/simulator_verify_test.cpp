// Runs the trace-driven simulator with SMALL_SIM_VERIFY's exhaustive
// invariant checking compiled in (this translation unit is built with the
// flag): after every event, every stack item must reference a live entry,
// the EP-side reference table must agree with the stack, and each entry's
// refcount must equal its field references plus EP references. Any
// violation aborts.
#include <gtest/gtest.h>

#include "small/simulator.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"

namespace small::core {
namespace {

struct VerifyCase {
  const char* name;
  std::uint32_t tableSize;
  bool splitRefCounts;
  ReclaimPolicy reclaim;
};

// gtest's default printer dumps the raw bytes, pointers included, into the
// test names CTest discovers; printing the case name keeps them stable.
void PrintTo(const VerifyCase& c, std::ostream* os) { *os << c.name; }

class VerifiedSim : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(VerifiedSim, InvariantsHoldThroughoutTheRun) {
  const VerifyCase& c = GetParam();
  support::Rng rng(99);
  const auto pre =
      trace::preprocess(trace::generate(trace::slangProfile(0.3), rng));
  SimConfig config;
  config.tableSize = c.tableSize;
  config.splitRefCounts = c.splitRefCounts;
  config.reclaim = c.reclaim;
  config.seed = 11;
  const SimResult result = simulateTrace(config, pre);
  EXPECT_EQ(result.primitivesSimulated, pre.primitiveCount);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VerifiedSim,
    ::testing::Values(
        VerifyCase{"roomy", 4096, false, ReclaimPolicy::kLazy},
        VerifyCase{"tight", 48, false, ReclaimPolicy::kLazy},
        VerifyCase{"recursive", 4096, false, ReclaimPolicy::kRecursive},
        VerifyCase{"splitcounts", 4096, true, ReclaimPolicy::kLazy},
        VerifyCase{"tightsplit", 48, true, ReclaimPolicy::kLazy}),
    [](const ::testing::TestParamInfo<VerifyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace small::core
