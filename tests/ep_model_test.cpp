// Tests for the shared §5.2.1 EP stack model (small/ep_model.hpp), driven
// through a counting adapter so every EP reference is visible.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "small/ep_model.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"

namespace small::core {
namespace {

/// EP references per list value, and the next fresh value to hand out.
struct Ledger {
  std::map<int, int> refs;
  int next = 0;

  int fresh() {
    ++refs[++next];
    return next;
  }
};

/// Values are ints: 0 is an atom, k > 0 is list k.
struct CountingOps {
  using Value = int;
  Ledger* ledger;

  static bool isList(int value) { return value != 0; }
  void retain(int value) {
    if (value != 0) ++ledger->refs[value];
  }
  void release(int value) {
    if (value != 0) --ledger->refs[value];
  }
  int readIn(std::uint32_t, std::uint32_t) { return ledger->fresh(); }
  void reread(int& value, std::uint32_t n, std::uint32_t p) {
    release(value);
    value = readIn(n, p);
  }
};

using Model = EpModel<CountingOps>;

trace::PreprocessedEvent primitive(bool chained) {
  trace::PreprocessedEvent event;
  event.kind = trace::EventKind::kPrimitive;
  event.primitive = trace::Primitive::kCar;
  trace::PreprocessedObject arg;
  arg.id = 7;
  arg.chained = chained;
  arg.n = 3;
  event.args.push_back(arg);
  return event;
}

/// Every non-chained pick is a non-local one (below the frame base),
/// re-reads never fire, and results are bound half the time.
EpProbabilities nonLocalProbabilities() {
  EpProbabilities probabilities;
  probabilities.argProb = 0.0;
  probabilities.locProb = 0.0;
  probabilities.bindProb = 0.5;
  probabilities.readProb = 0.0;
  return probabilities;
}

/// Drive `model` into the frame-ownership quirk: the top level pushes an
/// atom then a list temporary, a callee with an empty frame consumes that
/// temporary through a chained primitive, and its atom result is bound.
/// The stack then ends one item below the callee's frame base. Returns
/// false when this seed's draws took another path (a bind where a push
/// was needed, or a local slot in the callee).
bool driveBelowFrameBase(Model& model, Ledger& ledger) {
  model.disposeValue(0);  // empty stack: always pushed
  model.disposeValue(ledger.fresh());
  if (model.stack().size() != 2) return false;
  model.enterFunction(0);
  if (model.stack().size() != 2) return false;  // the callee got locals

  const Model::Operand operand = model.selectOperand(primitive(true));
  // The quirk: the callee's empty frame starts above the caller's
  // temporary, and the chained primitive consumes it anyway.
  EXPECT_TRUE(operand.consumedTemp);
  EXPECT_EQ(operand.index, 1u);
  EXPECT_EQ(model.frames().back().base, 2u);
  model.popTop();
  EXPECT_EQ(ledger.refs[1], 0);  // consuming released the temporary

  model.disposeValue(0);
  return model.stack().size() == 1;  // bound, not pushed
}

TEST(EpModel, EmptyCalleeFrameConsumesItsCallersChainedTemporary) {
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Ledger ledger;
    support::Rng rng(seed);
    Model model(CountingOps{&ledger}, rng, nonLocalProbabilities(), 512);
    if (!driveBelowFrameBase(model, ledger)) continue;
    ++reached;
    EXPECT_LT(model.stack().size(), model.frames().back().base);
    // The callee's exit pops nothing it does not own and leaves the
    // caller's frame intact.
    model.exitFunction();
    EXPECT_EQ(model.frames().size(), 1u);
    EXPECT_EQ(model.stack().size(), 1u);
  }
  EXPECT_GT(reached, 0);
}

TEST(EpModel, PicksBelowTheFrameBaseStayInsideTheLiveStack) {
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Ledger ledger;
    support::Rng rng(seed);
    Model model(CountingOps{&ledger}, rng, nonLocalProbabilities(), 512);
    if (!driveBelowFrameBase(model, ledger)) continue;
    ++reached;
    // Slot 1 still holds the popped list temporary in the vector's
    // storage; the non-local range [0, base) covers it, and it is the
    // only list value there.
    bool consumedTemp = false;
    for (int draw = 0; draw < 32; ++draw) {
      const std::optional<std::size_t> pick =
          model.pickListItem(0, model.frames().back().base);
      EXPECT_FALSE(pick.has_value());
      const std::optional<std::size_t> argument =
          model.selectArgument(primitive(false), &consumedTemp);
      EXPECT_FALSE(argument.has_value());
    }
    const Model::Operand operand = model.selectOperand(primitive(false));
    EXPECT_LT(operand.index, model.stack().size());
    EXPECT_EQ(model.value(operand.index), ledger.next);  // a fresh read-in
  }
  EXPECT_GT(reached, 0);
}

TEST(EpModel, ExitReleasesEveryBindingOfTheFrame) {
  Ledger ledger;
  support::Rng rng(3);
  EpProbabilities probabilities;
  probabilities.bindProb = 0.0;
  Model model(CountingOps{&ledger}, rng, probabilities, 512);
  const int list = ledger.fresh();
  model.disposeValue(list);
  for (int call = 0; call < 50; ++call) {
    model.enterFunction(3);  // arguments bind to the list with p = 0.7
    model.exitFunction();
    EXPECT_EQ(model.stack().size(), 1u);
    EXPECT_EQ(ledger.refs[list], 1);
  }
  model.exitFunction();  // unmatched exit at top level: ignored
  EXPECT_EQ(model.frames().size(), 1u);
  model.unwind();
  EXPECT_TRUE(model.stack().empty());
  EXPECT_EQ(ledger.refs[list], 0);
}

/// Values are ints as in CountingOps, without the ledger. Every third
/// read-in is an atom, and a re-read flips its slot between atom and
/// list, so both the ReadProb re-read and the BindProb bind rewrite list
/// slots as atoms and atom slots as lists.
struct FlippingOps {
  using Value = int;
  int* next;

  static bool isList(int value) { return value != 0; }
  void retain(int) {}
  void release(int) {}
  int readIn(std::uint32_t, std::uint32_t) {
    ++*next;
    return *next % 3 == 0 ? 0 : *next;
  }
  void reread(int& value, std::uint32_t n, std::uint32_t p) {
    value = value == 0 ? readIn(n, p) | 1 : 0;
  }
};

using FlippingModel = EpModel<FlippingOps>;

/// The reservoir scan pickListItem replaced, kept as the oracle: one pass
/// over [lo, hi) clamped to the stack, below(seen) at each list slot.
std::optional<std::size_t> reservoirPick(const FlippingModel& model,
                                         std::size_t lo, std::size_t hi,
                                         support::Rng& rng) {
  hi = std::min(hi, model.stack().size());
  std::optional<std::size_t> chosen;
  std::uint64_t seen = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (!FlippingOps::isList(model.value(i))) continue;
    ++seen;
    if (rng.below(seen) == 0) chosen = i;
  }
  return chosen;
}

/// One pick against the oracle: the same index, and the same draws (the
/// generator's next raw output agrees).
void expectOraclePick(FlippingModel& model, support::Rng& rng,
                      std::size_t lo, std::size_t hi) {
  support::Rng oracleRng = rng;
  const std::optional<std::size_t> expected =
      reservoirPick(model, lo, hi, oracleRng);
  EXPECT_EQ(model.pickListItem(lo, hi), expected)
      << "range [" << lo << ", " << hi << ") of " << model.stack().size();
  EXPECT_EQ(support::Rng(rng)(), oracleRng())
      << "range [" << lo << ", " << hi << ") of " << model.stack().size();
}

TEST(EpModel, IndexedPickMatchesTheReservoirScan) {
  EpProbabilities probabilities;
  probabilities.argProb = 0.3;
  probabilities.locProb = 0.3;
  probabilities.bindProb = 0.4;
  probabilities.readProb = 0.3;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    int next = 0;
    support::Rng rng(seed);
    support::Rng drive(seed + 1000);  // the test's own choices
    FlippingModel model(FlippingOps{&next}, rng, probabilities, 1024);
    std::size_t deepest = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::size_t size = model.stack().size();
      // Grow to a few hundred slots, then drain, then grow again.
      const bool grow = (step / 500) % 2 == 0;
      switch (drive.below(5)) {
        case 0:
          if (grow) model.enterFunction(static_cast<std::uint8_t>(
                        drive.below(40)));
          break;
        case 1:
          if (!grow || size > 400) model.exitFunction();
          break;
        case 2: {
          const auto operand = model.selectOperand(primitive(drive.chance(0.5)));
          if (operand.consumedTemp) model.popTop();
          break;
        }
        case 3:
          model.disposeValue(drive.chance(0.5) ? 0 : ++next);
          break;
        default:
          if (size > 0 && (!grow || size > 400)) model.popTop();
          break;
      }
      ASSERT_TRUE(model.listBitsConsistent()) << "seed " << seed
                                              << " step " << step;
      const std::size_t live = model.stack().size();
      deepest = std::max(deepest, live);
      // Random ranges, some past the top, some empty or inverted.
      for (int pick = 0; pick < 4; ++pick) {
        expectOraclePick(model, rng, drive.below(live + 70),
                         drive.below(live + 70));
      }
      // Ranges that start or end on and next to a word boundary.
      const std::size_t word = 64 * drive.below(live / 64 + 1);
      expectOraclePick(model, rng, word, live);
      expectOraclePick(model, rng, word + 1, word + 63);
      expectOraclePick(model, rng, word == 0 ? 0 : word - 1, word + 65);
      expectOraclePick(model, rng, 0, live);
      expectOraclePick(model, rng, live, live);
    }
    EXPECT_GT(deepest, 256u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace small::core
