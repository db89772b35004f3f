// Tests for the shared §5.2.1 EP stack model (small/ep_model.hpp), driven
// through a counting adapter so every EP reference is visible.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace small::core
