// The Evaluation Processor model of §5.2.1, shared by the trace-driven
// Simulator (statistical LPT) and the SmallMachine replayer (real heap).
//
// "a stack item is pushed for each argument, which is then randomly bound
//  to something older on the stack. A randomly determined number of
//  locals are then similarly bound."
//
// EpModel owns the control/binding stack and its frames: function enter
// and exit, the choice of each primitive's list argument (the chaining
// flag, else ArgProb/LocProb over the current frame and everything below
// it), ReadProb re-reads, and BindProb disposition of results. What it
// does not know is what a stack value *is*; that is the List Processor
// adapter `Ops`, a template parameter supplying
//
//   using Value = ...;  // a stack slot's content; Value{} is an atom
//   bool isList(const Value&);   // a list value (pickable as an argument)
//   void retain(const Value&);   // the EP took one more reference
//   void release(const Value&);  // the EP dropped one reference
//   Value readIn(std::uint32_t n, std::uint32_t p);
//       // a fresh list of recorded shape (n, p), holding one EP reference
//   void reread(Value& value, std::uint32_t n, std::uint32_t p);
//       // ReadProb fired: the variable bound to `value` was re-read
//
// The calls are direct, not virtual: pickListItem's scan is the hottest
// loop of the Chapter 5 runs.
//
// The model draws from the caller's support::Rng. The Simulator's
// ListProcessor draws from the same stream, and the interleaving of EP
// and LP draws is part of every seeded result.
//
// Frame ownership quirk: a callee entered with no arguments and no
// locals has an empty frame whose base is its caller's stack top, so a
// chained primitive in it consumes the caller's top temporary. If the
// result is then bound rather than pushed, the stack stays below
// frames.back().base until the callee exits. The seeded results depend
// on this, so it is kept; instead every pick clamps its range to the
// live stack, so no pick reads a popped slot.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "small/config.hpp"
#include "support/rng.hpp"
#include "trace/preprocess.hpp"

namespace small::core {

template <typename Ops>
class EpModel {
 public:
  using Value = typename Ops::Value;

  /// A stack slot. Which slots are arguments is the frame's argCount.
  struct Item {
    Value value{};
    bool isTemp = false;  ///< pushed value, consumable by chaining; never
                          ///< true for bindings, whose stack slots must
                          ///< survive until function exit
  };

  struct Frame {
    std::size_t base = 0;       ///< stack index of the first item
    std::uint8_t argCount = 0;  ///< leading items that are arguments
  };

  /// A primitive's list argument: a stack index, and whether it is the
  /// chained top-of-stack temporary (which the primitive consumes: call
  /// popTop() once its value has been used).
  struct Operand {
    std::size_t index = 0;
    bool consumedTemp = false;
  };

  EpModel(Ops ops, support::Rng& rng, const EpProbabilities& probabilities,
          std::size_t topLevelStackBound)
      : ops_(ops),
        rng_(rng),
        probabilities_(probabilities),
        topLevelStackBound_(topLevelStackBound) {
    frames_.push_back(Frame{0, 0});  // top level
  }

  void enterFunction(std::uint8_t argCount) {
    const std::size_t base = stack_.size();
    for (std::uint8_t i = 0; i < argCount; ++i) {
      Item item;
      const std::optional<std::size_t> older = pickListItem(0, base);
      if (older && rng_.chance(0.7)) {
        item.value = stack_[*older].value;
        ops_.retain(item.value);
      }
      stack_.push_back(item);
    }
    const auto locals = static_cast<std::uint32_t>(rng_.below(3));
    for (std::uint32_t i = 0; i < locals; ++i) stack_.push_back(Item{});
    frames_.push_back(Frame{base, argCount});
  }

  /// "a reference count decrementing request is sent to the LP for each
  ///  stack item that represents a name-value binding added during that
  ///  call, and that item is then popped."
  void exitFunction() {
    if (frames_.size() <= 1) return;  // unmatched exit: ignore at top level
    const Frame frame = frames_.back();
    frames_.pop_back();
    while (stack_.size() > frame.base) popTop();
  }

  /// The list argument of a non-read primitive. When no list value is on
  /// the stack the variable must have been read into since program start,
  /// so a fresh object of the event's recorded shape is pushed for it.
  /// With probability ReadProb a non-chained argument was re-read since
  /// its last access.
  Operand selectOperand(const trace::PreprocessedEvent& event) {
    Operand operand;
    std::optional<std::size_t> index =
        selectArgument(event, &operand.consumedTemp);
    const std::uint32_t n = event.args.empty() ? 1 : event.args[0].n;
    const std::uint32_t p = event.args.empty() ? 0 : event.args[0].p;
    if (!index) {
      stack_.push_back(Item{ops_.readIn(n, p)});
      index = stack_.size() - 1;
    }
    if (!operand.consumedTemp && rng_.chance(probabilities_.readProb)) {
      ops_.reread(stack_[*index].value, n, p);
    }
    operand.index = *index;
    return operand;
  }

  /// Index of the stack item chosen as this primitive's list argument, or
  /// nullopt if none holds a list. `consumedTemp` is set when the chained
  /// top-of-stack temporary was taken.
  std::optional<std::size_t> selectArgument(
      const trace::PreprocessedEvent& event, bool* consumedTemp) {
    *consumedTemp = false;

    bool chained = false;
    for (const trace::PreprocessedObject& arg : event.args) {
      if (arg.id != trace::kNoObject) {
        chained = arg.chained;
        break;
      }
    }
    // The chained value is on top of the stack only if the previous
    // result was pushed as a temporary; consuming a *binding* would
    // shrink the frame under its argument slots.
    if (chained && !stack_.empty() && stack_.back().isTemp &&
        ops_.isList(stack_.back().value)) {
      *consumedTemp = true;
      return stack_.size() - 1;
    }

    const Frame& frame = frames_.back();
    const double u = rng_.uniform();
    std::optional<std::size_t> choice;
    if (u < probabilities_.argProb) {
      // An argument of the currently active user-defined function.
      choice = pickListItem(frame.base, frame.base + frame.argCount);
    } else if (u < probabilities_.argProb + probabilities_.locProb) {
      // A local variable (or temporary) of the current call.
      choice = pickListItem(frame.base + frame.argCount, stack_.size());
    } else {
      // A non-local variable: anything below the current frame.
      choice = pickListItem(0, frame.base);
    }
    if (!choice) choice = pickAnyList();
    return choice;
  }

  /// A uniformly random stack index holding a list value; nullopt if
  /// none (a second operand, as cons' tail or rplac's new field).
  std::optional<std::size_t> pickAnyList() {
    return pickListItem(0, stack_.size());
  }

  /// A uniformly random stack index in [lo, hi) holding a list value;
  /// nullopt if none. Reservoir sampling: one pass, no candidate vector.
  std::optional<std::size_t> pickListItem(std::size_t lo, std::size_t hi) {
    hi = std::min(hi, stack_.size());  // the frame-ownership quirk
    std::optional<std::size_t> chosen;
    std::uint64_t seen = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (!ops_.isList(stack_[i].value)) continue;
      ++seen;
      if (rng_.below(seen) == 0) chosen = i;
    }
    return chosen;
  }

  /// "This return value was then either bound to a randomly selected
  ///  variable on the stack (with probability BindProb) or just pushed
  ///  onto the top of the stack." `value` carries one EP reference.
  void disposeValue(Value value) {
    // Top-level temporaries have no function exit to pop them; once the
    // top-level frame grows past the bound, treat the push as a binding
    // so the stack stays O(call depth).
    const bool topLevelPressure =
        frames_.size() == 1 && stack_.size() >= topLevelStackBound_;
    if (!stack_.empty() &&
        (topLevelPressure || rng_.chance(probabilities_.bindProb))) {
      Item& slot = stack_[rng_.below(stack_.size())];
      ops_.release(slot.value);
      slot.value = value;  // a binding slot stays a binding
      return;
    }
    stack_.push_back(Item{value, /*isTemp=*/true});
  }

  /// Release and pop the top item (a consumed chained temporary).
  void popTop() {
    ops_.release(stack_.back().value);
    stack_.pop_back();
  }

  /// Release and pop everything (shutdown).
  void unwind() {
    while (!stack_.empty()) popTop();
  }

  const Value& value(std::size_t index) const { return stack_[index].value; }
  const std::vector<Item>& stack() const { return stack_; }
  const std::vector<Frame>& frames() const { return frames_; }

 private:
  Ops ops_;
  support::Rng& rng_;
  EpProbabilities probabilities_;
  std::size_t topLevelStackBound_;
  std::vector<Item> stack_;
  std::vector<Frame> frames_;
};

}  // namespace small::core
