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
// The calls are direct, not virtual: they sit on the per-primitive path.
//
// The model keeps a list-slot bitmap beside the stack, one bit per slot,
// set iff isList(slot value). Every slot write happens here (pushes, the
// BindProb bind, ReadProb re-reads, pops), and each one updates its bit,
// so a pick counts the list slots of its range with popcounts and finds
// the chosen one by a select over the same words, with no per-slot work.
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
#include <bit>
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
      push(item);
    }
    const auto locals = static_cast<std::uint32_t>(rng_.below(3));
    for (std::uint32_t i = 0; i < locals; ++i) push(Item{});
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
      push(Item{ops_.readIn(n, p)});
      index = stack_.size() - 1;
    }
    if (!operand.consumedTemp && rng_.chance(probabilities_.readProb)) {
      ops_.reread(stack_[*index].value, n, p);
      setListBit(*index);
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
  /// nullopt if none. The draws are a reservoir sample's: below(k) for
  /// k = 1..n over the range's n list slots, keeping the last k that drew
  /// 0; the bitmap supplies n and the chosen slot, so the stack itself is
  /// never read.
  std::optional<std::size_t> pickListItem(std::size_t lo, std::size_t hi) {
    hi = std::min(hi, stack_.size());  // the frame-ownership quirk
    if (hi <= lo) return std::nullopt;
    const std::uint64_t n = countListSlots(lo, hi);
    // The draws go through a local copy of the generator so its state can
    // stay in registers for the loop; the stream is the same.
    support::Rng rng = rng_;
    std::uint64_t last = 0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      if (rng.below(k) == 0) last = k;
    }
    rng_ = rng;
    if (last == 0) return std::nullopt;
    return nthListSlot(lo, last - 1);
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
      const std::size_t index = rng_.below(stack_.size());
      Item& slot = stack_[index];
      ops_.release(slot.value);
      slot.value = value;  // a binding slot stays a binding
      setListBit(index);
      return;
    }
    push(Item{value, /*isTemp=*/true});
  }

  /// Release and pop the top item (a consumed chained temporary).
  void popTop() {
    ops_.release(stack_.back().value);
    const std::size_t top = stack_.size() - 1;
    if (top % 64 == 0) {
      listBits_.pop_back();  // the popped slot was its word's only one
    } else {
      listBits_[top / 64] &= ~(std::uint64_t{1} << (top % 64));
    }
    stack_.pop_back();
  }

  /// Release and pop everything (shutdown).
  void unwind() {
    while (!stack_.empty()) popTop();
  }

  const Value& value(std::size_t index) const { return stack_[index].value; }
  const std::vector<Item>& stack() const { return stack_; }
  const std::vector<Frame>& frames() const { return frames_; }

  /// The list-slot bitmap invariant: one word per started 64-slot block
  /// of the stack, each bit below stack().size() equal to isList of its
  /// slot, and no bit set at or above it. Checked after every event by
  /// the Simulator's SMALL_SIM_VERIFY build.
  bool listBitsConsistent() const {
    if (listBits_.size() != (stack_.size() + 63) / 64) return false;
    for (std::size_t w = 0; w < listBits_.size(); ++w) {
      std::uint64_t expected = 0;
      const std::size_t end = std::min(stack_.size(), (w + 1) * 64);
      for (std::size_t i = w * 64; i < end; ++i) {
        if (ops_.isList(stack_[i].value)) {
          expected |= std::uint64_t{1} << (i % 64);
        }
      }
      if (listBits_[w] != expected) return false;
    }
    return true;
  }

 private:
  void push(const Item& item) {
    const std::size_t index = stack_.size();
    stack_.push_back(item);
    if (index % 64 == 0) listBits_.push_back(0);
    setListBit(index);
  }

  /// Bring slot `index`'s bit in line with its value.
  void setListBit(std::size_t index) {
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    std::uint64_t& word = listBits_[index / 64];
    word = ops_.isList(stack_[index].value) ? word | bit : word & ~bit;
  }

  /// The bits of word `w` that lie in [lo, hi).
  static std::uint64_t rangeMask(std::size_t w, std::size_t lo,
                                 std::size_t hi) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == lo / 64) mask &= ~std::uint64_t{0} << (lo % 64);
    if (w == (hi - 1) / 64) mask &= ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
    return mask;
  }

  /// The number of list slots in [lo, hi), lo < hi <= stack_.size().
  std::uint64_t countListSlots(std::size_t lo, std::size_t hi) const {
    std::uint64_t n = 0;
    for (std::size_t w = lo / 64; w <= (hi - 1) / 64; ++w) {
      n += static_cast<std::uint64_t>(
          std::popcount(listBits_[w] & rangeMask(w, lo, hi)));
    }
    return n;
  }

  /// The index of the list slot with `rank` (0-based) list slots before
  /// it at or above `lo`; the caller guarantees it exists.
  std::size_t nthListSlot(std::size_t lo, std::uint64_t rank) const {
    std::size_t w = lo / 64;
    std::uint64_t word = listBits_[w] & (~std::uint64_t{0} << (lo % 64));
    for (;;) {
      const auto count = static_cast<std::uint64_t>(std::popcount(word));
      if (rank < count) break;
      rank -= count;
      word = listBits_[++w];
    }
    // Select the rank-th set bit of `word` by halving.
    std::size_t bit = 0;
    for (unsigned width = 32; width > 0; width /= 2) {
      const auto low = static_cast<std::uint64_t>(
          std::popcount(word & ((std::uint64_t{1} << width) - 1)));
      if (rank >= low) {
        rank -= low;
        word >>= width;
        bit += width;
      }
    }
    return w * 64 + bit;
  }

  Ops ops_;
  support::Rng& rng_;
  EpProbabilities probabilities_;
  std::size_t topLevelStackBound_;
  std::vector<Item> stack_;
  std::vector<std::uint64_t> listBits_;  ///< bit i: stack_[i] holds a list
  std::vector<Frame> frames_;
};

}  // namespace small::core
