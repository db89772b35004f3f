// The conc representation ([Kell80a], §2.3.3.1).
//
// "The conc representation calls its vectors tuples. A tuple is a list of
//  elements stored in contiguous memory locations. It is accessed through
//  a descriptor which specifies the number of elements in the tuple, and
//  a pointer to the beginning of the tuple. There are special tuples
//  called conc cells whose elements are pointers to other conc cells or
//  to tuples. Conc cells are used to implement list concatenation without
//  having to modify the list structure."
//
// The headline property: `conc` is O(1) (allocate one conc cell), versus
// the two-pointer representation's append, which copies the first list's
// spine — the contrast HeapTest.ConcConcatenationIsOneCell pins.
#pragma once

#include <cstdint>
#include <vector>

#include "sexpr/arena.hpp"

namespace small::heap {

class ConcHeap {
 public:
  /// Descriptor index; descriptors name either a tuple run or a conc cell.
  using DescRef = std::uint32_t;

  struct Element {
    enum class Tag : std::uint8_t { kNil, kSymbol, kInteger, kList };
    Tag tag = Tag::kNil;
    std::uint64_t payload = 0;  ///< symbol/integer bits, or a DescRef
  };

  /// Encode a proper list (possibly nested); dotted tails are not
  /// representable. Returns the descriptor.
  DescRef encode(const sexpr::Arena& arena, sexpr::NodeRef list);

  /// O(1) concatenation: a conc cell over the two descriptors.
  DescRef conc(DescRef left, DescRef right);

  /// Rebuild the s-expression (flattening conc cells).
  sexpr::NodeRef decode(sexpr::Arena& arena, DescRef ref) const;

  /// Total elements under a descriptor (tuples' lengths summed through
  /// conc cells) — O(depth of the conc tree), not O(n), because each
  /// descriptor caches its length.
  std::uint64_t length(DescRef ref) const;

  /// Element at `index` in left-to-right order: descriptor navigation by
  /// cached lengths, then direct tuple indexing — the vector-coded
  /// random-access win.
  Element elementAt(DescRef ref, std::uint64_t index) const;

  // --- accounting ---
  std::uint64_t tupleCount() const { return tuples_; }
  std::uint64_t concCellCount() const { return concCells_; }
  std::uint64_t elementWords() const { return elements_.size(); }

 private:
  struct Descriptor {
    bool isConc = false;
    // Tuple: [start, start+length) in elements_. Conc: left/right refs.
    std::uint64_t start = 0;
    std::uint64_t length = 0;  ///< cached total element count
    DescRef left = 0;
    DescRef right = 0;
  };

  const Descriptor& at(DescRef ref) const;
  DescRef makeTuple(const std::vector<Element>& elements);

  std::vector<Descriptor> descriptors_;
  std::vector<Element> elements_;
  std::uint64_t tuples_ = 0;
  std::uint64_t concCells_ = 0;
};

}  // namespace small::heap
