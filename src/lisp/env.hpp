// Run-time environments: deep and shallow binding (§2.2.1, §2.3.2).
//
// The thesis describes the two classical implementations of a dynamically
// scoped Lisp environment:
//   * deep binding — an association list of name-value pairs searched from
//     its head; calls/returns are cheap, lookup may scan the stack;
//   * shallow binding — a value cell per name (the oblist) plus a stack of
//     shadowed bindings restored on return; lookup is O(1), calls pay for
//     the cell swaps.
// Both are provided behind one interface so the tests can hold them to the
// same semantics; the interpreter runs deep binding.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sexpr/arena.hpp"

namespace small::lisp {

using sexpr::NodeRef;
using sexpr::SymbolId;

/// Abstract dynamic-binding environment.
class Environment {
 public:
  virtual ~Environment() = default;

  /// Opaque restore point taken before a function call's bindings.
  using Mark = std::size_t;

  virtual Mark mark() const = 0;

  /// Add a binding for `name` in the current (innermost) context.
  virtual void bind(SymbolId name, NodeRef value) = 0;

  /// Most recent binding of `name`, or its global value, or nullopt.
  virtual std::optional<NodeRef> lookup(SymbolId name) const = 0;

  /// Assign to the most recent binding of `name`; creates/overwrites the
  /// global value if no dynamic binding exists (top-level setq).
  virtual void assign(SymbolId name, NodeRef value) = 0;

  /// Undo every binding made since `mark` (function return).
  virtual void unwindTo(Mark mark) = 0;

  /// Dynamic bindings currently live (excluding globals).
  virtual std::size_t depth() const = 0;

  /// Function-call brackets. Most disciplines ignore them; the value
  /// cache uses them for frame-tagged invalidation (Fig 2.5).
  virtual void enterFrame() {}
  virtual void exitFrame() {}
};

/// Deep binding: a linear binding stack searched from the top, as in
/// Fig 2.3, with a global table underneath for top-level values.
class DeepBindingEnv final : public Environment {
 public:
  Mark mark() const override { return stack_.size(); }
  void bind(SymbolId name, NodeRef value) override;
  std::optional<NodeRef> lookup(SymbolId name) const override;
  void assign(SymbolId name, NodeRef value) override;
  void unwindTo(Mark mark) override;
  std::size_t depth() const override { return stack_.size(); }

  /// Number of association-list items scanned by all lookups so far — the
  /// cost measure the thesis discusses for deep binding.
  std::uint64_t lookupScans() const { return lookupScans_; }

 private:
  struct Binding {
    SymbolId name;
    NodeRef value;
  };
  std::vector<Binding> stack_;
  std::vector<std::optional<NodeRef>> globals_;  // indexed by SymbolId
  mutable std::uint64_t lookupScans_ = 0;

  void ensureGlobalSlot(SymbolId name);
};

/// Shallow binding: one value cell per symbol (the oblist) and a stack of
/// displaced bindings, as in Fig 2.4.
class ShallowBindingEnv final : public Environment {
 public:
  Mark mark() const override { return saved_.size(); }
  void bind(SymbolId name, NodeRef value) override;
  std::optional<NodeRef> lookup(SymbolId name) const override;
  void assign(SymbolId name, NodeRef value) override;
  void unwindTo(Mark mark) override;
  std::size_t depth() const override { return saved_.size(); }

  /// Value-cell writes performed on calls and returns — the cost measure
  /// the thesis discusses for shallow binding.
  std::uint64_t cellWrites() const { return cellWrites_; }

 private:
  struct Saved {
    SymbolId name;
    std::optional<NodeRef> previous;
  };
  std::vector<std::optional<NodeRef>> cells_;  // indexed by SymbolId
  std::vector<Saved> saved_;
  std::uint64_t cellWrites_ = 0;

  void ensureCell(SymbolId name);
};

}  // namespace small::lisp
