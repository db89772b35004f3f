// A value-cached deep-binding environment, after the FACOM Alpha
// (§2.3.2, Fig 2.5).
//
// "The value cache is an associative memory device that is searched
//  before the association list during the lookup process... Each value
//  cache entry is made up of a valid bit, a stack frame number..., and
//  fields for the variable name and value binding."
//
// On a call the cache entries for the callee's bound names are
// invalidated; a lookup miss falls back to the association-list scan and
// installs the result; on return every entry tagged with the returning
// frame is invalidated. This sits between plain deep binding (cheap
// calls, expensive lookups) and shallow binding (the reverse).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lisp/env.hpp"

namespace small::lisp {

class ValueCachedDeepEnv final : public Environment {
 public:
  explicit ValueCachedDeepEnv(std::size_t cacheEntries = 64);

  Mark mark() const override { return stack_.size(); }
  void bind(SymbolId name, NodeRef value) override;
  std::optional<NodeRef> lookup(SymbolId name) const override;
  void assign(SymbolId name, NodeRef value) override;
  void unwindTo(Mark mark) override;
  std::size_t depth() const override { return stack_.size(); }

  // --- cost accounting for the §2.3.2 comparison ---
  std::uint64_t cacheHits() const { return hits_; }
  std::uint64_t cacheMisses() const { return misses_; }
  std::uint64_t listScans() const { return listScans_; }

  /// Frame bookkeeping: the interpreter (or a test) brackets each call.
  /// bind() inside the frame invalidates the bound name's cache entry;
  /// popFrame() invalidates everything the frame installed.
  void pushFrame();
  void popFrame();

  void enterFrame() override { pushFrame(); }
  void exitFrame() override { popFrame(); }

 private:
  struct Binding {
    SymbolId name;
    NodeRef value;
    std::uint32_t frame;
  };
  struct CacheEntry {
    bool valid = false;
    SymbolId name = 0;
    NodeRef value = 0;
    std::uint32_t frame = 0;
  };

  CacheEntry& slotFor(SymbolId name) const;
  void invalidate(SymbolId name);

  std::vector<Binding> stack_;
  std::vector<std::optional<NodeRef>> globals_;
  mutable std::vector<CacheEntry> cache_;
  std::uint32_t currentFrame_ = 0;

  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t listScans_ = 0;
};

}  // namespace small::lisp
