// Tests for the FACOM Alpha style value-cached deep-binding environment
// (§2.3.2, Fig 2.5).
#include <gtest/gtest.h>

#include "lisp/env.hpp"
#include "lisp/value_cache.hpp"

namespace small::lisp {
namespace {

TEST(ValueCache, LookupInstallsAndHits) {
  ValueCachedDeepEnv env;
  env.bind(5, 100);
  EXPECT_EQ(env.lookup(5).value(), 100u);  // miss, installs
  EXPECT_EQ(env.cacheMisses(), 1u);
  EXPECT_EQ(env.lookup(5).value(), 100u);  // hit
  EXPECT_EQ(env.cacheHits(), 1u);
  // The second lookup did not scan the association list.
  EXPECT_EQ(env.listScans(), 1u);
}

TEST(ValueCache, BindInvalidatesCachedName) {
  ValueCachedDeepEnv env;
  env.bind(3, 30);
  (void)env.lookup(3);  // install
  env.pushFrame();
  env.bind(3, 31);  // Fig 2.5(b): the callee's binding invalidates
  EXPECT_EQ(env.lookup(3).value(), 31u);
  EXPECT_EQ(env.cacheMisses(), 2u);  // the shadowed entry did not serve
}

TEST(ValueCache, FrameReturnInvalidatesFrameEntries) {
  ValueCachedDeepEnv env;
  env.bind(7, 70);
  env.pushFrame();
  const auto mark = env.mark();
  env.bind(7, 71);
  EXPECT_EQ(env.lookup(7).value(), 71u);  // installed with callee frame no.
  env.unwindTo(mark);
  env.popFrame();  // Fig 2.5(d): invalidate the frame's entries
  EXPECT_EQ(env.lookup(7).value(), 70u);  // fresh scan, correct old value
}

TEST(ValueCache, AssignInvalidates) {
  ValueCachedDeepEnv env;
  env.bind(2, 20);
  (void)env.lookup(2);
  env.assign(2, 21);
  EXPECT_EQ(env.lookup(2).value(), 21u);
}

TEST(ValueCache, GlobalsAreCached) {
  ValueCachedDeepEnv env;
  env.assign(9, 90);  // top-level value
  EXPECT_EQ(env.lookup(9).value(), 90u);
  EXPECT_EQ(env.lookup(9).value(), 90u);
  EXPECT_EQ(env.cacheHits(), 1u);
}

TEST(ValueCache, UnboundLookupIsNullopt) {
  ValueCachedDeepEnv env;
  EXPECT_FALSE(env.lookup(4).has_value());
}

TEST(ValueCache, RepeatedNonLocalLookupsSaveScans) {
  // Deutsch's observation (§2.3.2): repeated references to the same
  // variable in the same function cost one expensive lookup.
  ValueCachedDeepEnv cached;
  DeepBindingEnv plain;
  cached.bind(0, 1);
  plain.bind(0, 1);
  for (sexpr::SymbolId s = 1; s <= 50; ++s) {
    cached.bind(s, s);
    plain.bind(s, s);
  }
  std::uint64_t plainScans = 0;
  for (int i = 0; i < 100; ++i) {
    (void)cached.lookup(0);  // deepest binding
    const auto before = plain.lookupScans();
    (void)plain.lookup(0);
    plainScans += plain.lookupScans() - before;
  }
  // Plain deep binding scans 51 items per lookup; the cache scans once.
  EXPECT_EQ(cached.listScans(), 51u);
  EXPECT_EQ(plainScans, 100u * 51u);
}

TEST(ValueCache, AgreesWithDeepBindingOnRandomScripts) {
  // Property: under any bind/assign/unwind/frame script, lookups agree
  // with the plain deep-binding environment.
  ValueCachedDeepEnv cached(8);  // tiny cache: heavy conflict traffic
  DeepBindingEnv plain;
  std::vector<Environment::Mark> cachedMarks;
  std::vector<Environment::Mark> plainMarks;
  std::uint64_t state = 777;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 4000; ++step) {
    const auto op = next() % 5;
    const auto name = static_cast<sexpr::SymbolId>(next() % 24);
    const auto value = static_cast<sexpr::NodeRef>(next() % 500);
    if (op == 0) {
      cachedMarks.push_back(cached.mark());
      plainMarks.push_back(plain.mark());
      cached.pushFrame();
      cached.bind(name, value);
      plain.bind(name, value);
    } else if (op == 1 && !cachedMarks.empty()) {
      cached.unwindTo(cachedMarks.back());
      cached.popFrame();
      plain.unwindTo(plainMarks.back());
      cachedMarks.pop_back();
      plainMarks.pop_back();
    } else if (op == 2) {
      cached.assign(name, value);
      plain.assign(name, value);
    } else {
      const auto a = cached.lookup(name);
      const auto b = plain.lookup(name);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(*a, *b);
      }
    }
  }
}

}  // namespace
}  // namespace small::lisp
