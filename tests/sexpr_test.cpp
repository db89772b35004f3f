// Tests for the s-expression substrate: arena, reader, printer, metrics,
// and structural hashing.
#include <gtest/gtest.h>

#include "sexpr/arena.hpp"
#include "sexpr/metrics.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "support/error.hpp"

namespace small::sexpr {
namespace {

class SexprTest : public ::testing::Test {
 protected:
  NodeRef read(std::string_view text) {
    Reader reader(arena, symbols);
    return reader.readOne(text);
  }
  std::string roundtrip(std::string_view text) {
    return print(arena, symbols, read(text));
  }

  SymbolTable symbols;
  Arena arena;
};

TEST_F(SexprTest, NilIsReserved) {
  EXPECT_EQ(symbols.intern("nil"), SymbolTable::kNil);
  EXPECT_EQ(symbols.intern("t"), SymbolTable::kT);
  EXPECT_TRUE(arena.isNil(arena.symbol(SymbolTable::kNil)));
}

TEST_F(SexprTest, InterningIsStable) {
  const SymbolId a = symbols.intern("foo");
  const SymbolId b = symbols.intern("foo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(symbols.name(a), "foo");
}

TEST_F(SexprTest, ConsCarCdr) {
  const NodeRef a = arena.symbol(symbols.intern("a"));
  const NodeRef b = arena.symbol(symbols.intern("b"));
  const NodeRef pair = arena.cons(a, b);
  EXPECT_EQ(arena.car(pair), a);
  EXPECT_EQ(arena.cdr(pair), b);
  EXPECT_EQ(arena.kind(pair), NodeKind::kCons);
}

TEST_F(SexprTest, CarCdrOfNilIsNil) {
  EXPECT_TRUE(arena.isNil(arena.car(kNilRef)));
  EXPECT_TRUE(arena.isNil(arena.cdr(kNilRef)));
}

TEST_F(SexprTest, CarOfIntegerThrows) {
  const NodeRef n = arena.integer(5);
  EXPECT_THROW(arena.car(n), support::EvalError);
}

TEST_F(SexprTest, RplacaRplacd) {
  const NodeRef pair = arena.cons(arena.integer(1), arena.integer(2));
  arena.setCar(pair, arena.integer(10));
  arena.setCdr(pair, kNilRef);
  EXPECT_EQ(arena.integerValue(arena.car(pair)), 10);
  EXPECT_TRUE(arena.isNil(arena.cdr(pair)));
}

TEST_F(SexprTest, SmallIntegersAreCached) {
  EXPECT_EQ(arena.integer(5), arena.integer(5));
  EXPECT_EQ(arena.integer(-1), arena.integer(-1));
}

TEST_F(SexprTest, ReadAtomKinds) {
  EXPECT_EQ(arena.kind(read("42")), NodeKind::kInteger);
  EXPECT_EQ(arena.integerValue(read("-17")), -17);
  EXPECT_EQ(arena.kind(read("foo")), NodeKind::kSymbol);
  EXPECT_TRUE(arena.isNil(read("nil")));
}

TEST_F(SexprTest, ReadRoundtrips) {
  EXPECT_EQ(roundtrip("(a b c)"), "(a b c)");
  EXPECT_EQ(roundtrip("(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(roundtrip("(a . b)"), "(a . b)");
  EXPECT_EQ(roundtrip("()"), "nil");
  EXPECT_EQ(roundtrip("(1 -2 30)"), "(1 -2 30)");
}

TEST_F(SexprTest, QuoteShorthand) {
  EXPECT_EQ(roundtrip("'x"), "(quote x)");
  EXPECT_EQ(roundtrip("'(a b)"), "(quote (a b))");
}

TEST_F(SexprTest, CommentsAreSkipped) {
  EXPECT_EQ(roundtrip("; hello\n(a b) ; trailing"), "(a b)");
}

TEST_F(SexprTest, SuperParenClosesAllLists) {
  // The `]` closes every open list, as in Franz Lisp.
  EXPECT_EQ(roundtrip("(a (b (c d]"), "(a (b (c d)))");
}

TEST_F(SexprTest, ReadAllParsesSeveralForms) {
  Reader reader(arena, symbols);
  const auto forms = reader.readAll("(a) 42 sym");
  ASSERT_EQ(forms.size(), 3u);
  EXPECT_EQ(arena.kind(forms[0]), NodeKind::kCons);
  EXPECT_EQ(arena.kind(forms[1]), NodeKind::kInteger);
  EXPECT_EQ(arena.kind(forms[2]), NodeKind::kSymbol);
}

TEST_F(SexprTest, MalformedInputThrows) {
  EXPECT_THROW(read("(a b"), support::ParseError);
  EXPECT_THROW(read(")"), support::ParseError);
  EXPECT_THROW(read("(a))"), support::ParseError);
  EXPECT_THROW(read(""), support::ParseError);
}

TEST_F(SexprTest, EqualStructural) {
  const NodeRef a = read("(a (b 2) c)");
  const NodeRef b = read("(a (b 2) c)");
  const NodeRef c = read("(a (b 3) c)");
  EXPECT_TRUE(arena.equal(a, b));
  EXPECT_FALSE(arena.equal(a, c));
}

TEST_F(SexprTest, ListLength) {
  EXPECT_EQ(arena.listLength(read("(a b c d)")), 4u);
  EXPECT_EQ(arena.listLength(kNilRef), 0u);
  EXPECT_THROW(arena.listLength(read("(a . b)")), support::EvalError);
}

TEST_F(SexprTest, ListBuilder) {
  const NodeRef l = arena.list(
      {arena.integer(1), arena.integer(2), arena.integer(3)});
  EXPECT_EQ(print(arena, symbols, l), "(1 2 3)");
}

// --- the n/p metrics of §3.3.1 (Fig 3.2's two examples) ---

TEST_F(SexprTest, ShapeOfFlatListWithOneSublist) {
  // (A B C (D E) F G): n = 7, p = 1, 8 two-pointer cells.
  const ListShape shape = measureShape(arena, read("(A B C (D E) F G)"));
  EXPECT_EQ(shape.n, 7u);
  EXPECT_EQ(shape.p, 1u);
  EXPECT_EQ(shape.cells, 8u);
  EXPECT_EQ(shape.depth, 2u);
}

TEST_F(SexprTest, ShapeOfNestedList) {
  // (A (B (C (D E) F) G)): n = 7, p = 3, 10 two-pointer cells.
  const ListShape shape = measureShape(arena, read("(A (B (C (D E) F) G))"));
  EXPECT_EQ(shape.n, 7u);
  EXPECT_EQ(shape.p, 3u);
  EXPECT_EQ(shape.cells, 10u);
}

TEST_F(SexprTest, ShapeCellsEqualsNPlusPForProperLists) {
  for (const char* text :
       {"(a)", "(a b c)", "((a) b)", "(((x)))", "(a (b) (c (d)) e)"}) {
    const ListShape shape = measureShape(arena, read(text));
    EXPECT_EQ(shape.cells, shape.n + shape.p) << text;
  }
}

TEST_F(SexprTest, ShapeOfAtomIsZero) {
  const ListShape shape = measureShape(arena, read("42"));
  EXPECT_EQ(shape.n, 0u);
  EXPECT_EQ(shape.cells, 0u);
}

TEST_F(SexprTest, NilElementCountsAsSymbol) {
  const ListShape shape = measureShape(arena, read("(a nil b)"));
  EXPECT_EQ(shape.n, 3u);
  EXPECT_EQ(shape.p, 0u);
}

TEST_F(SexprTest, StructuralHashEqualForEqualLists) {
  const NodeRef a = read("(a (b 2) c)");
  const NodeRef b = read("(a (b 2) c)");
  EXPECT_EQ(structuralHash(arena, a), structuralHash(arena, b));
}

TEST_F(SexprTest, StructuralHashDiffersForDifferentLists) {
  // Not guaranteed in theory, but a collision here would break the trace
  // preprocessing badly enough that we want to know.
  const NodeRef a = read("(a b c)");
  const NodeRef b = read("(a b d)");
  const NodeRef c = read("((a b) c)");
  EXPECT_NE(structuralHash(arena, a), structuralHash(arena, b));
  EXPECT_NE(structuralHash(arena, a), structuralHash(arena, c));
}

TEST_F(SexprTest, StructuralHashNeverZero) {
  EXPECT_NE(structuralHash(arena, kNilRef), 0u);
  EXPECT_NE(structuralHash(arena, read("(a)")), 0u);
}

// Property fuzz: for any randomly generated s-expression, print -> read
// roundtrips to an equal structure, shape metrics are self-consistent,
// and equal structures hash equally.
class SexprFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  sexpr::NodeRef randomSexpr(int depthBudget) {
    const auto choice = state_ = state_ * 6364136223846793005ull + 1;
    const auto pick = (choice >> 33) % 10;
    if (depthBudget <= 0 || pick < 4) {
      // Atom: symbol, integer, or nil.
      if (pick % 3 == 0) return arena.integer(static_cast<int>(pick % 97));
      if (pick % 3 == 1) return kNilRef;
      std::string name = "s";
      name += std::to_string(pick % 12);
      return arena.symbol(symbols.intern(name));
    }
    // Proper list of 0..4 elements.
    const int n = static_cast<int>((choice >> 17) % 5);
    std::vector<NodeRef> elements;
    for (int i = 0; i < n; ++i) {
      elements.push_back(randomSexpr(depthBudget - 1));
    }
    NodeRef list = kNilRef;
    for (int i = n; i-- > 0;) {
      list = arena.cons(elements[static_cast<std::size_t>(i)], list);
    }
    return list;
  }

  SymbolTable symbols;
  Arena arena;
  std::uint64_t state_ = 0;
};

TEST_P(SexprFuzz, PrintReadRoundtrip) {
  state_ = GetParam() * 2654435761u + 17;
  Reader reader(arena, symbols);
  for (int i = 0; i < 200; ++i) {
    const NodeRef original = randomSexpr(5);
    const std::string text = print(arena, symbols, original);
    const NodeRef reread = reader.readOne(text);
    EXPECT_TRUE(arena.equal(original, reread)) << text;
    EXPECT_EQ(structuralHash(arena, original),
              structuralHash(arena, reread))
        << text;
    // Shape metrics: cells == n + p for proper lists.
    if (arena.kind(original) == NodeKind::kCons) {
      const ListShape shape = measureShape(arena, original);
      EXPECT_EQ(shape.cells, shape.n + shape.p) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SexprFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST_F(SexprTest, PrinterBoundsCyclicStructures) {
  const NodeRef cell = arena.cons(arena.integer(1), kNilRef);
  arena.setCdr(cell, cell);  // cycle
  const std::string out = print(arena, symbols, cell, 16);
  EXPECT_NE(out.find("..."), std::string::npos);
}

}  // namespace
}  // namespace small::sexpr
