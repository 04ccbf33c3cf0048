#include <gtest/gtest.h>

#include "fo/parser.h"
#include "graph/generators.h"
#include "mc/evaluator.h"
#include "util/rng.h"

namespace folearn {
namespace {

Graph ColoredPath() {
  Graph g = MakePath(6);
  AddPeriodicColor(g, "Red", 2, 0);   // 0, 2, 4
  AddPeriodicColor(g, "Blue", 3, 0);  // 0, 3
  return g;
}

TEST(Evaluator, Atoms) {
  Graph g = ColoredPath();
  std::string vars[] = {"x", "y"};
  Vertex t01[] = {0, 1};
  Vertex t02[] = {0, 2};
  Vertex t00[] = {0, 0};
  FormulaRef edge = MustParseFormula("E(x, y)");
  FormulaRef eq = MustParseFormula("x = y");
  FormulaRef red = MustParseFormula("Red(x)");
  EXPECT_TRUE(EvaluateQuery(g, edge, vars, t01));
  EXPECT_FALSE(EvaluateQuery(g, edge, vars, t02));
  EXPECT_FALSE(EvaluateQuery(g, edge, vars, t00));  // irreflexive
  EXPECT_TRUE(EvaluateQuery(g, eq, vars, t00));
  EXPECT_FALSE(EvaluateQuery(g, eq, vars, t01));
  EXPECT_TRUE(EvaluateQuery(g, red, vars, t01));
  Vertex t10[] = {1, 0};
  EXPECT_FALSE(EvaluateQuery(g, red, vars, t10));
}

TEST(Evaluator, Connectives) {
  Graph g = ColoredPath();
  std::string vars[] = {"x"};
  Vertex t0[] = {0};
  Vertex t2[] = {2};
  FormulaRef both = MustParseFormula("Red(x) & Blue(x)");
  FormulaRef either = MustParseFormula("Red(x) | Blue(x)");
  FormulaRef neither = MustParseFormula("!Red(x) & !Blue(x)");
  EXPECT_TRUE(EvaluateQuery(g, both, vars, t0));
  EXPECT_FALSE(EvaluateQuery(g, both, vars, t2));
  EXPECT_TRUE(EvaluateQuery(g, either, vars, t2));
  Vertex t1[] = {1};
  EXPECT_TRUE(EvaluateQuery(g, neither, vars, t1));
}

TEST(Evaluator, Quantifiers) {
  Graph g = ColoredPath();
  EXPECT_TRUE(EvaluateSentence(g, MustParseFormula("exists x. Red(x)")));
  EXPECT_FALSE(EvaluateSentence(g, MustParseFormula("forall x. Red(x)")));
  EXPECT_TRUE(EvaluateSentence(
      g, MustParseFormula("forall x. (Blue(x) -> exists y. E(x, y))")));
  // Every red vertex has a non-red neighbour (path 0..5, red at 0,2,4).
  EXPECT_TRUE(EvaluateSentence(
      g, MustParseFormula(
             "forall x. (Red(x) -> exists y. (E(x, y) & !Red(y)))")));
}

TEST(Evaluator, NestedQuantifierScoping) {
  Graph g = MakePath(4);
  // ∃x∀y∃x' scoping: inner binder shadows outer.
  FormulaRef f = MustParseFormula(
      "exists x. forall y. exists x. (E(x, y) | x = y)");
  EXPECT_TRUE(EvaluateSentence(g, f));
}

TEST(Evaluator, TwoDistantVerticesOnCycle) {
  Graph g = MakeCycle(8);
  // There exist two non-adjacent, distinct vertices.
  FormulaRef f = MustParseFormula(
      "exists x. exists y. (!E(x, y) & !x = y)");
  EXPECT_TRUE(EvaluateSentence(g, f));
  Graph triangle = MakeComplete(3);
  EXPECT_FALSE(EvaluateSentence(triangle, f));
}

TEST(Evaluator, MissingColorPolicy) {
  Graph g = MakePath(3);
  std::string vars[] = {"x"};
  Vertex t0[] = {0};
  FormulaRef f = MustParseFormula("Ghost(x)");
  EvalOptions lenient;
  lenient.missing_color_is_false = true;
  EXPECT_FALSE(EvaluateQuery(g, f, vars, t0, lenient));
  EXPECT_DEATH(EvaluateQuery(g, f, vars, t0), "Ghost");
}

TEST(Evaluator, UnboundVariableDies) {
  Graph g = MakePath(3);
  FormulaRef f = MustParseFormula("E(x, y)");
  std::string vars[] = {"x"};
  Vertex t0[] = {0};
  EXPECT_DEATH(EvaluateQuery(g, f, vars, t0), "unbound");
}

TEST(Evaluator, StatsCountWork) {
  Graph g = MakePath(5);
  FormulaRef sentence = MustParseFormula("forall x. exists y. E(x, y)");
  // Atom and branch counts are interpreter-only diagnostics.
  EvalOptions interpreted;
  interpreted.engine = EvalEngine::kInterpreted;
  EvalStats stats;
  EvaluateSentence(g, sentence, interpreted, &stats);
  EXPECT_GT(stats.quantifier_branches, 0);
  EXPECT_GT(stats.atom_evaluations, 0);
  // A VM sink tallies opcode dispatches of the same program.
  EvalStats vm_stats;
  EvaluateSentence(g, sentence, {}, &vm_stats);
  int64_t dispatches = 0;
  for (int64_t count : vm_stats.vm_op_dispatches) dispatches += count;
  EXPECT_GT(dispatches, 0);
}

TEST(Evaluator, EvaluateOnTuplesMatchesSingle) {
  Graph g = ColoredPath();
  FormulaRef f = MustParseFormula("exists y. (E(x, y) & Red(y))");
  std::string vars[] = {"x"};
  std::vector<std::vector<Vertex>> tuples;
  for (Vertex v = 0; v < g.order(); ++v) tuples.push_back({v});
  std::vector<bool> results = EvaluateOnTuples(g, f, vars, tuples);
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    EXPECT_EQ(results[v], EvaluateQuery(g, f, vars, tuple)) << v;
  }
}

TEST(Assignment, StackSemantics) {
  Assignment a;
  a.Bind("x", 1);
  a.Bind("x", 2);
  EXPECT_EQ(a.Lookup("x"), 2);
  a.Unbind("x");
  EXPECT_EQ(a.Lookup("x"), 1);
  EXPECT_FALSE(a.Lookup("y").has_value());
}

// Degree-based property: on K_n, ∃x∃y !E(x,y) & x≠y is false; on K_n minus
// an edge it is true.
TEST(Evaluator, CompleteGraphMinusEdge) {
  FormulaRef f =
      MustParseFormula("exists x. exists y. (!E(x, y) & !x = y)");
  for (int n = 2; n <= 6; ++n) {
    Graph complete = MakeComplete(n);
    EXPECT_FALSE(EvaluateSentence(complete, f)) << n;
    complete.RemoveEdge(0, 1);
    EXPECT_TRUE(EvaluateSentence(complete, f)) << n;
  }
}

}  // namespace
}  // namespace folearn
