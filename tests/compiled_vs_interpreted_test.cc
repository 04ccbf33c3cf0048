// Differential testing of the bytecode VM (mc/compiler.h, mc/bytecode.h,
// mc/vm.h) against the recursive interpreter it replaces on the hot paths.
// The contract under test: for every formula — FO, FO+C and MSO — graph,
// and tuple, both engines return identical verdicts, with or without a
// stats sink or an (unlimited) governor attached; and under a governor
// both charge one work unit per evaluated tuple, so max-work budgets and
// injected trips cut at identical points (status, work_used,
// checkpoints_passed, verdicts decided). The ERM grid must likewise be
// bit-for-bit reproducible across eval engines and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fo/enumerate.h"
#include "fo/mso.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/evaluator.h"
#include "mc/vm.h"
#include "test_helpers.h"
#include "util/governor.h"
#include "util/mem_budget.h"
#include "util/rng.h"

namespace folearn {
namespace {

EvalOptions WithEngine(EvalEngine engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

EvalOptions Interpreted() { return WithEngine(EvalEngine::kInterpreted); }

constexpr EvalEngine kEngines[] = {EvalEngine::kInterpreted,
                                   EvalEngine::kVm};

// Runs one query through both engines and checks the verdicts. The VM is
// exercised bare, with a stats sink, and under an unlimited governor (the
// instrumented dispatch loop with its back-edge polls); all must agree
// with the interpreter.
void ExpectQueryParity(const Graph& graph, const FormulaRef& formula,
                       const std::vector<std::string>& vars,
                       const std::vector<Vertex>& tuple,
                       const std::string& label,
                       EvalOptions base = EvalOptions{}) {
  EvalOptions interpreted_options = base;
  interpreted_options.engine = EvalEngine::kInterpreted;
  EvalStats interpreted_stats;
  bool interpreted = EvaluateQuery(graph, formula, vars, tuple,
                                   interpreted_options, &interpreted_stats);
  // The interpreted path never touches the VM timers.
  EXPECT_EQ(interpreted_stats.compile_ms, 0.0) << label;
  EXPECT_EQ(interpreted_stats.exec_ms, 0.0) << label;
  EvalOptions vm_options = base;
  vm_options.engine = EvalEngine::kVm;
  EXPECT_EQ(EvaluateQuery(graph, formula, vars, tuple, vm_options),
            interpreted)
      << label << " [vm]";
  EvalStats stats;
  EXPECT_EQ(EvaluateQuery(graph, formula, vars, tuple, vm_options, &stats),
            interpreted)
      << label << " [vm, stats]";
  // A VM sink tallies dispatches only.
  EXPECT_EQ(stats.atom_evaluations, 0) << label;
  EXPECT_EQ(stats.quantifier_branches, 0) << label;
  ResourceGovernor governor;
  vm_options.governor = &governor;
  EXPECT_EQ(EvaluateQuery(graph, formula, vars, tuple, vm_options),
            interpreted)
      << label << " [vm, governed]";
  EXPECT_EQ(governor.work_used(), 1) << label;
}

TEST(CompiledVsInterpreted, RandomFormulasAcrossFamilies) {
  const std::vector<std::string> vars = QueryVars(2);
  const std::vector<std::string> colors = {"Red", "Blue"};
  const GraphFamily families[] = {GraphFamily::kPath, GraphFamily::kCycle,
                                  GraphFamily::kErdosRenyiSparse,
                                  GraphFamily::kRandomTree};
  Rng rng(2024);
  for (GraphFamily family : families) {
    Graph graph = MakeFamilyGraph(family, 9, rng);
    AddRandomColors(graph, colors, 0.4, rng);
    for (int i = 0; i < 25; ++i) {
      FormulaRef formula = RandomFormula(rng, vars, colors,
                                         /*quantifier_budget=*/2,
                                         /*depth=*/3, /*allow_counting=*/true);
      for (int t = 0; t < 6; ++t) {
        std::vector<Vertex> tuple = {
            static_cast<Vertex>(rng.UniformIndex(graph.order())),
            static_cast<Vertex>(rng.UniformIndex(graph.order()))};
        ExpectQueryParity(graph, formula, vars, tuple,
                          std::string(FamilyName(family)) + " formula " +
                              ToString(formula) + " tuple " +
                              std::to_string(tuple[0]) + "," +
                              std::to_string(tuple[1]));
      }
    }
  }
}

TEST(CompiledVsInterpreted, EnumeratedSliceOnAllTuplesAgrees) {
  Rng rng(7);
  Graph graph = MakeRandomTree(8, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  EnumerationOptions enumeration;
  enumeration.free_variables = {"x1"};
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 2;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 300;
  std::vector<FormulaRef> formulas = EnumerateFormulas(enumeration);
  ASSERT_GT(formulas.size(), 50u);
  const std::vector<std::string> vars = {"x1"};
  std::vector<std::vector<Vertex>> tuples = AllTuples(graph.order(), 1);
  for (const FormulaRef& formula : formulas) {
    std::vector<bool> interpreted =
        EvaluateOnTuples(graph, formula, vars, tuples, Interpreted());
    EXPECT_EQ(EvaluateOnTuples(graph, formula, vars, tuples,
                               WithEngine(EvalEngine::kVm)),
              interpreted)
        << ToString(formula);
  }
  // Batched and tuple-at-a-time evaluation agree too, for both engines.
  const FormulaRef spot = formulas[formulas.size() / 2];
  for (EvalEngine engine : kEngines) {
    std::vector<bool> batched =
        EvaluateOnTuples(graph, spot, vars, tuples, WithEngine(engine));
    for (size_t i = 0; i < tuples.size(); ++i) {
      EXPECT_EQ(
          EvaluateQuery(graph, spot, vars, tuples[i], WithEngine(engine)),
          batched[i])
          << ToString(spot) << " tuple " << i << " ["
          << EvalEngineName(engine) << "]";
    }
  }
}

TEST(CompiledVsInterpreted, GuardedShapesSpecialiseAndAgree) {
  Rng rng(41);
  Graph graph = MakeErdosRenyi(11, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  // The guard shapes the compiler recognises — the edge guard may sit
  // anywhere in the body's connective list — plus decoys with no
  // specialisable guard (wrong connective or degenerate atom) that must
  // stay unspecialised yet agree.
  struct Shape {
    const char* text;
    bool expect_guarded;
  };
  const Shape shapes[] = {
      {"exists y. (E(x, y) & Red(y))", true},
      {"forall y. (!E(x, y) | Red(y))", true},
      {"exists y. (Red(y) & E(x, y))", true},
      {"forall y. (Red(y) | !E(x, y))", true},
      {"exists y. (Red(y) & !E(x, y))", true},   // colour guard
      {"forall y. (!Red(y) | E(x, y))", true},   // ¬colour guard
      {"exists y. (Red(y) | E(x, y))", false},
      {"forall y. (E(x, y) | Red(y))", false},
      {"exists y. E(y, y)", false},
  };
  for (const Shape& shape : shapes) {
    FormulaRef formula = MustParseFormula(shape.text);
    CompiledFormula plan = CompileFormula(formula, vars);
    if (shape.expect_guarded) {
      EXPECT_GT(plan.guarded_nodes(), 0) << shape.text;
    } else {
      EXPECT_EQ(plan.guarded_nodes(), 0) << shape.text;
    }
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        std::string(shape.text) + " @" + std::to_string(v));
    }
  }
  // A maximal same-kind run fuses into one block; parity must survive it.
  // (No edge or colour guard in the inner body — a guardable inner level
  // would break the run in favour of the guarded loop.)
  FormulaRef fused =
      MustParseFormula("exists y. exists z. (Red(y) | Red(z))");
  CompiledFormula fused_plan = CompileFormula(fused, vars);
  EXPECT_GT(fused_plan.fused_levels(), 0) << "no fused quantifier block";
  for (Vertex v = 0; v < graph.order(); ++v) {
    ExpectQueryParity(graph, fused, vars, {v}, "fused @" + std::to_string(v));
  }
}

TEST(CompiledVsInterpreted, ClosedSubformulasMemoiseOncePerGraph) {
  Rng rng(5);
  Graph graph = MakePath(10);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  // "exists z. Red(z)" is sentence-valued under the outer quantifier: the
  // plan must give it a memo slot and the VM must compute it once.
  FormulaRef formula =
      MustParseFormula("forall y. (Red(y) | exists z. Red(z))");
  const std::vector<std::string> vars = {"x"};
  CompiledFormula plan = CompileFormula(formula, vars);
  EXPECT_GT(plan.num_memo_slots(), 0);
  LoweredPlan lowered = LowerPlan(plan);
  VmEvaluator evaluator(plan, lowered, graph);
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    bool interpreted =
        EvaluateQuery(graph, formula, vars, tuple, Interpreted());
    EXPECT_EQ(evaluator.Eval(tuple), interpreted) << "memo @" << v;
  }
}

TEST(CompiledVsInterpreted, CountingQuantifiersAgree) {
  Rng rng(13);
  Graph graph = MakeCycle(6);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  // Threshold reachable and unreachable (the latter exercises the early
  // abort).
  for (const char* text : {"exists>=2 y. E(x, y)", "exists>=3 y. E(x, y)",
                           "exists>=7 y. Red(y)",
                           "exists>=2 y. exists z. (E(y, z) & Red(z))"}) {
    FormulaRef formula = MustParseFormula(text);
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        std::string(text) + " @" + std::to_string(v));
    }
  }
}

// Every MSO formula of mso_test plus hand-built ones runs through the VM's
// set-loop opcodes (no fallback engine exists) and agrees with the
// interpreter.
TEST(CompiledVsInterpreted, MsoFormulasLowerAndAgree) {
  Rng rng(13);
  Graph cycle = MakeCycle(6);
  AddRandomColors(cycle, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  const FormulaRef open_formulas[] = {
      Formula::ExistsSet(
          "S", Formula::And(
                   Formula::SetMember("x", "S"),
                   Formula::Exists("y", Formula::And(
                                            Formula::Edge("x", "y"),
                                            Formula::Not(Formula::SetMember(
                                                "y", "S")))))),
      Formula::ForallSet("S",
                         Formula::Or(Formula::SetMember("x", "S"),
                                     Formula::Not(Formula::SetMember(
                                         "x", "S")))),
      MustParseFormula("existsset X. x in X"),
      MustParseFormula(
          "existsset X. (x in X & forallset Y. (x in Y | exists y. (y in X "
          "& !(y in Y) & Red(y))))"),
  };
  for (const FormulaRef& formula : open_formulas) {
    const LoweredPlan lowered = LowerPlan(CompileFormula(formula, vars));
    bool has_set_loop = false;
    for (const VmInst& inst : lowered.code) {
      has_set_loop |= inst.op == VmOp::kSetBegin;
    }
    EXPECT_TRUE(has_set_loop) << ToString(formula);
    for (Vertex v = 0; v < cycle.order(); ++v) {
      ExpectQueryParity(cycle, formula, vars, {v},
                        ToString(formula) + " @" + std::to_string(v));
    }
  }
  const FormulaRef sentences[] = {
      MsoConnectivitySentence(),
      MsoBipartiteSentence(),
      MsoIndependentDominatingSetSentence(),
      MustParseFormula(
          "forallset X. (exists x. x in X) -> forall y. y in X"),
      MustParseFormula(
          "existsset X. forall u. forall v. !E(u, v) | !(u in X)"),
  };
  Graph with_isolated = MakePath(4);
  with_isolated.AddVertex();
  const Graph graphs[] = {MakePath(6),
                          MakeCycle(5),
                          MakeCycle(6),
                          MakeStar(5),
                          MakeComplete(4),
                          MakeCompleteBipartite(3, 3),
                          DisjointUnion(MakePath(3), MakePath(3)),
                          with_isolated};
  for (const FormulaRef& sentence : sentences) {
    for (const Graph& graph : graphs) {
      ExpectQueryParity(graph, sentence, {}, {},
                        ToString(sentence) + " on order " +
                            std::to_string(graph.order()));
    }
  }
  Graph two_paths = DisjointUnion(MakePath(4), MakePath(4));
  FormulaRef same = MsoSameComponentFormula("x1", "x2");
  const std::vector<std::string> pair_vars = {"x1", "x2"};
  for (Vertex a = 0; a < two_paths.order(); ++a) {
    for (Vertex b = 0; b < two_paths.order(); ++b) {
      ExpectQueryParity(two_paths, same, pair_vars, {a, b},
                        "same-component " + std::to_string(a) + "," +
                            std::to_string(b));
    }
  }
  // The learned-style MSO classifier of mso_test, scored by both engines.
  Graph star_and_path = DisjointUnion(MakeStar(4), MakePath(5));
  Hypothesis h;
  h.formula = MsoSameComponentFormula("x1", "y1");
  h.query_vars = QueryVars(1);
  h.param_vars = ParamVars(1);
  h.parameters = {0};
  TrainingSet examples;
  for (Vertex v = 0; v < star_and_path.order(); ++v) {
    examples.push_back({{v}, v <= 4});
  }
  for (EvalEngine engine : kEngines) {
    EXPECT_EQ(TrainingError(star_and_path, h, examples, WithEngine(engine)),
              0.0)
        << EvalEngineName(engine);
  }
}

// A colour guard naming a colour the graph lacks: under
// missing_color_is_false the VM scans an empty domain and agrees with the
// interpreter, which evaluates the guard atom to false.
TEST(CompiledVsInterpreted, MissingGuardColourIsEmptyWhenLenient) {
  Rng rng(29);
  Graph graph = MakeErdosRenyi(9, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  EvalOptions lenient;
  lenient.missing_color_is_false = true;
  for (const char* text : {
           "exists y. (Ghost(y) & Red(y))",                  // cscan_atoms
           "forall y. (!Ghost(y) | Red(y))",                 // cscan_atoms
           "exists y. (Ghost(y) & exists z. (E(y, z) & Red(z)))",  // loop
           "forall y. (!Ghost(y) | exists z. E(y, z))",      // loop
           "Red(x) | exists y. (Ghost(y) & E(x, y))",        // edge guard
           "exists y. ((exists z. (E(y, z) & !E(y, z))) & Ghost(y))",
       }) {
    FormulaRef formula = MustParseFormula(text);
    EXPECT_GT(CompileFormula(formula, vars).guarded_nodes(), 0) << text;
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        std::string(text) + " @" + std::to_string(v),
                        lenient);
    }
  }
}

// Sweeps every trip point of a governed batch: a FaultInjector trip at
// each checkpoint, and every max-work budget, over one tuple per vertex.
// Both engines charge one unit per tuple, so status, work_used,
// checkpoints_passed and the verdicts decided before the trip are
// identical — and the decided verdicts are a prefix of the complete run.
void ExpectCutPointParity(const Graph& graph, const FormulaRef& formula,
                          const std::vector<std::string>& vars) {
  std::vector<std::vector<Vertex>> tuples;
  for (Vertex v = 0; v < graph.order(); ++v) {
    tuples.push_back(std::vector<Vertex>(vars.size(), v));
  }
  const std::vector<bool> complete =
      EvaluateOnTuples(graph, formula, vars, tuples, Interpreted());
  const int64_t total = static_cast<int64_t>(tuples.size());
  for (int64_t cut = 1; cut <= total + 1; ++cut) {
    for (bool budget : {false, true}) {
      FaultInjector injector(cut);
      std::vector<ResourceGovernor> governors;
      governors.reserve(2);
      std::vector<std::vector<bool>> verdicts;
      for (EvalEngine engine : kEngines) {
        if (budget) {
          governors.emplace_back(GovernorLimits{kNoLimit, cut});
        } else {
          governors.emplace_back(GovernorLimits{}, nullptr, &injector);
        }
        EvalOptions options = WithEngine(engine);
        options.governor = &governors.back();
        EvalStats stats;
        verdicts.push_back(
            EvaluateOnTuples(graph, formula, vars, tuples, options, &stats));
        EXPECT_EQ(stats.status, governors.back().status());
      }
      const std::string label = ToString(formula) +
                                (budget ? " max-work=" : " trip=") +
                                std::to_string(cut);
      const ResourceGovernor& interpreted = governors[0];
      const ResourceGovernor& vm = governors[1];
      EXPECT_EQ(vm.status(), interpreted.status()) << label;
      EXPECT_EQ(vm.work_used(), interpreted.work_used()) << label;
      EXPECT_EQ(vm.checkpoints_passed(), interpreted.checkpoints_passed())
          << label;
      EXPECT_EQ(verdicts[1], verdicts[0]) << label;
      const int64_t decided =
          budget ? std::min(cut, total) : std::min(cut - 1, total);
      ASSERT_EQ(static_cast<int64_t>(verdicts[0].size()), decided) << label;
      EXPECT_TRUE(std::equal(verdicts[0].begin(), verdicts[0].end(),
                             complete.begin()))
          << label;
      EXPECT_EQ(interpreted.Interrupted(), decided < total) << label;
    }
  }
}

TEST(CompiledVsInterpreted, GovernorCutPointsMatchAtEveryCheckpoint) {
  Rng rng(99);
  Graph graph = MakeErdosRenyi(8, 0.35, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  for (const char* text : {
           "forall y. exists z. E(y, z)",
           "exists y. (E(x, y) & Red(y))",
           "forall y. (!E(x, y) | Red(y))",
           "exists y. exists z. (Red(y) & E(y, z))",
           "exists>=2 y. E(x, y)",
       }) {
    ExpectCutPointParity(graph, MustParseFormula(text), vars);
  }
  ExpectCutPointParity(
      MakeCycle(4),
      Formula::ExistsSet("S", Formula::Forall(
                                  "y", Formula::Or(
                                           Formula::SetMember("y", "S"),
                                           Formula::Edge("x", "y")))),
      vars);
}

// One sentence is one work unit on either engine: a budget of 1 lets any
// sentence finish, and the same budget cuts a batch after one tuple.
TEST(CompiledVsInterpreted, WorkBudgetsTripIdentically) {
  Rng rng(17);
  Graph graph = MakeErdosRenyi(9, 0.3, rng);
  FormulaRef sentence = MustParseFormula("forall y. exists z. E(y, z)");
  const bool truth = EvaluateSentence(graph, sentence, Interpreted());
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. E(x1, z)"), QueryVars(1),
      AllTuples(graph.order(), 1));
  Hypothesis hypothesis;
  hypothesis.query_vars = QueryVars(1);
  hypothesis.formula = MustParseFormula("exists z. (E(x1, z) & z = z)");
  for (EvalEngine engine : kEngines) {
    const std::string label = EvalEngineName(engine);
    ResourceGovernor one(GovernorLimits{kNoLimit, 1});
    EvalOptions options = WithEngine(engine);
    options.governor = &one;
    EXPECT_EQ(EvaluateSentence(graph, sentence, options), truth) << label;
    EXPECT_EQ(one.status(), RunStatus::kComplete) << label;
    EXPECT_EQ(one.work_used(), 1) << label;
    for (int64_t budget : {int64_t{1}, int64_t{3}, int64_t{9}}) {
      ResourceGovernor governor(GovernorLimits{kNoLimit, budget});
      options.governor = &governor;
      TrainingError(graph, hypothesis, examples, options);
      EXPECT_EQ(governor.status(), budget < graph.order()
                                       ? RunStatus::kBudgetExhausted
                                       : RunStatus::kComplete)
          << label << " budget=" << budget;
      EXPECT_EQ(governor.work_used(), std::min<int64_t>(budget + 1,
                                                         graph.order()))
          << label << " budget=" << budget;
    }
  }
}

// A deadline, cancellation or memory trip inside one tuple's evaluation
// (a back-edge poll) unwinds without writing a memo: the same warm VM
// answers later calls exactly like the interpreter. The memory budget is
// pushed over its limit after the governor's first clock probe, so the
// trip lands deterministically at the 256th poll of the next tuple.
TEST(CompiledVsInterpreted, PollTripMidTupleLeavesMemoIntact) {
  Rng rng(61);
  Graph graph = MakePath(20);
  AddRandomColors(graph, {"Red"}, 0.3, rng);
  // The closed disjunct is true on any graph without isolated vertices
  // and takes 20 × 20 fused loop iterations, far past 256 polls.
  FormulaRef formula = MustParseFormula(
      "Red(x) | forall u. forall v. exists w. (E(u, w) | u = v | E(v, w))");
  const std::vector<std::string> vars = {"x"};
  CompiledFormula plan = CompileFormula(formula, vars);
  ASSERT_GT(plan.num_memo_slots(), 0);
  LoweredPlan lowered = LowerPlan(plan);
  VmEvaluator evaluator(plan, lowered, graph);
  Vertex blue = 0;
  while (graph.HasColor(blue, *graph.FindColor("Red"))) ++blue;
  for (EvalEngine engine : kEngines) {
    MemBudget budget(1000);
    GovernorLimits limits;
    limits.mem_budget = &budget;
    ResourceGovernor governor(limits);
    ASSERT_TRUE(governor.Checkpoint());  // the first clock/memory probe
    budget.Charge(2000);
    const std::vector<Vertex> tuple = {blue};
    if (engine == EvalEngine::kVm) {
      evaluator.set_governor(&governor);
      evaluator.Eval(tuple);
      evaluator.set_governor(nullptr);
    } else {
      EvalOptions options = Interpreted();
      options.governor = &governor;
      EvaluateQuery(graph, formula, vars, tuple, options);
    }
    const std::string label = EvalEngineName(engine);
    EXPECT_EQ(governor.status(), RunStatus::kResourceExhausted) << label;
    EXPECT_EQ(governor.work_used(), 2) << label;  // polls charge nothing
    budget.Release(2000);
  }
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    EXPECT_TRUE(evaluator.Eval(tuple)) << v;
    EXPECT_TRUE(EvaluateQuery(graph, formula, vars, tuple, Interpreted()))
        << v;
  }
}

// The E9 grid: training error, formulas tried, run status, governor
// ledger, and serialised model bytes must be identical across
// {interpreted, vm} × {1, 2, 8} threads, with and without an injected
// trip or a max-work budget mid-grid.
TEST(CompiledVsInterpreted, EnumerationErmGridIsModeAndThreadInvariant) {
  Rng rng(321);
  Graph graph = MakeRandomTree(12, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 2 * graph.order(), rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"), QueryVars(1),
      tuples);
  FlipLabels(examples, 0.3, rng);
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 400;

  enum class Cut { kNone, kInjected, kBudget };
  for (Cut cut : {Cut::kNone, Cut::kInjected, Cut::kBudget}) {
    EnumerationErmResult base;
    int64_t base_work = 0;
    int64_t base_checkpoints = 0;
    bool first = true;
    for (int threads : {1, 2, 8}) {
      for (EvalEngine engine : kEngines) {
        FaultInjector injector(57);
        ResourceGovernor governor(
            GovernorLimits{kNoLimit, cut == Cut::kBudget ? 57 : kNoLimit},
            nullptr, cut == Cut::kInjected ? &injector : nullptr);
        EnumerationErmResult result =
            EnumerationErm(graph, examples, 0, enumeration,
                           cut == Cut::kNone ? nullptr : &governor, threads,
                           WithEngine(engine));
        const std::string label =
            "cut=" + std::to_string(static_cast<int>(cut)) +
            " threads=" + std::to_string(threads) + " " +
            EvalEngineName(engine);
        if (cut != Cut::kNone) {
          EXPECT_TRUE(IsInterrupted(result.status)) << label;
        } else {
          EXPECT_EQ(result.status, RunStatus::kComplete) << label;
        }
        if (first) {
          base = result;
          base_work = governor.work_used();
          base_checkpoints = governor.checkpoints_passed();
          first = false;
          continue;
        }
        EXPECT_EQ(result.training_error, base.training_error) << label;
        EXPECT_EQ(result.formulas_tried, base.formulas_tried) << label;
        EXPECT_EQ(result.status, base.status) << label;
        EXPECT_EQ(governor.work_used(), base_work) << label;
        EXPECT_EQ(governor.checkpoints_passed(), base_checkpoints) << label;
        ASSERT_EQ(result.hypothesis.formula != nullptr,
                  base.hypothesis.formula != nullptr)
            << label;
        if (base.hypothesis.formula != nullptr) {
          EXPECT_EQ(HypothesisToText(result.hypothesis),
                    HypothesisToText(base.hypothesis))
              << label;
        }
      }
    }
  }
}

TEST(CompiledVsInterpreted, TrainingErrorMatchesAcrossModes) {
  Rng rng(55);
  Graph graph = MakeRandomTree(15, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 40, rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. E(x1, z)"), QueryVars(1), tuples);
  FlipLabels(examples, 0.25, rng);
  Hypothesis hypothesis;
  hypothesis.query_vars = QueryVars(1);
  hypothesis.param_vars = {"y1"};
  hypothesis.parameters = {Vertex{2}};
  hypothesis.formula = MustParseFormula("E(x1, y1) | Red(x1)");
  const EvalOptions vm = WithEngine(EvalEngine::kVm);
  EXPECT_EQ(TrainingError(graph, hypothesis, examples, vm),
            TrainingError(graph, hypothesis, examples, Interpreted()));
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(hypothesis.Classify(graph, example.tuple, vm),
              hypothesis.Classify(graph, example.tuple, Interpreted()));
  }
}

// VM-specific surfaces: per-opcode dispatch counters, the lower/exec
// timing split, and superinstruction coverage.
TEST(CompiledVsInterpreted, VmStatsExposeDispatchCountersAndTimers) {
  Rng rng(23);
  Graph graph = MakeErdosRenyi(10, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  FormulaRef formula =
      MustParseFormula("exists y. (E(x, y) & exists z. (Red(z) & E(y, z)))");
  const std::vector<std::string> vars = {"x"};
  const std::vector<Vertex> tuple = {0};
  EvalStats vm_stats;
  EvaluateQuery(graph, formula, vars, tuple, WithEngine(EvalEngine::kVm),
                &vm_stats);
  ASSERT_EQ(vm_stats.vm_op_dispatches.size(),
            static_cast<size_t>(kNumVmOps));
  int64_t dispatched = 0;
  for (int64_t count : vm_stats.vm_op_dispatches) dispatched += count;
  EXPECT_GT(dispatched, 0);
  EXPECT_GE(vm_stats.lower_ms, 0.0);
  EXPECT_GT(vm_stats.exec_ms, 0.0);
  // The interpreter never populates the VM surfaces.
  EvalStats interpreted_stats;
  EvaluateQuery(graph, formula, vars, tuple, Interpreted(),
                &interpreted_stats);
  EXPECT_TRUE(interpreted_stats.vm_op_dispatches.empty());
  EXPECT_EQ(interpreted_stats.lower_ms, 0.0);
}

TEST(CompiledVsInterpreted, VmLowersSuperinstructionsForGuardedShapes) {
  const std::vector<std::string> vars = {"x"};
  // Neighbour scan with a foldable body, colour-class scan, equality
  // bind, counting loop: each should fuse into a superinstruction.
  for (const char* text :
       {"exists y. (E(x, y) & Red(y))", "exists y. (Red(y) & E(x, y))",
        "exists y. (y = x & Red(y))", "exists>=2 y. E(x, y)"}) {
    CompiledFormula plan = CompileFormula(MustParseFormula(text), vars);
    LoweredPlan lowered = LowerPlan(plan);
    EXPECT_GT(lowered.superinstructions, 0) << text;
    EXPECT_EQ(lowered.code.back().op, VmOp::kHaltTripped) << text;
  }
}

// PrepareFormulas + the prepared-span EnumerationErm overload must give
// the byte-identical result of the FormulaRef overload on every engine.
TEST(CompiledVsInterpreted, PreparedFormulasMatchUnpreparedGrid) {
  Rng rng(77);
  Graph graph = MakeRandomTree(10, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, graph.order(), rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. E(x1, z)"), QueryVars(1), tuples);
  FlipLabels(examples, 0.3, rng);
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 150;
  std::vector<FormulaRef> formulas = EnumerateFormulas(enumeration);
  ASSERT_GT(formulas.size(), 20u);
  for (EvalEngine engine : kEngines) {
    EvalOptions eval = WithEngine(engine);
    EnumerationErmResult plain = EnumerationErm(
        graph, examples, 0, std::span<const FormulaRef>(formulas), nullptr,
        /*threads=*/2, eval);
    std::vector<PreparedFormula> prepared =
        PrepareFormulas(formulas, /*k=*/1, /*ell=*/0, engine);
    EnumerationErmResult from_prepared = EnumerationErm(
        graph, examples, 0, std::span<const PreparedFormula>(prepared),
        nullptr, /*threads=*/2, eval);
    const std::string label = EvalEngineName(engine);
    EXPECT_EQ(from_prepared.training_error, plain.training_error) << label;
    EXPECT_EQ(from_prepared.formulas_tried, plain.formulas_tried) << label;
    EXPECT_EQ(HypothesisToText(from_prepared.hypothesis),
              HypothesisToText(plain.hypothesis))
        << label;
  }
}

// The Assignment rework (per-name stacks + last-binding cache) must keep
// the stack semantics and the fatal misuse diagnostics.
TEST(CompiledVsInterpreted, AssignmentStackSemanticsSurviveRework) {
  Assignment assignment;
  assignment.Bind("x", 1);
  assignment.Bind("y", 2);
  assignment.Bind("x", 3);  // shadows
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(3));
  assignment.Rebind("x", 4);  // overwrites the innermost binding only
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(4));
  assignment.Unbind("x");
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(1));
  EXPECT_EQ(assignment.Lookup("y"), std::optional<Vertex>(2));
  assignment.Unbind("x");
  EXPECT_EQ(assignment.Lookup("x"), std::nullopt);
  // Emptied stacks are retained for reuse; binding again works.
  assignment.Bind("x", 7);
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(7));
}

TEST(CompiledVsInterpretedDeath, AssignmentMisuseStillDies) {
  Assignment assignment;
  EXPECT_DEATH(assignment.Rebind("ghost", 0),
               "rebinding unbound variable 'ghost'");
  EXPECT_DEATH(assignment.Unbind("ghost"),
               "unbinding unbound variable 'ghost'");
}

// Strict mode: the VM CHECK-fails as soon as it reaches a quantifier
// guarded by a colour the graph lacks — here where the interpreter's
// short-circuit (the first conjunct is never true) never evaluates the
// atom.
TEST(CompiledVsInterpretedDeath, MissingGuardColourDiesWhenReached) {
  Graph graph = MakePath(4);
  FormulaRef formula = MustParseFormula(
      "exists y. ((exists z. (E(y, z) & !E(y, z))) & Ghost(y))");
  const std::vector<std::string> vars = {"x"};
  const std::vector<Vertex> tuple = {0};
  EXPECT_FALSE(EvaluateQuery(graph, formula, vars, tuple, Interpreted()));
  EXPECT_DEATH(EvaluateQuery(graph, formula, vars, tuple),
               "colour 'Ghost' not in the graph's vocabulary");
  EXPECT_DEATH(
      EvaluateQuery(graph, MustParseFormula("forall y. (!Ghost(y) | "
                                            "exists z. E(y, z))"),
                    vars, tuple),
      "colour 'Ghost' not in the graph's vocabulary");
}

TEST(CompiledVsInterpretedDeath, MsoMisuseDiesOnBothEngines) {
  FormulaRef free_set = MustParseFormula("x in X");
  const std::vector<std::string> vars = {"x"};
  const std::vector<Vertex> tuple = {0};
  for (EvalEngine engine : kEngines) {
    EXPECT_DEATH(EvaluateQuery(MakePath(3), free_set, vars, tuple,
                               WithEngine(engine)),
                 "unbound set variable 'X'");
    EXPECT_DEATH(EvaluateSentence(MakePath(23), MsoBipartiteSentence(),
                                  WithEngine(engine)),
                 "2\\^n");
  }
}

TEST(CompiledVsInterpretedDeath, BothEnginesRejectInvalidVertices) {
  Graph graph = MakePath(3);
  FormulaRef formula = MustParseFormula("E(x, y)");
  const std::vector<std::string> vars = {"x", "y"};
  const std::vector<Vertex> bad = {Vertex{0}, Vertex{9}};
  EXPECT_DEATH(EvaluateQuery(graph, formula, vars, bad),
               "variable 'y' bound to invalid vertex 9");
  EXPECT_DEATH(EvaluateQuery(graph, formula, vars, bad, Interpreted()),
               "variable 'y' bound to invalid vertex 9");
}

}  // namespace
}  // namespace folearn
