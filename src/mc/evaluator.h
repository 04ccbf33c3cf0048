#ifndef FOLEARN_MC_EVALUATOR_H_
#define FOLEARN_MC_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fo/formula.h"
#include "graph/graph.h"
#include "util/governor.h"

namespace folearn {

// A variable assignment for formula evaluation. Bindings form a stack so
// quantifier scoping (shadowing) works naturally.
//
// Internally each distinct name owns its own value stack (evaluation
// touches a handful of names, so the name list is a small vector), and the
// index of the most recently touched name is cached: the common pattern —
// a quantifier loop binding/reading/unbinding the same variable — runs
// without any string comparison after the first access.
class Assignment {
 public:
  Assignment() = default;

  // Builds an assignment binding vars[i] ↦ values[i].
  Assignment(std::span<const std::string> vars,
             std::span<const Vertex> values);

  void Bind(const std::string& var, Vertex value) {
    FindOrCreate(var).values.push_back(value);
  }

  // Overwrites the innermost binding of `var` (which must exist) — the
  // re-binding idiom of batched evaluation loops.
  void Rebind(const std::string& var, Vertex value);

  // Pops the most recent binding of `var`.
  void Unbind(const std::string& var);

  // Innermost binding of `var`, if any.
  std::optional<Vertex> Lookup(const std::string& var) const;

  // --- MSO set bindings (set variables live in their own namespace) ------
  using SetValue = std::shared_ptr<const std::vector<bool>>;

  void BindSet(const std::string& set_var, SetValue members) {
    FindOrCreateSet(set_var).values.push_back(std::move(members));
  }
  void UnbindSet(const std::string& set_var);
  // Innermost binding of `set_var`, or nullptr.
  SetValue LookupSet(const std::string& set_var) const;

 private:
  // Per-name binding stack. Emptied stacks stay in place so repeated
  // bind/unbind cycles reuse their capacity and keep the cache index valid.
  struct VarStack {
    std::string name;
    std::vector<Vertex> values;
  };
  struct SetStack {
    std::string name;
    std::vector<SetValue> values;
  };

  VarStack& FindOrCreate(const std::string& var);
  const VarStack* Find(const std::string& var) const;
  SetStack& FindOrCreateSet(const std::string& set_var);
  const SetStack* FindSet(const std::string& set_var) const;

  std::vector<VarStack> stacks_;
  std::vector<SetStack> set_stacks_;
  // Index into stacks_ of the most recently accessed name.
  mutable size_t last_hit_ = 0;
};

// Which engine evaluates formulas. Both return identical verdicts and
// charge a governor at identical points (one work unit per evaluated
// tuple — see EvalOptions::governor), enforced by the differential grid in
// compiled_vs_interpreted_test; they differ only in speed:
//  * kVm — the formula is compiled (mc/compiler.h), lowered to register
//    bytecode (mc/bytecode.h) and run by a threaded-dispatch VM
//    (mc/vm.h). The default and the fast engine, for FO, FO+C and MSO.
//  * kInterpreted — the recursive reference interpreter, the verdict
//    oracle the VM is differentially tested against.
enum class EvalEngine : uint8_t {
  kVm,
  kInterpreted,
};

// CLI-facing engine names: "vm", "interpreted".
const char* EvalEngineName(EvalEngine engine);
// Inverse of EvalEngineName; nullopt for unknown names.
std::optional<EvalEngine> ParseEvalEngine(const std::string& name);

// Optional instrumentation for the evaluation experiments (E6).
struct EvalStats {
  // Interpreter-only diagnostics: atoms evaluated and quantifier branches
  // (one per vertex binding or MSO subset) taken. The VM does not count
  // them; they are not the governor's work unit.
  int64_t atom_evaluations = 0;
  int64_t quantifier_branches = 0;
  // Wall-clock split of the VM path: plan compilation, bytecode lowering
  // (both amortized across calls when plans are cached), and bytecode
  // execution, accumulated across calls. All stay zero on the interpreter
  // (and when no stats sink is attached the clock is never read at all).
  double compile_ms = 0.0;
  double lower_ms = 0.0;
  double exec_ms = 0.0;
  // Per-opcode dispatch tallies of the VM program, indexed by VmOp
  // (mc/bytecode.h; names via VmOpName). Empty until a VM evaluation ran
  // with this sink; sized kNumVmOps afterwards.
  std::vector<int64_t> vm_op_dispatches;
  // Memo-table entries dropped to honour EvalOptions::cache_bytes (VM
  // only; stays 0 when the budget is unlimited). Purely a performance
  // signal: verdicts are identical with any budget.
  int64_t cache_evictions = 0;
  // kComplete: the returned truth value is exact. Otherwise the governor
  // tripped mid-evaluation and the returned value is unspecified.
  RunStatus status = RunStatus::kComplete;
};

struct EvalOptions {
  // If true, colour atoms naming colours absent from the graph's vocabulary
  // evaluate to false (used after vocabulary-erasing transformations); if
  // false, such atoms CHECK-fail — the safer default for catching bugs.
  // The VM also CHECK-fails, in strict mode, as soon as it reaches a
  // quantifier guarded by such a colour, even if the interpreter's
  // short-circuit would never have evaluated the atom.
  bool missing_color_is_false = false;
  // Engine for EvaluateSentence/EvaluateQuery/EvaluateOnTuples and
  // everything layered on them (training error, dataset labelling,
  // enumeration ERM).
  EvalEngine engine = EvalEngine::kVm;
  // Optional resource governor (nullptr = ungoverned). Work unit: one
  // evaluated tuple — each engine calls Checkpoint() once when it starts
  // evaluating a tuple (one sentence, one query tuple, one example), so
  // max_work and FaultInjector cut points are identical across engines
  // and thread counts. Deadline, cancellation and the memory budget are
  // additionally polled (ResourceGovernor::Poll, no work charged) at every
  // quantifier loop iteration. On a trip the evaluation unwinds
  // immediately; the returned bool is then unspecified — check
  // `stats->status` or the governor itself.
  ResourceGovernor* governor = nullptr;
  // Byte budget for the evaluation-side memo tables (the VM's
  // colour-member lists and the enumeration-ERM plan caches); −1 =
  // unbounded. Memos over budget are recomputed on demand instead of
  // retained, with deterministic (insertion-order) eviction; results are
  // identical with any budget. Evictions are reported via
  // EvalStats::cache_evictions.
  int64_t cache_bytes = -1;
};

// The FO-MC substrate (paper §4): decides G ⊨ φ under `assignment` by the
// standard recursive semantics. All free variables of φ must be bound.
// Cost O(n^q · |φ|) — XP in the quantifier rank; this is the library's
// stand-in for an FPT model checker (see DESIGN.md §4 for the
// substitution rationale). Graphs must be non-empty when a quantifier is
// evaluated (finite-model-theory convention: no empty structures).
//
// MSO: set quantifiers are evaluated by enumerating all 2^n subsets —
// structures up to ~22 vertices only (CHECK-enforced).
//
// This entry point always runs the recursive interpreter: it is the
// reference oracle the VM (mc/vm.h) is differentially tested against. It
// charges options.governor one work unit. The sentence/query/tuple-batch
// helpers below run options.engine.
bool Evaluate(const Graph& graph, const FormulaRef& formula,
              const Assignment& assignment, const EvalOptions& options = {},
              EvalStats* stats = nullptr);

// G ⊨ φ for a sentence φ (no free variables).
bool EvaluateSentence(const Graph& graph, const FormulaRef& sentence,
                      const EvalOptions& options = {},
                      EvalStats* stats = nullptr);

// G ⊨ φ(v̄) binding vars[i] ↦ tuple[i].
bool EvaluateQuery(const Graph& graph, const FormulaRef& formula,
                   std::span<const std::string> vars,
                   std::span<const Vertex> tuple,
                   const EvalOptions& options = {},
                   EvalStats* stats = nullptr);

// Evaluates φ(x1, …, xk) on every k-tuple in `tuples` (query answering),
// in order. One plan is compiled and reused across all tuples (the
// interpreter likewise builds its assignment once and rebinds per tuple).
// If the governor trips, the result holds the verdicts of the tuples
// decided before the trip only.
std::vector<bool> EvaluateOnTuples(
    const Graph& graph, const FormulaRef& formula,
    std::span<const std::string> vars,
    const std::vector<std::vector<Vertex>>& tuples,
    const EvalOptions& options = {}, EvalStats* stats = nullptr);

}  // namespace folearn

#endif  // FOLEARN_MC_EVALUATOR_H_
