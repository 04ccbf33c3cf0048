#ifndef FOLEARN_FO_MSO_H_
#define FOLEARN_FO_MSO_H_

#include <cstdint>

#include "fo/formula.h"

namespace folearn {

// Canned MSO sentences — the classic properties beyond FO that the
// Grohe–Turán framework (the paper's origin, [23]) studies learnability
// for. Evaluation enumerates subsets, so these are for small structures
// (the testing/teaching regime).

// "G is connected": every non-empty, edge-closed set contains every vertex.
//   ∀X ((∃x x∈X) ∧ ∀u∀v (u∈X ∧ E(u,v) → v∈X) → ∀w w∈X).
FormulaRef MsoConnectivitySentence();

// "G is 2-colourable (bipartite)": ∃X ∀u∀v (E(u,v) → (u∈X ↔ ¬v∈X)).
FormulaRef MsoBipartiteSentence();

// "x and y are in the same connected component":
//   ∀X (x∈X ∧ closure → y∈X), free element variables `x`, `y`.
FormulaRef MsoSameComponentFormula(const std::string& x,
                                   const std::string& y);

// "G has an independent dominating set":
//   ∃X (independent(X) ∧ dominating(X)).
FormulaRef MsoIndependentDominatingSetSentence();

// Upper bound on the number of quantifier branches (EvalStats::
// quantifier_branches) the recursive evaluator can spend on `formula` over
// a structure with `order` vertices. Set quantifiers contribute 2^order
// branches each. Saturates instead of overflowing.
int64_t MsoEvaluationWorkBound(const FormulaRef& formula, int order);

}  // namespace folearn

#endif  // FOLEARN_FO_MSO_H_
