// Formula evaluation under an interpretation.

#ifndef REVISE_LOGIC_EVALUATE_H_
#define REVISE_LOGIC_EVALUATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"

namespace revise {

// Evaluates `f` under interpretation `m` over `alphabet`.  Variables of `f`
// absent from the alphabet evaluate to false (interpretations are identified
// with the set of letters mapped to true, so unmentioned letters are false,
// matching the paper's convention for L-interpretations extended to larger
// alphabets).  The production paths use TruthTable; this stays as the
// independent reference the tests and fuzz oracles check it against.
bool Evaluate(const Formula& f, const Alphabet& alphabet,
              const Interpretation& m);

// The widest letter list TruthTable accepts, and so the widest V(P) the
// Proposition 2.1 candidate path and V(q) the model-set entailment check
// tabulate (2^16 bits = 8 KiB per table).
inline constexpr size_t kMaxTruthTableLetters = 16;

// The packed truth table of `f` over k = letters.size() distinct letters,
// k <= kMaxTruthTableLetters: max(1, 2^k / 64) words, bit t (bit t % 64 of
// word t / 64) being the value of `f` when letters[j] takes bit j of t.
// Letters of `f` outside the list are false, as in Evaluate; bits at and
// above 2^k are zero.  One bit-parallel pass over the DAG, each node
// computed once for 64 assignments per word.
std::vector<uint64_t> TruthTable(const Formula& f,
                                 std::span<const Var> letters);

// Bit t of a TruthTable result.
inline bool TruthTableBit(std::span<const uint64_t> table, uint64_t t) {
  return (table[t >> 6] >> (t & 63)) & 1;
}

}  // namespace revise

#endif  // REVISE_LOGIC_EVALUATE_H_
