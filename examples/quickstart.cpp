// Quickstart: the paper's introductory George & Bill example (Section 1),
// driven through the public API.
//
// You share a corridor with George and Bill's office.  Letters: g = George
// is in the office, b = Bill is in the office.  You hear a voice, so you
// believe T = g | b.  Then you see George outside: P = !g.
//
//   * Belief REVISION (your earlier belief was about an unchanged world,
//     part of it was simply wrong): since T & P is consistent, the revised
//     belief is T & P, and you conclude the voice was Bill's.
//   * Knowledge UPDATE (the world may have changed between observations):
//     Winslett's operator updates each model of T separately, and you can
//     no longer conclude that Bill is in the office.

#include <cstdio>

#include "core/knowledge_base.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "revision/operator.h"

int main() {
  using namespace revise;

  Vocabulary vocabulary;
  const Theory belief = Theory::ParseOrDie("g | b", &vocabulary);
  const Formula observation = ParseOrDie("!g", &vocabulary);
  const Formula bill_in_office = ParseOrDie("b", &vocabulary);

  std::printf("initial belief T:      g | b   (someone is in the office)\n");
  std::printf("new information P:     !g      (George is in the corridor)\n\n");

  // --- Revision: Dalal's operator. ---
  // Create rejects operator/strategy pairs the paper rules out (compact
  // GFUV or Nebel); value() aborts on such an error.
  KnowledgeBase revision =
      KnowledgeBase::Create(belief, OperatorById(OperatorId::kDalal),
                            RevisionStrategy::kDelayed, &vocabulary)
          .value();
  revision.Revise(observation);
  std::printf("[revision, Dalal]   T * P |= b ?   %s\n",
              revision.Ask(bill_in_office) ? "yes -- the voice was Bill's"
                                           : "no");

  // --- Update: Winslett's possible-models approach. ---
  KnowledgeBase update =
      KnowledgeBase::Create(belief, OperatorById(OperatorId::kWinslett),
                            RevisionStrategy::kDelayed, &vocabulary)
          .value();
  update.Revise(observation);
  std::printf("[update, Winslett]  T * P |= b ?   %s\n\n",
              update.Ask(bill_in_office)
                  ? "yes"
                  : "no  -- no evidence Bill is there");

  // Peek at the model sets behind the two answers.
  const Alphabet alphabet = revision.CurrentAlphabet();
  std::printf("models after revision: ");
  for (const Interpretation& m : revision.Models()) {
    std::printf("%s ", m.ToString(alphabet, vocabulary).c_str());
  }
  std::printf("\nmodels after update:   ");
  for (const Interpretation& m : update.Models()) {
    std::printf("%s ", m.ToString(alphabet, vocabulary).c_str());
  }
  std::printf("\n\nAll nine operators on the same pair:\n");
  for (const RevisionOperator* op : AllOperators()) {
    const ModelSet models = op->ReviseModels(belief, observation, alphabet);
    std::printf("  %-8s -> %zu model(s):", std::string(op->name()).c_str(),
                models.size());
    for (const Interpretation& m : models) {
      std::printf(" %s", m.ToString(alphabet, vocabulary).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
