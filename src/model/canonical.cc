#include "model/canonical.h"

#include <vector>

namespace revise {

Formula CanonicalDnf(const ModelSet& models) {
  if (models.empty()) return Formula::False();
  // One literal node per letter and sign, shared by every minterm: |M| models
  // over |A| letters allocate |M| + 2|A| + 1 nodes, while VarOccurrences()
  // still counts the |M| * |A| literals as written.
  const Alphabet& alphabet = models.alphabet();
  std::vector<Formula> positive;
  std::vector<Formula> negative;
  positive.reserve(alphabet.size());
  negative.reserve(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    positive.push_back(Formula::Variable(alphabet.var(i)));
    negative.push_back(Formula::Not(positive.back()));
  }
  std::vector<Formula> literals(alphabet.size());
  std::vector<Formula> minterms;
  minterms.reserve(models.size());
  for (const Interpretation& m : models) {
    for (size_t i = 0; i < alphabet.size(); ++i) {
      literals[i] = m.Get(i) ? positive[i] : negative[i];
    }
    minterms.push_back(ConjoinAll(literals));
  }
  return DisjoinAll(minterms);
}

}  // namespace revise
