// The uniform revision-operator interface and the nine concrete operators
// analyzed by the paper.
//
// Every operator exposes:
//   * ReviseModels  — the model set of T * P over V(T) ∪ V(P) (reference
//                     semantics; the ground truth all other machinery is
//                     validated against),
//   * ReviseFormula — an explicit propositional representation of T * P
//                     (the "naive" representation whose size Tables 1-2
//                     reason about),
//   * Entails       — the inference problem T * P |= Q,
//   * IsModel       — the model-checking problem M |= T * P.

#ifndef REVISE_REVISION_OPERATOR_H_
#define REVISE_REVISION_OPERATOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "logic/theory.h"
#include "model/model_set.h"

namespace revise {

enum class OperatorId {
  kGfuv,
  kNebel,
  kWidtio,
  kWinslett,
  kBorgida,
  kForbus,
  kSatoh,
  kDalal,
  kWeber,
};

// The alphabet X = V(T) ∪ V(P) over which the revision is interpreted.
[[nodiscard]] Alphabet RevisionAlphabet(const Theory& t, const Formula& p);

class RevisionOperator {
 public:
  virtual ~RevisionOperator() = default;

  virtual OperatorId id() const = 0;
  virtual std::string_view name() const = 0;
  // Formula-based operators are sensitive to the syntactic form of T.
  virtual bool is_formula_based() const = 0;

  // Models of T * P over `alphabet`, which must contain V(T) ∪ V(P).
  [[nodiscard]] virtual ModelSet ReviseModels(
      const Theory& t, const Formula& p, const Alphabet& alphabet) const = 0;
  [[nodiscard]] ModelSet ReviseModels(const Theory& t, const Formula& p) const {
    return ReviseModels(t, p, RevisionAlphabet(t, p));
  }

  // An explicit formula logically equivalent to T * P.  The default
  // renders the canonical DNF of ReviseModels; formula-based operators
  // override it with their structural representation.
  [[nodiscard]] virtual Formula ReviseFormula(const Theory& t,
                                              const Formula& p) const;

  // T * P |= q.  Letters of q outside V(T) ∪ V(P) are unconstrained in
  // T * P, so q must hold for every value of them; there is no bound on
  // how many there are (EntailedByModels, solve/services.h).
  [[nodiscard]] bool Entails(const Theory& t, const Formula& p,
                             const Formula& q) const;

  // M |= T * P, with M given over `alphabet` ⊇ V(T) ∪ V(P).
  [[nodiscard]] bool IsModel(const Theory& t, const Formula& p,
                             const Interpretation& m,
                             const Alphabet& alphabet) const;
};

// A model-based operator: semantics depends only on M(T) and M(P).
class ModelBasedOperator : public RevisionOperator {
 public:
  bool is_formula_based() const override { return false; }

  // The pure set-level semantics (exposed so iterated revision can run on
  // model sets directly).
  [[nodiscard]] virtual ModelSet ReviseModelSets(const ModelSet& mt,
                                                 const ModelSet& mp) const = 0;

  // One revision step on model sets: M(T * P) over mt's alphabet, which
  // must contain V(P), from `mt` = M(T) over that alphabet.  The one entry
  // point behind ReviseModels and the explicit KnowledgeBase fold (which
  // passes the model set it already holds); it owns the revise.<name>
  // profile and flight scopes and the revise.operations counter.
  [[nodiscard]] ModelSet ReviseModelSet(const ModelSet& mt,
                                        const Formula& p) const;

  // ReviseModelSet on M(T) enumerated over `alphabet`.
  ModelSet ReviseModels(const Theory& t, const Formula& p,
                        const Alphabet& alphabet) const override;
};

class WinslettOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kWinslett; }
  std::string_view name() const override { return "Winslett"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class BorgidaOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kBorgida; }
  std::string_view name() const override { return "Borgida"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class ForbusOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kForbus; }
  std::string_view name() const override { return "Forbus"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class SatohOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kSatoh; }
  std::string_view name() const override { return "Satoh"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class DalalOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kDalal; }
  std::string_view name() const override { return "Dalal"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class WeberOperator final : public ModelBasedOperator {
 public:
  OperatorId id() const override { return OperatorId::kWeber; }
  std::string_view name() const override { return "Weber"; }
  ModelSet ReviseModelSets(const ModelSet& mt,
                           const ModelSet& mp) const override;
};

class GfuvOperator final : public RevisionOperator {
 public:
  OperatorId id() const override { return OperatorId::kGfuv; }
  std::string_view name() const override { return "GFUV"; }
  bool is_formula_based() const override { return true; }
  ModelSet ReviseModels(const Theory& t, const Formula& p,
                        const Alphabet& alphabet) const override;
  Formula ReviseFormula(const Theory& t, const Formula& p) const override;
};

class WidtioOperator final : public RevisionOperator {
 public:
  OperatorId id() const override { return OperatorId::kWidtio; }
  std::string_view name() const override { return "WIDTIO"; }
  bool is_formula_based() const override { return true; }
  ModelSet ReviseModels(const Theory& t, const Formula& p,
                        const Alphabet& alphabet) const override;
  Formula ReviseFormula(const Theory& t, const Formula& p) const override;
};

// Nebel's operator over a prioritized partition.  As a RevisionOperator
// (flat theory input) it treats each element of T as its own priority
// class in order (linear priority); the class-partition API is exposed
// separately for structured priorities.
class NebelOperator final : public RevisionOperator {
 public:
  OperatorId id() const override { return OperatorId::kNebel; }
  std::string_view name() const override { return "Nebel"; }
  bool is_formula_based() const override { return true; }
  ModelSet ReviseModels(const Theory& t, const Formula& p,
                        const Alphabet& alphabet) const override;
  Formula ReviseFormula(const Theory& t, const Formula& p) const override;

  // Structured-priority entry points.
  ModelSet ReviseModels(const std::vector<Theory>& classes, const Formula& p,
                        const Alphabet& alphabet) const;
  Formula ReviseFormula(const std::vector<Theory>& classes,
                        const Formula& p) const;

 private:
  static std::vector<Theory> LinearClasses(const Theory& t);
};

// All nine operators (stable order, formula-based first).  The registry
// owns the instances.
const std::vector<const RevisionOperator*>& AllOperators();
// The six model-based operators.
const std::vector<const ModelBasedOperator*>& AllModelBasedOperators();
// Lookup by id (never null).
const RevisionOperator* OperatorById(OperatorId id);

}  // namespace revise

#endif  // REVISE_REVISION_OPERATOR_H_
