#include "revision/operator.h"

#include <string_view>

#include "model/canonical.h"
#include "obs/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "revision/model_based.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

Alphabet RevisionAlphabet(const Theory& t, const Formula& p) {
  std::vector<Var> vars = t.Vars();
  for (const Var v : p.Vars()) vars.push_back(v);
  return Alphabet(std::move(vars));
}

Formula RevisionOperator::ReviseFormula(const Theory& t,
                                        const Formula& p) const {
  return CanonicalDnf(ReviseModels(t, p));
}

bool RevisionOperator::Entails(const Theory& t, const Formula& p,
                               const Formula& q) const {
  // Letters of q outside V(T) ∪ V(P) are unconstrained in T * P;
  // EntailedByModels quantifies them universally.
  return EntailedByModels(ReviseModels(t, p, RevisionAlphabet(t, p)), q);
}

bool RevisionOperator::IsModel(const Theory& t, const Formula& p,
                               const Interpretation& m,
                               const Alphabet& alphabet) const {
  const ModelSet revised = ReviseModels(t, p, alphabet);
  return revised.Contains(m);
}

ModelSet ModelBasedOperator::ReviseModelSet(const ModelSet& mt,
                                            const Formula& p) const {
  obs::ProfileScope profile("revise.", name());
  obs::FlightOpScope flight(name());
  REVISE_OBS_COUNTER("revise.operations").Increment();
  return ReviseModelsAuto(id(), mt, p, mt.alphabet());
}

ModelSet ModelBasedOperator::ReviseModels(const Theory& t, const Formula& p,
                                          const Alphabet& alphabet) const {
  return ReviseModelSet(EnumerateModels(t.AsFormula(), alphabet), p);
}

ModelSet WinslettOperator::ReviseModelSets(const ModelSet& mt,
                                           const ModelSet& mp) const {
  return WinslettModels(mt, mp);
}

ModelSet BorgidaOperator::ReviseModelSets(const ModelSet& mt,
                                          const ModelSet& mp) const {
  return BorgidaModels(mt, mp);
}

ModelSet ForbusOperator::ReviseModelSets(const ModelSet& mt,
                                         const ModelSet& mp) const {
  return ForbusModels(mt, mp);
}

ModelSet SatohOperator::ReviseModelSets(const ModelSet& mt,
                                        const ModelSet& mp) const {
  return SatohModels(mt, mp);
}

ModelSet DalalOperator::ReviseModelSets(const ModelSet& mt,
                                        const ModelSet& mp) const {
  return DalalModels(mt, mp);
}

ModelSet WeberOperator::ReviseModelSets(const ModelSet& mt,
                                        const ModelSet& mp) const {
  return WeberModels(mt, mp);
}

namespace {

// The model set of a formula-based operator: `build` constructs the
// revised formula inside the operator's profile node and in-flight
// registration, and the result cardinality feeds the same distribution
// the model-based kernels feed (model_based.cc).
template <typename BuildFormula>
ModelSet FormulaBasedModels(std::string_view name, const Alphabet& alphabet,
                            const BuildFormula& build) {
  obs::ProfileScope profile("revise.", name);
  obs::FlightOpScope flight(name);
  REVISE_OBS_COUNTER("revise.operations").Increment();
  ModelSet result = EnumerateModels(build(), alphabet);
  REVISE_OBS_HISTOGRAM("revise.result_models")
      .Record(static_cast<uint64_t>(result.size()));
  return result;
}

}  // namespace

ModelSet GfuvOperator::ReviseModels(const Theory& t, const Formula& p,
                                    const Alphabet& alphabet) const {
  return FormulaBasedModels(name(), alphabet,
                            [&] { return ReviseFormula(t, p); });
}

Formula GfuvOperator::ReviseFormula(const Theory& t,
                                    const Formula& p) const {
  return GfuvFormula(t, p);
}

ModelSet WidtioOperator::ReviseModels(const Theory& t, const Formula& p,
                                      const Alphabet& alphabet) const {
  return FormulaBasedModels(name(), alphabet,
                            [&] { return ReviseFormula(t, p); });
}

Formula WidtioOperator::ReviseFormula(const Theory& t,
                                      const Formula& p) const {
  return WidtioTheory(t, p).AsFormula();
}

std::vector<Theory> NebelOperator::LinearClasses(const Theory& t) {
  std::vector<Theory> classes;
  classes.reserve(t.size());
  for (const Formula& f : t) {
    classes.push_back(Theory({f}));
  }
  return classes;
}

ModelSet NebelOperator::ReviseModels(const Theory& t, const Formula& p,
                                     const Alphabet& alphabet) const {
  return ReviseModels(LinearClasses(t), p, alphabet);
}

Formula NebelOperator::ReviseFormula(const Theory& t,
                                     const Formula& p) const {
  return ReviseFormula(LinearClasses(t), p);
}

ModelSet NebelOperator::ReviseModels(const std::vector<Theory>& classes,
                                     const Formula& p,
                                     const Alphabet& alphabet) const {
  return FormulaBasedModels(name(), alphabet,
                            [&] { return NebelFormula(classes, p); });
}

Formula NebelOperator::ReviseFormula(const std::vector<Theory>& classes,
                                     const Formula& p) const {
  return NebelFormula(classes, p);
}

namespace {

struct Registry {
  GfuvOperator gfuv;
  NebelOperator nebel;
  WidtioOperator widtio;
  WinslettOperator winslett;
  BorgidaOperator borgida;
  ForbusOperator forbus;
  SatohOperator satoh;
  DalalOperator dalal;
  WeberOperator weber;
};

const Registry& GlobalRegistry() {
  static const Registry& registry = *new Registry;
  return registry;
}

}  // namespace

const std::vector<const RevisionOperator*>& AllOperators() {
  static const std::vector<const RevisionOperator*>& all =
      *new std::vector<const RevisionOperator*>{
          &GlobalRegistry().gfuv,     &GlobalRegistry().nebel,
          &GlobalRegistry().widtio,   &GlobalRegistry().winslett,
          &GlobalRegistry().borgida,  &GlobalRegistry().forbus,
          &GlobalRegistry().satoh,    &GlobalRegistry().dalal,
          &GlobalRegistry().weber};
  return all;
}

const std::vector<const ModelBasedOperator*>& AllModelBasedOperators() {
  static const std::vector<const ModelBasedOperator*>& all =
      *new std::vector<const ModelBasedOperator*>{
          &GlobalRegistry().winslett, &GlobalRegistry().borgida,
          &GlobalRegistry().forbus,   &GlobalRegistry().satoh,
          &GlobalRegistry().dalal,    &GlobalRegistry().weber};
  return all;
}

const RevisionOperator* OperatorById(OperatorId id) {
  for (const RevisionOperator* op : AllOperators()) {
    if (op->id() == id) return op;
  }
  REVISE_CHECK(false);
  return nullptr;
}

}  // namespace revise
