#include "revision/postulates.h"

#include <sstream>

#include "hardness/random_instances.h"
#include "logic/printer.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

const char* KmPostulateName(KmPostulate postulate) {
  switch (postulate) {
    case KmPostulate::kR1Success:
      return "R1 (success)";
    case KmPostulate::kR2Vacuity:
      return "R2 (vacuity)";
    case KmPostulate::kR3Consistency:
      return "R3 (consistency)";
    case KmPostulate::kR4Syntax:
      return "R4 (syntax irrelevance)";
    case KmPostulate::kR5Conjunction:
      return "R5 (conjunctive inclusion)";
    case KmPostulate::kR6Conjunction:
      return "R6 (conjunctive preservation)";
    case KmPostulate::kU2UpdateVacuity:
      return "U2 (update vacuity)";
    case KmPostulate::kU8Disjunction:
      return "U8 (disjunction decomposition)";
  }
  return "?";
}

bool PostulateReport::Satisfies(KmPostulate postulate) const {
  for (size_t i = 0; i < postulates.size(); ++i) {
    if (postulates[i] == postulate) return violated[i] == 0;
  }
  return false;
}

std::string PostulateReport::ToString(const Vocabulary& vocabulary) const {
  std::ostringstream out;
  for (size_t i = 0; i < postulates.size(); ++i) {
    out << KmPostulateName(postulates[i]) << ": " << violated[i] << "/"
        << checked[i] << " violations";
    if (witnesses[i].has_value()) {
      out << "  e.g. T=" << revise::ToString(witnesses[i]->t, vocabulary)
          << " P=" << revise::ToString(witnesses[i]->p, vocabulary);
    }
    out << "\n";
  }
  return out.str();
}

namespace {

class Sweep {
 public:
  Sweep(const ModelBasedOperator& op, const PostulateSweepOptions& options,
        Vocabulary* vocabulary)
      : op_(op), rng_(options.seed), trials_(options.trials) {
    for (int i = 0; i < options.num_vars; ++i) {
      vars_.push_back(vocabulary->InternIndexed("km", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Formula Draw() {
    for (;;) {
      Formula f = RandomFormula(vars_, 4, &rng_);
      if (IsSatisfiable(f)) return f;
    }
  }

  ModelSet Revise(const Formula& t, const Formula& p) {
    return op_.ReviseModelSets(EnumerateModels(t, alphabet_),
                               EnumerateModels(p, alphabet_));
  }

  void Check(KmPostulate postulate, PostulateReport* report) {
    int checked = 0;
    int violated = 0;
    std::optional<PostulateViolation> witness;
    for (int trial = 0; trial < trials_; ++trial) {
      const Formula t = Draw();
      const Formula p = Draw();
      std::optional<PostulateViolation> violation =
          CheckOne(postulate, t, p);
      if (!violation.has_value() && !skipped_) {
        ++checked;
        continue;
      }
      if (skipped_) {
        skipped_ = false;
        continue;
      }
      ++checked;
      ++violated;
      if (!witness.has_value()) witness = violation;
    }
    report->postulates.push_back(postulate);
    report->checked.push_back(checked);
    report->violated.push_back(violated);
    report->witnesses.push_back(witness);
  }

 private:
  std::optional<PostulateViolation> Fail(KmPostulate postulate,
                                         const Formula& t, const Formula& p,
                                         std::string description) {
    PostulateViolation violation;
    violation.postulate = postulate;
    violation.t = t;
    violation.p = p;
    violation.description = std::move(description);
    return violation;
  }

  std::optional<PostulateViolation> CheckOne(KmPostulate postulate,
                                             const Formula& t,
                                             const Formula& p) {
    switch (postulate) {
      case KmPostulate::kR1Success: {
        if (!Revise(t, p).IsSubsetOf(EnumerateModels(p, alphabet_))) {
          return Fail(postulate, t, p, "result not within M(P)");
        }
        return std::nullopt;
      }
      case KmPostulate::kR2Vacuity: {
        const Formula both = Formula::And(t, p);
        if (!IsSatisfiable(both)) {
          skipped_ = true;
          return std::nullopt;
        }
        if (!(Revise(t, p) == EnumerateModels(both, alphabet_))) {
          return Fail(postulate, t, p, "T & P consistent but T*P != T&P");
        }
        return std::nullopt;
      }
      case KmPostulate::kR3Consistency: {
        if (Revise(t, p).empty()) {
          return Fail(postulate, t, p, "satisfiable inputs, empty result");
        }
        return std::nullopt;
      }
      case KmPostulate::kR4Syntax: {
        const Formula t2 = Formula::Not(Formula::Not(t));
        const Formula p2 = Formula::And(p, Formula::Or(p, t));
        if (!(Revise(t, p) == Revise(t2, p2))) {
          return Fail(postulate, t, p, "equivalent inputs, different output");
        }
        return std::nullopt;
      }
      case KmPostulate::kR5Conjunction:
      case KmPostulate::kR6Conjunction: {
        const Formula q = RandomFormula(vars_, 3, &rng_);
        const Formula pq = Formula::And(p, q);
        if (!IsSatisfiable(pq)) {
          skipped_ = true;
          return std::nullopt;
        }
        const ModelSet lhs = ModelSet::Intersection(
            Revise(t, p), EnumerateModels(q, alphabet_));
        const ModelSet rhs = Revise(t, pq);
        if (postulate == KmPostulate::kR5Conjunction) {
          if (!lhs.IsSubsetOf(rhs)) {
            auto v = Fail(postulate, t, p, "(T*P)&Q not within T*(P&Q)");
            v->q = q;
            return v;
          }
        } else {
          if (!lhs.empty() && !rhs.IsSubsetOf(lhs)) {
            auto v = Fail(postulate, t, p, "T*(P&Q) not within (T*P)&Q");
            v->q = q;
            return v;
          }
        }
        return std::nullopt;
      }
      case KmPostulate::kU2UpdateVacuity: {
        const Formula weaker = Formula::Or(t, p);  // T |= weaker
        if (!(Revise(t, weaker) == EnumerateModels(t, alphabet_))) {
          return Fail(postulate, t, weaker, "T |= P but T*P != T");
        }
        return std::nullopt;
      }
      case KmPostulate::kU8Disjunction: {
        const Formula t2 = Draw();
        const ModelSet whole = Revise(Formula::Or(t, t2), p);
        const ModelSet split =
            ModelSet::Union(Revise(t, p), Revise(t2, p));
        if (!(whole == split)) {
          auto v = Fail(postulate, t, p, "(T1|T2)*P != (T1*P)|(T2*P)");
          v->t2 = t2;
          return v;
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  const ModelBasedOperator& op_;
  Rng rng_;
  int trials_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
  bool skipped_ = false;
};

}  // namespace

PostulateReport CheckKmPostulates(const ModelBasedOperator& op,
                                  const PostulateSweepOptions& options,
                                  Vocabulary* vocabulary) {
  Sweep sweep(op, options, vocabulary);
  PostulateReport report;
  for (const KmPostulate postulate :
       {KmPostulate::kR1Success, KmPostulate::kR2Vacuity,
        KmPostulate::kR3Consistency, KmPostulate::kR4Syntax,
        KmPostulate::kR5Conjunction, KmPostulate::kR6Conjunction,
        KmPostulate::kU2UpdateVacuity, KmPostulate::kU8Disjunction}) {
    sweep.Check(postulate, &report);
  }
  return report;
}

}  // namespace revise
