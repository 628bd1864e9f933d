#include "revision/candidates.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "kernel/kernels.h"
#include "logic/evaluate.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

namespace {

// Positions of V(p) within the alphabet.
std::vector<size_t> VpPositions(const std::vector<Var>& vars,
                                const Alphabet& alphabet) {
  std::vector<size_t> positions;
  for (const Var v : vars) {
    const auto index = alphabet.IndexOf(v);
    REVISE_CHECK(index.has_value());
    positions.push_back(*index);
  }
  return positions;
}

}  // namespace

ModelSet ReviseSetByFormula(OperatorId id, const ModelSet& mt,
                            const Formula& p) {
  const Alphabet& alphabet = mt.alphabet();
  const std::vector<Var> vars = p.Vars();
  const std::vector<size_t> vp = VpPositions(vars, alphabet);
  const uint64_t subsets = uint64_t{1} << vp.size();
  // The truth of p depends only on the V(p)-letters: bit t of `table` is
  // p under the V(p)-assignment t.
  const std::vector<uint64_t> table = TruthTable(p, vars);

  // lists[list_of[i]] = sorted masks S such that (mt[i] delta S) |= p.
  // The V(p)-projection of mt[i] delta S is key ^ S, so models with the
  // same projection key share one list.
  std::vector<std::vector<uint64_t>> lists;
  std::vector<size_t> list_of(mt.size());
  std::unordered_map<uint64_t, size_t> list_by_key;
  for (size_t i = 0; i < mt.size(); ++i) {
    uint64_t key = 0;
    for (size_t j = 0; j < vp.size(); ++j) {
      if (mt[i].Get(vp[j])) key |= uint64_t{1} << j;
    }
    const auto [it, inserted] = list_by_key.emplace(key, lists.size());
    list_of[i] = it->second;
    if (!inserted) continue;
    std::vector<uint64_t>& masks = lists.emplace_back();
    for (uint64_t s = 0; s < subsets; ++s) {
      if (TruthTableBit(table, key ^ s)) masks.push_back(s);
    }
  }
  const auto cand = [&](size_t i) -> const std::vector<uint64_t>& {
    return lists[list_of[i]];
  };

  auto make_model = [&](size_t i, uint64_t s) {
    Interpretation candidate = mt[i];
    for (size_t j = 0; j < vp.size(); ++j) {
      if ((s >> j) & 1) candidate.Set(vp[j], !candidate.Get(vp[j]));
    }
    return candidate;
  };

  std::vector<Interpretation> selected;
  switch (id) {
    case OperatorId::kWinslett: {
      // Inclusion-minimal masks of each list, sorted ascending.
      std::vector<std::vector<uint64_t>> mu(lists.size());
      for (size_t l = 0; l < lists.size(); ++l) {
        mu[l] = kernel::MinimalMasks(lists[l]);
      }
      for (size_t i = 0; i < mt.size(); ++i) {
        for (const uint64_t s : mu[list_of[i]]) {
          selected.push_back(make_model(i, s));
        }
      }
      break;
    }
    case OperatorId::kBorgida: {
      bool consistent = false;
      for (size_t i = 0; i < mt.size() && !consistent; ++i) {
        consistent = !cand(i).empty() && cand(i)[0] == 0;
      }
      if (consistent) {
        for (size_t i = 0; i < mt.size(); ++i) {
          if (!cand(i).empty() && cand(i)[0] == 0) {
            selected.push_back(mt[i]);
          }
        }
      } else {
        return ReviseSetByFormula(OperatorId::kWinslett, mt, p);
      }
      break;
    }
    case OperatorId::kForbus: {
      for (size_t i = 0; i < mt.size(); ++i) {
        if (cand(i).empty()) continue;
        const size_t k_m = kernel::MinPopcount(cand(i), vp.size() + 1);
        for (const uint64_t s : cand(i)) {
          if (static_cast<size_t>(std::popcount(s)) == k_m) {
            selected.push_back(make_model(i, s));
          }
        }
      }
      break;
    }
    case OperatorId::kDalal: {
      size_t k = vp.size() + 1;
      for (const std::vector<uint64_t>& masks : lists) {
        k = kernel::MinPopcount(masks, k);
      }
      for (size_t i = 0; i < mt.size(); ++i) {
        for (const uint64_t s : cand(i)) {
          if (static_cast<size_t>(std::popcount(s)) == k) {
            selected.push_back(make_model(i, s));
          }
        }
      }
      break;
    }
    case OperatorId::kSatoh:
    case OperatorId::kWeber: {
      // delta(T,P): inclusion-minimal masks across all models.  Mask bit
      // j stands for the fixed letter vp[j], so minimality over the raw
      // masks equals minimality over the difference sets they denote — no
      // per-pair Interpretation is ever built.
      std::vector<uint64_t> all_masks;
      for (const std::vector<uint64_t>& masks : lists) {
        all_masks.insert(all_masks.end(), masks.begin(), masks.end());
      }
      const std::vector<uint64_t> delta =
          kernel::MinimalMasks(std::move(all_masks));
      if (id == OperatorId::kSatoh) {
        for (size_t i = 0; i < mt.size(); ++i) {
          for (const uint64_t s : cand(i)) {
            if (std::binary_search(delta.begin(), delta.end(), s)) {
              selected.push_back(make_model(i, s));
            }
          }
        }
      } else {
        uint64_t omega = 0;
        for (const uint64_t s : delta) omega |= s;
        for (size_t i = 0; i < mt.size(); ++i) {
          for (const uint64_t s : cand(i)) {
            if ((s & ~omega) == 0) selected.push_back(make_model(i, s));
          }
        }
      }
      break;
    }
    default:
      REVISE_CHECK(false);  // not a model-based operator
  }
  return ModelSet(alphabet, std::move(selected));
}

ModelSet ReviseModelsAuto(OperatorId id, const ModelSet& mt,
                          const Formula& p, const Alphabet& alphabet) {
  if (mt.empty()) {
    // Unsatisfiable prior knowledge: the result is M(P).
    return EnumerateModels(p, alphabet);
  }
  if (p.Vars().size() <= kMaxTruthTableLetters) {
    return ReviseSetByFormula(id, mt, p);
  }
  const auto* op = dynamic_cast<const ModelBasedOperator*>(OperatorById(id));
  REVISE_CHECK(op != nullptr);  // not a model-based operator
  return op->ReviseModelSets(mt, EnumerateModels(p, alphabet));
}

}  // namespace revise
