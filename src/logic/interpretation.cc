#include "logic/interpretation.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace revise {

Alphabet::Alphabet(std::vector<Var> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  if (!vars.empty()) {
    vars_ = std::make_shared<const std::vector<Var>>(std::move(vars));
  }
}

const std::vector<Var>& Alphabet::vars() const {
  static const std::vector<Var> kEmpty;
  return vars_ ? *vars_ : kEmpty;
}

std::optional<size_t> Alphabet::IndexOf(Var var) const {
  const std::vector<Var>& sorted = vars();
  auto it = std::lower_bound(sorted.begin(), sorted.end(), var);
  if (it == sorted.end() || *it != var) return std::nullopt;
  return static_cast<size_t>(it - sorted.begin());
}

Alphabet Alphabet::Union(const Alphabet& a, const Alphabet& b) {
  if (a == b || b.size() == 0) return a;
  if (a.size() == 0) return b;
  std::vector<Var> merged = a.vars();
  merged.insert(merged.end(), b.vars().begin(), b.vars().end());
  return Alphabet(std::move(merged));
}

Interpretation::Interpretation(size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

size_t Interpretation::Cardinality() const {
  size_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

Interpretation Interpretation::SymmetricDifference(
    const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  Interpretation result(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] ^ other.words_[i];
  }
  return result;
}

size_t Interpretation::HammingDistance(const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] ^ other.words_[i]);
  }
  return count;
}

bool Interpretation::IsSubsetOf(const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool Interpretation::IsProperSubsetOf(const Interpretation& other) const {
  return IsSubsetOf(other) && !(*this == other);
}

Interpretation Interpretation::Union(const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  Interpretation result(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] | other.words_[i];
  }
  return result;
}

Interpretation Interpretation::Intersection(
    const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  Interpretation result(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & other.words_[i];
  }
  return result;
}

Interpretation Interpretation::Minus(const Interpretation& other) const {
  REVISE_DCHECK_EQ(size_, other.size_);
  Interpretation result(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & ~other.words_[i];
  }
  return result;
}

Interpretation Interpretation::FromWords(size_t size, const uint64_t* words) {
  Interpretation result(size);
  std::copy(words, words + result.words_.size(), result.words_.begin());
  if (size % 64 != 0 && !result.words_.empty()) {
    REVISE_DCHECK_EQ(result.words_.back() >> (size % 64), 0u);
  }
  return result;
}

Interpretation Interpretation::FromIndex(size_t n, uint64_t index) {
  REVISE_CHECK_LE(n, 63u);
  Interpretation result(n);
  if (n > 0) result.words_[0] = index & ((uint64_t{1} << n) - 1);
  return result;
}

uint64_t Interpretation::ToIndex() const {
  REVISE_CHECK_LE(size_, 63u);
  return words_.empty() ? 0 : words_[0];
}

std::string Interpretation::ToString(const Alphabet& alphabet,
                                     const Vocabulary& vocabulary) const {
  REVISE_CHECK_EQ(size_, alphabet.size());
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < size_; ++i) {
    if (!Get(i)) continue;
    if (!first) out += ", ";
    first = false;
    out += vocabulary.Name(alphabet.var(i));
  }
  out += "}";
  return out;
}

bool Interpretation::operator<(const Interpretation& other) const {
  if (size_ != other.size_) return size_ < other.size_;
  // Compare from the most significant word down so that the order matches
  // numeric order of the bit pattern.
  for (size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != other.words_[i]) return words_[i] < other.words_[i];
  }
  return false;
}

size_t Interpretation::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ size_;
  for (uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<size_t>(h);
}

Interpretation Reinterpret(const Interpretation& m, const Alphabet& from,
                           const Alphabet& to) {
  REVISE_CHECK_EQ(m.size(), from.size());
  Interpretation result(to.size());
  for (size_t i = 0; i < to.size(); ++i) {
    std::optional<size_t> j = from.IndexOf(to.var(i));
    if (j.has_value() && m.Get(*j)) result.Set(i, true);
  }
  return result;
}

}  // namespace revise
