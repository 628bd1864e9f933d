// Alphabets and interpretations.
//
// Following the paper's preliminaries, an interpretation is a truth
// assignment to the letters of an alphabet; it is identified with the set of
// letters mapped to true.  Symmetric difference (Delta), Hamming distance
// and subset tests between interpretations over the *same* alphabet are the
// basic ingredients of every model-based revision operator.
//
// Both interpretations and "difference sets" (sets of letters) are
// represented by the same bit-vector type, exactly as in the paper where
// both are sets of letters.

#ifndef REVISE_LOGIC_INTERPRETATION_H_
#define REVISE_LOGIC_INTERPRETATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "logic/vocabulary.h"

namespace revise {

// An immutable, sorted, duplicate-free set of variables: the alphabet over
// which interpretations are defined.  Copies share the sorted vector, so
// copying an alphabet (and a ModelSet, which carries one) allocates
// nothing, and comparing two copies is a pointer test.
class Alphabet {
 public:
  Alphabet() = default;
  // Sorts and removes duplicates.
  explicit Alphabet(std::vector<Var> vars);

  size_t size() const { return vars_ ? vars_->size() : 0; }
  Var var(size_t index) const { return (*vars_)[index]; }
  const std::vector<Var>& vars() const;

  // Position of `var` within the alphabet, or nullopt if absent.
  std::optional<size_t> IndexOf(Var var) const;
  bool Contains(Var var) const { return IndexOf(var).has_value(); }

  // Set-union of two alphabets.
  static Alphabet Union(const Alphabet& a, const Alphabet& b);

  bool operator==(const Alphabet& other) const {
    return vars_ == other.vars_ || vars() == other.vars();
  }

 private:
  std::shared_ptr<const std::vector<Var>> vars_;  // null when empty
};

// A truth assignment to the letters of an alphabet, stored positionally:
// bit i is the value of alphabet.var(i).  The Interpretation itself does
// not hold a reference to the alphabet; callers pair the two.
class Interpretation {
 public:
  Interpretation() = default;
  // All-false interpretation over `size` letters (the empty set).
  explicit Interpretation(size_t size);

  size_t size() const { return size_; }

  bool Get(size_t index) const {
    return (words_[index >> 6] >> (index & 63)) & 1;
  }
  void Set(size_t index, bool value) {
    uint64_t mask = uint64_t{1} << (index & 63);
    if (value) {
      words_[index >> 6] |= mask;
    } else {
      words_[index >> 6] &= ~mask;
    }
  }

  // Number of letters mapped to true (|M| as a set).
  size_t Cardinality() const;
  bool Empty() const { return Cardinality() == 0; }

  // Symmetric difference M Delta N (requires same size).
  Interpretation SymmetricDifference(const Interpretation& other) const;
  // |M Delta N|.
  size_t HammingDistance(const Interpretation& other) const;
  // Set containment of the true-letters: this subseteq other.
  bool IsSubsetOf(const Interpretation& other) const;
  // Strict containment.
  bool IsProperSubsetOf(const Interpretation& other) const;

  // Set union / intersection of the true-letters.
  Interpretation Union(const Interpretation& other) const;
  Interpretation Intersection(const Interpretation& other) const;
  // Letters true in this but not in other.
  Interpretation Minus(const Interpretation& other) const;

  // The packed 64-bit words, bit i of word i/64 being letter i; tail bits
  // beyond size() are zero by construction.  The packed kernel layer
  // (src/kernel/) copies these into its row-major matrices.
  const std::vector<uint64_t>& words() const { return words_; }
  // Builds an interpretation over `size` letters from ceil(size / 64)
  // packed words.  Tail bits of the last word beyond `size` must be zero.
  static Interpretation FromWords(size_t size, const uint64_t* words);

  // The i-th of the 2^n interpretations over n letters, bit j of `index`
  // giving the value of letter j.  Requires n <= 63.
  static Interpretation FromIndex(size_t n, uint64_t index);
  // Inverse of FromIndex.  Requires size() <= 63.
  uint64_t ToIndex() const;

  // Renders as a set of letter names, e.g. "{a, c}".
  std::string ToString(const Alphabet& alphabet,
                       const Vocabulary& vocabulary) const;

  bool operator==(const Interpretation& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  // Lexicographic order, giving ModelSet a canonical ordering.
  bool operator<(const Interpretation& other) const;

  // Hash usable with unordered containers.
  size_t Hash() const;

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

struct InterpretationHash {
  size_t operator()(const Interpretation& m) const { return m.Hash(); }
};

// Re-expresses an interpretation `m` over `from` as one over `to`.
// Letters of `to` absent from `from` become false; letters of `from` absent
// from `to` are dropped (projection).
Interpretation Reinterpret(const Interpretation& m, const Alphabet& from,
                           const Alphabet& to);

}  // namespace revise

#endif  // REVISE_LOGIC_INTERPRETATION_H_
