// Vocabulary: interning of propositional variable names.
//
// Formulas store compact integer variable ids (Var); a Vocabulary maps ids
// to names and back.  It also mints fresh variables, which the compact
// representation constructions (EXA auxiliary letters W, copies Y/Z of the
// alphabet, Tseitin variables) rely on heavily.

#ifndef REVISE_LOGIC_VOCABULARY_H_
#define REVISE_LOGIC_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace revise {

// A propositional variable.  Ids are dense, starting at 0, scoped to one
// Vocabulary.
using Var = uint32_t;

inline constexpr Var kInvalidVar = static_cast<Var>(-1);

class Vocabulary {
 public:
  Vocabulary() = default;

  // Vocabularies are identity objects shared by reference; copying one by
  // accident would silently fork the id space.
  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;
  Vocabulary(Vocabulary&&) = default;
  Vocabulary& operator=(Vocabulary&&) = default;

  // Returns the variable named `name`, creating it if needed.
  Var Intern(std::string_view name);

  // Interns `prefix` followed by the decimal `index`: ("x", 3) is "x3",
  // the naming of the generated families', benches' and tests' letters.
  Var InternIndexed(std::string_view prefix, size_t index);

  // Returns the variable named `name`, or kInvalidVar if absent.
  Var Find(std::string_view name) const;

  // Mints a variable with a new, unused name derived from `prefix`
  // (e.g. Fresh("w") -> "w#0", "w#1", ...).  '#' never appears in parsed
  // names, so fresh variables cannot collide with user variables.
  Var Fresh(std::string_view prefix);

  // Mints `count` fresh variables with a shared prefix.
  std::vector<Var> FreshBlock(std::string_view prefix, size_t count);

  const std::string& Name(Var var) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, Var> index_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace revise

#endif  // REVISE_LOGIC_VOCABULARY_H_
