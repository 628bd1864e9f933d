#include "logic/vocabulary.h"

#include <string>

#include "util/check.h"

namespace revise {

Var Vocabulary::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  Var var = static_cast<Var>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), var);
  return var;
}

Var Vocabulary::InternIndexed(std::string_view prefix, size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return Intern(name);
}

Var Vocabulary::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidVar : it->second;
}

Var Vocabulary::Fresh(std::string_view prefix) {
  for (;;) {
    std::string candidate =
        std::string(prefix) + "#" + std::to_string(fresh_counter_++);
    if (index_.find(candidate) == index_.end()) {
      return Intern(candidate);
    }
  }
}

std::vector<Var> Vocabulary::FreshBlock(std::string_view prefix,
                                        size_t count) {
  std::vector<Var> vars;
  vars.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    vars.push_back(Fresh(prefix));
  }
  return vars;
}

const std::string& Vocabulary::Name(Var var) const {
  REVISE_CHECK_LT(var, names_.size());
  return names_[var];
}

}  // namespace revise
