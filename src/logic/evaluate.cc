#include "logic/evaluate.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "util/check.h"

namespace revise {

namespace {

bool EvaluateRec(const Formula& f, const Alphabet& alphabet,
                 const Interpretation& m,
                 std::unordered_map<const void*, bool>* memo) {
  auto it = memo->find(f.id());
  if (it != memo->end()) return it->second;
  bool result = false;
  switch (f.kind()) {
    case Connective::kConst:
      result = f.const_value();
      break;
    case Connective::kVar: {
      std::optional<size_t> index = alphabet.IndexOf(f.var());
      result = index.has_value() && m.Get(*index);
      break;
    }
    case Connective::kNot:
      result = !EvaluateRec(f.child(0), alphabet, m, memo);
      break;
    case Connective::kAnd: {
      result = true;
      for (size_t i = 0; i < f.arity(); ++i) {
        if (!EvaluateRec(f.child(i), alphabet, m, memo)) {
          result = false;
          break;
        }
      }
      break;
    }
    case Connective::kOr: {
      result = false;
      for (size_t i = 0; i < f.arity(); ++i) {
        if (EvaluateRec(f.child(i), alphabet, m, memo)) {
          result = true;
          break;
        }
      }
      break;
    }
    case Connective::kImplies:
      result = !EvaluateRec(f.child(0), alphabet, m, memo) ||
               EvaluateRec(f.child(1), alphabet, m, memo);
      break;
    case Connective::kIff:
      result = EvaluateRec(f.child(0), alphabet, m, memo) ==
               EvaluateRec(f.child(1), alphabet, m, memo);
      break;
    case Connective::kXor:
      result = EvaluateRec(f.child(0), alphabet, m, memo) !=
               EvaluateRec(f.child(1), alphabet, m, memo);
      break;
  }
  memo->emplace(f.id(), result);
  return result;
}

// One DAG node of a formula compiled for TruthTable, in post-order: its
// operands are earlier steps.
struct Step {
  Connective kind;
  int value;       // kConst: the constant; kVar: letter index, -1 if unlisted
  uint32_t first;  // operands occupy operands[first, first + count)
  uint32_t count;
};

struct Program {
  std::vector<Step> steps;
  std::vector<uint32_t> operands;
  std::unordered_map<const void*, uint32_t> memo;  // node -> step
};

uint32_t Compile(const Formula& f, std::span<const Var> letters,
                 Program* program) {
  if (auto it = program->memo.find(f.id()); it != program->memo.end()) {
    return it->second;
  }
  Step step{f.kind(), 0, 0, 0};
  if (f.kind() == Connective::kConst) {
    step.value = f.const_value() ? 1 : 0;
  } else if (f.kind() == Connective::kVar) {
    const auto it = std::find(letters.begin(), letters.end(), f.var());
    step.value =
        it == letters.end() ? -1 : static_cast<int>(it - letters.begin());
  } else {
    for (const Formula& child : f.children()) Compile(child, letters, program);
    step.first = static_cast<uint32_t>(program->operands.size());
    step.count = static_cast<uint32_t>(f.arity());
    for (const Formula& child : f.children()) {
      program->operands.push_back(program->memo.at(child.id()));
    }
  }
  const auto index = static_cast<uint32_t>(program->steps.size());
  program->steps.push_back(step);
  program->memo.emplace(f.id(), index);
  return index;
}

// Bit t of kLetterColumn[j] is bit j of t: letter j's column within one
// word, for the letters below 6.
constexpr uint64_t kLetterColumn[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};

// out = the `count` operand tables combined by op (identity when there
// are none), two operands per pass over out.  out never aliases an
// operand: operands are earlier steps.
template <typename Op, typename Operand>
void Reduce(Op op, uint64_t identity, size_t count, const Operand& operand,
            uint64_t* __restrict out, size_t width) {
  size_t c = 0;
  if (count < 2) {
    std::fill(out, out + width, identity);
  } else {
    const uint64_t* __restrict a = operand(0);
    const uint64_t* __restrict b = operand(1);
    for (size_t w = 0; w < width; ++w) out[w] = op(a[w], b[w]);
    c = 2;
  }
  for (; c + 1 < count; c += 2) {
    const uint64_t* __restrict a = operand(c);
    const uint64_t* __restrict b = operand(c + 1);
    for (size_t w = 0; w < width; ++w) out[w] = op(out[w], op(a[w], b[w]));
  }
  if (c < count) {
    const uint64_t* __restrict a = operand(c);
    for (size_t w = 0; w < width; ++w) out[w] = op(out[w], a[w]);
  }
}

// Node tables are swept in blocks of whole words so that a large DAG over
// 16 letters needs at most this many words of scratch (512 KiB).
constexpr size_t kMaxScratchWords = size_t{1} << 16;

}  // namespace

std::vector<uint64_t> TruthTable(const Formula& f,
                                 std::span<const Var> letters) {
  const size_t k = letters.size();
  REVISE_CHECK_LE(k, kMaxTruthTableLetters);
  for (size_t j = 1; j < k; ++j) {
    const auto seen = letters.begin() + j;
    REVISE_CHECK(std::find(letters.begin(), seen, letters[j]) == seen);
  }
  Program program;
  Compile(f, letters, &program);
  const size_t nodes = program.steps.size();
  const size_t words = k <= 6 ? 1 : size_t{1} << (k - 6);
  size_t width = words;
  while (width > 1 && nodes * width > kMaxScratchWords) width /= 2;

  std::vector<uint64_t> table(words);
  std::vector<uint64_t> values(nodes * width);
  for (size_t base = 0; base < words; base += width) {
    for (size_t i = 0; i < nodes; ++i) {
      const Step& step = program.steps[i];
      uint64_t* out = &values[i * width];
      const auto operand = [&](size_t a) -> const uint64_t* {
        return &values[program.operands[step.first + a] * width];
      };
      switch (step.kind) {
        case Connective::kConst:
          std::fill(out, out + width, step.value ? ~uint64_t{0} : 0);
          break;
        case Connective::kVar:
          if (step.value < 0) {
            std::fill(out, out + width, uint64_t{0});
          } else if (step.value < 6) {
            std::fill(out, out + width, kLetterColumn[step.value]);
          } else {
            // Letters from 6 up select whole words: bit j - 6 of the index.
            for (size_t w = 0; w < width; ++w) {
              out[w] =
                  ((base + w) >> (step.value - 6)) & 1 ? ~uint64_t{0} : 0;
            }
          }
          break;
        case Connective::kNot: {
          const uint64_t* a = operand(0);
          for (size_t w = 0; w < width; ++w) out[w] = ~a[w];
          break;
        }
        case Connective::kAnd:
          Reduce(std::bit_and<uint64_t>(), ~uint64_t{0}, step.count, operand,
                 out, width);
          break;
        case Connective::kOr:
          Reduce(std::bit_or<uint64_t>(), 0, step.count, operand, out,
                 width);
          break;
        case Connective::kImplies: {
          const uint64_t* a = operand(0);
          const uint64_t* b = operand(1);
          for (size_t w = 0; w < width; ++w) out[w] = ~a[w] | b[w];
          break;
        }
        case Connective::kIff: {
          const uint64_t* a = operand(0);
          const uint64_t* b = operand(1);
          for (size_t w = 0; w < width; ++w) out[w] = ~(a[w] ^ b[w]);
          break;
        }
        case Connective::kXor: {
          const uint64_t* a = operand(0);
          const uint64_t* b = operand(1);
          for (size_t w = 0; w < width; ++w) out[w] = a[w] ^ b[w];
          break;
        }
      }
    }
    // The root is compiled last.
    std::copy_n(&values[(nodes - 1) * width], width, &table[base]);
  }
  if (k < 6) table[0] &= (uint64_t{1} << (size_t{1} << k)) - 1;
  return table;
}

bool Evaluate(const Formula& f, const Alphabet& alphabet,
              const Interpretation& m) {
  REVISE_CHECK_EQ(alphabet.size(), m.size());
  std::unordered_map<const void*, bool> memo;
  return EvaluateRec(f, alphabet, m, &memo);
}

}  // namespace revise
