// Tests for the packed bit-matrix kernel layer (src/kernel/).
//
// Every batch kernel is checked bit-for-bit against a naive
// Interpretation-loop reference, at 1, 2 and 8 threads, across ragged
// shapes: widths straddling the 64-bit word and 256-bit block boundaries
// (1, 7, 63, 64, 65, 127, 130 letters) and row counts that are not a
// multiple of the 32-row tile (33, 37, 40).  The kernels' contract is
// exact equality — including the order of returned indices and
// interpretations — so every comparison below is EXPECT_EQ, never a
// set-wise comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernels.h"
#include "kernel/packed_matrix.h"
#include "logic/interpretation.h"
#include "util/parallel.h"
#include "util/random.h"

namespace revise::kernel {
namespace {

// Restores the default parallelism when a test scope ends.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t threads) {
    SetParallelThreadsOverride(threads);
  }
  ~ScopedThreads() { SetParallelThreadsOverride(0); }
};

// Unique, lexicographically sorted random interpretations — the shape
// model sets arrive in (ModelSet canonicalizes exactly this way).  Half
// the rows are fresh draws; the rest mutate an earlier row in a couple of
// positions so subset/minimality structure actually occurs.
std::vector<Interpretation> RandomModels(Rng* rng, size_t bits,
                                         size_t rows) {
  std::vector<Interpretation> models;
  while (models.size() < rows) {
    Interpretation m(bits);
    if (!models.empty() && rng->Chance(0.5)) {
      m = models[rng->Below(models.size())];
      for (int flips = 0; flips < 2 && bits > 0; ++flips) {
        const size_t b = rng->Below(bits);
        m.Set(b, !m.Get(b));
      }
    } else {
      for (size_t b = 0; b < bits; ++b) {
        if (rng->Chance(0.5)) m.Set(b, true);
      }
    }
    models.push_back(std::move(m));
    if (bits < 6 && models.size() > (size_t{1} << bits)) break;
  }
  std::sort(models.begin(), models.end());
  models.erase(std::unique(models.begin(), models.end()), models.end());
  return models;
}

PackedModelMatrix Pack(size_t bits, const std::vector<Interpretation>& m) {
  return PackedModelMatrix::FromModels(bits, m);
}

// ---- naive references, one Interpretation at a time ----------------------

size_t NaiveMinDistance(const std::vector<Interpretation>& a,
                        const std::vector<Interpretation>& b, size_t cap) {
  size_t best = cap;
  for (const Interpretation& m : a) {
    for (const Interpretation& n : b) {
      const size_t d = m.HammingDistance(n);
      if (d < best) best = d;
    }
  }
  return best;
}

std::vector<uint32_t> NaiveDistanceRow(const Interpretation& m,
                                       const std::vector<Interpretation>& b) {
  std::vector<uint32_t> out;
  for (const Interpretation& n : b) {
    out.push_back(static_cast<uint32_t>(m.HammingDistance(n)));
  }
  return out;
}

std::vector<uint32_t> NaiveSelectWithinDistance(
    const std::vector<Interpretation>& p,
    const std::vector<Interpretation>& t, size_t k) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < p.size(); ++j) {
    for (const Interpretation& m : t) {
      if (m.HammingDistance(p[j]) <= k) {
        out.push_back(static_cast<uint32_t>(j));
        break;
      }
    }
  }
  return out;
}

// Sort + dedup + quadratic proper-subset filter: the canonical
// (lexicographic) order MinimalUnderInclusion documents.
std::vector<Interpretation> NaiveMinimal(std::vector<Interpretation> sets) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<Interpretation> out;
  for (const Interpretation& candidate : sets) {
    bool dominated = false;
    for (const Interpretation& other : sets) {
      if (other.IsProperSubsetOf(candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(candidate);
  }
  return out;
}

std::vector<Interpretation> NaiveMaximal(std::vector<Interpretation> sets) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<Interpretation> out;
  for (const Interpretation& candidate : sets) {
    bool dominated = false;
    for (const Interpretation& other : sets) {
      if (candidate.IsProperSubsetOf(other)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(candidate);
  }
  return out;
}

std::vector<Interpretation> NaiveMinimalDiffs(
    const std::vector<Interpretation>& a,
    const std::vector<Interpretation>& b) {
  std::vector<Interpretation> diffs;
  for (const Interpretation& m : a) {
    for (const Interpretation& n : b) {
      diffs.push_back(m.SymmetricDifference(n));
    }
  }
  return NaiveMinimal(std::move(diffs));
}

std::vector<uint32_t> NaiveSelectWithDiffIn(
    const std::vector<Interpretation>& p,
    const std::vector<Interpretation>& t,
    const std::vector<Interpretation>& delta) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < p.size(); ++j) {
    for (const Interpretation& m : t) {
      const Interpretation d = m.SymmetricDifference(p[j]);
      if (std::find(delta.begin(), delta.end(), d) != delta.end()) {
        out.push_back(static_cast<uint32_t>(j));
        break;
      }
    }
  }
  return out;
}

std::vector<uint32_t> NaiveSelectWithinMask(
    const std::vector<Interpretation>& p,
    const std::vector<Interpretation>& t, const Interpretation& mask) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < p.size(); ++j) {
    for (const Interpretation& m : t) {
      if (m.SymmetricDifference(p[j]).IsSubsetOf(mask)) {
        out.push_back(static_cast<uint32_t>(j));
        break;
      }
    }
  }
  return out;
}

std::vector<uint32_t> NaivePointwiseMinimalDiffs(
    const std::vector<Interpretation>& t,
    const std::vector<Interpretation>& p) {
  std::vector<uint32_t> out;
  for (const Interpretation& m : t) {
    for (size_t j = 0; j < p.size(); ++j) {
      const Interpretation d = m.SymmetricDifference(p[j]);
      bool minimal = true;
      for (const Interpretation& n : p) {
        if (m.SymmetricDifference(n).IsProperSubsetOf(d)) {
          minimal = false;
          break;
        }
      }
      if (minimal) out.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

std::vector<uint32_t> NaivePointwiseMinDistance(
    const std::vector<Interpretation>& t,
    const std::vector<Interpretation>& p) {
  std::vector<uint32_t> out;
  for (const Interpretation& m : t) {
    size_t best = static_cast<size_t>(-1);
    for (const Interpretation& n : p) {
      best = std::min(best, m.HammingDistance(n));
    }
    for (size_t j = 0; j < p.size(); ++j) {
      if (m.HammingDistance(p[j]) == best) {
        out.push_back(static_cast<uint32_t>(j));
      }
    }
  }
  return out;
}

// ---- the matrix itself ---------------------------------------------------

TEST(PackedModelMatrix, RoundTripsRowsAndPadsWithZeros) {
  Rng rng(7);
  for (const size_t bits : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                            size_t{130}}) {
    const std::vector<Interpretation> models = RandomModels(&rng, bits, 33);
    const PackedModelMatrix matrix = Pack(bits, models);
    ASSERT_EQ(matrix.bits(), bits);
    ASSERT_EQ(matrix.rows(), models.size());
    ASSERT_EQ(matrix.row_stride() % 4, 0u);  // whole 256-bit blocks
    ASSERT_GE(matrix.row_stride(), matrix.words_used());
    for (size_t r = 0; r < matrix.rows(); ++r) {
      EXPECT_EQ(matrix.ToInterpretation(r), models[r]);
      // Padding words beyond words_used() must stay zero: the block
      // primitives read the full stride.
      for (size_t w = matrix.words_used(); w < matrix.row_stride(); ++w) {
        EXPECT_EQ(matrix.row(r)[w], 0u);
      }
    }
  }
}

TEST(PackedModelMatrix, ZeroBitsAndZeroRows) {
  const PackedModelMatrix empty(0, 0);
  EXPECT_EQ(empty.bits(), 0u);
  EXPECT_EQ(empty.rows(), 0u);
  const std::vector<Interpretation> one{Interpretation(0)};
  const PackedModelMatrix zero_wide = Pack(0, one);
  EXPECT_EQ(zero_wide.rows(), 1u);
  EXPECT_EQ(zero_wide.ToInterpretation(0), Interpretation(0));
}

// ---- batch kernels vs the naive reference --------------------------------

struct Shape {
  size_t bits;
  size_t rows_a;
  size_t rows_b;
};

// Widths straddle word and block boundaries; row counts are not tile
// multiples.
const Shape kShapes[] = {
    {1, 2, 2},    {7, 33, 37},  {63, 33, 21}, {64, 40, 33},
    {65, 37, 33}, {127, 12, 60}, {130, 33, 37},
};

const size_t kThreadCounts[] = {1, 2, 8};

TEST(PackedKernels, MinDistanceOfSetsMatchesScalar) {
  Rng rng(11);
  for (const Shape& shape : kShapes) {
    const std::vector<Interpretation> a =
        RandomModels(&rng, shape.bits, shape.rows_a);
    const std::vector<Interpretation> b =
        RandomModels(&rng, shape.bits, shape.rows_b);
    const PackedModelMatrix pa = Pack(shape.bits, a);
    const PackedModelMatrix pb = Pack(shape.bits, b);
    for (const size_t cap :
         {size_t{1}, size_t{3}, shape.bits + 1}) {
      const size_t want = NaiveMinDistance(a, b, cap);
      for (const size_t threads : kThreadCounts) {
        ScopedThreads scope(threads);
        EXPECT_EQ(MinDistanceOfSets(pa, pb, cap), want)
            << "bits=" << shape.bits << " cap=" << cap
            << " threads=" << threads;
      }
    }
  }
}

TEST(PackedKernels, DistanceRowMatchesScalar) {
  Rng rng(13);
  for (const Shape& shape : kShapes) {
    const std::vector<Interpretation> a =
        RandomModels(&rng, shape.bits, shape.rows_a);
    const std::vector<Interpretation> b =
        RandomModels(&rng, shape.bits, shape.rows_b);
    const PackedModelMatrix pa = Pack(shape.bits, a);
    const PackedModelMatrix pb = Pack(shape.bits, b);
    for (size_t r = 0; r < a.size(); ++r) {
      std::vector<uint32_t> got(b.size());
      DistanceRow(pa, r, pb, got.data());
      EXPECT_EQ(got, NaiveDistanceRow(a[r], b)) << "bits=" << shape.bits;
    }
  }
}

TEST(PackedKernels, SelectWithinDistanceMatchesScalar) {
  Rng rng(17);
  for (const Shape& shape : kShapes) {
    const std::vector<Interpretation> t =
        RandomModels(&rng, shape.bits, shape.rows_a);
    const std::vector<Interpretation> p =
        RandomModels(&rng, shape.bits, shape.rows_b);
    const PackedModelMatrix pt = Pack(shape.bits, t);
    const PackedModelMatrix pp = Pack(shape.bits, p);
    for (const size_t k : {size_t{0}, size_t{1}, shape.bits / 2}) {
      const std::vector<uint32_t> want = NaiveSelectWithinDistance(p, t, k);
      for (const size_t threads : kThreadCounts) {
        ScopedThreads scope(threads);
        EXPECT_EQ(SelectWithinDistance(pp, pt, k), want)
            << "bits=" << shape.bits << " k=" << k
            << " threads=" << threads;
      }
    }
  }
}

TEST(PackedKernels, MinimalDiffsOfSetsMatchesScalar) {
  Rng rng(19);
  for (const Shape& shape : kShapes) {
    const std::vector<Interpretation> a =
        RandomModels(&rng, shape.bits, shape.rows_a);
    const std::vector<Interpretation> b =
        RandomModels(&rng, shape.bits, shape.rows_b);
    const PackedModelMatrix pa = Pack(shape.bits, a);
    const PackedModelMatrix pb = Pack(shape.bits, b);
    const std::vector<Interpretation> want = NaiveMinimalDiffs(a, b);
    for (const size_t threads : kThreadCounts) {
      ScopedThreads scope(threads);
      EXPECT_EQ(MinimalDiffsOfSets(pa, pb), want)
          << "bits=" << shape.bits << " threads=" << threads;
    }
  }
}

TEST(PackedKernels, SelectionKernelsMatchScalar) {
  Rng rng(23);
  for (const Shape& shape : kShapes) {
    const std::vector<Interpretation> t =
        RandomModels(&rng, shape.bits, shape.rows_a);
    const std::vector<Interpretation> p =
        RandomModels(&rng, shape.bits, shape.rows_b);
    const PackedModelMatrix pt = Pack(shape.bits, t);
    const PackedModelMatrix pp = Pack(shape.bits, p);

    const std::vector<Interpretation> delta = NaiveMinimalDiffs(t, p);
    const PackedModelMatrix pd = Pack(shape.bits, delta);
    Interpretation omega(shape.bits);
    for (const Interpretation& d : delta) omega = omega.Union(d);

    for (const size_t threads : kThreadCounts) {
      ScopedThreads scope(threads);
      EXPECT_EQ(SelectWithDiffInSorted(pp, pt, pd),
                NaiveSelectWithDiffIn(p, t, delta))
          << "bits=" << shape.bits << " threads=" << threads;
      EXPECT_EQ(SelectWithinMask(pp, pt, omega),
                NaiveSelectWithinMask(p, t, omega))
          << "bits=" << shape.bits << " threads=" << threads;
      EXPECT_EQ(SelectPointwiseMinimalDiffs(pt, pp),
                NaivePointwiseMinimalDiffs(t, p))
          << "bits=" << shape.bits << " threads=" << threads;
      EXPECT_EQ(SelectPointwiseMinDistance(pt, pp),
                NaivePointwiseMinDistance(t, p))
          << "bits=" << shape.bits << " threads=" << threads;
    }
  }
}

TEST(PackedKernels, EmptySets) {
  Rng rng(29);
  const PackedModelMatrix empty(64, 0);
  const PackedModelMatrix some = Pack(64, RandomModels(&rng, 64, 5));
  EXPECT_EQ(MinDistanceOfSets(empty, some, 65), 65u);
  EXPECT_EQ(MinDistanceOfSets(some, empty, 65), 65u);
  EXPECT_EQ(MinDistanceOfSets(empty, empty, 65), 65u);
  EXPECT_TRUE(SelectWithinDistance(empty, some, 64).empty());
  EXPECT_TRUE(SelectWithinDistance(some, empty, 64).empty());
  EXPECT_TRUE(MinimalDiffsOfSets(empty, some).empty());
  EXPECT_TRUE(MinimalDiffsOfSets(some, empty).empty());
  EXPECT_TRUE(SelectPointwiseMinimalDiffs(empty, some).empty());
  EXPECT_TRUE(SelectPointwiseMinDistance(some, empty).empty());
}

// ---- extremal filters and mask kernels -----------------------------------

TEST(PackedKernels, MinimalAndMaximalInterpretationsMatchNaive) {
  Rng rng(31);
  for (const size_t bits : {size_t{1}, size_t{17}, size_t{64}, size_t{65},
                            size_t{130}}) {
    // Feed raw (unsorted, duplicated) inputs: the kernels canonicalize.
    std::vector<Interpretation> sets = RandomModels(&rng, bits, 40);
    const size_t original = sets.size();
    for (size_t i = 0; i < original / 3; ++i) sets.push_back(sets[i]);
    for (const size_t threads : kThreadCounts) {
      ScopedThreads scope(threads);
      EXPECT_EQ(MinimalInterpretations(sets), NaiveMinimal(sets))
          << "bits=" << bits << " threads=" << threads;
      EXPECT_EQ(MaximalInterpretations(sets), NaiveMaximal(sets))
          << "bits=" << bits << " threads=" << threads;
    }
  }
  EXPECT_TRUE(MinimalInterpretations({}).empty());
  EXPECT_TRUE(MaximalInterpretations({}).empty());
}

TEST(PackedKernels, MinimalMasksAndMinPopcountMatchNaive) {
  Rng rng(37);
  for (int round = 0; round < 20; ++round) {
    const size_t width = 1 + rng.Below(20);
    std::vector<uint64_t> masks;
    const size_t count = rng.Below(30);
    for (size_t i = 0; i < count; ++i) {
      masks.push_back(rng.Next() & ((uint64_t{1} << width) - 1));
    }
    // Naive minimal masks: unique s with no proper submask present.
    std::vector<uint64_t> want;
    for (const uint64_t s : masks) {
      bool dominated = false;
      for (const uint64_t s2 : masks) {
        if (s2 != s && (s2 & ~s) == 0) {
          dominated = true;
          break;
        }
      }
      if (!dominated &&
          std::find(want.begin(), want.end(), s) == want.end()) {
        want.push_back(s);
      }
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(MinimalMasks(masks), want);

    size_t min_pop = 99;
    for (const uint64_t s : masks) {
      min_pop = std::min<size_t>(min_pop, std::popcount(s));
    }
    EXPECT_EQ(MinPopcount(masks, 99), min_pop);
  }
  EXPECT_TRUE(MinimalMasks({}).empty());
  EXPECT_EQ(MinPopcount({}, 42u), 42u);
}

TEST(PackedKernels, ActiveSimdPathIsKnown) {
  const std::string path = ActiveSimdPath();
  EXPECT_TRUE(path == "off" || path == "swar" || path == "avx2" ||
              path == "neon")
      << path;
}

}  // namespace
}  // namespace revise::kernel
