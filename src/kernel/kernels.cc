#include "kernel/kernels.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "kernel/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace revise::kernel {

namespace {

// Row tile edge for the pairwise sweeps: 32 rows of up-to-a-few blocks
// keep both tiles resident in L1 while a tile's 32x32 pairs amortize the
// bound refresh.
constexpr size_t kTileRows = 32;
// Below ~2048 pairs (or 8 selection rows) a sweep runs single-shard:
// smaller sweeps finish before a shard hand-off would pay for itself.
constexpr size_t kPairGrain = 2048;
constexpr size_t kSelectionGrain = 8;

// Which end of the inclusion order a minc / maxc sweep keeps.
enum class Extremum { kMinimal, kMaximal };

// --- row helpers (all lengths in words_used / blocks of the matrices) ---

size_t PairDistance(const uint64_t* x, const uint64_t* y, size_t blocks) {
  size_t count = 0;
  for (size_t b = 0; b < blocks; ++b) {
    count += XorPopcountBlock(x + b * kWordsPerBlock, y + b * kWordsPerBlock);
  }
  return count;
}

// |x delta y| if <= cap, else cap + 1, exiting at the first block that
// pushes the running count past the cap.
size_t PairDistanceCapped(const uint64_t* x, const uint64_t* y, size_t blocks,
                          size_t cap) {
  size_t count = 0;
  for (size_t b = 0; b < blocks; ++b) {
    count += XorPopcountBlock(x + b * kWordsPerBlock, y + b * kWordsPerBlock);
    if (count > cap) return cap + 1;
  }
  return count;
}

size_t RowPopcount(const uint64_t* x, size_t blocks) {
  size_t count = 0;
  for (size_t b = 0; b < blocks; ++b) {
    count += PopcountBlock(x + b * kWordsPerBlock);
  }
  return count;
}

// Interpretation::operator< over packed rows of one width: most
// significant word down, i.e. numeric order of the bit pattern.
bool RowLess(const uint64_t* x, const uint64_t* y, size_t words) {
  for (size_t i = words; i-- > 0;) {
    if (x[i] != y[i]) return x[i] < y[i];
  }
  return false;
}

bool RowEq(const uint64_t* x, const uint64_t* y, size_t words) {
  for (size_t i = 0; i < words; ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
}

// x subseteq y over whole rows.
bool RowSubset(const uint64_t* x, const uint64_t* y, size_t blocks) {
  for (size_t b = 0; b < blocks; ++b) {
    if (!SubsetBlock(x + b * kWordsPerBlock, y + b * kWordsPerBlock)) {
      return false;
    }
  }
  return true;
}

void AtomicMin(std::atomic<size_t>* best, size_t value) {
  size_t current = best->load(std::memory_order_relaxed);
  while (value < current &&
         !best->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

// Concatenates per-shard index lists in shard order.
std::vector<uint32_t> ConcatIndexShards(
    std::vector<std::vector<uint32_t>> shards) {
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<uint32_t> merged;
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  for (const auto& shard : shards) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  return merged;
}

// Shard grain for loops doing |t| work per p-row (or vice versa).
size_t GrainForPairs(size_t inner_rows) {
  return std::max<size_t>(1, kPairGrain / std::max<size_t>(1, inner_rows));
}

// The cardinality-bucket sweep behind every minc / maxc kernel.  Items
// are 0 .. cards.size()-1 with popcounts `cards`; subset(x, y) tests item
// x subseteq item y.  A proper subset has strictly smaller cardinality, so
// sweeping the buckets upward (minimal) or downward (maximal) tests each
// candidate only against the extrema found in earlier buckets:
// |result| * n subset tests instead of n^2.  Items must be unique; the
// extremal ones come back in ascending item order.
template <typename Subset>
std::vector<size_t> ExtremalIndices(const std::vector<size_t>& cards,
                                    Extremum which, const Subset& subset) {
  std::vector<size_t> by_card(cards.size());
  std::iota(by_card.begin(), by_card.end(), size_t{0});
  std::stable_sort(by_card.begin(), by_card.end(),
                   [&](size_t a, size_t b) { return cards[a] < cards[b]; });
  if (which == Extremum::kMaximal) {
    std::reverse(by_card.begin(), by_card.end());
  }
  std::vector<char> keep(cards.size(), 0);
  std::vector<size_t> found;
  size_t i = 0;
  while (i < by_card.size()) {
    const size_t card = cards[by_card[i]];
    const size_t bucket_begin = found.size();
    for (; i < by_card.size() && cards[by_card[i]] == card; ++i) {
      const size_t candidate = by_card[i];
      bool extremal = true;
      for (size_t k = 0; k < bucket_begin; ++k) {
        if (which == Extremum::kMinimal ? subset(found[k], candidate)
                                        : subset(candidate, found[k])) {
          extremal = false;
          break;
        }
      }
      if (extremal) {
        keep[candidate] = 1;
        found.push_back(candidate);
      }
    }
  }
  std::vector<size_t> result;
  result.reserve(found.size());
  for (size_t j = 0; j < keep.size(); ++j) {
    if (keep[j]) result.push_back(j);
  }
  return result;
}

// Indices (into m) of the unique inclusion-extremal rows, in
// lexicographic order.
std::vector<size_t> ExtremalRowIndices(const PackedModelMatrix& m,
                                       Extremum which) {
  const size_t words = m.words_used();
  const size_t blocks = m.blocks();
  std::vector<size_t> order(m.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return RowLess(m.row(a), m.row(b), words);
  });
  std::vector<size_t> uniq;
  uniq.reserve(order.size());
  for (const size_t r : order) {
    if (uniq.empty() || !RowEq(m.row(uniq.back()), m.row(r), words)) {
      uniq.push_back(r);
    }
  }
  std::vector<size_t> cards(uniq.size());
  for (size_t i = 0; i < uniq.size(); ++i) {
    cards[i] = RowPopcount(m.row(uniq[i]), blocks);
  }
  std::vector<size_t> result =
      ExtremalIndices(cards, which, [&](size_t x, size_t y) {
        return RowSubset(m.row(uniq[x]), m.row(uniq[y]), blocks);
      });
  for (size_t& r : result) r = uniq[r];  // uniq is in lex order
  return result;
}

// The unique inclusion-extremal masks, sorted ascending.
std::vector<uint64_t> ExtremalMasks(std::vector<uint64_t> masks,
                                    Extremum which) {
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  if (masks.size() <= 1) return masks;
  std::vector<size_t> cards(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) cards[i] = PopcountWord(masks[i]);
  const std::vector<size_t> kept =
      ExtremalIndices(cards, which, [&](size_t x, size_t y) {
        return (masks[x] & ~masks[y]) == 0;
      });
  std::vector<uint64_t> result;
  result.reserve(kept.size());
  for (const size_t j : kept) result.push_back(masks[j]);
  return result;
}

// Materializes selected rows.
std::vector<Interpretation> RowsToInterpretations(
    const PackedModelMatrix& m, const std::vector<size_t>& rows) {
  std::vector<Interpretation> out;
  out.reserve(rows.size());
  for (const size_t r : rows) out.push_back(m.ToInterpretation(r));
  return out;
}

// First word of an interpretation of <= 64 letters (0 for the empty
// alphabet, whose word vector is empty).
uint64_t Word0(const Interpretation& m) {
  return m.words().empty() ? 0 : m.words()[0];
}

// The unique inclusion-extremal elements of `sets`, in lexicographic
// order: raw uint64 values when the width allows, packed rows otherwise.
std::vector<Interpretation> ExtremalInterpretations(
    std::vector<Interpretation> sets, Extremum which) {
  if (sets.empty()) return {};
  const size_t bits = sets[0].size();
  if (bits <= 64) {
    std::vector<uint64_t> values;
    values.reserve(sets.size());
    for (const Interpretation& m : sets) {
      REVISE_DCHECK_EQ(m.size(), bits);
      values.push_back(Word0(m));
    }
    const std::vector<uint64_t> kept = ExtremalMasks(std::move(values), which);
    std::vector<Interpretation> result;
    result.reserve(kept.size());
    for (const uint64_t value : kept) {
      result.push_back(Interpretation::FromWords(bits, &value));
    }
    return result;
  }
  const PackedModelMatrix packed = PackedModelMatrix::FromModels(bits, sets);
  return RowsToInterpretations(packed, ExtremalRowIndices(packed, which));
}

}  // namespace

const char* ActiveSimdPath() { return SimdPathName(); }

size_t MinDistanceOfSets(const PackedModelMatrix& a,
                         const PackedModelMatrix& b, size_t cap) {
  REVISE_DCHECK_EQ(a.bits(), b.bits());
  if (a.rows() == 0 || b.rows() == 0) return cap;
  std::atomic<size_t> best{cap};
  const size_t blocks = a.blocks();
  const bool one_word = a.words_used() <= 1;
  const size_t a_tiles = (a.rows() + kTileRows - 1) / kTileRows;
  const size_t grain = GrainForPairs(kTileRows * b.rows());
  ParallelMapRanges<int>(a_tiles, grain, [&](size_t tile_begin,
                                             size_t tile_end) {
    for (size_t tile = tile_begin; tile < tile_end; ++tile) {
      const size_t row_begin = tile * kTileRows;
      const size_t row_end = std::min(a.rows(), row_begin + kTileRows);
      // Refresh the local bound from the shared one once per tile pair;
      // inside a tile the bound is thread-private.
      size_t local = best.load(std::memory_order_relaxed);
      for (size_t col_begin = 0; col_begin < b.rows();
           col_begin += kTileRows) {
        const size_t col_end = std::min(b.rows(), col_begin + kTileRows);
        for (size_t i = row_begin; i < row_end && local > 0; ++i) {
          const uint64_t* x = a.row(i);
          if (one_word) {
            const uint64_t xw = x[0];
            for (size_t j = col_begin; j < col_end; ++j) {
              const size_t d = PopcountWord(xw ^ b.row(j)[0]);
              if (d < local) local = d;
            }
          } else {
            for (size_t j = col_begin; j < col_end && local > 0; ++j) {
              const size_t d =
                  PairDistanceCapped(x, b.row(j), blocks, local - 1);
              if (d < local) local = d;
            }
          }
        }
        AtomicMin(&best, local);
        local = std::min(local, best.load(std::memory_order_relaxed));
        if (local == 0) return 0;
      }
    }
    return 0;
  });
  return best.load(std::memory_order_relaxed);
}

void DistanceRow(const PackedModelMatrix& a, size_t row,
                 const PackedModelMatrix& b, uint32_t* out) {
  REVISE_DCHECK_EQ(a.bits(), b.bits());
  REVISE_DCHECK_LT(row, a.rows());
  const uint64_t* x = a.row(row);
  if (a.words_used() <= 1) {
    const uint64_t xw = x[0];
    for (size_t j = 0; j < b.rows(); ++j) {
      out[j] = static_cast<uint32_t>(PopcountWord(xw ^ b.row(j)[0]));
    }
    return;
  }
  const size_t blocks = a.blocks();
  for (size_t j = 0; j < b.rows(); ++j) {
    out[j] = static_cast<uint32_t>(PairDistance(x, b.row(j), blocks));
  }
}

std::vector<uint32_t> SelectWithinDistance(const PackedModelMatrix& p,
                                           const PackedModelMatrix& t,
                                           size_t k) {
  REVISE_DCHECK_EQ(p.bits(), t.bits());
  const size_t blocks = p.blocks();
  const bool one_word = p.words_used() <= 1;
  return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
      p.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
        std::vector<uint32_t> hits;
        for (size_t j = begin; j < end; ++j) {
          const uint64_t* y = p.row(j);
          const uint64_t yw = y[0];
          for (size_t i = 0; i < t.rows(); ++i) {
            const size_t d =
                one_word ? PopcountWord(yw ^ t.row(i)[0])
                         : PairDistanceCapped(y, t.row(i), blocks, k);
            if (d <= k) {
              hits.push_back(static_cast<uint32_t>(j));
              break;
            }
          }
        }
        return hits;
      }));
}

std::vector<Interpretation> MinimalDiffsOfSets(const PackedModelMatrix& a,
                                               const PackedModelMatrix& b) {
  REVISE_DCHECK_EQ(a.bits(), b.bits());
  if (a.rows() == 0 || b.rows() == 0) return {};
  const size_t bits = a.bits();
  const size_t grain = GrainForPairs(b.rows());
  if (a.words_used() <= 1) {
    // One-word rows: differences are plain uint64 values — prune each
    // shard with MinimalMasks, merge, prune once more.  Ascending value
    // order is lexicographic order at this width.
    std::vector<std::vector<uint64_t>> shards =
        ParallelMapRanges<std::vector<uint64_t>>(
            a.rows(), grain, [&](size_t begin, size_t end) {
              std::vector<uint64_t> diffs;
              diffs.reserve((end - begin) * b.rows());
              for (size_t i = begin; i < end; ++i) {
                const uint64_t xw = a.row(i)[0];
                for (size_t j = 0; j < b.rows(); ++j) {
                  diffs.push_back(xw ^ b.row(j)[0]);
                }
              }
              return MinimalMasks(std::move(diffs));
            });
    std::vector<uint64_t> minimal;
    if (shards.size() == 1) {
      minimal = std::move(shards[0]);
    } else {
      std::vector<uint64_t> merged;
      for (const auto& shard : shards) {
        merged.insert(merged.end(), shard.begin(), shard.end());
      }
      minimal = MinimalMasks(std::move(merged));
    }
    std::vector<Interpretation> result;
    result.reserve(minimal.size());
    for (const uint64_t value : minimal) {
      result.push_back(Interpretation::FromWords(bits, &value));
    }
    return result;
  }
  const size_t stride = a.row_stride();
  std::vector<std::vector<Interpretation>> shards =
      ParallelMapRanges<std::vector<Interpretation>>(
          a.rows(), grain, [&](size_t begin, size_t end) {
            PackedModelMatrix diffs(bits, (end - begin) * b.rows());
            size_t r = 0;
            for (size_t i = begin; i < end; ++i) {
              const uint64_t* x = a.row(i);
              for (size_t j = 0; j < b.rows(); ++j) {
                const uint64_t* y = b.row(j);
                uint64_t* d = diffs.row(r++);
                for (size_t w = 0; w < stride; ++w) d[w] = x[w] ^ y[w];
              }
            }
            return RowsToInterpretations(
                diffs, ExtremalRowIndices(diffs, Extremum::kMinimal));
          });
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<Interpretation> merged;
  for (auto& shard : shards) {
    merged.insert(merged.end(), std::make_move_iterator(shard.begin()),
                  std::make_move_iterator(shard.end()));
  }
  return MinimalInterpretations(std::move(merged));
}

std::vector<uint32_t> SelectWithDiffInSorted(const PackedModelMatrix& p,
                                             const PackedModelMatrix& t,
                                             const PackedModelMatrix& delta) {
  REVISE_DCHECK_EQ(p.bits(), t.bits());
  REVISE_DCHECK_EQ(p.bits(), delta.bits());
  const size_t words = p.words_used();
  if (words <= 1) {
    std::vector<uint64_t> sorted_delta;
    sorted_delta.reserve(delta.rows());
    for (size_t d = 0; d < delta.rows(); ++d) {
      sorted_delta.push_back(delta.row(d)[0]);
    }
    REVISE_DCHECK(
        std::is_sorted(sorted_delta.begin(), sorted_delta.end()));
    return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
        p.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
          std::vector<uint32_t> hits;
          for (size_t j = begin; j < end; ++j) {
            const uint64_t yw = p.row(j)[0];
            for (size_t i = 0; i < t.rows(); ++i) {
              if (std::binary_search(sorted_delta.begin(),
                                     sorted_delta.end(),
                                     yw ^ t.row(i)[0])) {
                hits.push_back(static_cast<uint32_t>(j));
                break;
              }
            }
          }
          return hits;
        }));
  }
  const size_t stride = p.row_stride();
  return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
      p.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
        std::vector<uint32_t> hits;
        std::vector<uint64_t> diff(stride, 0);
        for (size_t j = begin; j < end; ++j) {
          const uint64_t* y = p.row(j);
          for (size_t i = 0; i < t.rows(); ++i) {
            const uint64_t* x = t.row(i);
            for (size_t w = 0; w < words; ++w) diff[w] = x[w] ^ y[w];
            size_t lo = 0;
            size_t hi = delta.rows();
            while (lo < hi) {
              const size_t mid = lo + (hi - lo) / 2;
              if (RowLess(delta.row(mid), diff.data(), words)) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            if (lo < delta.rows() &&
                RowEq(delta.row(lo), diff.data(), words)) {
              hits.push_back(static_cast<uint32_t>(j));
              break;
            }
          }
        }
        return hits;
      }));
}

std::vector<uint32_t> SelectWithinMask(const PackedModelMatrix& p,
                                       const PackedModelMatrix& t,
                                       const Interpretation& mask) {
  REVISE_DCHECK_EQ(p.bits(), t.bits());
  REVISE_DCHECK_EQ(p.bits(), mask.size());
  const size_t blocks = p.blocks();
  // Zero-padded copy of the mask words, one full row's worth.
  std::vector<uint64_t> mask_row(p.row_stride(), 0);
  std::copy(mask.words().begin(), mask.words().end(), mask_row.begin());
  const bool one_word = p.words_used() <= 1;
  const uint64_t outside = ~mask_row[0];
  return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
      p.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
        std::vector<uint32_t> hits;
        for (size_t j = begin; j < end; ++j) {
          const uint64_t* y = p.row(j);
          const uint64_t yw = y[0];
          for (size_t i = 0; i < t.rows(); ++i) {
            bool within;
            if (one_word) {
              within = ((yw ^ t.row(i)[0]) & outside) == 0;
            } else {
              const uint64_t* x = t.row(i);
              within = true;
              for (size_t blk = 0; blk < blocks; ++blk) {
                if (!DiffWithinMaskBlock(x + blk * kWordsPerBlock,
                                         y + blk * kWordsPerBlock,
                                         mask_row.data() +
                                             blk * kWordsPerBlock)) {
                  within = false;
                  break;
                }
              }
            }
            if (within) {
              hits.push_back(static_cast<uint32_t>(j));
              break;
            }
          }
        }
        return hits;
      }));
}

std::vector<uint32_t> SelectPointwiseMinimalDiffs(const PackedModelMatrix& t,
                                                  const PackedModelMatrix& p) {
  REVISE_DCHECK_EQ(t.bits(), p.bits());
  if (p.rows() == 0) return {};
  const size_t bits = t.bits();
  if (t.words_used() <= 1) {
    return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
        t.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
          std::vector<uint32_t> hits;
          std::vector<uint64_t> diffs(p.rows());
          for (size_t i = begin; i < end; ++i) {
            const uint64_t xw = t.row(i)[0];
            for (size_t j = 0; j < p.rows(); ++j) {
              diffs[j] = xw ^ p.row(j)[0];
            }
            const std::vector<uint64_t> mu = MinimalMasks(diffs);
            for (size_t j = 0; j < p.rows(); ++j) {
              if (std::binary_search(mu.begin(), mu.end(), diffs[j])) {
                hits.push_back(static_cast<uint32_t>(j));
              }
            }
          }
          return hits;
        }));
  }
  const size_t words = t.words_used();
  const size_t stride = t.row_stride();
  return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
      t.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
        std::vector<uint32_t> hits;
        PackedModelMatrix diffs(bits, p.rows());
        for (size_t i = begin; i < end; ++i) {
          const uint64_t* x = t.row(i);
          for (size_t j = 0; j < p.rows(); ++j) {
            const uint64_t* y = p.row(j);
            uint64_t* d = diffs.row(j);
            for (size_t w = 0; w < stride; ++w) d[w] = x[w] ^ y[w];
          }
          const std::vector<size_t> mu =
              ExtremalRowIndices(diffs, Extremum::kMinimal);
          for (size_t j = 0; j < p.rows(); ++j) {
            // mu rows are in lex order; membership by binary search.
            size_t lo = 0;
            size_t hi = mu.size();
            while (lo < hi) {
              const size_t mid = lo + (hi - lo) / 2;
              if (RowLess(diffs.row(mu[mid]), diffs.row(j), words)) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            if (lo < mu.size() &&
                RowEq(diffs.row(mu[lo]), diffs.row(j), words)) {
              hits.push_back(static_cast<uint32_t>(j));
            }
          }
        }
        return hits;
      }));
}

std::vector<uint32_t> SelectPointwiseMinDistance(const PackedModelMatrix& t,
                                                 const PackedModelMatrix& p) {
  REVISE_DCHECK_EQ(t.bits(), p.bits());
  if (p.rows() == 0) return {};
  return ConcatIndexShards(ParallelMapRanges<std::vector<uint32_t>>(
      t.rows(), kSelectionGrain, [&](size_t begin, size_t end) {
        std::vector<uint32_t> hits;
        std::vector<uint32_t> dist(p.rows());
        for (size_t i = begin; i < end; ++i) {
          DistanceRow(t, i, p, dist.data());
          const uint32_t k = *std::min_element(dist.begin(), dist.end());
          for (size_t j = 0; j < p.rows(); ++j) {
            if (dist[j] == k) hits.push_back(static_cast<uint32_t>(j));
          }
        }
        return hits;
      }));
}

std::vector<Interpretation> MinimalInterpretations(
    std::vector<Interpretation> sets) {
  return ExtremalInterpretations(std::move(sets), Extremum::kMinimal);
}

std::vector<Interpretation> MaximalInterpretations(
    std::vector<Interpretation> sets) {
  return ExtremalInterpretations(std::move(sets), Extremum::kMaximal);
}

std::vector<uint64_t> MinimalMasks(std::vector<uint64_t> masks) {
  return ExtremalMasks(std::move(masks), Extremum::kMinimal);
}

size_t MinPopcount(const std::vector<uint64_t>& masks, size_t fallback) {
  size_t best = fallback;
  for (const uint64_t mask : masks) {
    best = std::min(best, PopcountWord(mask));
  }
  return best;
}

}  // namespace revise::kernel
