// Tests for the bench growth verdict (bench/growth_verdict.h) on the size
// series the reproduction benches report.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/growth_verdict.h"

namespace revise::bench {
namespace {

TEST(GrowthVerdictTest, CommittedSeriesKeepTheirVerdicts) {
  // BENCH_table1_general.json: Theorem 3.4/3.5 sizes against n.
  const std::vector<double> ns = {6, 9, 12, 15, 18, 24, 30};
  const std::vector<uint64_t> dalal = {78, 114, 156, 192, 234, 312, 390};
  const std::vector<uint64_t> weber = {54, 78, 108, 132, 162, 216, 270};
  EXPECT_EQ(GrowthVerdict(ns, dalal), "polynomial");
  EXPECT_EQ(GrowthVerdict(ns, weber), "polynomial");
  // BENCH_explosion.json against m: the naive GFUV size of Nebel's
  // family, m * 2^m + 2m for m = 1..10 (4, 12, 30, ..., 10260), and the
  // world count of Winslett's chain, 2^(m+1) - 1 for m = 1..8.
  std::vector<double> ms;
  std::vector<uint64_t> nebel;
  std::vector<uint64_t> worlds;
  ms.reserve(10);
  nebel.reserve(10);
  worlds.reserve(8);
  for (uint64_t m = 1; m <= 10; ++m) {
    ms.push_back(static_cast<double>(m));
    nebel.push_back(m * (uint64_t{1} << m) + 2 * m);
  }
  for (uint64_t m = 1; m <= 8; ++m) worlds.push_back((uint64_t{2} << m) - 1);
  EXPECT_EQ(nebel.back(), 10260u);
  EXPECT_EQ(GrowthVerdict(ms, nebel), "EXPONENTIAL");
  ms.resize(worlds.size());
  EXPECT_EQ(GrowthVerdict(ms, worlds), "EXPONENTIAL");
}

TEST(GrowthVerdictTest, LinearGrowthAtDoublingParametersIsPolynomial) {
  // bench_table1_bounded, k = 2: sizes double with n = 8, 16, 32, 64, yet
  // grow linearly in n.  Successive ratios alone read these as
  // exponential.
  const std::vector<double> ns = {8, 16, 32, 64};
  EXPECT_EQ(GrowthVerdict(ns, {44, 76, 140, 268}), "polynomial");
  EXPECT_EQ(GrowthVerdict(ns, {18, 34, 66, 130}), "polynomial");
  EXPECT_EQ(GrowthVerdict(ns, {34, 66, 130, 258}), "polynomial");
}

TEST(GrowthVerdictTest, ExactFamilies) {
  const std::vector<double> ns = {2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> cubic;
  std::vector<uint64_t> doubling;
  cubic.reserve(ns.size());
  doubling.reserve(ns.size());
  for (const double n : ns) {
    cubic.push_back(static_cast<uint64_t>(n * n * n));
    doubling.push_back(uint64_t{1} << static_cast<int>(n));
  }
  EXPECT_EQ(GrowthVerdict(ns, cubic), "polynomial");
  EXPECT_EQ(GrowthVerdict(ns, doubling), "EXPONENTIAL");
  EXPECT_EQ(GrowthVerdict(ns, {5, 5, 5, 5, 5, 5, 5}), "polynomial");
}

TEST(GrowthVerdictTest, UnusableSeriesAreNotApplicable) {
  EXPECT_EQ(GrowthVerdict({1, 2}, {1, 2}), "n/a");
  EXPECT_EQ(GrowthVerdict({1, 2, 3}, {1, 2}), "n/a");
  EXPECT_EQ(GrowthVerdict({1, 2, 3}, {1, 0, 2}), "n/a");
  EXPECT_EQ(GrowthVerdict({1, 2, 3}, {3, 2, 4}), "n/a");
  EXPECT_EQ(GrowthVerdict({0, 1, 2}, {1, 2, 3}), "n/a");
  EXPECT_EQ(GrowthVerdict({1, 1, 2}, {1, 2, 3}), "n/a");
}

}  // namespace
}  // namespace revise::bench
