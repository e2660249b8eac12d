#include "core/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/telemetry.h"

namespace stemroot::core {
namespace {

TEST(Kmeans1DTest, SeparatesTwoModes) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextGaussian(10, 1));
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextGaussian(100, 5));
  const KmeansResult result = Kmeans1D(values, 2);

  // Every point from mode A in one cluster, mode B in the other.
  const uint32_t cluster_a = result.assignment[0];
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(result.assignment[i], cluster_a);
  for (int i = 500; i < 1000; ++i)
    EXPECT_NE(result.assignment[i], cluster_a);

  std::vector<double> centers = result.centers;
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 10.0, 1.0);
  EXPECT_NEAR(centers[1], 100.0, 2.0);
}

TEST(Kmeans1DTest, ThreeModesWithKThree) {
  Rng rng(7);
  std::vector<double> values;
  for (double mode : {20.0, 50.0, 90.0})
    for (int i = 0; i < 300; ++i)
      values.push_back(rng.NextGaussian(mode, 1.5));
  const KmeansResult result = Kmeans1D(values, 3);
  std::vector<double> centers = result.centers;
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 20.0, 2.0);
  EXPECT_NEAR(centers[1], 50.0, 2.0);
  EXPECT_NEAR(centers[2], 90.0, 2.0);
}

TEST(Kmeans1DTest, DeterministicWithoutRng) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble(0, 100));
  const KmeansResult a = Kmeans1D(values, 4);
  const KmeansResult b = Kmeans1D(values, 4);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centers, b.centers);
}

TEST(Kmeans1DTest, InertiaDecreasesWithK) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextDouble(0, 100));
  double prev = Kmeans1D(values, 1).inertia;
  for (uint32_t k = 2; k <= 5; ++k) {
    const double inertia = Kmeans1D(values, k).inertia;
    EXPECT_LE(inertia, prev * 1.0001);
    prev = inertia;
  }
}

TEST(Kmeans1DTest, KOneIsTheMean) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 6.0};
  const KmeansResult result = Kmeans1D(values, 1);
  EXPECT_DOUBLE_EQ(result.centers[0], 3.0);
  for (uint32_t a : result.assignment) EXPECT_EQ(a, 0u);
}

TEST(Kmeans1DTest, ConstantDataHandled) {
  const std::vector<double> values(100, 5.0);
  const KmeansResult result = Kmeans1D(values, 2);
  // All points land in one cluster; no crash, assignments valid.
  for (uint32_t a : result.assignment) EXPECT_LT(a, 2u);
}

TEST(Kmeans1DTest, Validation) {
  const std::vector<double> values = {1.0};
  EXPECT_THROW(Kmeans1D(values, 0), std::invalid_argument);
  EXPECT_THROW(Kmeans1D({}, 2), std::invalid_argument);
}

/// The Kmeans1D of record before order-statistic seeding and the k = 2
/// assignment loop: quantile seeds read from a fully sorted copy, one
/// general assignment loop for every k. Kept verbatim (bar telemetry,
/// which it tallies into `runs`/`iterations` instead) as the oracle the
/// library version must match bit for bit.
struct ReferenceRun {
  KmeansResult result;
  uint64_t runs = 0;
  uint64_t iterations = 0;
};

ReferenceRun ReferenceKmeans1D(std::span<const double> values, uint32_t k,
                               uint32_t max_iters) {
  const size_t n = values.size();
  ReferenceRun run;
  KmeansResult& result = run.result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.resize(k);

  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t c = 0; c < k; ++c) {
    const double q = (c + 0.5) / static_cast<double>(k);
    result.centers[c] =
        sorted[std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)))];
  }

  ++run.runs;
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    ++run.iterations;
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = std::abs(values[i] - result.centers[c]);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        moved = true;
      }
      sums[best] += values[i];
      ++counts[best];
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centers[c] = sums[c] / static_cast<double>(counts[c]);
      } else {
        size_t far_idx = 0;
        double far_dist = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double d =
              std::abs(values[i] - result.centers[result.assignment[i]]);
          if (d > far_dist) {
            far_dist = d;
            far_idx = i;
          }
        }
        result.centers[c] = values[far_idx];
        moved = true;
      }
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - result.centers[result.assignment[i]];
    result.inertia += d * d;
  }
  return run;
}

/// Seeded inputs of one shape: continuous (lognormal), heavy ties (four
/// levels), constant, two distinct values (fewer than k for k > 2, so the
/// empty-cluster reseed runs), or finite values mixed with +-inf (a
/// cluster holding both infinities gets a NaN center, which the k = 2
/// tie rule must treat as the general scan does).
enum class Shape { kContinuous, kTies, kConstant, kTwoValues, kInfinite };

std::vector<double> ShapedValues(Shape shape, size_t n, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    switch (shape) {
      case Shape::kContinuous: v = rng.NextLogNormal(3.0, 1.0); break;
      case Shape::kTies:
        v = 10.0 + 7.5 * static_cast<double>(rng.NextBounded(4));
        break;
      case Shape::kConstant: v = 42.0; break;
      case Shape::kTwoValues: v = rng.NextBounded(3) == 0 ? 1.0 : 300.0; break;
      case Shape::kInfinite: {
        const uint64_t pick = rng.NextBounded(8);
        v = pick == 0 ? kInf : pick == 1 ? -kInf : rng.NextDouble(0.0, 10.0);
        break;
      }
    }
  }
  return values;
}

TEST(Kmeans1DTest, MatchesSortSeededReference) {
  telemetry::SetEnabled(true);
  size_t compared = 0;
  for (const Shape shape : {Shape::kContinuous, Shape::kTies,
                            Shape::kConstant, Shape::kTwoValues,
                            Shape::kInfinite})
    for (const size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{256},
                           size_t{10000}})
      for (const uint32_t k : {1u, 2u, 3u, 5u})
        for (const uint32_t max_iters : {1u, 50u}) {
          const std::vector<double> values = ShapedValues(
              shape, n, DeriveSeed(static_cast<uint64_t>(shape), n));
          const ReferenceRun want = ReferenceKmeans1D(values, k, max_iters);
          const telemetry::Snapshot before = telemetry::Capture();
          const KmeansResult got = Kmeans1D(values, k, max_iters);
          const telemetry::Snapshot after = telemetry::Capture();
          const std::string where =
              "shape " + std::to_string(static_cast<int>(shape)) + " n " +
              std::to_string(n) + " k " + std::to_string(k) + " max_iters " +
              std::to_string(max_iters);
          EXPECT_EQ(got.k, want.result.k) << where;
          EXPECT_EQ(got.assignment, want.result.assignment) << where;
          ASSERT_EQ(got.centers.size(), want.result.centers.size()) << where;
          for (uint32_t c = 0; c < k; ++c)
            EXPECT_EQ(std::bit_cast<uint64_t>(got.centers[c]),
                      std::bit_cast<uint64_t>(want.result.centers[c]))
                << where << " center " << c;
          EXPECT_EQ(std::bit_cast<uint64_t>(got.inertia),
                    std::bit_cast<uint64_t>(want.result.inertia))
              << where;
          EXPECT_EQ(after.Counter("core.kmeans.runs") -
                        before.Counter("core.kmeans.runs"),
                    want.runs)
              << where;
          EXPECT_EQ(after.Counter("core.kmeans.iterations") -
                        before.Counter("core.kmeans.iterations"),
                    want.iterations)
              << where;
          ++compared;
        }
  telemetry::Reset();
  telemetry::SetEnabled(false);
  EXPECT_EQ(compared, 5u * 5u * 4u * 2u);
}

TEST(KmeansNdTest, SeparatesBlobs) {
  Rng rng(17);
  std::vector<double> points;  // 2-D
  for (int i = 0; i < 300; ++i) {
    points.push_back(rng.NextGaussian(0, 1));
    points.push_back(rng.NextGaussian(0, 1));
  }
  for (int i = 0; i < 300; ++i) {
    points.push_back(rng.NextGaussian(20, 1));
    points.push_back(rng.NextGaussian(20, 1));
  }
  const KmeansResult result = KmeansNd(points, 2, 2);
  const uint32_t first = result.assignment[0];
  for (int i = 0; i < 300; ++i) EXPECT_EQ(result.assignment[i], first);
  for (int i = 300; i < 600; ++i) EXPECT_NE(result.assignment[i], first);
}

TEST(KmeansNdTest, InertiaZeroWhenKEqualsDistinctPoints) {
  // 3 distinct points, k = 3 -> every point is its own center.
  const std::vector<double> points = {0.0, 0.0, 10.0, 0.0, 0.0, 10.0};
  const KmeansResult result = KmeansNd(points, 2, 3);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KmeansNdTest, Validation) {
  const std::vector<double> points = {1.0, 2.0, 3.0};
  EXPECT_THROW(KmeansNd(points, 2, 2), std::invalid_argument);  // 3 % 2 != 0
  EXPECT_THROW(KmeansNd(points, 0, 2), std::invalid_argument);
  EXPECT_THROW(KmeansNd(points, 3, 0), std::invalid_argument);
  EXPECT_THROW(KmeansNd({}, 2, 2), std::invalid_argument);
}

/// Property: assignments always index a real cluster and every cluster
/// center equals the mean of its assigned points after convergence.
class KmeansPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KmeansPropertyTest, CentersAreClusterMeans) {
  Rng rng(DeriveSeed(7, static_cast<uint64_t>(GetParam())));
  std::vector<double> values;
  const size_t n = 50 + rng.NextBounded(500);
  for (size_t i = 0; i < n; ++i)
    values.push_back(rng.NextLogNormal(3.0, 1.0));
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  const KmeansResult result = Kmeans1D(values, k, 200);

  std::vector<double> sums(k, 0.0);
  std::vector<size_t> counts(k, 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LT(result.assignment[i], k);
    sums[result.assignment[i]] += values[i];
    ++counts[result.assignment[i]];
  }
  for (uint32_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    EXPECT_NEAR(result.centers[c], sums[c] / static_cast<double>(counts[c]),
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomData, KmeansPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace stemroot::core
