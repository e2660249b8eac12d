#include "core/kmeans.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot::core {

namespace {

/// One assignment pass for k == 2: the general loop's strict-< scan,
/// unrolled and branch-free. Cluster 1 wins only when strictly closer than
/// cluster 0's distance as the scan would have kept it (a NaN or infinite
/// distance to 0 leaves the running best at +inf), so ties go to 0.
bool AssignTwo(std::span<const double> values, KmeansResult& result,
               std::vector<double>& sums, std::vector<uint64_t>& counts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double c0 = result.centers[0];
  const double c1 = result.centers[1];
  uint32_t* const assignment = result.assignment.data();
  uint64_t count1 = 0;
  uint32_t changed = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double d0 = std::abs(values[i] - c0);
    const double d1 = std::abs(values[i] - c1);
    const uint32_t one = d1 < (d0 < kInf ? d0 : kInf);
    changed |= assignment[i] ^ one;
    assignment[i] = one;
    count1 += one;
  }
  // Both sums take every point, masked to +0.0 on the side it did not
  // join, so each side still accumulates exactly its own points in index
  // order: adding +0.0 leaves a sum bit-identical unless the sum is -0.0,
  // and a sum that starts at +0.0 never becomes -0.0 under
  // round-to-nearest.
  double sum0 = 0.0;
  double sum1 = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(values[i]);
    const uint64_t in_one = uint64_t{0} - assignment[i];  // all ones iff 1
    sum0 += std::bit_cast<double>(bits & ~in_one);
    sum1 += std::bit_cast<double>(bits & in_one);
  }
  sums[0] = sum0;
  sums[1] = sum1;
  counts[0] = values.size() - count1;
  counts[1] = count1;
  return changed != 0;
}

/// One assignment pass for any k: nearest center, ties to the lower index.
bool AssignAny(std::span<const double> values, KmeansResult& result,
               std::vector<double>& sums, std::vector<uint64_t>& counts) {
  std::fill(sums.begin(), sums.end(), 0.0);
  std::fill(counts.begin(), counts.end(), 0);
  bool moved = false;
  for (size_t i = 0; i < values.size(); ++i) {
    uint32_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (uint32_t c = 0; c < result.k; ++c) {
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
  return moved;
}

double SqDist(std::span<const double> points, size_t dim, size_t i,
              std::span<const double> centers, uint32_t c) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = points[i * dim + j] - centers[c * dim + j];
    sum += d * d;
  }
  return sum;
}

}  // namespace

KmeansResult Kmeans1D(std::span<const double> values, uint32_t k,
                      uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("Kmeans1D: k == 0");
  if (values.empty()) throw std::invalid_argument("Kmeans1D: empty input");

  const size_t n = values.size();
  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.resize(k);

  // Quantile seeding: center c is the order statistic at index
  // min(n - 1, floor((c + 0.5) / k * n)). nth_element puts exactly that
  // value at the index, as a full sort would (equal doubles are the same
  // bits, +-0 aside). The indices rise with c, so selecting from the top
  // down leaves every later target inside the prefix below the last one.
  std::vector<double> order(values.begin(), values.end());
  size_t end = n;
  for (uint32_t c = k; c-- > 0;) {
    const double q = (c + 0.5) / static_cast<double>(k);
    const size_t at =
        std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
    if (at < end) {
      std::nth_element(order.begin(),
                       order.begin() + static_cast<ptrdiff_t>(at),
                       order.begin() + static_cast<ptrdiff_t>(end));
      end = at;
    }
    result.centers[c] = order[at];
  }

  telemetry::Count("core.kmeans.runs");
  trace_events::Scope run_scope("kmeans.run");
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.iterations");
    trace_events::Instant("kmeans.iteration");
    bool moved = k == 2 ? AssignTwo(values, result, sums, counts)
                        : AssignAny(values, result, sums, counts);

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centers[c] = sums[c] / static_cast<double>(counts[c]);
      } else {
        // Re-seed an empty cluster at the point farthest from its center.
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
  return result;
}

KmeansResult KmeansNd(std::span<const double> points, size_t dim, uint32_t k,
                      uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("KmeansNd: k == 0");
  if (dim == 0) throw std::invalid_argument("KmeansNd: dim == 0");
  if (points.empty() || points.size() % dim != 0)
    throw std::invalid_argument("KmeansNd: bad points array");
  const size_t n = points.size() / dim;

  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.assign(static_cast<size_t>(k) * dim, 0.0);

  // Maximin seeding: first center = centroid-nearest point, then
  // iteratively the point farthest from all chosen centers.
  std::vector<double> centroid(dim, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < dim; ++j)
      centroid[j] += points[i * dim + j] / static_cast<double>(n);
  size_t first = 0;
  double first_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double d = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = points[i * dim + j] - centroid[j];
      d += diff * diff;
    }
    if (d < first_dist) {
      first_dist = d;
      first = i;
    }
  }
  std::copy_n(points.begin() + static_cast<ptrdiff_t>(first * dim), dim,
              result.centers.begin());
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  for (uint32_t c = 1; c < k; ++c) {
    size_t far_idx = 0;
    double far_dist = -1.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], SqDist(points, dim, i,
                                                 result.centers, c - 1));
      if (min_dist[i] > far_dist) {
        far_dist = min_dist[i];
        far_idx = i;
      }
    }
    std::copy_n(points.begin() + static_cast<ptrdiff_t>(far_idx * dim), dim,
                result.centers.begin() + static_cast<ptrdiff_t>(c) * dim);
  }

  telemetry::Count("core.kmeans.nd_runs");
  std::vector<double> sums(static_cast<size_t>(k) * dim);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.nd_iterations");
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = SqDist(points, dim, i, result.centers, c);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        moved = true;
      }
      for (size_t j = 0; j < dim; ++j) sums[best * dim + j] += points[i * dim + j];
      ++counts[best];
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous center
      for (size_t j = 0; j < dim; ++j)
        result.centers[c * dim + j] =
            sums[c * dim + j] / static_cast<double>(counts[c]);
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i)
    result.inertia += SqDist(points, dim, i, result.centers,
                             result.assignment[i]);
  return result;
}

}  // namespace stemroot::core
