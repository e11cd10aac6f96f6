#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           std::uint64_t num, std::uint64_t den) {
  const std::uint64_t n = sorted.size();
  if (n == 0) return 0;
  std::uint64_t rank = (n * num + den - 1) / den;
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

TopPercentile top_percentile(const std::vector<std::uint64_t>& sorted) {
  TopPercentile out;
  const std::uint64_t n = sorted.size();
  out.samples = n;
  if (n == 0) return out;
  // Level 100 * (1 - 10^-k) leaves floor(n / 10^k) samples beyond its
  // nearest rank; the median leaves floor(n / 2).
  std::uint64_t beyond = n / 2;
  double level = 50.0;
  std::uint64_t scale = 10;
  double tail = 10.0;  // 100 - level, in percent
  while (n / scale >= 10) {
    beyond = n / scale;
    level = 100.0 - tail;
    scale *= 10;
    tail /= 10.0;
  }
  out.level = level;
  out.beyond = beyond;
  out.value = sorted[n - beyond - 1];
  return out;
}

}  // namespace perfbench
