// Order statistics used for every reported figure.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Nearest-rank quantile num/den of `sorted` (ascending): the sample of
/// 1-based rank ceil(n * num / den), computed in integers so that p99 of
/// 100 samples is exactly the 99th. 0 for an empty vector.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           std::uint64_t num, std::uint64_t den);

/// The highest percentile of the ladder p50, p90, p99, p99.9, ... that
/// still has at least ten samples beyond it, so a tail figure always rests
/// on ten or more observations. With fewer than 20 samples no level
/// qualifies and the median is reported (level 50).
struct TopPercentile {
  double level = 50.0;        ///< percentile, e.g. 99.9
  std::uint64_t value = 0;    ///< the sample at that rank
  std::uint64_t samples = 0;  ///< sample count it was taken from
  std::uint64_t beyond = 0;   ///< samples ranked above it
};
TopPercentile top_percentile(const std::vector<std::uint64_t>& sorted);

}  // namespace perfbench
