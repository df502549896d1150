// Reporting rules shared by the benchmark and its tests.
#pragma once

#include <array>
#include <cstddef>

namespace pagoda::perfbench {

/// The highest of p50/p90/p99/p99.9 that has at least ten of `n` samples
/// beyond it, i.e. n * (1 - p/100) >= 10; 0 when even p50 has fewer
/// (n < 20). A timing percentile above this one would rest on fewer than
/// ten observations and is not reported.
inline double highest_reportable_percentile(std::size_t n) {
  constexpr std::array<std::size_t, 4> kPerMille = {999, 990, 900, 500};
  for (const std::size_t pm : kPerMille) {
    if (n * (1000 - pm) >= 10 * 1000) return static_cast<double>(pm) / 10.0;
  }
  return 0.0;
}

}  // namespace pagoda::perfbench
