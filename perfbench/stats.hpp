// Order statistics shared by the benchmark driver and its self-tests.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// samples is the ceil(p/100 * n)-th smallest. A tail percentile is only
// reported when at least `kMinBeyond` samples lie strictly above its
// rank, so a p99 needs 1000 samples; with fewer the caller learns the
// highest percentile the run can support instead.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Median with the usual midpoint rule for an even count. Throws on an
/// empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
/// them (the default "exclusive" method). Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i - 1)] =
        (lo * static_cast<double>(4 - delta) +
         hi * static_cast<double>(delta)) / 4.0;
  }
  return out;
}

/// 1-based nearest rank of the p-th percentile among n samples.
inline std::size_t percentile_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

/// Samples strictly beyond the p-th percentile's rank.
inline std::size_t samples_beyond(double p, std::size_t n) {
  return n == 0 ? 0 : n - percentile_rank(p, n);
}

/// The p-th percentile, or nothing when fewer than kMinBeyond samples lie
/// beyond it.
inline std::optional<double> tail_percentile(std::vector<double> values,
                                             double p) {
  if (values.empty() || samples_beyond(p, values.size()) < kMinBeyond) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  return values[percentile_rank(p, values.size()) - 1];
}

/// The fewest samples for which tail_percentile(p) answers.
inline std::size_t samples_needed(double p) {
  std::size_t n = 1;
  while (samples_beyond(p, n) < kMinBeyond) ++n;
  return n;
}

/// Throughput as the median over whole `window`-second windows from
/// `start` of the events completed in each; a short stall or a burst of
/// neighbour load moves one window, not the result. Falls back to the
/// overall rate when the span holds fewer than three windows.
inline double median_window_rate(const std::vector<double>& completions,
                                 double start, double end, double window) {
  const auto windows = static_cast<std::size_t>((end - start) / window);
  if (windows < 3) {
    return static_cast<double>(completions.size()) / (end - start);
  }
  std::vector<double> counts(windows, 0.0);
  for (const double t : completions) {
    const double offset = (t - start) / window;
    if (offset >= 0.0 && offset < static_cast<double>(windows)) {
      counts[static_cast<std::size_t>(offset)] += 1.0;
    }
  }
  return median(counts) / window;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
