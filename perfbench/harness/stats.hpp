// Sample statistics for the benchmark report.
//
// Latencies are kept as exact samples (a run holds at most a few hundred
// thousand), so percentiles are order statistics, not histogram buckets.
// A percentile is only as good as the samples beyond it: percentile() lowers
// the requested quantile until at least kTailSamples samples lie above it,
// and reports the quantile it actually used together with the sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Samples that must lie beyond a reported percentile (p99 needs 1000
// samples, p90 needs 100).
inline constexpr std::size_t kTailSamples = 10;

// The highest quantile <= `want` that leaves at least kTailSamples samples
// above it among `n`, never below the median. 0 when n == 0.
double supported_quantile(double want, std::size_t n);

struct Percentile {
  double value = 0;  // 0 when there are no samples
  double q = 0;      // quantile actually reported (see supported_quantile)
  std::size_t n = 0;
};

// Order statistic with linear interpolation between closest ranks, at
// supported_quantile(want, samples.size()). Sorts `samples` in place.
Percentile percentile(std::vector<double>& samples, double want);

// Median of a small set (set-up repetitions); 0 when empty.
double median(std::vector<double> values);

// Indices of the slices to keep out of consecutive measurement slices, given
// the share of host CPU time stolen from the machine during each: the
// quieter of each adjacent pair (the earlier one on a tie). An odd last
// slice is kept.
std::vector<std::size_t> quiet_slices(const std::vector<double>& steal);

}  // namespace perfbench
