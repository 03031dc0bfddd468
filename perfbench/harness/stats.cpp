#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double supported_quantile(double want, std::size_t n) {
  if (n == 0) return 0;
  const double cap = 1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(want, cap));
}

Percentile percentile(std::vector<double>& samples, double want) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  out.q = supported_quantile(want, samples.size());
  std::sort(samples.begin(), samples.end());
  const double rank = out.q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::vector<double> copy = std::move(values);
  return percentile(copy, 0.5).value;
}

std::vector<std::size_t> quiet_slices(const std::vector<double>& steal) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < steal.size(); i += 2) {
    keep.push_back(i + 1 < steal.size() && steal[i + 1] < steal[i] ? i + 1 : i);
  }
  return keep;
}

}  // namespace perfbench
