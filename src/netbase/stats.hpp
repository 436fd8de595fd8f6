// Histogram and percentile helpers used by the dataset-statistics figures
// (Fig. 2, Table 1) and by the benchmark reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nb {

/// Integer-valued histogram with exact counts per value.
class Histogram {
 public:
  void add(std::uint64_t value, std::uint64_t count = 1);

  std::uint64_t total() const { return total_; }
  std::uint64_t count_of(std::uint64_t value) const;
  /// Number of samples with value >= threshold.
  std::uint64_t count_at_least(std::uint64_t threshold) const;
  /// Fraction of samples with value >= threshold (0 if empty).
  double fraction_at_least(std::uint64_t threshold) const;

  bool empty() const { return total_ == 0; }
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;

  /// Value at percentile p in [0, 100]; the smallest value v such that at
  /// least p% of samples are <= v.  Requires a non-empty histogram.
  std::uint64_t percentile(double p) const;

  const std::map<std::uint64_t, std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// ASCII rendering with a logarithmic bar scale, one row per value (values
  /// above `fold_above` folded into exponentially wider buckets).
  std::string render(std::uint64_t fold_above = 16) const;

 private:
  std::map<std::uint64_t, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Nearest-rank percentile of a sample vector (p in [0,100]); sorts a copy.
/// Returns the sample at rank ceil(p/100 * n), i.e. index ceil(p/100 * n) - 1,
/// so exactly floor((1 - p/100) * n) samples lie above it; p 0 is the minimum.
double percentile(std::vector<double> samples, double p);

/// Ordinary least squares fit y = a + b*x; returns {a, b, r2}.
struct LinearFit {
  double intercept = 0;
  double slope = 0;
  double r2 = 0;
};
LinearFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace nb
