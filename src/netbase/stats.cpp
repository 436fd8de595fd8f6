#include "netbase/stats.hpp"

#include <algorithm>
#include <cmath>

#include "netbase/check.hpp"
#include "netbase/strings.hpp"

namespace nb {

void Histogram::add(std::uint64_t value, std::uint64_t count) {
  buckets_[value] += count;
  total_ += count;
}

std::uint64_t Histogram::count_of(std::uint64_t value) const {
  auto it = buckets_.find(value);
  return it == buckets_.end() ? 0 : it->second;
}

std::uint64_t Histogram::count_at_least(std::uint64_t threshold) const {
  std::uint64_t count = 0;
  for (auto it = buckets_.lower_bound(threshold); it != buckets_.end(); ++it)
    count += it->second;
  return count;
}

double Histogram::fraction_at_least(std::uint64_t threshold) const {
  if (total_ == 0) return 0;
  return static_cast<double>(count_at_least(threshold)) /
         static_cast<double>(total_);
}

std::uint64_t Histogram::min() const {
  RD_CHECK(!buckets_.empty(), "Histogram::min on empty histogram");
  return buckets_.begin()->first;
}

std::uint64_t Histogram::max() const {
  RD_CHECK(!buckets_.empty(), "Histogram::max on empty histogram");
  return buckets_.rbegin()->first;
}

double Histogram::mean() const {
  if (total_ == 0) return 0;
  double sum = 0;
  for (auto& [value, count] : buckets_)
    sum += static_cast<double>(value) * static_cast<double>(count);
  return sum / static_cast<double>(total_);
}

std::uint64_t Histogram::percentile(double p) const {
  RD_CHECK(total_ > 0, "Histogram::percentile on empty histogram");
  RD_DCHECK(p >= 0 && p <= 100, "percentile p outside [0, 100]");
  const double target = p / 100.0 * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (auto& [value, count] : buckets_) {
    seen += count;
    if (static_cast<double>(seen) >= target) return value;
  }
  return buckets_.rbegin()->first;
}

std::string Histogram::render(std::uint64_t fold_above) const {
  if (buckets_.empty()) return "(empty histogram)\n";
  // Fold values above the threshold into power-of-two buckets so the tail
  // stays readable.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> rows;
  for (auto& [value, count] : buckets_) {
    if (value <= fold_above) {
      rows[{value, value}] += count;
    } else {
      std::uint64_t lo = fold_above + 1;
      std::uint64_t width = fold_above + 1;
      while (value > lo + width - 1) {
        lo += width;
        width *= 2;
      }
      rows[{lo, lo + width - 1}] += count;
    }
  }
  std::uint64_t max_count = 1;
  for (auto& [range, count] : rows) max_count = std::max(max_count, count);
  std::string out;
  for (auto& [range, count] : rows) {
    std::string label = range.first == range.second
                            ? std::to_string(range.first)
                            : std::to_string(range.first) + "-" +
                                  std::to_string(range.second);
    while (label.size() < 12) label.push_back(' ');
    // log-scaled bar: bar length proportional to log10(count).
    int bar = count == 0 ? 0
                         : 1 + static_cast<int>(std::log10(
                                   static_cast<double>(count)) /
                                   std::max(1.0, std::log10(static_cast<double>(
                                                     max_count))) *
                                   40.0);
    out += label + " | " + std::string(static_cast<std::size_t>(bar), '#') +
           " " + fmt_count(count) + "\n";
  }
  return out;
}

double percentile(std::vector<double> samples, double p) {
  RD_CHECK(!samples.empty(), "percentile of empty sample vector");
  RD_DCHECK(p >= 0 && p <= 100, "percentile p outside [0, 100]");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

LinearFit fit_line(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0) return fit;
  fit.slope = (dn * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / dn;
  const double ss_tot = syy - sy * sy / dn;
  double ss_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = ys[i] - (fit.intercept + fit.slope * xs[i]);
    ss_res += e * e;
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace nb
