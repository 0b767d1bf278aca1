#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
size_t RankOf(size_t n, double p) {
  const double raw = std::ceil(p * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(raw), 1, n);
}

}  // namespace

Percentile NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return {};
  const size_t rank = RankOf(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return {samples[rank - 1], samples.size()};
}

Percentile GeoMeanPercentile(const std::vector<std::vector<double>>& by_kind,
                             double p) {
  double log_sum = 0;
  size_t kinds = 0;
  size_t samples = 0;
  for (const std::vector<double>& kind : by_kind) {
    if (kind.empty()) continue;
    log_sum += std::log(NearestRank(kind, p).value);
    ++kinds;
    samples += kind.size();
  }
  if (kinds == 0) return {};
  return {std::exp(log_sum / kinds), samples};
}

bool HasTenBeyond(size_t n, double p) {
  return n > 0 && n - RankOf(n, p) >= 10;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double CounterValue(const benu::metrics::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const auto& e : snap.entries) {
    if (e.name != name) continue;
    return e.kind == benu::metrics::InstrumentKind::kCounter
               ? static_cast<double>(e.counter_value)
               : static_cast<double>(e.hist_sum);
  }
  return 0;
}

double CacheLookups(const benu::metrics::MetricsSnapshot& snap,
                    const std::string& cache) {
  return CounterValue(snap, cache + ".hits") +
         CounterValue(snap, cache + ".misses") +
         CounterValue(snap, cache + ".coalesced");
}

double FilterConsidered(const benu::EpochReport& report) {
  return static_cast<double>(report.added + report.retracted +
                             report.filter_rejected);
}

Percentile HistogramPercentile(const benu::metrics::SnapshotEntry& entry,
                               double p) {
  if (entry.kind != benu::metrics::InstrumentKind::kHistogram ||
      entry.hist_count == 0) {
    return {};
  }
  const uint64_t rank = RankOf(entry.hist_count, p);
  uint64_t seen = 0;
  for (const auto& [upper, count] : entry.hist_buckets) {
    if (seen + count < rank) {
      seen += count;
      continue;
    }
    // Bucket [lower, upper]: upper = 2^b − 1, lower = 2^(b−1) (0 for b=0).
    const double hi = static_cast<double>(upper);
    const double lo = upper == 0 ? 0.0 : (hi + 1) / 2;
    const double within = static_cast<double>(rank - seen) / count;
    return {lo + (hi - lo) * within, static_cast<size_t>(entry.hist_count)};
  }
  return {static_cast<double>(entry.hist_buckets.back().first),
          static_cast<size_t>(entry.hist_count)};
}

}  // namespace perfbench
