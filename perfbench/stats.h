#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "distributed/dynamic_runner.h"

namespace perfbench {

/// A percentile of a sample set together with the number of samples it
/// was taken from (every reported timing carries its sample count).
struct Percentile {
  double value = 0;
  size_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` × n samples are ≤ it, i.e. sorted[ceil(p × n) − 1]. `p` is in
/// (0, 1]; p = 0.5 is the median (the lower middle for even n). An empty
/// set yields {0, 0}.
Percentile NearestRank(std::vector<double> samples, double p);

/// Geometric mean, over kinds of operation, of each kind's nearest-rank
/// `p` percentile; `samples` counts every sample. Kinds without samples
/// are skipped. With one kind this is NearestRank itself.
Percentile GeoMeanPercentile(const std::vector<std::vector<double>>& by_kind,
                             double p);

/// True iff the nearest-rank `p` percentile of `n` samples has at least
/// ten samples above its rank — the guide's rule for the highest
/// percentile worth reporting (p90 needs n ≥ 100).
bool HasTenBeyond(size_t n, double p);

/// num / den, or 0 when den is 0 (a ratio over nothing observed).
double Ratio(double num, double den);

/// Registry counter value (a histogram's sum), 0 when the instrument
/// never registered.
double CounterValue(const benu::metrics::MetricsSnapshot& snap,
                    const std::string& name);

/// Lookups of the cache whose instruments start with `cache`
/// ("db_cache", "triangle_cache"): `.hits` + `.misses` + `.coalesced`
/// (a coalesced lookup waited on another thread's fetch). The base of
/// the cache's hit ratio.
double CacheLookups(const benu::metrics::MetricsSnapshot& snap,
                    const std::string& cache);

/// Matches the delta-match filter arbitrated in one epoch: added +
/// retracted + rejected. The base of the filter's reject ratio.
double FilterConsidered(const benu::EpochReport& report);

/// Percentile of a registry histogram. Bucket b holds values in
/// [2^(b−1), 2^b); the rank's position inside its bucket is linearly
/// interpolated between the bucket bounds. {0, 0} for an empty or
/// non-histogram entry.
Percentile HistogramPercentile(const benu::metrics::SnapshotEntry& entry,
                               double p);

/// Failure accounting of one run: every attempted operation (a pass, a
/// query or an epoch) is recorded once, as ok or failed. A failure is a
/// non-OK Status, an admission rejection, or a count that differs from
/// the reference.
class FailureTally {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Folds another tally in (one per client thread).
  void Merge(const FailureTally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double FailedFraction() const {
    return Ratio(static_cast<double>(failed_),
                 static_cast<double>(attempted_));
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
