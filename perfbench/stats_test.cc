// Tests of the benchmark's own statistics: the percentile rule with its
// sample counts, the failure accounting, and the bases of its ratios.
// run.py runs it before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::CacheLookups;
using perfbench::CounterValue;
using perfbench::FailureTally;
using perfbench::FilterConsidered;
using perfbench::GeoMeanPercentile;
using perfbench::HasTenBeyond;
using perfbench::HistogramPercentile;
using perfbench::NearestRank;
using perfbench::Percentile;
using perfbench::Ratio;

void NearestRankRule() {
  // Unsorted input; nearest rank is sorted[ceil(p*n) - 1].
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT(Near(NearestRank(ten, 0.5).value, 5));   // rank 5
  EXPECT(Near(NearestRank(ten, 0.9).value, 9));   // rank 9
  EXPECT(Near(NearestRank(ten, 0.99).value, 10)); // rank 10
  EXPECT(Near(NearestRank(ten, 0.01).value, 1));  // rank 1
  EXPECT(NearestRank(ten, 0.5).samples == 10);
  // Odd count: the true middle.
  EXPECT(Near(NearestRank({3, 1, 2}, 0.5).value, 2));
  // One sample answers every percentile.
  EXPECT(Near(NearestRank({42}, 0.9).value, 42));
  EXPECT(NearestRank({42}, 0.9).samples == 1);
  // Empty: no value, no samples.
  const Percentile none = NearestRank({}, 0.5);
  EXPECT(none.samples == 0 && none.value == 0);
}

void GeoMeanOfKinds() {
  // Two kinds: medians 2 and 8 -> geometric mean 4, over 6 samples.
  const Percentile p = GeoMeanPercentile({{1, 2, 3}, {}, {8, 7, 9}}, 0.5);
  EXPECT(Near(p.value, 4));
  EXPECT(p.samples == 6);
  // One kind: the plain nearest-rank percentile.
  EXPECT(Near(GeoMeanPercentile({{5, 1, 4, 2, 3}}, 0.9).value, 5));
  EXPECT(GeoMeanPercentile({}, 0.5).samples == 0);
}

void TenBeyondRule() {
  // p90 of n samples has n - ceil(0.9 n) above it: 10 needs n >= 100.
  EXPECT(HasTenBeyond(100, 0.9));
  EXPECT(!HasTenBeyond(99, 0.9));
  EXPECT(HasTenBeyond(20, 0.5));
  EXPECT(!HasTenBeyond(19, 0.5));
  EXPECT(!HasTenBeyond(0, 0.5));
  EXPECT(HasTenBeyond(1000, 0.99));
}

void Ratios() {
  EXPECT(Near(Ratio(3, 4), 0.75));
  EXPECT(Ratio(5, 0) == 0);  // nothing observed: 0, not inf/NaN
  EXPECT(Ratio(0, 0) == 0);
}

benu::metrics::SnapshotEntry Counter(const std::string& name, uint64_t v) {
  benu::metrics::SnapshotEntry e;
  e.name = name;
  e.kind = benu::metrics::InstrumentKind::kCounter;
  e.counter_value = v;
  return e;
}

void RatioBases() {
  benu::metrics::MetricsSnapshot snap;
  snap.entries = {Counter("db_cache.hits", 90), Counter("db_cache.misses", 6),
                  Counter("db_cache.coalesced", 4),
                  Counter("triangle_cache.hits", 3),
                  Counter("triangle_cache.misses", 1),
                  Counter("db_cache.epoch_invalidations", 1000)};
  // The DbCache hit ratio's base is every lookup: hits + misses + coalesced,
  // and nothing else under db_cache.
  EXPECT(Near(CounterValue(snap, "db_cache.hits"), 90));
  EXPECT(Near(CacheLookups(snap, "db_cache"), 100));
  EXPECT(Near(Ratio(CounterValue(snap, "db_cache.hits"),
                    CacheLookups(snap, "db_cache")),
              0.9));
  // The triangle cache never coalesces: its base is hits + misses.
  EXPECT(Near(CacheLookups(snap, "triangle_cache"), 4));
  // A cache that never registered has no lookups (and a 0 ratio).
  EXPECT(CacheLookups(snap, "absent_cache") == 0);
  EXPECT(CounterValue(snap, "absent_cache.hits") == 0);

  // The filter reject ratio's base is every match the filter arbitrated:
  // added + retracted + rejected, not the epoch's ops or its total.
  benu::EpochReport report;
  report.raw_ops = 320;
  report.net_inserted = 160;
  report.net_removed = 160;
  report.added = 30;
  report.retracted = 20;
  report.filter_rejected = 50;
  report.total = 100000;
  report.seed_tasks = 7;
  EXPECT(Near(FilterConsidered(report), 100));
  EXPECT(Near(Ratio(static_cast<double>(report.filter_rejected),
                    FilterConsidered(report)),
              0.5));
  EXPECT(FilterConsidered(benu::EpochReport{}) == 0);
}

void Failures() {
  FailureTally a;
  EXPECT(a.attempted() == 0 && a.FailedFraction() == 0);
  a.Record(true);
  a.Record(false);
  a.Record(true);
  a.Record(true);
  EXPECT(a.attempted() == 4 && a.failed() == 1);
  EXPECT(Near(a.FailedFraction(), 0.25));
  FailureTally b;
  b.Record(false);
  a.Merge(b);
  EXPECT(a.attempted() == 5 && a.failed() == 2);
  EXPECT(Near(a.FailedFraction(), 0.4));
}

void Histograms() {
  benu::metrics::Histogram h;
  // 10 samples of 0, 10 in bucket [4, 7], 80 in bucket [64, 127].
  for (int i = 0; i < 10; ++i) h.Record(0);
  for (int i = 0; i < 10; ++i) h.Record(5);
  for (int i = 0; i < 80; ++i) h.Record(100);
  benu::metrics::SnapshotEntry e;
  e.kind = benu::metrics::InstrumentKind::kHistogram;
  e.hist_count = h.Count();
  for (size_t b = 0; b < benu::metrics::Histogram::kNumBuckets; ++b) {
    if (h.BucketCount(b) != 0) {
      e.hist_buckets.push_back(
          {benu::metrics::Histogram::BucketUpperBound(b), h.BucketCount(b)});
    }
  }
  EXPECT(Near(HistogramPercentile(e, 0.05).value, 0));  // rank 5: zeros
  // Rank 20 is the last of bucket [4, 7]: its upper bound.
  EXPECT(Near(HistogramPercentile(e, 0.20).value, 7));
  // Rank 60 is 40 of 80 into [64, 127]: halfway.
  EXPECT(Near(HistogramPercentile(e, 0.60).value, 64 + 63 * 0.5));
  EXPECT(HistogramPercentile(e, 0.5).samples == 100);
  benu::metrics::SnapshotEntry empty;
  empty.kind = benu::metrics::InstrumentKind::kHistogram;
  EXPECT(HistogramPercentile(empty, 0.5).samples == 0);
}

}  // namespace

int main() {
  NearestRankRule();
  GeoMeanOfKinds();
  TenBeyondRule();
  Ratios();
  RatioBases();
  Failures();
  Histograms();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_stats_test: ok\n");
  return 0;
}
