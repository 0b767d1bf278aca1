#ifndef BENU_CORE_MEMORY_GOVERNOR_H_
#define BENU_CORE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace benu {

namespace metrics {
class Counter;
class Gauge;
}  // namespace metrics

/// Process-wide memory governor of the hybrid BFS/DFS execution mode
/// (DESIGN.md; HUGE-style bounded-memory scheduling). One instance per
/// cluster run, shared by every worker's DB cache, adjacency provider and
/// executor. It tracks the bytes the run has pinned — frontier regions
/// (RegionBuffer blocks) plus the DB caches' resident bytes — against a
/// configurable ceiling (`ClusterConfig::memory_budget_bytes`) and turns
/// the static prefetch knobs into headroom-scaled dynamic values:
///
///  * `GrantFrontierLease` arbitrates how many bytes an executor may
///    materialize into a frontier batch at an ENU instruction. With
///    headroom, wide BFS-style batches are granted; near the cap the
///    lease is denied and the executor degrades to plain per-candidate
///    DFS with the PR 3 static budget (graceful spill, never OOM).
///  * `PrefetchBudget` / `PrefetchBatchSize` scale the static
///    `prefetch_budget` / `prefetch_batch_size` knobs between 1× (no
///    headroom) and kMaxPrefetchWidening/kMaxBatchWidening× (idle
///    budget), so prefetch breadth follows memory pressure instead of a
///    fixed configuration value.
///
/// A budget of 0 means "no ceiling": every lease is granted in full and
/// the dynamic knobs sit at their maximum widening. All methods are
/// lock-free (plain atomics) — they are called under DB-cache shard locks
/// and from every execution thread's ENU hot loop.
class MemoryGovernor {
 public:
  /// Widening cap of the dynamic prefetch budget: with an idle budget an
  /// ENU may hand kMaxPrefetchWidening × prefetch_budget keys to the
  /// pipeline in one wide batch.
  static constexpr size_t kMaxPrefetchWidening = 8;
  /// Widening cap of the dynamic multi-get batch size: fewer round trips
  /// per prefetched key when memory is plentiful.
  static constexpr size_t kMaxBatchWidening = 4;

  struct Stats {
    uint64_t budget_bytes = 0;       ///< the configured ceiling (0: none)
    uint64_t pinned_bytes = 0;       ///< cache resident + frontier bytes
    uint64_t cache_bytes = 0;        ///< DB-cache resident component
    uint64_t frontier_bytes = 0;     ///< region-buffer component
    uint64_t high_water_bytes = 0;   ///< max pinned_bytes ever observed
    uint64_t lease_grants = 0;
    uint64_t lease_denials = 0;
  };

  /// `memory_budget_bytes` is the ceiling on pinned bytes (0: unlimited).
  /// `base_prefetch_budget` / `base_prefetch_batch_size` are the static
  /// PR 3 knobs the dynamic values widen from (and degrade back to).
  explicit MemoryGovernor(size_t memory_budget_bytes,
                          size_t base_prefetch_budget = 0,
                          size_t base_prefetch_batch_size = 16);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// DB caches report resident-byte deltas here on every insert/evict
  /// (and un-count survivors at teardown), so cache growth eats into the
  /// same budget frontier regions lease from.
  void AddCacheResident(int64_t delta_bytes);

  /// Region buffers report block allocation/release deltas here.
  void AddFrontierPinned(int64_t delta_bytes);

  /// Requests permission to pin `want_bytes` of frontier batch. Returns
  /// the granted byte count: `want_bytes` with ample headroom, a smaller
  /// grant as the budget fills, and 0 (a denial — spill to DFS) near the
  /// cap. Advisory: the caller pins whatever it actually allocates via
  /// AddFrontierPinned; a grant reserves nothing.
  size_t GrantFrontierLease(size_t want_bytes);

  /// Dynamic per-ENU prefetch budget, in keys: the static base scaled by
  /// current headroom up to kMaxPrefetchWidening×. 0 iff the base is 0
  /// (prefetching disabled stays disabled).
  size_t PrefetchBudget() const;

  /// Dynamic multi-get batch size of the lookahead: the static
  /// base scaled by current headroom up to kMaxBatchWidening× (never
  /// below the base — shrinking batches only adds round trips).
  size_t PrefetchBatchSize() const;

  size_t base_prefetch_budget() const { return base_prefetch_budget_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t pinned_bytes() const;
  uint64_t high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  /// Fraction of the budget still unpinned, in [0, 1]; 1 with no ceiling.
  double Headroom() const;
  /// Refreshes the pinned/high-water gauges after a delta.
  void NotePinned();

  const uint64_t budget_bytes_;
  const size_t base_prefetch_budget_;
  const size_t base_prefetch_batch_;

  std::atomic<int64_t> cache_bytes_{0};
  std::atomic<int64_t> frontier_bytes_{0};
  std::atomic<uint64_t> high_water_{0};
  std::atomic<uint64_t> lease_grants_{0};
  std::atomic<uint64_t> lease_denials_{0};

  // memory.governor.* registry mirrors (docs/metrics.md), resolved once.
  metrics::Gauge* budget_gauge_ = nullptr;
  metrics::Gauge* pinned_gauge_ = nullptr;
  metrics::Gauge* frontier_gauge_ = nullptr;
  metrics::Gauge* high_water_gauge_ = nullptr;
  metrics::Counter* grants_counter_ = nullptr;
  metrics::Counter* denials_counter_ = nullptr;
};

}  // namespace benu

#endif  // BENU_CORE_MEMORY_GOVERNOR_H_
