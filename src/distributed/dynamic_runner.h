#ifndef BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_
#define BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/executor.h"
#include "graph/graph.h"
#include "plan/incremental.h"
#include "storage/db_cache.h"
#include "storage/transport.h"
#include "storage/versioned_store.h"

namespace benu {

namespace metrics {
class Counter;
class Gauge;
}  // namespace metrics

/// Knobs of the dynamic maintenance loop.
struct DynamicRunnerOptions {
  /// Maintain the full match multiset across epochs (TrackedMatches());
  /// the exactness property test compares it against a fresh recount at
  /// every epoch. Off for benchmarks — counting is the production mode.
  bool track_matches = false;
};

/// One plan set maintained by MaintainEpoch: its seeded passes report
/// each accepted match to the pass's sink (null: count only).
struct MaintenanceTarget {
  const IncrementalPlanSet* plans = nullptr;
  MatchConsumer* retracted_sink = nullptr;
  MatchConsumer* added_sink = nullptr;
};

/// What one epoch changed for one MaintenanceTarget.
struct TargetDelta {
  /// Matches gained (over the post-apply snapshot, seeded from Δ⁺).
  Count added = 0;
  /// Matches lost (over the pre-apply snapshot, seeded from Δ⁻).
  Count retracted = 0;
  /// Seeded executor tasks run (2 orientations × |Δ| × plans).
  Count seed_tasks = 0;
  /// Matches rejected by the min-index uniqueness filter.
  Count filter_rejected = 0;
};

/// Outcome of MaintainEpoch.
struct MaintainedEpoch {
  /// The store's epoch after Apply.
  uint64_t epoch = 0;
  size_t net_inserted = 0;
  size_t net_removed = 0;
  /// One entry per target, in target order.
  std::vector<TargetDelta> targets;
};

/// Outcome of one ApplyBatch: the runner's TargetDelta plus the
/// epoch-wide figures.
struct EpochReport : TargetDelta {
  uint64_t epoch = 0;
  /// Ops in the submitted batch before net canonicalization.
  size_t raw_ops = 0;
  size_t net_inserted = 0;
  size_t net_removed = 0;
  /// Maintained total after this epoch: previous total − retracted + added.
  Count total = 0;
  /// Wall time of the incremental maintenance (both passes + apply).
  double seconds = 0;
};

/// Compile-checks an executor of every plan in `plans` over `provider`.
/// Call where a plan set is created: MaintainEpoch then cannot fail.
Status CheckIncrementalPlans(const IncrementalPlanSet& plans,
                             AdjacencyProvider* provider);

/// The S-BENU epoch step, shared by DynamicRunner::ApplyBatch and
/// service::QueryEngine::CommitEpoch: Canonicalize `ops` → retraction
/// pass of every target (seeded from Δ⁻ against the pre-apply snapshot,
/// patch = Δ⁻) → Apply (store overlay + delta replication +
/// DbCache::AdvanceEpoch precise invalidation) → addition pass of every
/// target (seeded from Δ⁺ against the new snapshot, patch = Δ⁺).
/// Exactness: net canonicalization makes Δ⁺ disjoint from the old
/// snapshot and Δ⁻ contained in it, so retracted matches (⊇ one Δ⁻
/// edge, counted once via min-index) and added matches (⊇ one Δ⁺ edge)
/// partition the symmetric difference of the match sets.
///
/// A seeded pass runs every plan of the target, tries both orientations
/// of each delta edge, and filters through one DeltaMatchFilter per
/// plan. `provider` must read through `cache`, which must read `store`;
/// every target's plans must have passed CheckIncrementalPlans against
/// `provider`. Endpoints of `ops` must be < store->num_vertices().
MaintainedEpoch MaintainEpoch(VersionedAdjacencyStore* store, DbCache* cache,
                              AdjacencyProvider* provider,
                              std::span<const EdgeDelta> ops,
                              std::span<const MaintenanceTarget> targets);

/// Drives S-BENU incremental maintenance over a VersionedAdjacencyStore:
/// replays an edge stream in epoch batches, keeping the pattern's match
/// count (and optionally the match multiset) exact at every epoch. Each
/// ApplyBatch is one MaintainEpoch with this runner's plan set as the
/// only target.
///
/// Works over any Transport backend — simulated, loopback, TCP — because
/// all mutation lives in the client-side overlay; servers keep serving
/// base payloads (see VersionedAdjacencyStore).
///
/// The vertex universe is fixed at the base graph's: delta endpoints
/// must be < store().num_vertices().
class DynamicRunner {
 public:
  /// `pattern` must be connected with ≥ 2 vertices. The transport must
  /// serve the epoch-0 base graph.
  static StatusOr<std::unique_ptr<DynamicRunner>> Create(
      std::shared_ptr<Transport> transport, const Graph& pattern,
      const DynamicRunnerOptions& options = {});

  /// Full enumeration at the current snapshot; (re)initializes the
  /// maintained total. Call once before the first ApplyBatch.
  StatusOr<Count> RunBaseline();

  /// One epoch batch end to end. The maintained total must have been
  /// initialized by RunBaseline.
  StatusOr<EpochReport> ApplyBatch(std::span<const EdgeDelta> ops);

  /// Full recomputation at the current snapshot — the comparator for the
  /// ≥5× speedup acceptance check and the exactness property test. Does
  /// not touch the maintained total.
  StatusOr<Count> Recount();

  /// Maintained match count.
  Count total_matches() const { return total_; }

  uint64_t epoch() const { return store_->epoch(); }
  VersionedAdjacencyStore& store() { return *store_; }
  DbCache& cache() { return *cache_; }
  const IncrementalPlanSet& incremental_plans() const { return inc_; }

  /// The maintained match multiset, sorted (requires
  /// options.track_matches and a prior RunBaseline).
  std::vector<std::vector<VertexId>> TrackedMatches() const;

 private:
  DynamicRunner(const Graph& pattern, const DynamicRunnerOptions& options);

  /// Full enumeration with the baseline plan; when `track` is true the
  /// tracked multiset is rebuilt.
  StatusOr<Count> EnumerateFull(bool track);

  Graph pattern_;
  DynamicRunnerOptions options_;
  IncrementalPlanSet inc_;
  ExecutionPlan full_plan_;
  std::unique_ptr<VersionedAdjacencyStore> store_;
  std::unique_ptr<DbCache> cache_;
  std::unique_ptr<CachedAdjacencyProvider> provider_;
  Count total_ = 0;
  bool baseline_run_ = false;
  /// match → multiplicity (should stay 1; tracked to catch duplicates).
  std::map<std::vector<VertexId>, Count> tracked_;

  metrics::Counter* epochs_metric_ = nullptr;
  metrics::Counter* raw_ops_metric_ = nullptr;
  metrics::Counter* added_metric_ = nullptr;
  metrics::Counter* retracted_metric_ = nullptr;
  metrics::Counter* seed_tasks_metric_ = nullptr;
  metrics::Counter* filter_rejected_metric_ = nullptr;
  metrics::Gauge* total_gauge_ = nullptr;
};

}  // namespace benu

#endif  // BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_
