#include "distributed/dynamic_runner.h"

#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "plan/plan_generator.h"
#include "plan/symmetry_breaking.h"

namespace benu {

namespace {

// Counts matches and mirrors them into the tracked multiset: additions
// increment (and must create, multiplicity 1), retractions decrement (and
// must find) — any violation means the incremental decomposition double-
// counted or retracted a phantom match, which is a bug worth dying for.
class MaintenanceSink : public MatchConsumer {
 public:
  MaintenanceSink(std::map<std::vector<VertexId>, Count>* tracked,
                  bool retract)
      : tracked_(tracked), retract_(retract) {}

  void OnMatch(const std::vector<VertexId>& f) override {
    ++count_;
    if (tracked_ == nullptr) return;
    if (retract_) {
      auto it = tracked_->find(f);
      BENU_CHECK(it != tracked_->end());
      if (--it->second == 0) tracked_->erase(it);
    } else {
      const Count multiplicity = ++(*tracked_)[f];
      BENU_CHECK(multiplicity == 1);
    }
  }

  void OnCompressedCode(const std::vector<VertexId>& /*f*/,
                        const std::vector<VertexSetView>& /*sets*/) override {
    BENU_CHECK(false);  // maintenance plans are uncompressed
  }

  Count count() const { return count_; }

 private:
  std::map<std::vector<VertexId>, Count>* tracked_;
  bool retract_;
  Count count_ = 0;
};

// The runner's own DbCache: no caller has needed another size.
constexpr size_t kCacheBytes = 64u << 20;
constexpr size_t kCacheShards = 8;

}  // namespace

Status CheckIncrementalPlans(const IncrementalPlanSet& plans,
                             AdjacencyProvider* provider) {
  for (const IncrementalPlan& inc : plans.plans) {
    auto executor =
        PlanExecutor::Create(&inc.plan, provider, /*tcache=*/nullptr);
    BENU_RETURN_IF_ERROR(executor.status());
  }
  return Status::OK();
}

MaintainedEpoch MaintainEpoch(VersionedAdjacencyStore* store, DbCache* cache,
                              AdjacencyProvider* provider,
                              std::span<const EdgeDelta> ops,
                              std::span<const MaintenanceTarget> targets) {
  const EpochDelta delta = store->Canonicalize(ops);
  MaintainedEpoch out;
  out.net_inserted = delta.inserted.size();
  out.net_removed = delta.removed.size();
  out.targets.resize(targets.size());

  // One seeded pass over the current snapshot: every target's matches
  // owned by a `delta_edges` edge, each found exactly once.
  auto seeded_pass = [&](const std::vector<EdgeDelta>& delta_edges,
                         bool retract) {
    if (delta_edges.empty()) return;
    const EdgePatch patch(delta_edges);
    for (size_t t = 0; t < targets.size(); ++t) {
      const MaintenanceTarget& target = targets[t];
      TargetDelta& counts = out.targets[t];
      for (const IncrementalPlan& inc : target.plans->plans) {
        DeltaMatchFilter filter(
            target.plans, inc.edge_index, &patch,
            retract ? target.retracted_sink : target.added_sink);
        auto executor =
            PlanExecutor::Create(&inc.plan, provider, /*tcache=*/nullptr);
        // CheckIncrementalPlans passed when the plan set was created.
        BENU_CHECK(executor.ok()) << executor.status().message();
        for (const EdgeDelta& edge : delta_edges) {
          // Both orientations: the plan's anchor (a_i, b_i) can map onto
          // the undirected delta edge either way.
          const VertexId ends[2][2] = {{edge.u, edge.v}, {edge.v, edge.u}};
          for (const auto& oriented : ends) {
            SearchTask task;
            task.start = oriented[0];
            task.seed_second = oriented[1];
            (*executor)->RunTask(task, &filter);
            ++counts.seed_tasks;
          }
        }
        (retract ? counts.retracted : counts.added) += filter.accepted();
        counts.filter_rejected += filter.rejected();
      }
    }
  };

  // Retraction pass: matches of the pre-apply snapshot involving a
  // net-removed edge.
  seeded_pass(delta.removed, /*retract=*/true);
  // Apply: store overlay + delta replication, then precise cache
  // invalidation (the cache epoch is bumped before the purge, so racing
  // prefetch installs are dropped, never served stale).
  out.epoch = store->Apply(delta);
  cache->AdvanceEpoch(out.epoch, delta.touched);
  // Addition pass: matches of the new snapshot involving a net-inserted
  // edge.
  seeded_pass(delta.inserted, /*retract=*/false);
  return out;
}

DynamicRunner::DynamicRunner(const Graph& pattern,
                             const DynamicRunnerOptions& options)
    : pattern_(pattern), options_(options) {
  auto& registry = metrics::MetricsRegistry::Global();
  epochs_metric_ = registry.GetCounter(
      "dynamic.epochs", "1", "Epoch batches applied by DynamicRunner");
  raw_ops_metric_ = registry.GetCounter(
      "dynamic.raw_ops", "1", "Edge ops submitted before canonicalization");
  added_metric_ = registry.GetCounter(
      "dynamic.matches_added", "1", "Matches gained across all epochs");
  retracted_metric_ = registry.GetCounter(
      "dynamic.matches_retracted", "1", "Matches lost across all epochs");
  seed_tasks_metric_ = registry.GetCounter(
      "dynamic.seed_tasks", "1",
      "Seeded incremental executor tasks (2 orientations x |delta| x plans)");
  filter_rejected_metric_ = registry.GetCounter(
      "dynamic.filter_rejected", "1",
      "Matches rejected by the min-index uniqueness filter");
  total_gauge_ = registry.GetGauge(
      "dynamic.total_matches", "1",
      "Match count currently maintained by the newest DynamicRunner");
}

StatusOr<std::unique_ptr<DynamicRunner>> DynamicRunner::Create(
    std::shared_ptr<Transport> transport, const Graph& pattern,
    const DynamicRunnerOptions& options) {
  auto inc = GenerateIncrementalPlans(pattern);
  BENU_RETURN_IF_ERROR(inc.status());
  auto full = GenerateRawPlan(pattern, GreedyMatchingOrder(pattern),
                              ComputeSymmetryBreakingConstraints(pattern));
  BENU_RETURN_IF_ERROR(full.status());
  std::unique_ptr<DynamicRunner> runner(new DynamicRunner(pattern, options));
  runner->inc_ = *std::move(inc);
  runner->full_plan_ = *std::move(full);
  runner->store_ =
      std::make_unique<VersionedAdjacencyStore>(std::move(transport));
  runner->cache_ = std::make_unique<DbCache>(runner->store_.get(),
                                             kCacheBytes, kCacheShards);
  runner->provider_ = std::make_unique<CachedAdjacencyProvider>(
      runner->cache_.get(), runner->store_->num_vertices());
  BENU_RETURN_IF_ERROR(
      CheckIncrementalPlans(runner->inc_, runner->provider_.get()));
  return runner;
}

StatusOr<Count> DynamicRunner::EnumerateFull(bool track) {
  if (track) tracked_.clear();
  MaintenanceSink sink(track ? &tracked_ : nullptr, /*retract=*/false);
  auto executor =
      PlanExecutor::Create(&full_plan_, provider_.get(), /*tcache=*/nullptr);
  BENU_RETURN_IF_ERROR(executor.status());
  const size_t n = store_->num_vertices();
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    SearchTask task;
    task.start = v;
    (*executor)->RunTask(task, &sink);
  }
  return sink.count();
}

StatusOr<Count> DynamicRunner::RunBaseline() {
  auto count = EnumerateFull(options_.track_matches);
  BENU_RETURN_IF_ERROR(count.status());
  total_ = *count;
  baseline_run_ = true;
  total_gauge_->Set(static_cast<double>(total_));
  return total_;
}

StatusOr<Count> DynamicRunner::Recount() {
  return EnumerateFull(/*track=*/false);
}

StatusOr<EpochReport> DynamicRunner::ApplyBatch(
    std::span<const EdgeDelta> ops) {
  if (!baseline_run_) {
    return Status::FailedPrecondition(
        "ApplyBatch requires a prior RunBaseline");
  }
  const size_t n = store_->num_vertices();
  for (const EdgeDelta& op : ops) {
    if (op.u >= n || op.v >= n) {
      return Status::InvalidArgument(
          "delta endpoint outside the base graph's vertex universe");
    }
  }
  Stopwatch watch;
  std::map<std::vector<VertexId>, Count>* tracked =
      options_.track_matches ? &tracked_ : nullptr;
  MaintenanceSink retracted_sink(tracked, /*retract=*/true);
  MaintenanceSink added_sink(tracked, /*retract=*/false);
  const MaintenanceTarget target{&inc_, &retracted_sink, &added_sink};
  const MaintainedEpoch epoch = MaintainEpoch(
      store_.get(), cache_.get(), provider_.get(), ops, {&target, 1});

  EpochReport report;
  static_cast<TargetDelta&>(report) = epoch.targets[0];
  report.epoch = epoch.epoch;
  report.raw_ops = ops.size();
  report.net_inserted = epoch.net_inserted;
  report.net_removed = epoch.net_removed;
  BENU_CHECK(total_ + report.added >= report.retracted);
  total_ = total_ + report.added - report.retracted;
  report.total = total_;
  report.seconds = watch.ElapsedSeconds();

  epochs_metric_->Add(1);
  raw_ops_metric_->Add(report.raw_ops);
  added_metric_->Add(report.added);
  retracted_metric_->Add(report.retracted);
  seed_tasks_metric_->Add(report.seed_tasks);
  filter_rejected_metric_->Add(report.filter_rejected);
  total_gauge_->Set(static_cast<double>(total_));
  return report;
}

std::vector<std::vector<VertexId>> DynamicRunner::TrackedMatches() const {
  std::vector<std::vector<VertexId>> out;
  out.reserve(tracked_.size());
  for (const auto& [match, multiplicity] : tracked_) {
    for (Count i = 0; i < multiplicity; ++i) out.push_back(match);
  }
  return out;
}

}  // namespace benu
