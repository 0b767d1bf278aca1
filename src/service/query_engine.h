#ifndef BENU_SERVICE_QUERY_ENGINE_H_
#define BENU_SERVICE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/wire.h"
#include "core/executor.h"
#include "core/match_consumer.h"
#include "core/memory_governor.h"
#include "graph/graph.h"
#include "plan/cost_model.h"
#include "plan/incremental.h"
#include "plan/instruction.h"
#include "storage/db_cache.h"
#include "storage/kv_store.h"
#include "storage/transport.h"
#include "storage/triangle_cache.h"
#include "storage/versioned_store.h"

namespace benu {

namespace metrics {
class Counter;
class Histogram;
}  // namespace metrics

namespace service {

/// Configuration of the resident enumeration engine. The substrate knobs
/// (partitions, cache, prefetch, compression) mirror ClusterConfig; the
/// admission knobs are service-only. docs/service.md is the operator
/// guide for all of them.
struct ServiceConfig {
  /// Virtual storage partitions of the shared DB; ignored (taken from
  /// the transport) when an external transport is given.
  size_t db_partitions = 8;
  /// Capacity of the one shared DbCache, bytes of resident adjacency.
  size_t db_cache_bytes = 64u << 20;
  /// Engine execution threads (the one shared pool all queries run on).
  /// 0 = hardware concurrency.
  int execution_threads = 0;
  /// Task-splitting degree threshold τ (distributed/task.h). Smaller
  /// values split heavy start vertices into more subtasks — finer
  /// round-robin interleaving across queries and faster cancel unwind,
  /// at slightly more per-task overhead.
  uint32_t task_split_threshold = 64;
  /// Per-ENU lookahead budget in keys, fetched inline by the executor
  /// threads (0 disables lookahead).
  size_t prefetch_budget = 0;
  /// Keys per batched lookahead multi-get.
  size_t prefetch_batch_size = 16;
  /// Serve delta+varint encoded adjacency (only used when the engine
  /// builds its own simulated transport).
  bool compress_adjacency = true;
  /// Relabel the data graph by (degree, id) at startup so ids realize
  /// the symmetry-breaking total order ≺ (must match how one-shot
  /// benu_driver runs are configured for count equality).
  bool relabel_by_degree = true;

  // --- admission control ----------------------------------------------

  /// Hard cap on queries admitted and not yet finished; a Submit beyond
  /// it is rejected with kResourceExhausted.
  size_t max_active_queries = 8;
  /// Ceiling of the engine's MemoryGovernor (cache residency + frontier
  /// regions + per-query reservations). 0 = no ceiling: byte-budget
  /// admission never rejects.
  size_t memory_budget_bytes = 0;
  /// Bytes reserved (pinned against the governor) per admitted query;
  /// a query whose reservation the governor will not grant in full is
  /// rejected. The governor leases at most a quarter of its usable
  /// headroom per request, so keep this under ~20% of
  /// memory_budget_bytes or every query is rejected. 0 disables
  /// byte-budget admission.
  size_t per_query_reserve_bytes = 0;
  /// Compute budget: a query whose estimated plan cost (communication +
  /// computation, plan/cost_model.h units) exceeds this is rejected.
  /// 0 = no compute cap.
  double max_plan_cost = 0;

  /// Emit a progress callback every this many finished tasks (for
  /// queries that asked for progress). 0 disables progress entirely.
  uint64_t progress_interval_tasks = 16;
};

/// Two-level fair rotor over the runnable queries: sessions rotate
/// round-robin, and within a session its queries rotate round-robin, so
/// one session with many queued queries cannot starve a session with
/// one, and no query of a session starves its siblings. Next() returns
/// the query whose turn it is and advances both rotors; a query stays in
/// the rotor until Remove()d (when its last task is claimed or it is
/// cancelled). Not thread-safe — the engine calls it under its lock;
/// standalone so tests can pin the ordering.
class FairScheduler {
 public:
  /// Registers a runnable query. A new session enters the rotation at
  /// the back (it waits at most one full round for its first turn).
  void Add(uint64_t session, uint64_t query);

  /// Drops the query; its session leaves the rotation when empty.
  void Remove(uint64_t query);

  /// The next (session, query) turn, advancing the rotors. False iff no
  /// query is registered.
  bool Next(uint64_t* query);

  size_t size() const;
  bool empty() const { return sessions_.empty(); }

 private:
  struct SessionQueue {
    uint64_t session;
    std::deque<uint64_t> queries;
  };
  std::deque<SessionQueue> sessions_;
};

/// Completion callback: the outcome of an admitted query. Runs on an
/// engine worker thread (or inside Submit for a query with no tasks)
/// with the engine lock held — it must not call back into the engine;
/// post the result elsewhere and return. For one-shot queries it fires
/// exactly once (terminal). For subscribe queries (kQuerySubscribe) it
/// fires once with the baseline count (cancelled flag clear — NOT
/// terminal) and once more when the subscription ends (cancel, session
/// teardown or engine shutdown; cancelled flag set — terminal, carrying
/// the last maintained total). A subscribe query cancelled before its
/// baseline finishes fires once, cancelled, terminal.
using QueryDoneFn = std::function<void(const wire::QueryResultInfo&)>;
/// Progress callback, same threading/reentrancy contract as QueryDoneFn.
using QueryProgressFn = std::function<void(const wire::QueryProgress&)>;
/// Per-epoch match-delta callback of a subscribe query: fires inside
/// CommitEpoch (on its caller's thread) with the engine lock held, once
/// per subscription per committed epoch. Same reentrancy contract.
using QueryDeltaFn = std::function<void(const wire::MatchDelta&)>;

/// The resident enumeration engine behind benu_service: one shared data
/// graph, one shared DistributedKvStore + DbCache, one shared execution
/// thread pool and one MemoryGovernor, serving many concurrent pattern
/// queries. Each admitted query is planned (or served from the plan
/// cache), expanded into its search tasks, and its tasks interleaved
/// with every other active query's under the FairScheduler; counts are
/// bit-identical to a one-shot RunBenu over the same graph and options
/// because both sides relabel identically, generate plans from the same
/// (pattern, stats, options) inputs, and execute every generated task —
/// symmetry breaking makes the total independent of task interleaving.
///
/// Plan cache: keyed by (pattern name, vcbc flag, degree-filter flag,
/// pattern labels). The symmetry-breaking constraints are a pure
/// function of (pattern, labels) — computed inside GenerateBestPlan —
/// so they are part of the key by construction and never need to be
/// spelled out in it; see plan/symmetry_breaking.h. The progress flag is
/// deliberately NOT part of the key (it does not affect the plan).
///
/// Thread-safe: Submit/Cancel/CancelSession may be called from any
/// thread (the TCP front end calls them from its event loop).
class QueryEngine {
 public:
  /// Counters mirrored into the registry (service.*), exposed directly
  /// for tests.
  struct EngineStats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t cancelled = 0;  ///< cancel requests that hit an active query
    uint64_t completed = 0;  ///< queries that ran to completion
    uint64_t plan_hits = 0;
    uint64_t plan_misses = 0;
    size_t active = 0;         ///< admitted and not yet finished
    size_t subscriptions = 0;  ///< live subscribe-mode queries
  };

  /// Builds the resident substrate: relabels the graph (when configured),
  /// wraps `transport` (or builds a simulated one over the relabeled
  /// graph when null) in the shared store, and spawns the execution
  /// threads. With an external transport the same graph-hash validation
  /// as RunBenu applies: the transport must attest (hello graph hash)
  /// that it stores the labeling the engine enumerates under.
  /// `data_labels` (one per input data vertex, permuted alongside the
  /// relabeling) are required iff labeled queries will be submitted.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(
      const Graph& data_graph, const ServiceConfig& config,
      std::shared_ptr<Transport> transport = nullptr,
      std::vector<int> data_labels = {});

  /// Cancels every active query, drains in-flight tasks and joins the
  /// execution threads. Pending done callbacks fire (with the cancelled
  /// flag) before the destructor returns.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits and schedules a query on behalf of `session` (the fairness
  /// domain — the TCP front end passes one id per connection). Returns
  /// the engine-wide query id, or the rejection:
  ///  - kInvalidArgument / kNotFound: malformed spec (unknown pattern,
  ///    label arity mismatch, labeled query on an unlabeled engine);
  ///  - kResourceExhausted: admission control (active-query cap, byte
  ///    reservation denied, plan cost over budget).
  /// Every rejection is counted in service.query.rejected; `done` is
  /// only ever invoked for admitted queries (see QueryDoneFn for the
  /// subscribe-mode double-fire contract). A kQuerySubscribe spec must
  /// be unlabeled and without kQueryVcbc (incremental maintenance needs
  /// full uncompressed matches) and should pass `on_delta`; after its
  /// baseline completes uncancelled it becomes a subscription that
  /// CommitEpoch maintains until Cancel()/CancelSession()/shutdown.
  StatusOr<uint64_t> Submit(uint64_t session, const wire::QuerySpec& spec,
                            QueryDoneFn done,
                            QueryProgressFn progress = nullptr,
                            QueryDeltaFn on_delta = nullptr);

  // --- dynamic graph (versioned store + subscriptions) -----------------

  /// Graph epoch of the engine's versioned store (0 = pristine base).
  uint64_t epoch() const { return vstore_->epoch(); }

  /// Stages one edge-delta batch toward `target_epoch`, which must be
  /// epoch() + 1 (kFailedPrecondition otherwise). Endpoints are in the
  /// ORIGINAL data-graph id space — the engine maps them through its
  /// degree relabeling — and must be inside the vertex universe
  /// (kInvalidArgument). Staged ops accumulate until CommitEpoch.
  Status StageDelta(uint64_t target_epoch, std::span<const EdgeDelta> ops);

  /// Commits the staged ops as `target_epoch` (= epoch() + 1) through
  /// MaintainEpoch (distributed/dynamic_runner.h) with one target per
  /// subscription: the S-BENU retraction pass against the pre-apply
  /// snapshot, the canonicalized delta applied to the versioned store
  /// (replicating to delta-capable KV servers) with precise cache
  /// invalidation, and the addition pass against the new snapshot. Then
  /// fires each subscription's QueryDeltaFn with its exact MatchDelta.
  /// Serialized against query execution: refused (kFailedPrecondition)
  /// while any one-shot query is active, and no query can be admitted
  /// mid-commit, so every query sees one consistent snapshot. Returns
  /// the new epoch.
  StatusOr<uint64_t> CommitEpoch(uint64_t target_epoch);

  /// Cancels an active query: workers stop claiming its tasks, in-flight
  /// tasks unwind at their next ENU descent (PlanExecutor cancel flag),
  /// and the done callback fires with kQueryResultCancelled once the
  /// last in-flight task returns. Cancelling a live subscription ends it:
  /// the done callback fires its terminal result (cancelled flag set,
  /// matches = last maintained total). False iff no such active query or
  /// subscription (already finished or never existed).
  bool Cancel(uint64_t query_id);

  /// Cancels every active query of `session` (connection teardown).
  void CancelSession(uint64_t session);

  /// Blocks until no query is active (tests; the service uses callbacks).
  void Drain();

  EngineStats stats() const;
  const Graph& relabeled_graph() const { return graph_; }
  const MemoryGovernor& governor() const { return *governor_; }
  /// Partition count of the adjacency store (for hello replies).
  size_t num_partitions() const { return store_->num_partitions(); }
  size_t plan_cache_size() const;

 private:
  /// A planned, reusable entry of the plan cache. `tasks` is derived
  /// from (graph, plan, τ) only, so it is cached alongside the plan —
  /// admitting a repeat query costs two map lookups, no plan search and
  /// no task generation.
  struct PlanEntry {
    ExecutionPlan plan;
    PlanCost cost;
    std::vector<VertexId> degree_floors;  ///< empty unless degree filters
    std::vector<SearchTask> tasks;
  };

  /// Per-(query, worker-thread) execution context, created lazily the
  /// first time the thread claims one of the query's tasks; only that
  /// thread ever touches it until finalization (which runs strictly
  /// after the query's last task returned).
  struct QueryContext {
    std::unique_ptr<TriangleCache> tcache;
    std::unique_ptr<PlanExecutor> executor;
    std::unique_ptr<CountingConsumer> consumer;
    Count reported_matches = 0;  ///< folded into matches_so_far already
  };

  /// One admitted, not-yet-finished query. Fields are guarded by mu_
  /// except `cancelled` (polled lock-free from executor hot loops) and
  /// the per-thread contexts (single-writer, see QueryContext).
  struct ActiveQuery {
    uint64_t id = 0;
    uint64_t session = 0;
    wire::QuerySpec spec;
    std::shared_ptr<const PlanEntry> plan;
    bool plan_cache_hit = false;
    size_t next_task = 0;  ///< tasks [0, next_task) claimed
    size_t in_flight = 0;
    size_t done_tasks = 0;
    uint64_t matches_so_far = 0;
    std::atomic<bool> cancelled{false};
    bool finalized = false;
    bool in_scheduler = false;
    size_t reserved_bytes = 0;
    Stopwatch watch;
    QueryDoneFn done;
    QueryProgressFn progress;
    QueryDeltaFn on_delta;  ///< subscribe queries only
    /// Subscribe queries only: the S-BENU delta plans, generated and
    /// compile-checked at admission so a pattern they reject is a
    /// submit-time rejection.
    std::shared_ptr<const IncrementalPlanSet> inc;
    std::vector<std::unique_ptr<QueryContext>> contexts;  // by thread
  };

  /// A subscribe query whose baseline completed: maintained match count
  /// plus everything needed to run the per-epoch delta passes and to
  /// fire its callbacks. Guarded by mu_.
  struct Subscription {
    uint64_t id = 0;
    uint64_t session = 0;
    wire::QuerySpec spec;
    std::shared_ptr<const IncrementalPlanSet> inc;
    uint64_t total = 0;  ///< maintained match count at the current epoch
    Stopwatch watch;     ///< since admission (terminal elapsed_us)
    QueryDoneFn done;
    QueryDeltaFn on_delta;
  };

  QueryEngine(Graph graph, const ServiceConfig& config,
              std::vector<int> data_labels);
  Status Start(std::shared_ptr<Transport> transport);

  StatusOr<std::shared_ptr<const PlanEntry>> PlanFor(
      const wire::QuerySpec& spec, bool* cache_hit);
  void WorkerLoop(size_t thread);
  void RunOneTask(size_t thread, ActiveQuery* q, size_t task_index);
  /// Finalizes `q` if its last task has returned: aggregates counts,
  /// releases the reservation, erases it from the active set and fires
  /// the done callback. Caller holds mu_.
  void MaybeFinalize(uint64_t id, ActiveQuery* q);
  Status Reject(Status status);
  /// Ends the subscription (erased from subs_) and fires its terminal
  /// done callback. Caller holds mu_.
  void TerminateSubscription(Subscription sub);

  const ServiceConfig config_;
  Graph graph_;  ///< the (possibly relabeled) data graph
  std::vector<int> data_labels_;
  DataGraphStats data_stats_;
  /// Degree-relabel permutation (original id -> engine id); empty when
  /// relabel_by_degree is off. Delta endpoints arrive in original ids
  /// and are mapped through it — the relabeling is frozen at startup, so
  /// it stays a valid fixed total order as degrees drift across epochs.
  std::vector<VertexId> old_to_new_;

  // Shared substrate, teardown order: executors (threads_) die first,
  // then the cache, then the store/transport; the governor outlives the
  // cache so teardown deltas land.
  std::unique_ptr<MemoryGovernor> governor_;
  /// The versioned store (base payloads via the transport + epoch
  /// overlay). Held as the concrete type for Canonicalize/Apply; it IS
  /// the engine's DistributedKvStore.
  std::unique_ptr<VersionedAdjacencyStore> vstore_;
  DistributedKvStore* store_ = nullptr;  ///< alias of vstore_
  std::unique_ptr<DbCache> cache_;
  std::unique_ptr<CachedAdjacencyProvider> provider_;

  mutable std::mutex plan_mu_;
  std::map<std::string, std::shared_ptr<const PlanEntry>> plan_cache_;
  uint64_t plan_hits_ = 0;    // guarded by plan_mu_
  uint64_t plan_misses_ = 0;  // guarded by plan_mu_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  bool stop_ = false;
  uint64_t next_query_id_ = 1;
  FairScheduler sched_;
  std::unordered_map<uint64_t, std::unique_ptr<ActiveQuery>> actives_;
  /// Live subscriptions (baseline done, not yet terminated).
  std::unordered_map<uint64_t, Subscription> subs_;
  /// Edge ops staged by StageDelta toward epoch() + 1, already mapped
  /// into the engine's (relabeled) id space; consumed by CommitEpoch.
  std::vector<EdgeDelta> staged_;
  EngineStats stats_;

  // service.* registry mirrors (docs/metrics.md), resolved once. The
  // latency histogram is clock-derived and therefore only recorded when
  // tracing is enabled, per the repo's determinism convention.
  metrics::Counter* admitted_counter_ = nullptr;
  metrics::Counter* rejected_counter_ = nullptr;
  metrics::Counter* cancelled_counter_ = nullptr;
  metrics::Counter* completed_counter_ = nullptr;
  metrics::Counter* tasks_counter_ = nullptr;
  metrics::Counter* plan_hit_counter_ = nullptr;
  metrics::Counter* plan_miss_counter_ = nullptr;
  metrics::Histogram* latency_us_ = nullptr;

  size_t num_threads_ = 1;
  std::vector<std::thread> threads_;
};

}  // namespace service
}  // namespace benu

#endif  // BENU_SERVICE_QUERY_ENGINE_H_
