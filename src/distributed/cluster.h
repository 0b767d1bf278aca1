#ifndef BENU_DISTRIBUTED_CLUSTER_H_
#define BENU_DISTRIBUTED_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/executor.h"
#include "graph/graph.h"
#include "plan/instruction.h"
#include "storage/db_cache.h"
#include "storage/kv_store.h"
#include "storage/transport.h"

namespace benu {

/// Configuration of the simulated shared-nothing cluster. The paper's
/// testbed is 16 worker machines × 24 working threads over 1 Gbps
/// Ethernet with HBase; we reproduce the *structure* in-process (see
/// DESIGN.md §2): tasks are hashed to virtual workers, each worker has a
/// private DB cache shared by its (virtual) threads, and makespans are
/// computed by list-scheduling measured task times onto the virtual
/// threads.
struct ClusterConfig {
  /// p: number of worker machines.
  int num_workers = 4;
  /// w: working threads per worker (used for virtual-time scheduling).
  int threads_per_worker = 4;
  /// Partitions of the distributed KV store.
  size_t db_partitions = 16;
  /// Local DB cache capacity per worker, in bytes (0 disables caching).
  size_t db_cache_bytes = 256u << 20;
  /// τ of task splitting; 0 disables splitting.
  uint32_t task_split_threshold = 0;
  /// Real OS threads used to execute a worker's tasks (each with its own
  /// executor, consumer and triangle cache, sharing the worker's DB
  /// cache). 1 keeps execution serial — the default on single-core CI
  /// machines, where extra threads only add measurement noise to the
  /// per-task times that feed the virtual-time model.
  int execution_threads = 1;
  /// When false (the default), execution_threads is clamped to the
  /// host's hardware concurrency with a warning: oversubscribed OS
  /// threads inflate measured per-task wall times, which pollutes the
  /// virtual-time model on machines without a per-thread CPU clock.
  /// Tests that must exercise preemptive interleaving set this to true.
  bool allow_thread_oversubscription = false;
  /// Size cap of the shared runtime pool that executes all workers'
  /// threads concurrently. 0 sizes the pool by hardware concurrency;
  /// 1 reproduces the sequential seed runtime (workers drain one after
  /// another on a single OS thread).
  int max_runtime_threads = 0;
  /// Simulated round-trip latency charged per remote DB query, µs.
  double db_query_latency_us = 100.0;
  /// Simulated network bandwidth, bytes per µs (125 ≈ 1 Gbps).
  double network_bytes_per_us = 125.0;
  /// Max candidates per ENU instruction whose adjacency sets are fetched
  /// ahead, in batched multi-gets, before the ENU descends (§2d of
  /// DESIGN.md). 0 disables lookahead: every cache miss is a synchronous
  /// store round trip — the paper's per-miss DBQ, which the virtual-time
  /// benches pin.
  size_t prefetch_budget = 64;
  /// Max keys per batched multi-get: the TCP transport pipelines a batch
  /// as one write per server, and the store charges one round-trip
  /// latency per partition per batch, so larger batches amortize
  /// latency (bytes are unchanged).
  size_t prefetch_batch_size = 16;
  /// ENU expansion mode of every executor (core/executor.h). kDfs is the
  /// seed behaviour; kHybrid materializes governor-leased frontier
  /// batches for wide prefetches and spills back to DFS near the memory
  /// ceiling. Match counts are bit-identical across both.
  ExpansionMode expansion = ExpansionMode::kDfs;
  /// Ceiling on governed memory — frontier regions plus the DB caches'
  /// resident bytes, across all workers of the run — in bytes. 0 means
  /// no ceiling (leases always granted, prefetch knobs fully widened).
  /// A MemoryGovernor is instantiated iff this is nonzero or `expansion`
  /// != kDfs, so plain-DFS runs carry no governor overhead.
  size_t memory_budget_bytes = 0;
  /// Serve adjacency sets delta+varint-compressed from the internal
  /// simulated transport (graph/adj_codec.h). Match counts and query
  /// counts are unchanged; bytes_fetched / prefetch_bytes shrink to the
  /// encoded frame sizes. Subject to the BENU_DISABLE_COMPRESSION
  /// kill-switch; ignored when `transport` is non-null (an external
  /// transport negotiates compression itself).
  bool compress_adjacency = true;
  /// Communication backend of the KV store (storage/transport.h). Null —
  /// the default — builds the in-process simulated transport from the
  /// data graph and `db_partitions`, which is the seed behavior. A
  /// non-null transport (loopback, TCP, custom) must already hold the
  /// *same* graph the simulator is given: ClusterSimulator CHECKs the
  /// vertex counts match, and `db_partitions` is taken from the
  /// transport. The transport side serves a fixed labeling —
  /// BenuOptions::relabel_by_degree validates against its graph hash.
  std::shared_ptr<Transport> transport;
};

/// Per-worker outcome of a run. Filled after all execution threads have
/// joined, so every field is a settled total — no live counters.
struct WorkerSummary {
  /// Local search tasks assigned to this worker (after splitting).
  size_t tasks = 0;
  /// Sum of the per-task TaskStats of this worker's tasks.
  TaskStats totals;
  /// Snapshot of the worker's DB-cache stats at end of run (see
  /// DbCacheStats for the hit/miss/coalesced bucket convention).
  DbCacheStats cache;
  /// Tasks the worker's threads claimed from a sibling thread's deque.
  Count steals = 0;
  /// Σ task virtual time (compute + simulated network), µs.
  double busy_virtual_us = 0;
  /// Makespan of the worker's tasks list-scheduled on its threads, plus
  /// prefetch_comm_us, µs.
  double makespan_virtual_us = 0;
  /// Total virtual communication of the worker's lookahead batches, µs
  /// (`prefetch_round_trips × latency + prefetch_bytes / bandwidth`);
  /// synchronous task fetches are accounted inside the per-task virtual
  /// times, not here.
  double prefetch_comm_us = 0;
  /// Real wall time from run start until the worker's last execution
  /// thread finished, seconds. Workers run concurrently, so these
  /// overlap; they do not sum to ClusterRunResult::real_seconds.
  double real_seconds = 0;
};

/// Aggregate outcome of one distributed enumeration. Every Count field
/// is also mirrored (accumulating across runs) into the process-wide
/// metrics registry as a `cluster.*` counter; docs/metrics.md holds the
/// field-by-field mapping, and metrics_test.cc keeps the two in sync.
struct ClusterRunResult {
  /// Expanded (duplicate-free) matches; unit: subgraphs.
  Count total_matches = 0;
  /// RES executions (helves under VCBC).
  Count total_codes = 0;
  /// Compressed-code payload units (vertex-id entries emitted).
  Count code_units = 0;
  /// Synchronous store queries issued by tasks (misses of all DB caches;
  /// excludes prefetch traffic — see prefetch_round_trips/prefetch_bytes).
  Count db_queries = 0;
  /// Payload bytes of those synchronous fetches.
  Count bytes_fetched = 0;
  /// DBQ executions across all tasks: every one lands in exactly one of
  /// cache_hits, db_queries or coalesced_fetches.
  Count adjacency_requests = 0;
  /// DBQ lookups served from a worker's DB cache without any wait.
  Count cache_hits = 0;
  /// Cache misses served by piggybacking on another thread's in-flight
  /// store query (single-flight coalescing): no store traffic of their
  /// own. adjacency_requests == cache_hits + db_queries +
  /// coalesced_fetches.
  Count coalesced_fetches = 0;
  /// Work-stealing claims across all workers' threads.
  Count steals = 0;
  /// Adjacency-lookahead counters, summed over the workers' DB caches
  /// (0 when prefetch_budget == 0).
  Count prefetches_issued = 0;
  /// Prefetched entries that converted a would-be miss into a hit.
  Count prefetch_hits = 0;
  /// Prefetched entries evicted (or never retained) without a hit.
  Count prefetch_wasted = 0;
  /// Round trips of the batched lookahead fetches (one per partition
  /// per batch) and their payload bytes. Prefetch bytes are NOT included
  /// in bytes_fetched (which counts synchronous task fetches); total
  /// communication volume is bytes_fetched + prefetch_bytes.
  Count prefetch_round_trips = 0;
  Count prefetch_bytes = 0;
  /// Local search tasks executed (after τ-splitting), across all workers.
  size_t num_tasks = 0;
  /// OS threads in the shared runtime pool that executed this run.
  int runtime_threads = 0;
  /// Per-worker execution threads actually used (after clamping).
  int execution_threads = 0;
  /// Cluster virtual execution time: max worker makespan, seconds.
  double virtual_seconds = 0;
  /// Σ over workers of the lookahead batches' virtual communication,
  /// seconds (round trips × latency + bytes / bandwidth).
  double prefetch_comm_seconds = 0;
  /// Real wall time of the in-process simulation, seconds.
  double real_seconds = 0;
  std::vector<WorkerSummary> workers;
  /// Virtual time of every task, µs (Fig. 9a's distribution).
  std::vector<double> task_virtual_us;

  double CacheHitRate() const {
    return adjacency_requests == 0
               ? 0.0
               : static_cast<double>(cache_hits) / adjacency_requests;
  }
};

/// The BENU cluster: a distributed KV store holding the data graph plus p
/// virtual workers. `Run` executes an execution plan end to end:
/// generates local search tasks, splits heavy ones, shuffles them evenly
/// to workers, runs every task through a plan executor with the worker's
/// DB cache and a per-thread triangle cache, and aggregates metrics.
class ClusterSimulator {
 public:
  /// Stores `data_graph` in the simulated distributed database
  /// (Algorithm 2 line 1). The graph must already realize the total
  /// order ≺ (see Graph::RelabelByDegree).
  ClusterSimulator(const Graph& data_graph, const ClusterConfig& config);

  /// Enumerates matches of `plan` over the stored data graph.
  /// `data_labels` (one label per data vertex, in the *stored* graph's
  /// numbering) is required iff the plan matches a labeled pattern.
  StatusOr<ClusterRunResult> Run(
      const ExecutionPlan& plan,
      const std::vector<int>* data_labels = nullptr);

  const ClusterConfig& config() const { return config_; }
  const Graph& data_graph() const { return data_graph_; }
  const DistributedKvStore& store() const { return *store_; }

 private:
  Graph data_graph_;
  ClusterConfig config_;
  /// Client of the distributed database; the backend is
  /// config_.transport (simulated when null). unique_ptr because the
  /// store's stats hold atomics (non-movable) and the backend choice
  /// happens in the constructor body.
  std::unique_ptr<DistributedKvStore> store_;
};

}  // namespace benu

#endif  // BENU_DISTRIBUTED_CLUSTER_H_
