#ifndef BENU_DISTRIBUTED_CLUSTER_RUNTIME_H_
#define BENU_DISTRIBUTED_CLUSTER_RUNTIME_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/memory_governor.h"
#include "core/match_consumer.h"
#include "distributed/cluster.h"
#include "distributed/task.h"
#include "storage/db_cache.h"
#include "storage/triangle_cache.h"

namespace benu {

/// Execution engine of the cluster (one of the three TUs cluster.cc
/// decomposes into, next to cluster_accounting): owns the per-worker
/// runtime state and runs every worker's execution threads on the shared
/// pool. The driver in cluster.cc orchestrates; the accounting layer
/// turns the finished state into summaries and virtual times.

/// One execution context per OS thread of a worker; the worker's DB
/// cache is the shared structure (as in Fig. 2), everything else is
/// thread-private.
struct WorkerThreadContext {
  std::unique_ptr<TriangleCache> tcache;
  std::unique_ptr<PlanExecutor> executor;
  std::unique_ptr<CountingConsumer> consumer;
  Count steals = 0;
};

/// Runtime state of one virtual worker, alive for the duration of a run.
struct WorkerExecution {
  const std::vector<SearchTask>* tasks = nullptr;
  std::unique_ptr<DbCache> cache;
  std::unique_ptr<CachedAdjacencyProvider> provider;
  std::vector<WorkerThreadContext> contexts;
  std::unique_ptr<WorkStealingScheduler> scheduler;
  std::vector<TaskStats> per_task;
  std::atomic<int> remaining{0};
  /// Wall time from run start until this worker's last execution thread
  /// finished, seconds.
  double real_seconds = 0;
};

/// Per-worker execution threads after the oversubscription clamp: unless
/// `allow_oversubscription`, the request is clamped to the hardware
/// concurrency (with a warning) so oversubscribed wall times do not
/// pollute the virtual-time model.
int ClampExecutionThreads(int requested, bool allow_oversubscription);

/// Builds the runtime state of every worker — DB cache, adjacency
/// provider, per-thread executors/consumers/triangle caches, scheduler —
/// before any of them runs, so executor-compile errors surface before a
/// single task executes. `governor` (may be null: ungoverned plain-DFS run) is shared by every
/// worker's cache, provider and executors — one memory budget covers the
/// whole run.
StatusOr<std::vector<std::unique_ptr<WorkerExecution>>> SetUpWorkers(
    const std::vector<std::vector<SearchTask>>& per_worker,
    const ExecutionPlan& plan, const ClusterConfig& config,
    const DistributedKvStore* store, size_t num_vertices, int exec_threads,
    const std::vector<VertexId>* degree_floors,
    const std::vector<int>* data_labels, MemoryGovernor* governor = nullptr);

/// Runs every worker's execution threads to completion on one shared
/// pool sized by `config.max_runtime_threads` (0: hardware concurrency;
/// 1 reproduces the sequential seed runtime and runs inline). Returns the
/// pool size used.
size_t ExecuteWorkers(std::vector<std::unique_ptr<WorkerExecution>>& workers,
                      const ClusterConfig& config, int exec_threads,
                      const Stopwatch& total_watch);

}  // namespace benu

#endif  // BENU_DISTRIBUTED_CLUSTER_RUNTIME_H_
