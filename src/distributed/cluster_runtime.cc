#include "distributed/cluster_runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "plan/filters.h"

namespace benu {

int ClampExecutionThreads(int requested, bool allow_oversubscription) {
  const unsigned hw = std::thread::hardware_concurrency();
  int exec_threads = std::max(1, requested);
  if (!allow_oversubscription && hw > 0 &&
      exec_threads > static_cast<int>(hw)) {
    BENU_LOG(Warning)
        << "execution_threads=" << exec_threads
        << " exceeds hardware concurrency (" << hw
        << "); clamping so oversubscribed wall times do not pollute the "
           "virtual-time model (set allow_thread_oversubscription to "
           "override)";
    exec_threads = static_cast<int>(hw);
  }
  return exec_threads;
}

StatusOr<std::vector<std::unique_ptr<WorkerExecution>>> SetUpWorkers(
    const std::vector<std::vector<SearchTask>>& per_worker,
    const ExecutionPlan& plan, const ClusterConfig& config,
    const DistributedKvStore* store, size_t num_vertices, int exec_threads,
    const std::vector<VertexId>* degree_floors,
    const std::vector<int>* data_labels, MemoryGovernor* governor) {
  std::vector<std::unique_ptr<WorkerExecution>> workers;
  workers.reserve(per_worker.size());
  for (const std::vector<SearchTask>& tasks : per_worker) {
    auto ws = std::make_unique<WorkerExecution>();
    ws->tasks = &tasks;
    ws->cache = std::make_unique<DbCache>(
        store, config.db_cache_bytes, /*num_shards=*/8,
        config.prefetch_batch_size, governor);
    ws->provider = std::make_unique<CachedAdjacencyProvider>(
        ws->cache.get(), num_vertices, config.prefetch_budget, governor);
    ws->contexts.resize(static_cast<size_t>(exec_threads));
    for (WorkerThreadContext& ctx : ws->contexts) {
      ctx.tcache = std::make_unique<TriangleCache>();
      auto executor = PlanExecutor::Create(
          &plan, ws->provider.get(), ctx.tcache.get(),
          (degree_floors == nullptr || degree_floors->empty())
              ? nullptr
              : degree_floors,
          data_labels);
      BENU_RETURN_IF_ERROR(executor.status());
      ctx.executor = std::move(executor).value();
      ctx.executor->ConfigureExpansion(config.expansion, governor);
      ctx.consumer = std::make_unique<CountingConsumer>(plan);
    }
    ws->scheduler = std::make_unique<WorkStealingScheduler>(
        ws->tasks->size(), static_cast<size_t>(exec_threads));
    ws->per_task.resize(ws->tasks->size());
    ws->remaining.store(exec_threads, std::memory_order_relaxed);
    workers.push_back(std::move(ws));
  }
  return workers;
}

size_t ExecuteWorkers(std::vector<std::unique_ptr<WorkerExecution>>& workers,
                      const ClusterConfig& config, int exec_threads,
                      const Stopwatch& total_watch) {
  // Per-worker runtime phase totals (§2e): time spent claiming/stealing
  // tasks vs executing them, accumulated thread-locally and flushed once
  // per thread. Only measured under tracing — two clock reads per task
  // are not free on micro-task workloads.
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Counter* claim_ns_metric = registry.GetCounter(
      "cluster.phase.claim_ns", "ns",
      "execution-thread time spent claiming/stealing tasks (traced)");
  metrics::Counter* compute_ns_metric = registry.GetCounter(
      "cluster.phase.compute_ns", "ns",
      "execution-thread time spent inside RunTask (traced)");

  // One execution thread of one worker: claim tasks (stealing from
  // sibling threads when the own deque runs dry) until the worker's task
  // list is exhausted.
  auto run_thread = [&total_watch, claim_ns_metric, compute_ns_metric](
                        WorkerExecution* ws, size_t t) {
    WorkerThreadContext& ctx = ws->contexts[t];
    const bool traced = metrics::TracingEnabled();
    uint64_t claim_ns = 0;
    uint64_t compute_ns = 0;
    size_t index = 0;
    bool stolen = false;
    for (;;) {
      bool claimed;
      if (traced) {
        const auto t0 = std::chrono::steady_clock::now();
        claimed = ws->scheduler->Claim(t, &index, &stolen);
        claim_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } else {
        claimed = ws->scheduler->Claim(t, &index, &stolen);
      }
      if (!claimed) break;
      if (stolen) ++ctx.steals;
      if (traced) {
        const auto t0 = std::chrono::steady_clock::now();
        ws->per_task[index] =
            ctx.executor->RunTask((*ws->tasks)[index], ctx.consumer.get());
        compute_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } else {
        ws->per_task[index] =
            ctx.executor->RunTask((*ws->tasks)[index], ctx.consumer.get());
      }
    }
    if (traced) {
      claim_ns_metric->Add(claim_ns);
      compute_ns_metric->Add(compute_ns);
    }
    if (ws->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ws->real_seconds = total_watch.ElapsedSeconds();
    }
  };

  // All p workers run concurrently on one shared pool sized by the
  // hardware (Fig. 2's p workers × w threads, collapsed onto one
  // machine). max_runtime_threads = 1 reproduces the sequential seed.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t total_contexts =
      workers.size() * static_cast<size_t>(exec_threads);
  size_t pool_threads;
  if (config.max_runtime_threads > 0) {
    pool_threads = static_cast<size_t>(config.max_runtime_threads);
  } else if (config.allow_thread_oversubscription) {
    pool_threads = total_contexts;
  } else {
    pool_threads = hw > 0 ? static_cast<size_t>(hw) : 1;
  }
  pool_threads = std::max<size_t>(1, std::min(pool_threads, total_contexts));

  if (pool_threads == 1) {
    // Degenerate pool: run inline and spare the thread churn (this is
    // the sequential seed's execution order).
    for (auto& ws : workers) {
      for (size_t t = 0; t < ws->contexts.size(); ++t) {
        run_thread(ws.get(), t);
      }
    }
  } else {
    ThreadPool pool(pool_threads);
    for (auto& ws : workers) {
      for (size_t t = 0; t < ws->contexts.size(); ++t) {
        WorkerExecution* state = ws.get();
        pool.Submit([&run_thread, state, t] { run_thread(state, t); });
      }
    }
    pool.Wait();
  }
  return pool_threads;
}

}  // namespace benu
