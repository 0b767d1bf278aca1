#include "distributed/cluster.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/memory_governor.h"
#include "distributed/cluster_accounting.h"
#include "distributed/cluster_runtime.h"
#include "distributed/task.h"
#include "plan/filters.h"

namespace benu {

ClusterSimulator::ClusterSimulator(const Graph& data_graph,
                                   const ClusterConfig& config)
    : data_graph_(data_graph), config_(config) {
  if (config_.transport != nullptr) {
    BENU_CHECK(config_.transport->num_vertices() ==
               data_graph_.NumVertices())
        << "transport stores " << config_.transport->num_vertices()
        << " vertices but the data graph has " << data_graph_.NumVertices()
        << " — both sides must hold the same (identically labeled) graph";
    config_.db_partitions = config_.transport->num_partitions();
    store_ = std::make_unique<DistributedKvStore>(config_.transport);
  } else {
    store_ = std::make_unique<DistributedKvStore>(MakeSimulatedTransport(
        data_graph_, config_.db_partitions, config_.compress_adjacency));
  }
}

StatusOr<ClusterRunResult> ClusterSimulator::Run(
    const ExecutionPlan& plan, const std::vector<int>* data_labels) {
  Stopwatch total_watch;
  ClusterRunResult result;

  // Degree filters compile against the data graph's degree floors; this
  // is pattern-independent preprocessing shared by all workers.
  std::vector<VertexId> degree_floors;
  if (plan.UsesDegreeFilters()) {
    degree_floors =
        ComputeDegreeFloors(data_graph_, plan.pattern.MaxDegree());
  }

  std::vector<SearchTask> tasks =
      GenerateSearchTasks(data_graph_, plan, config_.task_split_threshold);
  result.num_tasks = tasks.size();

  const int p = std::max(1, config_.num_workers);
  // "The local search tasks ... shuffled evenly to the reducers":
  // round-robin over workers in task order.
  std::vector<std::vector<SearchTask>> per_worker(p);
  for (size_t i = 0; i < tasks.size(); ++i) {
    per_worker[i % static_cast<size_t>(p)].push_back(tasks[i]);
  }

  const int exec_threads = ClampExecutionThreads(
      config_.execution_threads, config_.allow_thread_oversubscription);
  result.execution_threads = exec_threads;

  // Memory governor of the hybrid execution mode: one per run, shared by
  // every worker's cache, provider and executors so one budget covers
  // frontier regions and cache residency across the whole cluster. Only
  // instantiated when governed execution is requested — plain-DFS runs
  // (the default, incl. the byte-deterministic metrics workloads) touch
  // no governor state and emit no memory.governor.* instruments.
  // Declared before the workers: cache teardown still reports resident
  // deltas to it.
  std::unique_ptr<MemoryGovernor> governor;
  if (config_.memory_budget_bytes > 0 ||
      config_.expansion != ExpansionMode::kDfs) {
    governor = std::make_unique<MemoryGovernor>(config_.memory_budget_bytes,
                                                config_.prefetch_budget,
                                                config_.prefetch_batch_size);
  }

  auto workers = SetUpWorkers(per_worker, plan, config_, store_.get(),
                              data_graph_.NumVertices(), exec_threads,
                              &degree_floors, data_labels, governor.get());
  BENU_RETURN_IF_ERROR(workers.status());

  result.runtime_threads = static_cast<int>(ExecuteWorkers(
      *workers, config_, exec_threads, total_watch));

  // Aggregate in worker order so totals are independent of the actual
  // thread interleaving (integer totals per task are interleaving-
  // invariant; summation order here is fixed).
  for (const auto& worker : *workers) {
    AccumulateWorker(*worker, config_, &result);
  }
  result.real_seconds = total_watch.ElapsedSeconds();
  PublishRunMetrics(result);
  return result;
}

}  // namespace benu
