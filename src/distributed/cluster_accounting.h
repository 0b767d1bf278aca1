#ifndef BENU_DISTRIBUTED_CLUSTER_ACCOUNTING_H_
#define BENU_DISTRIBUTED_CLUSTER_ACCOUNTING_H_

#include <vector>

#include "distributed/cluster.h"
#include "distributed/cluster_runtime.h"

namespace benu {

/// Virtual-time accounting of the cluster (one of the three TUs
/// cluster.cc decomposes into, next to cluster_runtime): turns the
/// settled runtime state of the workers into per-worker summaries,
/// virtual makespans and the aggregated run result, and mirrors that
/// result into the process-wide metrics registry.

/// List-schedules task times (in submission order) onto `threads`
/// identical virtual threads; returns the makespan. Reproduces the
/// straggler behaviour of Fig. 9: one huge task bounds the makespan from
/// below no matter how many threads exist.
double ListScheduleMakespan(const std::vector<double>& task_times,
                            int threads);

/// Folds one finished worker into `result` (appending its
/// WorkerSummary): per-task virtual times (compute + latency per query
/// and coalesced wait + bytes over bandwidth), and the worker's
/// makespan: its list-scheduled compute makespan plus the lookahead's
/// communication, which the enumerating threads wait out inline. Must
/// run in worker order so totals are independent of thread interleaving.
void AccumulateWorker(const WorkerExecution& worker,
                      const ClusterConfig& config, ClusterRunResult* result);

/// Publishes the aggregated run outcome into the process-wide registry
/// (`cluster.*`, docs/metrics.md). The ClusterRunResult stays the
/// per-run view; the registry accumulates across runs, and
/// metrics_test.cc checks the two agree after a single run. Timing-
/// derived instruments are only exported under tracing so that untraced
/// snapshots are a pure function of the work performed.
void PublishRunMetrics(const ClusterRunResult& result);

}  // namespace benu

#endif  // BENU_DISTRIBUTED_CLUSTER_ACCOUNTING_H_
