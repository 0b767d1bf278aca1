#include "distributed/cluster_accounting.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/metrics.h"

namespace benu {

double ListScheduleMakespan(const std::vector<double>& task_times,
                            int threads) {
  if (threads <= 1) {
    double total = 0;
    for (double t : task_times) total += t;
    return total;
  }
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (int i = 0; i < threads; ++i) loads.push(0.0);
  double makespan = 0;
  for (double t : task_times) {
    double load = loads.top();
    loads.pop();
    load += t;
    makespan = std::max(makespan, load);
    loads.push(load);
  }
  return makespan;
}

void AccumulateWorker(const WorkerExecution& worker,
                      const ClusterConfig& config, ClusterRunResult* result) {
  result->workers.emplace_back();
  WorkerSummary& summary = result->workers.back();

  std::vector<double> virtual_times;
  virtual_times.reserve(worker.per_task.size());
  for (const TaskStats& stats : worker.per_task) {
    summary.totals.Accumulate(stats);
    // Coalesced fetches issue no query of their own but do wait out
    // the primary's round trip, so they are charged the latency (not
    // the bytes) in the task's virtual time.
    const double network_us =
        static_cast<double>(stats.db_queries + stats.coalesced_fetches) *
            config.db_query_latency_us +
        static_cast<double>(stats.bytes_fetched) /
            std::max(1e-9, config.network_bytes_per_us);
    const double compute_us =
        (stats.cpu_seconds >= 0 ? stats.cpu_seconds : stats.wall_seconds) *
        1e6;
    const double virtual_us = compute_us + network_us;
    virtual_times.push_back(virtual_us);
    summary.busy_virtual_us += virtual_us;
    result->task_virtual_us.push_back(virtual_us);
  }
  Count worker_matches = 0;
  for (const WorkerThreadContext& ctx : worker.contexts) {
    worker_matches += ctx.consumer->matches();
    result->total_matches += ctx.consumer->matches();
    result->total_codes += ctx.consumer->codes();
    result->code_units += ctx.consumer->code_units();
    summary.steals += ctx.steals;
  }
  summary.tasks = worker.tasks->size();
  summary.totals.matches = worker_matches;
  summary.cache = worker.cache->stats();
  summary.real_seconds = worker.real_seconds;
  const double compute_makespan_us =
      ListScheduleMakespan(virtual_times, config.threads_per_worker);
  // Lookahead communication (§2d): one round-trip latency per partition
  // per batch plus the prefetched bytes over the bandwidth. The
  // enumerating threads fetch these batches themselves, so the whole
  // cost lands on the worker's critical path.
  const double prefetch_comm_us =
      static_cast<double>(summary.cache.prefetch_round_trips) *
          config.db_query_latency_us +
      static_cast<double>(summary.cache.prefetch_bytes) /
          std::max(1e-9, config.network_bytes_per_us);
  summary.prefetch_comm_us = prefetch_comm_us;
  summary.makespan_virtual_us = compute_makespan_us + prefetch_comm_us;
  result->prefetch_comm_seconds += prefetch_comm_us * 1e-6;
  result->prefetches_issued += summary.cache.prefetches_issued;
  result->prefetch_hits += summary.cache.prefetch_hits;
  result->prefetch_wasted += summary.cache.prefetch_wasted;
  result->prefetch_round_trips += summary.cache.prefetch_round_trips;
  result->prefetch_bytes += summary.cache.prefetch_bytes;
  result->steals += summary.steals;
  result->db_queries += summary.totals.db_queries;
  result->coalesced_fetches += summary.totals.coalesced_fetches;
  result->bytes_fetched += summary.totals.bytes_fetched;
  result->adjacency_requests += summary.totals.adjacency_requests;
  result->cache_hits += summary.totals.cache_hits;
  result->virtual_seconds =
      std::max(result->virtual_seconds, summary.makespan_virtual_us * 1e-6);
}

void PublishRunMetrics(const ClusterRunResult& result) {
  auto& registry = metrics::MetricsRegistry::Global();
  const auto counter = [&registry](const char* name, const char* unit,
                                   const char* help, Count value) {
    registry.GetCounter(name, unit, help)->Add(value);
  };
  counter("cluster.runs", "1", "completed ClusterSimulator::Run calls", 1);
  counter("cluster.tasks", "1", "local search tasks executed",
          result.num_tasks);
  counter("cluster.matches", "1", "expanded matches", result.total_matches);
  counter("cluster.codes", "1", "RES executions (helves under VCBC)",
          result.total_codes);
  counter("cluster.code_units", "1",
          "compressed-code payload units (vertex-id entries)",
          result.code_units);
  counter("cluster.db_queries", "1", "synchronous store queries by tasks",
          result.db_queries);
  counter("cluster.bytes_fetched", "bytes",
          "payload bytes of synchronous task fetches", result.bytes_fetched);
  counter("cluster.adjacency_requests", "1",
          "DBQ executions (hits + misses + coalesced)",
          result.adjacency_requests);
  counter("cluster.cache_hits", "1", "DBQ lookups served from a DB cache",
          result.cache_hits);
  counter("cluster.coalesced_fetches", "1",
          "DBQ lookups that piggybacked on a sibling's in-flight query",
          result.coalesced_fetches);
  counter("cluster.steals", "1", "work-stealing claims across all workers",
          result.steals);
  counter("cluster.prefetches_issued", "1",
          "keys handed to the adjacency lookahead pipeline",
          result.prefetches_issued);
  counter("cluster.prefetch_hits", "1",
          "prefetched entries that converted a would-be miss into a hit",
          result.prefetch_hits);
  counter("cluster.prefetch_wasted", "1",
          "prefetched entries evicted or dropped without a hit",
          result.prefetch_wasted);
  counter("cluster.prefetch_round_trips", "1",
          "round trips of batched lookahead fetches",
          result.prefetch_round_trips);
  counter("cluster.prefetch_bytes", "bytes",
          "payload bytes fetched by the prefetch pipeline",
          result.prefetch_bytes);
  if (!metrics::TracingEnabled()) return;
  registry
      .GetGauge("cluster.virtual_seconds", "s",
                "virtual makespan of the last run (traced)")
      ->Set(result.virtual_seconds);
  registry
      .GetGauge("cluster.prefetch_comm_seconds", "s",
                "total virtual communication of the lookahead batches, "
                "last run (traced)")
      ->Set(result.prefetch_comm_seconds);
  registry
      .GetGauge("cluster.real_seconds", "s",
                "wall time of the last run (traced)")
      ->Set(result.real_seconds);
  registry
      .GetGauge("cluster.runtime_threads", "1",
                "OS threads in the shared runtime pool, last run (traced)")
      ->Set(result.runtime_threads);
  registry
      .GetGauge("cluster.execution_threads", "1",
                "per-worker execution threads after clamping, last run "
                "(traced)")
      ->Set(result.execution_threads);
  metrics::Histogram* worker_makespan = registry.GetHistogram(
      "cluster.worker.makespan.us", "us",
      "per-worker virtual makespans incl. lookahead communication "
      "(traced)");
  for (const WorkerSummary& summary : result.workers) {
    worker_makespan->Record(
        static_cast<uint64_t>(summary.makespan_virtual_us));
  }
  metrics::Histogram* task_virtual = registry.GetHistogram(
      "cluster.task.virtual.us", "us",
      "virtual time (compute + simulated network) per task (traced)");
  for (double us : result.task_virtual_us) {
    task_virtual->Record(static_cast<uint64_t>(us));
  }
}

}  // namespace benu
