// metrics_dump: run one pattern end to end with span tracing enabled and
// print the process-wide metrics registry as a human-readable table —
// the on-ramp to the observability layer of DESIGN.md §2e.
//
// The run enumerates q5 over an Erdős–Rényi stand-in (ER-1k) on a
// single-threaded simulated cluster, so the per-instruction self-times
// (INI/DBQ/INT/ENU/TRC/RES) decompose the task compute time exactly:
// the binary CHECKs that their sum lands within 5% of the measured task
// wall time, which is the invariant the tracing design promises (every
// instrument printed here is documented in docs/metrics.md).
//
// Build & run:
//   cmake -B build && cmake --build build --target metrics_dump
//   ./build/examples/metrics_dump

#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"

int main() {
  using namespace benu;

  metrics::SetTracingEnabled(true);
  metrics::MetricsRegistry::Global().ResetValues();

  Graph data =
      std::move(GenerateErdosRenyi(1000, 10000, /*seed=*/7)).value();
  Graph pattern = std::move(GetPattern("q5")).value();

  BenuOptions options;
  // Single worker, single real thread: the per-instruction trace then
  // covers every executed instruction of the run, and its sum is
  // directly comparable against the summed task wall times.
  options.cluster.num_workers = 1;
  options.cluster.threads_per_worker = 1;
  options.cluster.execution_threads = 1;
  options.cluster.max_runtime_threads = 1;
  options.cluster.db_cache_bytes = 8u << 20;
  options.cluster.task_split_threshold = 500;
  // The default lookahead exercises the prefetch pipeline
  // deterministically: its batched multi-gets drain inline on the
  // enumerating thread.
  // Governed hybrid expansion under a finite budget, so the dump also
  // shows the memory.governor.* instruments in action (frontier leases,
  // pinned high-water) — the per-instruction span invariant below must
  // hold in this mode exactly as in plain DFS.
  options.cluster.expansion = ExpansionMode::kHybrid;
  options.cluster.memory_budget_bytes = 16u << 20;
  options.plan.apply_vcbc = true;

  auto result = RunBenu(data, pattern, options);
  BENU_CHECK(result.ok()) << result.status().ToString();

  const metrics::MetricsSnapshot snapshot =
      metrics::MetricsRegistry::Global().Snapshot();
  std::printf("%s", snapshot.ToTable().c_str());

  // Memory-governor state of the governed hybrid run: the configured
  // ceiling, what is still pinned after teardown (caches and frontier
  // regions un-count themselves — this should read 0), the pinned
  // high-water mark, and the lease traffic.
  const auto find = [&snapshot](const char* name) -> double {
    for (const metrics::SnapshotEntry& entry : snapshot.entries) {
      if (entry.name == name) {
        return entry.kind == metrics::InstrumentKind::kGauge
                   ? entry.gauge_value
                   : static_cast<double>(entry.counter_value);
      }
    }
    return 0;
  };
  std::printf(
      "\nmemory governor: budget=%.0f bytes, pinned=%.0f bytes, "
      "lease high-water=%.0f bytes, grants=%.0f, denials=%.0f\n",
      find("memory.governor.budget_bytes"),
      find("memory.governor.pinned_bytes"),
      find("memory.governor.lease_high_water"),
      find("memory.governor.lease_grants"),
      find("memory.governor.lease_denials"));

  // Sum the exclusive per-instruction self-times and compare against the
  // summed wall time of all tasks (the trace covers the interpreter loop;
  // per-task setup/teardown outside Exec is the only slack allowed).
  double span_seconds = 0;
  for (const metrics::SnapshotEntry& entry : snapshot.entries) {
    if (entry.name.rfind("executor.instr.", 0) == 0 &&
        entry.name.size() > 8 &&
        entry.name.compare(entry.name.size() - 8, 8, ".self_ns") == 0) {
      span_seconds += static_cast<double>(entry.counter_value) * 1e-9;
    }
  }
  double task_wall_seconds = 0;
  for (const WorkerSummary& worker : result->run.workers) {
    task_wall_seconds += worker.totals.wall_seconds;
  }
  std::printf(
      "\nmatches=%llu tasks=%zu\n"
      "instruction span sum: %.6f s, task wall sum: %.6f s (%.2f%%)\n",
      static_cast<unsigned long long>(result->run.total_matches),
      result->run.num_tasks, span_seconds, task_wall_seconds,
      task_wall_seconds > 0 ? 100.0 * span_seconds / task_wall_seconds
                            : 0.0);
  BENU_CHECK(task_wall_seconds > 0);
  BENU_CHECK(std::abs(span_seconds - task_wall_seconds) <=
             0.05 * task_wall_seconds)
      << "per-instruction spans do not decompose task compute time: "
      << span_seconds << " vs " << task_wall_seconds;
  std::printf("span decomposition OK (within 5%%)\n");
  return 0;
}
