// Parallel-runtime bench: real wall-clock speedup of the concurrent
// cluster runtime (all p workers' execution threads on one shared pool,
// work-stealing task claims, single-flight DB-cache misses) over the
// sequential seed runtime, which executed the p virtual workers one
// after another. The workload is the acceptance configuration:
// 4 workers × 2 execution threads with task splitting enabled.
//
// Shape, CHECKed outside smoke scale on a machine with ≥ 4 cores:
// real_seconds improves ≥ 2x while total_matches is bit-identical to the
// single-threaded run. On fewer cores the runtime clamps its thread
// counts and the speedup degrades toward 1x by design (virtual-time
// results are unaffected), so only the count is checked there.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "plan/plan_search.h"

namespace {

struct Measured {
  benu::ClusterRunResult result;
  double best_real_seconds = 0;
};

Measured Measure(const benu::Graph& data, const benu::ExecutionPlan& plan,
                 const benu::ClusterConfig& config, int iterations) {
  Measured out;
  out.best_real_seconds = 1e300;
  for (int i = 0; i < iterations; ++i) {
    benu::ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan);
    BENU_CHECK(result.ok()) << result.status().ToString();
    out.best_real_seconds =
        std::min(out.best_real_seconds, result->real_seconds);
    out.result = *std::move(result);
  }
  return out;
}

}  // namespace

int main() {
  using namespace benu;
  using namespace benu::bench;
  SetLogLevel(LogLevel::kWarning);

  auto raw = GenerateBarabasiAlbert(SizeFor(20000, 4000, 1000), 8, 7);
  BENU_CHECK(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph pattern = LoadPattern("q4");
  auto plan = GenerateBestPlan(pattern, DataGraphStats::FromGraph(data),
                               {.optimize = true});
  BENU_CHECK(plan.ok());

  ClusterConfig config;
  config.num_workers = 4;
  config.execution_threads = 2;
  config.task_split_threshold = 32;
  config.db_cache_bytes = 64u << 20;

  // Sequential seed: one OS thread drains the workers one after another.
  ClusterConfig sequential = config;
  sequential.execution_threads = 1;
  sequential.max_runtime_threads = 1;

  const int iterations = static_cast<int>(SizeFor(5, 3, 1));
  std::printf("Parallel runtime — 4 workers x 2 execution threads, q4 on "
              "BA(n=%zu, m=8); hardware_concurrency=%u\n",
              static_cast<size_t>(data.NumVertices()),
              std::thread::hardware_concurrency());

  Measured seq = Measure(data, plan->plan, sequential, iterations);
  Measured par = Measure(data, plan->plan, config, iterations);

  std::printf("  %-28s %12s %10s %10s %10s\n", "runtime", "real-time",
              "threads", "steals", "coalesced");
  std::printf("  %-28s %11.3fs %10d %10s %10s\n", "sequential (seed order)",
              seq.best_real_seconds, seq.result.runtime_threads,
              HumanCount(seq.result.steals).c_str(),
              HumanCount(seq.result.coalesced_fetches).c_str());
  std::printf("  %-28s %11.3fs %10d %10s %10s\n", "parallel (shared pool)",
              par.best_real_seconds, par.result.runtime_threads,
              HumanCount(par.result.steals).c_str(),
              HumanCount(par.result.coalesced_fetches).c_str());
  const double speedup =
      seq.best_real_seconds / std::max(1e-12, par.best_real_seconds);
  std::printf("  speedup: %.2fx\n", speedup);

  std::printf("\n  per-worker real seconds (parallel run):");
  for (const WorkerSummary& w : par.result.workers) {
    std::printf(" %.3f", w.real_seconds);
  }
  std::printf("\n");

  BENU_CHECK(par.result.total_matches == seq.result.total_matches)
      << "parallel runtime changed the match count: "
      << par.result.total_matches << " vs " << seq.result.total_matches;
  const unsigned cores = std::thread::hardware_concurrency();
  if (!SmokeScale() && cores >= 4) {
    BENU_CHECK(speedup >= 2.0)
        << "parallel runtime only " << speedup << "x faster than the "
        << "sequential runtime on " << cores << " cores (need >= 2x)";
  }

  std::vector<BenchRecord> records;
  for (const auto* m : {&seq, &par}) {
    BenchRecord rec;
    rec.name = m == &seq ? "sequential" : "parallel";
    rec.params = {{"workers", "4"},
                  {"execution_threads",
                   std::to_string(m == &seq ? 1 : config.execution_threads)}};
    rec.repetitions = iterations;
    rec.seconds = m->best_real_seconds;
    rec.counters = {
        {"runtime_threads", static_cast<double>(m->result.runtime_threads)},
        {"steals", static_cast<double>(m->result.steals)},
        {"coalesced", static_cast<double>(m->result.coalesced_fetches)},
        {"matches", static_cast<double>(m->result.total_matches)},
        {"speedup", seq.best_real_seconds /
                        std::max(1e-12, m->best_real_seconds)}};
    records.push_back(std::move(rec));
  }
  WriteBenchJson("BENCH_parallel_runtime.json", "parallel_runtime", records);
  std::printf(
      "\nCorrectness: total_matches = %s, bit-identical across runtimes.\n"
      "Shape: with >= 4 cores the parallel runtime is >= 2x faster\n"
      "(CHECKed outside smoke scale); per-worker real times overlap (they\n"
      "no longer sum to the total), and stolen claims appear when a\n"
      "worker's task deques drain unevenly.\n",
      HumanCount(par.result.total_matches).c_str());
  return 0;
}
