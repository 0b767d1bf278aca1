#include "distributed/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "baselines/bruteforce.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "plan/plan_search.h"

namespace benu {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.db_cache_bytes = 1 << 20;
  return config;
}

TEST(ClusterTest, CountsMatchBruteForce) {
  auto raw = GenerateBarabasiAlbert(150, 4, 2);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  for (const std::string name : {"triangle", "q1", "q4"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
    ASSERT_TRUE(plan.ok()) << name;
    ClusterSimulator cluster(data, SmallCluster());
    auto result = cluster.Run(plan->plan);
    ASSERT_TRUE(result.ok()) << name;
    auto expected = BruteForceCountSubgraphs(data, p);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(result->total_matches, *expected) << name;
  }
}

TEST(ClusterTest, WorkerCountDoesNotChangeResults) {
  auto raw = GenerateBarabasiAlbert(120, 4, 9);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q3")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());
  Count reference = 0;
  for (int workers : {1, 2, 4, 8}) {
    ClusterConfig config = SmallCluster();
    config.num_workers = workers;
    ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan->plan);
    ASSERT_TRUE(result.ok());
    if (workers == 1) {
      reference = result->total_matches;
    } else {
      EXPECT_EQ(result->total_matches, reference) << workers;
    }
  }
}

TEST(ClusterTest, TaskSplittingPreservesCounts) {
  auto raw = GenerateBarabasiAlbert(200, 6, 13);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q5")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());

  ClusterConfig no_split = SmallCluster();
  ClusterConfig split = SmallCluster();
  split.task_split_threshold = 8;
  ClusterSimulator a(data, no_split);
  ClusterSimulator b(data, split);
  auto ra = a.Run(plan->plan);
  auto rb = b.Run(plan->plan);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->total_matches, rb->total_matches);
  EXPECT_GT(rb->num_tasks, ra->num_tasks);
}

TEST(ClusterTest, CacheReducesDbQueries) {
  auto raw = GenerateBarabasiAlbert(300, 5, 21);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q4")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());

  ClusterConfig cold = SmallCluster();
  cold.db_cache_bytes = 0;
  ClusterConfig warm = SmallCluster();
  warm.db_cache_bytes = 64 << 20;
  ClusterSimulator a(data, cold);
  ClusterSimulator b(data, warm);
  auto ra = a.Run(plan->plan);
  auto rb = b.Run(plan->plan);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->total_matches, rb->total_matches);
  EXPECT_LT(rb->db_queries, ra->db_queries);
  EXPECT_GT(rb->CacheHitRate(), 0.5);
  EXPECT_EQ(ra->cache_hits, 0u);
}

TEST(ClusterTest, PrefetchPipelinePreservesCountsOnDbqHeavyPlans) {
  // DBQ-heavy regression: q9 and the 5-clique with a capacity-0 cache —
  // every adjacency request is a store fetch, so the prefetch pipeline is
  // maximally exercised (nothing it inserts is ever retained). Match
  // counts must be bit-identical across the per-miss synchronous
  // baseline and the batched lookahead.
  auto raw = GenerateBarabasiAlbert(120, 5, 41);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  for (const std::string name : {"q9", "clique5"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
    ASSERT_TRUE(plan.ok()) << name;

    ClusterConfig sync = SmallCluster();
    sync.db_cache_bytes = 0;
    sync.prefetch_budget = 0;
    ClusterConfig inline_drain = sync;
    inline_drain.prefetch_budget = 32;

    Count reference = 0;
    bool first = true;
    for (const ClusterConfig* config : {&sync, &inline_drain}) {
      ClusterSimulator cluster(data, *config);
      auto result = cluster.Run(plan->plan);
      ASSERT_TRUE(result.ok()) << name;
      if (first) {
        reference = result->total_matches;
        first = false;
        EXPECT_EQ(result->prefetches_issued, 0u) << name;
      } else {
        EXPECT_EQ(result->total_matches, reference) << name;
        EXPECT_GT(result->prefetches_issued, 0u) << name;
      }
    }
  }
}

TEST(ClusterTest, HybridExpansionPreservesCountsInEveryRegime) {
  // The hybrid ENU path drains governor-leased frontier batches through
  // the same DescendRange loop plain DFS uses, so the candidate visit
  // order — and therefore the match count — must be bit-identical in
  // every governed regime: generous budget (wide batches), starved
  // budget (constant lease denials, spill-to-DFS) and no ceiling at all.
  // q5 and clique4 cover both a cycle (DBQ-heavy) and a dense
  // (INT-heavy) plan shape.
  auto raw = GenerateBarabasiAlbert(200, 5, 17);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  for (const std::string name : {"q5", "clique4"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
    ASSERT_TRUE(plan.ok()) << name;

    ClusterConfig dfs = SmallCluster();
    dfs.db_cache_bytes = 64 << 10;
    dfs.prefetch_budget = 16;

    ClusterConfig generous = dfs;
    generous.expansion = ExpansionMode::kHybrid;
    generous.memory_budget_bytes = 64u << 20;
    // Starved: the budget sits below the caches' working set, so every
    // lease is denied and each batch degrades to the static-DFS path.
    ClusterConfig starved = generous;
    starved.memory_budget_bytes = 1024;
    ClusterConfig unbounded = generous;
    unbounded.memory_budget_bytes = 0;

    Count reference = 0;
    bool first = true;
    for (const ClusterConfig* config :
         {&dfs, &generous, &starved, &unbounded}) {
      ClusterSimulator cluster(data, *config);
      auto result = cluster.Run(plan->plan);
      ASSERT_TRUE(result.ok()) << name;
      if (first) {
        reference = result->total_matches;
        first = false;
        EXPECT_GT(reference, 0u) << name;
      } else {
        EXPECT_EQ(result->total_matches, reference) << name;
      }
    }
  }
}

TEST(ClusterTest, PrefetchCommIsConsistentWithItsParts) {
  // The run's lookahead communication is the sum of its workers'; with
  // lookahead off there is none.
  auto raw = GenerateBarabasiAlbert(150, 5, 23);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q5")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());

  ClusterConfig lookahead = SmallCluster();
  lookahead.db_cache_bytes = 4 << 10;
  lookahead.db_query_latency_us = 500.0;
  lookahead.prefetch_budget = 32;
  ClusterSimulator cluster(data, lookahead);
  auto result = cluster.Run(plan->plan);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->prefetch_comm_seconds, 0.0);
  double worker_prefetch_comm = 0;
  for (const WorkerSummary& w : result->workers) {
    worker_prefetch_comm += w.prefetch_comm_us * 1e-6;
  }
  EXPECT_NEAR(worker_prefetch_comm, result->prefetch_comm_seconds, 1e-9);

  ClusterConfig sync = lookahead;
  sync.prefetch_budget = 0;
  ClusterSimulator sync_cluster(data, sync);
  auto sync_result = sync_cluster.Run(plan->plan);
  ASSERT_TRUE(sync_result.ok());
  EXPECT_EQ(sync_result->prefetch_comm_seconds, 0.0);
  EXPECT_EQ(sync_result->total_matches, result->total_matches);
}

TEST(ClusterTest, StatsAreInternallyConsistent) {
  auto raw = GenerateBarabasiAlbert(100, 4, 33);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());
  // The per-miss baseline keeps every fetch inside the tasks' virtual
  // times; the default lookahead adds worker-level prefetch
  // communication, which lands on the worker's makespan.
  ClusterConfig per_miss = SmallCluster();
  per_miss.prefetch_budget = 0;
  for (const ClusterConfig& config : {per_miss, SmallCluster()}) {
    const bool lookahead = config.prefetch_budget > 0;
    ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan->plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->adjacency_requests, result->cache_hits +
                                              result->db_queries +
                                              result->coalesced_fetches);
    EXPECT_EQ(result->task_virtual_us.size(), result->num_tasks);
    size_t tasks_across_workers = 0;
    Count coalesced_in_caches = 0;
    for (const WorkerSummary& w : result->workers) {
      tasks_across_workers += w.tasks;
      coalesced_in_caches += w.cache.coalesced;
      if (lookahead) {
        EXPECT_LE(w.makespan_virtual_us,
                  w.busy_virtual_us + w.prefetch_comm_us + 1e-6);
      } else {
        EXPECT_EQ(w.prefetch_comm_us, 0.0);
        EXPECT_LE(w.makespan_virtual_us, w.busy_virtual_us + 1e-6);
      }
      EXPECT_GT(w.real_seconds, 0.0);
      EXPECT_LE(w.real_seconds, result->real_seconds + 1e-6);
    }
    EXPECT_EQ(tasks_across_workers, result->num_tasks);
    // The executors' view of coalescing agrees with the caches'.
    EXPECT_EQ(coalesced_in_caches, result->coalesced_fetches);
    EXPECT_GT(result->virtual_seconds, 0.0);
    EXPECT_GE(result->runtime_threads, 1);
    EXPECT_GE(result->execution_threads, 1);
  }
}

TEST(ClusterTest, RealExecutionThreadsPreserveCounts) {
  // Multithreaded in-worker execution (threads share the worker's DB
  // cache) must produce identical totals to serial execution.
  auto raw = GenerateBarabasiAlbert(200, 5, 61);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q4")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data),
                               {.optimize = true, .apply_vcbc = true});
  ASSERT_TRUE(plan.ok());
  Count serial_matches = 0;
  for (int threads : {1, 2, 4}) {
    ClusterConfig config = SmallCluster();
    config.execution_threads = threads;
    // Keep real threads even on single-core CI machines so the counts
    // are genuinely produced under preemptive interleaving.
    config.allow_thread_oversubscription = true;
    config.task_split_threshold = 12;
    ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan->plan);
    ASSERT_TRUE(result.ok()) << threads;
    EXPECT_EQ(result->execution_threads, threads);
    if (threads == 1) {
      serial_matches = result->total_matches;
    } else {
      EXPECT_EQ(result->total_matches, serial_matches) << threads;
    }
    EXPECT_EQ(result->adjacency_requests, result->cache_hits +
                                              result->db_queries +
                                              result->coalesced_fetches);
    EXPECT_EQ(result->task_virtual_us.size(), result->num_tasks);
  }
}

TEST(ClusterTest, ExecutionThreadsClampedToHardware) {
  auto raw = GenerateBarabasiAlbert(80, 4, 3);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  ClusterConfig config = SmallCluster();
  config.execution_threads = 4096;  // absurd oversubscription
  ClusterSimulator cluster(data, config);
  auto result = cluster.Run(plan->plan);
  ASSERT_TRUE(result.ok());
  if (hw > 0) {
    EXPECT_LE(result->execution_threads, hw);
  } else {
    EXPECT_EQ(result->execution_threads, 4096);  // unknown: not clamped
  }

  // The escape hatch preserves the configured count.
  config.allow_thread_oversubscription = true;
  config.execution_threads = 3;
  ClusterSimulator unclamped(data, config);
  auto result2 = unclamped.Run(plan->plan);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->execution_threads, 3);
  EXPECT_EQ(result2->total_matches, result->total_matches);
}

TEST(ClusterTest, ThreadInterleavingDoesNotChangeCounts) {
  // Two runs of the same plan with 4 oversubscribed execution threads
  // (plus a sequential reference) must agree on every logical count:
  // totals may not depend on which thread claimed which task.
  auto raw = GenerateBarabasiAlbert(180, 5, 91);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q4")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data),
                               {.optimize = true, .apply_vcbc = true});
  ASSERT_TRUE(plan.ok());
  ClusterConfig config = SmallCluster();
  config.execution_threads = 4;
  config.allow_thread_oversubscription = true;
  config.task_split_threshold = 10;

  ClusterConfig sequential = config;
  sequential.execution_threads = 1;
  sequential.max_runtime_threads = 1;
  ClusterSimulator reference(data, sequential);
  auto expected = reference.Run(plan->plan);
  ASSERT_TRUE(expected.ok());

  for (int run = 0; run < 2; ++run) {
    ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan->plan);
    ASSERT_TRUE(result.ok()) << run;
    EXPECT_EQ(result->total_matches, expected->total_matches) << run;
    EXPECT_EQ(result->total_codes, expected->total_codes) << run;
    EXPECT_EQ(result->code_units, expected->code_units) << run;
    EXPECT_EQ(result->num_tasks, expected->num_tasks) << run;
  }
}

TEST(ClusterTest, MakespanBoundsHold) {
  // List scheduling guarantees: max-task ≤ makespan ≤ busy, and
  // makespan ≥ busy / threads — over the per-miss baseline, whose
  // fetches all sit inside the task times.
  auto raw = GenerateBarabasiAlbert(150, 5, 42);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q4")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());
  ClusterConfig config = SmallCluster();
  config.threads_per_worker = 3;
  config.prefetch_budget = 0;
  ClusterSimulator cluster(data, config);
  auto result = cluster.Run(plan->plan);
  ASSERT_TRUE(result.ok());
  double max_task = 0;
  for (double t : result->task_virtual_us) max_task = std::max(max_task, t);
  for (const WorkerSummary& w : result->workers) {
    EXPECT_LE(w.makespan_virtual_us, w.busy_virtual_us + 1e-6);
    EXPECT_GE(w.makespan_virtual_us + 1e-6,
              w.busy_virtual_us / config.threads_per_worker);
  }
  EXPECT_GE(result->virtual_seconds * 1e6 + 1e-6, max_task);

  // The default lookahead serializes its worker-level prefetch
  // communication after the list-scheduled tasks: the same bounds,
  // shifted by exactly that communication.
  ClusterConfig lookahead = config;
  lookahead.prefetch_budget = ClusterConfig{}.prefetch_budget;
  ClusterSimulator lookahead_cluster(data, lookahead);
  auto lookahead_result = lookahead_cluster.Run(plan->plan);
  ASSERT_TRUE(lookahead_result.ok());
  EXPECT_EQ(lookahead_result->total_matches, result->total_matches);
  EXPECT_GT(lookahead_result->prefetch_comm_seconds, 0.0);
  for (const WorkerSummary& w : lookahead_result->workers) {
    EXPECT_LE(w.makespan_virtual_us - w.prefetch_comm_us,
              w.busy_virtual_us + 1e-6);
    EXPECT_GE(w.makespan_virtual_us - w.prefetch_comm_us + 1e-6,
              w.busy_virtual_us / lookahead.threads_per_worker);
  }
}

TEST(ClusterTest, VirtualTimeGrowsWithQueryLatency) {
  auto raw = GenerateBarabasiAlbert(120, 4, 52);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());
  ClusterConfig slow = SmallCluster();
  slow.db_cache_bytes = 0;
  slow.db_query_latency_us = 10000.0;
  ClusterConfig fast = slow;
  fast.db_query_latency_us = 0.0;
  fast.network_bytes_per_us = 1e12;
  ClusterSimulator a(data, slow);
  ClusterSimulator b(data, fast);
  auto ra = a.Run(plan->plan);
  auto rb = b.Run(plan->plan);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->total_matches, rb->total_matches);
  EXPECT_GT(ra->virtual_seconds, rb->virtual_seconds);
}

TEST(BenuDriverTest, EndToEndCount) {
  auto data = GenerateErdosRenyi(80, 320, 12);
  ASSERT_TRUE(data.ok());
  Graph p = std::move(GetPattern("diamond")).value();
  auto expected = BruteForceCountSubgraphs(*data, p);
  ASSERT_TRUE(expected.ok());
  auto count = CountSubgraphs(*data, p);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, *expected);
}

TEST(BenuDriverTest, CompressedRunMatches) {
  auto data = GenerateBarabasiAlbert(150, 4, 77);
  ASSERT_TRUE(data.ok());
  Graph p = std::move(GetPattern("q7")).value();
  BenuOptions options;
  options.cluster = SmallCluster();
  auto plain = RunBenu(*data, p, options);
  ASSERT_TRUE(plain.ok());
  options.plan.apply_vcbc = true;
  auto compressed = RunBenu(*data, p, options);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(plain->run.total_matches, compressed->run.total_matches);
  // Compression emits fewer codes than matches.
  EXPECT_LE(compressed->run.total_codes, compressed->run.total_matches);
  // And a smaller payload than n entries per match.
  EXPECT_LE(compressed->run.code_units,
            plain->run.total_matches * p.NumVertices());
}

}  // namespace
}  // namespace benu
