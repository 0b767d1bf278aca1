#include "core/executor.h"

#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "plan/optimizer.h"
#include "plan/plan_generator.h"
#include "plan/plan_search.h"
#include "plan/symmetry_breaking.h"
#include "plan/vcbc.h"

namespace benu {
namespace {

std::vector<VertexId> Identity(size_t n) {
  std::vector<VertexId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<VertexId>(i);
  return order;
}

// Runs `plan` over every start vertex with the direct provider and
// returns the total expanded match count.
Count RunAllTasks(const ExecutionPlan& plan, const Graph& data) {
  DirectAdjacencyProvider provider(&data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan, &provider, &tcache);
  EXPECT_TRUE(executor.ok()) << executor.status().ToString();
  CountingConsumer consumer(plan);
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
  }
  return consumer.matches();
}

TEST(ExecutorTest, TriangleOnDemoGraph) {
  // Fig. 1b's data graph has a known shape; use a simple one instead:
  // K4 contains 4 triangles.
  Graph data = MakeClique(4);
  Graph triangle = MakeClique(3);
  auto cs = ComputeSymmetryBreakingConstraints(triangle);
  auto plan = GenerateRawPlan(triangle, Identity(3), cs);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(RunAllTasks(*plan, data), 4u);
}

TEST(ExecutorTest, SquareOnCycleGraph) {
  // C8 contains no 4-cycles; C4 contains exactly one.
  Graph square = MakeCycle(4);
  auto cs = ComputeSymmetryBreakingConstraints(square);
  auto plan = GenerateRawPlan(square, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(RunAllTasks(*plan, MakeCycle(8)), 0u);
  EXPECT_EQ(RunAllTasks(*plan, MakeCycle(4)), 1u);
}

TEST(ExecutorTest, RawPlanMatchesBruteForceOnRandomGraphs) {
  auto data = GenerateErdosRenyi(60, 240, 17);
  ASSERT_TRUE(data.ok());
  for (const std::string name :
       {"triangle", "square", "diamond", "clique4", "q1", "q3", "q5"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto plan = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(plan.ok()) << name;
    auto expected = BruteForceCount(*data, p, cs);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(RunAllTasks(*plan, *data), *expected) << name;
  }
}

TEST(ExecutorTest, OptimizedPlanMatchesRawPlan) {
  auto data = GenerateBarabasiAlbert(150, 4, 23);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string& name : AllPatternNames()) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto raw = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(raw.ok()) << name;
    ExecutionPlan optimized = *raw;
    OptimizePlan(&optimized);
    EXPECT_EQ(RunAllTasks(*raw, relabeled), RunAllTasks(optimized, relabeled))
        << name;
  }
}

TEST(ExecutorTest, CompressedPlanCountsMatchUncompressed) {
  auto data = GenerateBarabasiAlbert(120, 4, 31);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string& name : AllPatternNames()) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto plan = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(plan.ok()) << name;
    OptimizePlan(&plan.value());
    Count uncompressed = RunAllTasks(*plan, relabeled);
    ExecutionPlan compressed = *plan;
    ASSERT_TRUE(ApplyVcbcCompression(&compressed).ok()) << name;
    EXPECT_EQ(RunAllTasks(compressed, relabeled), uncompressed) << name;
  }
}

TEST(ExecutorTest, BestPlanMatchesBruteForce) {
  auto data = GenerateErdosRenyi(70, 350, 5);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string name : {"q2", "q4", "q6", "q7", "q8", "q9"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(relabeled));
    ASSERT_TRUE(result.ok()) << name;
    auto expected = BruteForceCountSubgraphs(relabeled, p);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(RunAllTasks(result->plan, relabeled), *expected) << name;
  }
}

TEST(ExecutorTest, CollectingConsumerProducesValidSubgraphMatches) {
  auto data = GenerateErdosRenyi(30, 90, 3);
  ASSERT_TRUE(data.ok());
  Graph p = std::move(GetPattern("diamond")).value();
  auto cs = ComputeSymmetryBreakingConstraints(p);
  auto plan = GenerateRawPlan(p, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());

  DirectAdjacencyProvider provider(&*data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan.value(), &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CollectingConsumer consumer(*plan);
  for (VertexId v = 0; v < data->NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
  }
  auto expected = BruteForceEnumerate(*data, p, cs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(consumer.Sorted(), *expected);
  // Every reported match is an edge-preserving injective mapping.
  for (const auto& f : consumer.matches()) {
    for (const auto& [u, v] : p.Edges()) {
      EXPECT_TRUE(data->HasEdge(f[u], f[v]));
    }
  }
}

TEST(ExecutorTest, SubtaskSlicesPartitionTheWork) {
  auto data = GenerateBarabasiAlbert(200, 5, 7);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(relabeled));
  ASSERT_TRUE(result.ok());

  DirectAdjacencyProvider provider(&relabeled);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  // Whole tasks vs 4-way split tasks must agree.
  CountingConsumer whole(result->plan);
  CountingConsumer split(result->plan);
  for (VertexId v = 0; v < relabeled.NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &whole);
    for (uint32_t s = 0; s < 4; ++s) {
      (*executor)->RunTask(SearchTask{v, s, 4}, &split);
    }
  }
  EXPECT_EQ(whole.matches(), split.matches());
}

TEST(ExecutorTest, CachedProviderReportsHitsAndQueries) {
  Graph data = MakeClique(6).RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(result.ok());

  DistributedKvStore store(data, 2);
  DbCache cache(&store, 1 << 20);
  CachedAdjacencyProvider provider(&cache, data.NumVertices());
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(result->plan);
  TaskStats totals;
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    totals.Accumulate((*executor)->RunTask(SearchTask{v, 0, 1}, &consumer));
  }
  EXPECT_EQ(consumer.matches(), 20u);  // C(6,3) triangles in K6
  EXPECT_EQ(totals.adjacency_requests, totals.cache_hits + totals.db_queries);
  EXPECT_GT(totals.cache_hits, 0u);
  EXPECT_LE(totals.db_queries, data.NumVertices());
  EXPECT_EQ(store.stats().queries.load(), totals.db_queries);
}

TEST(ExecutorTest, DirectProviderIsZeroCopy) {
  // The direct provider must not duplicate the graph: fetched views alias
  // the graph's CSR storage, and no owning pointer is handed out.
  Graph data = MakeClique(6);
  DirectAdjacencyProvider provider(&data);
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    AdjacencyProvider::Fetch fetch = provider.GetAdjacency(v);
    const VertexSetView direct = data.Adjacency(v);
    EXPECT_EQ(fetch.view.data, direct.data) << "copied adjacency of " << v;
    EXPECT_EQ(fetch.view.size, direct.size);
    EXPECT_EQ(fetch.set, nullptr);
    EXPECT_TRUE(fetch.cache_hit);
    EXPECT_EQ(fetch.bytes, 0u);
  }
}

TEST(ExecutorTest, CachedProviderOwnsMissesAndBorrowsHits) {
  Graph data = MakeClique(5);
  DistributedKvStore store(data, 4);
  DbCache cache(&store, 1u << 20);
  CachedAdjacencyProvider provider(&cache, data.NumVertices());
  auto reader = provider.NewReader();
  ASSERT_NE(reader, nullptr);
  reader->Pin();
  // The miss hands over an owned payload that the view aliases.
  AdjacencyProvider::Fetch miss = provider.GetAdjacency(2);
  ASSERT_FALSE(miss.cache_hit);
  ASSERT_NE(miss.set, nullptr);
  EXPECT_EQ(miss.view.data, miss.set->data());
  EXPECT_EQ(miss.view.size, miss.set->size());
  // The hit borrows the cache entry: no owner, same storage.
  AdjacencyProvider::Fetch hit = provider.GetAdjacency(2);
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.set, nullptr);
  EXPECT_EQ(hit.view.data, miss.set->data());
  EXPECT_EQ(hit.view.size, miss.set->size());
  reader->Unpin();
}

TEST(ExecutorTest, CreateRejectsTrcWithoutCache) {
  Graph p = MakeClique(4);
  auto cs = ComputeSymmetryBreakingConstraints(p);
  auto plan = GenerateRawPlan(p, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());
  Graph data = MakeClique(5);
  DirectAdjacencyProvider provider(&data);
  auto executor = PlanExecutor::Create(&plan.value(), &provider, nullptr);
  EXPECT_FALSE(executor.ok());
}

}  // namespace
}  // namespace benu
