#include "common/metrics.h"

#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "storage/transport.h"

namespace benu {
namespace {

using metrics::MetricsRegistry;
using metrics::MetricsSnapshot;
using metrics::SnapshotEntry;

// Restores the global tracing flag on scope exit so tests compose.
class ScopedTracing {
 public:
  explicit ScopedTracing(bool enabled) : prev_(metrics::TracingEnabled()) {
    metrics::SetTracingEnabled(enabled);
  }
  ~ScopedTracing() { metrics::SetTracingEnabled(prev_); }

 private:
  bool prev_;
};

const SnapshotEntry* Find(const MetricsSnapshot& snapshot,
                          const std::string& name) {
  for (const SnapshotEntry& entry : snapshot.entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  const SnapshotEntry* entry = Find(snapshot, name);
  return entry == nullptr ? 0 : entry->counter_value;
}

TEST(CounterTest, ConcurrentHammerIsExact) {
  metrics::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(HistogramTest, ConcurrentHammerIsExact) {
  metrics::Histogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kSamplesPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kSamplesPerThread; ++i) {
        hist.Record((i + static_cast<uint64_t>(t)) % 1024);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Count(), kThreads * kSamplesPerThread);
  uint64_t bucket_total = 0;
  uint64_t expected_sum = 0;
  for (size_t b = 0; b < metrics::Histogram::kNumBuckets; ++b) {
    bucket_total += hist.BucketCount(b);
  }
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kSamplesPerThread; ++i) {
      expected_sum += (i + static_cast<uint64_t>(t)) % 1024;
    }
  }
  EXPECT_EQ(bucket_total, hist.Count());
  EXPECT_EQ(hist.Sum(), expected_sum);
}

TEST(HistogramTest, LogBucketing) {
  using metrics::Histogram;
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
}

TEST(GaugeTest, SetAndAdd) {
  metrics::Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 4.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(RegistryTest, SameNameSameInstrument) {
  auto& registry = MetricsRegistry::Global();
  metrics::Counter* a = registry.GetCounter("test.registry.same", "1");
  metrics::Counter* b = registry.GetCounter("test.registry.same", "1");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.sort.b", "1");
  registry.GetCounter("test.sort.a", "1");
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.entries.size(); ++i) {
    EXPECT_LT(snapshot.entries[i - 1].name, snapshot.entries[i].name);
  }
}

BenuOptions SingleThreadedOptions() {
  BenuOptions options;
  options.cluster.num_workers = 2;
  options.cluster.threads_per_worker = 2;
  options.cluster.execution_threads = 1;
  options.cluster.max_runtime_threads = 1;
  options.cluster.db_cache_bytes = 4u << 20;
  options.cluster.task_split_threshold = 100;
  options.cluster.prefetch_budget = 16;
  options.plan.apply_vcbc = true;
  return options;
}

// With tracing disabled, a snapshot is a pure function of the work
// performed — no wall-clock-derived instrument is written — so two
// identical single-threaded runs must serialize to byte-identical JSON.
TEST(MetricsIntegrationTest, SnapshotJsonIsDeterministic) {
  ScopedTracing tracing(false);
  Graph data = std::move(GenerateErdosRenyi(300, 2400, /*seed=*/11)).value();
  Graph pattern = std::move(GetPattern("q5")).value();
  const BenuOptions options = SingleThreadedOptions();

  auto run_once = [&] {
    MetricsRegistry::Global().ResetValues();
    auto result = RunBenu(data, pattern, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return MetricsRegistry::Global().Snapshot().ToJson();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
}

// The legacy ClusterRunResult fields and their registry counterparts are
// produced by independent accumulation paths; after a single run from a
// zeroed registry they must agree exactly.
TEST(MetricsIntegrationTest, ClusterRunResultMatchesRegistry) {
  ScopedTracing tracing(false);
  MetricsRegistry::Global().ResetValues();
  Graph data = std::move(GenerateErdosRenyi(400, 3200, /*seed=*/5)).value();
  Graph pattern = std::move(GetPattern("q5")).value();
  auto result = RunBenu(data, pattern, SingleThreadedOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ClusterRunResult& run = result->run;

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "cluster.runs"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "cluster.tasks"), run.num_tasks);
  EXPECT_EQ(CounterValue(snapshot, "cluster.matches"), run.total_matches);
  EXPECT_EQ(CounterValue(snapshot, "cluster.codes"), run.total_codes);
  EXPECT_EQ(CounterValue(snapshot, "cluster.code_units"), run.code_units);
  EXPECT_EQ(CounterValue(snapshot, "cluster.db_queries"), run.db_queries);
  EXPECT_EQ(CounterValue(snapshot, "cluster.bytes_fetched"),
            run.bytes_fetched);
  EXPECT_EQ(CounterValue(snapshot, "cluster.adjacency_requests"),
            run.adjacency_requests);
  EXPECT_EQ(CounterValue(snapshot, "cluster.cache_hits"), run.cache_hits);
  EXPECT_EQ(CounterValue(snapshot, "cluster.coalesced_fetches"),
            run.coalesced_fetches);
  EXPECT_EQ(CounterValue(snapshot, "cluster.steals"), run.steals);
  EXPECT_EQ(CounterValue(snapshot, "cluster.prefetches_issued"),
            run.prefetches_issued);
  EXPECT_EQ(CounterValue(snapshot, "cluster.prefetch_hits"),
            run.prefetch_hits);
  EXPECT_EQ(CounterValue(snapshot, "cluster.prefetch_wasted"),
            run.prefetch_wasted);
  EXPECT_EQ(CounterValue(snapshot, "cluster.prefetch_round_trips"),
            run.prefetch_round_trips);
  EXPECT_EQ(CounterValue(snapshot, "cluster.prefetch_bytes"),
            run.prefetch_bytes);

  // The per-worker DB caches publish the same events the task stats
  // classify, just from the cache side of the interface.
  EXPECT_EQ(CounterValue(snapshot, "db_cache.hits"), run.cache_hits);
  EXPECT_EQ(CounterValue(snapshot, "db_cache.coalesced"),
            run.coalesced_fetches);
  // Every synchronous task query is a cache miss; the store additionally
  // saw the prefetch pipeline's batched queries.
  EXPECT_EQ(CounterValue(snapshot, "db_cache.misses"), run.db_queries);
  EXPECT_EQ(CounterValue(snapshot, "kv_store.round_trips"),
            run.db_queries + run.prefetch_round_trips);
  EXPECT_EQ(CounterValue(snapshot, "kv_store.bytes_fetched"),
            run.bytes_fetched + run.prefetch_bytes);
}

// Registry updates from many threads hammering the same instruments
// through real subsystems (thread pool + scheduler): totals stay exact.
// This test runs under TSan in CI.
TEST(MetricsIntegrationTest, ConcurrentSubsystemPublishing) {
  MetricsRegistry::Global().ResetValues();
  constexpr size_t kTasks = 2000;
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([] {
        MetricsRegistry::Global()
            .GetCounter("test.concurrent.bumps", "1")
            ->Add(1);
      });
    }
    pool.Wait();
  }
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "test.concurrent.bumps"), kTasks);
  EXPECT_EQ(CounterValue(snapshot, "thread_pool.tasks_executed"), kTasks);
  EXPECT_EQ(CounterValue(snapshot, "thread_pool.threads_spawned"), 4u);
}

// The same workload over the simulated and the loopback backend must
// produce identical per-backend transport counters: the loopback path
// round-trips every request through the wire protocol, and its frame
// header is by construction the simulated model's per-reply overhead,
// so fetches / batch_gets / round_trips / bytes all line up exactly.
TEST(MetricsIntegrationTest, TransportBackendCountersAgree) {
  ScopedTracing tracing(false);
  Graph data = std::move(GenerateErdosRenyi(300, 2400, /*seed=*/17))
                   .value()
                   .RelabelByDegree();
  Graph pattern = std::move(GetPattern("q5")).value();
  BenuOptions options = SingleThreadedOptions();
  options.relabel_by_degree = false;  // ids fixed: share one graph
  options.cluster.db_partitions = 4;

  auto run_with = [&](std::shared_ptr<Transport> transport) {
    MetricsRegistry::Global().ResetValues();
    options.cluster.transport = std::move(transport);
    auto result = RunBenu(data, pattern, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return MetricsRegistry::Global().Snapshot();
  };
  const MetricsSnapshot sim = run_with(nullptr);
  const MetricsSnapshot loopback = run_with(MakeLoopbackTransport(data, 4));

  for (const char* leaf : {"fetches", "batch_gets", "round_trips", "bytes"}) {
    const std::string sim_name = std::string("transport.sim.") + leaf;
    const std::string loop_name = std::string("transport.loopback.") + leaf;
    EXPECT_GT(CounterValue(sim, sim_name), 0u) << sim_name;
    EXPECT_EQ(CounterValue(sim, sim_name), CounterValue(loopback, loop_name))
        << leaf;
    // Each run exercised exactly one backend.
    EXPECT_EQ(CounterValue(sim, loop_name), 0u) << loop_name;
    EXPECT_EQ(CounterValue(loopback, sim_name), 0u) << sim_name;
  }
  // The KV-client aggregates sit above the transport and must agree
  // with the backend's own accounting in both runs.
  for (const MetricsSnapshot* snapshot : {&sim, &loopback}) {
    const char* backend = snapshot == &sim ? "sim" : "loopback";
    EXPECT_EQ(CounterValue(*snapshot, "kv_store.round_trips"),
              CounterValue(*snapshot,
                           std::string("transport.") + backend +
                               ".round_trips"));
    EXPECT_EQ(CounterValue(*snapshot, "kv_store.bytes_fetched"),
              CounterValue(*snapshot,
                           std::string("transport.") + backend + ".bytes"));
  }
}

// Every instrument that can appear in a traced end-to-end run (the
// superset of what examples/metrics_dump prints) must be documented in
// docs/metrics.md — the reference table and the code cannot drift apart
// silently.
TEST(MetricsIntegrationTest, DocsListEveryEmittedInstrument) {
  ScopedTracing tracing(true);
  MetricsRegistry::Global().ResetValues();
  Graph data = std::move(GenerateErdosRenyi(300, 2400, /*seed=*/3)).value();
  // clique4 exercises TRC + the triangle cache; q5 covers the rest.
  for (const char* name : {"q5", "clique4"}) {
    Graph pattern = std::move(GetPattern(name)).value();
    // Lookahead + 2 execution threads: batched fetches, steals and the
    // coalesced path all become reachable.
    BenuOptions options = SingleThreadedOptions();
    options.cluster.execution_threads = 2;
    options.cluster.max_runtime_threads = 0;
    auto result = RunBenu(data, pattern, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  std::ifstream docs(std::string(BENU_SOURCE_DIR) + "/docs/metrics.md");
  ASSERT_TRUE(docs.is_open()) << "docs/metrics.md not found";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(docs, line)) {
    // Collect every `backtick-quoted` token; instrument names are always
    // written that way in the reference table.
    size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const size_t end = line.find('`', pos + 1);
      if (end == std::string::npos) break;
      documented.insert(line.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
  }

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const SnapshotEntry& entry : snapshot.entries) {
    if (entry.name.rfind("test.", 0) == 0) continue;  // test-local names
    EXPECT_TRUE(documented.count(entry.name) == 1)
        << "instrument `" << entry.name
        << "` is emitted but not documented in docs/metrics.md";
  }
}

}  // namespace
}  // namespace benu
