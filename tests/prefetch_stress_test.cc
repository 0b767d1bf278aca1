// Stress and lifecycle tests of the DB cache's asynchronous prefetch
// pipeline: single-flight must hold across the Get and PrefetchAsync
// paths (at most one store query per distinct key while it stays
// cached), a Get racing a queued flight must claim it rather than
// deadlock, and teardown mid-flight must publish every flight.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "storage/db_cache.h"

namespace benu {
namespace {

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> keys(g.NumVertices());
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

TEST(PrefetchTest, SyncPrefetchConvertsToHits) {
  // Null fetch pool: PrefetchAsync drains inline, so by the time it
  // returns every key is cached and tagged.
  Graph g = MakeCycle(6);
  DistributedKvStore store(g, 2);
  DbCache cache(&store, 1 << 20, 1);
  const VertexId keys[] = {0, 2, 4};
  cache.PrefetchAsync(keys, 3);
  EXPECT_EQ(store.stats().queries.load(), 3u);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 3u);
  EXPECT_EQ(stats.misses, 0u);  // prefetch fetches belong to no lookup

  bool hit = false;
  EXPECT_EQ(*cache.GetAdjacency(2, &hit), (VertexSet{1, 3}));
  EXPECT_TRUE(hit);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  // The prefetched tag clears on first touch: a second hit is ordinary.
  cache.GetAdjacency(2, &hit);
  EXPECT_EQ(cache.stats().prefetch_hits, 1u);
  // No further store traffic for prefetched keys.
  cache.GetAdjacency(0);
  cache.GetAdjacency(4);
  EXPECT_EQ(store.stats().queries.load(), 3u);
}

TEST(PrefetchTest, AlreadyCachedOrInFlightKeysNotReissued) {
  Graph g = MakeCycle(6);
  DistributedKvStore store(g, 2);
  DbCache cache(&store, 1 << 20, 1);
  cache.GetAdjacency(1);  // cached the ordinary way
  const VertexId keys[] = {1, 1, 3};  // duplicate + cached
  cache.PrefetchAsync(keys, 3);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 1u);  // only key 3
  EXPECT_EQ(store.stats().queries.load(), 2u);
}

TEST(PrefetchTest, AsyncPrefetchThroughPoolConvertsToHits) {
  auto g = GenerateBarabasiAlbert(200, 4, 11);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  ThreadPool fetchers(2);
  DbCache cache(&store, 256u << 20, 8, &fetchers, /*prefetch_batch_size=*/16);
  std::vector<VertexId> keys = AllVertices(*g);
  cache.PrefetchAsync(keys.data(), keys.size());
  cache.WaitForPrefetches();
  EXPECT_EQ(store.stats().queries.load(), g->NumVertices());
  EXPECT_GT(store.stats().batch_gets.load(), 0u);

  bool hit = false;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    auto set = cache.GetAdjacency(v, &hit);
    EXPECT_TRUE(hit) << "key " << v;
    EXPECT_EQ(set->size(), g->Adjacency(v).size);
  }
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_hits, g->NumVertices());
  EXPECT_EQ(stats.misses, 0u);
  // No store query beyond the one batched fetch per distinct key.
  EXPECT_EQ(store.stats().queries.load(), g->NumVertices());
}

TEST(PrefetchTest, GetClaimsQueuedFlightWhenFetchersAreBusy) {
  // Block the only fetcher thread so the queued flight stays queued,
  // then Get the key: the Get must claim the flight and fetch
  // synchronously instead of waiting for a fetcher that cannot run.
  Graph g = MakeStar(5);
  DistributedKvStore store(g, 1);
  ThreadPool fetchers(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  fetchers.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  DbCache cache(&store, 1 << 20, 1, &fetchers);
  const VertexId key = 3;
  cache.PrefetchAsync(&key, 1);
  bool hit = true;
  auto set = cache.GetAdjacency(key, &hit);  // must not deadlock
  EXPECT_FALSE(hit);
  EXPECT_EQ(*set, (VertexSet{0}));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  cache.WaitForPrefetches();
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_claimed, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // The claim transferred the fetch: exactly one store query, whether the
  // late fetcher observed the claim before or after batch assembly.
  EXPECT_EQ(store.stats().queries.load(), 1u);
}

TEST(PrefetchTest, OneStoreQueryPerDistinctKeyUnderConcurrentRace) {
  // Threads racing PrefetchAsync and Get over the same key space, with a
  // capacity that never evicts: the store must see exactly one query per
  // distinct key — the single-flight guarantee across both paths.
  auto g = GenerateBarabasiAlbert(400, 4, 29);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  ThreadPool fetchers(2);
  DbCache cache(&store, 256u << 20, 8, &fetchers, /*prefetch_batch_size=*/8);
  constexpr int kThreads = 8;
  std::vector<VertexId> keys = AllVertices(*g);
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&, t] {
        Rng rng(5000 + t);
        for (int i = 0; i < 2000; ++i) {
          const auto v = static_cast<VertexId>(
              rng.NextBounded(g->NumVertices()));
          if (t % 2 == 0 && i % 4 == 0) {
            const size_t count =
                std::min<size_t>(16, g->NumVertices() - v);
            cache.PrefetchAsync(keys.data() + v, count);
          } else {
            auto set = cache.GetAdjacency(v);
            EXPECT_EQ(set->size(), g->Adjacency(v).size);
          }
        }
      });
    }
    pool.Wait();
  }
  cache.WaitForPrefetches();
  EXPECT_LE(store.stats().queries.load(), g->NumVertices());
  DbCacheStats stats = cache.stats();
  // Store queries = primary misses + prefetch fetches that were not
  // claimed by a Get (claimed ones are counted inside misses).
  EXPECT_EQ(store.stats().queries.load(),
            stats.misses + stats.prefetches_issued - stats.prefetch_claimed);
}

TEST(PrefetchTest, DestructionMidFlightDoesNotDeadlockOrLeak) {
  // Tear the cache down right after enqueueing a large prefetch: the
  // destructor must wait out running fetcher jobs, drain what they left,
  // and publish every flight. Run several rounds to vary the interleaving.
  auto g = GenerateBarabasiAlbert(300, 4, 31);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  std::vector<VertexId> keys = AllVertices(*g);
  for (int round = 0; round < 10; ++round) {
    ThreadPool fetchers(2);
    const Count before = store.stats().queries.load();
    {
      DbCache cache(&store, 256u << 20, 8, &fetchers,
                    /*prefetch_batch_size=*/4);
      cache.PrefetchAsync(keys.data(), keys.size());
      // Destructor runs here, mid-flight.
    }
    // Every enqueued key was fetched exactly once, by a fetcher job or by
    // the destructor's inline drain.
    EXPECT_EQ(store.stats().queries.load() - before, g->NumVertices());
  }
}

TEST(PrefetchTest, ZeroCapacityPrefetchesAreWastedNotRetained) {
  Graph g = MakeCycle(8);
  DistributedKvStore store(g, 2);
  DbCache cache(&store, 0, 1);  // inline drain (null pool), never retains
  const VertexId keys[] = {0, 1, 2, 3};
  cache.PrefetchAsync(keys, 4);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 4u);
  EXPECT_EQ(stats.prefetch_wasted, 4u);  // nothing could be retained
  bool hit = true;
  cache.GetAdjacency(0, &hit);
  EXPECT_FALSE(hit);  // and nothing converts to a hit
}

TEST(PrefetchTest, EvictedUnusedPrefetchCountsAsWasted) {
  Graph g = MakeCycle(8);  // uniform entries: 2 ids + overhead each
  DistributedKvStore store(g, 1);
  const size_t entry_bytes = 2 * sizeof(VertexId) + 32;
  DbCache cache(&store, 2 * entry_bytes, 1);
  const VertexId keys[] = {0, 1};
  cache.PrefetchAsync(keys, 2);
  bool hit = false;
  cache.GetAdjacency(0, &hit);  // converts 0 and sets its reference bit
  EXPECT_TRUE(hit);
  // CLOCK gives 0 its second chance and evicts 1, which never served a
  // hit.
  cache.GetAdjacency(4, &hit);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 1u);
}

}  // namespace
}  // namespace benu
