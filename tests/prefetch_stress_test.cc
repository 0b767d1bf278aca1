// Stress and lifecycle tests of the DB cache's batched lookahead:
// single-flight must hold across the Get and Prefetch paths (at most one
// store query per distinct key while it stays cached), and every
// prefetched key must settle as a hit, a waste or a resident entry.

#include <gtest/gtest.h>

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
  // Prefetch fetches on the calling thread, so by the time it returns
  // every key is cached and tagged.
  Graph g = MakeCycle(6);
  DistributedKvStore store(g, 2);
  DbCache cache(&store, 1 << 20, 1);
  const VertexId keys[] = {0, 2, 4};
  cache.Prefetch(keys, 3);
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
  cache.Prefetch(keys, 3);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 1u);  // only key 3
  EXPECT_EQ(store.stats().queries.load(), 2u);
}

TEST(PrefetchTest, OneStoreQueryPerDistinctKeyUnderConcurrentRace) {
  // Threads racing Prefetch and Get over the same key space, with a
  // capacity that never evicts: the store must see exactly one query per
  // distinct key — the single-flight guarantee across both paths.
  auto g = GenerateBarabasiAlbert(400, 4, 29);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  DbCache cache(&store, 256u << 20, 8, /*prefetch_batch_size=*/8);
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
            cache.Prefetch(keys.data() + v, count);
          } else {
            auto set = cache.GetAdjacency(v);
            EXPECT_EQ(set->size(), g->Adjacency(v).size);
          }
        }
      });
    }
    pool.Wait();
  }
  EXPECT_LE(store.stats().queries.load(), g->NumVertices());
  DbCacheStats stats = cache.stats();
  // Every store query is either a primary miss or a prefetched key.
  EXPECT_EQ(store.stats().queries.load(),
            stats.misses + stats.prefetches_issued);
}

TEST(PrefetchTest, ZeroCapacityPrefetchesAreWastedNotRetained) {
  Graph g = MakeCycle(8);
  DistributedKvStore store(g, 2);
  DbCache cache(&store, 0, 1);  // never retains
  const VertexId keys[] = {0, 1, 2, 3};
  cache.Prefetch(keys, 4);
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
  cache.Prefetch(keys, 2);
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
