// Stress test of the DB cache's task-scoped reclamation: pinned readers
// hold borrowed hits across many lookups while an eviction storm and
// concurrent AdvanceEpoch calls unlink the very entries they borrowed.
// A borrowed set must stay intact for as long as its pin is held (the
// sanitizer builds turn an early free into a hard failure), and every
// retired byte must be freed once the last pin is released.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "storage/db_cache.h"

namespace benu {
namespace {

bool SameSet(const VertexSet& set, VertexSetView expected) {
  return std::equal(set.begin(), set.end(), expected.begin(), expected.end());
}

TEST(DbCacheReclaimTest, BorrowedSetsSurviveEvictionAndEpochStorm) {
  auto g = GenerateBarabasiAlbert(600, 5, 23);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  auto* gauge = metrics::MetricsRegistry::Global().GetGauge(
      "db_cache.retired_bytes", "bytes");
  const double gauge_before = gauge->Value();
  constexpr int kReaders = 4;
  constexpr int kPinsPerReader = 300;
  constexpr int kGetsPerPin = 24;
  {
    DbCache cache(&store, 16 << 10, /*num_shards=*/4);  // constant eviction
    // Cubing a uniform draw skews keys toward the low (hub) ids: the
    // power-law access pattern of a real run.
    auto draw = [&](Rng& rng) {
      const double u = rng.NextDouble();
      return static_cast<VertexId>(
          static_cast<double>(g->NumVertices() - 1) * u * u * u);
    };
    std::atomic<int> readers_left{kReaders};
    std::atomic<int> mismatches{0};
    std::atomic<size_t> max_retired{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(7000 + t);
        DbCache::Reader reader(&cache);
        std::vector<std::pair<VertexId, DbCache::Reply>> held;
        for (int p = 0; p < kPinsPerReader; ++p) {
          reader.Pin();
          held.clear();
          for (int i = 0; i < kGetsPerPin; ++i) {
            const VertexId v = draw(rng);
            held.emplace_back(v, cache.Get(v));
            // Every set borrowed under this pin so far must still be
            // intact, however many of them were evicted or invalidated
            // since.
            for (const auto& [key, reply] : held) {
              if (!SameSet(*reply.value().decoded, g->Adjacency(key))) {
                mismatches.fetch_add(1);
              }
            }
          }
          size_t retired = cache.RetiredBytes();
          size_t seen = max_retired.load();
          while (retired > seen &&
                 !max_retired.compare_exchange_weak(seen, retired)) {
          }
          reader.Unpin();
        }
        readers_left.fetch_sub(1);
      });
    }
    threads.emplace_back([&] {
      // Concurrent invalidation of hot keys; the store never changes, so
      // every refetch must equal the graph's adjacency.
      Rng rng(99);
      std::vector<VertexId> touched(8);
      for (uint64_t epoch = 1; readers_left.load() > 0; ++epoch) {
        for (VertexId& v : touched) v = draw(rng);
        cache.AdvanceEpoch(epoch, touched);
        std::this_thread::yield();
      }
    });
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(mismatches.load(), 0);
    const DbCacheStats stats = cache.stats();
    EXPECT_GT(stats.epoch_invalidations, 0u);
    EXPECT_GT(stats.misses, static_cast<Count>(g->NumVertices()))
        << "no eviction happened";
    EXPECT_GT(max_retired.load(), 0u) << "no pin ever held back a free";
    // All pins are released: nothing may stay retired.
    EXPECT_EQ(cache.RetiredBytes(), 0u);
    EXPECT_DOUBLE_EQ(gauge->Value(), gauge_before);
  }
  EXPECT_DOUBLE_EQ(gauge->Value(), gauge_before);
}

}  // namespace
}  // namespace benu
