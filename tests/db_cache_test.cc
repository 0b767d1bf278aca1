#include "storage/db_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "storage/transport.h"

namespace benu {
namespace {

TEST(DbCacheStatsTest, HitRateCountsCoalescedWaitsAsNonHits) {
  // The one hit-rate convention (header doc): a hit is a lookup served
  // without waiting on any store round trip. A coalesced lookup waited a
  // full (shared) round trip, so it counts in the denominator only.
  DbCacheStats stats;
  stats.hits = 1;
  stats.misses = 1;
  stats.coalesced = 2;
  EXPECT_EQ(stats.Lookups(), 4u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.25);
  EXPECT_DOUBLE_EQ(stats.StallRate(), 0.75);
  EXPECT_DOUBLE_EQ(stats.HitRate() + stats.StallRate(), 1.0);
}

TEST(DbCacheStatsTest, EmptyStatsHaveZeroRates) {
  DbCacheStats stats;
  EXPECT_EQ(stats.Lookups(), 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.StallRate(), 0.0);
}

TEST(DbCacheTest, SecondFetchHits) {
  Graph g = MakeCycle(5);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);
  bool hit = true;
  cache.GetAdjacency(2, &hit);
  EXPECT_FALSE(hit);
  cache.GetAdjacency(2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(store.stats().queries.load(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DbCacheTest, ReturnsCorrectSets) {
  Graph g = MakeStar(4);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 1 << 20);
  EXPECT_EQ(*cache.GetAdjacency(0), (VertexSet{1, 2, 3, 4}));
  EXPECT_EQ(*cache.GetAdjacency(3), (VertexSet{0}));
  // Cached copies stay correct.
  EXPECT_EQ(*cache.GetAdjacency(0), (VertexSet{1, 2, 3, 4}));
}

TEST(DbCacheTest, ZeroCapacityNeverCaches) {
  Graph g = MakeCycle(4);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 0);
  bool hit = true;
  cache.GetAdjacency(1, &hit);
  EXPECT_FALSE(hit);
  cache.GetAdjacency(1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().queries.load(), 2u);
  EXPECT_EQ(cache.SizeBytes(), 0u);
}

TEST(DbCacheTest, ClockGivesReferencedEntriesOneSecondChance) {
  // One shard with room for exactly three entries. The ring is written
  // hand first; * marks a set reference bit. Making room clears set bits
  // (rotating those entries behind the hand) and evicts the first entry
  // whose bit is clear; a new entry joins behind the hand, bit clear.
  Graph g = MakeCycle(8);  // every adjacency has 2 entries
  DistributedKvStore store(g, 1);
  const size_t entry_bytes = 2 * sizeof(VertexId) + 32;
  DbCache cache(&store, 3 * entry_bytes, /*num_shards=*/1);
  struct Step {
    VertexId v;
    bool hit;
    const char* ring_after;
  };
  const Step steps[] = {
      {0, false, "[0]"},
      {1, false, "[0 1]"},
      {2, false, "[0 1 2]"},
      {0, true, "[0* 1 2]"},
      {3, false, "[2 0 3]: 0 spends its second chance, 1 is evicted"},
      {1, false, "[0 3 1]: 2 is evicted"},
      {2, false, "[3 1 2]: 0 is evicted, its chance already spent"},
      {3, true, "[3* 1 2]"},
      {0, false, "[2 3 0]: 3 spends its second chance, 1 is evicted"},
      {3, true, "[2 3* 0]"},
      {2, true, "[2* 3* 0]"},
      {0, true, "[2* 3* 0*]"},
      {1, false, "[3 0 1]: all spend their chance, then 2 is evicted"},
      {3, true, "[3* 0 1]"},
      {0, true, "[3* 0* 1]"},
      {2, false, "[3 0 2]: 3 and 0 spend their chance, 1 is evicted"},
  };
  for (const Step& step : steps) {
    bool hit = !step.hit;
    cache.GetAdjacency(step.v, &hit);
    EXPECT_EQ(hit, step.hit) << "get " << step.v << " -> " << step.ring_after;
  }
  EXPECT_EQ(cache.SizeBytes(), 3 * entry_bytes);
}

TEST(DbCacheTest, CapacityBoundRespected) {
  auto g = GenerateBarabasiAlbert(500, 4, 9);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 1);
  const size_t capacity = 4096;
  DbCache cache(&store, capacity, 4);
  for (VertexId v = 0; v < g->NumVertices(); ++v) cache.GetAdjacency(v);
  EXPECT_LE(cache.SizeBytes(), capacity);
}

TEST(DbCacheTest, OversizedEntryNotRetained) {
  Graph g = MakeStar(100);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 64, 1);  // hub set (400B) exceeds shard capacity
  bool hit = true;
  cache.GetAdjacency(0, &hit);
  EXPECT_FALSE(hit);
  cache.GetAdjacency(0, &hit);
  EXPECT_FALSE(hit);  // still not cached
}

TEST(DbCacheTest, CompressedAndRawStoresChargeTheSameRawBytes) {
  // Compression is wire only: an encoded reply is decoded before it
  // reaches the cache, so a compressed and a raw store fill the same
  // capacity to the same raw charge and serve the same sets. The hub set
  // of a star is delta-1 runs, the case where the wire form is smallest.
  Graph g = MakeStar(512);
  DistributedKvStore raw_store(MakeSimulatedTransport(g, 1, false));
  DistributedKvStore comp_store(MakeSimulatedTransport(g, 1));
  for (size_t capacity : {size_t{1} << 20, size_t{4096}}) {
    DbCache raw_cache(&raw_store, capacity, 1);
    DbCache comp_cache(&comp_store, capacity, 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(*comp_cache.GetAdjacency(v), *raw_cache.GetAdjacency(v))
            << "vertex " << v;
      }
    }
    EXPECT_GT(comp_cache.SizeBytes(), 0u);
    EXPECT_LE(comp_cache.SizeBytes(), capacity);
    EXPECT_EQ(comp_cache.SizeBytes(), raw_cache.SizeBytes())
        << "capacity " << capacity;
    EXPECT_EQ(comp_cache.stats().hits, raw_cache.stats().hits);
    EXPECT_EQ(comp_cache.stats().misses, raw_cache.stats().misses);
  }
  // The hub alone is charged its raw bytes, whatever the wire carried.
  DbCache comp_cache(&comp_store, 1 << 20, 1);
  comp_cache.GetAdjacency(0);
  EXPECT_GE(comp_cache.SizeBytes(), 512 * sizeof(VertexId));
}

TEST(DbCacheTest, ResidentBytesGaugeTracksLiveCaches) {
  auto* gauge = metrics::MetricsRegistry::Global().GetGauge(
      "db_cache.resident_bytes", "bytes");
  const double before = gauge->Value();
  Graph g = MakeCycle(16);
  DistributedKvStore store(g, 1);
  {
    DbCache cache(&store, 1 << 20, 2);
    for (VertexId v = 0; v < 16; ++v) cache.GetAdjacency(v);
    EXPECT_DOUBLE_EQ(gauge->Value() - before,
                     static_cast<double>(cache.SizeBytes()));
  }
  // Destruction un-counts the cache's surviving entries.
  EXPECT_DOUBLE_EQ(gauge->Value(), before);
}

TEST(DbCacheTest, PrefetchAccountingIdentity) {
  // Prefetch is deterministic: every prefetched key lands exactly once
  // in hits / wasted / still-resident,
  // and a prefetched entry's first touch converts to prefetch_hits
  // exactly once — no drift between the issued and settled counts.
  Graph g = MakeCycle(64);
  DistributedKvStore store(g, 4);
  DbCache cache(&store, 1 << 20, 1);
  std::vector<VertexId> keys;
  for (VertexId v = 0; v < 32; ++v) keys.push_back(v);
  cache.Prefetch(keys.data(), keys.size());
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 32u);
  EXPECT_EQ(stats.prefetch_wasted, 0u);

  bool hit = false;
  for (VertexId v = 0; v < 32; ++v) {
    cache.GetAdjacency(v, &hit);
    EXPECT_TRUE(hit) << v;
  }
  stats = cache.stats();
  EXPECT_EQ(stats.prefetch_hits, 32u);
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.misses, 0u);
  // Re-touching a prefetched entry is a plain hit: no double count.
  cache.GetAdjacency(0, &hit);
  EXPECT_EQ(cache.stats().prefetch_hits, 32u);
  // Re-prefetching cached keys issues nothing.
  cache.Prefetch(keys.data(), keys.size());
  EXPECT_EQ(cache.stats().prefetches_issued, 32u);
}

TEST(DbCacheTest, PrefetchOfResidentKeysFetchesNothing) {
  // The lookahead hands every prefetch-hinted ENU's candidates to the
  // cache; on a warm cache they are all resident, and must cost no
  // prefetch, no flight and no store traffic.
  Graph g = MakeCycle(64);
  DistributedKvStore store(g, 4);
  DbCache cache(&store, 1 << 20, 1);
  std::vector<VertexId> keys;
  for (VertexId v = 0; v < 32; ++v) {
    keys.push_back(v);
    cache.GetAdjacency(v);
  }
  const Count queries = store.stats().queries.load();
  const Count batch_gets = store.stats().batch_gets.load();
  cache.Prefetch(keys.data(), keys.size());
  EXPECT_EQ(cache.stats().prefetches_issued, 0u);
  EXPECT_EQ(store.stats().queries.load(), queries);
  EXPECT_EQ(store.stats().batch_gets.load(), batch_gets);

  // One absent key among the resident ones is the only key fetched.
  keys.push_back(40);
  cache.Prefetch(keys.data(), keys.size());
  EXPECT_EQ(cache.stats().prefetches_issued, 1u);
  EXPECT_EQ(store.stats().batch_gets.load(), batch_gets + 1);
  bool hit = false;
  cache.GetAdjacency(40, &hit);
  EXPECT_TRUE(hit);
}

TEST(DbCacheTest, EvictedPrefetchesCountAsWasted) {
  Graph g = MakeCycle(64);  // every adjacency: 2 ids = 8 raw bytes
  DistributedKvStore store(g, 1);
  const size_t entry_bytes = 2 * sizeof(VertexId) + 32;
  DbCache cache(&store, 2 * entry_bytes, 1);  // room for two entries
  std::vector<VertexId> keys;
  for (VertexId v = 0; v < 16; ++v) keys.push_back(v);
  cache.Prefetch(keys.data(), keys.size());
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetches_issued, 16u);
  // At most two prefetched entries can still be resident; every other
  // one was evicted without a hit and must be settled as wasted.
  EXPECT_GE(stats.prefetch_wasted, 14u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
}

TEST(DbCacheTest, ConcurrentAccessIsSafeAndComplete) {
  auto g = GenerateBarabasiAlbert(300, 3, 4);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  DbCache cache(&store, 1 << 20, 8);
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&] {
      for (VertexId v = 0; v < g->NumVertices(); ++v) {
        auto set = cache.GetAdjacency(v);
        VertexSetView expected = g->Adjacency(v);
        if (set->size() != expected.size) mismatches.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(mismatches.load(), 0);
  // Every lookup lands in exactly one stats bucket.
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            4 * g->NumVertices());
}

TEST(DbCacheTest, SingleFlightOneStoreQueryPerDistinctMiss) {
  // With a capacity that never evicts, the store must see exactly one
  // query per distinct key no matter how many threads race on it:
  // whichever thread wins the flight queries, everyone else either
  // coalesces onto the in-flight query or hits the inserted entry.
  auto g = GenerateBarabasiAlbert(400, 4, 17);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  DbCache cache(&store, 256u << 20, 8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (VertexId v = 0; v < g->NumVertices(); ++v) {
          cache.GetAdjacency(v);
        }
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(store.stats().queries.load(), g->NumVertices());
  DbCacheStats stats = cache.stats();
  // Primary misses are the only lookups that reach the store.
  EXPECT_EQ(stats.misses, store.stats().queries.load());
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<Count>(kThreads) * kRounds * g->NumVertices());
}

TEST(DbCacheTest, ConcurrentPowerLawStressRespectsCapacity) {
  // Concurrent hits, misses and evictions on a power-law key
  // distribution; a sampler thread asserts the byte bound throughout
  // (each shard enforces its slice of the capacity under its lock, so
  // the bound holds at every instant, not only at quiescence).
  auto g = GenerateBarabasiAlbert(600, 5, 23);
  ASSERT_TRUE(g.ok());
  DistributedKvStore store(*g, 4);
  const size_t capacity = 16 << 10;  // small: constant eviction pressure
  DbCache cache(&store, capacity, 4);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> bound_violations{0};
  std::atomic<int> mismatches{0};
  std::thread sampler([&] {
    while (!done.load()) {
      if (cache.SizeBytes() > capacity) bound_violations.fetch_add(1);
    }
  });
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&, t] {
        Rng rng(1000 + t);
        for (int i = 0; i < kOpsPerThread; ++i) {
          // Cubing the uniform draw skews the keys toward the low ids,
          // which after RelabelByDegree-style generation are a small hot
          // set — the power-law access pattern of a real run.
          const double u = rng.NextDouble();
          const auto v = static_cast<VertexId>(
              static_cast<double>(g->NumVertices() - 1) * u * u * u);
          auto set = cache.GetAdjacency(v);
          if (set->size() != g->Adjacency(v).size) mismatches.fetch_add(1);
        }
      });
    }
    pool.Wait();
  }
  done.store(true);
  sampler.join();
  EXPECT_EQ(bound_violations.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.SizeBytes(), capacity);
  DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<Count>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.misses, store.stats().queries.load());
  EXPECT_GT(stats.hits, 0u);
  // The aggregated rates obey the documented convention under load:
  // every coalesced wait degrades the hit rate.
  EXPECT_DOUBLE_EQ(stats.HitRate(),
                   static_cast<double>(stats.hits) / stats.Lookups());
  EXPECT_DOUBLE_EQ(stats.HitRate() + stats.StallRate(), 1.0);
}

// --- epoch invalidation ------------------------------------------------

// A store whose fetches can be held at a gate, so a test can interleave
// an epoch advance *inside* an in-flight fetch deterministically. The
// served value versions with `BumpValue` (standing in for the versioned
// store's overlay changing across epochs) and is captured BEFORE the
// gate — exactly a reply formed under the old snapshot arriving late.
class GatedStore : public DistributedKvStore {
 public:
  explicit GatedStore(const Graph& g) : DistributedKvStore(g, 1) {}

  AdjacencyPayload GetAdjacency(VertexId v) const override {
    const auto captured = static_cast<VertexId>(value_.load());
    fetches_started_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !gated_; });
    }
    AdjacencyPayload payload;
    payload.decoded = std::make_shared<VertexSet>(VertexSet{captured});
    payload.wire_bytes = ReplyBytes(1);
    (void)v;
    return payload;
  }

  BatchReply GetAdjacencyBatch(
      std::span<const VertexId> keys) const override {
    BatchReply reply;
    for (VertexId v : keys) reply.values.push_back(GetAdjacency(v));
    reply.round_trips = 1;
    reply.bytes = keys.size() * ReplyBytes(1);
    return reply;
  }

  void Gate() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  void BumpValue() { value_.fetch_add(1); }
  int fetches_started() const { return fetches_started_.load(); }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool gated_ = false;
  std::atomic<int> value_{1};
  mutable std::atomic<int> fetches_started_{0};
};

void SpinUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 50000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(pred());
}

TEST(DbCacheEpochTest, AdvanceEpochInvalidatesTouchedEntriesOnly) {
  Graph g = MakeCycle(6);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);
  for (VertexId v = 0; v < 4; ++v) cache.GetAdjacency(v);
  ASSERT_EQ(cache.stats().misses, 4u);

  const VertexId touched[] = {1, 2};
  cache.AdvanceEpoch(1, touched);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.stats().epoch_invalidations, 2u);

  bool hit = false;
  cache.GetAdjacency(0, &hit);
  EXPECT_TRUE(hit);  // untouched entries stay hot
  cache.GetAdjacency(1, &hit);
  EXPECT_FALSE(hit);  // touched entries were purged precisely
  cache.GetAdjacency(3, &hit);
  EXPECT_TRUE(hit);
}

TEST(DbCacheEpochTest, FetchRacingEpochAdvanceNeverPublishesStale) {
  // A fetch in flight when the epoch advances must not be served: the
  // primary's refetch loop re-queries under the new epoch, so the caller
  // observes the post-advance value even though the first reply (formed
  // under the old snapshot) arrived after the advance.
  Graph g = MakeCycle(4);
  GatedStore store(g);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);

  store.Gate();
  std::shared_ptr<const VertexSet> result;
  std::thread getter([&] { result = cache.GetAdjacency(2); });
  SpinUntil([&] { return store.fetches_started() >= 1; });

  // The gated fetch already captured the old value {1}; change the
  // store and advance the epoch while that reply is still in flight.
  store.BumpValue();
  const VertexId touched[] = {2};
  cache.AdvanceEpoch(1, touched);
  store.Release();
  getter.join();

  // The getter saw the new-epoch value {2}, never the stale {1}.
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result, (VertexSet{2}));
  EXPECT_GE(store.fetches_started(), 2);  // the refetch actually happened
  // And the retained entry is the new-epoch value too, served borrowed.
  DbCache::Reader reader(&cache);
  reader.Pin();
  const DbCache::Reply reply = cache.Get(2);
  ASSERT_EQ(reply.outcome, DbCache::Outcome::kHit);
  ASSERT_NE(reply.borrowed, nullptr);
  EXPECT_EQ(*reply.value().decoded, (VertexSet{2}));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(DbCacheEpochTest, InvalidatedEntryOutlivesThePinThatBorrowedIt) {
  // A pinned reader's borrowed hit stays readable after AdvanceEpoch
  // unlinks the entry; the entry is freed at the reader's unpin.
  Graph g = MakeStar(6);
  DistributedKvStore store(g, 1);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);
  cache.GetAdjacency(0);
  DbCache::Reader reader(&cache);
  reader.Pin();
  const DbCache::Reply reply = cache.Get(0);
  ASSERT_NE(reply.borrowed, nullptr);

  const VertexId touched[] = {0};
  cache.AdvanceEpoch(1, touched);
  EXPECT_EQ(cache.SizeBytes(), 0u);
  EXPECT_GT(cache.RetiredBytes(), 0u);
  EXPECT_EQ(*reply.value().decoded, (VertexSet{1, 2, 3, 4, 5, 6}));

  reader.Unpin();
  EXPECT_EQ(cache.RetiredBytes(), 0u);
}

TEST(DbCacheEpochTest, StalePrefetchCountsAsWastedAndIsDropped) {
  Graph g = MakeCycle(4);
  GatedStore store(g);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);

  store.Gate();
  const VertexId key = 1;
  std::thread prefetcher([&] { cache.Prefetch(&key, 1); });
  SpinUntil([&] { return store.fetches_started() >= 1; });
  store.BumpValue();
  const VertexId touched[] = {1};
  cache.AdvanceEpoch(1, touched);
  store.Release();
  prefetcher.join();
  // The prefetched payload was fetched at epoch 0: it lands as wasted
  // work, not as a cache entry of epoch 1.
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);
  bool hit = true;
  auto set = cache.GetAdjacency(1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*set, (VertexSet{2}));  // fetched fresh at the new epoch
}

TEST(DbCacheTest, GetRacingAnInlinePrefetchCoalescesOnItsFlight) {
  // A Get of a key another thread is prefetching waits on that thread's
  // flight instead of querying the store itself.
  Graph g = MakeCycle(4);
  GatedStore store(g);
  DbCache cache(&store, 1 << 20, /*num_shards=*/1);

  store.Gate();
  const VertexId key = 1;
  std::thread prefetcher([&] { cache.Prefetch(&key, 1); });
  SpinUntil([&] { return store.fetches_started() >= 1; });
  DbCache::Outcome outcome = DbCache::Outcome::kHit;
  VertexSet value;
  std::thread getter([&] {
    DbCache::Reader reader(&cache);
    reader.Pin();
    const DbCache::Reply reply = cache.Get(key);
    outcome = reply.outcome;
    value = *reply.value().decoded;
  });
  SpinUntil([&] { return cache.stats().coalesced >= 1; });
  store.Release();
  prefetcher.join();
  getter.join();

  EXPECT_EQ(outcome, DbCache::Outcome::kCoalesced);
  EXPECT_EQ(value, (VertexSet{1}));
  EXPECT_EQ(store.fetches_started(), 1);
  const DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.prefetches_issued, 1u);
}

}  // namespace
}  // namespace benu
