#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include "graph/patterns.h"

namespace benu {
namespace {

TEST(KvStoreTest, ServesAdjacencySets) {
  Graph g = MakeCycle(5);
  DistributedKvStore store(g, 4);
  auto adj = store.GetAdjacency(0).decoded;
  ASSERT_NE(adj, nullptr);
  EXPECT_EQ(*adj, (VertexSet{1, 4}));
}

TEST(KvStoreTest, CountsQueriesAndBytes) {
  Graph g = MakeStar(3);
  DistributedKvStore store(g, 2);
  store.GetAdjacency(0);  // hub, degree 3
  store.GetAdjacency(1);  // leaf, degree 1
  EXPECT_EQ(store.stats().queries.load(), 2u);
  EXPECT_EQ(store.stats().bytes_fetched.load(),
            DistributedKvStore::ReplyBytes(3) +
                DistributedKvStore::ReplyBytes(1));
}

TEST(KvStoreTest, PartitioningIsStable) {
  Graph g = MakeCycle(8);
  DistributedKvStore store(g, 3);
  EXPECT_EQ(store.num_partitions(), 3u);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_EQ(store.PartitionOf(v), v % 3);
  }
}

TEST(KvStoreTest, ZeroPartitionsClampedToOne) {
  Graph g = MakeCycle(3);
  DistributedKvStore store(g, 0);
  EXPECT_EQ(store.num_partitions(), 1u);
}

TEST(KvStoreDeathTest, OutOfRangeVertexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = MakeCycle(3);
  DistributedKvStore store(g, 1);
  EXPECT_DEATH(store.GetAdjacency(99), "out of range");
}

TEST(KvStoreTest, SingleGetIsOneRoundTrip) {
  Graph g = MakeCycle(4);
  DistributedKvStore store(g, 2);
  store.GetAdjacency(0);
  store.GetAdjacency(1);
  EXPECT_EQ(store.stats().round_trips.load(), 2u);
  EXPECT_EQ(store.stats().batch_gets.load(), 0u);
}

TEST(KvStoreTest, BatchGetMatchesSingleGets) {
  Graph g = MakeStar(5);
  DistributedKvStore store(g, 4);
  const VertexId keys[] = {0, 2, 5};
  auto reply = store.GetAdjacencyBatch(keys);
  ASSERT_EQ(reply.values.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    auto batched = reply.values[i].decoded;
    ASSERT_NE(batched, nullptr);
    EXPECT_EQ(*batched, *store.GetAdjacency(keys[i]).decoded);
  }
}

TEST(KvStoreTest, BatchGetChargesOneRoundTripPerPartition) {
  Graph g = MakeCycle(8);
  DistributedKvStore store(g, 4);  // PartitionOf(v) == v % 4
  // Keys in 2 distinct partitions: {0, 4} -> 0 and {1} -> 1.
  const VertexId keys[] = {0, 4, 1};
  auto reply = store.GetAdjacencyBatch(keys);
  EXPECT_EQ(reply.round_trips, 2u);
  EXPECT_EQ(reply.bytes, 3 * DistributedKvStore::ReplyBytes(2));
  // Stats: key-level queries (the paper's #DBQ) advance by the batch
  // size, round trips by the distinct partitions — bytes are unchanged
  // relative to single gets.
  EXPECT_EQ(store.stats().queries.load(), 3u);
  EXPECT_EQ(store.stats().round_trips.load(), 2u);
  EXPECT_EQ(store.stats().batch_gets.load(), 1u);
  EXPECT_EQ(store.stats().bytes_fetched.load(),
            3 * DistributedKvStore::ReplyBytes(2));
}

TEST(KvStoreTest, EmptyBatchIsFree) {
  Graph g = MakeCycle(3);
  DistributedKvStore store(g, 2);
  auto reply = store.GetAdjacencyBatch({});
  EXPECT_TRUE(reply.values.empty());
  EXPECT_EQ(reply.round_trips, 0u);
  EXPECT_EQ(reply.bytes, 0u);
  EXPECT_EQ(store.stats().queries.load(), 0u);
  EXPECT_EQ(store.stats().round_trips.load(), 0u);
}

TEST(KvStoreTest, StatsReset) {
  Graph g = MakeCycle(3);
  DistributedKvStore store(g, 1);
  store.GetAdjacency(0);
  store.mutable_stats().Reset();
  EXPECT_EQ(store.stats().queries.load(), 0u);
  EXPECT_EQ(store.stats().bytes_fetched.load(), 0u);
}

}  // namespace
}  // namespace benu
