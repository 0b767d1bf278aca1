#include "storage/transport.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/wire.h"
#include "graph/adj_codec.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "storage/kv_server.h"
#include "storage/kv_store.h"
#include "storage/kv_tcp_server.h"
#include "storage/socket_io.h"
#include "storage/tcp_transport.h"

namespace benu {
namespace {

// --- wire protocol ----------------------------------------------------

TEST(WireTest, HeaderMatchesModeledReplyOverhead) {
  // The whole byte-equivalence story of the transport layer hangs on
  // this: a real adjacency reply frame weighs exactly what the simulator
  // has always charged per reply.
  EXPECT_EQ(wire::kHeaderBytes, DistributedKvStore::kReplyOverheadBytes);
  EXPECT_EQ(wire::AdjacencyReplyBytes(7),
            DistributedKvStore::ReplyBytes(7));
}

TEST(WireTest, AdjacencyReplyRoundTrips) {
  VertexSet adjacency{3, 5, 8, 1000000};
  std::vector<uint8_t> buffer;
  wire::AppendAdjacencyReply(42, VertexSetView(adjacency), &buffer);
  EXPECT_EQ(buffer.size(), wire::AdjacencyReplyBytes(adjacency.size()));

  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->frame_bytes, buffer.size());
  VertexId key = kInvalidVertex;
  VertexSet decoded;
  auto st = wire::DecodeAdjacencyReply(*frame, &key, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(key, 42u);
  EXPECT_EQ(decoded, adjacency);
}

TEST(WireTest, RequestsRoundTrip) {
  std::vector<uint8_t> buffer;
  wire::AppendGetRequest(17, &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto key = wire::DecodeGetRequest(*frame);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, 17u);

  buffer.clear();
  const VertexId keys[] = {4, 9, 2};
  wire::AppendBatchGetRequest(keys, &buffer);
  frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto decoded = wire::DecodeBatchGetRequest(*frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (std::vector<VertexId>{4, 9, 2}));
}

TEST(WireTest, HelloAndStatsRoundTrip) {
  std::vector<uint8_t> buffer;
  wire::HelloInfo info{100, 8, 2, 1};
  wire::AppendHelloReply(info, &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto hello = wire::DecodeHelloReply(*frame);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->num_vertices, 100u);
  EXPECT_EQ(hello->num_partitions, 8u);
  EXPECT_EQ(hello->num_servers, 2u);
  EXPECT_EQ(hello->server_index, 1u);

  buffer.clear();
  wire::AppendStatsReply({7, 11, 13}, &buffer);
  frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto stats = wire::DecodeStatsReply(*frame);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 7u);
  EXPECT_EQ(stats->keys_served, 11u);
  EXPECT_EQ(stats->bytes_sent, 13u);
}

TEST(WireTest, ErrorFrameCarriesStatus) {
  std::vector<uint8_t> buffer;
  wire::AppendError(StatusCode::kOutOfRange, "key 99 not here", &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  const Status st = wire::DecodeError(*frame);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(st.message(), "key 99 not here");
  // Typed decoders convert an unexpected kError frame into its Status.
  VertexId key;
  VertexSet out;
  EXPECT_EQ(wire::DecodeAdjacencyReply(*frame, &key, &out).code(),
            StatusCode::kOutOfRange);

  // An error frame whose code is not an error never decodes as OK — a
  // typed decoder forwarding it would otherwise report success with no
  // value.
  for (uint32_t code : {0u, 10u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> bogus;
    wire::AppendHeader(wire::MessageType::kError, code, 0, &bogus);
    auto bogus_frame = wire::DecodeFrame(bogus);
    ASSERT_TRUE(bogus_frame.ok());
    EXPECT_EQ(wire::DecodeError(*bogus_frame).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(wire::DecodeQueryRequest(*bogus_frame).ok());
  }
}

TEST(WireTest, RejectsMalformedFrames) {
  std::vector<uint8_t> buffer;
  wire::AppendGetRequest(1, &buffer);

  std::vector<uint8_t> bad_magic = buffer;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(wire::DecodeFrame(bad_magic).ok());

  std::vector<uint8_t> bad_version = buffer;
  bad_version[4] = wire::kVersion + 1;
  EXPECT_FALSE(wire::DecodeFrame(bad_version).ok());

  std::vector<uint8_t> short_buffer(buffer.begin(), buffer.begin() + 8);
  EXPECT_FALSE(wire::DecodeFrame(short_buffer).ok());

  VertexSet adjacency{1, 2, 3};
  std::vector<uint8_t> truncated;
  wire::AppendAdjacencyReply(0, VertexSetView(adjacency), &truncated);
  truncated.resize(truncated.size() - 2);  // payload shorter than header says
  EXPECT_FALSE(wire::DecodeFrame(truncated).ok());
}

TEST(WireTest, RejectsRawAdjacencyRepliesThatAreNotStrictlyAscending) {
  // The executor's kernels assume sorted sets: a descending or duplicate
  // raw reply must fail to decode instead of yielding wrong counts.
  for (const VertexSet& bad : {VertexSet{5, 3}, VertexSet{1, 4, 4, 9}}) {
    std::vector<uint8_t> buffer;
    wire::AppendAdjacencyReply(2, VertexSetView(bad), &buffer);
    auto frame = wire::DecodeFrame(buffer);
    ASSERT_TRUE(frame.ok());
    VertexId key = kInvalidVertex;
    VertexSet out;
    EXPECT_EQ(wire::DecodeAdjacencyReply(*frame, &key, &out).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.empty());
  }
}

TEST(WireTest, AdjacencyPayloadRejectsIdsPastTheGraph) {
  // An id >= num_vertices would later index the DB cache's table: both
  // reply forms are range-checked where they enter the process.
  const VertexSet adjacency{1, 7, 40};
  std::vector<uint8_t> raw;
  wire::AppendAdjacencyReply(3, VertexSetView(adjacency), &raw);
  codec::EncodedSet encoded;
  codec::Encode(VertexSetView(adjacency), &encoded);
  std::vector<uint8_t> enc;
  wire::AppendEncodedAdjacencyReply(3, encoded, &enc);
  for (const auto* buffer : {&raw, &enc}) {
    auto frame = wire::DecodeFrame(*buffer);
    ASSERT_TRUE(frame.ok());
    VertexId key = kInvalidVertex;
    AdjacencyPayload payload;
    EXPECT_EQ(DecodeAdjacencyPayload(*frame, 40, &key, &payload).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(DecodeAdjacencyPayload(*frame, 41, &key, &payload).ok());
    EXPECT_EQ(key, 3u);
    EXPECT_EQ(*payload.Materialize(), adjacency);
    EXPECT_EQ(payload.wire_bytes, buffer->size());
  }
}

TEST(WireTest, EncodedAdjacencyReplyRoundTrips) {
  VertexSet adjacency{3, 5, 8, 1000000};
  codec::EncodedSet encoded;
  codec::Encode(VertexSetView(adjacency), &encoded);
  std::vector<uint8_t> buffer;
  wire::AppendEncodedAdjacencyReply(42, encoded, &buffer);
  EXPECT_EQ(buffer.size(),
            wire::EncodedAdjacencyReplyBytes(encoded.bytes.size()));

  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(wire::FrameIsEncoded(*frame));
  VertexId key = kInvalidVertex;
  codec::EncodedSet back;
  auto st = wire::DecodeEncodedAdjacencyReply(*frame, &key, &back);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(key, 42u);
  VertexSet decoded;
  codec::DecodeAll(back, &decoded);
  EXPECT_EQ(decoded, adjacency);

  // The raw decoder refuses an encoded reply: callers dispatch on
  // FrameIsEncoded, so reaching it with one is a bug, not a fallback.
  VertexSet via_raw_path;
  st = wire::DecodeAdjacencyReply(*frame, &key, &via_raw_path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --- encoding negotiation ---------------------------------------------

TEST(WireTest, RawClientAgainstEncodingServerGetsRawReplies) {
  // A raw client never sets the encoded-request flag; an
  // encoding-capable server must answer it with plain raw frames.
  Graph g = MakeCycle(8);
  KvPartitionServer server(&g, 1, 1, 0, 0, 1, /*support_encoding=*/true);
  std::vector<uint8_t> request, reply;
  wire::AppendGetRequest(3, &request, /*want_encoded=*/false);
  server.HandleFrame(request, &reply);
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(wire::FrameIsEncoded(*frame));
  VertexId key;
  VertexSet out;
  ASSERT_TRUE(wire::DecodeAdjacencyReply(*frame, &key, &out).ok());
  EXPECT_EQ(out, (VertexSet{2, 4}));
}

TEST(WireTest, EncodingClientAgainstRawServerDegradesToRaw) {
  // The reverse direction: a client requesting encoded replies from a
  // server built without encoding support gets raw frames and must
  // dispatch on the reply's own flag (which transports do).
  Graph g = MakeCycle(8);
  KvPartitionServer server(&g, 1, 1, 0, 0, 1, /*support_encoding=*/false);
  EXPECT_FALSE(server.supports_encoding());
  std::vector<uint8_t> request, reply;
  wire::AppendGetRequest(3, &request, /*want_encoded=*/true);
  server.HandleFrame(request, &reply);
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(wire::FrameIsEncoded(*frame));
  VertexId key;
  VertexSet out;
  ASSERT_TRUE(wire::DecodeAdjacencyReply(*frame, &key, &out).ok());
  EXPECT_EQ(out, (VertexSet{2, 4}));
}

TEST(WireTest, RejectsEveryOtherVersion) {
  // Peers are always the same build: one version, and a frame stamped
  // with any other is refused rather than interpreted — by the decoder,
  // and by a server, which answers it with a tagged kError.
  Graph g = MakeCycle(8);
  KvPartitionServer server(&g, 1, 1, 0);
  for (int version : {0, 1, 2, 3, wire::kVersion + 1, 255}) {
    std::vector<uint8_t> request, reply;
    wire::AppendGetRequest(5, &request);
    wire::SetFrameTag(request, 77);
    request[4] = static_cast<uint8_t>(version);
    auto frame = wire::DecodeFrame(request);
    ASSERT_FALSE(frame.ok()) << "version " << version;
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
    server.HandleFrame(request, &reply);
    auto reply_frame = wire::DecodeFrame(reply);
    ASSERT_TRUE(reply_frame.ok()) << reply_frame.status().ToString();
    EXPECT_EQ(reply_frame->header.type, wire::MessageType::kError);
    EXPECT_EQ(wire::FrameTag(reply), 77);
    EXPECT_EQ(wire::DecodeError(*reply_frame).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(reply_frame->frame_bytes, reply.size());
  }
}

// --- partition server -------------------------------------------------

TEST(KvPartitionServerTest, ServesOwnedKeysOnly) {
  Graph g = MakeCycle(8);
  // 4 partitions over 2 servers: server 0 owns partitions {0, 2}, i.e.
  // vertices {0, 2, 4, 6}.
  KvPartitionServer server(&g, /*num_partitions=*/4, /*num_servers=*/2,
                           /*server_index=*/0);
  EXPECT_TRUE(server.Serves(0));
  EXPECT_FALSE(server.Serves(1));
  EXPECT_TRUE(server.Serves(2));
  EXPECT_FALSE(server.Serves(99));  // out of the graph entirely

  std::vector<uint8_t> request, reply;
  wire::AppendGetRequest(4, &request);
  server.HandleFrame(request, &reply);
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  VertexId key;
  VertexSet adjacency;
  ASSERT_TRUE(wire::DecodeAdjacencyReply(*frame, &key, &adjacency).ok());
  EXPECT_EQ(key, 4u);
  EXPECT_EQ(adjacency, (VertexSet{3, 5}));

  request.clear();
  reply.clear();
  wire::AppendGetRequest(1, &request);  // partition 1 — not this server
  server.HandleFrame(request, &reply);
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(wire::DecodeError(*frame).code(), StatusCode::kOutOfRange);
}

TEST(KvPartitionServerTest, BatchStopsAtFirstBadKey) {
  Graph g = MakeCycle(6);
  KvPartitionServer server(&g, /*num_partitions=*/2, /*num_servers=*/1,
                           /*server_index=*/0);
  const VertexId keys[] = {0, 99, 2};  // 99 is out of the graph
  std::vector<uint8_t> request, reply;
  wire::AppendBatchGetRequest(keys, &request);
  server.HandleFrame(request, &reply);

  auto first = wire::DecodeFrame(reply);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->header.type, wire::MessageType::kGetReply);
  std::span<const uint8_t> rest =
      std::span<const uint8_t>(reply).subspan(first->frame_bytes);
  auto second = wire::DecodeFrame(rest);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->header.type, wire::MessageType::kError);
  // The error replaces the remaining replies.
  EXPECT_EQ(first->frame_bytes + second->frame_bytes, reply.size());
}

TEST(KvPartitionServerTest, SurvivesGarbageInput) {
  Graph g = MakeCycle(4);
  KvPartitionServer server(&g, 1, 1, 0);
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5};
  std::vector<uint8_t> reply;
  server.HandleFrame(garbage, &reply);
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kError);
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.stats().keys_served, 0u);
}

// --- backend equivalence ----------------------------------------------

void ExpectSameBehavior(Transport& a, Transport& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  // Single fetches.
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    auto fa = a.Fetch(v);
    auto fb = b.Fetch(v);
    ASSERT_TRUE(fa.ok()) << fa.status().ToString();
    ASSERT_TRUE(fb.ok()) << fb.status().ToString();
    EXPECT_EQ(*fa->Materialize(), *fb->Materialize())
        << "adjacency of vertex " << v;
  }
  // A batch spanning several partitions, unsorted.
  std::vector<VertexId> keys;
  for (VertexId v = 0; v < a.num_vertices(); v += 2) keys.push_back(v);
  std::reverse(keys.begin(), keys.end());
  auto ba = a.FetchBatch(keys);
  auto bb = b.FetchBatch(keys);
  ASSERT_TRUE(ba.ok()) << ba.status().ToString();
  ASSERT_TRUE(bb.ok()) << bb.status().ToString();
  EXPECT_EQ(ba->round_trips, bb->round_trips);
  EXPECT_EQ(ba->bytes, bb->bytes);
  ASSERT_EQ(ba->values.size(), bb->values.size());
  for (size_t i = 0; i < ba->values.size(); ++i) {
    EXPECT_EQ(*ba->values[i].Materialize(), *bb->values[i].Materialize())
        << "batch slot " << i;
  }
  // Out-of-range keys fail identically.
  const VertexId bogus = static_cast<VertexId>(a.num_vertices());
  EXPECT_EQ(a.Fetch(bogus).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(b.Fetch(bogus).status().code(), StatusCode::kOutOfRange);
  // After identical request sequences, the accounting is identical —
  // the invariant that makes metrics comparable across backends.
  EXPECT_EQ(a.stats().fetches.load(), b.stats().fetches.load());
  EXPECT_EQ(a.stats().batch_gets.load(), b.stats().batch_gets.load());
  EXPECT_EQ(a.stats().round_trips.load(), b.stats().round_trips.load());
  EXPECT_EQ(a.stats().bytes.load(), b.stats().bytes.load());
  EXPECT_EQ(a.stats().bytes_encoded.load(), b.stats().bytes_encoded.load());
}

TEST(TransportEquivalenceTest, LoopbackMatchesSimulated) {
  Graph g = std::move(GenerateBarabasiAlbert(60, 3, /*seed=*/7)).value();
  auto sim = MakeSimulatedTransport(g, 4);
  auto loopback = MakeLoopbackTransport(g, 4);
  EXPECT_STREQ(sim->name(), "sim");
  EXPECT_STREQ(loopback->name(), "loopback");
  ExpectSameBehavior(*sim, *loopback);
}

TEST(TransportEquivalenceTest, LoopbackStoreMatchesKvStoreContract) {
  // The loopback-backed store honors the same accounting contract
  // kv_store_test pins for the simulated one. Compression is pinned off:
  // the ReplyBytes formula below is the *raw* frame model.
  Graph g = MakeCycle(8);
  DistributedKvStore store(MakeLoopbackTransport(g, 4, /*compress=*/false));
  EXPECT_EQ(store.num_partitions(), 4u);
  EXPECT_EQ(store.num_vertices(), 8u);
  const VertexId keys[] = {0, 4, 1};  // partitions {0, 0, 1}
  auto reply = store.GetAdjacencyBatch(keys);
  EXPECT_EQ(reply.round_trips, 2u);
  EXPECT_EQ(reply.bytes, 3 * DistributedKvStore::ReplyBytes(2));
  EXPECT_EQ(store.stats().queries.load(), 3u);
  auto empty = store.GetAdjacencyBatch({});
  EXPECT_EQ(empty.round_trips, 0u);
  EXPECT_EQ(store.stats().batch_gets.load(), 1u);
}

BenuOptions TransportRunOptions(std::shared_ptr<Transport> transport) {
  BenuOptions options;
  options.cluster.num_workers = 2;
  options.cluster.threads_per_worker = 2;
  options.cluster.db_partitions = 4;
  options.cluster.db_cache_bytes = 1u << 20;
  options.cluster.task_split_threshold = 100;
  options.cluster.prefetch_budget = 16;
  options.cluster.transport = std::move(transport);
  options.relabel_by_degree = false;
  return options;
}

TEST(TransportEquivalenceTest, ClusterRunsIdenticallyOverLoopback) {
  Graph g = std::move(GenerateBarabasiAlbert(150, 4, /*seed=*/21)).value()
                .RelabelByDegree();
  // q5, q9 and clique5 cover the regression set: plain backtracking, a
  // DBQ-heavy plan and the triangle-cache path.
  for (const char* name : {"q5", "q9", "clique5"}) {
    Graph pattern = std::move(GetPattern(name)).value();
    auto sim_run = RunBenu(g, pattern, TransportRunOptions(nullptr));
    ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();
    auto loop_run = RunBenu(
        g, pattern, TransportRunOptions(MakeLoopbackTransport(g, 4)));
    ASSERT_TRUE(loop_run.ok()) << loop_run.status().ToString();
    EXPECT_EQ(sim_run->run.total_matches, loop_run->run.total_matches)
        << name;
    EXPECT_EQ(sim_run->run.total_codes, loop_run->run.total_codes) << name;
    EXPECT_EQ(sim_run->run.db_queries, loop_run->run.db_queries) << name;
    EXPECT_EQ(sim_run->run.bytes_fetched, loop_run->run.bytes_fetched)
        << name;
    EXPECT_EQ(sim_run->run.adjacency_requests,
              loop_run->run.adjacency_requests)
        << name;
    EXPECT_EQ(sim_run->run.prefetch_round_trips,
              loop_run->run.prefetch_round_trips)
        << name;
    EXPECT_EQ(sim_run->run.prefetch_bytes, loop_run->run.prefetch_bytes)
        << name;
  }
}

TEST(TransportEquivalenceTest, DefaultLookaheadBatchesMissesOverLoopback) {
  // The default ClusterConfig fetches each prefetch-hinted ENU's cache
  // misses in batched multi-gets before descending; prefetch_budget = 0
  // is the paper's one store query per miss. One worker, one thread and
  // a cache far below the working set keep misses flowing. Counts must
  // be bit-identical for every catalog pattern, and the lookahead must
  // reach the store in fewer calls than the baseline has misses.
  Graph g = std::move(GenerateBarabasiAlbert(150, 4, /*seed=*/21)).value()
                .RelabelByDegree();
  auto options_over = [&](std::shared_ptr<Transport> transport) {
    BenuOptions options;
    options.cluster.num_workers = 1;
    options.cluster.threads_per_worker = 1;
    options.cluster.execution_threads = 1;
    options.cluster.max_runtime_threads = 1;
    options.cluster.db_cache_bytes = 2u << 10;
    options.cluster.transport = std::move(transport);
    options.relabel_by_degree = false;
    return options;
  };
  for (const std::string& name : AllPatternNames()) {
    Graph pattern = std::move(GetPattern(name)).value();
    BenuOptions per_miss = options_over(MakeLoopbackTransport(g, 4));
    per_miss.cluster.prefetch_budget = 0;
    auto baseline = RunBenu(g, pattern, per_miss);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(baseline->run.prefetches_issued, 0u) << name;

    std::shared_ptr<Transport> transport = MakeLoopbackTransport(g, 4);
    auto batched = RunBenu(g, pattern, options_over(transport));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(batched->run.total_matches, baseline->run.total_matches)
        << name;
    EXPECT_EQ(batched->run.total_codes, baseline->run.total_codes) << name;
    EXPECT_EQ(batched->run.code_units, baseline->run.code_units) << name;
    EXPECT_EQ(batched->run.adjacency_requests,
              baseline->run.adjacency_requests)
        << name;
    EXPECT_GT(batched->run.prefetches_issued, 0u) << name;
    const Count store_calls = transport->stats().fetches.load() +
                              transport->stats().batch_gets.load();
    EXPECT_LT(store_calls, baseline->run.db_queries) << name;
  }
}

TEST(TransportEquivalenceTest, CompressionPreservesResultsOverLoopback) {
  // Compressed and raw runs must be bit-identical in every enumeration-
  // visible count — only the bytes on the wire shrink.
  Graph g = std::move(GenerateBarabasiAlbert(150, 4, /*seed=*/21)).value()
                .RelabelByDegree();
  for (const char* name : {"q5", "q9", "clique5"}) {
    Graph pattern = std::move(GetPattern(name)).value();
    BenuOptions raw_options =
        TransportRunOptions(MakeLoopbackTransport(g, 4, /*compress=*/false));
    raw_options.cluster.compress_adjacency = false;
    auto raw_run = RunBenu(g, pattern, raw_options);
    ASSERT_TRUE(raw_run.ok()) << raw_run.status().ToString();
    auto comp_run = RunBenu(
        g, pattern, TransportRunOptions(MakeLoopbackTransport(g, 4)));
    ASSERT_TRUE(comp_run.ok()) << comp_run.status().ToString();
    EXPECT_EQ(raw_run->run.total_matches, comp_run->run.total_matches)
        << name;
    EXPECT_EQ(raw_run->run.total_codes, comp_run->run.total_codes) << name;
    EXPECT_EQ(raw_run->run.db_queries, comp_run->run.db_queries) << name;
    EXPECT_EQ(raw_run->run.adjacency_requests,
              comp_run->run.adjacency_requests)
        << name;
    // Same fetches, fewer bytes (per-frame headers are unchanged, the
    // payloads shrink). Vacuous under the BENU_DISABLE_COMPRESSION leg,
    // where both runs are raw — the equality checks above still bite.
    if (codec::CompressionEnabled(true)) {
      EXPECT_LT(comp_run->run.bytes_fetched, raw_run->run.bytes_fetched)
          << name;
    }
    EXPECT_LE(comp_run->run.prefetch_bytes, raw_run->run.prefetch_bytes)
        << name;
  }
}

TEST(TransportValidationTest, RunBenuRelabelsOverMatchingTransport) {
  // The transport attests the labeling it serves via its graph hash;
  // when it already stores the degree-relabeled graph, RunBenu with
  // relabel_by_degree on is consistent and must run — and agree with
  // the null-transport (simulated) relabeled run.
  Graph g =
      std::move(GenerateBarabasiAlbert(60, 3, /*seed=*/7)).value();
  Graph relabeled = g.RelabelByDegree();
  Graph pattern = std::move(GetPattern("triangle")).value();

  BenuOptions sim_options = TransportRunOptions(nullptr);
  sim_options.relabel_by_degree = true;
  auto sim_run = RunBenu(g, pattern, sim_options);
  ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();

  BenuOptions options =
      TransportRunOptions(MakeLoopbackTransport(relabeled, 2));
  options.relabel_by_degree = true;
  auto result = RunBenu(g, pattern, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->run.total_matches, sim_run->run.total_matches);
}

TEST(TransportValidationTest, RunBenuRejectsRelabelOverMismatchedTransport) {
  // A star's degree relabeling moves the hub, so a transport built from
  // the *un*relabeled graph serves a different labeling than the
  // relabeled enumeration side would use: hash mismatch, rejected.
  Graph g = MakeStar(4);
  BenuOptions options = TransportRunOptions(MakeLoopbackTransport(g, 2));
  options.relabel_by_degree = true;
  Graph pattern = std::move(GetPattern("triangle")).value();
  auto result = RunBenu(g, pattern, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransportValidationTest, RunBenuRejectsDifferentlyLabeledGraph) {
  // Same vertex count, different edges: the hash check catches what the
  // vertex-count check cannot, even without relabeling.
  Graph g = MakeStar(4);        // 5 vertices
  Graph other = MakeCycle(5);   // 5 vertices
  BenuOptions options =
      TransportRunOptions(MakeLoopbackTransport(other, 2));
  Graph pattern = std::move(GetPattern("triangle")).value();
  auto result = RunBenu(g, pattern, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransportValidationTest, RunBenuRejectsVertexCountMismatch) {
  Graph g = MakeCycle(6);
  Graph other = MakeCycle(9);
  BenuOptions options = TransportRunOptions(MakeLoopbackTransport(other, 2));
  Graph pattern = std::move(GetPattern("triangle")).value();
  auto result = RunBenu(g, pattern, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- TCP --------------------------------------------------------------

TEST(ParseEndpointsTest, GoodAndBad) {
  auto two = ParseEndpoints("127.0.0.1:9001,localhost:80");
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0].host, "127.0.0.1");
  EXPECT_EQ((*two)[0].port, 9001);
  EXPECT_EQ((*two)[1].host, "localhost");
  EXPECT_EQ((*two)[1].port, 80);
  EXPECT_FALSE(ParseEndpoints("").ok());
  EXPECT_FALSE(ParseEndpoints("hostonly").ok());
  EXPECT_FALSE(ParseEndpoints("host:notaport").ok());
  EXPECT_FALSE(ParseEndpoints("host:99999").ok());
}

class TcpTransportTest : public ::testing::Test {
 protected:
  static constexpr size_t kPartitions = 4;
  static constexpr size_t kServers = 2;

  void SetUp() override {
    graph_ = std::move(GenerateBarabasiAlbert(80, 3, /*seed=*/13)).value();
    for (size_t i = 0; i < kServers; ++i) {
      servers_.push_back(std::make_unique<KvTcpServer>(
          &graph_, kPartitions, kServers, i));
      ASSERT_TRUE(servers_.back()->Listen(0).ok());
      ASSERT_TRUE(servers_.back()->Start().ok());
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
    }
  }

  Graph graph_;
  std::vector<std::unique_ptr<KvTcpServer>> servers_;
  std::vector<Endpoint> endpoints_;
};

TEST_F(TcpTransportTest, MatchesSimulatedBackend) {
  auto tcp = ConnectTcpTransport(endpoints_);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  EXPECT_STREQ((*tcp)->name(), "tcp");
  auto sim = MakeSimulatedTransport(graph_, kPartitions);
  ExpectSameBehavior(*sim, **tcp);
  // The servers actually did the work: every key served exactly once
  // per request, split across the two processes' scopes.
  auto stats0 = QueryServerStats(**tcp, 0);
  auto stats1 = QueryServerStats(**tcp, 1);
  ASSERT_TRUE(stats0.ok());
  ASSERT_TRUE(stats1.ok());
  EXPECT_GT(stats0->keys_served, 0u);
  EXPECT_GT(stats1->keys_served, 0u);
  EXPECT_GT(stats0->bytes_sent, 0u);
}

TEST_F(TcpTransportTest, ClusterRunOverTcpMatchesSim) {
  Graph relabeled = graph_.RelabelByDegree();
  // The TCP servers must serve the same labeling the enumeration uses.
  std::vector<std::unique_ptr<KvTcpServer>> servers;
  std::vector<Endpoint> endpoints;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<KvTcpServer>(
        &relabeled, kPartitions, kServers, i));
    ASSERT_TRUE(servers.back()->Listen(0).ok());
    ASSERT_TRUE(servers.back()->Start().ok());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  auto tcp = ConnectTcpTransport(endpoints);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

  Graph pattern = std::move(GetPattern("q5")).value();
  auto sim_run = RunBenu(relabeled, pattern, TransportRunOptions(nullptr));
  ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();
  auto tcp_run = RunBenu(relabeled, pattern, TransportRunOptions(*tcp));
  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status().ToString();
  EXPECT_EQ(sim_run->run.total_matches, tcp_run->run.total_matches);
  EXPECT_EQ(sim_run->run.db_queries, tcp_run->run.db_queries);
  EXPECT_EQ(sim_run->run.bytes_fetched, tcp_run->run.bytes_fetched);
}

TEST_F(TcpTransportTest, MixedCapabilityFleetFallsBackToRaw) {
  // Effective compression requires *every* server group to advertise the
  // encoded-reply capability; one raw-only server downgrades the whole
  // client to raw frames (correctness over compression).
  servers_[1]->Stop();
  servers_[1] = std::make_unique<KvTcpServer>(
      &graph_, kPartitions, kServers, 1, 0, 1, /*support_encoding=*/false);
  ASSERT_TRUE(servers_[1]->Listen(0).ok());
  ASSERT_TRUE(servers_[1]->Start().ok());
  endpoints_[1] = {"127.0.0.1", servers_[1]->port()};

  auto tcp = ConnectTcpTransport(endpoints_);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  EXPECT_FALSE((*tcp)->compressed());
  // Raw accounting matches the uncompressed simulated backend exactly.
  auto sim = MakeSimulatedTransport(graph_, kPartitions, /*compress=*/false);
  ExpectSameBehavior(*sim, **tcp);
  EXPECT_EQ((*tcp)->stats().bytes_encoded.load(), 0u);
}

TEST_F(TcpTransportTest, CompressedAndRawRunsAgreeOverTcp) {
  Graph pattern = std::move(GetPattern("q5")).value();
  auto compressed = ConnectTcpTransport(endpoints_);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_EQ((*compressed)->compressed(), codec::CompressionEnabled(true));
  auto comp_run = RunBenu(graph_, pattern, TransportRunOptions(*compressed));
  ASSERT_TRUE(comp_run.ok()) << comp_run.status().ToString();

  std::vector<ReplicaGroup> groups;
  for (const Endpoint& e : endpoints_) groups.push_back({{e}});
  TcpTransportOptions raw_options;
  raw_options.compress = false;
  auto raw = ConnectTcpTransport(groups, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_FALSE((*raw)->compressed());
  BenuOptions options = TransportRunOptions(*raw);
  options.cluster.compress_adjacency = false;
  auto raw_run = RunBenu(graph_, pattern, options);
  ASSERT_TRUE(raw_run.ok()) << raw_run.status().ToString();

  EXPECT_EQ(comp_run->run.total_matches, raw_run->run.total_matches);
  EXPECT_EQ(comp_run->run.db_queries, raw_run->run.db_queries);
  if (codec::CompressionEnabled(true)) {
    EXPECT_LT(comp_run->run.bytes_fetched, raw_run->run.bytes_fetched);
  }
}

TEST_F(TcpTransportTest, RejectsMisorderedEndpoints) {
  // Endpoint 0 must be server 0; swapping the list breaks the handshake.
  std::vector<Endpoint> swapped{endpoints_[1], endpoints_[0]};
  auto tcp = ConnectTcpTransport(swapped);
  EXPECT_FALSE(tcp.ok());
  EXPECT_EQ(tcp.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TcpTransportTest, RejectsWrongServerCount) {
  // A single endpoint claims a 2-server layout: num_servers mismatch.
  std::vector<Endpoint> one{endpoints_[0]};
  auto tcp = ConnectTcpTransport(one);
  EXPECT_FALSE(tcp.ok());
  EXPECT_EQ(tcp.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TcpTransportTest, ConcurrentFetchesPipelineCorrectly) {
  // Several worker threads hammer one shared transport: replies must
  // demux back to the right callers (tags), never interleave wrongly.
  auto tcp = ConnectTcpTransport(endpoints_);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 40; ++iter) {
        std::vector<VertexId> keys;
        for (VertexId v = static_cast<VertexId>((t + iter) % 5);
             v < graph_.NumVertices(); v += 5) {
          keys.push_back(v);
        }
        auto batch = (*tcp)->FetchBatch(keys);
        if (!batch.ok()) {
          ++failures;
          return;
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          VertexSetView expected = graph_.Adjacency(keys[i]);
          const VertexSet got = *batch->values[i].Materialize();
          if (got != VertexSet(expected.begin(), expected.end())) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TcpTransportTest, SerialModeMatchesSimulatedBackend) {
  // pipeline=false is the A/B baseline bench_pipeline measures against;
  // it must stay byte-for-byte equivalent too.
  std::vector<ReplicaGroup> groups;
  for (const Endpoint& ep : endpoints_) groups.push_back({{ep}});
  TcpTransportOptions options;
  options.pipeline = false;
  auto tcp = ConnectTcpTransport(groups, options);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  auto sim = MakeSimulatedTransport(graph_, kPartitions);
  ExpectSameBehavior(*sim, **tcp);
}

// --- request tags and replica hello -----------------------------------

TEST(WireTest, FrameTagsRoundTripAcrossSequences) {
  // A reply sequence (two adjacency frames + one error) all get the
  // request's tag stamped; clients read it back per frame.
  VertexSet adjacency{1, 2, 3};
  std::vector<uint8_t> frames;
  wire::AppendAdjacencyReply(4, VertexSetView(adjacency), &frames);
  wire::AppendAdjacencyReply(6, VertexSetView(adjacency), &frames);
  wire::AppendError(StatusCode::kOutOfRange, "nope", &frames);
  wire::TagFrames(frames, 0x1234);

  std::span<const uint8_t> rest = frames;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(wire::FrameTag(rest), 0x1234) << "frame " << i;
    auto frame = wire::DecodeFrame(rest);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->header.flags, 0x1234);
    rest = rest.subspan(frame->frame_bytes);
  }
  EXPECT_TRUE(rest.empty());

  // SetFrameTag touches only the first frame of a buffer.
  wire::SetFrameTag(frames, 7);
  EXPECT_EQ(wire::FrameTag(frames), 7);
  auto first = wire::DecodeFrame(frames);
  ASSERT_TRUE(first.ok());
  std::span<const uint8_t> second =
      std::span<const uint8_t>(frames).subspan(first->frame_bytes);
  EXPECT_EQ(wire::FrameTag(second), 0x1234);
}

TEST(WireTest, TagsNeverCollideWithTheEncodingFlag) {
  // Tags are 15 bits (bit 15 is kFlagEncodedPayload).
  // The largest legal tag round-trips with the flag intact, and a tag
  // one past kTagMask wraps to 0 on the wire — the allocator must never
  // hand it out (a client comparing the unmasked value desyncs after
  // 32K in-flight requests; tcp_transport wraps at kTagMask for this).
  std::vector<uint8_t> request;
  wire::AppendGetRequest(3, &request, /*want_encoded=*/true);
  wire::SetFrameTag(request, wire::kTagMask);
  EXPECT_EQ(wire::FrameTag(request), wire::kTagMask);
  auto frame = wire::DecodeFrame(request);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(wire::FrameIsEncoded(*frame));

  wire::SetFrameTag(request, wire::kTagMask + 1);
  EXPECT_EQ(wire::FrameTag(request), 0);
  frame = wire::DecodeFrame(request);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(wire::FrameIsEncoded(*frame)) << "tag overflow ate the flag";
}

TEST(WireTest, ServerEchoesRequestTagOnEveryReplyFrame) {
  Graph g = MakeCycle(6);
  KvPartitionServer server(&g, 2, 1, 0);
  const VertexId keys[] = {0, 2, 4};
  std::vector<uint8_t> request, reply;
  wire::AppendBatchGetRequest(keys, &request);
  wire::SetFrameTag(request, 99);
  server.HandleFrame(request, &reply);
  std::span<const uint8_t> rest = reply;
  int frames = 0;
  while (!rest.empty()) {
    auto frame = wire::DecodeFrame(rest);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->header.flags, 99) << "reply frame " << frames;
    rest = rest.subspan(frame->frame_bytes);
    ++frames;
  }
  EXPECT_EQ(frames, 3);
}

TEST(WireTest, HelloCarriesReplicaFields) {
  std::vector<uint8_t> buffer;
  wire::HelloInfo info{100, 8, 2, 1, /*replica_index=*/2,
                       /*num_replicas=*/3};
  wire::AppendHelloReply(info, &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto hello = wire::DecodeHelloReply(*frame);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->replica_index, 2u);
  EXPECT_EQ(hello->num_replicas, 3u);
}

TEST(WireTest, HelloRejectsEveryPayloadButFortyBytes) {
  // Only the 40-byte hello exists; the shorter layouts of earlier
  // protocol drafts (16, 24, 32 bytes) and anything longer are refused.
  for (uint32_t bytes : {0u, 16u, 24u, 32u, 36u, 44u}) {
    std::vector<uint8_t> buffer;
    wire::AppendHeader(wire::MessageType::kHelloReply, 0, bytes, &buffer);
    buffer.resize(buffer.size() + bytes, 0);
    auto frame = wire::DecodeFrame(buffer);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto hello = wire::DecodeHelloReply(*frame);
    ASSERT_FALSE(hello.ok()) << bytes << "-byte hello decoded";
    EXPECT_EQ(hello.status().code(), StatusCode::kInvalidArgument);
  }
}

// --- versioned-store (delta) frames -----------------------------------

TEST(WireTest, DeltaFramesRoundTrip) {
  std::vector<uint8_t> buffer;
  std::vector<EdgeDelta> ops = {{3, 7, true}, {9, 2, false}};
  wire::AppendApplyDelta(5, ops, &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kApplyDelta);
  uint64_t epoch = 0;
  std::vector<EdgeDelta> decoded;
  ASSERT_TRUE(wire::DecodeApplyDelta(*frame, &epoch, &decoded).ok());
  EXPECT_EQ(epoch, 5u);
  EXPECT_EQ(decoded, ops);

  buffer.clear();
  wire::AppendEpochAdvance(6, &buffer);
  frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto advance = wire::DecodeEpochAdvance(*frame);
  ASSERT_TRUE(advance.ok());
  EXPECT_EQ(*advance, 6u);

  buffer.clear();
  wire::AppendMatchDelta({4, 10, 3, 107}, &buffer);
  frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto delta = wire::DecodeMatchDelta(*frame);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, (wire::MatchDelta{4, 10, 3, 107}));

  buffer.clear();
  wire::AppendDeltaAck(5, &buffer);
  frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto ack = wire::DecodeDeltaAck(*frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack, 5u);
}

TEST(WireTest, HelloCarriesCapabilitiesHashAndEpoch) {
  wire::HelloInfo info{100, 8, 2, 1, 0, 1,
                       wire::kHelloSupportsEncoded, 0xabcd1234u, 9};
  std::vector<uint8_t> buffer;
  wire::AppendHelloReply(info, &buffer);
  auto frame = wire::DecodeFrame(buffer);
  ASSERT_TRUE(frame.ok());
  auto hello = wire::DecodeHelloReply(*frame);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->epoch, 9u);
  EXPECT_EQ(hello->flags, wire::kHelloSupportsEncoded);
  EXPECT_EQ(hello->graph_hash, 0xabcd1234u);
}

TEST(KvPartitionServerTest, DeltaFramesValidateEpochSequence) {
  Graph g = std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}})).value();
  KvPartitionServer server(&g, /*num_partitions=*/2, /*num_servers=*/1,
                           /*server_index=*/0);
  std::vector<uint8_t> request, reply;
  std::vector<EdgeDelta> ops = {{0, 3, true}};

  // Target epoch must be current+1: a jump is rejected.
  wire::AppendApplyDelta(2, ops, &request);
  server.HandleFrame(request, &reply);
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kError);
  EXPECT_EQ(wire::DecodeError(*frame).code(),
            StatusCode::kFailedPrecondition);

  // The in-sequence delta is acked; commit via kEpochAdvance.
  request.clear();
  reply.clear();
  wire::AppendApplyDelta(1, ops, &request);
  server.HandleFrame(request, &reply);
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->header.type, wire::MessageType::kDeltaAck);
  EXPECT_EQ(std::move(wire::DecodeDeltaAck(*frame)).value(), 1u);
  EXPECT_EQ(server.epoch(), 0u);  // not committed yet

  request.clear();
  reply.clear();
  wire::AppendEpochAdvance(1, &request);
  server.HandleFrame(request, &reply);
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->header.type, wire::MessageType::kDeltaAck);
  EXPECT_EQ(server.epoch(), 1u);

  // The hello now attests (hash, epoch).
  request.clear();
  reply.clear();
  wire::AppendHelloRequest(&request);
  server.HandleFrame(request, &reply);
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  auto hello = wire::DecodeHelloReply(*frame);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->epoch, 1u);
}

TEST(ParseReplicaGroupsTest, GoodAndBad) {
  auto groups = ParseReplicaGroups("a:1|b:2,c:3");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);
  ASSERT_EQ((*groups)[0].replicas.size(), 2u);
  EXPECT_EQ((*groups)[0].replicas[0].host, "a");
  EXPECT_EQ((*groups)[0].replicas[1].port, 2);
  ASSERT_EQ((*groups)[1].replicas.size(), 1u);
  EXPECT_EQ((*groups)[1].replicas[0].host, "c");
  // Plain endpoint lists are valid single-replica specs.
  auto plain = ParseReplicaGroups("x:1,y:2");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)[0].replicas.size(), 1u);
  EXPECT_FALSE(ParseReplicaGroups("").ok());
  EXPECT_FALSE(ParseReplicaGroups("a:1|").ok());
  EXPECT_FALSE(ParseReplicaGroups("a:1|noport,b:2").ok());
}

// --- socket error discrimination --------------------------------------

TEST(SocketIoTest, PeerEofIsUnavailableNotIoError) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::CloseFd(fds[1]);  // peer goes away
  uint8_t byte = 0;
  const Status st = net::ReadExact(fds[0], &byte, 1);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  net::CloseFd(fds[0]);
}

TEST(SocketIoTest, NoProgressReadTimesOutAsDeadlineExceeded) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(net::SetNonBlocking(fds[0]).ok());
  uint8_t byte = 0;
  const Status st = net::ReadExact(fds[0], &byte, 1, /*timeout_ms=*/50);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  net::CloseFd(fds[0]);
  net::CloseFd(fds[1]);
}

// --- fault injection: misbehaving and dying servers -------------------

/// A minimal hand-rolled TCP server speaking the wire protocol, with a
/// scriptable fault: it corrupts the key of the first batch reply it
/// sends (then behaves), goes mute after the hello handshake, or breaks
/// the first raw adjacency set of every reply — its two leading ids
/// swapped (descending) or its second id pushed past the graph.
/// Serves connections sequentially — the client under test reconnects
/// after tearing a connection down, so one at a time is all it needs.
class ScriptedTcpServer {
 public:
  enum class Fault {
    kCorruptFirstBatchReply,
    kMuteAfterHello,
    kDescendingReplies,
    kOutOfRangeReplies,
  };

  ScriptedTcpServer(const Graph* graph, size_t partitions, Fault fault)
      : server_(graph, partitions, 1, 0), fault_(fault) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    BENU_CHECK(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    BENU_CHECK(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0);
    BENU_CHECK(listen(listen_fd_, 8) == 0);
    socklen_t len = sizeof(addr);
    BENU_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~ScriptedTcpServer() {
    shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept
    thread_.join();
    net::CloseFd(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      ServeConn(fd);
      net::CloseFd(fd);
    }
  }

  void ServeConn(int fd) {
    std::vector<uint8_t> request, out;
    for (;;) {
      if (!net::ReadWireFrame(fd, &request).ok()) return;
      auto frame = wire::DecodeFrame(request);
      if (!frame.ok()) return;
      const bool is_hello =
          frame->header.type == wire::MessageType::kHelloRequest;
      if (!is_hello && fault_ == Fault::kMuteAfterHello) continue;
      out.clear();
      server_.HandleFrame(request, &out);
      if (!is_hello && !corrupted_ &&
          fault_ == Fault::kCorruptFirstBatchReply &&
          frame->header.type == wire::MessageType::kBatchGetRequest) {
        out[8] ^= 0x01;  // flip the key (aux) of the first reply frame
        corrupted_ = true;
      }
      const bool adjacency_request =
          frame->header.type == wire::MessageType::kGetRequest ||
          frame->header.type == wire::MessageType::kBatchGetRequest;
      // The first reply's payload starts after its 16-byte header; the
      // graphs these faults serve give every vertex >= 2 neighbors.
      if (adjacency_request && fault_ == Fault::kDescendingReplies) {
        std::swap_ranges(out.begin() + 16, out.begin() + 20,
                         out.begin() + 20);
      }
      if (adjacency_request && fault_ == Fault::kOutOfRangeReplies) {
        std::fill(out.begin() + 20, out.begin() + 23, 0xFF);
        out[23] = 0x7F;  // 0x7FFFFFFF, still ascending
      }
      if (!net::WriteAll(fd, out).ok()) return;
    }
  }

  KvPartitionServer server_;
  const Fault fault_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool corrupted_ = false;
  std::thread thread_;
};

TcpTransportOptions FastRetryOptions() {
  TcpTransportOptions options;
  options.connect_timeout_ms = 2000;
  options.request_timeout_ms = 2000;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 10;
  return options;
}

TEST(TcpFaultTest, RecoversFromMidBatchCorruptReply) {
  // Regression for the stale-frame bug: a mid-batch decode error used to
  // leave the remaining reply frames unread on the socket, so the *next*
  // request read stale frames. The transport must instead drop the
  // connection and retry — transparently, with identical accounting.
  Graph g = MakeCycle(12);
  ScriptedTcpServer bad(&g, /*partitions=*/2,
                        ScriptedTcpServer::Fault::kCorruptFirstBatchReply);
  std::vector<ReplicaGroup> groups{{{{"127.0.0.1", bad.port()}}}};
  auto tcp = ConnectTcpTransport(groups, FastRetryOptions());
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

  auto sim = MakeSimulatedTransport(g, 2);
  // The first FetchBatch inside hits the corrupt frame and recovers;
  // every fetch afterwards (including follow-up singles) must see clean
  // replies, and the accounting must match the sim backend exactly.
  ExpectSameBehavior(*sim, **tcp);

  auto faults = QueryTcpFaultStats(**tcp);
  ASSERT_TRUE(faults.ok());
  EXPECT_GE(faults->retries, 1u);
  EXPECT_GE(faults->reconnects, 1u);
}

TEST(TcpFaultTest, UnsortedOrOutOfRangeRepliesAreErrorsNotCrashes) {
  Graph g = MakeCycle(12);  // every adjacency set holds two ids
  for (const auto fault : {ScriptedTcpServer::Fault::kDescendingReplies,
                           ScriptedTcpServer::Fault::kOutOfRangeReplies}) {
    ScriptedTcpServer bad(&g, /*partitions=*/2, fault);
    std::vector<ReplicaGroup> groups{{{{"127.0.0.1", bad.port()}}}};
    TcpTransportOptions options = FastRetryOptions();
    options.compress = false;  // raw replies, so the fault can edit ids
    options.max_attempts = 2;
    auto tcp = ConnectTcpTransport(groups, options);
    ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

    auto fetched = (*tcp)->Fetch(4);
    EXPECT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable)
        << fetched.status().ToString();
    const VertexId keys[] = {1, 2, 3};
    auto batch = (*tcp)->FetchBatch(keys);
    EXPECT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable)
        << batch.status().ToString();
  }
}

TEST(TcpFaultTest, MuteServerSurfacesBoundedTimeout) {
  Graph g = MakeCycle(8);
  ScriptedTcpServer mute(&g, /*partitions=*/2,
                         ScriptedTcpServer::Fault::kMuteAfterHello);
  std::vector<ReplicaGroup> groups{{{{"127.0.0.1", mute.port()}}}};
  TcpTransportOptions options = FastRetryOptions();
  options.request_timeout_ms = 100;  // fail fast: the server never replies
  options.max_attempts = 2;
  auto tcp = ConnectTcpTransport(groups, options);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  auto fetched = (*tcp)->Fetch(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kDeadlineExceeded)
      << fetched.status().ToString();
  // Two attempts at 100ms each plus reconnect/backoff slack — but no
  // eternal stall.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  auto faults = QueryTcpFaultStats(**tcp);
  ASSERT_TRUE(faults.ok());
  EXPECT_GE(faults->timeouts, 1u);
  EXPECT_GE(faults->retries, 1u);
}

TEST(TcpFaultTest, FailsOverToReplicaWhenServerStops) {
  Graph g = std::move(GenerateBarabasiAlbert(60, 3, /*seed=*/5)).value();
  constexpr size_t kPartitions = 2;
  // One server group, two in-process replicas serving identical data.
  KvTcpServer replica0(&g, kPartitions, 1, 0, /*replica_index=*/0,
                       /*num_replicas=*/2);
  KvTcpServer replica1(&g, kPartitions, 1, 0, /*replica_index=*/1,
                       /*num_replicas=*/2);
  for (KvTcpServer* server : {&replica0, &replica1}) {
    ASSERT_TRUE(server->Listen(0).ok());
    ASSERT_TRUE(server->Start().ok());
  }
  std::vector<ReplicaGroup> groups{{{{"127.0.0.1", replica0.port()},
                                     {"127.0.0.1", replica1.port()}}}};
  auto tcp = ConnectTcpTransport(groups, FastRetryOptions());
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

  auto before = (*tcp)->Fetch(3);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  replica0.Stop();  // the replica the client connected to dies

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto after = (*tcp)->Fetch(v);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    VertexSetView expected = g.Adjacency(v);
    EXPECT_EQ(*after->Materialize(),
              VertexSet(expected.begin(), expected.end()));
  }
  auto faults = QueryTcpFaultStats(**tcp);
  ASSERT_TRUE(faults.ok());
  EXPECT_GE(faults->failovers, 1u);
  EXPECT_GE(faults->reconnects, 1u);
}

// --- SIGKILL a real server process mid-enumeration --------------------

#ifdef BENU_KV_SERVER_BIN

/// Forks and execs one benu_kv_server, returning its pid and port.
std::pair<pid_t, uint16_t> SpawnKvServer(const std::string& graph_spec,
                                         size_t partitions, size_t servers,
                                         size_t index, size_t replica,
                                         size_t replicas) {
  int pipefd[2];
  EXPECT_EQ(pipe(pipefd), 0);
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    close(pipefd[0]);
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[1]);
    const std::string graph_arg = "--graph=" + graph_spec;
    const std::string part_arg = "--partitions=" + std::to_string(partitions);
    const std::string servers_arg = "--servers=" + std::to_string(servers);
    const std::string index_arg = "--index=" + std::to_string(index);
    const std::string replica_arg = "--replica=" + std::to_string(replica);
    const std::string replicas_arg = "--replicas=" + std::to_string(replicas);
    execl(BENU_KV_SERVER_BIN, BENU_KV_SERVER_BIN, graph_arg.c_str(),
          part_arg.c_str(), servers_arg.c_str(), index_arg.c_str(),
          replica_arg.c_str(), replicas_arg.c_str(), "--port=0",
          "--relabel=1", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(pipefd[1]);
  FILE* out = fdopen(pipefd[0], "r");
  uint16_t port = 0;
  char line[256];
  while (out != nullptr && std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned parsed = 0;
    if (std::sscanf(line, "LISTENING port=%u", &parsed) == 1) {
      port = static_cast<uint16_t>(parsed);
      break;
    }
  }
  if (out != nullptr) std::fclose(out);
  return {pid, port};
}

TEST(TcpFaultTest, SigkillMidEnumerationFailsOverWithIdenticalCounts) {
  if (access(BENU_KV_SERVER_BIN, X_OK) != 0) {
    GTEST_SKIP() << "benu_kv_server binary not found at "
                 << BENU_KV_SERVER_BIN;
  }
  const std::string graph_spec = "ba:300,5,21";
  constexpr size_t kPartitions = 4;  // matches TransportRunOptions
  constexpr size_t kServers = 2;
  constexpr size_t kReplicas = 2;

  std::vector<std::pair<pid_t, uint16_t>> procs;
  std::vector<ReplicaGroup> groups;
  for (size_t i = 0; i < kServers; ++i) {
    ReplicaGroup group;
    for (size_t r = 0; r < kReplicas; ++r) {
      procs.push_back(
          SpawnKvServer(graph_spec, kPartitions, kServers, i, r, kReplicas));
      ASSERT_NE(procs.back().second, 0)
          << "server " << i << "/" << r << " did not come up";
      group.replicas.push_back({"127.0.0.1", procs.back().second});
    }
    groups.push_back(std::move(group));
  }
  auto reap_all = [&procs] {
    for (auto& [pid, port] : procs) {
      if (pid > 0) kill(pid, SIGKILL);
    }
    for (auto& [pid, port] : procs) {
      if (pid > 0) waitpid(pid, nullptr, 0);
      pid = -1;
    }
  };

  auto graph_or = GenerateFromSpec(graph_spec);
  ASSERT_TRUE(graph_or.ok());
  const Graph graph = graph_or->RelabelByDegree();
  Graph pattern = std::move(GetPattern("q5")).value();

  auto tcp = ConnectTcpTransport(groups, FastRetryOptions());
  if (!tcp.ok()) reap_all();
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();

  // Watcher: once the enumeration has demonstrably started issuing wire
  // traffic, SIGKILL the replica the client is connected to (group 0's
  // first). A tiny DB cache below keeps traffic flowing for the whole
  // run, so the kill reliably lands mid-enumeration.
  std::atomic<bool> done{false};
  std::thread killer([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < give_up) {
      if ((*tcp)->stats().round_trips.load(std::memory_order_relaxed) >=
          20) {
        kill(procs.front().first, SIGKILL);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  BenuOptions options = TransportRunOptions(*tcp);
  options.cluster.db_cache_bytes = 4096;
  auto tcp_run = RunBenu(graph, pattern, options);
  done.store(true, std::memory_order_relaxed);
  killer.join();

  BenuOptions sim_options = TransportRunOptions(nullptr);
  sim_options.cluster.db_cache_bytes = 4096;
  auto sim_run = RunBenu(graph, pattern, sim_options);

  auto faults = QueryTcpFaultStats(**tcp);
  tcp.value().reset();
  reap_all();

  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status().ToString();
  ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();
  EXPECT_EQ(tcp_run->run.total_matches, sim_run->run.total_matches);
  ASSERT_TRUE(faults.ok());
  EXPECT_GE(faults->failovers, 1u);
}

#endif  // BENU_KV_SERVER_BIN

}  // namespace
}  // namespace benu
