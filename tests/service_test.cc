// Tests of the resident enumeration service: its wire frames, the
// documented protocol constants (docs/wire-protocol.md must match
// common/wire.h), the fair scheduler, the query engine (equivalence with
// one-shot RunBenu, cancel, admission control, plan cache) and the TCP
// front end (concurrent clients, malformed-frame containment, service.*
// metrics docs coverage).

#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/wire.h"
#include "distributed/benu_driver.h"
#include "distributed/dynamic_runner.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "service/query_engine.h"
#include "service/service_client.h"
#include "service/service_server.h"
#include "storage/socket_io.h"
#include "storage/transport.h"

namespace benu {
namespace {

using service::FairScheduler;
using service::QueryEngine;
using service::ServiceClient;
using service::ServiceConfig;
using service::ServiceTcpServer;

// --- service wire frames ---------------------------------------------

wire::Frame MustDecode(const std::vector<uint8_t>& buf) {
  auto frame = wire::DecodeFrame(buf);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  return *frame;
}

TEST(ServiceWireTest, QueryRequestRoundTrip) {
  wire::QuerySpec spec;
  spec.pattern = "q5";
  spec.pattern_labels = {0, 2, 1, 2};
  spec.options = wire::kQueryVcbc | wire::kQueryWantProgress;
  std::vector<uint8_t> buf;
  wire::AppendQueryRequest(spec, &buf);
  wire::SetFrameTag(buf, 1234);
  EXPECT_EQ(wire::FrameTag(buf), 1234);
  auto decoded = wire::DecodeQueryRequest(MustDecode(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, spec);
}

TEST(ServiceWireTest, QueryResultRoundTrip) {
  wire::QueryResultInfo info;
  info.matches = 123456789;
  info.codes = 42;
  info.tasks = 17;
  info.elapsed_us = 987654;
  info.flags = wire::kQueryResultCancelled | wire::kQueryResultPlanCacheHit;
  std::vector<uint8_t> buf;
  wire::AppendQueryResult(info, &buf);
  auto decoded = wire::DecodeQueryResult(MustDecode(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, info);
  EXPECT_TRUE(decoded->cancelled());
  EXPECT_TRUE(decoded->plan_cache_hit());
}

TEST(ServiceWireTest, CancelAndProgressRoundTrip) {
  std::vector<uint8_t> cancel;
  wire::AppendCancelRequest(&cancel);
  wire::SetFrameTag(cancel, 7);
  EXPECT_TRUE(wire::DecodeCancelRequest(MustDecode(cancel)).ok());

  wire::QueryProgress progress;
  progress.tasks_done = 10;
  progress.tasks_total = 64;
  progress.matches_so_far = 999;
  std::vector<uint8_t> buf;
  wire::AppendProgress(progress, &buf);
  auto decoded = wire::DecodeProgress(MustDecode(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, progress);
}

// One wire version for every frame type: service, versioned-store and
// KV frames stamped with an earlier or later version are all refused.
TEST(ServiceWireTest, FramesOfOtherVersionsAreRejected) {
  std::vector<std::vector<uint8_t>> frames(4);
  wire::AppendCancelRequest(&frames[0]);
  wire::AppendQueryRequest(wire::QuerySpec{"q5", {}, 0}, &frames[1]);
  wire::AppendEpochAdvance(1, &frames[2]);
  wire::AppendHelloRequest(&frames[3]);
  for (std::vector<uint8_t>& buf : frames) {
    ASSERT_TRUE(wire::DecodeFrame(buf).ok());
    for (int version : {1, 2, 3, 5}) {
      buf[4] = static_cast<uint8_t>(version);  // header version byte
      auto decoded = wire::DecodeFrame(buf);
      ASSERT_FALSE(decoded.ok()) << "version " << version;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ServiceWireTest, MalformedQueryPayloadsRejected) {
  // Unknown option bit.
  wire::QuerySpec spec;
  spec.pattern = "q5";
  spec.options = 1u << 30;
  std::vector<uint8_t> buf;
  wire::AppendQueryRequest(spec, &buf);
  EXPECT_FALSE(wire::DecodeQueryRequest(MustDecode(buf)).ok());

  // Empty pattern name.
  spec.options = 0;
  spec.pattern.clear();
  buf.clear();
  wire::AppendQueryRequest(spec, &buf);
  EXPECT_FALSE(wire::DecodeQueryRequest(MustDecode(buf)).ok());

  // Name length pointing past the payload end.
  spec.pattern = "q5";
  buf.clear();
  wire::AppendQueryRequest(spec, &buf);
  // Payload layout: u32 options, u32 label count, u32 name length, name.
  const size_t name_len_at = wire::kHeaderBytes + 8;
  buf[name_len_at] = 0xFF;
  EXPECT_FALSE(wire::DecodeQueryRequest(MustDecode(buf)).ok());

  // A query-result payload of the wrong size.
  std::vector<uint8_t> bad;
  wire::AppendHeader(wire::MessageType::kQueryResult, 0, 8, &bad);
  bad.resize(bad.size() + 8, 0);
  EXPECT_FALSE(wire::DecodeQueryResult(MustDecode(bad)).ok());

  // A cancel with a non-empty payload.
  bad.clear();
  wire::AppendHeader(wire::MessageType::kCancelRequest, 0, 4, &bad);
  bad.resize(bad.size() + 4, 0);
  EXPECT_FALSE(wire::DecodeCancelRequest(MustDecode(bad)).ok());
}

// --- docs/wire-protocol.md cross-check --------------------------------

// The normative spec documents the protocol constants in machine-checkable
// `name` / `value` table rows; this test parses them and asserts each one
// against the real constant, so the document cannot drift from wire.h.
TEST(ServiceWireTest, WireProtocolDocMatchesConstants) {
  std::ifstream doc(std::string(BENU_SOURCE_DIR) + "/docs/wire-protocol.md");
  ASSERT_TRUE(doc.is_open()) << "docs/wire-protocol.md not found";
  std::map<std::string, std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> ticked;
    size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const size_t end = line.find('`', pos + 1);
      if (end == std::string::npos) break;
      ticked.push_back(line.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
    if (ticked.size() >= 2) documented[ticked[0]] = ticked[1];
  }
  auto expect_value = [&](const std::string& name, uint64_t value) {
    auto it = documented.find(name);
    ASSERT_NE(it, documented.end())
        << "`" << name << "` missing from docs/wire-protocol.md";
    EXPECT_EQ(std::stoull(it->second, nullptr, 0), value)
        << "`" << name << "` documented as " << it->second;
  };
  expect_value("kMagic", wire::kMagic);
  expect_value("kHeaderBytes", wire::kHeaderBytes);
  expect_value("kVersion", wire::kVersion);
  expect_value("kMaxPayloadBytes", wire::kMaxPayloadBytes);
  expect_value("kFlagEncodedPayload", wire::kFlagEncodedPayload);
  expect_value("kTagMask", wire::kTagMask);
  expect_value("kQueryRequest",
               static_cast<uint64_t>(wire::MessageType::kQueryRequest));
  expect_value("kQueryResult",
               static_cast<uint64_t>(wire::MessageType::kQueryResult));
  expect_value("kCancelRequest",
               static_cast<uint64_t>(wire::MessageType::kCancelRequest));
  expect_value("kProgress",
               static_cast<uint64_t>(wire::MessageType::kProgress));
  expect_value("kQueryVcbc", wire::kQueryVcbc);
  expect_value("kQueryDegreeFilter", wire::kQueryDegreeFilter);
  expect_value("kQueryWantProgress", wire::kQueryWantProgress);
  expect_value("kQueryResultCancelled", wire::kQueryResultCancelled);
  expect_value("kQueryResultPlanCacheHit", wire::kQueryResultPlanCacheHit);
  expect_value("kHelloSupportsEncoded", wire::kHelloSupportsEncoded);
  expect_value("kHelloSupportsQueries", wire::kHelloSupportsQueries);
  expect_value("kQuerySubscribe", wire::kQuerySubscribe);
  expect_value("kApplyDelta",
               static_cast<uint64_t>(wire::MessageType::kApplyDelta));
  expect_value("kEpochAdvance",
               static_cast<uint64_t>(wire::MessageType::kEpochAdvance));
  expect_value("kMatchDelta",
               static_cast<uint64_t>(wire::MessageType::kMatchDelta));
  expect_value("kDeltaAck",
               static_cast<uint64_t>(wire::MessageType::kDeltaAck));
}

// --- FairScheduler ----------------------------------------------------

TEST(FairSchedulerTest, TwoLevelRoundRobin) {
  FairScheduler sched;
  sched.Add(1, 10);
  sched.Add(1, 11);
  sched.Add(2, 20);
  EXPECT_EQ(sched.size(), 3u);
  uint64_t q = 0;
  // Sessions alternate; within session 1 its two queries alternate.
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 10u);
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 20u);
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 11u);
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 20u);
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 10u);
  sched.Remove(20);
  ASSERT_TRUE(sched.Next(&q));
  EXPECT_EQ(q, 11u);
  sched.Remove(10);
  sched.Remove(11);
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.Next(&q));
}

// --- QueryEngine ------------------------------------------------------

Count SoloCount(const Graph& graph, const std::string& pattern_name,
                const std::vector<int>& data_labels = {},
                const std::vector<int>& pattern_labels = {}) {
  Graph pattern = std::move(GetPattern(pattern_name)).value();
  BenuOptions options;
  options.data_labels = data_labels;
  options.plan.pattern_labels = pattern_labels;
  auto result = RunBenu(graph, pattern, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->run.total_matches;
}

/// Collects done callbacks (which run with the engine lock held — they
/// only record and notify, never reenter the engine).
struct ResultSink {
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, wire::QueryResultInfo> results;

  service::QueryDoneFn For(uint64_t key) {
    return [this, key](const wire::QueryResultInfo& info) {
      std::lock_guard<std::mutex> lk(mu);
      results.emplace(key, info);
      cv.notify_all();
    };
  }
  wire::QueryResultInfo Wait(uint64_t key) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return results.count(key) != 0; });
    return results.at(key);
  }
};

TEST(QueryEngineTest, ConcurrentSessionsMatchSoloCounts) {
  const Graph data = std::move(GenerateErdosRenyi(200, 1600, 7)).value();
  const std::vector<std::string> names = {"q5", "q9", "clique4"};
  std::map<std::string, Count> solo;
  for (const auto& name : names) solo[name] = SoloCount(data, name);

  ServiceConfig config;
  config.execution_threads = 4;
  config.max_active_queries = 16;
  config.db_cache_bytes = 8u << 20;
  auto engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Three sessions each submit all three patterns, interleaved; every
  // count must equal its solo run bit for bit.
  ResultSink sink;
  std::vector<std::pair<uint64_t, std::string>> submitted;
  uint64_t key = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t session = 1; session <= 3; ++session) {
      const std::string& name = names[(round + session) % names.size()];
      wire::QuerySpec spec;
      spec.pattern = name;
      auto id = (*engine)->Submit(session, spec, sink.For(key));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      submitted.emplace_back(key, name);
      ++key;
    }
  }
  for (const auto& [k, name] : submitted) {
    const wire::QueryResultInfo info = sink.Wait(k);
    EXPECT_FALSE(info.cancelled());
    EXPECT_EQ(info.matches, solo[name]) << name;
  }
  (*engine)->Drain();
  const QueryEngine::EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.admitted, 9u);
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.rejected, 0u);
  // Three distinct plan keys: the other six submits hit the cache.
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 6u);
  EXPECT_EQ((*engine)->plan_cache_size(), 3u);
}

TEST(QueryEngineTest, LabeledQueriesMatchSoloCounts) {
  const Graph data = std::move(GenerateErdosRenyi(150, 1200, 11)).value();
  std::vector<int> labels(data.NumVertices());
  for (size_t v = 0; v < labels.size(); ++v) labels[v] = static_cast<int>(v % 3);
  const std::vector<int> pattern_labels = {0, 1, 2};
  const Count solo = SoloCount(data, "triangle", labels, pattern_labels);

  ServiceConfig config;
  config.execution_threads = 2;
  auto engine = QueryEngine::Create(data, config, nullptr, labels);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ResultSink sink;
  wire::QuerySpec spec;
  spec.pattern = "triangle";
  spec.pattern_labels.assign(pattern_labels.begin(), pattern_labels.end());
  auto id = (*engine)->Submit(1, spec, sink.For(0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(sink.Wait(0).matches, solo);

  // Label arity mismatch and labeled-on-unlabeled are submit-time
  // rejections.
  spec.pattern_labels = {0};
  EXPECT_FALSE((*engine)->Submit(1, spec, nullptr).ok());
  auto unlabeled_engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(unlabeled_engine.ok());
  spec.pattern_labels.assign(pattern_labels.begin(), pattern_labels.end());
  auto rejected = (*unlabeled_engine)->Submit(1, spec, nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryEngineTest, CancelStopsResultsAndFreesBudget) {
  // A dense graph and τ=8 produce many small tasks, so a cancel lands
  // while tasks are still unclaimed.
  const Graph data = std::move(GenerateErdosRenyi(300, 6000, 13)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  config.task_split_threshold = 8;
  config.memory_budget_bytes = 64u << 20;
  // The governor's lease policy caps one grant at a quarter of usable
  // headroom, so a reservation must stay under ~20% of the budget.
  config.per_query_reserve_bytes = 8u << 20;
  config.db_cache_bytes = 4u << 20;
  auto engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const uint64_t pinned_before = (*engine)->governor().pinned_bytes();
  ResultSink sink;
  wire::QuerySpec spec;
  spec.pattern = "q9";
  auto id = (*engine)->Submit(1, spec, sink.For(0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_GE((*engine)->governor().pinned_bytes(),
            pinned_before + config.per_query_reserve_bytes);
  (*engine)->Cancel(*id);
  const wire::QueryResultInfo info = sink.Wait(0);
  EXPECT_TRUE(info.cancelled());
  (*engine)->Drain();
  // The 8 MiB reservation is released at finalization; whatever stays
  // pinned is bounded by the (much smaller) cache.
  EXPECT_LT((*engine)->governor().pinned_bytes(),
            pinned_before + config.per_query_reserve_bytes);
  EXPECT_EQ((*engine)->stats().cancelled, 1u);

  // The service stays healthy: the same query re-admitted afterwards
  // produces the full solo count.
  auto rerun = (*engine)->Submit(1, spec, sink.For(1));
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  const wire::QueryResultInfo done = sink.Wait(1);
  EXPECT_FALSE(done.cancelled());
  EXPECT_EQ(done.matches, SoloCount(data, "q9"));
  EXPECT_FALSE((*engine)->Cancel(*rerun));  // already finished
}

TEST(QueryEngineTest, AdmissionControlRejectsDeterministically) {
  const Graph data = std::move(GenerateErdosRenyi(100, 800, 17)).value();
  // Active-query cap of zero: every submit is rejected.
  ServiceConfig config;
  config.execution_threads = 1;
  config.max_active_queries = 0;
  auto engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  wire::QuerySpec spec;
  spec.pattern = "q5";
  auto rejected = (*engine)->Submit(1, spec, nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*engine)->stats().rejected, 1u);

  // Compute cap below any plan's estimated cost: rejected before
  // admission, and counted.
  ServiceConfig cost_config;
  cost_config.execution_threads = 1;
  cost_config.max_plan_cost = 1e-9;
  auto cost_engine = QueryEngine::Create(data, cost_config);
  ASSERT_TRUE(cost_engine.ok());
  auto cost_rejected = (*cost_engine)->Submit(1, spec, nullptr);
  ASSERT_FALSE(cost_rejected.ok());
  EXPECT_EQ(cost_rejected.status().code(), StatusCode::kResourceExhausted);

  // Unknown pattern: kNotFound, also a counted rejection.
  wire::QuerySpec unknown;
  unknown.pattern = "no-such-pattern";
  auto not_found = (*engine)->Submit(1, unknown, nullptr);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ((*engine)->stats().rejected, 2u);
}

TEST(QueryEngineTest, TransportHashValidationMirrorsRunBenu) {
  const Graph data = std::move(GenerateErdosRenyi(120, 900, 19)).value();
  ServiceConfig config;
  config.execution_threads = 1;
  // A transport serving the unrelabeled graph cannot back a relabeling
  // engine: the attested hash differs.
  auto mismatched = QueryEngine::Create(
      data, config, MakeLoopbackTransport(data, 4, true));
  EXPECT_FALSE(mismatched.ok());
  // Serving the relabeled graph works, and counts still match solo.
  const Graph relabeled = data.RelabelByDegree();
  auto engine = QueryEngine::Create(
      data, config, MakeLoopbackTransport(relabeled, 4, true));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ResultSink sink;
  wire::QuerySpec spec;
  spec.pattern = "q5";
  ASSERT_TRUE((*engine)->Submit(1, spec, sink.For(0)).ok());
  EXPECT_EQ(sink.Wait(0).matches, SoloCount(data, "q5"));
}

// --- TCP front end ----------------------------------------------------

std::unique_ptr<ServiceTcpServer> StartServer(const Graph& data,
                                              const ServiceConfig& config) {
  auto engine = QueryEngine::Create(data, config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto server = std::make_unique<ServiceTcpServer>(std::move(*engine));
  EXPECT_TRUE(server->Listen(0).ok());
  EXPECT_TRUE(server->Start().ok());
  return server;
}

TEST(ServiceServerTest, ConcurrentClientsGetSoloCounts) {
  const Graph data = std::move(GenerateErdosRenyi(200, 1600, 23)).value();
  const std::vector<std::string> names = {"q5", "q9", "clique4"};
  std::map<std::string, Count> solo;
  for (const auto& name : names) solo[name] = SoloCount(data, name);

  ServiceConfig config;
  config.execution_threads = 4;
  config.max_active_queries = 16;
  auto server = StartServer(data, config);

  // Three clients, each overlapping all three patterns in flight on one
  // connection, driven from three threads at once.
  std::vector<std::future<void>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::async(std::launch::async, [&, c] {
      auto client = ServiceClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      EXPECT_EQ((*client)->hello().num_vertices, data.NumVertices());
      std::vector<uint16_t> tags;
      for (const auto& name : names) {
        wire::QuerySpec spec;
        spec.pattern = name;
        auto tag = (*client)->StartQuery(spec);
        ASSERT_TRUE(tag.ok()) << tag.status().ToString();
        tags.push_back(*tag);
      }
      for (size_t i = 0; i < names.size(); ++i) {
        auto result = (*client)->Await(tags[i]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->matches, solo[names[i]]) << names[i] << " client "
                                                   << c;
      }
    }));
  }
  for (auto& f : clients) f.get();
  EXPECT_EQ(server->engine().stats().completed, 9u);
}

TEST(ServiceServerTest, CancelOverTheWire) {
  const Graph data = std::move(GenerateErdosRenyi(300, 6000, 29)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  config.task_split_threshold = 8;
  auto server = StartServer(data, config);
  auto client = ServiceClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  wire::QuerySpec spec;
  spec.pattern = "q9";
  auto tag = (*client)->StartQuery(spec);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE((*client)->SendCancel(*tag).ok());
  auto result = (*client)->Await(*tag);
  // Either the cancel landed (cancelled flag) or the query completed
  // first; both are clean outcomes, and the session must stay usable.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rerun = (*client)->Execute(spec);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->matches, SoloCount(data, "q9"));

  // Cancelling a tag with nothing in flight is answered kNotFound
  // without hurting the connection.
  std::vector<uint8_t> cancel;
  wire::AppendCancelRequest(&cancel);
  wire::SetFrameTag(cancel, 0x7ABC);
  // (Sent through a second raw connection so the client's tag table is
  // not confused.)
  auto fd = net::TcpConnect("127.0.0.1", server->port(), 5000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(net::WriteAll(*fd, cancel, 5000).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(net::ReadWireFrame(*fd, &reply, 5000).ok());
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kError);
  EXPECT_EQ(wire::DecodeError(*frame).code(), StatusCode::kNotFound);
  net::CloseFd(*fd);
}

TEST(ServiceServerTest, MalformedQueryFrameDoesNotPoisonSession) {
  const Graph data = std::move(GenerateErdosRenyi(150, 1200, 31)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  auto server = StartServer(data, config);

  auto fd = net::TcpConnect("127.0.0.1", server->port(), 5000);
  ASSERT_TRUE(fd.ok());

  // A well-delimited kQueryRequest with a garbage body: tagged kError,
  // connection survives.
  std::vector<uint8_t> bad;
  wire::AppendHeader(wire::MessageType::kQueryRequest, 0, 4, &bad);
  bad.resize(bad.size() + 4, 0xEE);
  wire::SetFrameTag(bad, 99);
  ASSERT_TRUE(net::WriteAll(*fd, bad, 5000).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(net::ReadWireFrame(*fd, &reply, 5000).ok());
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kError);
  EXPECT_EQ(wire::FrameTag(reply), 99);

  // The same connection still serves a valid query afterwards.
  wire::QuerySpec spec;
  spec.pattern = "q1";
  std::vector<uint8_t> good;
  wire::AppendQueryRequest(spec, &good);
  wire::SetFrameTag(good, 100);
  ASSERT_TRUE(net::WriteAll(*fd, good, 5000).ok());
  ASSERT_TRUE(net::ReadWireFrame(*fd, &reply, 10000).ok());
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->header.type, wire::MessageType::kQueryResult);
  EXPECT_EQ(wire::FrameTag(reply), 100);
  auto info = wire::DecodeQueryResult(*frame);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->matches, SoloCount(data, "q1"));

  // Undecipherable bytes (bad magic): the server kills the connection.
  const uint8_t junk[16] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(net::WriteAll(*fd, junk, 5000).ok());
  EXPECT_FALSE(net::ReadWireFrame(*fd, &reply, 5000).ok());
  net::CloseFd(*fd);
}

TEST(ServiceServerTest, StatsRequestIsRefusedAndSessionKeepsServing) {
  // The service serves no kStatsRequest (that frame is the KV server's):
  // it answers a tagged kError, and the connection keeps serving queries.
  const Graph data = std::move(GenerateErdosRenyi(150, 1200, 41)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  auto server = StartServer(data, config);
  auto fd = net::TcpConnect("127.0.0.1", server->port(), 5000);
  ASSERT_TRUE(fd.ok());

  std::vector<uint8_t> stats;
  wire::AppendStatsRequest(&stats);
  wire::SetFrameTag(stats, 7);
  ASSERT_TRUE(net::WriteAll(*fd, stats, 5000).ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(net::ReadWireFrame(*fd, &reply, 5000).ok());
  auto frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.type, wire::MessageType::kError);
  EXPECT_EQ(wire::FrameTag(reply), 7);
  EXPECT_EQ(wire::DecodeError(*frame).code(), StatusCode::kInvalidArgument);

  wire::QuerySpec spec;
  spec.pattern = "q5";
  std::vector<uint8_t> query;
  wire::AppendQueryRequest(spec, &query);
  wire::SetFrameTag(query, 8);
  ASSERT_TRUE(net::WriteAll(*fd, query, 5000).ok());
  ASSERT_TRUE(net::ReadWireFrame(*fd, &reply, 10000).ok());
  frame = wire::DecodeFrame(reply);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->header.type, wire::MessageType::kQueryResult);
  EXPECT_EQ(wire::FrameTag(reply), 8);
  auto info = wire::DecodeQueryResult(*frame);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->matches, SoloCount(data, "q5"));
  net::CloseFd(*fd);
}

TEST(ServiceServerTest, ProgressFramesArriveForLongQueries) {
  const Graph data = std::move(GenerateErdosRenyi(300, 6000, 37)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  config.task_split_threshold = 8;
  config.progress_interval_tasks = 4;
  auto server = StartServer(data, config);
  auto client = ServiceClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  std::atomic<int> progress_frames{0};
  wire::QuerySpec spec;
  spec.pattern = "q9";
  spec.options = wire::kQueryWantProgress;
  auto result = (*client)->Execute(spec, [&](const wire::QueryProgress& p) {
    EXPECT_LE(p.tasks_done, p.tasks_total);
    progress_frames.fetch_add(1);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->matches, SoloCount(data, "q9"));
  EXPECT_GT(progress_frames.load(), 0);
}

// --- subscribe mode (dynamic graphs) ----------------------------------

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

std::pair<VertexId, VertexId> Norm(VertexId u, VertexId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

EdgeSet EdgesOf(const Graph& g) {
  const auto edges = g.Edges();
  EdgeSet out;
  for (const auto& [u, v] : edges) out.insert(Norm(u, v));
  return out;
}

/// Independent reference: a fresh graph from the current edge set, run
/// through the one-shot driver — no versioned store, no incremental plans.
Count Recount(const std::string& pattern, size_t num_vertices,
              const EdgeSet& edges) {
  Graph g = std::move(Graph::FromEdges(num_vertices,
                                       {edges.begin(), edges.end()}))
                .value();
  return SoloCount(g, pattern);
}

/// First `count` absent vertex pairs in lexicographic order, applied to
/// `edges` as the caller's mirror of the mutation.
std::vector<EdgeDelta> TakeInsertions(EdgeSet* edges, size_t num_vertices,
                                      size_t count) {
  std::vector<EdgeDelta> ops;
  for (VertexId u = 0; u < static_cast<VertexId>(num_vertices); ++u) {
    for (VertexId v = u + 1; v < static_cast<VertexId>(num_vertices); ++v) {
      if (ops.size() == count) return ops;
      if (edges->count({u, v}) != 0) continue;
      ops.push_back({u, v, /*insert=*/true});
      edges->insert({u, v});
    }
  }
  return ops;
}

/// First `count` present edges, removed from `edges` and returned as
/// deletion ops.
std::vector<EdgeDelta> TakeDeletions(EdgeSet* edges, size_t count) {
  std::vector<EdgeDelta> ops;
  while (ops.size() < count && !edges->empty()) {
    const auto [u, v] = *edges->begin();
    ops.push_back({u, v, /*insert=*/false});
    edges->erase(edges->begin());
  }
  return ops;
}

/// Records every done-callback fire (subscriptions fire twice: baseline,
/// then terminal) and every match delta.
struct SubscribeSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<wire::QueryResultInfo> fires;
  std::vector<wire::MatchDelta> deltas;

  service::QueryDoneFn Done() {
    return [this](const wire::QueryResultInfo& info) {
      std::lock_guard<std::mutex> lk(mu);
      fires.push_back(info);
      cv.notify_all();
    };
  }
  service::QueryDeltaFn Delta() {
    return [this](const wire::MatchDelta& d) {
      std::lock_guard<std::mutex> lk(mu);
      deltas.push_back(d);
      cv.notify_all();
    };
  }
  wire::QueryResultInfo WaitFire(size_t index) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return fires.size() > index; });
    return fires[index];
  }
  wire::MatchDelta WaitDelta(size_t index) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return deltas.size() > index; });
    return deltas[index];
  }
};

TEST(QueryEngineSubscribeTest, IncrementalTotalsMatchRecompute) {
  const Graph data = std::move(GenerateErdosRenyi(80, 400, 43)).value();
  const size_t n = data.NumVertices();
  ServiceConfig config;
  config.execution_threads = 2;
  auto engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Subscribe + VCBC is a submit-time rejection (codes cannot be
  // retracted), as are labeled subscriptions.
  wire::QuerySpec bad;
  bad.pattern = "triangle";
  bad.options = wire::kQueryVcbc | wire::kQuerySubscribe;
  auto rejected = (*engine)->Submit(1, bad, nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  SubscribeSink sink;
  wire::QuerySpec spec;
  spec.pattern = "triangle";
  spec.options = wire::kQuerySubscribe;
  auto id = (*engine)->Submit(1, spec, sink.Done(), nullptr, sink.Delta());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Baseline fire is non-terminal and exact.
  EdgeSet edges = EdgesOf(data);
  const wire::QueryResultInfo baseline = sink.WaitFire(0);
  EXPECT_FALSE(baseline.cancelled());
  EXPECT_EQ(baseline.matches, Recount("triangle", n, edges));
  EXPECT_EQ((*engine)->stats().subscriptions, 1u);

  // Deltas target epoch()+1 with in-universe endpoints, in original ids.
  const EdgeDelta out_of_universe{static_cast<VertexId>(n + 5), 0, true};
  EXPECT_EQ((*engine)
                ->StageDelta(1, std::span<const EdgeDelta>(&out_of_universe, 1))
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<EdgeDelta> ins = TakeInsertions(&edges, n, 12);
  EXPECT_EQ((*engine)->StageDelta(7, ins).code(),
            StatusCode::kFailedPrecondition);

  // Epoch 1: insertions. The streamed total matches a recompute.
  ASSERT_TRUE((*engine)->StageDelta(1, ins).ok());
  auto e1 = (*engine)->CommitEpoch(1);
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(*e1, 1u);
  EXPECT_EQ((*engine)->epoch(), 1u);
  const wire::MatchDelta d1 = sink.WaitDelta(0);
  EXPECT_EQ(d1.epoch, 1u);
  EXPECT_EQ(d1.total, baseline.matches + d1.added - d1.retracted);
  EXPECT_EQ(d1.total, Recount("triangle", n, edges));

  // Epoch 2: deletions retract matches through the same plans.
  std::vector<EdgeDelta> del = TakeDeletions(&edges, 24);
  ASSERT_TRUE((*engine)->StageDelta(2, del).ok());
  auto e2 = (*engine)->CommitEpoch(2);
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  const wire::MatchDelta d2 = sink.WaitDelta(1);
  EXPECT_EQ(d2.epoch, 2u);
  EXPECT_EQ(d2.total, d1.total + d2.added - d2.retracted);
  EXPECT_EQ(d2.total, Recount("triangle", n, edges));
  EXPECT_GT(d2.retracted, 0u);

  // Cancel terminates the subscription: the second done fire carries the
  // cancelled flag and the last maintained total.
  EXPECT_TRUE((*engine)->Cancel(*id));
  const wire::QueryResultInfo terminal = sink.WaitFire(1);
  EXPECT_TRUE(terminal.cancelled());
  EXPECT_EQ(terminal.matches, d2.total);
  EXPECT_EQ((*engine)->stats().subscriptions, 0u);
  (*engine)->Drain();
}

TEST(QueryEngineSubscribeTest, SubscriptionsMatchDynamicRunnerPerEpoch) {
  // Both front ends run the one S-BENU epoch step (MaintainEpoch): two
  // live subscriptions of one engine must report, epoch by epoch, what a
  // DynamicRunner per pattern reports for the same ops. The engine
  // relabels by degree and the runners do not; match counts are
  // invariant under relabeling, so the figures must be equal anyway.
  const Graph data = std::move(GenerateErdosRenyi(80, 400, 43)).value();
  const size_t n = data.NumVertices();
  const std::vector<std::string> patterns = {"triangle", "q5"};
  // Declared before the engine: its teardown fires the subscriptions'
  // terminal done callbacks into these sinks.
  std::vector<std::unique_ptr<SubscribeSink>> sinks;
  std::vector<std::unique_ptr<DynamicRunner>> runners;
  ServiceConfig config;
  config.execution_threads = 2;
  auto engine = QueryEngine::Create(data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  for (const std::string& name : patterns) {
    sinks.push_back(std::make_unique<SubscribeSink>());
    wire::QuerySpec spec;
    spec.pattern = name;
    spec.options = wire::kQuerySubscribe;
    auto id = (*engine)->Submit(1, spec, sinks.back()->Done(), nullptr,
                                sinks.back()->Delta());
    ASSERT_TRUE(id.ok()) << name << ": " << id.status().ToString();
    auto runner = DynamicRunner::Create(
        MakeSimulatedTransport(data, 4, /*compress=*/true),
        std::move(GetPattern(name)).value());
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    auto baseline = (*runner)->RunBaseline();
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(sinks.back()->WaitFire(0).matches, *baseline) << name;
    runners.push_back(std::move(runner).value());
  }
  EXPECT_EQ((*engine)->stats().subscriptions, 2u);

  // Each epoch's ops, and the edge set they leave behind.
  EdgeSet edges = EdgesOf(data);
  std::vector<std::vector<EdgeDelta>> epochs;
  std::vector<EdgeSet> after;
  // Insert-only.
  epochs.push_back(TakeInsertions(&edges, n, 16));
  after.push_back(edges);
  // Mixed: deletions and insertions in one batch.
  epochs.push_back(TakeDeletions(&edges, 20));
  for (const EdgeDelta& op : TakeInsertions(&edges, n, 10)) {
    epochs.back().push_back(op);
  }
  after.push_back(edges);
  // Ops that cancel to a no-op: an absent edge inserted then deleted, a
  // present edge deleted then re-inserted, and a redundant insert.
  const auto [pu, pv] = *edges.begin();
  std::vector<EdgeDelta> absent = TakeInsertions(&edges, n, 1);
  edges.erase(Norm(absent[0].u, absent[0].v));
  epochs.push_back({absent[0],
                    {absent[0].u, absent[0].v, /*insert=*/false},
                    {pu, pv, /*insert=*/false},
                    {pu, pv, /*insert=*/true},
                    {pu, pv, /*insert=*/true}});
  after.push_back(edges);

  for (size_t e = 0; e < epochs.size(); ++e) {
    const uint64_t target = e + 1;
    ASSERT_TRUE((*engine)->StageDelta(target, epochs[e]).ok());
    auto committed = (*engine)->CommitEpoch(target);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_EQ(*committed, target);
    for (size_t p = 0; p < patterns.size(); ++p) {
      auto report = runners[p]->ApplyBatch(epochs[e]);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      const wire::MatchDelta delta = sinks[p]->WaitDelta(e);
      SCOPED_TRACE(patterns[p] + " epoch " + std::to_string(target));
      EXPECT_EQ(delta.epoch, report->epoch);
      EXPECT_EQ(delta.added, report->added);
      EXPECT_EQ(delta.retracted, report->retracted);
      EXPECT_EQ(delta.total, report->total);
      EXPECT_EQ(delta.total, Recount(patterns[p], n, after[e]));
      if (e == 0) EXPECT_GT(delta.added, 0u);
      if (e == 1) EXPECT_GT(delta.retracted, 0u);
      if (e == 2) {
        EXPECT_EQ(report->net_inserted + report->net_removed, 0u);
        EXPECT_EQ(delta.added + delta.retracted, 0u);
      }
    }
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_EQ(sinks[p]->deltas.size(), epochs.size());
  }
}

TEST(ServiceServerTest, SubscribeOverTheWire) {
  const Graph data = std::move(GenerateErdosRenyi(80, 400, 47)).value();
  const size_t n = data.NumVertices();
  ServiceConfig config;
  config.execution_threads = 2;
  auto server = StartServer(data, config);
  auto client = ServiceClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->hello().flags, wire::kHelloSupportsQueries);
  EXPECT_EQ((*client)->hello().epoch, 0u);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<wire::MatchDelta> deltas;
  wire::QuerySpec spec;
  spec.pattern = "triangle";
  auto tag = (*client)->Subscribe(spec, [&](const wire::MatchDelta& d) {
    std::lock_guard<std::mutex> lk(mu);
    deltas.push_back(d);
    cv.notify_all();
  });
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();

  EdgeSet edges = EdgesOf(data);
  auto baseline = (*client)->AwaitBaseline(*tag);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->matches, Recount("triangle", n, edges));

  // Epoch 1 over the wire: push, advance, receive the kMatchDelta.
  std::vector<EdgeDelta> ins = TakeInsertions(&edges, n, 12);
  auto staged = (*client)->PushDelta(1, ins);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(*staged, 0u);  // staging does not advance the epoch
  auto e1 = (*client)->AdvanceEpoch(1);
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(*e1, 1u);
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return deltas.size() >= 1; });
    EXPECT_EQ(deltas[0].epoch, 1u);
    EXPECT_EQ(deltas[0].total, Recount("triangle", n, edges));
  }

  // Epoch 2: deletions retract over the wire too.
  std::vector<EdgeDelta> del = TakeDeletions(&edges, 24);
  ASSERT_TRUE((*client)->PushDelta(2, del).ok());
  ASSERT_TRUE((*client)->AdvanceEpoch(2).ok());
  uint64_t maintained = 0;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return deltas.size() >= 2; });
    EXPECT_EQ(deltas[1].epoch, 2u);
    EXPECT_GT(deltas[1].retracted, 0u);
    EXPECT_EQ(deltas[1].total, Recount("triangle", n, edges));
    maintained = deltas[1].total;
  }

  // A wrong-target advance is a tagged error; the connection survives.
  EXPECT_FALSE((*client)->AdvanceEpoch(9).ok());

  // Cancel retires the subscription with the maintained total.
  ASSERT_TRUE((*client)->SendCancel(*tag).ok());
  auto terminal = (*client)->Await(*tag);
  ASSERT_TRUE(terminal.ok()) << terminal.status().ToString();
  EXPECT_TRUE(terminal->cancelled());
  EXPECT_EQ(terminal->matches, maintained);

  // The same connection still serves one-shot queries, and they see the
  // post-delta graph.
  wire::QuerySpec oneshot;
  oneshot.pattern = "q5";
  auto rerun = (*client)->Execute(oneshot);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->matches, Recount("q5", n, edges));
}

// --- service.* metrics docs coverage ----------------------------------

// Every service.* instrument the engine can emit must be documented in
// docs/metrics.md (same backtick convention as the global metrics test).
TEST(ServiceMetricsTest, DocsListEveryServiceInstrument) {
  metrics::SetTracingEnabled(true);
  const Graph data = std::move(GenerateErdosRenyi(100, 800, 41)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  config.max_active_queries = 0;  // force one rejection too
  {
    auto rejecting = QueryEngine::Create(data, config);
    ASSERT_TRUE(rejecting.ok());
    wire::QuerySpec spec;
    spec.pattern = "q5";
    (void)(*rejecting)->Submit(1, spec, nullptr);
  }
  config.max_active_queries = 4;
  {
    auto engine = QueryEngine::Create(data, config);
    ASSERT_TRUE(engine.ok());
    ResultSink sink;
    wire::QuerySpec spec;
    spec.pattern = "q5";
    auto a = (*engine)->Submit(1, spec, sink.For(0));
    ASSERT_TRUE(a.ok());
    sink.Wait(0);
    auto b = (*engine)->Submit(1, spec, sink.For(1));  // plan-cache hit
    ASSERT_TRUE(b.ok());
    (*engine)->Cancel(*b);
    (*engine)->Drain();
  }
  metrics::SetTracingEnabled(false);

  std::ifstream docs(std::string(BENU_SOURCE_DIR) + "/docs/metrics.md");
  ASSERT_TRUE(docs.is_open()) << "docs/metrics.md not found";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(docs, line)) {
    size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const size_t end = line.find('`', pos + 1);
      if (end == std::string::npos) break;
      documented.insert(line.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
  }
  const metrics::MetricsSnapshot snapshot =
      metrics::MetricsRegistry::Global().Snapshot();
  size_t service_instruments = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.name.rfind("service.", 0) != 0) continue;
    ++service_instruments;
    EXPECT_TRUE(documented.count(entry.name) == 1)
        << "instrument `" << entry.name
        << "` is emitted but not documented in docs/metrics.md";
  }
  // The registry must actually contain the service family (the coverage
  // loop above is vacuous otherwise).
  EXPECT_GE(service_instruments, 8u);
}

}  // namespace
}  // namespace benu
