// Tests of the shared epoll EventLoop under both TCP servers, driven
// from raw sockets: EPOLLOUT backpressure (a client that pipelines far
// more replies than the socket buffers hold before it reads any), and
// half-closed peers.

#include "storage/event_loop.h"

#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/wire.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "service/query_engine.h"
#include "service/service_server.h"
#include "storage/kv_tcp_server.h"
#include "storage/socket_io.h"
#include "storage/transport.h"

namespace benu {
namespace {

using service::QueryEngine;
using service::ServiceConfig;
using service::ServiceTcpServer;

constexpr int kTimeoutMs = 60000;

/// Connects to 127.0.0.1:`port` with a tiny receive buffer, so a client
/// that does not read stalls the server's sends after a few KiB.
int ConnectSmallWindow(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// The most a connection can hold in flight without the server keeping
/// bytes of its own: the kernel's largest TCP send buffer plus the
/// client's receive buffer. Replies beyond it must wait in the event
/// loop's output buffer for EPOLLOUT.
size_t KernelBufferBound(int client_fd) {
  size_t wmem_max = 4u << 20;
  std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem");
  size_t lo = 0, def = 0, max = 0;
  if (wmem >> lo >> def >> max) wmem_max = max;
  int rcvbuf = 0;
  socklen_t len = sizeof(rcvbuf);
  getsockopt(client_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len);
  return wmem_max + static_cast<size_t>(rcvbuf);
}

/// Waits until the client's receive queue stops growing and returns its
/// size — with a full window, far below what the server produced.
int SettledInboundBytes(int fd) {
  int last = -1;
  for (int stable = 0; stable < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    int now = 0;
    ioctl(fd, FIONREAD, &now);
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  return last;
}

// --- KV server --------------------------------------------------------

TEST(KvBackpressureTest, PipelinedBatchesArriveInOrderAfterTheWindowFills) {
  // Dense enough that one batch over every vertex replies ~1.2 MB raw.
  const Graph graph =
      std::move(GenerateErdosRenyi(3000, 150000, /*seed=*/5)).value();
  constexpr size_t kPartitions = 2;
  KvTcpServer server(&graph, kPartitions, /*num_servers=*/1, 0);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  auto loopback = MakeLoopbackTransport(graph, kPartitions, false);

  const int fd = ConnectSmallWindow(server.port());
  std::vector<VertexId> keys(graph.NumVertices());
  for (VertexId v = 0; v < keys.size(); ++v) keys[v] = (v * 7919) % keys.size();
  size_t reply_bytes_per_batch = 0;
  for (VertexId v : keys) {
    reply_bytes_per_batch += wire::AdjacencyReplyBytes(graph.Degree(v));
  }
  const size_t batches =
      KernelBufferBound(fd) * 2 / reply_bytes_per_batch + 1;
  ASSERT_GT(batches * reply_bytes_per_batch, KernelBufferBound(fd));

  // Pipeline every request before reading a single reply byte. Raw
  // replies (no encoding flag) keep the volume high.
  std::vector<uint8_t> requests;
  for (size_t b = 0; b < batches; ++b) {
    const size_t start = requests.size();
    wire::AppendBatchGetRequest(keys, &requests);
    wire::SetFrameTag(std::span<uint8_t>(requests).subspan(start),
                      static_cast<uint16_t>(b + 1));
  }
  ASSERT_TRUE(net::WriteAll(fd, requests, kTimeoutMs).ok());
  EXPECT_LT(static_cast<size_t>(SettledInboundBytes(fd)),
            batches * reply_bytes_per_batch);

  // Drain: batch b's replies carry tag b+1, in key order, and equal the
  // loopback transport's payloads.
  std::vector<uint8_t> buf;
  for (size_t b = 0; b < batches; ++b) {
    for (VertexId key : keys) {
      ASSERT_TRUE(net::ReadWireFrame(fd, &buf, kTimeoutMs).ok());
      auto frame = wire::DecodeFrame(buf);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(wire::FrameTag(buf), b + 1);
      VertexId got_key = kInvalidVertex;
      VertexSet got;
      ASSERT_TRUE(wire::DecodeAdjacencyReply(*frame, &got_key, &got).ok());
      ASSERT_EQ(got_key, key);
      auto want = loopback->Fetch(key);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(got, *want->decoded) << "key " << key;
    }
  }
  net::CloseFd(fd);
}

TEST(KvBackpressureTest, HalfClosedPeerGetsEveryReplyThenEof) {
  const Graph graph = MakeCycle(64);
  KvTcpServer server(&graph, 1, 1, 0);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  auto fd = net::TcpConnect("127.0.0.1", server.port(), kTimeoutMs);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> requests;
  for (VertexId v = 0; v < 64; ++v) wire::AppendGetRequest(v, &requests);
  ASSERT_TRUE(net::WriteAll(*fd, requests, kTimeoutMs).ok());
  ASSERT_EQ(shutdown(*fd, SHUT_WR), 0);
  std::vector<uint8_t> buf;
  for (VertexId v = 0; v < 64; ++v) {
    ASSERT_TRUE(net::ReadWireFrame(*fd, &buf, kTimeoutMs).ok()) << v;
    EXPECT_EQ(wire::DecodeFrame(buf)->header.aux, v);
  }
  EXPECT_EQ(net::ReadWireFrame(*fd, &buf, kTimeoutMs).code(),
            StatusCode::kUnavailable);  // the server closed after flushing
  net::CloseFd(*fd);
}

// --- service ----------------------------------------------------------

std::unique_ptr<ServiceTcpServer> StartService(const Graph& data,
                                               ServiceConfig config) {
  auto engine = QueryEngine::Create(data, config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto server = std::make_unique<ServiceTcpServer>(std::move(*engine));
  EXPECT_TRUE(server->Listen(0).ok());
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Count SoloCount(const Graph& data, const std::string& pattern_name) {
  auto result =
      RunBenu(data, std::move(GetPattern(pattern_name)).value(), {});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->run.total_matches;
}

struct TagLog {
  size_t progress = 0;
  uint64_t last_tasks_done = 0;
  int results = 0;
  uint64_t matches = 0;
};

TEST(ServiceBackpressureTest, ManyTaggedQueriesOnOneConnection) {
  // Every finished task of every query posts a progress frame from an
  // engine thread: the outbox → Nudge → flush path produces far more
  // than the socket buffers hold while the client reads nothing.
  const Graph data =
      std::move(GenerateErdosRenyi(2000, 8000, /*seed=*/9)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  config.max_active_queries = 1024;
  config.progress_interval_tasks = 1;
  wire::QuerySpec spec;
  spec.pattern = "triangle";
  spec.options = wire::kQueryWantProgress;
  const Count want = SoloCount(data, spec.pattern);
  auto server = StartService(data, config);

  const int fd = ConnectSmallWindow(server->port());
  const size_t bound = KernelBufferBound(fd);
  // A progress frame is 40 bytes, and a query runs about one task per
  // data vertex: this many queries overflow the bound about twice over.
  const size_t queries = bound * 2 / (40 * data.NumVertices()) + 1;
  ASSERT_LT(queries, size_t{wire::kTagMask});
  std::vector<uint8_t> requests;
  for (size_t q = 1; q <= queries; ++q) {
    const size_t start = requests.size();
    wire::AppendQueryRequest(spec, &requests);
    wire::SetFrameTag(std::span<uint8_t>(requests).subspan(start),
                      static_cast<uint16_t>(q));
  }
  ASSERT_TRUE(net::WriteAll(fd, requests, kTimeoutMs).ok());
  const int settled = SettledInboundBytes(fd);

  std::map<uint16_t, TagLog> logs;
  size_t received = 0;
  size_t answered = 0;
  std::vector<uint8_t> buf;
  while (answered < queries) {
    ASSERT_TRUE(net::ReadWireFrame(fd, &buf, kTimeoutMs).ok());
    received += buf.size();
    auto frame = wire::DecodeFrame(buf);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const uint16_t tag = wire::FrameTag(buf);
    ASSERT_GE(tag, 1);
    ASSERT_LE(tag, queries);
    TagLog& log = logs[tag];
    ASSERT_EQ(log.results, 0) << "frame after the terminal result, tag "
                              << tag;
    if (frame->header.type == wire::MessageType::kProgress) {
      auto progress = wire::DecodeProgress(*frame);
      ASSERT_TRUE(progress.ok());
      EXPECT_GE(progress->tasks_done, log.last_tasks_done);
      log.last_tasks_done = progress->tasks_done;
      ++log.progress;
      continue;
    }
    ASSERT_EQ(frame->header.type, wire::MessageType::kQueryResult)
        << wire::DecodeError(*frame).ToString();
    auto result = wire::DecodeQueryResult(*frame);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->cancelled());
    log.results = 1;
    log.matches = result->matches;
    ++answered;
  }
  ASSERT_EQ(logs.size(), queries);
  for (const auto& [tag, log] : logs) {
    EXPECT_EQ(log.matches, want) << "tag " << tag;
    EXPECT_GT(log.progress, 0u) << "tag " << tag;
  }
  // The replies overflowed every kernel buffer, so the server held the
  // rest until EPOLLOUT said the client had drained.
  EXPECT_GT(received, bound);
  EXPECT_LT(static_cast<size_t>(settled), received);
  net::CloseFd(fd);
}

TEST(ServiceBackpressureTest, HalfClosedPeerStillGetsItsQueryResults) {
  const Graph data =
      std::move(GenerateErdosRenyi(300, 2400, /*seed=*/13)).value();
  ServiceConfig config;
  config.execution_threads = 2;
  wire::QuerySpec spec;
  spec.pattern = "q5";
  const Count want = SoloCount(data, spec.pattern);
  auto server = StartService(data, config);

  auto fd = net::TcpConnect("127.0.0.1", server->port(), kTimeoutMs);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> requests;
  for (uint16_t tag = 1; tag <= 4; ++tag) {
    const size_t start = requests.size();
    wire::AppendQueryRequest(spec, &requests);
    wire::SetFrameTag(std::span<uint8_t>(requests).subspan(start), tag);
  }
  ASSERT_TRUE(net::WriteAll(*fd, requests, kTimeoutMs).ok());
  ASSERT_EQ(shutdown(*fd, SHUT_WR), 0);
  std::vector<uint8_t> buf;
  std::map<uint16_t, uint64_t> results;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(net::ReadWireFrame(*fd, &buf, kTimeoutMs).ok());
    auto frame = wire::DecodeFrame(buf);
    ASSERT_TRUE(frame.ok());
    auto result = wire::DecodeQueryResult(*frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results[wire::FrameTag(buf)] = result->matches;
  }
  EXPECT_EQ(results, (std::map<uint16_t, uint64_t>{
                         {1, want}, {2, want}, {3, want}, {4, want}}));
  // Nothing left in flight: the server closes the connection.
  EXPECT_EQ(net::ReadWireFrame(*fd, &buf, kTimeoutMs).code(),
            StatusCode::kUnavailable);
  net::CloseFd(*fd);
}

}  // namespace
}  // namespace benu
