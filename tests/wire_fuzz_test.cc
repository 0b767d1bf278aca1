// Deterministic mutation fuzzing of the wire protocol. A corpus of one
// valid frame per message type is mutated with seeded bit flips,
// truncations, payload-length lies and every version byte 0–255, then
// fed to the shared frame-delimiting rule (wire::FrameSize), every
// wire::Decode*, KvPartitionServer::HandleFrame, and both live TCP
// servers. The contract:
//   - nothing crashes (the ASan/UBSan CI jobs run this suite);
//   - a delimited but malformed frame gets a kError carrying its tag,
//     and its connection keeps serving;
//   - an undelimitable stream (bad magic, payload over
//     wire::kMaxPayloadBytes) closes only that connection.

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/wire.h"
#include "graph/adj_codec.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "service/service_server.h"
#include "storage/kv_server.h"
#include "storage/kv_tcp_server.h"
#include "storage/socket_io.h"
#include "storage/transport.h"

namespace benu {
namespace {

using Bytes = std::vector<uint8_t>;

constexpr int kTimeoutMs = 30000;
/// Mutated frames whose announced payload exceeds this are only fed to
/// the delimiting rule and the decoders, never padded out and served.
constexpr size_t kMaxServedFrame = 1u << 16;

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void WriteU32(uint8_t* p, uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<uint8_t>(v >> (8 * b));
}

/// One valid frame of every message type, each with a nonzero tag.
std::vector<Bytes> Corpus() {
  std::vector<Bytes> corpus;
  auto add = [&](auto&& append) {
    Bytes frame;
    append(&frame);
    wire::SetFrameTag(frame, static_cast<uint16_t>(corpus.size() + 1));
    corpus.push_back(std::move(frame));
  };
  const VertexSet adjacency{1, 4, 9, 300, 70000};
  codec::EncodedSet encoded;
  codec::Encode(VertexSetView(adjacency), &encoded);
  const VertexId keys[] = {0, 3, 5, 7};
  const EdgeDelta ops[] = {{1, 2, true}, {3, 4, false}};
  add([](Bytes* f) { wire::AppendHelloRequest(f); });
  add([](Bytes* f) {
    wire::AppendHelloReply({40, 4, 2, 1, 0, 1, wire::kHelloSupportsEncoded,
                            0xdeadbeef, 3},
                           f);
  });
  add([](Bytes* f) { wire::AppendGetRequest(5, f); });
  add([](Bytes* f) { wire::AppendGetRequest(6, f, /*want_encoded=*/true); });
  add([&](Bytes* f) {
    wire::AppendAdjacencyReply(9, VertexSetView(adjacency), f);
  });
  add([&](Bytes* f) { wire::AppendEncodedAdjacencyReply(9, encoded, f); });
  add([&](Bytes* f) { wire::AppendBatchGetRequest(keys, f); });
  add([&](Bytes* f) { wire::AppendBatchGetRequest(keys, f, true); });
  add([](Bytes* f) { wire::AppendStatsRequest(f); });
  add([](Bytes* f) { wire::AppendStatsReply({1, 2, 3}, f); });
  add([](Bytes* f) {
    wire::AppendError(StatusCode::kNotFound, "no such key", f);
  });
  add([](Bytes* f) {
    wire::AppendQueryRequest({"triangle", {}, wire::kQueryWantProgress}, f);
  });
  add([](Bytes* f) { wire::AppendQueryRequest({"q5", {0, 1, 0, 1}, 0}, f); });
  add([](Bytes* f) { wire::AppendQueryResult({10, 2, 7, 99, 0}, f); });
  add([](Bytes* f) { wire::AppendCancelRequest(f); });
  add([](Bytes* f) { wire::AppendProgress({3, 9, 12}, f); });
  add([&](Bytes* f) { wire::AppendApplyDelta(1, ops, f); });
  add([](Bytes* f) { wire::AppendEpochAdvance(1, f); });
  add([](Bytes* f) { wire::AppendMatchDelta({1, 2, 3, 4}, f); });
  add([](Bytes* f) { wire::AppendDeltaAck(1, f); });
  return corpus;
}

/// One seeded mutation: bit flips, a truncation, or a payload-length
/// lie (the version byte gets its own exhaustive sweep).
Bytes Mutate(const Bytes& frame, Rng& rng) {
  Bytes out = frame;
  switch (rng.NextBounded(3)) {
    case 0: {  // 1–8 bit flips anywhere, header included
      const uint64_t flips = 1 + rng.NextBounded(8);
      for (uint64_t i = 0; i < flips; ++i) {
        out[rng.NextBounded(out.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 1:  // truncation, possibly into the header
      out.resize(rng.NextBounded(out.size()));
      break;
    default: {  // the header lies about the payload length
      const uint32_t actual = static_cast<uint32_t>(out.size()) - 16;
      const uint32_t lies[] = {
          static_cast<uint32_t>(rng.NextBounded(actual + 1)),
          actual + 1 + static_cast<uint32_t>(rng.NextBounded(64)),
          static_cast<uint32_t>(rng.NextBounded(wire::kMaxPayloadBytes)),
          wire::kMaxPayloadBytes + 1 +
              static_cast<uint32_t>(rng.NextBounded(1u << 20)),
          0xFFFFFFFFu};
      WriteU32(out.data() + 12, lies[rng.NextBounded(5)]);
      break;
    }
  }
  return out;
}

/// Runs every typed decoder over a decoded frame; each must return
/// (success or a Status) without touching bytes outside the payload.
void DecodeEverything(const wire::Frame& frame) {
  VertexId key = 0;
  VertexSet set;
  AdjacencyPayload payload;
  uint64_t epoch = 0;
  std::vector<EdgeDelta> ops;
  (void)wire::DecodeGetRequest(frame);
  (void)wire::DecodeAdjacencyReply(frame, &key, &set);
  (void)wire::DecodeEncodedAdjacencyReply(frame, &key, &set);
  (void)DecodeAdjacencyPayload(frame, /*num_vertices=*/1u << 20, &key,
                               &payload);
  (void)wire::DecodeBatchGetRequest(frame);
  (void)wire::DecodeHelloReply(frame);
  (void)wire::DecodeStatsReply(frame);
  (void)wire::DecodeError(frame);
  (void)wire::DecodeQueryRequest(frame);
  (void)wire::DecodeQueryResult(frame);
  (void)wire::DecodeCancelRequest(frame);
  (void)wire::DecodeProgress(frame);
  (void)wire::DecodeApplyDelta(frame, &epoch, &ops);
  (void)wire::DecodeEpochAdvance(frame);
  (void)wire::DecodeMatchDelta(frame);
  (void)wire::DecodeDeltaAck(frame);
}

/// Pads or cuts a mutated buffer to exactly the length its header
/// announces (random filler), so the result is one delimited frame as
/// the event loop would hand it to a server. False when the buffer has
/// no delimitable header or announces more than kMaxServedFrame.
bool MakeDelimited(Bytes* buf, Rng& rng) {
  if (buf->size() < wire::kHeaderBytes) return false;
  auto size = wire::FrameSize(*buf);
  if (!size.ok() || *size > kMaxServedFrame) return false;
  const size_t old_size = buf->size();
  buf->resize(*size);
  for (size_t i = old_size; i < buf->size(); ++i) {
    (*buf)[i] = static_cast<uint8_t>(rng.Next());
  }
  return true;
}

/// True iff `frame` decodes to a subscribe query, which stays in flight
/// until cancelled — so a half-closed connection carrying one is kept
/// open on purpose.
bool OpensSubscription(const Bytes& frame) {
  auto decoded = wire::DecodeFrame(frame);
  if (!decoded.ok()) return false;
  auto spec = wire::DecodeQueryRequest(*decoded);
  return spec.ok() && spec->want_subscribe();
}

/// Checks that `replies` is a sequence of well-formed frames all carrying
/// `tag`; returns them.
std::vector<wire::Frame> ExpectTaggedFrames(const Bytes& replies,
                                            uint16_t tag) {
  std::vector<wire::Frame> frames;
  std::span<const uint8_t> rest(replies);
  while (!rest.empty()) {
    auto frame = wire::DecodeFrame(rest);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) break;
    EXPECT_EQ(wire::FrameTag(rest), tag);
    frames.push_back(*frame);
    rest = rest.subspan(frame->frame_bytes);
  }
  return frames;
}

// --- the delimiting rule and the decoders -----------------------------

TEST(WireFuzzTest, MutatedFramesNeverBreakTheSplitterOrDecoders) {
  const std::vector<Bytes> corpus = Corpus();
  Rng rng(20260101);
  size_t decoded = 0;
  size_t undelimitable = 0;
  for (const Bytes& original : corpus) {
    ASSERT_TRUE(wire::DecodeFrame(original).ok());
    for (int i = 0; i < 2000; ++i) {
      const Bytes buf = Mutate(original, rng);
      if (buf.size() >= wire::kHeaderBytes) {
        auto size = wire::FrameSize(buf);
        const bool delimitable = ReadU32(buf.data()) == wire::kMagic &&
                                 ReadU32(buf.data() + 12) <=
                                     wire::kMaxPayloadBytes;
        ASSERT_EQ(size.ok(), delimitable);
        if (size.ok()) {
          EXPECT_EQ(*size, wire::kHeaderBytes + ReadU32(buf.data() + 12));
        } else {
          EXPECT_EQ(size.status().code(), StatusCode::kInvalidArgument);
          ++undelimitable;
        }
      }
      auto frame = wire::DecodeFrame(buf);
      if (!frame.ok()) {
        EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ++decoded;
      // A decodable frame is delimitable, and both agree on its size.
      auto size = wire::FrameSize(buf);
      ASSERT_TRUE(size.ok());
      EXPECT_EQ(*size, frame->frame_bytes);
      EXPECT_LE(frame->frame_bytes, buf.size());
      DecodeEverything(*frame);
    }
  }
  // The mutations reach both sides of every check.
  EXPECT_GT(decoded, 4000u);
  EXPECT_GT(undelimitable, 400u);
}

// The client decodes an encoded adjacency reply once, where it enters
// the process (DecodeAdjacencyPayload): the codec's adversarial streams
// and random byte soup must reach that decoder as errors, never crashes,
// and whatever it accepts must be a sorted in-range set.
TEST(WireFuzzTest, EncodedRepliesAreCheckedWhereTheyEnterTheProcess) {
  constexpr size_t kVertices = 1000;
  const auto decode = [&](uint32_t count, const Bytes& stream,
                          AdjacencyPayload* payload) {
    codec::EncodedSet set;
    set.count = count;
    set.bytes = stream;
    Bytes buf;
    wire::AppendEncodedAdjacencyReply(/*key=*/3, set, &buf);
    auto frame = wire::DecodeFrame(buf);
    EXPECT_TRUE(frame.ok());
    VertexId key = kInvalidVertex;
    return DecodeAdjacencyPayload(*frame, kVertices, &key, payload);
  };
  const struct {
    const char* what;
    Bytes stream;
    uint32_t count;
  } malformed[] = {
      {"truncated mid-varint", {0x80}, 1},
      {"missing values", {0x01}, 2},
      {"trailing bytes", {0x01, 0x01}, 1},
      {"zero delta", {0x01, 0x00}, 2},
      {"varint too long", {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1},
      {"non-minimal varint", {0x81, 0x00}, 1},
      {"delta over 2^32", {0xFF, 0xFF, 0xFF, 0xFF, 0x1F}, 1},
      {"sequence overflows u32", {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x02}, 2},
      {"count without bytes", {}, 1},
      {"count past the stream", {0x01, 0x01}, 0xFFFFFFFFu},
      {"id past the graph", {0xE9, 0x07}, 1},  // {1000}
  };
  for (const auto& c : malformed) {
    AdjacencyPayload payload;
    const Status st = decode(c.count, c.stream, &payload);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(payload.decoded, nullptr) << c.what;
  }
  Rng rng(4711);
  size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes stream(rng.NextBounded(48));
    for (auto& b : stream) b = static_cast<uint8_t>(rng.NextBounded(128));
    if (!stream.empty() && rng.NextBounded(4) == 0) {
      stream[rng.NextBounded(stream.size())] |= 0x80;
    }
    // Half the trials announce one value per byte, the count a stream
    // of single-byte varints needs.
    const auto count = static_cast<uint32_t>(
        rng.NextBounded(2) == 0 ? stream.size() : rng.NextBounded(64));
    AdjacencyPayload payload;
    if (!decode(count, stream, &payload).ok()) continue;
    ++accepted;
    ASSERT_NE(payload.decoded, nullptr);
    const VertexSet& set = *payload.decoded;
    ASSERT_EQ(set.size(), count);
    EXPECT_TRUE(std::adjacent_find(set.begin(), set.end(),
                                   std::greater_equal<VertexId>()) ==
                set.end());
    if (!set.empty()) {
      EXPECT_LT(set.back(), kVertices);
    }
    EXPECT_EQ(payload.wire_bytes,
              wire::EncodedAdjacencyReplyBytes(stream.size()));
  }
  // The soup reaches both outcomes.
  EXPECT_GT(accepted, 20u);
}

TEST(WireFuzzTest, EveryVersionByteButOneIsRejected) {
  for (const Bytes& original : Corpus()) {
    for (int version = 0; version < 256; ++version) {
      Bytes buf = original;
      buf[4] = static_cast<uint8_t>(version);
      auto frame = wire::DecodeFrame(buf);
      ASSERT_EQ(frame.ok(), version == wire::kVersion) << version;
      if (!frame.ok()) {
        EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
      }
      // The version is not part of the delimiting rule.
      EXPECT_TRUE(wire::FrameSize(buf).ok());
    }
  }
}

TEST(WireFuzzTest, ReadWireFrameRefusesUndelimitableHeaders) {
  // The client-side reader applies the same rule before allocating.
  Bytes good;
  wire::AppendGetRequest(1, &good);
  for (uint32_t payload : {wire::kMaxPayloadBytes + 1, 0xFFFFFFFFu}) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Bytes bad = good;
    WriteU32(bad.data() + 12, payload);
    ASSERT_TRUE(net::WriteAll(fds[0], bad).ok());
    Bytes buf;
    EXPECT_EQ(net::ReadWireFrame(fds[1], &buf, kTimeoutMs).code(),
              StatusCode::kInvalidArgument);
    net::CloseFd(fds[0]);
    net::CloseFd(fds[1]);
  }
}

// --- the KV server's frame handler, in process ------------------------

TEST(WireFuzzTest, KvHandlerAnswersEveryDelimitedFrameWithItsTag) {
  const Graph graph = std::move(GenerateErdosRenyi(40, 120, 3)).value();
  KvPartitionServer server(&graph, /*num_partitions=*/4, /*num_servers=*/2,
                           /*server_index=*/0);
  const std::vector<Bytes> corpus = Corpus();
  Rng rng(7);
  size_t errors = 0;
  for (const Bytes& original : corpus) {
    for (int i = 0; i < 1000; ++i) {
      Bytes request = Mutate(original, rng);
      if (!MakeDelimited(&request, rng)) continue;
      const uint16_t tag = wire::FrameTag(request);
      Bytes replies;
      server.HandleFrame(request, &replies);
      const std::vector<wire::Frame> frames =
          ExpectTaggedFrames(replies, tag);
      ASSERT_FALSE(frames.empty());
      if (!wire::DecodeFrame(request).ok()) {
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].header.type, wire::MessageType::kError);
        EXPECT_EQ(wire::DecodeError(frames[0]).code(),
                  StatusCode::kInvalidArgument);
        ++errors;
      }
    }
  }
  EXPECT_GT(errors, 200u);
}

// --- both live servers ------------------------------------------------

/// A live server under test: its port, and whether its replies to one
/// request all precede the next request's (KV: yes; the service answers
/// queries asynchronously).
struct LiveServer {
  uint16_t port = 0;
  bool in_order = false;
};

class LiveServerFuzzTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    graph_ = std::move(GenerateErdosRenyi(40, 120, 3)).value();
    if (GetParam()) {
      service::ServiceConfig config;
      config.execution_threads = 2;
      config.max_active_queries = 64;
      auto engine = service::QueryEngine::Create(graph_, config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      service_ =
          std::make_unique<service::ServiceTcpServer>(std::move(*engine));
      ASSERT_TRUE(service_->Listen(0).ok());
      ASSERT_TRUE(service_->Start().ok());
      server_ = {service_->port(), false};
    } else {
      kv_ = std::make_unique<KvTcpServer>(&graph_, 4, 1, 0);
      ASSERT_TRUE(kv_->Listen(0).ok());
      ASSERT_TRUE(kv_->Start().ok());
      server_ = {kv_->port(), true};
    }
  }

  int Connect() {
    auto fd = net::TcpConnect("127.0.0.1", server_.port, kTimeoutMs);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  /// Sends `requests` (delimited frames, distinct nonzero tags) plus a
  /// sentinel hello on one connection and reads until the sentinel's
  /// reply. Every request that fails to decode must have been answered
  /// by a kError carrying its tag before the sentinel.
  void ExpectErrorsTaggedAndSessionAlive(const std::vector<Bytes>& requests) {
    const int fd = Connect();
    ASSERT_GE(fd, 0);
    std::set<uint16_t> want_error;
    Bytes stream;
    for (const Bytes& request : requests) {
      if (!wire::DecodeFrame(request).ok()) {
        want_error.insert(wire::FrameTag(request));
      }
      stream.insert(stream.end(), request.begin(), request.end());
    }
    const uint16_t sentinel = wire::kTagMask;
    const size_t sentinel_at = stream.size();
    wire::AppendHelloRequest(&stream);
    wire::SetFrameTag(std::span<uint8_t>(stream).subspan(sentinel_at),
                      sentinel);
    ASSERT_TRUE(net::WriteAll(fd, stream, kTimeoutMs).ok());

    Bytes buf;
    uint16_t last_tag = 0;
    for (;;) {
      ASSERT_TRUE(net::ReadWireFrame(fd, &buf, kTimeoutMs).ok());
      auto frame = wire::DecodeFrame(buf);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      const uint16_t tag = wire::FrameTag(buf);
      if (tag == sentinel) {
        ASSERT_EQ(frame->header.type, wire::MessageType::kHelloReply);
        break;
      }
      if (server_.in_order) {
        EXPECT_GE(tag, last_tag) << "reply out of request order";
        last_tag = tag;
      }
      if (frame->header.type == wire::MessageType::kError &&
          want_error.erase(tag) == 1) {
        EXPECT_EQ(wire::DecodeError(*frame).code(),
                  StatusCode::kInvalidArgument);
      }
    }
    EXPECT_TRUE(want_error.empty())
        << want_error.size() << " malformed frames went unanswered";
    net::CloseFd(fd);
  }

  /// The server still accepts a new connection and answers its hello.
  void ExpectServing() {
    const int fd = Connect();
    ASSERT_GE(fd, 0);
    Bytes hello;
    wire::AppendHelloRequest(&hello);
    ASSERT_TRUE(net::WriteAll(fd, hello, kTimeoutMs).ok());
    Bytes buf;
    ASSERT_TRUE(net::ReadWireFrame(fd, &buf, kTimeoutMs).ok());
    auto frame = wire::DecodeFrame(buf);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(wire::DecodeHelloReply(*frame).ok());
    net::CloseFd(fd);
  }

  Graph graph_;
  std::unique_ptr<KvTcpServer> kv_;
  std::unique_ptr<service::ServiceTcpServer> service_;
  LiveServer server_;
};

TEST_P(LiveServerFuzzTest, MutatedFramesGetTaggedErrorsAndSessionServes) {
  const std::vector<Bytes> corpus = Corpus();
  Rng rng(GetParam() ? 99 : 98);
  std::vector<Bytes> requests;
  while (requests.size() < 600) {
    Bytes request = Mutate(corpus[rng.NextBounded(corpus.size())], rng);
    if (!MakeDelimited(&request, rng)) continue;
    wire::SetFrameTag(request, static_cast<uint16_t>(requests.size() + 1));
    requests.push_back(std::move(request));
  }
  ExpectErrorsTaggedAndSessionAlive(requests);
  ExpectServing();
}

TEST_P(LiveServerFuzzTest, EveryOtherVersionGetsATaggedError) {
  std::vector<Bytes> requests;
  for (int version = 0; version < 256; ++version) {
    Bytes request;
    wire::AppendHelloRequest(&request);
    request[4] = static_cast<uint8_t>(version);
    wire::SetFrameTag(request, static_cast<uint16_t>(version + 1));
    requests.push_back(std::move(request));
  }
  ExpectErrorsTaggedAndSessionAlive(requests);
}

TEST_P(LiveServerFuzzTest, UndelimitableStreamClosesOnlyItsConnection) {
  Rng rng(GetParam() ? 5 : 6);
  Bytes good;
  wire::AppendHelloRequest(&good);
  for (int round = 0; round < 40; ++round) {
    const int bystander = Connect();
    const int victim = Connect();
    ASSERT_GE(bystander, 0);
    ASSERT_GE(victim, 0);
    // The victim is served, then sends a header that cannot be
    // delimited.
    Bytes buf;
    ASSERT_TRUE(net::WriteAll(victim, good, kTimeoutMs).ok());
    ASSERT_TRUE(net::ReadWireFrame(victim, &buf, kTimeoutMs).ok());
    EXPECT_TRUE(wire::DecodeHelloReply(*wire::DecodeFrame(buf)).ok());
    Bytes bad = good;
    if (round % 2 == 0) {
      bad[rng.NextBounded(4)] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    } else {
      WriteU32(bad.data() + 12,
               wire::kMaxPayloadBytes + 1 +
                   static_cast<uint32_t>(rng.NextBounded(1u << 30)));
    }
    ASSERT_TRUE(net::WriteAll(victim, bad, kTimeoutMs).ok());
    EXPECT_EQ(net::ReadWireFrame(victim, &buf, kTimeoutMs).code(),
              StatusCode::kUnavailable)
        << "the undelimitable stream must close its connection";
    // The bystander, connected throughout, is untouched.
    ASSERT_TRUE(net::WriteAll(bystander, good, kTimeoutMs).ok());
    ASSERT_TRUE(net::ReadWireFrame(bystander, &buf, kTimeoutMs).ok());
    EXPECT_TRUE(wire::DecodeHelloReply(*wire::DecodeFrame(buf)).ok());
    net::CloseFd(victim);
    net::CloseFd(bystander);
  }
  ExpectServing();
}

TEST_P(LiveServerFuzzTest, RandomStreamsEndAndLeaveTheServerServing) {
  // Mutated multi-frame streams, cut at random points and half-closed:
  // the server answers what it can delimit, then closes — every stream
  // ends, and none of them takes the server down.
  const std::vector<Bytes> corpus = Corpus();
  Rng rng(GetParam() ? 41 : 42);
  for (int round = 0; round < 60; ++round) {
    Bytes stream;
    const uint64_t frames = 1 + rng.NextBounded(6);
    for (uint64_t f = 0; f < frames; ++f) {
      const Bytes& original = corpus[rng.NextBounded(corpus.size())];
      const Bytes frame =
          rng.NextBounded(2) == 0 ? original : Mutate(original, rng);
      if (OpensSubscription(frame)) continue;
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    const int fd = Connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(net::WriteAll(fd, stream, kTimeoutMs).ok());
    ASSERT_EQ(shutdown(fd, SHUT_WR), 0);
    Bytes buf;
    Status status;
    do {
      status = net::ReadWireFrame(fd, &buf, kTimeoutMs);
    } while (status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    net::CloseFd(fd);
  }
  ExpectServing();
}

INSTANTIATE_TEST_SUITE_P(Servers, LiveServerFuzzTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Service" : "Kv";
                         });

}  // namespace
}  // namespace benu
