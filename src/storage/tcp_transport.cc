#include "storage/tcp_transport.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "storage/socket_io.h"

namespace benu {

StatusOr<std::vector<Endpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<Endpoint> endpoints;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    const size_t colon = item.rfind(':');
    if (item.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 == item.size()) {
      return Status::InvalidArgument("bad endpoint '" + item +
                                     "' (expected host:port)");
    }
    const std::string port_str = item.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (*end != '\0' || port <= 0 || port > 65535) {
      return Status::InvalidArgument("bad port in endpoint '" + item + "'");
    }
    endpoints.push_back(
        {item.substr(0, colon), static_cast<uint16_t>(port)});
    start = comma + 1;
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("empty endpoint list");
  }
  return endpoints;
}

StatusOr<std::vector<ReplicaGroup>> ParseReplicaGroups(
    const std::string& spec) {
  std::vector<ReplicaGroup> groups;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    // One group: '|'-separated replicas, each a host:port endpoint.
    const std::string group_spec = spec.substr(start, comma - start);
    ReplicaGroup group;
    size_t rstart = 0;
    while (rstart <= group_spec.size()) {
      size_t bar = group_spec.find('|', rstart);
      if (bar == std::string::npos) bar = group_spec.size();
      auto endpoint =
          ParseEndpoints(group_spec.substr(rstart, bar - rstart));
      if (!endpoint.ok()) return endpoint.status();
      group.replicas.push_back(endpoint->front());
      rstart = bar + 1;
    }
    groups.push_back(std::move(group));
    start = comma + 1;
  }
  if (groups.empty()) {
    return Status::InvalidArgument("empty replica-group list");
  }
  return groups;
}

namespace {

/// True for failures a reconnect (possibly to another replica) can cure:
/// dead peers, timeouts, socket errors, corrupt reply streams. App-level
/// errors (kOutOfRange and friends from kError frames) and permanent
/// layout mismatches are not retried — a replica must answer exactly like
/// its peers, so retrying could only mask a real bug.
bool Retryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kIoError;
}

/// Process-wide fault counters shared by all channels of one transport;
/// mirrored into the metrics registry as transport.tcp.* (docs/metrics.md).
struct TcpCounters {
  TcpCounters() {
    auto& registry = metrics::MetricsRegistry::Global();
    retries_metric = registry.GetCounter(
        "transport.tcp.retries", "1",
        "requests re-issued after transient transport failures");
    failovers_metric = registry.GetCounter(
        "transport.tcp.failovers", "1",
        "reconnects that switched to another replica of the group");
    timeouts_metric = registry.GetCounter(
        "transport.tcp.timeouts", "1",
        "connect/request deadline expiries");
    reconnects_metric = registry.GetCounter(
        "transport.tcp.reconnects", "1",
        "successful connection re-establishments");
  }

  void AddRetry() {
    retries.fetch_add(1, std::memory_order_relaxed);
    retries_metric->Add(1);
  }
  void AddFailover() {
    failovers.fetch_add(1, std::memory_order_relaxed);
    failovers_metric->Add(1);
  }
  void AddTimeout() {
    timeouts.fetch_add(1, std::memory_order_relaxed);
    timeouts_metric->Add(1);
  }
  void AddReconnect() {
    reconnects.fetch_add(1, std::memory_order_relaxed);
    reconnects_metric->Add(1);
  }

  TcpFaultStats Snapshot() const {
    return {retries.load(std::memory_order_relaxed),
            failovers.load(std::memory_order_relaxed),
            timeouts.load(std::memory_order_relaxed),
            reconnects.load(std::memory_order_relaxed)};
  }

  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> failovers{0};
  std::atomic<uint64_t> timeouts{0};
  std::atomic<uint64_t> reconnects{0};
  metrics::Counter* retries_metric = nullptr;
  metrics::Counter* failovers_metric = nullptr;
  metrics::Counter* timeouts_metric = nullptr;
  metrics::Counter* reconnects_metric = nullptr;
};

/// One logical request/reply exchange. The caller owns the storage (stack
/// or embedded in a batch op); the channel holds a raw pointer only while
/// the call is pending, and every Submit is guaranteed to complete the
/// call eventually, so Await never blocks past a connection failure.
struct PendingCall {
  /// The encoded request frame; Submit stamps the tag into its header
  /// before sending, so the same call can be re-submitted on retry.
  std::vector<uint8_t> request;
  /// Reply frames expected (keys of a batch; 1 otherwise). An error
  /// frame truncates the sequence early.
  size_t expected_frames = 1;

  uint16_t tag = 0;
  std::vector<std::vector<uint8_t>> replies;
  Status status;
  bool done = false;
};

/// Hello handshake on a fresh (nonblocking) connection.
StatusOr<wire::HelloInfo> HelloHandshake(int fd, int timeout_ms) {
  std::vector<uint8_t> request;
  wire::AppendHelloRequest(&request);
  BENU_RETURN_IF_ERROR(net::WriteAll(fd, request, timeout_ms));
  std::vector<uint8_t> reply;
  BENU_RETURN_IF_ERROR(net::ReadWireFrame(fd, &reply, timeout_ms));
  auto frame = wire::DecodeFrame(reply);
  BENU_RETURN_IF_ERROR(frame.status());
  if (frame->header.type == wire::MessageType::kError) {
    return wire::DecodeError(*frame);
  }
  return wire::DecodeHelloReply(*frame);
}

/// The client side of one replica group: a single connection to the
/// currently chosen replica, with requests pipelined on it. Submitters
/// append tagged request frames (serialized by send_mu_, so send order
/// matches the pending queue); one reader thread per connection epoch
/// demuxes the in-order reply stream back to the pending calls. Any
/// failure — write error, read timeout, EOF, tag mismatch, corrupt
/// framing — tears the connection down and fails every pending call;
/// callers re-submit, which reconnects, rotating to the next replica.
class ServerChannel {
 public:
  ServerChannel(std::vector<Endpoint> replicas, size_t group_index,
                size_t num_groups, const TcpTransportOptions& options,
                TcpCounters* counters)
      : replicas_(std::move(replicas)),
        group_index_(group_index),
        num_groups_(num_groups),
        opt_(options),
        counters_(counters) {}

  ~ServerChannel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
      broken_ = true;
      if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
      for (PendingCall* call : pending_) {
        call->status = Status::Unavailable("transport closed");
        call->done = true;
      }
      pending_.clear();
    }
    cv_.notify_all();
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) net::CloseFd(fd_);
  }

  ServerChannel(const ServerChannel&) = delete;
  ServerChannel& operator=(const ServerChannel&) = delete;

  /// Establishes the first connection; returns the validated hello.
  StatusOr<wire::HelloInfo> Connect() {
    std::lock_guard<std::mutex> send_lock(send_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    BENU_RETURN_IF_ERROR(EnsureConnectedLocked(lock));
    return hello_;
  }

  /// Arms reconnect-time validation: any replica this channel connects
  /// to later must agree with the layout the cluster reported initially.
  void SetExpectedLayout(const wire::HelloInfo& layout) {
    std::lock_guard<std::mutex> lock(mu_);
    expected_ = layout;
    have_expected_ = true;
  }

  /// Records the epoch the server acked (kEpochAdvance), extending the
  /// attested identity reconnects are validated against: a replica may
  /// attest an *older* epoch (fresh process, attestation lost) but never
  /// a newer one — that would mean it saw a delta stream this client
  /// never pushed, i.e. it serves some other dynamic graph.
  void NoteEpoch(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    expected_.epoch = epoch;
  }

  /// Registers and sends `call`. Always completes the call eventually:
  /// connect/write failures fail it immediately, otherwise the reader
  /// completes it (or the connection teardown fails it). Await after
  /// every Submit.
  void Submit(PendingCall* call) {
    std::lock_guard<std::mutex> send_lock(send_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    call->done = false;
    call->status = Status::OK();
    call->replies.clear();
    Status s = EnsureConnectedLocked(lock);
    if (!s.ok()) {
      call->status = std::move(s);
      call->done = true;
      return;
    }
    // In-flight window: wait for the pending queue to drain below the
    // cap (the reader makes room as replies arrive).
    cv_.wait(lock, [&] {
      return broken_ || pending_.size() < opt_.max_inflight;
    });
    if (broken_) {
      call->status = Status::Unavailable(
          "connection failed while waiting for the in-flight window");
      call->done = true;
      return;
    }
    call->tag = next_tag_;
    next_tag_ = next_tag_ == wire::kTagMask ? 1 : next_tag_ + 1;
    wire::SetFrameTag(call->request, call->tag);
    pending_.push_back(call);
    const int fd = fd_;
    const uint64_t epoch = epoch_;
    lock.unlock();
    cv_.notify_all();  // wake the reader for the new pending call
    Status ws = net::WriteAll(fd, call->request, opt_.request_timeout_ms);
    if (!ws.ok()) {
      {
        std::lock_guard<std::mutex> lock2(mu_);
        FailConnectionLocked(epoch, ws);
      }
      cv_.notify_all();
    }
  }

  /// Submit() for a whole group of calls, coalescing their request
  /// frames into a single write. One batch fetch produces one request
  /// per owned partition on this channel; sending them together costs
  /// one syscall (and one server wakeup) instead of one per partition.
  /// Same contract as Submit: every call always completes.
  void SubmitMany(const std::vector<PendingCall*>& calls) {
    if (calls.empty()) return;
    if (calls.size() == 1) return Submit(calls.front());
    std::lock_guard<std::mutex> send_lock(send_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<uint8_t> coalesced;
    size_t registered = 0;
    Status s = EnsureConnectedLocked(lock);
    for (PendingCall* call : calls) {
      call->done = false;
      call->status = Status::OK();
      call->replies.clear();
      if (s.ok()) {
        cv_.wait(lock, [&] {
          return broken_ || pending_.size() < opt_.max_inflight;
        });
        if (broken_) {
          s = Status::Unavailable(
              "connection failed while waiting for the in-flight window");
        }
      }
      if (!s.ok()) {
        call->status = s;
        call->done = true;
        continue;
      }
      call->tag = next_tag_;
      next_tag_ = next_tag_ == wire::kTagMask ? 1 : next_tag_ + 1;
      wire::SetFrameTag(call->request, call->tag);
      pending_.push_back(call);
      coalesced.insert(coalesced.end(), call->request.begin(),
                       call->request.end());
      ++registered;
    }
    if (registered == 0) return;
    const int fd = fd_;
    const uint64_t epoch = epoch_;
    lock.unlock();
    cv_.notify_all();  // wake the reader for the new pending calls
    Status ws = net::WriteAll(fd, coalesced, opt_.request_timeout_ms);
    if (!ws.ok()) {
      {
        std::lock_guard<std::mutex> lock2(mu_);
        FailConnectionLocked(epoch, ws);
      }
      cv_.notify_all();
    }
  }

  void Await(PendingCall* call) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return call->done; });
  }

  /// Marks the current connection bad (e.g. the caller decoded a corrupt
  /// reply payload): pending calls fail, the next Submit reconnects. The
  /// stream is never resynchronized in place — a connection that produced
  /// one corrupt frame cannot be trusted to frame the next one correctly.
  void Poison(const Status& why) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      FailConnectionLocked(epoch_, why);
    }
    cv_.notify_all();
  }

 private:
  /// Connects (rotating through replicas, with the connect budget spread
  /// over rotation attempts) and spawns the reader. Layout violations are
  /// permanent InvalidArgument and abort the rotation; unreachable
  /// replicas rotate until the budget expires. mu_ is held on entry and
  /// exit (released around thread joins/connect waits via `lock`).
  Status EnsureConnectedLocked(std::unique_lock<std::mutex>& lock) {
    if (fd_ >= 0 && !broken_) return Status::OK();
    if (closing_) return Status::Unavailable("transport closed");
    // Tear down the remains of the previous connection. The old reader
    // observes broken_/epoch and exits; join it before closing the fd so
    // a recycled descriptor number cannot be read by a stale thread.
    broken_ = true;
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
    cv_.notify_all();
    while (reader_.joinable()) {
      std::thread old = std::move(reader_);
      lock.unlock();
      old.join();
      lock.lock();
    }
    if (fd_ >= 0) {
      net::CloseFd(fd_);
      fd_ = -1;
    }
    for (PendingCall* call : pending_) {
      call->status = Status::Unavailable("connection reset");
      call->done = true;
    }
    pending_.clear();

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opt_.connect_timeout_ms);
    // Prefer the next replica when the last connection died — the
    // previous one is the known-bad endpoint.
    size_t idx =
        connected_before_ ? (last_replica_ + 1) % replicas_.size() : 0;
    Status last = Status::Unavailable("group " + std::to_string(group_index_) +
                                      ": no replica reachable");
    bool attempted = false;
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (attempted && remaining <= 0) {
        counters_->AddTimeout();
        return last;
      }
      const Endpoint& ep = replicas_[idx];
      // Slice the budget so one dead replica cannot starve the rest of
      // the rotation; TcpConnect itself backs off within the slice.
      const int slice = static_cast<int>(
          std::clamp<long long>(remaining, 1, 500));
      auto fd = net::TcpConnect(ep.host, ep.port, slice);
      attempted = true;
      if (!fd.ok()) {
        last = fd.status();
        idx = (idx + 1) % replicas_.size();
        continue;
      }
      Status nb = net::SetNonBlocking(*fd);
      StatusOr<wire::HelloInfo> hello =
          nb.ok() ? HelloHandshake(*fd, opt_.request_timeout_ms)
                  : StatusOr<wire::HelloInfo>(nb);
      if (!hello.ok()) {
        net::CloseFd(*fd);
        last = hello.status();
        idx = (idx + 1) % replicas_.size();
        continue;
      }
      if (hello->num_servers != num_groups_ ||
          hello->server_index != group_index_) {
        net::CloseFd(*fd);
        return Status::InvalidArgument(
            ep.host + ":" + std::to_string(ep.port) + " reports server " +
            std::to_string(hello->server_index) + "/" +
            std::to_string(hello->num_servers) + ", expected " +
            std::to_string(group_index_) + "/" +
            std::to_string(num_groups_));
      }
      if (have_expected_ &&
          (hello->num_vertices != expected_.num_vertices ||
           hello->num_partitions != expected_.num_partitions)) {
        net::CloseFd(*fd);
        return Status::InvalidArgument(
            ep.host + ":" + std::to_string(ep.port) +
            " disagrees with the cluster layout (vertices/partitions)");
      }
      if (have_expected_ &&
          (expected_.flags & wire::kHelloSupportsEncoded) != 0 &&
          (hello->flags & wire::kHelloSupportsEncoded) == 0) {
        net::CloseFd(*fd);
        return Status::InvalidArgument(
            ep.host + ":" + std::to_string(ep.port) +
            " lacks the encoded-reply capability the cluster advertised");
      }
      if (have_expected_ && hello->graph_hash != expected_.graph_hash) {
        net::CloseFd(*fd);
        return Status::InvalidArgument(
            ep.host + ":" + std::to_string(ep.port) +
            " serves a different graph labeling (content-hash mismatch)");
      }
      if (have_expected_ && hello->epoch > expected_.epoch) {
        net::CloseFd(*fd);
        return Status::InvalidArgument(
            ep.host + ":" + std::to_string(ep.port) + " attests epoch " +
            std::to_string(hello->epoch) + " ahead of the client's " +
            std::to_string(expected_.epoch) +
            " — it serves a different delta stream");
      }
      fd_ = *fd;
      broken_ = false;
      ++epoch_;
      hello_ = *hello;
      if (connected_before_) {
        counters_->AddReconnect();
        if (idx != last_replica_) counters_->AddFailover();
      }
      connected_before_ = true;
      last_replica_ = idx;
      reader_ = std::thread(
          [this, fd2 = fd_, epoch = epoch_] { ReaderLoop(fd2, epoch); });
      return Status::OK();
    }
  }

  /// Fails the connection of `epoch` (no-op when a newer connection has
  /// superseded it): marks it broken, wakes the reader via shutdown()
  /// and fails every pending call with `why`. Callers notify cv_ after
  /// releasing mu_.
  void FailConnectionLocked(uint64_t epoch, const Status& why) {
    if (epoch != epoch_) return;
    if (!broken_) {
      broken_ = true;
      if (why.code() == StatusCode::kDeadlineExceeded) {
        counters_->AddTimeout();
      }
      if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
    }
    for (PendingCall* call : pending_) {
      call->status = why;
      call->done = true;
    }
    pending_.clear();
  }

  /// Reader of one connection epoch: demuxes the in-order reply stream
  /// to the pending-call queue. Replies arrive strictly in request order
  /// (the server serves one connection sequentially), so the oldest
  /// pending call owns the next reply frames; its echoed tag proves it.
  void ReaderLoop(int fd, uint64_t epoch) {
    std::vector<uint8_t> buf;
    for (;;) {
      PendingCall* call = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return closing_ || broken_ || epoch_ != epoch || !pending_.empty();
        });
        if (closing_ || broken_ || epoch_ != epoch) return;
        call = pending_.front();
      }
      Status fail;
      std::vector<std::vector<uint8_t>> replies;
      while (replies.size() < call->expected_frames) {
        Status s = net::ReadWireFrame(fd, &buf, opt_.request_timeout_ms);
        if (!s.ok()) {
          // Bad magic / oversized frame means the stream itself is
          // corrupt — retryable over a fresh connection, so surface it
          // as Unavailable rather than the permanent InvalidArgument.
          fail = s.code() == StatusCode::kInvalidArgument
                     ? Status::Unavailable("reply stream corrupt (" +
                                           s.message() +
                                           "); dropping connection")
                     : std::move(s);
          break;
        }
        if (wire::FrameTag(buf) != call->tag) {
          fail = Status::Unavailable(
              "reply tag mismatch — connection desynchronized");
          break;
        }
        const bool is_error =
            buf.size() > 5 &&
            buf[5] == static_cast<uint8_t>(wire::MessageType::kError);
        replies.push_back(buf);
        if (is_error) break;  // an error frame truncates the sequence
      }
      if (!fail.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          FailConnectionLocked(epoch, fail);
        }
        cv_.notify_all();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        // The connection may have been failed while we were reading; the
        // call is then already completed with an error.
        if (closing_ || broken_ || epoch_ != epoch) return;
        BENU_CHECK(!pending_.empty() && pending_.front() == call);
        pending_.pop_front();
        call->replies = std::move(replies);
        call->status = Status::OK();
        call->done = true;
      }
      cv_.notify_all();
    }
  }

  const std::vector<Endpoint> replicas_;
  const size_t group_index_;
  const size_t num_groups_;
  const TcpTransportOptions opt_;
  TcpCounters* const counters_;

  /// Serializes submissions: push-to-pending and socket write must be
  /// atomic against other submitters so tag order matches send order.
  /// Lock order: send_mu_ before mu_.
  std::mutex send_mu_;

  std::mutex mu_;
  std::condition_variable cv_;
  int fd_ = -1;
  uint64_t epoch_ = 0;
  bool broken_ = true;  // no connection yet
  bool closing_ = false;
  std::deque<PendingCall*> pending_;
  std::thread reader_;
  uint16_t next_tag_ = 1;
  wire::HelloInfo hello_;
  wire::HelloInfo expected_;
  bool have_expected_ = false;
  bool connected_before_ = false;
  size_t last_replica_ = 0;
};

/// The fault-tolerant pipelined TCP backend. One ServerChannel per
/// replica group; FetchBatch submits every partition request up front and
/// awaits the replies afterwards, so the batch costs one round-trip
/// latency per *channel* (max), not per partition (sum) — while the
/// round-trip *accounting* stays one per partition per batch, identical
/// to the simulated and loopback backends.
class TcpTransport final : public Transport {
 public:
  TcpTransport(std::shared_ptr<TcpCounters> counters,
               std::vector<std::unique_ptr<ServerChannel>> channels,
               const wire::HelloInfo& layout,
               const TcpTransportOptions& options, bool compress)
      : counters_(std::move(counters)),
        channels_(std::move(channels)),
        layout_(layout),
        opt_(options),
        compress_(compress) {
    InitMetrics(name());
  }

  const char* name() const override { return "tcp"; }
  size_t num_partitions() const override { return layout_.num_partitions; }
  size_t num_vertices() const override { return layout_.num_vertices; }
  uint32_t graph_hash() const override { return layout_.graph_hash; }
  bool compressed() const override { return compress_; }

  StatusOr<AdjacencyPayload> Fetch(VertexId v) override {
    if (v >= layout_.num_vertices) {
      return Status::OutOfRange("vertex out of range: " + std::to_string(v));
    }
    ServerChannel& channel =
        *channels_[(v % layout_.num_partitions) % channels_.size()];
    PendingCall call;
    wire::AppendGetRequest(v, &call.request, /*want_encoded=*/compress_);
    call.expected_frames = 1;
    AdjacencyPayload payload;
    BENU_RETURN_IF_ERROR(RunCall(
        channel, &call, /*already_awaited=*/false,
        [&](const PendingCall& c) -> Status {
          VertexId key = kInvalidVertex;
          AdjacencyPayload decoded;
          BENU_RETURN_IF_ERROR(DecodeSingleAdjacency(c, &key, &decoded));
          if (key != v) {
            return Status::Unavailable("reply key mismatch for vertex " +
                                       std::to_string(v));
          }
          payload = std::move(decoded);
          return Status::OK();
        }));
    Account(1, payload.wire_bytes, compress_ ? payload.wire_bytes : 0,
            /*batch=*/false);
    return payload;
  }

  StatusOr<BatchResult> FetchBatch(
      std::span<const VertexId> keys) override {
    BatchResult result;
    result.values.resize(keys.size());
    const size_t num_partitions = layout_.num_partitions;
    // One op per touched partition, in partition order (deterministic,
    // and matching the accounting of the other backends).
    struct Op {
      std::vector<VertexId> keys;
      std::vector<size_t> slots;
      PendingCall call;
      size_t channel = 0;
    };
    std::vector<std::unique_ptr<Op>> ops;
    std::vector<Op*> by_partition(num_partitions, nullptr);
    for (size_t i = 0; i < keys.size(); ++i) {
      const VertexId v = keys[i];
      if (v >= layout_.num_vertices) {
        return Status::OutOfRange("vertex out of range: " +
                                  std::to_string(v));
      }
      const size_t p = v % num_partitions;
      if (by_partition[p] == nullptr) {
        ops.push_back(std::make_unique<Op>());
        ops.back()->channel = p % channels_.size();
        by_partition[p] = ops.back().get();
      }
      by_partition[p]->keys.push_back(v);
      by_partition[p]->slots.push_back(i);
    }
    for (auto& op : ops) {
      wire::AppendBatchGetRequest(op->keys, &op->call.request,
                                  /*want_encoded=*/compress_);
      op->call.expected_frames = op->keys.size();
    }
    if (opt_.pipeline) {
      // Submit every partition request before awaiting any reply: the
      // channels work concurrently, and requests sharing one channel are
      // pipelined on its connection — coalesced into a single write, so
      // a batch costs each channel one send regardless of how many of
      // its partitions the batch touches.
      std::vector<std::vector<PendingCall*>> per_channel(channels_.size());
      for (auto& op : ops) per_channel[op->channel].push_back(&op->call);
      for (size_t c = 0; c < channels_.size(); ++c) {
        channels_[c]->SubmitMany(per_channel[c]);
      }
      for (auto& op : ops) channels_[op->channel]->Await(&op->call);
    } else {
      // Pre-pipelining behavior: one blocking round trip per partition.
      for (auto& op : ops) {
        channels_[op->channel]->Submit(&op->call);
        channels_[op->channel]->Await(&op->call);
      }
    }
    // Decode (and, where needed, retry) each op. Every call has been
    // awaited above, so early error returns leave nothing in flight.
    for (auto& op : ops) {
      size_t op_bytes = 0;
      BENU_RETURN_IF_ERROR(RunCall(
          *channels_[op->channel], &op->call, /*already_awaited=*/true,
          [&](const PendingCall& c) -> Status {
            return DecodeBatchReplies(c, *op, &result, &op_bytes);
          }));
      result.round_trips += 1;
      result.bytes += op_bytes;
    }
    Account(result.round_trips, result.bytes, compress_ ? result.bytes : 0,
            /*batch=*/true);
    return result;
  }

  StatusOr<wire::ServerStats> QueryStats(size_t endpoint_index) {
    if (endpoint_index >= channels_.size()) {
      return Status::OutOfRange("no such endpoint");
    }
    PendingCall call;
    wire::AppendStatsRequest(&call.request);
    call.expected_frames = 1;
    wire::ServerStats stats;
    BENU_RETURN_IF_ERROR(RunCall(
        *channels_[endpoint_index], &call, /*already_awaited=*/false,
        [&](const PendingCall& c) -> Status {
          auto frame = DecodeSingleFrame(c);
          BENU_RETURN_IF_ERROR(frame.status());
          if (frame->header.type == wire::MessageType::kError) {
            return wire::DecodeError(*frame);
          }
          auto decoded = wire::DecodeStatsReply(*frame);
          if (!decoded.ok()) {
            return Status::Unavailable("corrupt stats reply: " +
                                       decoded.status().message());
          }
          stats = *decoded;
          return Status::OK();
        }));
    return stats;
  }

  TcpFaultStats FaultStats() const { return counters_->Snapshot(); }

  StatusOr<DeltaPushResult> PushDelta(
      uint64_t epoch, std::span<const EdgeDelta> ops) override {
    std::vector<uint8_t> request;
    wire::AppendApplyDelta(epoch, ops, &request);
    return BroadcastDeltaFrame(request, epoch, /*commit=*/false);
  }

  StatusOr<DeltaPushResult> AdvanceEpoch(uint64_t epoch) override {
    std::vector<uint8_t> request;
    wire::AppendEpochAdvance(epoch, &request);
    return BroadcastDeltaFrame(request, epoch, /*commit=*/true);
  }

 private:
  /// Sends one delta frame to every channel (pipelined: all submits,
  /// then all awaits) and requires a kDeltaAck echoing `epoch` from
  /// each. With `commit` the acked epoch becomes part of each channel's
  /// reconnect-validated identity.
  StatusOr<DeltaPushResult> BroadcastDeltaFrame(
      const std::vector<uint8_t>& request, uint64_t epoch, bool commit) {
    DeltaPushResult result;
    std::vector<std::unique_ptr<PendingCall>> calls(channels_.size());
    for (size_t c = 0; c < channels_.size(); ++c) {
      calls[c] = std::make_unique<PendingCall>();
      calls[c]->request = request;
      calls[c]->expected_frames = 1;
      channels_[c]->Submit(calls[c].get());
    }
    // Await everything before inspecting anything, so an early error
    // return cannot leave a call in flight pointing at dead stack.
    for (size_t c = 0; c < channels_.size(); ++c) {
      channels_[c]->Await(calls[c].get());
    }
    for (size_t c = 0; c < channels_.size(); ++c) {
      BENU_RETURN_IF_ERROR(calls[c]->status);
      auto frame = DecodeSingleFrame(*calls[c]);
      BENU_RETURN_IF_ERROR(frame.status());
      if (frame->header.type == wire::MessageType::kError) {
        return wire::DecodeError(*frame);
      }
      auto acked = wire::DecodeDeltaAck(*frame);
      if (!acked.ok()) {
        return Status::Unavailable("corrupt delta ack: " +
                                   acked.status().message());
      }
      if (*acked != epoch) {
        return Status::Unavailable("delta ack epoch mismatch from server " +
                                   std::to_string(c));
      }
      ++result.acked_servers;
      if (commit) channels_[c]->NoteEpoch(epoch);
    }
    return result;
  }

  /// Decodes the one frame of a single-reply call.
  static StatusOr<wire::Frame> DecodeSingleFrame(const PendingCall& call) {
    if (call.replies.size() != 1) {
      return Status::Unavailable("corrupt reply: expected exactly one frame");
    }
    auto frame = wire::DecodeFrame(call.replies[0]);
    if (!frame.ok()) {
      return Status::Unavailable("corrupt reply frame: " +
                                 frame.status().message());
    }
    return frame;
  }

  /// Decodes one adjacency reply frame (DecodeAdjacencyPayload); a
  /// corrupt, unsorted or out-of-range reply comes back as kUnavailable.
  Status DecodeAdjacencyFrame(const wire::Frame& frame, VertexId* key,
                              AdjacencyPayload* payload) const {
    const Status s =
        DecodeAdjacencyPayload(frame, layout_.num_vertices, key, payload);
    if (!s.ok()) {
      return Status::Unavailable("corrupt adjacency reply: " + s.message());
    }
    return Status::OK();
  }

  /// Decodes a single-key adjacency reply. Corruption comes back as
  /// kUnavailable (retryable over a fresh connection), a kError frame as
  /// its app-level status (not retried).
  Status DecodeSingleAdjacency(const PendingCall& call, VertexId* key,
                               AdjacencyPayload* payload) const {
    auto frame = DecodeSingleFrame(call);
    BENU_RETURN_IF_ERROR(frame.status());
    if (frame->header.type == wire::MessageType::kError) {
      return wire::DecodeError(*frame);
    }
    return DecodeAdjacencyFrame(*frame, key, payload);
  }

  /// Decodes the reply frames of one batch op into the result slots.
  Status DecodeBatchReplies(const PendingCall& call, /*Op*/ const auto& op,
                            BatchResult* result, size_t* op_bytes) {
    *op_bytes = 0;
    for (size_t i = 0; i < call.replies.size(); ++i) {
      auto frame = wire::DecodeFrame(call.replies[i]);
      if (!frame.ok()) {
        return Status::Unavailable("corrupt reply frame: " +
                                   frame.status().message());
      }
      if (frame->header.type == wire::MessageType::kError) {
        return wire::DecodeError(*frame);
      }
      VertexId key = kInvalidVertex;
      AdjacencyPayload payload;
      BENU_RETURN_IF_ERROR(DecodeAdjacencyFrame(*frame, &key, &payload));
      if (key != op.keys[i]) {
        return Status::Unavailable("reply key mismatch in batch");
      }
      *op_bytes += payload.wire_bytes;
      result->values[op.slots[i]] = std::move(payload);
    }
    if (call.replies.size() != op.keys.size()) {
      return Status::Unavailable("truncated batch reply");
    }
    return Status::OK();
  }

  /// Drives one call to completion: submit/await (unless the first
  /// attempt already happened), decode, and retry transient failures up
  /// to max_attempts with exponential backoff, reconnecting/failing over
  /// via the channel. Decode-level corruption poisons the connection
  /// before retrying — the reply stream is never trusted after one bad
  /// frame (this is what prevents stale frames from leaking into the
  /// next request).
  Status RunCall(ServerChannel& channel, PendingCall* call,
                 bool already_awaited,
                 const std::function<Status(const PendingCall&)>& decode) {
    int attempts = 0;
    int backoff_ms = opt_.backoff_initial_ms;
    if (!already_awaited) {
      channel.Submit(call);
      channel.Await(call);
    }
    ++attempts;
    for (;;) {
      Status s = call->status;
      if (s.ok()) {
        s = decode(*call);
        if (s.ok()) return s;
        if (!Retryable(s)) return s;  // app-level error: do not retry
        channel.Poison(s);
      } else if (!Retryable(s)) {
        return s;
      }
      if (attempts >= opt_.max_attempts) return s;
      ++attempts;
      counters_->AddRetry();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, opt_.backoff_max_ms);
      channel.Submit(call);
      channel.Await(call);
    }
  }

  const std::shared_ptr<TcpCounters> counters_;
  std::vector<std::unique_ptr<ServerChannel>> channels_;
  const wire::HelloInfo layout_;
  const TcpTransportOptions opt_;
  /// Effective compression: requested AND every server capable AND the
  /// env kill-switch off.
  const bool compress_;
};

}  // namespace

StatusOr<std::shared_ptr<Transport>> ConnectTcpTransport(
    const std::vector<ReplicaGroup>& groups,
    const TcpTransportOptions& options) {
  if (groups.empty()) {
    return Status::InvalidArgument("no replica groups");
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].replicas.empty()) {
      return Status::InvalidArgument("replica group " + std::to_string(i) +
                                     " is empty");
    }
  }
  auto counters = std::make_shared<TcpCounters>();
  std::vector<std::unique_ptr<ServerChannel>> channels;
  wire::HelloInfo layout;
  // Encoded replies need every server to support them; one raw-only
  // server (--compress=0) in the fleet makes the whole transport raw
  // (correct either way — compression only changes the bytes on the
  // wire).
  bool all_support_encoding = true;
  // Each server's own attested epoch: reconnect validation allows a
  // replica to attest an older epoch (fresh process) but never a newer
  // one, so the expectation must be per server.
  std::vector<uint64_t> attested_epochs;
  for (size_t i = 0; i < groups.size(); ++i) {
    channels.push_back(std::make_unique<ServerChannel>(
        groups[i].replicas, i, groups.size(), options, counters.get()));
    auto hello = channels.back()->Connect();
    if (!hello.ok()) return hello.status();
    if ((hello->flags & wire::kHelloSupportsEncoded) == 0) {
      all_support_encoding = false;
    }
    attested_epochs.push_back(hello->epoch);
    if (i == 0) {
      layout = *hello;
    } else if (hello->num_vertices != layout.num_vertices ||
               hello->num_partitions != layout.num_partitions) {
      return Status::InvalidArgument(
          "replica group " + std::to_string(i) +
          " disagrees on the graph layout (vertices/partitions)");
    } else if (hello->graph_hash != layout.graph_hash) {
      return Status::InvalidArgument(
          "replica group " + std::to_string(i) +
          " serves a different graph labeling (content-hash mismatch)");
    }
  }
  if (layout.num_partitions == 0 || layout.num_vertices == 0) {
    return Status::InvalidArgument("servers report an empty layout");
  }
  const bool compress =
      codec::CompressionEnabled(options.compress && all_support_encoding);
  if (!compress) {
    // Reconnect validation must not demand a capability we don't use.
    layout.flags &= ~wire::kHelloSupportsEncoded;
  }
  for (size_t i = 0; i < channels.size(); ++i) {
    wire::HelloInfo expected = layout;
    expected.epoch = attested_epochs[i];
    channels[i]->SetExpectedLayout(expected);
  }
  return std::shared_ptr<Transport>(std::make_shared<TcpTransport>(
      std::move(counters), std::move(channels), layout, options,
      compress));
}

StatusOr<std::shared_ptr<Transport>> ConnectTcpTransport(
    const std::vector<Endpoint>& endpoints, int timeout_ms) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("no endpoints");
  }
  std::vector<ReplicaGroup> groups;
  groups.reserve(endpoints.size());
  for (const Endpoint& ep : endpoints) groups.push_back({{ep}});
  TcpTransportOptions options;
  options.connect_timeout_ms = timeout_ms;
  return ConnectTcpTransport(groups, options);
}

StatusOr<wire::ServerStats> QueryServerStats(Transport& transport,
                                             size_t endpoint_index) {
  auto* tcp = dynamic_cast<TcpTransport*>(&transport);
  if (tcp == nullptr) {
    return Status::InvalidArgument("not a TCP transport");
  }
  return tcp->QueryStats(endpoint_index);
}

StatusOr<TcpFaultStats> QueryTcpFaultStats(Transport& transport) {
  auto* tcp = dynamic_cast<TcpTransport*>(&transport);
  if (tcp == nullptr) {
    return Status::InvalidArgument("not a TCP transport");
  }
  return tcp->FaultStats();
}

}  // namespace benu
