#ifndef BENU_SERVICE_SERVICE_SERVER_H_
#define BENU_SERVICE_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "service/query_engine.h"

namespace benu::service {

/// TCP front end of the resident enumeration service: a single-threaded
/// epoll event loop (modeled on storage/kv_tcp_server.h) that speaks the
/// version-3 service protocol (common/wire.h). Each connection is one
/// fairness session; the 15-bit frame tag names a query within it, so
/// one connection can hold many queries in flight and demux their
/// kQueryResult / kProgress / kError frames by tag.
///
/// Unlike the KV server — whose replies are produced synchronously in
/// HandleFrame — query results are produced later, on engine worker
/// threads. Completion and progress callbacks post frames into a
/// per-connection locked outbox and nudge the loop through its wake
/// pipe; the loop splices outboxes into the socket buffers and flushes.
/// A connection that dies takes its session's queries with it
/// (QueryEngine::CancelSession), and its outbox is marked closed so
/// late callbacks become no-ops.
///
/// Error containment: a frame whose header is undecipherable (bad magic
/// or unbounded length) kills the connection — the byte stream can no
/// longer be delimited. A well-delimited frame with a malformed body
/// (unknown version bits, bad query payload, duplicate tag) is answered
/// with a tagged kError and the session carries on undisturbed.
class ServiceTcpServer {
 public:
  /// Takes ownership of the engine. Teardown order inside the
  /// destructor: stop admitting, destroy the engine (in-flight queries
  /// cancel and their terminal frames still flush through the live
  /// loop), then stop the loop.
  explicit ServiceTcpServer(std::unique_ptr<QueryEngine> engine);
  ~ServiceTcpServer();

  ServiceTcpServer(const ServiceTcpServer&) = delete;
  ServiceTcpServer& operator=(const ServiceTcpServer&) = delete;

  /// Binds and listens on `port` (0 picks an ephemeral port, readable
  /// via port() afterwards). Call before Start().
  Status Listen(uint16_t port);

  /// Spawns the event-loop thread. Listen() must have succeeded.
  Status Start();

  /// Stops the event loop, closes every connection and joins the loop
  /// thread. Idempotent; also run by the destructor (after the engine).
  void Stop();

  uint16_t port() const { return port_; }
  QueryEngine& engine() { return *engine_; }

 private:
  /// Cross-thread mailbox of one connection: engine callbacks append
  /// encoded frames under the lock, the loop thread splices them out.
  /// `finished_tags` tells the loop which query tags got their terminal
  /// frame, so it can retire them from the connection's tag table.
  struct Outbox {
    std::mutex mu;
    std::vector<uint8_t> frames;
    std::vector<uint16_t> finished_tags;
    bool closed = false;
  };

  /// Per-connection state, owned by the loop thread (the outbox is the
  /// one shared piece).
  struct Conn {
    std::vector<uint8_t> in;
    size_t in_pos = 0;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    bool want_write = false;
    uint64_t session = 0;
    std::shared_ptr<Outbox> outbox;
    /// Tags of queries admitted on this connection and not yet answered.
    std::unordered_map<uint16_t, uint64_t> inflight;  // tag -> query id
  };

  void EventLoop();
  void AcceptReady();
  bool ServeReadable(int fd, Conn& conn);
  /// Serves one complete, delimited frame. False → protocol damage that
  /// requires tearing the connection down (never just a bad payload).
  bool HandleFrame(Conn& conn, const uint8_t* data, size_t size);
  /// Splices the connection's outbox into its write buffer and retires
  /// finished tags.
  void DrainOutbox(Conn& conn);
  bool FlushWrites(int fd, Conn& conn);
  void CloseConn(int fd);
  /// Posts a frame from an engine callback thread: appends to the
  /// outbox (unless closed) and nudges the loop via the wake pipe.
  void PostFrame(const std::shared_ptr<Outbox>& outbox,
                 std::vector<uint8_t> frame, int finished_tag);

  /// Null once the destructor has taken it (under engine_mu_).
  std::unique_ptr<QueryEngine> engine_;
  /// Held by the loop thread while it serves one batch of events, so the
  /// destructor cannot take the engine from under a frame in progress.
  std::mutex engine_mu_;
  /// Set before the engine dies: every frame that would reach the engine
  /// is refused with kUnavailable instead.
  std::atomic<bool> draining_{false};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // nudge (outbox posts) and Stop()
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;
  std::unordered_map<int, Conn> conns_;  // owned by the loop thread
  uint64_t next_session_ = 1;
};

}  // namespace benu::service

#endif  // BENU_SERVICE_SERVICE_SERVER_H_
