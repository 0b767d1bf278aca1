#include "service/service_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
#include "storage/socket_io.h"

namespace benu::service {
namespace {

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Same inbound-frame bound as net::ReadWireFrame / KvTcpServer.
constexpr uint32_t kMaxPayload = 1u << 30;

}  // namespace

ServiceTcpServer::ServiceTcpServer(std::unique_ptr<QueryEngine> engine)
    : engine_(std::move(engine)) {}

ServiceTcpServer::~ServiceTcpServer() {
  // Refuse new queries, let the dying engine cancel and answer the
  // in-flight ones through the still-running loop, then stop the loop.
  draining_.store(true, std::memory_order_release);
  std::unique_ptr<QueryEngine> dying;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    dying = std::move(engine_);
  }
  dying.reset();
  Stop();
}

Status ServiceTcpServer::Listen(uint16_t port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, 64) < 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status ServiceTcpServer::Start() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Start() before Listen()");
  }
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  if (pipe2(wake_fds_, O_NONBLOCK) < 0) {
    return Status::IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.data.fd = wake_fds_[0];
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void ServiceTcpServer::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      net::CloseFd(fd);
      continue;
    }
    Conn conn;
    conn.session = next_session_++;
    conn.outbox = std::make_shared<Outbox>();
    conns_.emplace(fd, std::move(conn));
  }
}

void ServiceTcpServer::PostFrame(const std::shared_ptr<Outbox>& outbox,
                                 std::vector<uint8_t> frame,
                                 int finished_tag) {
  {
    std::lock_guard<std::mutex> lk(outbox->mu);
    if (outbox->closed) return;
    outbox->frames.insert(outbox->frames.end(), frame.begin(), frame.end());
    if (finished_tag >= 0) {
      outbox->finished_tags.push_back(static_cast<uint16_t>(finished_tag));
    }
  }
  // Nudge the loop. The pipe stays open until Stop() has joined the
  // loop, and the engine (source of all callbacks) dies before Stop()
  // runs, so the fd is valid whenever a callback can execute. A full
  // pipe is fine — one pending byte already guarantees a wakeup.
  const uint8_t byte = 0;
  ssize_t rc;
  do {
    rc = write(wake_fds_[1], &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void ServiceTcpServer::DrainOutbox(Conn& conn) {
  std::vector<uint16_t> finished;
  {
    std::lock_guard<std::mutex> lk(conn.outbox->mu);
    if (!conn.outbox->frames.empty()) {
      conn.out.insert(conn.out.end(), conn.outbox->frames.begin(),
                      conn.outbox->frames.end());
      conn.outbox->frames.clear();
    }
    finished.swap(conn.outbox->finished_tags);
  }
  for (uint16_t tag : finished) conn.inflight.erase(tag);
}

bool ServiceTcpServer::HandleFrame(Conn& conn, const uint8_t* data,
                                   size_t size) {
  const std::span<const uint8_t> span(data, size);
  const uint16_t tag = wire::FrameTag(span);
  auto reply_error = [&](const Status& status) {
    std::vector<uint8_t> frame;
    wire::AppendError(status.code(), std::string(status.message()), &frame);
    wire::SetFrameTag(frame, tag);
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  };
  auto decoded = wire::DecodeFrame(span);
  if (!decoded.ok()) {
    // The frame was well-delimited (magic + length already checked), so
    // the stream stays in sync: answer and carry on.
    reply_error(decoded.status());
    return true;
  }
  const wire::Frame& frame = *decoded;
  switch (frame.header.type) {
    case wire::MessageType::kHelloRequest: {
      if (draining_.load(std::memory_order_acquire)) {
        reply_error(Status::Unavailable("service is shutting down"));
        return true;
      }
      wire::HelloInfo info;
      info.num_vertices =
          static_cast<uint32_t>(engine_->relabeled_graph().NumVertices());
      info.num_partitions = static_cast<uint32_t>(engine_->num_partitions());
      info.num_servers = 1;
      info.server_index = 0;
      info.flags = wire::kHelloSupportsQueries | wire::kHelloSupportsDeltas;
      info.graph_hash = engine_->relabeled_graph().FoldedContentHash();
      info.epoch = engine_->epoch();
      std::vector<uint8_t> reply;
      wire::AppendHelloReply(info, &reply);
      wire::SetFrameTag(reply, tag);
      conn.out.insert(conn.out.end(), reply.begin(), reply.end());
      return true;
    }
    case wire::MessageType::kQueryRequest: {
      if (draining_.load(std::memory_order_acquire)) {
        reply_error(Status::Unavailable("service is shutting down"));
        return true;
      }
      auto spec = wire::DecodeQueryRequest(frame);
      if (!spec.ok()) {
        reply_error(spec.status());
        return true;
      }
      if (conn.inflight.count(tag) != 0) {
        reply_error(Status::InvalidArgument(
            "query tag already in flight on this connection"));
        return true;
      }
      std::shared_ptr<Outbox> outbox = conn.outbox;
      // A subscribe query's first kQueryResult (the baseline, cancelled
      // flag clear) is not terminal — the tag stays in flight streaming
      // kMatchDelta frames until the terminal result (cancelled set).
      const bool subscribe = spec->want_subscribe();
      QueryDoneFn done = [this, outbox, tag,
                          subscribe](const wire::QueryResultInfo& info) {
        std::vector<uint8_t> reply;
        wire::AppendQueryResult(info, &reply);
        wire::SetFrameTag(reply, tag);
        const bool terminal = !subscribe || info.cancelled();
        PostFrame(outbox, std::move(reply), terminal ? tag : -1);
      };
      QueryProgressFn progress;
      if (spec->want_progress()) {
        progress = [this, outbox, tag](const wire::QueryProgress& p) {
          std::vector<uint8_t> reply;
          wire::AppendProgress(p, &reply);
          wire::SetFrameTag(reply, tag);
          PostFrame(outbox, std::move(reply), /*finished_tag=*/-1);
        };
      }
      QueryDeltaFn on_delta;
      if (subscribe) {
        on_delta = [this, outbox, tag](const wire::MatchDelta& delta) {
          std::vector<uint8_t> reply;
          wire::AppendMatchDelta(delta, &reply);
          wire::SetFrameTag(reply, tag);
          PostFrame(outbox, std::move(reply), /*finished_tag=*/-1);
        };
      }
      auto id = engine_->Submit(conn.session, *spec, std::move(done),
                                std::move(progress), std::move(on_delta));
      if (!id.ok()) {
        reply_error(id.status());
        return true;
      }
      conn.inflight.emplace(tag, *id);
      // A degenerate query may have completed inside Submit: its result
      // is already sitting in the outbox; the drain below delivers it.
      DrainOutbox(conn);
      return true;
    }
    case wire::MessageType::kCancelRequest: {
      if (auto valid = wire::DecodeCancelRequest(frame); !valid.ok()) {
        reply_error(valid);
        return true;
      }
      auto it = conn.inflight.find(tag);
      if (it == conn.inflight.end()) {
        reply_error(Status::NotFound(
            "no in-flight query with this tag (already answered?)"));
        return true;
      }
      if (draining_.load(std::memory_order_acquire)) {
        reply_error(Status::Unavailable("service is shutting down"));
        return true;
      }
      // Cancel() returning false means the query finalized concurrently:
      // its terminal frame is already posted, so the client gets its
      // answer either way.
      engine_->Cancel(it->second);
      DrainOutbox(conn);
      return true;
    }
    case wire::MessageType::kApplyDelta: {
      if (draining_.load(std::memory_order_acquire)) {
        reply_error(Status::Unavailable("service is shutting down"));
        return true;
      }
      uint64_t target = 0;
      std::vector<EdgeDelta> ops;
      if (Status s = wire::DecodeApplyDelta(frame, &target, &ops);
          !s.ok()) {
        reply_error(s);
        return true;
      }
      if (Status s = engine_->StageDelta(target, ops); !s.ok()) {
        reply_error(s);
        return true;
      }
      std::vector<uint8_t> reply;
      wire::AppendDeltaAck(engine_->epoch(), &reply);
      wire::SetFrameTag(reply, tag);
      conn.out.insert(conn.out.end(), reply.begin(), reply.end());
      return true;
    }
    case wire::MessageType::kEpochAdvance: {
      if (draining_.load(std::memory_order_acquire)) {
        reply_error(Status::Unavailable("service is shutting down"));
        return true;
      }
      auto target = wire::DecodeEpochAdvance(frame);
      if (!target.ok()) {
        reply_error(target.status());
        return true;
      }
      // The commit runs the subscription delta passes right here on the
      // loop thread; their kMatchDelta frames land in subscriber
      // outboxes and are flushed by the wake-pipe nudge each PostFrame
      // issued (this connection's own frames drain below as usual).
      auto epoch = engine_->CommitEpoch(*target);
      if (!epoch.ok()) {
        reply_error(epoch.status());
        return true;
      }
      std::vector<uint8_t> reply;
      wire::AppendDeltaAck(*epoch, &reply);
      wire::SetFrameTag(reply, tag);
      conn.out.insert(conn.out.end(), reply.begin(), reply.end());
      DrainOutbox(conn);
      return true;
    }
    default:
      reply_error(Status::InvalidArgument(
          "frame type not handled by the enumeration service"));
      return true;
  }
}

bool ServiceTcpServer::ServeReadable(int fd, Conn& conn) {
  uint8_t chunk[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  for (;;) {
    const size_t avail = conn.in.size() - conn.in_pos;
    if (avail < wire::kHeaderBytes) break;
    const uint8_t* p = conn.in.data() + conn.in_pos;
    if (ReadU32(p) != wire::kMagic) return false;  // cannot delimit
    const uint32_t payload = ReadU32(p + 12);
    if (payload > kMaxPayload) return false;
    const size_t frame_bytes = wire::kHeaderBytes + payload;
    if (avail < frame_bytes) break;
    if (!HandleFrame(conn, p, frame_bytes)) return false;
    conn.in_pos += frame_bytes;
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<ptrdiff_t>(conn.in_pos));
    conn.in_pos = 0;
  }
  DrainOutbox(conn);
  if (!FlushWrites(fd, conn)) return false;
  // A half-closed peer with queries still in flight keeps the write
  // side alive until their terminal frames are flushed.
  return !(peer_closed && conn.inflight.empty() &&
           conn.out_pos == conn.out.size());
}

bool ServiceTcpServer::FlushWrites(int fd, Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = send(fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = fd;
          if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) return false;
          conn.want_write = true;
        }
        return true;
      }
      return false;
    }
    conn.out_pos += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) return false;
    conn.want_write = false;
  }
  return true;
}

void ServiceTcpServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it != conns_.end()) {
    {
      std::lock_guard<std::mutex> lk(it->second.outbox->mu);
      it->second.outbox->closed = true;
    }
    // The session dies with its connection: results could no longer be
    // delivered, so stop burning compute on its queries.
    if (engine_ != nullptr) engine_->CancelSession(it->second.session);
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  net::CloseFd(fd);
  conns_.erase(fd);
}

void ServiceTcpServer::EventLoop() {
  epoll_event events[64];
  for (;;) {
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // The destructor takes engine_ only between batches, so within one a
    // frame that saw draining_ unset may still use the engine.
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fds_[0]) {
        uint8_t drain[256];
        while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        if (stopping_.load(std::memory_order_acquire)) return;
        // Outbox nudge: splice every connection's pending frames and
        // flush (connections are few; a scan beats bookkeeping).
        std::vector<int> dead;
        for (auto& [cfd, conn] : conns_) {
          DrainOutbox(conn);
          if (!FlushWrites(cfd, conn)) dead.push_back(cfd);
        }
        for (int cfd : dead) CloseConn(cfd);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) alive = false;
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushWrites(fd, conn);
      }
      if (alive && (events[i].events & EPOLLIN)) {
        alive = ServeReadable(fd, conn);
      }
      if (!alive) CloseConn(fd);
    }
  }
}

void ServiceTcpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  if (wake_fds_[1] >= 0) {
    const uint8_t byte = 1;
    ssize_t rc;
    do {
      rc = write(wake_fds_[1], &byte, 1);
    } while (rc < 0 && errno == EINTR);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lk(conn.outbox->mu);
    conn.outbox->closed = true;
  }
  for (auto& [fd, conn] : conns_) net::CloseFd(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      net::CloseFd(fd);
      fd = -1;
    }
  }
  if (epoll_fd_ >= 0) {
    net::CloseFd(epoll_fd_);
    epoll_fd_ = -1;
  }
}

}  // namespace benu::service
