#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace bih {
namespace net {

namespace {

// poll() wrapper retrying EINTR; >0 ready, 0 timeout, <0 hard error.
int PollFd(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Slice length while the read/write loops wait: short enough that a drain
// or cancellation is noticed promptly, long enough to keep idle poll cost
// negligible.
constexpr int kPollSliceMs = 20;

}  // namespace

Server::Server(SessionManager* session, ServerConfig cfg)
    : session_(session),
      cfg_(std::move(cfg)),
      tenants_(cfg_.tenant_quota),
      fault_(cfg_.fault) {}

Server::~Server() { Drain(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address " + cfg_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status st = Status::IoError("bind to " + cfg_.bind_address + ":" +
                                std::to_string(cfg_.port) + " failed: " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status st =
        Status::IoError(std::string("listen failed: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::BumpStat(uint64_t NetServerStats::* field, uint64_t delta) {
  MutexLock lock(stats_mu_);
  stats_.*field += delta;
}

FaultInjector::Action Server::NextSendAction(size_t frame_len) {
  MutexLock lock(fault_mu_);
  if (fault_ == nullptr || !fault_->is_net_mode()) {
    return FaultInjector::Action();
  }
  return fault_->OnNetSend(++send_index_, frame_len);
}

FaultInjector::Action Server::NextAcceptAction() {
  MutexLock lock(fault_mu_);
  if (fault_ == nullptr || !fault_->is_net_mode()) {
    return FaultInjector::Action();
  }
  return fault_->OnAccept(++accept_index_);
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int ready = PollFd(listen_fd_, POLLIN, kPollSliceMs);
    if (ready <= 0) continue;
    struct sockaddr_in peer;
    socklen_t len = sizeof(peer);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<struct sockaddr*>(&peer), &len);
    if (fd < 0) continue;
    // Injected accept failure: the handshake completed but the server
    // behaves as if the kernel aborted it — the client sees an immediate
    // close and must reconnect.
    if (NextAcceptAction().fail) {
      BumpStat(&NetServerStats::accept_faults);
      ::close(fd);
      continue;
    }
    std::shared_ptr<Connection> conn;
    {
      MutexLock lock(conns_mu_);
      if (static_cast<int>(conns_.size()) < cfg_.max_connections) {
        conn = std::make_shared<Connection>();
        conn->id = ++next_conn_id_;
        conn->fd = fd;
        conns_[conn->id] = conn;
      }
    }
    if (conn == nullptr) {
      BumpStat(&NetServerStats::rejected_overload);
      ::close(fd);
      continue;
    }
    BumpStat(&NetServerStats::accepted);
    SetNonBlocking(fd);
    MutexLock lock(threads_mu_);
    threads_.emplace_back([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(std::shared_ptr<Connection> conn) {
  std::string buf;
  auto last_activity = std::chrono::steady_clock::now();
  bool alive = true;
  while (alive) {
    // Drain every complete frame already buffered; the protocol is
    // strictly request/reply, so in practice this loop runs at most once
    // per wait (a well-behaved client never pipelines).
    bool progressed = true;
    while (alive && progressed) {
      progressed = false;
      size_t consumed = 0;
      std::string payload;
      Status fs = DecodeFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                              buf.size(), &consumed, &payload);
      if (fs.ok()) {
        buf.erase(0, consumed);
        BumpStat(&NetServerStats::frames_in);
        Message msg;
        Status ms = DecodeMessage(
            reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
            &msg);
        if (!ms.ok()) {
          BumpStat(&NetServerStats::protocol_errors);
          alive = false;
          break;
        }
        alive = HandleMessage(*conn, msg);
        last_activity = std::chrono::steady_clock::now();
        progressed = true;
      } else if (fs.code() == Status::Code::kIoError) {
        // Oversized length or CRC mismatch: the stream cannot be resynced.
        BumpStat(&NetServerStats::protocol_errors);
        alive = false;
      }
    }
    if (!alive) break;
    // Between requests is the drain point: in-flight work above was
    // finished and its reply flushed; now is when the connection steps
    // aside instead of taking on more.
    if (draining_.load(std::memory_order_acquire)) break;
    const int ready = PollFd(conn->fd, POLLIN, kPollSliceMs);
    if (ready < 0) break;
    if (ready == 0) {
      if (std::chrono::steady_clock::now() - last_activity >=
          cfg_.idle_timeout) {
        break;  // idle (or slow-loris) connection: reclaim the thread
      }
      continue;
    }
    char tmp[4096];
    const ssize_t n = ::recv(conn->fd, tmp, sizeof(tmp), 0);
    if (n == 0) break;  // orderly EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    buf.append(tmp, static_cast<size_t>(n));
    last_activity = std::chrono::steady_clock::now();
  }
  // Deregister before closing: Drain's shutdown sweep only touches fds of
  // registered connections, so a recycled descriptor can never be hit.
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->id);
  }
  ::close(conn->fd);
}

bool Server::HandleMessage(Connection& conn, const Message& in) {
  Message reply;
  reply.request_id = in.request_id;
  switch (in.type) {
    case MsgType::kHello: {
      if (in.version != kProtocolVersion) {
        reply.type = MsgType::kError;
        reply.status_code =
            static_cast<uint8_t>(Status::Code::kInvalidArgument);
        reply.text = "protocol version " + std::to_string(in.version) +
                     " not supported";
        (void)SendReply(conn, reply);
        return false;
      }
      if (draining_.load(std::memory_order_acquire)) {
        reply.type = MsgType::kError;
        reply.status_code = static_cast<uint8_t>(Status::Code::kUnavailable);
        reply.text = "server is draining";
        reply.retry_hint = "reconnect to a live replica or retry after restart";
        (void)SendReply(conn, reply);
        return false;
      }
      const std::string tenant = in.text.empty() ? "default" : in.text;
      // The tenant is set once; a second Hello is a protocol violation.
      if (conn.tenant != nullptr) {
        reply.type = MsgType::kError;
        reply.status_code =
            static_cast<uint8_t>(Status::Code::kInvalidArgument);
        reply.text = "session already open";
        return SendReply(conn, reply);
      }
      conn.tenant = tenants_.GetOrCreate(tenant);
      conn.scan_threads = static_cast<int>(in.scan_threads);
      reply.type = MsgType::kHelloOk;
      reply.conn_id = conn.id;
      return SendReply(conn, reply);
    }
    case MsgType::kQuery:
      HandleQuery(conn, in, &reply);
      return SendReply(conn, reply);
    case MsgType::kExplain:
      HandleExplain(conn, in, &reply);
      return SendReply(conn, reply);
    case MsgType::kCancel:
      HandleCancel(in);
      reply.type = MsgType::kPong;
      return SendReply(conn, reply);
    case MsgType::kStats:
      reply.type = MsgType::kStatsReply;
      reply.text = StatsJson();
      return SendReply(conn, reply);
    case MsgType::kPing:
      reply.type = MsgType::kPong;
      return SendReply(conn, reply);
    case MsgType::kGoodbye:
      return false;
    default:
      // A server-side tag arriving at the server is a confused peer.
      BumpStat(&NetServerStats::protocol_errors);
      return false;
  }
}

ExecOptions Server::QueryExecOptions(const Connection& conn) const {
  ExecOptions opts = session_->exec_options();
  if (conn.scan_threads > 0) opts.scan_threads = conn.scan_threads;
  return opts;
}

bool Server::RunRequest(Connection& conn, const Message& in, Message* reply,
                        const std::function<Status(QueryContext*)>& body) {
  BumpStat(&NetServerStats::queries);
  reply->type = MsgType::kError;
  if (conn.tenant == nullptr) {
    reply->status_code = static_cast<uint8_t>(Status::Code::kInvalidArgument);
    reply->text = "no session: send Hello first";
    return false;
  }
  QueryContext ctx =
      in.deadline_ms > 0
          ? QueryContext::WithTimeout(std::chrono::milliseconds(in.deadline_ms))
          : QueryContext();
  // Publish the context for out-of-band cancellation. Cleared (under the
  // same lock) before ctx leaves scope, so a racing kCancel either finds
  // a live context or none.
  {
    MutexLock lock(conn.mu);
    conn.active = &ctx;
    conn.active_request_id = in.request_id;
  }
  // Tenant quota first (bounded queue, fail-fast shedding), then the
  // session's global admission inside the body. The wait in either queue
  // honours ctx, so a cancel or deadline never leaves a thread parked.
  Status s = conn.tenant->admission().Admit(&ctx);
  if (s.ok()) {
    s = body(&ctx);
    conn.tenant->admission().Release();
  }
  {
    MutexLock lock(conn.mu);
    conn.active = nullptr;
    conn.active_request_id = 0;
  }
  conn.tenant->Account(s);
  if (s.ok()) return true;
  reply->status_code = static_cast<uint8_t>(s.code());
  reply->text = s.message();
  reply->retry_hint = s.retry_hint();
  reply->retry_after_ms = AdmissionController::RetryAfterMs(s);
  return false;
}

void Server::HandleQuery(Connection& conn, const Message& in, Message* reply) {
  sql::SqlResult result;
  const bool ok = RunRequest(conn, in, reply, [&](QueryContext* ctx) {
    if (sql::LooksLikeDml(in.text)) {
      // Writes serialize on the session's writer lock; check the budget at
      // the last gate before queueing. Inside, ctx bounds the statement's
      // key location and is checked once more before it applies anything.
      BIH_RETURN_IF_ERROR(ctx->CheckNow());
      return session_->Write([&](TemporalEngine& eng) {
        return sql::ExecuteSql(eng, in.text, &result, ctx);
      });
    }
    const ExecOptions opts = QueryExecOptions(conn);
    return session_->ReadTxn(ctx, [&](TemporalEngine& eng) {
      return sql::ExecuteSql(eng, in.text, &result, ctx, opts);
    });
  });
  if (!ok) return;
  reply->type = MsgType::kResult;
  reply->columns = std::move(result.columns);
  reply->rows = std::move(result.rows);
}

void Server::HandleExplain(Connection& conn, const Message& in,
                           Message* reply) {
  std::string json;
  const bool ok = RunRequest(conn, in, reply, [&](QueryContext* ctx) {
    const ExecOptions opts = QueryExecOptions(conn);
    return session_->ReadTxn(ctx, [&](TemporalEngine& eng) {
      return sql::Explain(eng, in.text, &json, ctx, opts);
    });
  });
  if (!ok) return;
  reply->type = MsgType::kExplainReply;
  reply->text = std::move(json);
}

void Server::HandleCancel(const Message& in) {
  BumpStat(&NetServerStats::cancels);
  std::shared_ptr<Connection> target;
  {
    MutexLock lock(conns_mu_);
    auto it = conns_.find(in.conn_id);
    if (it != conns_.end()) target = it->second;
  }
  if (target == nullptr) return;
  MutexLock lock(target->mu);
  // Only the request the canceller saw: a stale cancel (the query already
  // finished, maybe a new one started) must not kill the wrong request.
  if (target->active != nullptr &&
      target->active_request_id == in.request_id) {
    target->active->Cancel();
  }
}

bool Server::SendReply(Connection& conn, const Message& reply) {
  std::string payload, frame;
  EncodeMessage(reply, &payload);
  EncodeFrame(payload, &frame);
  if (conn.tenant != nullptr) conn.tenant->AddBytesOut(payload.size());
  return SendFrame(conn, frame);
}

bool Server::SendFrame(Connection& conn, const std::string& frame) {
  FaultInjector::Action a = NextSendAction(frame.size());
  if (a.fail) {
    // Mid-response drop: the reply evaporates and the connection dies. The
    // client's contract ("a reply or an observably dead connection") is
    // kept by the death, not the reply.
    BumpStat(&NetServerStats::dropped_responses);
    return false;
  }
  size_t send_len = frame.size();
  if (a.torn) {
    BumpStat(&NetServerStats::torn_frames);
    send_len = std::min(a.keep_bytes, send_len);
  }
  if (a.slow) BumpStat(&NetServerStats::slow_writes);
  const auto deadline =
      std::chrono::steady_clock::now() + cfg_.write_timeout;
  size_t off = 0;
  while (off < send_len) {
    size_t chunk = send_len - off;
    if (a.slow) {
      // Slow-loris send: dribble the frame in eighths with pauses. Bounded
      // by construction (<= 8 sleeps), so injected slowness stretches a
      // response without ever wedging the thread.
      chunk = std::min(chunk, std::max<size_t>(1, frame.size() / 8));
    }
    const ssize_t n = ::send(conn.fd, frame.data() + off, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        (void)PollFd(conn.fd, POLLOUT, kPollSliceMs);
        continue;
      }
      return false;  // peer reset / shutdown: connection is done
    }
    off += static_cast<size_t>(n);
    if (a.slow && off < send_len) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (a.torn) return false;  // half a frame went out; drop the connection
  BumpStat(&NetServerStats::frames_out);
  return true;
}

void Server::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    MutexLock lock(drain_mu_);
    if (drain_done_) return;
    if (drain_running_) {
      // Another thread is draining; wait for it so every caller returns
      // only once the server is truly quiesced.
      while (!drain_done_) {
        drain_cv_.WaitFor(drain_mu_, std::chrono::milliseconds(10));
      }
      return;
    }
    drain_running_ = true;
  }
  // Phase 0: stop taking on work. The accept loop notices within one poll
  // slice; serving threads stop before reading their next request.
  draining_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Phase 1: give in-flight requests until the deadline to finish and
  // flush their replies.
  const auto deadline =
      std::chrono::steady_clock::now() + cfg_.drain_deadline;
  for (;;) {
    {
      MutexLock lock(conns_mu_);
      if (conns_.empty()) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Phase 2: whatever still runs is cancelled and its socket shut down.
  // The shutdown wakes any blocked poll/recv/send; the cancel unhooks
  // queries waiting in admission queues or scanning rows.
  {
    MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      {
        MutexLock cl(conn->mu);
        if (conn->active != nullptr) conn->active->Cancel();
      }
      (void)::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> threads;
  {
    MutexLock lock(threads_mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    MutexLock lock(drain_mu_);
    drain_done_ = true;
  }
  drain_cv_.NotifyAll();
}

NetServerStats Server::GetStats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

std::string Server::StatsJson() const {
  const NetServerStats s = GetStats();
  std::string out = "{\"server\":{";
  out += "\"accepted\":" + std::to_string(s.accepted);
  out += ",\"rejected_overload\":" + std::to_string(s.rejected_overload);
  out += ",\"accept_faults\":" + std::to_string(s.accept_faults);
  out += ",\"frames_in\":" + std::to_string(s.frames_in);
  out += ",\"frames_out\":" + std::to_string(s.frames_out);
  out += ",\"torn_frames\":" + std::to_string(s.torn_frames);
  out += ",\"dropped_responses\":" + std::to_string(s.dropped_responses);
  out += ",\"slow_writes\":" + std::to_string(s.slow_writes);
  out += ",\"protocol_errors\":" + std::to_string(s.protocol_errors);
  out += ",\"queries\":" + std::to_string(s.queries);
  out += ",\"cancels\":" + std::to_string(s.cancels);
  out += ",\"read_only\":";
  out += session_->read_only() ? "true" : "false";
  out += "},\"tenants\":" + tenants_.StatsJson();
  out += "}";
  return out;
}

}  // namespace net
}  // namespace bih
