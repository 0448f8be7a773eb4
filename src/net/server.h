#ifndef TPCBIH_NET_SERVER_H_
#define TPCBIH_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/fault.h"
#include "net/protocol.h"
#include "net/tenant.h"
#include "server/session.h"

namespace bih {
namespace net {

struct ServerConfig {
  // 0 binds an ephemeral port; port() reports the one the kernel chose.
  uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  // Connections beyond this are accepted and immediately closed (the
  // kernel has already completed the handshake; closing is the only way
  // to signal overload without reading).
  int max_connections = 256;
  TenantQuota tenant_quota;
  // A connection with no complete request for this long is closed. This is
  // the slow-loris bound on the *read* side: a client dribbling a frame
  // byte-by-byte holds a connection, not a thread pool's future.
  std::chrono::milliseconds idle_timeout{30000};
  // Budget for pushing one response frame to the kernel; a peer that stops
  // draining its socket loses the connection, not the server a thread.
  std::chrono::milliseconds write_timeout{5000};
  // Drain(): how long in-flight requests may keep running before they are
  // cancelled and the sockets are shut down.
  std::chrono::milliseconds drain_deadline{2000};
  // Injected network faults (borrowed; net modes only). All consultation is
  // serialized by the server, so one plan covers all connections.
  FaultInjector* fault = nullptr;
};

struct NetServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_overload = 0;  // closed at accept: too many connections
  uint64_t accept_faults = 0;      // injected accept failures
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t torn_frames = 0;        // injected torn sends
  uint64_t dropped_responses = 0;  // injected pre-send drops
  uint64_t slow_writes = 0;        // injected slow-loris sends
  uint64_t protocol_errors = 0;    // corrupt/oversized/unparseable frames
  uint64_t queries = 0;
  uint64_t cancels = 0;
};

// The network front end: a length-prefixed binary protocol server fronting
// one SessionManager. One OS thread per connection (the benchmark's client
// counts are hundreds, not millions), requests on a connection are strictly
// sequential — the server never reads request N+1 before the reply to N is
// on the wire. That single rule is the backpressure story: a tenant whose
// quota is exhausted gets its kResourceExhausted reply and nothing of that
// tenant's is buffered server-side beyond the one frame being served.
//
// Robustness contract:
//  * every complete request gets exactly one reply frame, or the connection
//    dies observably (torn frame / reset) — never a silent drop;
//  * per-request deadlines ride the wire (deadline_ms) and propagate into
//    a QueryContext that the session's watchdog also sweeps;
//  * cancellation is Postgres-style out-of-band: kCancel(conn_id,
//    request_id) on any connection cancels the in-flight query of that
//    connection if the ids still match;
//  * a session degraded to read-only answers writes with a structured
//    kUnavailable error frame carrying the retry hint;
//  * Drain() (SIGTERM) stops accepting, lets in-flight work finish within
//    drain_deadline, then cancels and shuts sockets; it never hangs.
class Server {
 public:
  Server(SessionManager* session, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the accept thread.
  Status Start();

  // The bound port (after Start); useful with cfg.port == 0.
  uint16_t port() const { return port_; }

  // Graceful shutdown; idempotent and safe from any thread (the first
  // caller performs the drain, later callers block until it finishes).
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  NetServerStats GetStats() const;
  // Server counters plus the per-tenant block from TenantRegistry.
  std::string StatsJson() const;

  TenantRegistry& tenants() { return tenants_; }

 private:
  // Per-connection state shared between the serving thread and the threads
  // that may cancel it (kCancel handlers, Drain).
  struct Connection {
    // id and fd are fixed by AcceptLoop before the serving thread exists;
    // tenant and scan_threads are set by the kHello handler and stable for
    // the rest of the connection. None is ever written concurrently.
    uint64_t id = 0;                // bih-lint: allow(guard-coverage)
    int fd = -1;                    // bih-lint: allow(guard-coverage)
    TenantState* tenant = nullptr;  // bih-lint: allow(guard-coverage)
    // Session-scoped intra-query parallelism override from the hello frame;
    // 0 keeps the server's default. Merged into ExecOptions per query.
    int scan_threads = 0;  // bih-lint: allow(guard-coverage)
    // Nested inside the registry lock by Drain, which sweeps every
    // connection's active query under conns_mu_.
    Mutex mu ACQUIRED_AFTER("Server::conns_mu_");
    // The in-flight query this connection is executing, if any. Registered
    // under mu just before execution and cleared (under mu) before the
    // context leaves scope, so a concurrent Cancel can never dangle.
    QueryContext* active GUARDED_BY(mu) = nullptr;
    uint64_t active_request_id GUARDED_BY(mu) = 0;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Connection> conn);
  // Dispatches one decoded request. Returns false when the connection
  // should close (goodbye, protocol violation, injected drop).
  bool HandleMessage(Connection& conn, const Message& in);
  // The skeleton every kQuery/kExplain request runs through: a context
  // carrying the wire deadline, published on conn.active for kCancel,
  // tenant admission around `body`, the tenant's accounting and the error
  // reply. Returns true when `body` succeeded and the caller should fill
  // in its success reply.
  bool RunRequest(Connection& conn, const Message& in, Message* reply,
                  const std::function<Status(QueryContext*)>& body);
  void HandleQuery(Connection& conn, const Message& in, Message* reply);
  void HandleExplain(Connection& conn, const Message& in, Message* reply);
  void HandleCancel(const Message& in);
  // Session defaults overlaid with the connection's hello-frame override.
  ExecOptions QueryExecOptions(const Connection& conn) const;

  // Sends one reply frame through the fault injector. False = the
  // connection must die (injected drop/torn frame, peer gone, timeout).
  bool SendReply(Connection& conn, const Message& reply);
  // Raw fault-checked frame write; bytes_out reports payload bytes sent.
  bool SendFrame(Connection& conn, const std::string& frame);

  // Consults the shared injector under fault_mu_ (the injector's counters
  // are not thread-safe on their own).
  FaultInjector::Action NextSendAction(size_t frame_len);
  FaultInjector::Action NextAcceptAction();

  void BumpStat(uint64_t NetServerStats::* field, uint64_t delta = 1);

  SessionManager* session_;  // borrowed
  const ServerConfig cfg_;
  TenantRegistry tenants_;

  // Lifecycle-only: written by Start before the accept thread is spawned,
  // read/joined by Stop after draining; never touched concurrently.
  int listen_fd_ = -1;  // bih-lint: allow(guard-coverage)
  uint16_t port_ = 0;   // bih-lint: allow(guard-coverage)
  std::thread accept_thread_;  // bih-lint: allow(guard-coverage)

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  // Serializes the drain sequence itself; drained_ flips once at the end.
  Mutex drain_mu_;
  CondVar drain_cv_;
  bool drain_done_ GUARDED_BY(drain_mu_) = false;
  bool drain_running_ GUARDED_BY(drain_mu_) = false;

  // Live connections, keyed by conn id, for kCancel routing and Drain's
  // cancel-and-shutdown sweep. A serving thread removes itself *before*
  // closing its fd, so the sweep can never shut down a recycled fd.
  mutable Mutex conns_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ GUARDED_BY(conns_mu_) = 0;

  // Serving threads; joined by Drain after the sockets are shut down.
  Mutex threads_mu_ ACQUIRED_AFTER(conns_mu_);
  std::vector<std::thread> threads_ GUARDED_BY(threads_mu_);

  // The injector and its operation counters move together.
  Mutex fault_mu_;
  FaultInjector* fault_ GUARDED_BY(fault_mu_) PT_GUARDED_BY(fault_mu_);
  uint64_t send_index_ GUARDED_BY(fault_mu_) = 0;
  uint64_t accept_index_ GUARDED_BY(fault_mu_) = 0;

  mutable Mutex stats_mu_;
  NetServerStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace net
}  // namespace bih

#endif  // TPCBIH_NET_SERVER_H_
