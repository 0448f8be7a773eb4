// Connection-level chaos soak for the network service layer. Hundreds of
// client threads across several tenants hammer one server while the fault
// injector tears frames, drops responses mid-send, slow-lorises writes and
// fails accepts. The properties under test are the server's robustness
// contract, end to end:
//
//  * no request is ever silently lost — every Query() a client submits
//    lands in exactly one bucket: an OK reply, a structured server error,
//    or an observably dead connection (transport error);
//  * every OK reply is byte-identical to the payload an in-process
//    execution of the same statement encodes — the wire adds faults, never
//    data corruption;
//  * graceful drain finishes within its deadline under full load, with the
//    watchdog sweeping concurrently, and in-flight requests get their
//    replies before the connection steps aside;
//  * a dead WAL surfaces to remote writers as a structured kUnavailable
//    frame with a retry hint, and a checkpoint revives the session without
//    a restart;
//  * cancellation is out-of-band and deadlines ride the wire, so a query
//    stuck behind a long writer is released either way.
//
// Fault plans come from the same injector the durability chaos sweep uses
// (BIH_FAULT=net:... selects an extra plan; BIH_NET_SOAK_THREADS scales the
// storm; BIH_NET_STATS_OUT dumps per-plan per-tenant stats JSON for CI).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "durability/checkpoint.h"
#include "durability/fault.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/session.h"
#include "sql/executor.h"
#include "reference_model.h"

namespace bih {
namespace net {
namespace {

int SoakThreads() {
  if (const char* s = std::getenv("BIH_NET_SOAK_THREADS")) {
    const int v = std::atoi(s);
    if (v > 0 && v <= 512) return v;
  }
  return 32;
}

// One statement plus the result an in-process execution produced before the
// server existed. OK replies over the wire must encode to these exact rows.
struct QueryCase {
  std::string sql;
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

struct Fixture {
  std::unique_ptr<TemporalEngine> engine;
  std::vector<QueryCase> queries;
};

// Loads the ITEM table and precomputes every soak query's expected result.
// The queries pin SYSTEM_TIME AS OF the post-load watermark, so they stay
// stable no matter what else ever touches the engine.
void BuildFixture(Fixture* fx, int64_t n_rows) {
  fx->engine = MakeEngine("A");
  ASSERT_TRUE(fx->engine->CreateTable(FuzzItemDef()).ok());
  for (int64_t i = 1; i <= n_rows; ++i) {
    ASSERT_TRUE(fx->engine
                    ->Insert("ITEM",
                             {Value(i), Value(static_cast<double>(i) * 1.25),
                              Value("note-" + std::to_string(i)),
                              Value(int64_t{0}), Value(Period::kForever)})
                    .ok());
  }
  const std::string wm = std::to_string(fx->engine->Now().micros());
  std::vector<std::string> sqls;
  for (int64_t k = 1; k <= 8; ++k) {
    sqls.push_back("SELECT ID, PRICE, NOTE FROM ITEM FOR SYSTEM_TIME AS OF " +
                   wm + " WHERE ID = " + std::to_string(k));
  }
  sqls.push_back("SELECT ID, NOTE FROM ITEM FOR SYSTEM_TIME AS OF " + wm +
                 " ORDER BY ID");
  for (const std::string& q : sqls) {
    sql::SqlResult res;
    ASSERT_TRUE(sql::ExecuteSql(*fx->engine, q, &res).ok()) << q;
    ASSERT_FALSE(res.rows.empty()) << q;
    fx->queries.push_back({q, std::move(res.columns), std::move(res.rows)});
  }
}

// The payload the server must have sent for an OK reply to `qc`: encode the
// same Message it builds (kResult + echoed request id + rows).
std::string ExpectedPayload(const QueryCase& qc, uint64_t request_id) {
  Message m;
  m.type = MsgType::kResult;
  m.request_id = request_id;
  m.columns = qc.columns;
  m.rows = qc.rows;
  std::string payload;
  EncodeMessage(m, &payload);
  return payload;
}

// One worker thread's ledger. Every submitted request increments exactly
// one outcome bucket; the aggregate identity over these is the "no request
// silently lost" assertion.
struct Tally {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t server_error = 0;
  uint64_t transport_dead = 0;
  uint64_t byte_mismatch = 0;
  uint64_t connect_failures = 0;
  std::set<Status::Code> error_codes;
};

bool ConnectWithRetry(Client* c, uint16_t port, const std::string& tenant,
                      int attempts) {
  for (int i = 0; i < attempts; ++i) {
    c->Close();
    if (c->Connect("127.0.0.1", port, tenant).ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Issues `iters` queries, reconnecting whenever an injected fault kills the
// connection, and buckets every outcome. Honours the server's retry_after
// hint on shed replies (capped: the soak should stay a storm).
void SoakWorker(uint16_t port, std::string tenant,
                const std::vector<QueryCase>* queries, int iters,
                uint64_t seed, Tally* t) {
  Client c;
  c.set_recv_timeout_ms(10000);
  if (!ConnectWithRetry(&c, port, tenant, 50)) {
    ++t->connect_failures;
    return;
  }
  uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (int i = 0; i < iters; ++i) {
    if (!c.connected() && !ConnectWithRetry(&c, port, tenant, 50)) {
      ++t->connect_failures;
      return;
    }
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const QueryCase& qc = (*queries)[(h >> 33) % queries->size()];
    QueryReply reply;
    ++t->submitted;
    const Status s = c.Query(qc.sql, 5000, &reply);
    if (s.ok()) {
      ++t->ok;
      if (reply.raw_payload != ExpectedPayload(qc, reply.request_id)) {
        ++t->byte_mismatch;
      }
    } else if (s.code() == Status::Code::kIoError) {
      ++t->transport_dead;  // observably dead connection, never silence
      c.Close();
    } else {
      ++t->server_error;
      t->error_codes.insert(s.code());
      if (reply.retry_after_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint32_t>(reply.retry_after_ms, 50)));
      }
    }
  }
}

Tally Aggregate(const std::vector<Tally>& parts) {
  Tally sum;
  for (const Tally& t : parts) {
    sum.submitted += t.submitted;
    sum.ok += t.ok;
    sum.server_error += t.server_error;
    sum.transport_dead += t.transport_dead;
    sum.byte_mismatch += t.byte_mismatch;
    sum.connect_failures += t.connect_failures;
    sum.error_codes.insert(t.error_codes.begin(), t.error_codes.end());
  }
  return sum;
}

// Under injected faults the only acceptable *structured* errors are the
// load-management verdicts; anything else (kInternal, kNotFound, a parse
// error...) means the chaos corrupted a request instead of killing it.
void ExpectOnlyLoadSheddingErrors(const Tally& sum) {
  for (Status::Code code : sum.error_codes) {
    EXPECT_TRUE(code == Status::Code::kResourceExhausted ||
                code == Status::Code::kDeadlineExceeded)
        << "unexpected structured error code "
        << static_cast<int>(code);
  }
}

enum class FaultKind { kNone, kTorn, kDrop, kSlow, kAccept, kEnv };

struct PlanSpec {
  const char* name;
  FaultKind kind;
  uint64_t n;
};

FaultInjector MakePlanFault(const PlanSpec& p) {
  switch (p.kind) {
    case FaultKind::kTorn:
      return FaultInjector::NetTornNth(p.n);
    case FaultKind::kDrop:
      return FaultInjector::NetDropNth(p.n);
    case FaultKind::kSlow:
      return FaultInjector::NetSlowNth(p.n);
    case FaultKind::kAccept:
      return FaultInjector::NetAcceptFailNth(p.n);
    case FaultKind::kEnv:
      return FaultInjector::FromEnv();
    case FaultKind::kNone:
      break;
  }
  return FaultInjector();
}

// Drain must finish within its configured deadline plus scheduling slack
// (generous: CI runs this under TSan, where everything is several times
// slower). The property is "bounded", not "fast".
constexpr double kDrainSlackMs = 8000.0;

void RunSoakPlan(const PlanSpec& plan, Fixture* fx,
                 std::string* stats_json_out) {
  SCOPED_TRACE(plan.name);
  FaultInjector fault = MakePlanFault(plan);
  SessionConfig scfg;
  SessionManager session(fx->engine.get(), scfg);
  ServerConfig cfg;
  if (fault.is_net_mode()) cfg.fault = &fault;
  Server server(&session, cfg);
  ASSERT_TRUE(server.Start().ok());

  const int threads = SoakThreads();
  const int iters = 12;
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(SoakWorker, server.port(),
                         "tenant-" + std::to_string(t % 4), &fx->queries,
                         iters, static_cast<uint64_t>(t + 1), &tallies[t]);
  }
  for (std::thread& w : workers) w.join();

  const auto t0 = std::chrono::steady_clock::now();
  server.Drain();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const Tally sum = Aggregate(tallies);
  const NetServerStats st = server.GetStats();
  *stats_json_out = server.StatsJson();

  // No request silently lost: the buckets partition everything submitted.
  EXPECT_EQ(sum.submitted, sum.ok + sum.server_error + sum.transport_dead);
  EXPECT_GT(sum.ok, 0u) << "the storm never got a single reply through";
  EXPECT_EQ(0u, sum.byte_mismatch)
      << "a wire reply differed from in-process execution";
  ExpectOnlyLoadSheddingErrors(sum);
  // The server saw at least every request a client got a verdict for.
  EXPECT_GE(st.queries, sum.ok + sum.server_error);
  const double drain_bound_ms =
      static_cast<double>(cfg.drain_deadline.count()) + kDrainSlackMs;
  EXPECT_LT(drain_ms, drain_bound_ms);

  switch (plan.kind) {
    case FaultKind::kNone:
      // Without injected faults the transport must be spotless.
      EXPECT_EQ(0u, sum.transport_dead);
      EXPECT_EQ(0u, sum.connect_failures);
      EXPECT_EQ(0u, st.torn_frames + st.dropped_responses + st.slow_writes +
                        st.accept_faults);
      break;
    case FaultKind::kTorn:
      EXPECT_GT(st.torn_frames, 0u) << "plan never fired";
      EXPECT_GT(sum.transport_dead, 0u);
      break;
    case FaultKind::kDrop:
      EXPECT_GT(st.dropped_responses, 0u) << "plan never fired";
      EXPECT_GT(sum.transport_dead, 0u);
      break;
    case FaultKind::kSlow:
      // Slowed frames still arrive complete: byte-identity above is the
      // real assertion, the counter just proves the plan fired.
      EXPECT_GT(st.slow_writes, 0u) << "plan never fired";
      break;
    case FaultKind::kAccept:
      EXPECT_GT(st.accept_faults, 0u) << "plan never fired";
      break;
    case FaultKind::kEnv:
      break;  // whichever net mode the environment chose; counters vary
  }
}

TEST(NetChaosTest, SoakAcrossFaultPlans) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  std::vector<PlanSpec> plans = {
      {"baseline", FaultKind::kNone, 0},
      {"net-torn-5", FaultKind::kTorn, 5},
      {"net-torn-2", FaultKind::kTorn, 2},
      {"net-drop-7", FaultKind::kDrop, 7},
      {"net-drop-3", FaultKind::kDrop, 3},
      {"net-slow-4", FaultKind::kSlow, 4},
      {"net-accept-3", FaultKind::kAccept, 3},
  };
  // CI's net-soak job pins an extra plan through the same env var the
  // durability sweep uses.
  if (FaultInjector::FromEnv().is_net_mode()) {
    plans.push_back({"env", FaultKind::kEnv, 0});
  }
  std::string report = "[";
  for (size_t i = 0; i < plans.size(); ++i) {
    std::string stats_json;
    RunSoakPlan(plans[i], &fx, &stats_json);
    if (i > 0) report += ",";
    report += "{\"plan\":\"" + std::string(plans[i].name) +
              "\",\"stats\":" + stats_json + "}";
  }
  report += "]\n";
  if (const char* path = std::getenv("BIH_NET_STATS_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(nullptr, f) << "cannot write " << path;
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }
}

// Workers that keep storming until told to stop: connection losses turn
// into reconnect attempts, so the drain below happens under genuinely live
// load, not against an idle server.
void DrainStormWorker(uint16_t port, std::string tenant,
                      const std::vector<QueryCase>* queries,
                      std::atomic<bool>* stop, Tally* t) {
  Client c;
  c.set_recv_timeout_ms(8000);
  size_t qi = 0;
  while (!stop->load(std::memory_order_acquire)) {
    if (!c.connected()) {
      c.Close();
      if (!c.Connect("127.0.0.1", port, tenant).ok()) {
        ++t->connect_failures;  // draining or drained: expected
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
    }
    const QueryCase& qc = (*queries)[qi++ % queries->size()];
    QueryReply reply;
    ++t->submitted;
    const Status s = c.Query(qc.sql, 5000, &reply);
    if (s.ok()) {
      ++t->ok;
      if (reply.raw_payload != ExpectedPayload(qc, reply.request_id)) {
        ++t->byte_mismatch;
      }
    } else if (s.code() == Status::Code::kIoError) {
      ++t->transport_dead;
      c.Close();
    } else {
      ++t->server_error;
      t->error_codes.insert(s.code());
    }
  }
}

TEST(NetChaosTest, DrainUnderLoadNeverHangsAndLosesNothing) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  ServerConfig cfg;
  cfg.drain_deadline = std::chrono::milliseconds(1000);
  Server server(&session, cfg);
  ASSERT_TRUE(server.Start().ok());

  const int threads = SoakThreads();
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(DrainStormWorker, server.port(),
                         "tenant-" + std::to_string(t % 4), &fx.queries,
                         &stop, &tallies[t]);
  }
  // Let the storm actually build before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  server.Drain();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  stop.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  const Tally sum = Aggregate(tallies);
  EXPECT_LT(drain_ms, 1000.0 + kDrainSlackMs) << "drain hung under load";
  EXPECT_EQ(sum.submitted, sum.ok + sum.server_error + sum.transport_dead);
  EXPECT_GT(sum.ok, 0u);
  EXPECT_EQ(0u, sum.byte_mismatch);
  ExpectOnlyLoadSheddingErrors(sum);
}

TEST(NetChaosTest, DrainLetsAnInflightRequestFinishFirst) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), "finisher").ok());

  const QueryCase& qc = fx.queries.back();
  Status got = Status::Internal("never ran");
  QueryReply reply;
  std::thread q([&] { got = c.Query(qc.sql, 0, &reply); });
  // Phase 1 of the drain waits out in-flight work; the request sent just
  // above must be answered, not cut off.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Drain();
  q.join();
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(ExpectedPayload(qc, reply.request_id), reply.raw_payload);
}

// Holds the session's writer lock until released, from a plain thread. Any
// read issued meanwhile parks in the session's polled shared-lock loop,
// which is exactly where deadlines, cancels and the watchdog must reach it.
class WriterHold {
 public:
  explicit WriterHold(SessionManager* session) {
    thread_ = std::thread([this, session] {
      status_ = session->Write([this](TemporalEngine&) {
        while (!release_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return Status::OK();
      });
    });
    // Give the writer a moment to actually take the lock.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ~WriterHold() { Release(); }
  void Release() {
    release_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(status_.ok()) << status_.ToString();
  }

 private:
  std::atomic<bool> release_{false};
  Status status_ = Status::OK();
  std::thread thread_;
};

TEST(NetChaosTest, OutOfBandCancelReleasesAQueryStuckBehindAWriter) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  Client victim;
  ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), "victim").ok());
  const uint64_t conn_id = victim.conn_id();
  const uint64_t request_id = victim.next_request_id();

  WriterHold hold(&session);
  std::atomic<bool> done{false};
  // Postgres-style: the cancel rides a second connection. Spam it until
  // the victim's reply lands — one attempt is guaranteed to overlap the
  // registered in-flight context because the query cannot finish on its
  // own while the writer holds the lock.
  std::thread canceller([&] {
    Client killer;
    if (!killer.Connect("127.0.0.1", server.port(), "victim").ok()) return;
    while (!done.load(std::memory_order_acquire)) {
      (void)killer.CancelPeer(conn_id, request_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  QueryReply reply;
  const Status s = victim.Query(fx.queries[0].sql, /*deadline_ms=*/0, &reply);
  done.store(true, std::memory_order_release);
  canceller.join();
  hold.Release();
  EXPECT_EQ(Status::Code::kCancelled, s.code()) << s.ToString();
  EXPECT_GT(server.GetStats().cancels, 0u);
}

TEST(NetChaosTest, RequestDeadlineRidesTheWireIntoTheSession) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), "hurried").ok());

  WriterHold hold(&session);
  const auto t0 = std::chrono::steady_clock::now();
  QueryReply reply;
  const Status s = c.Query(fx.queries[0].sql, /*deadline_ms=*/100, &reply);
  const auto waited = std::chrono::steady_clock::now() - t0;
  hold.Release();
  EXPECT_EQ(Status::Code::kDeadlineExceeded, s.code()) << s.ToString();
  // The deadline released the reader long before the writer let go; the
  // bound is loose (TSan) but far below "waited for the writer".
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(NetChaosTest, WatchdogSweepAndDrainCancelConcurrentlyWithoutDeadlock) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionConfig scfg;
  scfg.watchdog_period = std::chrono::milliseconds(2);  // aggressive sweeps
  SessionManager session(fx.engine.get(), scfg);
  ServerConfig cfg;
  cfg.drain_deadline = std::chrono::milliseconds(300);
  Server server(&session, cfg);
  ASSERT_TRUE(server.Start().ok());
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), "doomed").ok());

  WriterHold hold(&session);
  Status got = Status::OK();
  std::thread q([&] {
    QueryReply reply;
    got = c.Query(fx.queries[0].sql, /*deadline_ms=*/80, &reply);
  });
  // Drain while the watchdog is about to kill the overdue query: the two
  // cancellation paths (watchdog sweep, drain's phase-2 sweep) must
  // compose, not deadlock. Finishing at all, under TSan, is the proof.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto t0 = std::chrono::steady_clock::now();
  server.Drain();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  q.join();
  hold.Release();
  EXPECT_LT(drain_ms, 300.0 + kDrainSlackMs);
  // The query was doomed one way or the other; what it must not be is OK
  // (the writer held the lock well past the deadline) or unaccounted.
  EXPECT_FALSE(got.ok());
}

TEST(NetChaosTest, GarbageBytesKillOnlyTheirOwnConnection) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  Client good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server.port(), "innocent").ok());

  // A raw socket feeding the server unframed garbage (0xff length prefix =
  // oversized frame). The server must close just this connection and keep
  // serving the well-behaved one. Raw syscalls are deliberate here: the
  // whole point is a peer that is not our Client.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // bih-lint: allow(raw-socket)
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  struct timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));  // bih-lint: allow(raw-socket)
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),  // bih-lint: allow(raw-socket)
                         sizeof(addr)));
  std::string garbage(64, '\xff');
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fd, garbage.data(), garbage.size(), 0));  // bih-lint: allow(raw-socket)
  char tmp[16];
  // The server cannot resync a corrupt stream: it hangs up. EOF (0) is the
  // orderly close; a reset (-1) is acceptable too.
  EXPECT_LE(::recv(fd, tmp, sizeof(tmp), 0), 0);  // bih-lint: allow(raw-socket)
  ::close(fd);

  EXPECT_GT(server.GetStats().protocol_errors, 0u);
  // The innocent connection never noticed.
  const QueryCase& qc = fx.queries[0];
  QueryReply reply;
  ASSERT_TRUE(good.Query(qc.sql, 2000, &reply).ok());
  EXPECT_EQ(ExpectedPayload(qc, reply.request_id), reply.raw_payload);
}

// A write whose value the column cannot store (a string in a date period
// column) is a client error: it comes back as a structured error frame,
// nothing is written, and the server keeps serving — the sequenced update
// of the same key that follows succeeds on the same connection, and an
// unrelated connection never notices.
TEST(NetChaosTest, MistypedWriteGetsAnErrorFrameAndTheServerStaysUp) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server.port(), "writer").ok());
  Client bystander;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", server.port(), "bystander").ok());

  QueryReply bad;
  Status s = writer.Query("UPDATE ITEM SET VB = 'x' WHERE ID = 1", 2000, &bad);
  EXPECT_EQ(Status::Code::kInvalidArgument, s.code()) << s.ToString();
  EXPECT_FALSE(bad.raw_payload.empty()) << "the error must ride a frame";

  QueryReply good;
  s = writer.Query("UPDATE ITEM FOR PORTION OF BUSINESS_TIME FROM 0 TO 5 "
                   "SET PRICE = 1.0 WHERE ID = 1",
                   2000, &good);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(1u, good.rows.size());
  EXPECT_EQ(1, good.rows[0][0].AsInt());

  const QueryCase& qc = fx.queries[1];
  QueryReply reply;
  ASSERT_TRUE(bystander.Query(qc.sql, 2000, &reply).ok());
  EXPECT_EQ(ExpectedPayload(qc, reply.request_id), reply.raw_payload);
  server.Drain();
}

// EXPLAIN rides the same request skeleton as a query: on a quiescent
// server the wire JSON is byte-identical to in-process sql::Explain at the
// same scan width, a bad statement gets an error frame with the in-process
// status code and leaves the connection serving, and the tenant's counters
// move exactly as they do for the same outcomes through kQuery.
TEST(NetChaosTest, ExplainOverTheWireMatchesInProcess) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  constexpr int kScanThreads = 2;
  Client explainer, querier;
  ASSERT_TRUE(explainer
                  .Connect("127.0.0.1", server.port(), "explain", kScanThreads)
                  .ok());
  ASSERT_TRUE(
      querier.Connect("127.0.0.1", server.port(), "query", kScanThreads).ok());

  ExecOptions opts;
  opts.scan_threads = kScanThreads;
  const std::string good_sql =
      "SELECT ID, NOTE FROM ITEM WHERE PRICE > 10.0 ORDER BY ID";
  std::string want;
  ASSERT_TRUE(sql::Explain(*fx.engine, good_sql, &want, nullptr, opts).ok());
  std::string got;
  Status s = explainer.Explain(good_sql, 2000, &got);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(want, got);

  const std::string bad_sql = "SELECT ID FROM NO_SUCH_TABLE";
  std::string unused;
  const Status in_process =
      sql::Explain(*fx.engine, bad_sql, &unused, nullptr, opts);
  ASSERT_FALSE(in_process.ok());
  s = explainer.Explain(bad_sql, 2000, &got);
  EXPECT_EQ(in_process.code(), s.code()) << s.ToString();
  EXPECT_TRUE(explainer.connected());
  const QueryCase& qc = fx.queries[0];
  QueryReply reply;
  ASSERT_TRUE(explainer.Query(qc.sql, 2000, &reply).ok());
  EXPECT_EQ(ExpectedPayload(qc, reply.request_id), reply.raw_payload);

  // The same three outcomes through kQuery on a second tenant.
  QueryReply q;
  ASSERT_TRUE(querier.Query(good_sql, 2000, &q).ok());
  EXPECT_EQ(in_process.code(), querier.Query(bad_sql, 2000, &q).code());
  ASSERT_TRUE(querier.Query(qc.sql, 2000, &q).ok());

  const TenantStats e = server.tenants().GetOrCreate("explain")->GetStats();
  const TenantStats k = server.tenants().GetOrCreate("query")->GetStats();
  EXPECT_EQ(3u, e.queries);
  EXPECT_EQ(2u, e.ok);
  EXPECT_EQ(1u, e.errors);
  EXPECT_EQ(k.queries, e.queries);
  EXPECT_EQ(k.ok, e.ok);
  EXPECT_EQ(k.errors, e.errors);
  EXPECT_EQ(k.shed, e.shed);
  EXPECT_EQ(k.cancelled, e.cancelled);
  EXPECT_EQ(k.deadline, e.deadline);
  EXPECT_EQ(k.unavailable, e.unavailable);
  EXPECT_EQ(6u, server.GetStats().queries);
  server.Drain();
}

TEST(NetChaosTest, DeadWalSurfacesOverTheWireAndCheckpointRevives) {
  auto engine = MakeEngine("A");
  FaultInjector fi = FaultInjector::FailSyncNth(5);
  const std::string wal_path = ::testing::TempDir() + "/net_chaos_deadwal.wal";
  std::remove(wal_path.c_str());
  ASSERT_TRUE(engine->EnableWal(wal_path, &fi).ok());
  ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
  SessionManager session(engine.get(), SessionConfig{});
  Server server(&session, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), "writer").ok());

  auto insert_sql = [](int64_t id) {
    return "INSERT INTO ITEM VALUES (" + std::to_string(id) + ", 9.5, 'wal', "
           "0, 200)";
  };
  // Write over the wire until the injected sync failure kills the WAL. The
  // failing write itself surfaces as a structured error frame, never a
  // dropped connection.
  int failed_at = -1;
  for (int i = 1; i <= 10; ++i) {
    QueryReply reply;
    const Status s = c.Query(insert_sql(i), 2000, &reply);
    if (!s.ok()) {
      // The write that hit the dying WAL reports the I/O error itself; what
      // it must never be is a dead connection — the error rode a frame.
      ASSERT_FALSE(reply.raw_payload.empty())
          << "transport died; the WAL fault must stay structured: "
          << s.ToString();
      failed_at = i;
      break;
    }
  }
  ASSERT_GT(failed_at, 0) << "the WAL fault never fired";
  ASSERT_TRUE(session.read_only());

  // Degraded: remote writes get kUnavailable with a retry hint; reads on
  // the same connection keep serving the pinned snapshot.
  QueryReply degraded;
  Status s = c.Query(insert_sql(90), 2000, &degraded);
  EXPECT_EQ(Status::Code::kUnavailable, s.code()) << s.ToString();
  EXPECT_FALSE(s.retry_hint().empty());
  QueryReply read_reply;
  ASSERT_TRUE(c.Query("SELECT ID FROM ITEM ORDER BY ID", 2000, &read_reply).ok());
  const size_t rows_while_degraded = read_reply.rows.size();
  EXPECT_GT(rows_while_degraded, 0u);

  // Revive without a restart: a checkpoint folds the state into a snapshot
  // and reopens a healthy writer; the same connection can write again.
  Checkpointer cp(wal_path);
  CheckpointInfo info;
  ASSERT_TRUE(session.RunCheckpoint(&cp, &info).ok());
  EXPECT_FALSE(session.read_only());
  QueryReply revived;
  ASSERT_TRUE(c.Query(insert_sql(91), 2000, &revived).ok());
  ASSERT_TRUE(c.Query("SELECT ID FROM ITEM ORDER BY ID", 2000, &read_reply).ok());
  EXPECT_EQ(rows_while_degraded + 1, read_reply.rows.size());
  server.Drain();
}

TEST(NetChaosTest, PerTenantStatsSeparateTheNoisyNeighbour) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(BuildFixture(&fx, 40));
  SessionManager session(fx.engine.get(), SessionConfig{});
  ServerConfig cfg;
  cfg.tenant_quota.max_inflight = 1;
  cfg.tenant_quota.max_queued = 0;  // fail-fast: the second query sheds
  Server server(&session, cfg);
  ASSERT_TRUE(server.Start().ok());

  // The noisy tenant wedges its single slot behind the writer lock, then a
  // second connection of the same tenant gets shed with the retry hint;
  // the quiet tenant's own quota is untouched throughout.
  Client noisy_a, noisy_b, quiet;
  ASSERT_TRUE(noisy_a.Connect("127.0.0.1", server.port(), "noisy").ok());
  ASSERT_TRUE(noisy_b.Connect("127.0.0.1", server.port(), "noisy").ok());
  ASSERT_TRUE(quiet.Connect("127.0.0.1", server.port(), "quiet").ok());

  WriterHold hold(&session);
  Status wedged = Status::OK();
  std::thread wedge([&] {
    QueryReply r;
    wedged = noisy_a.Query(fx.queries[0].sql, /*deadline_ms=*/800, &r);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  QueryReply shed;
  const Status s = noisy_b.Query(fx.queries[0].sql, 2000, &shed);
  EXPECT_EQ(Status::Code::kResourceExhausted, s.code()) << s.ToString();
  EXPECT_GT(shed.retry_after_ms, 0u)
      << "a shed reply must carry the tenant's retry hint";
  hold.Release();
  wedge.join();
  // With the writer gone the quiet tenant sails through its own quota.
  QueryReply ok_reply;
  ASSERT_TRUE(quiet.Query(fx.queries[0].sql, 2000, &ok_reply).ok());

  const TenantStats noisy = server.tenants().GetOrCreate("noisy")->GetStats();
  const TenantStats quiet_stats =
      server.tenants().GetOrCreate("quiet")->GetStats();
  EXPECT_GT(noisy.shed, 0u);
  EXPECT_EQ(0u, quiet_stats.shed);
  EXPECT_EQ(1u, quiet_stats.ok);
  // And the stats JSON names both tenants for the CI artifact.
  const std::string json = server.StatsJson();
  EXPECT_NE(std::string::npos, json.find("\"noisy\""));
  EXPECT_NE(std::string::npos, json.find("\"quiet\""));
}

}  // namespace
}  // namespace net
}  // namespace bih
