// The served run (net::Server on loopback, one net::Client per connection
// thread) and the correctness gates over its answers.
#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>

#include "bench.h"
#include "engine/recovery.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "sql/executor.h"

namespace servebench {

using bih::Status;

namespace {

constexpr uint32_t kDeadlineMs = 10000;

// One connection's ledger, merged into the result when the thread ends.
struct ConnLedger {
  std::vector<double> read_us, read_at_s, write_us, write_at_s, lateness_us;
  uint64_t attempted = 0, failed = 0, completed = 0, shed = 0;
  std::vector<std::string> errors;
  std::vector<ReplySample> samples;
  std::vector<WriteCheck> acked;
  std::vector<Op> stream;

  void Failure(const Status& s) {
    ++failed;
    if (s.code() == Status::Code::kResourceExhausted) ++shed;
    if (errors.size() < 3) errors.push_back(s.ToString());
  }
};

// True when a DML reply reports at least one affected key.
bool Affected(const bih::net::QueryReply& reply) {
  return !reply.rows.empty() && !reply.rows[0].empty() &&
         reply.rows[0][0].is_int() && reply.rows[0][0].AsInt() >= 1;
}

}  // namespace

Status RunServed(const WorkloadSpec& spec, const Fixture& fx,
                 bih::SessionManager* session, uint64_t seed, double warmup,
                 double seconds, int sample_every, ServedResult* out) {
  *out = ServedResult{};
  bih::net::Server server(session, bih::net::ServerConfig{});
  BIH_RETURN_IF_ERROR(server.Start());
  const uint16_t port = server.port();

  const int conns = spec.readers + spec.writers;
  std::vector<ConnLedger> ledgers(static_cast<size_t>(conns));
  std::vector<Status> connect_status(static_cast<size_t>(conns));
  std::atomic<int> ready{0};
  std::atomic<int64_t> start_ns{0};

  // All connections handshake first; the schedule starts once every one is
  // ready, so the window measures steady traffic only.
  auto wait_start = [&]() -> Clock::time_point {
    ready.fetch_add(1);
    while (start_ns.load() == 0) std::this_thread::yield();
    return Clock::time_point(Clock::duration(start_ns.load()));
  };
  const auto warm = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(warmup));
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    const bool writer = c >= spec.readers;
    threads.emplace_back([&, c, writer] {
      ConnLedger& led = ledgers[static_cast<size_t>(c)];
      bih::net::Client client;
      Status cs = client.Connect("127.0.0.1", port, "tenant-" + std::to_string(c),
                                 writer ? 0 : spec.reader_scan_threads);
      connect_status[static_cast<size_t>(c)] = cs;
      const Clock::time_point t0 = wait_start();
      if (!cs.ok()) return;
      const Clock::time_point win = t0 + warm, end = win + span;
      if (!writer) {
        ReadGen gen(&fx, spec.mix, StreamSeed(seed, "reader", c));
        uint64_t n = 0;
        while (Clock::now() < end) {
          Op op = gen.Next();
          bih::net::QueryReply reply;
          const Clock::time_point a = Clock::now();
          Status st = client.Query(op.sql, kDeadlineMs, &reply);
          const Clock::time_point b = Clock::now();
          if (a < win) continue;  // warm-up
          ++led.attempted;
          if (!st.ok() || !reply.status.ok()) {
            led.Failure(st.ok() ? reply.status : st);
            if (!client.connected()) break;
            continue;
          }
          ++led.completed;
          op.at_s = std::chrono::duration<double>(a - win).count();
          op.served_us = MicrosBetween(a, b);
          led.read_us.push_back(op.served_us);
          led.read_at_s.push_back(op.at_s);
          if (n++ % static_cast<uint64_t>(sample_every) == 0) {
            led.samples.push_back(
                {op.sql, reply.request_id, std::move(reply.raw_payload)});
          }
          if (led.stream.size() < kMaxStreamOps) led.stream.push_back(std::move(op));
        }
        return;
      }
      // Open loop: request i is due at t0 + i / rate whether or not the
      // previous one has returned; latency counts from the due time.
      const int w = c - spec.readers;
      WriteGen gen(&fx, w, spec.writers, StreamSeed(seed, "writer", w));
      const double period = 1.0 / spec.write_rate;
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(period * static_cast<double>(i)));
        if (due >= end) break;
        Op op = gen.Next();
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        bih::net::QueryReply reply;
        Status st = client.Query(op.sql, kDeadlineMs, &reply);
        const Clock::time_point done = Clock::now();
        const bool ok = st.ok() && reply.status.ok() && Affected(reply);
        if (ok) led.acked.push_back(op.check);
        if (due < win) continue;  // warm-up
        ++led.attempted;
        if (!ok) {
          led.Failure(!st.ok() ? st
                      : !reply.status.ok()
                          ? reply.status
                          : Status::Internal("update matched no key: " + op.sql));
          if (!client.connected()) break;
          continue;
        }
        ++led.completed;
        op.at_s = std::chrono::duration<double>(due - win).count();
        op.served_us = MicrosBetween(due, done);
        led.write_us.push_back(op.served_us);
        led.write_at_s.push_back(op.at_s);
        led.lateness_us.push_back(MicrosBetween(due, sent));
        if (led.stream.size() < kMaxStreamOps) led.stream.push_back(std::move(op));
      }
    });
  }
  while (ready.load() < conns) std::this_thread::yield();
  start_ns.store((Clock::now() + std::chrono::milliseconds(5))
                     .time_since_epoch()
                     .count());
  for (std::thread& t : threads) t.join();
  server.Drain();

  out->window_s = seconds;
  for (int c = 0; c < conns; ++c) {
    ConnLedger& led = ledgers[static_cast<size_t>(c)];
    const Status& cs = connect_status[static_cast<size_t>(c)];
    if (!cs.ok()) return Status::Internal("connect failed: " + cs.ToString());
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&out->read_us, led.read_us);
    append(&out->read_at_s, led.read_at_s);
    append(&out->write_us, led.write_us);
    append(&out->write_at_s, led.write_at_s);
    append(&out->lateness_us, led.lateness_us);
    out->attempted += led.attempted;
    out->failed += led.failed;
    out->completed += led.completed;
    out->shed += led.shed;
    for (std::string& e : led.errors) out->errors.push_back(std::move(e));
    for (ReplySample& s : led.samples) out->samples.push_back(std::move(s));
    for (WriteCheck& w : led.acked) out->acked.push_back(std::move(w));
    out->streams.push_back(std::move(led.stream));
  }
  return Status::OK();
}

WriteCounters ReadCounters(bih::SessionManager* session) {
  WriteCounters c;
  bih::TemporalEngine& eng = session->engine();
  if (bih::WalWriter* wal = eng.wal()) {
    c.syncs = wal->syncs();  // every device sync, group syncs included
    c.wal_bytes = wal->bytes_written();
  }
  const bih::GroupCommit::Stats gs = session->GetGroupCommitStats();
  c.groups = gs.groups;
  c.acks = gs.acks;
  for (const char* t : {"CUSTOMER", "ORDERS"}) {
    const bih::TableStats ts = eng.GetTableStats(t);
    c.history_rows += ts.history_rows;
    c.pending_undo += ts.pending_undo;
  }
  return c;
}

// ---- Correctness gates ------------------------------------------------------

namespace {

std::string EncodeResult(uint64_t request_id, std::vector<std::string> columns,
                         bih::Rows rows) {
  bih::net::Message m;
  m.type = bih::net::MsgType::kResult;
  m.request_id = request_id;
  m.columns = std::move(columns);
  m.rows = std::move(rows);
  std::string payload;
  bih::net::EncodeMessage(m, &payload);
  return payload;
}

bool RowLess(const bih::Row& a, const bih::Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

Status Query(bih::TemporalEngine& engine, const std::string& sql,
             bih::sql::SqlResult* res) {
  bih::ExecOptions serial;
  serial.scan_threads = 1;
  return bih::sql::ExecuteSql(engine, sql, res, nullptr, serial);
}

}  // namespace

void CheckReplies(bih::TemporalEngine& engine,
                  const std::vector<ReplySample>& samples, bool corrupt,
                  GateResult* gate) {
  for (size_t i = 0; i < samples.size(); ++i) {
    const ReplySample& s = samples[i];
    ++gate->checked;
    bih::sql::SqlResult res;
    Status st = Query(engine, s.sql, &res);
    if (!st.ok()) {
      gate->Fail("in-process reference failed: " + st.ToString());
      continue;
    }
    std::string expected =
        EncodeResult(s.request_id, std::move(res.columns), std::move(res.rows));
    if (corrupt && i == 0 && !expected.empty()) expected.back() ^= 0x5a;
    if (expected != s.raw_payload) {
      gate->Fail("reply differs from in-process rows: " + s.sql);
    }
  }
}

void CheckReadback(bih::TemporalEngine& engine,
                   const std::vector<WriteCheck>& acked, GateResult* gate) {
  // (table, key_col, key, col) -> values that must all appear.
  std::map<std::tuple<std::string, std::string, int64_t, std::string>,
           std::vector<bih::Value>>
      expect;
  for (const WriteCheck& w : acked) {
    expect[{w.table, w.key_col, w.key, w.col}].push_back(w.value);
  }
  for (const auto& [k, values] : expect) {
    const auto& [table, key_col, key, col] = k;
    bih::sql::SqlResult res;
    const std::string sql = "SELECT " + col + " FROM " + table +
                            " FOR SYSTEM_TIME ALL FOR BUSINESS_TIME ALL WHERE " + key_col + " = " +
                            std::to_string(key);
    Status st = Query(engine, sql, &res);
    if (!st.ok()) {
      gate->Fail("read-back failed: " + st.ToString());
      continue;
    }
    for (const bih::Value& v : values) {
      ++gate->checked;
      const bool found =
          std::any_of(res.rows.begin(), res.rows.end(),
                      [&](const bih::Row& r) { return !r.empty() && r[0] == v; });
      if (!found) {
        gate->Fail("acknowledged write not visible: " + table + " " +
                   std::to_string(key) + " " + col + "=" + v.ToString());
      }
    }
  }
}

void CheckRecovery(bih::TemporalEngine& live, const std::string& letter,
                   const std::string& wal_path,
                   const std::vector<WriteCheck>& acked, GateResult* gate) {
  std::unique_ptr<bih::TemporalEngine> rec;
  bih::RecoveryReport report;
  Status st = bih::RecoverEngine(letter, wal_path, &rec, &report);
  if (!st.ok() || rec == nullptr) {
    gate->Fail("recovery failed: " + st.ToString());
    return;
  }
  std::map<std::pair<std::string, int64_t>, std::string> keys;
  for (const WriteCheck& w : acked) keys[{w.table, w.key}] = w.key_col;
  for (const auto& [tk, key_col] : keys) {
    ++gate->checked;
    const std::string sql = "SELECT * FROM " + tk.first +
                            " FOR SYSTEM_TIME ALL FOR BUSINESS_TIME ALL WHERE " + key_col + " = " +
                            std::to_string(tk.second);
    bih::sql::SqlResult a, b;
    Status sa = Query(live, sql, &a);
    Status sb = Query(*rec, sql, &b);
    if (!sa.ok() || !sb.ok()) {
      gate->Fail("recovery comparison failed: " + sa.ToString() + " / " +
                 sb.ToString());
      continue;
    }
    std::sort(a.rows.begin(), a.rows.end(), RowLess);
    std::sort(b.rows.begin(), b.rows.end(), RowLess);
    if (EncodeResult(0, a.columns, a.rows) != EncodeResult(0, b.columns, b.rows)) {
      gate->Fail("recovered history differs: " + sql);
    }
  }
}

}  // namespace servebench
