// The traced run: replays the served operation streams in-process through
// each layer's public entry points (net codec, SessionManager, SQL parser
// and planner, optimizer, executor, engine Scan, group commit), once with
// spans off and once with a span around every call, then derives the
// per-layer metrics. Spans live in per-thread memory and are written out as
// JSON when the run ends.
#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "exec/optimizer.h"
#include "exec/plan.h"
#include "net/protocol.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace servebench {

using bih::Status;

namespace {

// Write probe on read-only workloads: the update_mix writer shape (two
// open-loop connections at 5 writes/s each) for a short phase, so the
// write-side layers are measured on every workload's engine.
constexpr int kProbeWriters = 2;
constexpr double kProbeRate = 5.0;
// Queries timed serial vs kParallelThreads for exec.parallel_efficiency:
// the served width, and as many threads as the process has CPUs. Their rows
// are also checked against kWideThreads, the width the design asked for.
constexpr size_t kParallelQueries = 8;
constexpr int kParallelThreads = 2;
constexpr int kWideThreads = 4;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t request_id;
};

// One replay thread's spans. Disabled logs record nothing and read no
// clock, so the untraced replay runs the same calls without the tracing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int Open(const char* name, uint64_t rid) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, current_, rid});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(idx)].parent;
  }
  // A finished interval, recorded as a child of the open span.
  void Add(const char* name, uint64_t rid, int64_t start_ns, int64_t end_ns) {
    if (on_) spans_.push_back({name, start_ns, end_ns, current_, rid});
  }
  int64_t Now() const { return on_ ? NowNs() : 0; }
  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name, uint64_t rid)
      : log_(log), idx_(log->Open(name, rid)) {}
  ~Scope() { log_->Close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

// Counters one replay thread gathers beside its spans.
struct ReplayTally {
  std::vector<double> read_us;   // ReadTxn call, the in-process pipeline
  std::vector<double> wire_us;   // served latency minus pipeline, per read
  std::vector<double> write_us;  // Write call
  std::vector<double> lateness_us;
  double op_us_total = 0.0;      // every op's pipeline time (overhead base)
  uint64_t reads = 0, writes = 0, acked = 0, failed = 0;
  uint64_t reply_bytes = 0;
  uint64_t scans = 0, index_scans = 0, rows_examined = 0;
  double scan_us = 0.0;
  uint64_t scan_rows = 0;
  std::vector<std::string> errors;
  void Fail(const Status& s) {
    ++failed;
    if (errors.size() < 3) errors.push_back(s.ToString());
  }
};

void CollectScans(const bih::PlanNode& n,
                  std::vector<const bih::PlanNode*>* out) {
  if (n.kind == bih::PlanNode::Kind::kScan) out->push_back(&n);
  for (const bih::PlanPtr& c : n.children) CollectScans(*c, out);
}

// Request and reply frames through the wire codec, as client and server
// would encode and decode them.
size_t Codec(bih::net::Message m) {
  std::string payload, frame, back;
  bih::net::EncodeMessage(m, &payload);
  bih::net::EncodeFrame(payload, &frame);
  size_t consumed = 0;
  bih::net::Message decoded;
  if (bih::net::DecodeFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                            frame.size(), &consumed, &back)
          .ok()) {
    (void)bih::net::DecodeMessage(
        reinterpret_cast<const uint8_t*>(back.data()), back.size(), &decoded);
  }
  return frame.size();
}

class Replayer {
 public:
  Replayer(bih::SessionManager* session, bih::ExecOptions opts, SpanLog* log,
           ReplayTally* tally)
      : session_(session), opts_(opts), log_(log), tally_(tally) {}

  void Read(const Op& op, uint64_t rid) {
    {
      Scope s(log_, "net.codec", rid);
      bih::net::Message req;
      req.type = bih::net::MsgType::kQuery;
      req.request_id = rid;
      req.deadline_ms = 10000;
      req.text = op.sql;
      (void)Codec(std::move(req));
    }
    bih::PlanPtr plan;
    std::vector<std::string> columns;
    bih::Rows rows;
    const auto a = Clock::now();
    const int64_t entry = log_->Now();
    Status st;
    {
      Scope s(log_, "server.read_txn", rid);
      st = session_->ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
        log_->Add("server.read_admit", rid, entry, log_->Now());
        bih::sql::SelectStatement stmt;
        {
          Scope p(log_, "sql.parse", rid);
          BIH_RETURN_IF_ERROR(bih::sql::ParseSelect(op.sql, &stmt));
        }
        {
          Scope p(log_, "sql.plan", rid);
          BIH_RETURN_IF_ERROR(bih::sql::PlanSelect(eng, stmt, &plan, &columns));
        }
        {
          Scope p(log_, "exec.optimize", rid);
          bih::OptimizePlan(&plan, eng);
        }
        Scope p(log_, "exec.execute", rid);
        return bih::Execute(*plan, eng, opts_, nullptr, &rows);
      });
    }
    const double us = MicrosBetween(a, Clock::now());
    if (!st.ok()) {
      tally_->Fail(st);
      return;
    }
    ++tally_->reads;
    tally_->read_us.push_back(us);
    tally_->wire_us.push_back(op.served_us - us);
    tally_->op_us_total += us;
    std::vector<const bih::PlanNode*> leaves;
    CollectScans(*plan, &leaves);
    for (const bih::PlanNode* leaf : leaves) {
      ++tally_->scans;
      if (leaf->stats.scan.used_index) ++tally_->index_scans;
      tally_->rows_examined += leaf->stats.scan.rows_examined;
    }
    {
      Scope s(log_, "net.codec", rid);
      bih::net::Message reply;
      reply.type = bih::net::MsgType::kResult;
      reply.request_id = rid;
      reply.columns = std::move(columns);
      reply.rows = std::move(rows);
      tally_->reply_bytes += Codec(std::move(reply));
    }
    if (log_->on()) RescanLeaves(leaves, rid);
  }

  void Write(const Op& op, uint64_t rid) {
    {
      Scope s(log_, "net.codec", rid);
      bih::net::Message req;
      req.type = bih::net::MsgType::kQuery;
      req.request_id = rid;
      req.deadline_ms = 10000;
      req.text = op.sql;
      (void)Codec(std::move(req));
    }
    bih::sql::SqlResult result;
    const auto a = Clock::now();
    const int64_t entry = log_->Now();
    int64_t cb_end = 0;
    Status st;
    {
      Scope s(log_, "server.write", rid);
      // The server's wire DML path: SessionManager::Write, the all-shards
      // barrier, with the statement executed under the exclusive lock.
      st = session_->Write([&](bih::TemporalEngine& eng) {
        log_->Add("server.write_admit", rid, entry, log_->Now());
        Status inner;
        {
          Scope hold(log_, "server.write_hold", rid);
          bih::sql::DmlStatement stmt;
          {
            Scope p(log_, "sql.parse", rid);
            inner = bih::sql::ParseDml(op.sql, &stmt);
          }
          if (inner.ok()) {
            Scope p(log_, "sql.dml", rid);
            inner = bih::sql::ExecuteDml(eng, stmt, &result, nullptr);
          }
        }
        cb_end = log_->Now();
        return inner;
      });
      log_->Add("durability.wait", rid, cb_end, log_->Now());
    }
    const double us = MicrosBetween(a, Clock::now());
    if (!st.ok()) {
      tally_->Fail(st);
      return;
    }
    ++tally_->writes;
    ++tally_->acked;
    tally_->write_us.push_back(us);
    tally_->op_us_total += us;
    {
      Scope s(log_, "net.codec", rid);
      bih::net::Message reply;
      reply.type = bih::net::MsgType::kResult;
      reply.request_id = rid;
      reply.columns = std::move(result.columns);
      reply.rows = std::move(result.rows);
      tally_->reply_bytes += Codec(std::move(reply));
    }
  }

 private:
  // engine.scan: the optimized plan's scan leaves run again on their own
  // (outside the op's span, so the overhead comparison excludes them).
  void RescanLeaves(const std::vector<const bih::PlanNode*>& leaves,
                    uint64_t rid) {
    Status st = session_->ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
      for (const bih::PlanNode* leaf : leaves) {
        bih::ScanRequest req = leaf->scan;
        bih::ExecStats stats;
        req.stats = &stats;
        req.exec = bih::MergeExecOptions(req.exec, opts_);
        uint64_t n = 0;
        const int64_t s0 = log_->Now();
        eng.Scan(req, [&](const bih::Row&) {
          ++n;
          return true;
        });
        const int64_t s1 = log_->Now();
        log_->Add("engine.scan", rid, s0, s1);
        tally_->scan_us += static_cast<double>(s1 - s0) / 1000.0;
        tally_->scan_rows += stats.rows_examined;
      }
      return Status::OK();
    });
    if (!st.ok()) tally_->Fail(st);
  }

  bih::SessionManager* session_;
  bih::ExecOptions opts_;
  SpanLog* log_;
  ReplayTally* tally_;
};

struct ReplayOutcome {
  std::vector<ReplayTally> tallies;
  std::vector<SpanLog> logs;
  double wall_s = 0.0;
};

// Replays every stream on its own thread, each op at the time it started
// (reads) or was due (writes) in the served window, so the replay keeps the
// served concurrency and the gaps the wire left between a connection's
// requests. Only ops scheduled before `cap_s` run.
ReplayOutcome Replay(bih::SessionManager* session, bih::ExecOptions read_opts,
                     const std::vector<std::vector<Op>>& streams, bool traced,
                     double cap_s) {
  ReplayOutcome out;
  const size_t n = streams.size();
  out.tallies.resize(n);
  for (size_t i = 0; i < n; ++i) out.logs.emplace_back(traced);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Replayer r(session, read_opts, &out.logs[i], &out.tallies[i]);
      const uint64_t rid_base = (static_cast<uint64_t>(i) + 1) << 40;
      for (size_t k = 0; k < streams[i].size(); ++k) {
        const Op& op = streams[i][k];
        if (op.at_s >= cap_s) break;
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(op.at_s));
        std::this_thread::sleep_until(due);
        if (op.is_write) {
          out.tallies[i].lateness_us.push_back(
              MicrosBetween(due, Clock::now()));
          r.Write(op, rid_base + k);
        } else {
          r.Read(op, rid_base + k);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = SecondsSince(t0);
  return out;
}

ReplayTally Merge(const std::vector<ReplayTally>& ts) {
  ReplayTally m;
  for (const ReplayTally& t : ts) {
    m.read_us.insert(m.read_us.end(), t.read_us.begin(), t.read_us.end());
    m.wire_us.insert(m.wire_us.end(), t.wire_us.begin(), t.wire_us.end());
    m.write_us.insert(m.write_us.end(), t.write_us.begin(), t.write_us.end());
    m.lateness_us.insert(m.lateness_us.end(), t.lateness_us.begin(),
                         t.lateness_us.end());
    m.op_us_total += t.op_us_total;
    m.reads += t.reads;
    m.writes += t.writes;
    m.acked += t.acked;
    m.failed += t.failed;
    m.reply_bytes += t.reply_bytes;
    m.scans += t.scans;
    m.index_scans += t.index_scans;
    m.rows_examined += t.rows_examined;
    m.scan_us += t.scan_us;
    m.scan_rows += t.scan_rows;
    for (const std::string& e : t.errors) {
      if (m.errors.size() < 3) m.errors.push_back(e);
    }
  }
  return m;
}

// Per span name: total duration and total self time (duration minus the
// part its children cover; children of one span never overlap).
struct SpanTotals {
  double total_us = 0.0;
  double self_us = 0.0;
  uint64_t count = 0;
};

std::map<std::string, SpanTotals> Totals(const std::vector<SpanLog>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1000.0;
      SpanTotals& t = out[spans[i].name];
      t.total_us += dur;
      t.self_us += dur - child_us[i];
      ++t.count;
    }
  }
  return out;
}

double PerOp(const std::map<std::string, SpanTotals>& totals,
             const std::string& name, uint64_t ops) {
  auto it = totals.find(name);
  if (it == totals.end() || ops == 0) return 0.0;
  return it->second.total_us / static_cast<double>(ops);
}

Status WriteSpans(const std::string& path, const std::string& workload,
                  const std::vector<SpanLog>& logs,
                  const std::map<std::string, double>& layer_self_us) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "{\"workload\":\"%s\",\"layer_self_us\":{", workload.c_str());
  bool first = true;
  for (const auto& [layer, us] : layer_self_us) {
    std::fprintf(f, "%s\"%s\":%.3f", first ? "" : ",", layer.c_str(), us);
    first = false;
  }
  std::fprintf(f, "},\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
                  "\"request_id\",\"thread\"],\"spans\":[");
  first = true;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans()) {
      std::fprintf(f, "%s[\"%s\",%lld,%lld,%d,%llu,%zu]", first ? "" : ",",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request_id), t);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot close " + path);
}

// exec.parallel_efficiency: the same optimized plan, serial vs
// kParallelThreads, on the first read queries of the streams; also checks
// that the rows at both widths and at kWideThreads agree.
double ParallelEfficiency(bih::SessionManager* session,
                          const std::vector<const Op*>& queries,
                          GateResult* gate) {
  double serial_us = 0.0, parallel_us = 0.0;
  for (const Op* op : queries) {
    Status st = session->ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
      bih::sql::SelectStatement stmt;
      BIH_RETURN_IF_ERROR(bih::sql::ParseSelect(op->sql, &stmt));
      bih::PlanPtr plan;
      std::vector<std::string> columns;
      BIH_RETURN_IF_ERROR(bih::sql::PlanSelect(eng, stmt, &plan, &columns));
      bih::OptimizePlan(&plan, eng);
      bih::Rows serial_rows, parallel_rows;
      std::vector<double> s_us, p_us;
      for (int rep = 0; rep < 3; ++rep) {
        bih::ExecOptions o;
        o.scan_threads = 1;
        serial_rows.clear();
        auto a = Clock::now();
        BIH_RETURN_IF_ERROR(bih::Execute(*plan, eng, o, nullptr, &serial_rows));
        s_us.push_back(MicrosBetween(a, Clock::now()));
        o.scan_threads = kParallelThreads;
        parallel_rows.clear();
        a = Clock::now();
        BIH_RETURN_IF_ERROR(
            bih::Execute(*plan, eng, o, nullptr, &parallel_rows));
        p_us.push_back(MicrosBetween(a, Clock::now()));
      }
      bih::ExecOptions wide;
      wide.scan_threads = kWideThreads;
      bih::Rows wide_rows;
      BIH_RETURN_IF_ERROR(bih::Execute(*plan, eng, wide, nullptr, &wide_rows));
      gate->checked += 2;
      if (serial_rows != parallel_rows) {
        gate->Fail(std::to_string(kParallelThreads) +
                   "-thread rows differ from serial: " + op->sql);
      }
      if (serial_rows != wide_rows) {
        gate->Fail(std::to_string(kWideThreads) +
                   "-thread rows differ from serial: " + op->sql);
      }
      serial_us += Median(s_us);
      parallel_us += Median(p_us);
      return Status::OK();
    });
    if (!st.ok()) gate->Fail("parallel comparison failed: " + st.ToString());
  }
  if (parallel_us <= 0.0) return 0.0;
  return serial_us / parallel_us / kParallelThreads;
}

}  // namespace

Status RunTraced(TraceInput in, std::vector<Metric>* metrics,
                 std::vector<std::string>* report, GateResult* gate) {
  const WorkloadSpec& spec = *in.spec;
  const ServedResult& served = *in.served;
  bih::ExecOptions read_opts = in.session->exec_options();
  if (spec.reader_scan_threads > 0) {
    read_opts.scan_threads = spec.reader_scan_threads;
  }

  // The served streams' first replay_cap_s seconds, untraced, then traced.
  ReplayOutcome plain =
      Replay(in.session, read_opts, served.streams, false, in.replay_cap_s);
  ReplayOutcome traced =
      Replay(in.session, read_opts, served.streams, true, in.replay_cap_s);
  const ReplayTally p = Merge(plain.tallies);
  ReplayTally t = Merge(traced.tallies);
  std::vector<SpanLog> logs = std::move(traced.logs);

  // Write-side counters: the served run's where it wrote, else the probe's.
  WriteCounters before = in.served_before, after = in.served_after;
  uint64_t acked = served.acked.size();
  std::vector<double> lateness = served.lateness_us;
  ReplayTally w = t;
  if (spec.writers == 0) {
    bih::TemporalEngine& eng = *in.fx->engine;
    BIH_RETURN_IF_ERROR(eng.EnableWal(in.wal_probe_path));
    bih::SessionConfig cfg;
    cfg.scan_threads = 1;
    bih::SessionManager probe(&eng, cfg);
    std::vector<std::vector<Op>> ops(kProbeWriters);
    const double probe_s = std::max(0.5, in.replay_cap_s);
    for (int k = 0; k < kProbeWriters; ++k) {
      WriteGen gen(in.fx, k, kProbeWriters, StreamSeed(in.seed, "probe", k));
      for (double d = 0.0; d < probe_s; d += 1.0 / kProbeRate) {
        Op op = gen.Next();
        op.at_s = d;
        ops[static_cast<size_t>(k)].push_back(std::move(op));
      }
    }
    before = ReadCounters(&probe);
    ReplayOutcome pr = Replay(&probe, read_opts, ops, true, probe_s);
    after = ReadCounters(&probe);
    w = Merge(pr.tallies);
    acked = w.acked;
    lateness = w.lateness_us;
    t.failed += w.failed;
    for (SpanLog& l : pr.logs) logs.push_back(std::move(l));
  }
  if (t.failed > 0 || p.failed > 0) {
    gate->Fail("replay operations failed: " +
               (t.errors.empty() ? p.errors.empty() ? std::string("?")
                                                    : p.errors[0]
                                 : t.errors[0]));
  }

  const std::map<std::string, SpanTotals> totals = Totals(logs);
  std::map<std::string, double> layer_self;
  for (const auto& [name, tot] : totals) {
    layer_self[name.substr(0, name.find('.'))] += tot.self_us;
  }
  BIH_RETURN_IF_ERROR(WriteSpans(in.span_path, spec.name, logs, layer_self));

  // Parallel efficiency on the first read queries of the served streams.
  std::vector<const Op*> pq;
  for (const std::vector<Op>& s : served.streams) {
    for (const Op& op : s) {
      if (!op.is_write && pq.size() < kParallelQueries) pq.push_back(&op);
    }
  }
  const double par_eff = ParallelEfficiency(in.session, pq, gate);

  // Traced writes are the served streams' own, or the probe's.
  const uint64_t reads = t.reads, writes = w.writes;
  const uint64_t ops = reads + writes;
  const uint64_t reply_bytes =
      t.reply_bytes + (spec.writers == 0 ? w.reply_bytes : 0);
  const double execute_us = PerOp(totals, "exec.execute", reads);
  const double scan_us = reads > 0 ? t.scan_us / static_cast<double>(reads) : 0;
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Counter growth over the writing phase (signed: a merge may shrink one).
  auto grew = [&](uint64_t WriteCounters::* f) {
    return static_cast<double>(after.*f) - static_cast<double>(before.*f);
  };
  // Mean pipeline time per op, traced vs untraced, over the same ops.
  const double plain_op = ratio(p.op_us_total, static_cast<double>(p.reads + p.writes));
  const double traced_op = ratio(t.op_us_total, static_cast<double>(t.reads + t.writes));
  const double overhead =
      plain_op > 0.0 ? 100.0 * (traced_op - plain_op) / plain_op : 0.0;

  auto add = [&](const std::string& name, double v, const std::string& unit,
                 uint64_t n) { metrics->push_back({name, v, unit, n}); };
  // Paired per read: the op's served latency minus its untraced pipeline.
  add("net.wire_us", Median(p.wire_us), "us", p.wire_us.size());
  add("net.codec_us", PerOp(totals, "net.codec", ops), "us", ops);
  add("net.reply_bytes_per_op", ratio(static_cast<double>(reply_bytes),
                                      static_cast<double>(ops)),
      "bytes", ops);
  add("server.read_admit_us", PerOp(totals, "server.read_admit", reads), "us",
      reads);
  add("server.write_admit_us", PerOp(totals, "server.write_admit", writes),
      "us", writes);
  add("server.write_hold_us", PerOp(totals, "server.write_hold", writes), "us",
      writes);
  add("server.shed_ratio",
      ratio(static_cast<double>(served.shed),
            static_cast<double>(served.attempted)),
      "ratio", served.attempted);
  add("sql.parse_us", PerOp(totals, "sql.parse", ops), "us", ops);
  add("sql.plan_us", PerOp(totals, "sql.plan", reads), "us", reads);
  add("sql.dml_us", PerOp(totals, "sql.dml", writes), "us", writes);
  add("exec.optimize_us", PerOp(totals, "exec.optimize", reads), "us", reads);
  add("exec.execute_us", execute_us, "us", reads);
  add("exec.operator_us", execute_us - scan_us, "us", reads);
  add("exec.rows_examined_per_query",
      ratio(static_cast<double>(t.rows_examined), static_cast<double>(reads)),
      "rows", reads);
  add("exec.index_scan_ratio",
      ratio(static_cast<double>(t.index_scans), static_cast<double>(t.scans)),
      "ratio", t.scans);
  add("exec.parallel_efficiency", par_eff, "ratio", pq.size());
  add("engine.scan_us", scan_us, "us", t.scans);
  add("engine.rows_per_scan_us",
      ratio(static_cast<double>(t.scan_rows), t.scan_us), "rows/us", t.scans);
  add("engine.versions_per_write",
      ratio(grew(&WriteCounters::history_rows), static_cast<double>(acked)),
      "rows", acked);
  add("engine.pending_undo", static_cast<double>(after.pending_undo), "count",
      1);
  add("durability.wait_us", PerOp(totals, "durability.wait", writes), "us",
      writes);
  add("durability.syncs_per_write",
      ratio(grew(&WriteCounters::syncs), static_cast<double>(acked)),
      "ratio", acked);
  add("durability.acks_per_group",
      ratio(grew(&WriteCounters::acks), grew(&WriteCounters::groups)), "ratio",
      after.groups - before.groups);
  add("durability.wal_bytes_per_write",
      ratio(grew(&WriteCounters::wal_bytes), static_cast<double>(acked)),
      "bytes", acked);
  add("loadgen.lateness_p99_ms", Percentile(lateness, 99.0) / 1000.0, "ms",
      lateness.size());
  add("trace.overhead_pct", overhead, "%", ops);

  char buf[256];
  for (const auto& [layer, us] : layer_self) {
    std::snprintf(buf, sizeof(buf), "self time %-10s %12.1f us total", layer.c_str(),
                  us);
    report->push_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "replay: %llu reads, %llu writes traced; untraced %.3f s, "
                "traced %.3f s; spans in %s",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(t.writes), plain.wall_s,
                traced.wall_s, in.span_path.c_str());
  report->push_back(buf);
  return Status::OK();
}

}  // namespace servebench
