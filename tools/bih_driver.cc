// TPC-BiH benchmark driver — the command-line face of the library,
// mirroring the paper's Benchmarking Service workflow: generate an
// archive, load it into an engine, run query suites, or fire ad-hoc SQL.
//
//   bih_driver generate --h 0.01 --m 0.01 --out history.bih
//   bih_driver load     --engine B --h 0.01 --m 0.01 [--batch 10] [--wal F]
//   bih_driver recover  --engine B --wal F
//   bih_driver run      --engine A --h 0.005 --m 0.005 [--suite T|K|R|B|all]
//                       [--scan-threads 8]
//   bih_driver run      --engine A --threads 8 --deadline-ms 50 [--max-inflight 4]
//   bih_driver run      --engine A --write-threads 4 --wal u.wal [--threads 8]
//   bih_driver sql      --engine C --h 0.002 --m 0.002 "SELECT ..."
//   bih_driver check    --engine A --h 0.002 --m 0.002 | check --wal F
//   bih_driver serve    --engine A --h 0.002 --m 0.002 --port 4411
//   bih_driver client   --port 4411 [--tenant acme] "SELECT ..." | --stats
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "engine/consistency.h"
#include "engine/recovery.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session.h"
#include "sql/executor.h"
#include "tpch/schema.h"
#include "workload/context.h"
#include "workload/queries.h"
#include "workload/tpch_queries.h"

namespace bih {
namespace {

struct Args {
  std::string command;
  std::string engine = "A";
  double h = 0.002;
  double m = 0.002;
  uint64_t seed = 42;
  size_t batch = 1;
  std::string out = "history.bih";
  std::string suite = "all";
  std::string sql;
  std::string wal;       // write-ahead log path ("" = durability off)
  bool recover = false;  // load: replay --wal instead of generating
  bool checkpoint = false;  // load: write a checkpoint after loading
  bool json = false;        // recover/check: print the report as JSON
  int threads = 0;       // run: >0 switches to the concurrent session mode
  int write_threads = 0;  // run: update-stream writers (sharded keyed path)
  int64_t deadline_ms = 0;  // run: per-query deadline (0 = none)
  int max_inflight = 0;     // run: admission slots (0 = threads/2, min 1)
  int scan_threads = 0;     // intra-query scan parallelism (0 = env default)
  int port = 0;             // serve: 0 = ephemeral; client: required
  std::string host = "127.0.0.1";  // client: server address
  std::string tenant = "default";  // client: tenant for the Hello handshake
  int drain_ms = 2000;      // serve: drain deadline on SIGTERM/SIGINT
  bool stats = false;       // client: fetch the server stats JSON instead
};

// Strict numeric parsing: the whole token must convert, so trailing garbage
// ("--batch 10x", "--h 0.5abc") is an error instead of being silently cut.
bool ParseDoubleValue(const char* flag, const char* v, double* out) {
  char* end = nullptr;
  errno = 0;
  double d = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0') {
    std::fprintf(stderr, "malformed value for %s: '%s'\n", flag, v);
    return false;
  }
  *out = d;
  return true;
}

bool ParseUintValue(const char* flag, const char* v, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long u = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    std::fprintf(stderr, "malformed value for %s: '%s'\n", flag, v);
    return false;
  }
  *out = u;
  return true;
}

bool ParseIntValue(const char* flag, const char* v, int64_t lo, int64_t hi,
                   int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long i = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || i < lo || i > hi) {
    std::fprintf(stderr, "malformed value for %s: '%s' (expect %lld..%lld)\n",
                 flag, v, static_cast<long long>(lo),
                 static_cast<long long>(hi));
    return false;
  }
  *out = i;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    int64_t n = 0;
    if (a == "--engine") {
      const char* v = next("--engine");
      if (!v) return false;
      args->engine = v;
    } else if (a == "--h") {
      const char* v = next("--h");
      if (!v || !ParseDoubleValue("--h", v, &args->h)) return false;
    } else if (a == "--m") {
      const char* v = next("--m");
      if (!v || !ParseDoubleValue("--m", v, &args->m)) return false;
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (!v || !ParseUintValue("--seed", v, &args->seed)) return false;
    } else if (a == "--batch") {
      const char* v = next("--batch");
      uint64_t b = 0;
      if (!v || !ParseUintValue("--batch", v, &b)) return false;
      args->batch = static_cast<size_t>(b);
    } else if (a == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      args->out = v;
    } else if (a == "--suite") {
      const char* v = next("--suite");
      if (!v) return false;
      args->suite = v;
    } else if (a == "--wal") {
      const char* v = next("--wal");
      if (!v) return false;
      args->wal = v;
    } else if (a == "--recover") {
      args->recover = true;
    } else if (a == "--checkpoint") {
      args->checkpoint = true;
    } else if (a == "--json") {
      args->json = true;
    } else if (a == "--threads") {
      const char* v = next("--threads");
      if (!v || !ParseIntValue("--threads", v, 1, 1024, &n)) return false;
      args->threads = static_cast<int>(n);
    } else if (a == "--write-threads") {
      const char* v = next("--write-threads");
      if (!v || !ParseIntValue("--write-threads", v, 1, 1024, &n)) {
        return false;
      }
      args->write_threads = static_cast<int>(n);
    } else if (a == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (!v || !ParseIntValue("--deadline-ms", v, 0, 86400000, &n)) {
        return false;
      }
      args->deadline_ms = n;
    } else if (a == "--max-inflight") {
      const char* v = next("--max-inflight");
      if (!v || !ParseIntValue("--max-inflight", v, 1, 4096, &n)) return false;
      args->max_inflight = static_cast<int>(n);
    } else if (a == "--scan-threads") {
      const char* v = next("--scan-threads");
      if (!v || !ParseIntValue("--scan-threads", v, 1, 64, &n)) return false;
      args->scan_threads = static_cast<int>(n);
    } else if (a == "--port") {
      const char* v = next("--port");
      if (!v || !ParseIntValue("--port", v, 0, 65535, &n)) return false;
      args->port = static_cast<int>(n);
    } else if (a == "--host") {
      const char* v = next("--host");
      if (!v) return false;
      args->host = v;
    } else if (a == "--tenant") {
      const char* v = next("--tenant");
      if (!v) return false;
      args->tenant = v;
    } else if (a == "--drain-ms") {
      const char* v = next("--drain-ms");
      if (!v || !ParseIntValue("--drain-ms", v, 0, 600000, &n)) return false;
      args->drain_ms = static_cast<int>(n);
    } else if (a == "--stats") {
      args->stats = true;
    } else if ((args->command == "sql" || args->command == "client") &&
               args->sql.empty()) {
      args->sql = a;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bih_driver generate --h H --m M [--seed S] [--out FILE]\n"
      "  bih_driver load     --engine A|B|C|D --h H --m M [--batch N]\n"
      "                      [--wal FILE [--checkpoint]] [--recover]\n"
      "  bih_driver recover  --engine A|B|C|D --wal FILE [--json]\n"
      "  bih_driver run      --engine A|B|C|D --h H --m M [--suite "
      "T|K|R|B|all]\n"
      "                      [--scan-threads W] [--threads N "
      "[--deadline-ms D] [--max-inflight Q]]\n"
      "                      [--write-threads U [--wal FILE]]\n"
      "  bih_driver sql      --engine A|B|C|D --h H --m M [--scan-threads W]\n"
      "                      \"SELECT ...\" | \"EXPLAIN SELECT ...\"\n"
      "  bih_driver check    --engine A|B|C|D --h H --m M [--wal FILE "
      "[--json]]\n"
      "  bih_driver serve    --engine A|B|C|D --h H --m M [--port P]\n"
      "                      [--max-inflight Q] [--scan-threads W] "
      "[--drain-ms D]\n"
      "  bih_driver client   --port P [--host H] [--tenant T]\n"
      "                      [--deadline-ms D] [--scan-threads W]\n"
      "                      \"SELECT ...\" | \"EXPLAIN SELECT ...\" | "
      "--stats\n");
  return 2;
}

// Bad invocations get a one-line pointer, not the full wall of text.
int UsageHint(const std::string& detail) {
  std::fprintf(stderr, "%s; run 'bih_driver' without arguments for usage\n",
               detail.c_str());
  return 2;
}

// Error exit: 1 for ordinary failures, 3 for kUnavailable — scripts driving
// a degraded server distinguish "retry later against a healthy server"
// from "this invocation is wrong". The retry hint, when present, is
// printed on its own line.
int FailWith(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  if (s.code() == Status::Code::kUnavailable) {
    const std::string hint = s.retry_hint();
    if (!hint.empty()) std::fprintf(stderr, "retry: %s\n", hint.c_str());
    return 3;
  }
  return 1;
}

template <typename Fn>
double MeasureMs(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int Generate(const Args& args) {
  std::printf("generating TPC-H version 0 (h=%.4f)...\n", args.h);
  TpchData initial = GenerateTpch({args.h, args.seed});
  std::printf("  %zu initial rows\n", initial.TotalRows());
  GeneratorConfig gcfg;
  gcfg.m = args.m;
  gcfg.seed = args.seed + 1;
  HistoryGenerator gen(initial, gcfg);
  History history;
  double gen_ms = MeasureMs([&] { history = gen.Generate(); });
  const HistoryStats& st = gen.stats();
  std::printf("  %lld transactions / %lld operations in %.1f ms\n",
              static_cast<long long>(st.total_transactions),
              static_cast<long long>(st.total_operations), gen_ms);
  for (size_t i = 0; i < st.scenario_counts.size(); ++i) {
    std::printf("    %-26s %8lld\n", ScenarioName(static_cast<Scenario>(i)),
                static_cast<long long>(st.scenario_counts[i]));
  }
  Status s = SaveHistory(history, args.out);
  if (!s.ok()) return FailWith(s);
  std::printf("archive written to %s\n", args.out.c_str());
  return 0;
}

void PrintTableStats(TemporalEngine& engine) {
  std::printf("%-10s %12s %12s %12s\n", "table", "current", "history", "undo");
  for (const TableDef& def : BiHSchema()) {
    if (!engine.HasTable(def.name)) continue;
    TableStats ts = engine.GetTableStats(def.name);
    std::printf("%-10s %12zu %12zu %12zu\n", def.name.c_str(),
                ts.current_rows, ts.history_rows, ts.pending_undo);
  }
}

int Recover(const Args& args) {
  if (args.wal.empty()) {
    std::fprintf(stderr, "error: recover requires --wal FILE\n");
    return Usage();
  }
  std::printf("recovering System %s from %s...\n", args.engine.c_str(),
              args.wal.c_str());
  std::unique_ptr<TemporalEngine> engine;
  RecoveryReport report;
  Status st;
  double ms = MeasureMs(
      [&] { st = RecoverEngine(args.engine, args.wal, &engine, &report); });
  if (!st.ok()) return FailWith(st);
  if (args.json) {
    std::printf("%s\n", report.ToJson().c_str());
    return 0;
  }
  std::printf("%s (%.1f ms)\n\n", report.ToString().c_str(), ms);
  PrintTableStats(*engine);
  return 0;
}

int Load(const Args& args) {
  if (args.recover) return Recover(args);
  TpchData initial = GenerateTpch({args.h, args.seed});
  GeneratorConfig gcfg;
  gcfg.m = args.m;
  gcfg.seed = args.seed + 1;
  HistoryGenerator gen(initial, gcfg);
  History history = gen.Generate();
  std::printf("loading System %s (h=%.4f, m=%.4f, batch=%zu%s%s)...\n",
              args.engine.c_str(), args.h, args.m, args.batch,
              args.wal.empty() ? "" : ", wal=", args.wal.c_str());
  std::unique_ptr<TemporalEngine> engine = MakeEngine(args.engine);
  // Must outlive the engine's WAL writes; a no-op unless BIH_FAULT is set
  // (e.g. BIH_FAULT=torn:5000:7 to rehearse a crash mid-load).
  FaultInjector fault = FaultInjector::FromEnv();
  Status st;
  if (!args.wal.empty()) {
    st = engine->EnableWal(
        args.wal, fault.mode() == FaultInjector::Mode::kNone ? nullptr : &fault);
    if (!st.ok()) return FailWith(st);
    if (fault.mode() != FaultInjector::Mode::kNone) {
      std::printf("fault injection armed: %s\n", fault.ToString().c_str());
    }
  }
  double ms = MeasureMs([&] {
    st = CreateBiHTables(*engine);
    if (!st.ok()) return;
    st = LoadInitialData(*engine, initial);
    if (!st.ok()) return;
    st = ReplayHistory(*engine, history, args.batch);
    if (!st.ok()) return;
    engine->Maintain();
  });
  if (!st.ok()) return FailWith(st);
  std::printf("loaded in %.1f ms\n", ms);
  if (engine->wal() != nullptr) {
    std::printf("wal: %llu records, %llu bytes\n",
                static_cast<unsigned long long>(engine->wal()->records_written()),
                static_cast<unsigned long long>(engine->wal()->bytes_written()));
  }
  if (args.checkpoint && engine->wal() != nullptr) {
    Checkpointer cp(args.wal);
    CheckpointInfo info;
    double ckpt_ms = MeasureMs([&] { st = cp.Write(engine.get(), &info); });
    if (!st.ok()) return FailWith(st);
    std::printf("%s (%.1f ms)\n", info.ToString().c_str(), ckpt_ms);
  }
  std::printf("\n");
  PrintTableStats(*engine);
  return 0;
}

// run --threads N: drive the loaded workload through the concurrent session
// layer. Threads alternate point lookups with full-history scans on CUSTOMER
// under an optional per-query deadline; the report shows the latency
// distribution and how every query terminated (the four-outcome contract).
//
// --write-threads U adds an update stream: U writers issue UpdateCurrent on
// disjoint C_CUSTKEY stripes through the sharded keyed-write path while the
// readers (if any) run. With --wal the stream is durable and concurrent
// writers share batched group-commit fdatasyncs; the report prints the
// stream's throughput and the group stats (syncs, groups, acks, max batch).
int RunConcurrent(const Args& args) {
  WorkloadConfig cfg;
  cfg.engine_letter = args.engine;
  cfg.h = args.h;
  cfg.m = args.m;
  cfg.seed = args.seed;
  cfg.batch_size = args.batch;
  std::printf("building workload (h=%.4f, m=%.4f) on System %s...\n", args.h,
              args.m, args.engine.c_str());
  WorkloadContext ctx = BuildWorkload(cfg);
  if (!args.wal.empty()) {
    // Attached after the load so the log carries only the update stream.
    Status ws = ctx.eng().EnableWal(args.wal);
    if (!ws.ok()) return FailWith(ws);
  }
  SessionConfig scfg;
  scfg.admission.max_inflight =
      args.max_inflight > 0 ? args.max_inflight : std::max(1, args.threads / 2);
  scfg.admission.max_queued = scfg.admission.max_inflight * 2;
  scfg.scan_threads = args.scan_threads;  // 0 keeps the process default
  SessionManager server(&ctx.eng(), scfg);
  const int queries_per_thread = 200;
  const int updates_per_thread = 200;
  const auto n_cust = static_cast<int64_t>(ctx.initial.customer.size());
  std::printf(
      "concurrent run: %d threads x %d queries, %d writers x %d updates, "
      "deadline=%lldms, max-inflight=%d, scan-threads=%d, write-shards=%d\n",
      args.threads, queries_per_thread, args.write_threads,
      updates_per_thread, static_cast<long long>(args.deadline_ms),
      scfg.admission.max_inflight, server.scan_threads(),
      server.write_shards());

  // The update stream: disjoint stripes (writer u updates custkeys u+1,
  // u+1+U, ...) so writers only meet at the engine lock and the group
  // commit, never on a key.
  Mutex wmu;
  uint64_t w_ok = 0, w_err = 0;
  double write_wall_s = 0.0;
  std::vector<std::thread> writers;
  writers.reserve(args.write_threads);
  const auto wall0 = std::chrono::steady_clock::now();
  for (int u = 0; u < args.write_threads; ++u) {
    writers.emplace_back([&, u] {
      uint64_t ok = 0, err = 0;
      for (int i = 0; i < updates_per_thread; ++i) {
        const int64_t key =
            1 + (static_cast<int64_t>(u) +
                 static_cast<int64_t>(i) * args.write_threads) %
                    n_cust;
        Status st = server.UpdateCurrent(
            "CUSTOMER", {Value(key)},
            {{customer::kAcctBal, Value(1000.0 + i)}});
        if (st.ok()) {
          ++ok;
        } else {
          ++err;
        }
      }
      MutexLock lock(wmu);
      w_ok += ok;
      w_err += err;
    });
  }

  Mutex mu;
  std::vector<double> latencies_ms;
  uint64_t n_rows = 0;
  std::vector<std::thread> workers;
  workers.reserve(args.threads);
  for (int t = 0; t < args.threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double> local_lat;
      local_lat.reserve(queries_per_thread);
      uint64_t local_rows = 0;
      uint64_t h = args.seed * 0x9e3779b97f4a7c15ULL + t + 1;
      for (int q = 0; q < queries_per_thread; ++q) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        ScanRequest req;
        req.table = "CUSTOMER";
        if (q % 8 == 0) {
          // Occasional audit query: the whole bitemporal history.
          req.temporal.system_time = TemporalSelector::All();
          req.temporal.app_time = TemporalSelector::All();
        } else {
          req.equals = {{0, Value(1 + static_cast<int64_t>((h >> 16) %
                                                           n_cust))}};
        }
        QueryContext qctx =
            args.deadline_ms > 0
                ? QueryContext(QueryContext::Clock::now() +
                               std::chrono::milliseconds(args.deadline_ms))
                : QueryContext();
        std::vector<Row> rows;
        Status read_st;
        double ms =
            MeasureMs([&] { read_st = server.Read(req, &qctx, &rows); });
        local_lat.push_back(ms);
        // Non-OK reads return no rows (and are tallied per-outcome in the
        // server stats printed below); only successful reads add rows.
        if (read_st.ok()) local_rows += rows.size();
      }
      MutexLock lock(mu);
      latencies_ms.insert(latencies_ms.end(), local_lat.begin(),
                          local_lat.end());
      n_rows += local_rows;
    });
  }
  for (std::thread& w : writers) w.join();
  write_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  for (std::thread& w : workers) w.join();

  if (args.write_threads > 0) {
    GroupCommit::Stats gs = server.GetGroupCommitStats();
    const uint64_t wal_syncs =
        ctx.eng().wal() != nullptr ? ctx.eng().wal()->syncs() : 0;
    std::printf(
        "update stream: %llu acknowledged (%llu rejected) in %.1f ms = "
        "%.0f upd/s%s\n",
        static_cast<unsigned long long>(w_ok),
        static_cast<unsigned long long>(w_err), write_wall_s * 1e3,
        write_wall_s > 0.0 ? static_cast<double>(w_ok) / write_wall_s : 0.0,
        args.wal.empty() ? " (no wal: not durable)" : "");
    if (!args.wal.empty()) {
      std::printf(
          "group commit: %llu device syncs, %llu groups / %llu acks, "
          "max batch %llu\n",
          static_cast<unsigned long long>(wal_syncs),
          static_cast<unsigned long long>(gs.groups),
          static_cast<unsigned long long>(gs.acks),
          static_cast<unsigned long long>(gs.max_group));
    }
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto pct = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    size_t i = static_cast<size_t>(p * (latencies_ms.size() - 1));
    return latencies_ms[i];
  };
  SessionManager::ServerStats stats = server.GetStats();
  std::printf("latency: p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
              pct(0.50), pct(0.95), pct(0.99),
              latencies_ms.empty() ? 0.0 : latencies_ms.back());
  std::printf(
      "outcomes: ok=%llu deadline=%llu cancelled=%llu shed=%llu "
      "(%llu rows)\n",
      static_cast<unsigned long long>(stats.reads_ok),
      static_cast<unsigned long long>(stats.reads_deadline),
      static_cast<unsigned long long>(stats.reads_cancelled),
      static_cast<unsigned long long>(stats.reads_shed),
      static_cast<unsigned long long>(n_rows));
  std::printf(
      "admission: admitted=%llu shed=%llu abandoned=%llu; watchdog "
      "kills=%llu\n",
      static_cast<unsigned long long>(stats.admission.admitted),
      static_cast<unsigned long long>(stats.admission.shed),
      static_cast<unsigned long long>(stats.admission.abandoned_queued),
      static_cast<unsigned long long>(stats.watchdog_kills));
  return 0;
}

int RunSuites(const Args& args) {
  // Intra-query parallelism for every scan the run issues; the serial suite
  // path resolves per-request thread counts from this process default.
  if (args.scan_threads > 0) SetDefaultScanThreads(args.scan_threads);
  if (args.threads > 0 || args.write_threads > 0) return RunConcurrent(args);
  WorkloadConfig cfg;
  cfg.engine_letter = args.engine;
  cfg.h = args.h;
  cfg.m = args.m;
  cfg.seed = args.seed;
  cfg.batch_size = args.batch;
  std::printf("building workload (h=%.4f, m=%.4f) on System %s...\n", args.h,
              args.m, args.engine.c_str());
  WorkloadContext ctx = BuildWorkload(cfg);
  TemporalEngine& e = ctx.eng();
  auto report = [](const char* name, double ms) {
    std::printf("  %-34s %10.3f ms\n", name, ms);
  };
  bool all = args.suite == "all";
  if (all || args.suite == "T") {
    std::printf("time travel (T):\n");
    report("ALL", MeasureMs([&] { QueryAll(e); }));
    report("T1 point-point",
           MeasureMs([&] {
             T1(e, TemporalScanSpec::BothAsOf(ctx.sys_mid.micros(),
                                              ctx.app_mid));
           }));
    report("T2 point-point",
           MeasureMs([&] {
             T2(e, TemporalScanSpec::BothAsOf(ctx.sys_mid.micros(),
                                              ctx.app_mid));
           }));
    report("T6 app slice",
           MeasureMs([&] { T6AppPointSysAll(e, ctx.app_mid); }));
    report("T6 sys slice",
           MeasureMs([&] { T6SysPointAppAll(e, ctx.sys_mid); }));
    report("T7 implicit", MeasureMs([&] { T7Implicit(e); }));
    report("T7 explicit", MeasureMs([&] { T7Explicit(e); }));
  }
  if (all || args.suite == "K") {
    std::printf("pure-key / audit (K):\n");
    TemporalScanSpec full;
    full.system_time = TemporalSelector::All();
    full.app_time = TemporalSelector::All();
    report("K1 full history",
           MeasureMs([&] { K1(e, ctx.hot_custkey, full); }));
    report("K4 top-3", MeasureMs([&] { K4(e, ctx.hot_custkey, full, 3); }));
    report("K5 previous version",
           MeasureMs([&] { K5(e, ctx.hot_custkey, full); }));
    report("K6 value trace",
           MeasureMs([&] { K6(e, 9900.0, full); }));
  }
  if (all || args.suite == "R") {
    std::printf("range-timeslice (R):\n");
    report("R1 state changes", MeasureMs([&] { R1(e); }));
    report("R2 state durations", MeasureMs([&] { R2(e); }));
    report("R3 temporal agg (timeline)",
           MeasureMs([&] { R3(e, TemporalAggKind::kCount, false); }));
    report("R4 stock differences", MeasureMs([&] { R4(e, 10); }));
    report("R5 temporal join",
           MeasureMs([&] { R5(e, 5000.0, 100000.0); }));
    report("R7 price raises", MeasureMs([&] { R7(e, 7.5); }));
  }
  if (all || args.suite == "B") {
    std::printf("bitemporal dimensions (B3):\n");
    const int64_t pk = 55 % static_cast<int64_t>(ctx.initial.part.size()) + 1;
    for (int v = 1; v <= 11; ++v) {
      std::string name = "B3." + std::to_string(v);
      report(name.c_str(), MeasureMs([&] {
               B3(e, v, pk, ctx.app_mid, ctx.sys_mid);
             }));
    }
  }
  if (all || args.suite == "H") {
    std::printf("temporal TPC-H (H):\n");
    for (int q = 1; q <= 22; ++q) {
      std::string name = "Q" + std::to_string(q) + " sys-TT";
      report(name.c_str(), MeasureMs([&] {
               TpchQuery(q, e, TemporalScanSpec::SystemAsOf(
                                   ctx.sys_v0.micros()));
             }));
    }
  }
  return 0;
}

int RunSql(const Args& args) {
  if (args.sql.empty()) return Usage();
  WorkloadConfig cfg;
  cfg.engine_letter = args.engine;
  cfg.h = args.h;
  cfg.m = args.m;
  WorkloadContext ctx = BuildWorkload(cfg);
  sql::SqlResult result;
  double ms = 0;
  Status st;
  ExecOptions opts;
  opts.scan_threads = args.scan_threads;
  ms = MeasureMs(
      [&] { st = sql::ExecuteSql(ctx.eng(), args.sql, &result, nullptr, opts); });
  if (!st.ok()) return FailWith(st);
  if (result.columns.size() == 1 && result.columns[0] == "PLAN" &&
      result.rows.size() == 1) {
    // EXPLAIN: the single cell is a JSON document, not tabular data.
    std::printf("%s\n(explained in %.2f ms)\n",
                result.rows[0][0].AsString().c_str(), ms);
    return 0;
  }
  std::printf("%s(%zu rows in %.2f ms)\n",
              FormatRows(result.rows, result.columns, 50).c_str(),
              result.rows.size(), ms);
  return 0;
}

// `check` (alias `verify`): CheckBitemporalConsistency over every table —
// either on a freshly built workload or, with --wal, on a recovered engine
// (the post-crash sanity sweep).
int Check(const Args& args) {
  std::unique_ptr<TemporalEngine> recovered;
  WorkloadContext ctx;
  TemporalEngine* engine = nullptr;
  if (!args.wal.empty()) {
    RecoveryReport report;
    Status st = RecoverEngine(args.engine, args.wal, &recovered, &report);
    if (!st.ok()) return FailWith(st);
    std::printf("%s\n",
                args.json ? report.ToJson().c_str() : report.ToString().c_str());
    engine = recovered.get();
  } else {
    WorkloadConfig cfg;
    cfg.engine_letter = args.engine;
    cfg.h = args.h;
    cfg.m = args.m;
    cfg.seed = args.seed;
    std::printf("building workload (h=%.4f, m=%.4f) on System %s...\n", args.h,
                args.m, args.engine.c_str());
    ctx = BuildWorkload(cfg);
    engine = &ctx.eng();
  }
  int bad = 0;
  for (const TableDef& def : BiHSchema()) {
    if (!engine->HasTable(def.name)) continue;
    ConsistencyReport r = CheckBitemporalConsistency(*engine, def.name);
    std::printf("%-10s keys=%7zu versions=%8zu %s\n", def.name.c_str(),
                r.keys_checked, r.versions_checked,
                r.ok() ? "OK" : "VIOLATIONS");
    for (const ConsistencyViolation& v : r.violations) {
      std::printf("  key=%s: %s\n", v.key[0].ToString().c_str(),
                  v.message.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

// `serve`: build the workload, put a SessionManager in front of it and
// expose it on the wire. SIGTERM/SIGINT trigger a graceful drain: stop
// accepting, let in-flight requests finish within --drain-ms, cancel the
// rest, flush, exit 0. BIH_FAULT=net:... arms connection-level chaos.
volatile std::sig_atomic_t g_stop = 0;
void OnStopSignal(int) { g_stop = 1; }

int Serve(const Args& args) {
  WorkloadConfig cfg;
  cfg.engine_letter = args.engine;
  cfg.h = args.h;
  cfg.m = args.m;
  cfg.seed = args.seed;
  cfg.batch_size = args.batch;
  std::printf("building workload (h=%.4f, m=%.4f) on System %s...\n", args.h,
              args.m, args.engine.c_str());
  WorkloadContext ctx = BuildWorkload(cfg);
  SessionConfig scfg;
  if (args.max_inflight > 0) {
    scfg.admission.max_inflight = args.max_inflight;
    scfg.admission.max_queued = args.max_inflight * 2;
  }
  scfg.scan_threads = args.scan_threads;
  SessionManager session(&ctx.eng(), scfg);
  FaultInjector fault = FaultInjector::FromEnv();
  net::ServerConfig ncfg;
  ncfg.port = static_cast<uint16_t>(args.port);
  ncfg.drain_deadline = std::chrono::milliseconds(args.drain_ms);
  if (fault.is_net_mode()) {
    ncfg.fault = &fault;
    std::printf("fault injection armed: %s\n", fault.ToString().c_str());
  }
  net::Server server(&session, ncfg);
  Status st = server.Start();
  if (!st.ok()) return FailWith(st);
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  std::printf("serving on %s:%u (drain deadline %dms); SIGTERM drains\n",
              ncfg.bind_address.c_str(), server.port(), args.drain_ms);
  std::fflush(stdout);  // bih-lint: allow(raw-io) -- port must reach a piped reader promptly
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining...\n");
  server.Drain();
  std::printf("%s\n", server.StatsJson().c_str());
  return 0;
}

// `client`: one-shot wire client — run one SQL statement (or fetch the
// stats JSON with --stats) against a running `serve` instance.
int RunClient(const Args& args) {
  if (args.port == 0) return UsageHint("client requires --port");
  net::Client client;
  Status st = client.Connect(args.host, static_cast<uint16_t>(args.port),
                             args.tenant, args.scan_threads);
  if (!st.ok()) return FailWith(st);
  if (args.stats) {
    std::string json;
    st = client.GetStatsJson(&json);
    if (!st.ok()) return FailWith(st);
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (args.sql.empty()) return UsageHint("client requires a SQL statement");
  // EXPLAIN goes over the wire as its own message type; the reply is one
  // JSON document, not a rows frame.
  constexpr const char kExplainKw[] = "EXPLAIN ";
  constexpr size_t kExplainKwLen = sizeof(kExplainKw) - 1;
  if (args.sql.size() > kExplainKwLen) {
    bool is_explain = true;
    for (size_t i = 0; i < kExplainKwLen; ++i) {
      if (std::toupper(static_cast<unsigned char>(args.sql[i])) !=
          kExplainKw[i]) {
        is_explain = false;
        break;
      }
    }
    if (is_explain) {
      std::string json;
      double ms = MeasureMs([&] {
        st = client.Explain(args.sql.substr(kExplainKwLen),
                            static_cast<uint32_t>(args.deadline_ms), &json);
      });
      if (!st.ok()) return FailWith(st);
      std::printf("%s\n(explained in %.2f ms)\n", json.c_str(), ms);
      return 0;
    }
  }
  net::QueryReply reply;
  double ms = MeasureMs([&] {
    (void)client.Query(args.sql, static_cast<uint32_t>(args.deadline_ms),
                       &reply);  // outcome is in reply.status
  });
  if (!reply.status.ok()) {
    if (reply.retry_after_ms > 0) {
      std::fprintf(stderr, "retry after %ums\n", reply.retry_after_ms);
    }
    return FailWith(reply.status);
  }
  std::printf("%s(%zu rows in %.2f ms)\n",
              FormatRows(reply.rows, reply.columns, 50).c_str(),
              reply.rows.size(), ms);
  return 0;
}

}  // namespace
}  // namespace bih

int main(int argc, char** argv) {
  if (argc < 2) return bih::Usage();
  bih::Args args;
  if (!bih::ParseArgs(argc, argv, &args)) {
    return bih::UsageHint("invalid invocation");
  }
  if (args.command == "generate") return bih::Generate(args);
  if (args.command == "load") return bih::Load(args);
  if (args.command == "recover") return bih::Recover(args);
  if (args.command == "run") return bih::RunSuites(args);
  if (args.command == "sql") return bih::RunSql(args);
  if (args.command == "check" || args.command == "verify") {
    return bih::Check(args);
  }
  if (args.command == "serve") return bih::Serve(args);
  if (args.command == "client") return bih::RunClient(args);
  return bih::UsageHint("unknown subcommand '" + args.command + "'");
}
