// Differential parallel-vs-serial scan harness (the PR's headline test).
//
// The morsel-driven scan path promises *byte-identical* output: same rows,
// same order, same ExecStats, for every engine, query class, morsel size
// and thread count — so the whole sweep below compares parallel runs
// against a serial baseline without any canonicalization. A second sweep
// randomizes specs/morsels/threads and injects deadlines, and the
// cancellation tests prove an interrupted parallel scan returns exactly one
// status and leaves no pool worker running (scheduler idle-count). Run
// under TSan in CI alongside the concurrency suites.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "reference_model.h"
#include "server/session.h"
#include "temporal/clock.h"

namespace bih {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// A bitemporal ITEM population with plenty of current and history versions,
// plus the lockstep reference model (one commit tick per DML statement,
// successful or not, exactly like the engines' dispatch wrappers).
struct Loaded {
  std::unique_ptr<TemporalEngine> engine;
  Model model;
  std::vector<int64_t> commit_ts;
  std::vector<int64_t> keys;
};

Loaded BuildLoadedEngine(const std::string& letter, uint64_t seed,
                         int num_ops) {
  Loaded l;
  l.engine = MakeEngine(letter);
  EXPECT_TRUE(l.engine->CreateTable(FuzzItemDef()).ok());
  Rng rng(seed);
  CommitClock clock;
  int64_t next_key = 1;
  for (int i = 0; i < num_ops; ++i) {
    const int choice = static_cast<int>(rng.UniformInt(0, 9));
    const int64_t ts = clock.NextCommit().micros();
    l.commit_ts.push_back(ts);
    if (choice <= 3 || l.keys.empty()) {
      const int64_t id = next_key++;
      const int64_t vb = rng.UniformInt(0, 300);
      const int64_t ve = rng.Bernoulli(0.3) ? Period::kForever
                                            : vb + rng.UniformInt(1, 200);
      Row row{Value(id), Value(double(rng.UniformInt(1, 1000))),
              Value(rng.Bernoulli(0.5) ? "x" : "y"), Value(vb), Value(ve)};
      l.model.Insert(row, ts);
      l.keys.push_back(id);
      EXPECT_TRUE(l.engine->Insert("ITEM", std::move(row)).ok());
    } else {
      const int64_t id = l.keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(l.keys.size()) - 1))];
      std::vector<ColumnAssignment> set = {
          {1, Value(double(rng.UniformInt(1, 1000)))}};
      const int64_t wb = rng.UniformInt(0, 400);
      const Period window(wb, rng.Bernoulli(0.3)
                                  ? Period::kForever
                                  : wb + rng.UniformInt(1, 150));
      Status st;
      bool expect_ok = false;
      switch (choice) {
        case 4:
        case 5:
          expect_ok = l.model.UpdateCurrent(id, set, ts);
          st = l.engine->UpdateCurrent("ITEM", {Value(id)}, set);
          break;
        case 6:
          expect_ok = l.model.Sequenced(id, window, set,
                                        SequencedOp::kUpdate, ts);
          st = l.engine->UpdateSequenced("ITEM", {Value(id)}, 0, window, set);
          break;
        case 7:
          expect_ok = l.model.Sequenced(id, window, set,
                                        SequencedOp::kOverwrite, ts);
          st = l.engine->UpdateOverwrite("ITEM", {Value(id)}, 0, window, set);
          break;
        case 8:
          expect_ok = l.model.Sequenced(id, window, {},
                                        SequencedOp::kDelete, ts);
          st = l.engine->DeleteSequenced("ITEM", {Value(id)}, 0, window);
          break;
        default:
          expect_ok = l.model.DeleteCurrent(id, ts);
          st = l.engine->DeleteCurrent("ITEM", {Value(id)});
          break;
      }
      EXPECT_EQ(expect_ok, st.ok()) << "op " << i << ": " << st.ToString();
    }
  }
  // Publish deferred state (System B's undo log) so that every scan below
  // is a pure read — the precondition for fanning morsels out to threads.
  l.engine->PrepareForReads();
  return l;
}

// The query classes of the differential sweep.
struct QueryCase {
  std::string name;
  TemporalScanSpec spec;
  int64_t key = -1;       // -1: no key constraint
  bool aggregate = false; // compare SUM/COUNT instead of (only) rows
  int range_col = -1;     // -1: no range constraint
  Value range_lo;
  Value range_hi;
  std::vector<int> projection;  // empty: every column
};

std::vector<QueryCase> QueryCases(const Loaded& l) {
  const int64_t mid_ts = l.commit_ts[l.commit_ts.size() / 2];
  const int64_t late_ts = l.commit_ts[(l.commit_ts.size() * 3) / 4];
  std::vector<QueryCase> cases;
  {
    QueryCase q;  // time travel: one system-time point, all of app time
    q.name = "time_travel";
    q.spec.system_time = TemporalSelector::AsOf(mid_ts);
    q.spec.app_time = TemporalSelector::All();
    cases.push_back(q);
  }
  {
    QueryCase q;  // timeslice: one app-time point across all versions
    q.name = "timeslice";
    q.spec.system_time = TemporalSelector::All();
    q.spec.app_time = TemporalSelector::AsOf(150);
    cases.push_back(q);
  }
  {
    QueryCase q;  // key in time: one key's full history
    q.name = "key_in_time";
    q.spec.system_time = TemporalSelector::All();
    q.spec.app_time = TemporalSelector::All();
    q.key = l.keys[l.keys.size() / 2];
    cases.push_back(q);
  }
  {
    QueryCase q;  // bitemporal: points on both axes
    q.name = "bitemporal";
    q.spec.system_time = TemporalSelector::AsOf(late_ts);
    q.spec.app_time = TemporalSelector::AsOf(200);
    cases.push_back(q);
  }
  {
    QueryCase q;  // aggregate over a full scan (order-sensitive FP sum)
    q.name = "aggregate";
    q.spec.system_time = TemporalSelector::All();
    q.spec.app_time = TemporalSelector::All();
    q.aggregate = true;
    cases.push_back(q);
  }
  {
    QueryCase q;  // implicit current: the current partitions only
    q.name = "implicit_current";
    q.spec.system_time = TemporalSelector::ImplicitCurrent();
    q.spec.app_time = TemporalSelector::All();
    cases.push_back(q);
  }
  {
    QueryCase q;  // a PRICE range over every version
    q.name = "price_range";
    q.spec.system_time = TemporalSelector::All();
    q.spec.app_time = TemporalSelector::All();
    q.range_col = 1;
    q.range_lo = Value(250.0);
    q.range_hi = Value(750.0);
    cases.push_back(q);
  }
  {
    QueryCase q;  // projected: unread columns may stay unfetched
    q.name = "projected";
    q.spec.system_time = TemporalSelector::AsOf(late_ts);
    q.spec.app_time = TemporalSelector::All();
    q.projection = {0, 1};
    cases.push_back(q);
  }
  return cases;
}

ScanRequest MakeRequest(const QueryCase& qc, int threads, uint64_t morsel,
                        ScanScheduler* pool, ExecStats* stats) {
  ScanRequest req;
  req.table = "ITEM";
  req.temporal = qc.spec;
  if (qc.key >= 0) req.equals = {{0, Value(qc.key)}};
  req.range_col = qc.range_col;
  req.range_lo = qc.range_lo;
  req.range_hi = qc.range_hi;
  req.projection = qc.projection;
  req.exec.scan_threads = threads;
  req.exec.morsel_size = morsel;
  req.exec.scheduler = pool;
  req.stats = stats;
  return req;
}

std::vector<Row> RunScan(TemporalEngine& e, const QueryCase& qc, int threads,
                         uint64_t morsel, ScanScheduler* pool,
                         ExecStats* stats) {
  ScanRequest req = MakeRequest(qc, threads, morsel, pool, stats);
  std::vector<Row> rows;
  e.Scan(req, [&](const Row& r) {
    rows.push_back(r);
    return true;
  });
  return rows;
}

// Byte-for-byte: same count, same order, same cell values.
void ExpectIdenticalRows(const std::vector<Row>& expect,
                         const std::vector<Row>& got,
                         const std::string& what) {
  ASSERT_EQ(expect.size(), got.size()) << what;
  for (size_t r = 0; r < expect.size(); ++r) {
    ASSERT_EQ(expect[r].size(), got[r].size()) << what << " row " << r;
    for (size_t c = 0; c < expect[r].size(); ++c) {
      ASSERT_EQ(0, expect[r][c].Compare(got[r][c]))
          << what << " row " << r << " col " << c;
    }
  }
}

void ExpectIdenticalStats(const ExecStats& expect, const ExecStats& got,
                          const std::string& what) {
  EXPECT_EQ(expect.rows_examined, got.rows_examined) << what;
  EXPECT_EQ(expect.rows_output, got.rows_output) << what;
  EXPECT_EQ(expect.partitions_touched, got.partitions_touched) << what;
  EXPECT_EQ(expect.used_index, got.used_index) << what;
  EXPECT_EQ(expect.index_name, got.index_name) << what;
  EXPECT_EQ(expect.touched_history, got.touched_history) << what;
}

// Order-sensitive aggregate: identical row order implies an identical
// floating-point sum, which is exactly what the ordered merge guarantees.
std::pair<uint64_t, double> SumPrice(const std::vector<Row>& rows) {
  double sum = 0.0;
  for (const Row& r : rows) sum += r[1].AsDouble();
  return {rows.size(), sum};
}

bool SchedulerDrained(ScanScheduler* pool, milliseconds timeout) {
  const auto until = steady_clock::now() + timeout;
  while (steady_clock::now() < until) {
    if (pool->idle_workers() == pool->num_workers()) return true;
    std::this_thread::yield();
  }
  return pool->idle_workers() == pool->num_workers();
}

class ParallelScanTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Engines, ParallelScanTest,
                         ::testing::ValuesIn(AllEngineLetters()));

// Satellite 1: engine x query class x morsel {1, 7, 64, whole-partition} x
// threads 1..8, every combination byte-compared against the serial scan.
TEST_P(ParallelScanTest, DifferentialSweepMatchesSerialByteForByte) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/11, /*num_ops=*/700);
  ScanScheduler pool(/*helpers=*/7);
  // Effectively one morsel spanning any partition: the engagement rule then
  // keeps the scan serial, which must also be byte-identical.
  const uint64_t kWholePartition = uint64_t{1} << 30;
  const uint64_t kMorsels[] = {1, 7, 64, kWholePartition};

  for (const QueryCase& qc : QueryCases(l)) {
    ExecStats serial_stats;
    const std::vector<Row> serial =
        RunScan(*l.engine, qc, /*threads=*/1, /*morsel=*/0, nullptr,
                &serial_stats);
    // The sweep only means something if the full scans return work to split.
    if (!qc.aggregate && qc.key < 0) {
      EXPECT_GT(serial.size(), 0u) << qc.name;
    }

    for (uint64_t morsel : kMorsels) {
      for (int threads = 1; threads <= 8; ++threads) {
        const std::string what = GetParam() + "/" + qc.name + "/morsel=" +
                                 std::to_string(morsel) +
                                 "/threads=" + std::to_string(threads);
        ExecStats par_stats;
        const std::vector<Row> par =
            RunScan(*l.engine, qc, threads, morsel, &pool, &par_stats);
        ExpectIdenticalRows(serial, par, what);
        ExpectIdenticalStats(serial_stats, par_stats, what);
        if (qc.aggregate) {
          EXPECT_EQ(SumPrice(serial), SumPrice(par)) << what;
        }
      }
    }
  }
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// The parallel path must agree with the storage-independent brute-force
// model, not only with the serial scan (guards against a bug both paths
// share downstream of the reference).
TEST_P(ParallelScanTest, ParallelScanMatchesReferenceModel) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/23, /*num_ops=*/400);
  ScanScheduler pool(/*helpers=*/7);
  QueryCase qc;
  qc.name = "all_versions";
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  const int64_t now = l.engine->Now().micros();
  ExecStats stats;
  std::vector<Row> got = Canonical(
      RunScan(*l.engine, qc, /*threads=*/8, /*morsel=*/16, &pool, &stats));
  std::vector<Row> expect = Canonical(l.model.Query(qc.spec, now, -1));
  ExpectIdenticalRows(expect, got, GetParam() + "/model");
}

// Satellite 1 (randomized leg): random specs, keys, morsel sizes and thread
// counts; occasional injected deadlines. Whenever a run completes it must
// be byte-identical to serial; when it trips it must report exactly one
// status and drain the pool.
TEST_P(ParallelScanTest, RandomizedDifferentialWithInjectedDeadlines) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/5, /*num_ops=*/500);
  ScanScheduler pool(/*helpers=*/7);
  Rng rng(99);
  const int kIters = 60;
  for (int i = 0; i < kIters; ++i) {
    QueryCase qc;
    qc.name = "iter" + std::to_string(i);
    auto pick_ts = [&] {
      return l.commit_ts[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(l.commit_ts.size()) - 1))];
    };
    switch (rng.UniformInt(0, 2)) {
      case 0:
        qc.spec.system_time = TemporalSelector::AsOf(pick_ts());
        break;
      case 1: {
        int64_t a = pick_ts(), b = pick_ts();
        if (a > b) std::swap(a, b);
        qc.spec.system_time = TemporalSelector::Between(a, b + 1);
        break;
      }
      default:
        qc.spec.system_time = TemporalSelector::All();
        break;
    }
    switch (rng.UniformInt(0, 2)) {
      case 0:
        qc.spec.app_time = TemporalSelector::AsOf(rng.UniformInt(0, 500));
        break;
      case 1: {
        int64_t a = rng.UniformInt(0, 400);
        qc.spec.app_time =
            TemporalSelector::Between(a, a + rng.UniformInt(1, 200));
        break;
      }
      default:
        qc.spec.app_time = TemporalSelector::All();
        break;
    }
    if (rng.Bernoulli(0.3)) {
      qc.key = l.keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(l.keys.size()) - 1))];
    }
    const int threads = static_cast<int>(rng.UniformInt(2, 8));
    const uint64_t morsel = static_cast<uint64_t>(rng.UniformInt(1, 128));

    if (rng.Bernoulli(0.25)) {
      // Injected deadline: anywhere from already-expired to "usually
      // finishes". Either outcome is legal; the invariants are a single
      // coherent status, no partial output on failure, and a drained pool.
      QueryContext ctx = QueryContext::WithTimeout(
          std::chrono::microseconds(rng.UniformInt(0, 500)));
      ExecStats stats;
      ScanRequest req = MakeRequest(qc, threads, morsel, &pool, &stats);
      req.ctx = &ctx;
      std::vector<Row> rows;
      l.engine->Scan(req, [&](const Row& r) {
        rows.push_back(r);
        return true;
      });
      const Status st = ctx.status();
      EXPECT_EQ(st.code(), ctx.status().code()) << "status must be sticky";
      if (st.ok()) {
        ExecStats serial_stats;
        ExpectIdenticalRows(
            RunScan(*l.engine, qc, 1, 0, nullptr, &serial_stats), rows,
            qc.name + "/deadline-survived");
      } else {
        EXPECT_EQ(Status::Code::kDeadlineExceeded, st.code()) << qc.name;
      }
      EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000))) << qc.name;
      continue;
    }

    ExecStats serial_stats;
    const std::vector<Row> serial =
        RunScan(*l.engine, qc, 1, 0, nullptr, &serial_stats);
    ExecStats par_stats;
    const std::vector<Row> par =
        RunScan(*l.engine, qc, threads, morsel, &pool, &par_stats);
    const std::string what = GetParam() + "/" + qc.name + "/threads=" +
                             std::to_string(threads) +
                             "/morsel=" + std::to_string(morsel);
    ExpectIdenticalRows(serial, par, what);
    ExpectIdenticalStats(serial_stats, par_stats, what);
  }
}

// Top-N early stop (the consumer returns false): the parallel scan must
// stop at the same row and report the same rows_examined the serial scan
// would — the examined_at bookkeeping in the ordered merge.
TEST_P(ParallelScanTest, TopNEarlyStopKeepsExactSerialCounters) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/31, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  for (size_t top_n : {1, 5, 23}) {
    for (uint64_t morsel : {uint64_t{3}, uint64_t{64}}) {
      auto run = [&](int threads, ScanScheduler* p, ExecStats* stats) {
        ScanRequest req = MakeRequest(qc, threads, morsel, p, stats);
        std::vector<Row> rows;
        l.engine->Scan(req, [&](const Row& r) {
          rows.push_back(r);
          return rows.size() < top_n;
        });
        return rows;
      };
      ExecStats serial_stats, par_stats;
      const std::vector<Row> serial = run(1, nullptr, &serial_stats);
      const std::vector<Row> par = run(8, &pool, &par_stats);
      const std::string what = GetParam() + "/topN=" + std::to_string(top_n) +
                               "/morsel=" + std::to_string(morsel);
      ExpectIdenticalRows(serial, par, what);
      ExpectIdenticalStats(serial_stats, par_stats, what);
    }
  }
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// Satellite 3: a parallel scan cancelled from its own callback stops after
// exactly the rows emitted so far, reports kCancelled once, and the pool
// drains back to fully idle.
TEST_P(ParallelScanTest, CancelFromCallbackStopsParallelScanPromptly) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/17, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryContext ctx;
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  ExecStats stats;
  ScanRequest req = MakeRequest(qc, /*threads=*/8, /*morsel=*/1, &pool, &stats);
  req.ctx = &ctx;
  int emitted = 0;
  l.engine->Scan(req, [&](const Row&) {
    if (++emitted == 3) ctx.Cancel();
    return true;
  });
  EXPECT_EQ(3, emitted);
  EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());
  EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());  // exactly one
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// Satellite 3: an already-expired deadline trips on the coordinator's first
// per-morsel check — no rows are emitted, the status is kDeadlineExceeded
// (stable across repeated reads), and no worker stays busy.
TEST_P(ParallelScanTest, DeadlineExceededLeavesNoWorkerRunning) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/13, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryContext ctx(QueryContext::Clock::now() - milliseconds(1));
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  ExecStats stats;
  ScanRequest req = MakeRequest(qc, /*threads=*/8, /*morsel=*/4, &pool, &stats);
  req.ctx = &ctx;
  int emitted = 0;
  l.engine->Scan(req, [&](const Row&) {
    ++emitted;
    return true;
  });
  EXPECT_EQ(0, emitted);
  EXPECT_EQ(Status::Code::kDeadlineExceeded, ctx.status().code());
  EXPECT_EQ(Status::Code::kDeadlineExceeded, ctx.status().code());
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// Satellite 3 (watchdog path): Cancel() arriving from *another thread*
// mid-scan — the exact mechanism the session watchdog uses — must reach
// the workers through the per-row cancel poll and stop work everywhere.
TEST_P(ParallelScanTest, ExternalCancelMidScanPropagatesToAllWorkers) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/19, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryContext ctx;
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  ExecStats stats;
  ScanRequest req = MakeRequest(qc, /*threads=*/8, /*morsel=*/2, &pool, &stats);
  req.ctx = &ctx;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ctx.Cancel();
  });
  int emitted = 0;
  ExecStats serial_stats;
  const size_t total = RunScan(*l.engine, qc, 1, 0, nullptr, &serial_stats).size();
  l.engine->Scan(req, [&](const Row&) {
    ++emitted;
    // Slow the emission so the cancel reliably lands mid-scan.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;
  });
  killer.join();
  EXPECT_LT(static_cast<size_t>(emitted), total);
  EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// Satellite 3 (session watchdog): through the SessionManager, ever-tighter
// deadlines must eventually yield kDeadlineExceeded from a parallel read;
// afterwards the manager's own pool is fully idle, the failed read returned
// no rows, and the next unrestricted read succeeds.
TEST_P(ParallelScanTest, SessionDeadlineDrainsManagerPool) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/3, /*num_ops=*/500);
  SessionConfig cfg;
  cfg.scan_threads = 4;
  cfg.watchdog_period = milliseconds(1);
  SessionManager server(l.engine.get(), cfg);
  ASSERT_NE(nullptr, server.scheduler());
  EXPECT_EQ(4, server.scan_threads());

  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  req.exec.morsel_size = 2;  // many morsels => many deadline check points

  bool saw_deadline = false;
  for (int64_t budget_us : {2000, 500, 100, 20, 5, 0}) {
    QueryContext ctx =
        QueryContext::WithTimeout(std::chrono::microseconds(budget_us));
    std::vector<Row> rows;
    Status st = server.Read(req, &ctx, &rows);
    if (st.code() == Status::Code::kDeadlineExceeded) {
      saw_deadline = true;
      EXPECT_TRUE(rows.empty());
      break;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(SchedulerDrained(server.scheduler(), milliseconds(2000)));
  EXPECT_GE(server.GetStats().reads_deadline, 1u);

  std::vector<Row> rows;
  ASSERT_TRUE(server.Read(req, nullptr, &rows).ok());
  EXPECT_GT(rows.size(), 0u);
}

// Lock-discipline regression (referenced from ScanScheduler::Retire): after
// a cancelled parallel scan, Retire's stop/drain handoff must leave every
// helper idle before the scheduler is handed to the next query. The
// *immediate* reuse below — no settling sleep between the cancelled scan and
// the full one — is the part that catches a broken drain: a helper still
// chewing the old job would race the new job's merge and break the
// byte-identical guarantee.
TEST_P(ParallelScanTest, RetireDrainsHelpersBeforeImmediateReuse) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/37, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  ExecStats serial_stats;
  const std::vector<Row> serial =
      RunScan(*l.engine, qc, 1, 0, nullptr, &serial_stats);
  ASSERT_GT(serial.size(), 3u);

  for (int round = 0; round < 5; ++round) {
    QueryContext ctx;
    ExecStats stats;
    ScanRequest req =
        MakeRequest(qc, /*threads=*/8, /*morsel=*/1, &pool, &stats);
    req.ctx = &ctx;
    int emitted = 0;
    l.engine->Scan(req, [&](const Row&) {
      if (++emitted == 2) ctx.Cancel();
      return true;
    });
    EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());
    // Retire must have fully drained by the time Scan returned: the pool is
    // reusable right now, with no straggler worker from the dead job.
    ExecStats reuse_stats;
    const std::vector<Row> reuse =
        RunScan(*l.engine, qc, /*threads=*/8, /*morsel=*/2, &pool,
                &reuse_stats);
    ExpectIdenticalRows(serial, reuse,
                        GetParam() + "/retire-reuse round " +
                            std::to_string(round));
    ExpectIdenticalStats(serial_stats, reuse_stats,
                         GetParam() + "/retire-reuse round " +
                             std::to_string(round));
  }
  // Workers re-park asynchronously after the retire handoff; what Retire
  // guarantees synchronously is that no helper still touches the dead job
  // (proven by the byte-identical reuse above).
  EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)));
}

// Same handoff under deadline abandonment instead of an in-band cancel:
// after Scan returns the job is retired, so the pool drains back to fully
// idle with no further work posted.
TEST_P(ParallelScanTest, RetireDrainsAfterDeadlineAbandonment) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/41, /*num_ops=*/600);
  ScanScheduler pool(/*helpers=*/7);
  QueryCase qc;
  qc.spec.system_time = TemporalSelector::All();
  qc.spec.app_time = TemporalSelector::All();
  for (int64_t budget_us : {0, 5, 50}) {
    QueryContext ctx =
        QueryContext::WithTimeout(std::chrono::microseconds(budget_us));
    ExecStats stats;
    ScanRequest req =
        MakeRequest(qc, /*threads=*/8, /*morsel=*/1, &pool, &stats);
    req.ctx = &ctx;
    std::vector<Row> rows;
    l.engine->Scan(req, [&](const Row& r) {
      rows.push_back(r);
      return true;
    });
    // Whether the scan beat the deadline or not, every helper must have
    // left the job by the time Scan returns (Retire's guarantee) and the
    // pool returns to fully idle without any new work being posted.
    EXPECT_TRUE(SchedulerDrained(&pool, milliseconds(2000)))
        << GetParam() << " budget=" << budget_us;
  }
}

// Lock-discipline regression (SessionManager watermark publication): the
// watermark a reader acquires from OpenSnapshot must never lag a write that
// already returned — the write's AdvanceWatermark release CAS, made before
// it returns, pairs with the acquire load in OpenSnapshot. A stale watermark would
// make the pinned snapshot silently exclude the freshest committed rows.
TEST_P(ParallelScanTest, WatermarkPublicationCoversCompletedWrites) {
  Loaded l = BuildLoadedEngine(GetParam(), /*seed=*/43, /*num_ops=*/200);
  SessionConfig cfg;
  cfg.scan_threads = 4;
  SessionManager server(l.engine.get(), cfg);

  std::atomic<int64_t> last_committed{0};
  std::atomic<bool> done{false};
  std::thread observer([&] {
    int64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      SessionManager::Snapshot snap = server.OpenSnapshot();
      // Monotone: published watermarks never move backwards.
      EXPECT_GE(snap.watermark, prev);
      prev = snap.watermark;
      std::this_thread::yield();
    }
  });

  int64_t next_key = 100000;
  for (int i = 0; i < 50; ++i) {
    const int64_t id = next_key++;
    Status st = server.Write([&](TemporalEngine& e) {
      return e.Insert("ITEM", Row{Value(id), Value(1.0), Value("w"),
                                  Value(int64_t{0}),
                                  Value(Period::kForever)});
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    const int64_t committed = l.engine->Now().micros();
    last_committed.store(committed);
    // The write has returned, so the very next snapshot must carry a
    // watermark at or past the commit clock the write advanced.
    SessionManager::Snapshot snap = server.OpenSnapshot();
    EXPECT_GE(snap.watermark, committed - 1) << "write " << i;
  }
  done.store(true, std::memory_order_release);
  observer.join();
}

// Reads through the session layer must be byte-identical whether the
// manager runs them serial or parallel (the pinned-snapshot rewrite of
// SYS_TIME_END included).
TEST_P(ParallelScanTest, SessionReadsIdenticalSerialAndParallel) {
  Loaded serial_side = BuildLoadedEngine(GetParam(), /*seed=*/29, 400);
  Loaded parallel_side = BuildLoadedEngine(GetParam(), /*seed=*/29, 400);
  SessionConfig serial_cfg;
  serial_cfg.scan_threads = 1;
  SessionConfig parallel_cfg;
  parallel_cfg.scan_threads = 8;
  SessionManager serial_server(serial_side.engine.get(), serial_cfg);
  SessionManager parallel_server(parallel_side.engine.get(), parallel_cfg);

  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  req.exec.morsel_size = 8;

  std::vector<Row> serial_rows, parallel_rows;
  ASSERT_TRUE(serial_server.Read(req, nullptr, &serial_rows).ok());
  ASSERT_TRUE(parallel_server.Read(req, nullptr, &parallel_rows).ok());
  ExpectIdenticalRows(serial_rows, parallel_rows, GetParam() + "/session");
}

}  // namespace
}  // namespace bih
