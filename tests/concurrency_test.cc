// Tests for the concurrent session layer: cooperative deadlines and
// cancellation inside the engine scan loops, admission control with load
// shedding, pinned-snapshot reads, and a chaos soak that runs readers and
// writers against every engine at once. Run under -DBIH_SANITIZE=thread to
// get the data-race guarantees these tests claim.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "exec/plan.h"
#include "reference_model.h"
#include "server/session.h"

namespace bih {
namespace {

using std::chrono::milliseconds;

// An engine with `n` open ITEM rows, keys 1..n.
std::unique_ptr<TemporalEngine> MakeLoadedEngine(const std::string& letter,
                                                 int n) {
  std::unique_ptr<TemporalEngine> e = MakeEngine(letter);
  EXPECT_TRUE(e->CreateTable(FuzzItemDef()).ok());
  for (int i = 1; i <= n; ++i) {
    Row row{Value(int64_t{i}), Value(double(i)), Value("x"), Value(int64_t{0}),
            Value(Period::kForever)};
    EXPECT_TRUE(e->Insert("ITEM", std::move(row)).ok());
  }
  return e;
}

ScanRequest FullHistoryScan() {
  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  return req;
}

TEST(QueryContextTest, CancelIsStickyAndReported) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.KeepGoing());
  EXPECT_TRUE(ctx.CheckNow().ok());
  ctx.Cancel();
  EXPECT_FALSE(ctx.KeepGoing());
  EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());
  EXPECT_FALSE(ctx.KeepGoing());  // sticky
}

TEST(QueryContextTest, ExpiredDeadlineDetectedByCheckNow) {
  QueryContext ctx(QueryContext::Clock::now() - milliseconds(5));
  EXPECT_EQ(Status::Code::kDeadlineExceeded, ctx.CheckNow().code());
  EXPECT_FALSE(ctx.KeepGoing());
}

TEST(QueryContextTest, CancelAfterDeadlineAttributedToDeadline) {
  // The watchdog cancels overdue queries; the context must report that as
  // a deadline, not a client cancellation.
  QueryContext ctx(QueryContext::Clock::now() - milliseconds(5));
  ctx.Cancel();
  EXPECT_FALSE(ctx.KeepGoing());
  EXPECT_EQ(Status::Code::kDeadlineExceeded, ctx.status().code());
}

TEST(AdmissionTest, ShedsWithRetryHintWhenQueueFull) {
  AdmissionConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queued = 0;
  AdmissionController ac(cfg);
  ASSERT_TRUE(ac.Admit(nullptr).ok());
  Status second = ac.Admit(nullptr);
  EXPECT_EQ(Status::Code::kResourceExhausted, second.code());
  EXPECT_NE(std::string::npos, second.message().find("retry"));
  ac.Release();
  EXPECT_TRUE(ac.Admit(nullptr).ok());
  ac.Release();
  AdmissionController::Stats stats = ac.GetStats();
  EXPECT_EQ(2u, stats.admitted);
  EXPECT_EQ(1u, stats.shed);
  EXPECT_EQ(0, stats.inflight);
}

TEST(AdmissionTest, RetryAfterMsRoundTripsTheConfiguredHint) {
  // The shed status carries "retry after Nms" in its text; RetryAfterMs is
  // the one sanctioned parser, and the recovered value must be exactly the
  // configured retry_after — the network layer forwards it as a structured
  // field, so a drifting format here silently zeroes every client backoff.
  AdmissionConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queued = 0;
  cfg.retry_after = milliseconds(37);
  AdmissionController ac(cfg);
  ASSERT_TRUE(ac.Admit(nullptr).ok());
  Status shed = ac.Admit(nullptr);
  ASSERT_EQ(Status::Code::kResourceExhausted, shed.code());
  EXPECT_EQ(37u, AdmissionController::RetryAfterMs(shed)) << shed.ToString();
  ac.Release();

  // Any other status — even one whose text happens to contain the marker —
  // yields 0: the parser keys on the code first.
  EXPECT_EQ(0u, AdmissionController::RetryAfterMs(Status::OK()));
  EXPECT_EQ(0u, AdmissionController::RetryAfterMs(
                    Status::Internal("please retry after 99ms")));
  // A kResourceExhausted without the marker parses as "no hint".
  EXPECT_EQ(0u, AdmissionController::RetryAfterMs(
                    Status::ResourceExhausted("queue full")));
}

TEST(AdmissionTest, QueuedWaiterAbandonsOnDeadline) {
  AdmissionConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queued = 4;
  AdmissionController ac(cfg);
  ASSERT_TRUE(ac.Admit(nullptr).ok());  // occupy the only slot
  QueryContext ctx(QueryContext::Clock::now() + milliseconds(20));
  Status st = ac.Admit(&ctx);  // queues, then gives up at the deadline
  EXPECT_EQ(Status::Code::kDeadlineExceeded, st.code());
  ac.Release();
  EXPECT_EQ(1u, ac.GetStats().abandoned_queued);
}

class PerEngineTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Engines, PerEngineTest,
                         ::testing::ValuesIn(AllEngineLetters()));

TEST_P(PerEngineTest, ScanStopsPromptlyOnCancel) {
  std::unique_ptr<TemporalEngine> e = MakeLoadedEngine(GetParam(), 200);
  QueryContext ctx;
  ScanRequest req = FullHistoryScan();
  req.ctx = &ctx;
  std::vector<Row> got;
  e->Scan(req, [&](const Row& row) {
    got.push_back(row);
    if (got.size() == 3) ctx.Cancel();
    return true;
  });
  // The cancel is observed at the very next per-row check.
  EXPECT_EQ(3u, got.size());
  EXPECT_EQ(Status::Code::kCancelled, ctx.status().code());
  // An interrupted read leaves the engine untouched and usable.
  ScanRequest again = FullHistoryScan();
  size_t full = 0;
  e->Scan(again, [&](const Row&) {
    ++full;
    return true;
  });
  EXPECT_EQ(200u, full);
}

TEST_P(PerEngineTest, ScanStopsOnExpiredDeadline) {
  std::unique_ptr<TemporalEngine> e = MakeLoadedEngine(GetParam(), 200);
  QueryContext ctx(QueryContext::Clock::now() - milliseconds(1));
  ScanRequest req = FullHistoryScan();
  req.ctx = &ctx;
  size_t emitted = 0;
  e->Scan(req, [&](const Row&) {
    ++emitted;
    return true;
  });
  // The clock is only sampled every kClockCheckInterval rows, so a bounded
  // prefix may be emitted before the deadline is noticed.
  EXPECT_LT(emitted, 200u);
  EXPECT_EQ(Status::Code::kDeadlineExceeded, ctx.status().code());
}

TEST_P(PerEngineTest, SnapshotReadsAreRepeatable) {
  SessionManager server(MakeLoadedEngine(GetParam(), 50));
  SessionManager::Snapshot snap = server.OpenSnapshot();
  std::vector<Row> before;
  ASSERT_TRUE(server.ReadAt(snap, FullHistoryScan(), nullptr, &before).ok());
  ASSERT_EQ(50u, before.size());

  // Concurrent-era writes: close half the versions, add new keys.
  for (int i = 1; i <= 25; ++i) {
    ASSERT_TRUE(server
                    .UpdateCurrent("ITEM", {Value(int64_t{i})},
                                   {{1, Value(double(1000 + i))}})
                    .ok());
  }
  ASSERT_TRUE(server.DeleteCurrent("ITEM", {Value(int64_t{50})}).ok());

  // The pinned snapshot still answers exactly as before the writes, down to
  // the system-time columns of versions those writes closed.
  std::vector<Row> after;
  ASSERT_TRUE(server.ReadAt(snap, FullHistoryScan(), nullptr, &after).ok());
  std::vector<Row> a = Canonical(std::move(before));
  std::vector<Row> b = Canonical(std::move(after));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t c = 0; c < a[i].size(); ++c) {
      ASSERT_EQ(0, a[i][c].Compare(b[i][c])) << "row " << i << " col " << c;
    }
  }

  // A fresh snapshot sees the new state: 25 closed versions re-inserted
  // plus the delete; current count is 49.
  ScanRequest current;
  current.table = "ITEM";
  std::vector<Row> now;
  ASSERT_TRUE(server.Read(current, nullptr, &now).ok());
  EXPECT_EQ(49u, now.size());
}

TEST(SessionTest, ExpiredDeadlineRejectedBeforeAdmission) {
  SessionManager server(MakeLoadedEngine("A", 10));
  QueryContext ctx(QueryContext::Clock::now() - milliseconds(1));
  std::vector<Row> rows;
  Status st = server.Read(FullHistoryScan(), &ctx, &rows);
  EXPECT_EQ(Status::Code::kDeadlineExceeded, st.code());
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(1u, server.GetStats().reads_deadline);
  EXPECT_EQ(0u, server.GetStats().admission.admitted);
}

TEST(SessionTest, ReaderBlockedBehindLongWriteHonoursDeadline) {
  SessionConfig cfg;
  cfg.watchdog_period = milliseconds(1);
  SessionManager server(MakeLoadedEngine("A", 10), cfg);
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    Status wst = server.Write([&](TemporalEngine&) {
      writer_in.store(true);
      std::this_thread::sleep_for(milliseconds(80));
      return Status::OK();
    });
    EXPECT_TRUE(wst.ok()) << wst.ToString();
  });
  while (!writer_in.load()) std::this_thread::yield();
  QueryContext ctx(QueryContext::Clock::now() + milliseconds(10));
  std::vector<Row> rows;
  Status st = server.Read(FullHistoryScan(), &ctx, &rows);
  EXPECT_EQ(Status::Code::kDeadlineExceeded, st.code());
  EXPECT_TRUE(rows.empty());
  writer.join();
}

TEST(SessionTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  SessionConfig cfg;
  cfg.admission.max_inflight = 1;
  cfg.admission.max_queued = 1;
  SessionManager server(MakeLoadedEngine("A", 10), cfg);
  // A long write keeps the one admitted reader blocked, so the arrival wave
  // piles onto the bounded queue and everything beyond it must shed.
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    Status wst = server.Write([&](TemporalEngine&) {
      writer_in.store(true);
      std::this_thread::sleep_for(milliseconds(100));
      return Status::OK();
    });
    EXPECT_TRUE(wst.ok()) << wst.ToString();
  });
  while (!writer_in.load()) std::this_thread::yield();

  const int kReaders = 8;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      std::vector<Row> rows;
      Status st = server.Read(FullHistoryScan(), nullptr, &rows);
      if (st.ok()) {
        ++ok;
      } else if (st.code() == Status::Code::kResourceExhausted) {
        ++shed;
        EXPECT_TRUE(rows.empty());
      } else {
        ++other;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  writer.join();
  // With one slot and one queue entry occupied for the write's duration,
  // most of the wave is shed; nothing hangs or dies with a surprise code.
  EXPECT_EQ(0, other.load());
  EXPECT_GE(shed.load(), 1);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(kReaders, ok.load() + shed.load());
  EXPECT_EQ(static_cast<uint64_t>(shed.load()),
            server.GetStats().admission.shed);
}

// Every counter of every node of `plan`, in pre-order.
std::string NodeCounters(const PlanNode& plan) {
  const ExecStats& s = plan.stats.scan;
  std::string out = std::string(plan.KindName()) + " out=" +
                    std::to_string(plan.stats.rows_output) +
                    " examined=" + std::to_string(s.rows_examined) +
                    " emitted=" + std::to_string(s.rows_output) +
                    " partitions=" + std::to_string(s.partitions_touched) +
                    " index=" + (s.used_index ? s.index_name : "-") +
                    " history=" + (s.touched_history ? "y" : "n") + "\n";
  for (const PlanPtr& child : plan.children) out += NodeCounters(*child);
  return out;
}

// Readers sharing one session run different plans through ReadTxn, as
// EXPLAIN does over the wire. Each node's counters describe its own query's
// scans, so every run must report exactly what its serial run reported.
TEST_P(PerEngineTest, PlanCountersArePerQueryUnderConcurrentReaders) {
  SessionManager server(MakeLoadedEngine(GetParam(), 200));
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(server
                    .UpdateCurrent("ITEM", {Value(int64_t{i})},
                                   {{1, Value(double(1000 + i))}})
                    .ok());
  }
  auto make_plan = [](int which) -> PlanPtr {
    if (which == 0) return ScanPlan(FullHistoryScan());
    if (which == 1) {
      ScanRequest key;
      key.table = "ITEM";
      key.equals = {{0, Value(int64_t{7})}};
      return ScanPlan(std::move(key));
    }
    Rows keys{{Value(int64_t{3})}, {Value(int64_t{120})},
              {Value(int64_t{999})}};
    return IndexJoinPlan(ValuesPlan(std::move(keys)), {0}, "ITEM", {0},
                         TemporalScanSpec::Current());
  };
  auto run = [&server](const PlanNode& plan, Rows* out) {
    QueryContext ctx;
    return server.ReadTxn(&ctx, [&](TemporalEngine& eng) {
      out->clear();
      return Execute(plan, eng, ExecOptions{}, &ctx, out);
    });
  };

  constexpr int kPlans = 3;
  std::vector<std::string> serial(kPlans);
  std::vector<size_t> serial_rows(kPlans);
  for (int p = 0; p < kPlans; ++p) {
    PlanPtr plan = make_plan(p);
    Rows rows;
    ASSERT_TRUE(run(*plan, &rows).ok());
    serial[p] = NodeCounters(*plan);
    serial_rows[p] = rows.size();
    // The full-history scan reads all 200 + 50 versions.
    if (p == 0) EXPECT_EQ(250u, plan->stats.scan.rows_examined);
  }

  constexpr int kThreadsPerPlan = 2;
  constexpr int kIterations = 300;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kPlans * kThreadsPerPlan; ++t) {
    readers.emplace_back([&, p = t % kPlans] {
      PlanPtr plan = make_plan(p);
      Rows rows;
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIterations; ++i) {
        Status st = run(*plan, &rows);
        const std::string got = NodeCounters(*plan);
        if (!st.ok() || rows.size() != serial_rows[p] || got != serial[p]) {
          if (mismatches.fetch_add(1) == 0) {
            ADD_FAILURE() << "plan " << p << " iteration " << i << ": "
                          << st.ToString() << "\nexpected:\n"
                          << serial[p] << "got:\n" << got;
          }
        }
      }
    });
  }
  go.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(0, mismatches.load());
}

// The soak: concurrent readers (random deadlines, self-cancellations,
// snapshot repeatability probes) against writers mutating the same table.
// Every response must be exactly one of the four contracted outcomes, and
// the per-outcome counters must account for every single read issued.
TEST_P(PerEngineTest, ChaosSoak) {
  SessionConfig cfg;
  cfg.admission.max_inflight = 3;
  cfg.admission.max_queued = 3;
  cfg.watchdog_period = milliseconds(2);
  SessionManager server(MakeLoadedEngine(GetParam(), 100), cfg);

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kReadsPerThread = 60;
  constexpr int kWritesPerThread = 40;
  std::atomic<uint64_t> reads_issued{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        if (i % 15 == 14) {
          // Repeatability probe: two reads against one pinned snapshot must
          // agree even while writers churn underneath.
          SessionManager::Snapshot snap = server.OpenSnapshot();
          std::vector<Row> first, second;
          Status s1 = server.ReadAt(snap, FullHistoryScan(), nullptr, &first);
          Status s2 = server.ReadAt(snap, FullHistoryScan(), nullptr, &second);
          reads_issued += 2;
          EXPECT_TRUE(s1.ok() && s2.ok());
          std::vector<Row> a = Canonical(std::move(first));
          std::vector<Row> b = Canonical(std::move(second));
          ASSERT_EQ(a.size(), b.size());
          for (size_t r = 0; r < a.size(); ++r) {
            for (size_t c = 0; c < a[r].size(); ++c) {
              EXPECT_EQ(0, a[r][c].Compare(b[r][c]));
            }
          }
          continue;
        }
        ScanRequest req;
        if (rng.Bernoulli(0.5)) {
          req = FullHistoryScan();
        } else {
          req.table = "ITEM";
          req.equals = {{0, Value(rng.UniformInt(1, 150))}};
        }
        QueryContext ctx =
            rng.Bernoulli(0.5)
                ? QueryContext(QueryContext::Clock::now() +
                               std::chrono::microseconds(
                                   rng.UniformInt(0, 3000)))
                : QueryContext();
        if (rng.Bernoulli(0.1)) ctx.Cancel();
        std::vector<Row> rows;
        Status st = server.Read(req, &ctx, &rows);
        ++reads_issued;
        const bool contracted =
            st.code() == Status::Code::kOk ||
            st.code() == Status::Code::kDeadlineExceeded ||
            st.code() == Status::Code::kCancelled ||
            st.code() == Status::Code::kResourceExhausted;
        EXPECT_TRUE(contracted) << st.ToString();
        if (!st.ok()) {
          EXPECT_TRUE(rows.empty());
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      int64_t next_key = 1000 + t * 1000;
      for (int i = 0; i < kWritesPerThread; ++i) {
        Status st;
        switch (rng.UniformInt(0, 2)) {
          case 0:
            st = server.Insert(
                "ITEM", Row{Value(next_key++), Value(1.0), Value("w"),
                            Value(int64_t{0}), Value(Period::kForever)});
            break;
          case 1:
            st = server.UpdateCurrent(
                "ITEM", {Value(rng.UniformInt(1, 100))},
                {{1, Value(double(rng.UniformInt(1, 999)))}});
            break;
          default:
            st = server.DeleteCurrent("ITEM", {Value(rng.UniformInt(1, 100))});
            break;
        }
        // Deletes may race with each other, so NotFound is legitimate.
        EXPECT_TRUE(st.ok() || st.code() == Status::Code::kNotFound)
            << st.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SessionManager::ServerStats stats = server.GetStats();
  EXPECT_EQ(reads_issued.load(), stats.reads_ok + stats.reads_deadline +
                                     stats.reads_cancelled + stats.reads_shed);
  EXPECT_EQ(static_cast<uint64_t>(kWriters * kWritesPerThread), stats.writes);
  EXPECT_EQ(0, stats.admission.inflight);
  EXPECT_EQ(0, stats.admission.queued);

  // The engine is intact after the storm: a full consistency-bearing read
  // still works and sees every surviving current row.
  ScanRequest current;
  current.table = "ITEM";
  std::vector<Row> rows;
  ASSERT_TRUE(server.Read(current, nullptr, &rows).ok());
  EXPECT_GT(rows.size(), 0u);
}

// --- Watermark contract under concurrent group commit ------------------
//
// The commit-watermark snapshot contract, stated operationally:
//
//   1. A reader that pins watermark w never observes any version created
//      by a commit later than w (no half-applied later batch), and
//      repeated reads at w are byte-identical.
//   2. A write acknowledged BEFORE the reader pinned must be visible at
//      the pinned snapshot (acknowledged implies durable implies
//      watermark-covered).
//   3. Multi-statement writes are atomic at any snapshot: all of a
//      batch's rows are visible or none.
//
// Swept from 1 to 8 writer threads over the sharded group-commit path;
// run under TSan to also prove the watermark handoff is race-free.
class WatermarkContractTest : public ::testing::TestWithParam<int> {};

TEST_P(WatermarkContractTest, PinnedReadersNeverSeePostPinCommits) {
  const int kWriters = GetParam();
  constexpr int kBatchesEach = 60;
  constexpr int kRowsPerBatch = 3;

  std::unique_ptr<TemporalEngine> engine = MakeEngine("A");
  // A WAL makes this the production path: group commit on, watermark
  // published only after the durability ticket is acknowledged.
  const std::string wal_path = ::testing::TempDir() + "/watermark_" +
                               std::to_string(kWriters) + ".wal";
  std::remove(wal_path.c_str());
  ASSERT_TRUE(engine->EnableWal(wal_path).ok());
  ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
  SessionConfig cfg;
  cfg.write_shards = 8;
  SessionManager server(engine.get(), cfg);

  // Acknowledged batch bases, appended only after the session write
  // returned OK. A reader snapshots this list BEFORE pinning: everything
  // in the copy was acknowledged before the pin, so rule 2 applies to it.
  Mutex acked_mu;
  std::vector<int64_t> acked;

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesEach; ++b) {
        const int64_t base =
            1'000'000 * (t + 1) + 10 * static_cast<int64_t>(b);
        Status st = server.WriteKeyed(
            "ITEM", {Value(base)}, [&](TemporalEngine& e) {
              e.Begin();
              for (int j = 0; j < kRowsPerBatch; ++j) {
                Status a = e.Insert(
                    "ITEM", Row{Value(base + j), Value(double(b)),
                                Value(t % 2 == 0 ? "x" : "y"),
                                Value(int64_t(0)), Value(Period::kForever)});
                if (!a.ok()) return a;
              }
              return e.Commit();
            });
        ASSERT_TRUE(st.ok()) << st.ToString();
        MutexLock lock(acked_mu);
        acked.push_back(base);
      }
    });
  }

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(77 * (r + 1));
      while (!writers_done.load(std::memory_order_acquire)) {
        std::vector<int64_t> acked_before_pin;
        {
          MutexLock lock(acked_mu);
          acked_before_pin = acked;
        }
        SessionManager::Snapshot snap = server.OpenSnapshot();

        ScanRequest req = FullHistoryScan();
        std::vector<Row> rows;
        ASSERT_TRUE(server.ReadAt(snap, req, nullptr, &rows).ok());

        std::set<int64_t> seen;
        std::map<int64_t, int> per_batch;
        for (const Row& row : rows) {
          // Rule 1: nothing from after the pin. Every version the read
          // surfaces began at or before the watermark.
          const int64_t sys_from = row[row.size() - 2].AsInt();
          ASSERT_LE(sys_from, snap.watermark)
              << "snapshot at " << snap.watermark
              << " observed a commit from " << sys_from;
          seen.insert(row[0].AsInt());
          per_batch[row[0].AsInt() / 10] += 1;
        }
        // Rule 3: batch atomicity at the snapshot.
        for (const auto& [batch_base, count] : per_batch) {
          ASSERT_EQ(kRowsPerBatch, count)
              << "half-applied batch " << batch_base << " at watermark "
              << snap.watermark;
        }
        // Rule 2: acked-before-pin implies visible at the pin.
        for (int64_t base : acked_before_pin) {
          for (int j = 0; j < kRowsPerBatch; ++j) {
            ASSERT_EQ(1u, seen.count(base + j))
                << "acknowledged row " << base + j
                << " invisible at watermark " << snap.watermark;
          }
        }
        // Rule 1, determinism half: the same snapshot reads byte-equal.
        if (rng.Bernoulli(0.25)) {
          std::vector<Row> again;
          ASSERT_TRUE(server.ReadAt(snap, req, nullptr, &again).ok());
          std::vector<Row> a = Canonical(rows);
          std::vector<Row> b = Canonical(std::move(again));
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            for (size_t c = 0; c < a[i].size(); ++c) {
              ASSERT_EQ(0, a[i][c].Compare(b[i][c]))
                  << "same-snapshot reread diverged at row " << i;
            }
          }
        }
      }
    });
  }

  for (std::thread& w : writers) w.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Final coverage: everything acked, nothing torn, watermark at the top.
  std::vector<Row> rows;
  ScanRequest req = FullHistoryScan();
  ASSERT_TRUE(server.Read(req, nullptr, &rows).ok());
  EXPECT_EQ(static_cast<size_t>(kWriters) * kBatchesEach * kRowsPerBatch,
            rows.size());
}

INSTANTIATE_TEST_SUITE_P(WriterSweep, WatermarkContractTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace bih
