// Deterministic crash-point chaos sweep (the checkpointing PR's headline
// property). A fixed operation sequence runs through a WAL-attached engine
// with periodic checkpoints while the fault injector kills the process
// model at a chosen crash point: the Nth commit fdatasync, the Nth group
// flush, the Nth checkpoint frame, the Nth segment rotation, or the
// checkpoint rename.
// After every injected crash the log+checkpoint pair is recovered into a
// fresh engine, whose full bitemporal dump must be byte-identical to SOME
// PREFIX of the attempted operation sequence — and at least the prefix the
// writer acknowledged as durable. Runs against all four architectures.
//
// Also covered here: recovery replays only log-since-checkpoint (bounded
// replay), a torn published checkpoint is ignored in favour of full log
// replay, and the session layer degrades to read-only (kUnavailable writes,
// live snapshot reads) when the WAL dies.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "durability/checkpoint.h"
#include "engine/recovery.h"
#include "server/session.h"
#include "temporal/clock.h"
#include "reference_model.h"

namespace bih {
namespace {

// One engine-neutral mutation of the driven sequence. The chaos sweep
// sticks to current-time DML: the crash surface under test is the
// durability machinery, not the sequenced planners (engine_fuzz_test and
// crash_recovery_test already sweep those).
struct ChaosStep {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  Row row;                              // kInsert
  int64_t id = 0;                       // kUpdate / kDelete
  std::vector<ColumnAssignment> set;    // kUpdate
};

// Deterministic sequence from a tiny LCG; ~half inserts, the rest updates
// and deletes of live keys.
std::vector<ChaosStep> MakeChaosSteps(uint64_t seed, int n) {
  uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&h]() {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    return h >> 33;
  };
  std::vector<ChaosStep> steps;
  std::vector<int64_t> live;
  int64_t next_key = 1;
  for (int i = 0; i < n; ++i) {
    ChaosStep s;
    const uint64_t r = next() % 10;
    if (r < 5 || live.empty()) {
      const int64_t id = next_key++;
      const int64_t vb = static_cast<int64_t>(next() % 300);
      const int64_t ve = next() % 10 < 3
                             ? Period::kForever
                             : vb + 1 + static_cast<int64_t>(next() % 200);
      s.kind = ChaosStep::Kind::kInsert;
      s.row = Row{Value(id), Value(double(1 + next() % 1000)),
                  Value(next() % 2 == 0 ? "x" : "y"), Value(vb), Value(ve)};
      live.push_back(id);
    } else if (r < 8) {
      s.kind = ChaosStep::Kind::kUpdate;
      s.id = live[next() % live.size()];
      s.set = {{1, Value(double(1 + next() % 1000))}};
    } else {
      const size_t pick = next() % live.size();
      s.kind = ChaosStep::Kind::kDelete;
      s.id = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
    }
    steps.push_back(std::move(s));
  }
  return steps;
}

Status ApplyChaosStep(TemporalEngine& e, const ChaosStep& s) {
  switch (s.kind) {
    case ChaosStep::Kind::kInsert:
      return e.Insert("ITEM", s.row);
    case ChaosStep::Kind::kUpdate:
      return e.UpdateCurrent("ITEM", {Value(s.id)}, s.set);
    case ChaosStep::Kind::kDelete:
      return e.DeleteCurrent("ITEM", {Value(s.id)});
  }
  return Status::Internal("unreachable");
}

// Applies `s` to the reference model iff it would succeed; returns whether
// it mutates state (mirrors the engine's OK-vs-NotFound contract).
bool ApplyToModel(Model* m, const ChaosStep& s, int64_t ts) {
  switch (s.kind) {
    case ChaosStep::Kind::kInsert: {
      Row user = s.row;
      m->Insert(std::move(user), ts);
      return true;
    }
    case ChaosStep::Kind::kUpdate:
      return m->UpdateCurrent(s.id, s.set, ts);
    case ChaosStep::Kind::kDelete:
      return m->DeleteCurrent(s.id, ts);
  }
  return false;
}

std::vector<Row> DumpModel(const Model& m) {
  TemporalScanSpec all;
  all.system_time = TemporalSelector::All();
  all.app_time = TemporalSelector::All();
  return Canonical(m.Query(all, /*now=*/0, /*key=*/-1));
}

std::vector<Row> DumpEngine(TemporalEngine& e) {
  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  std::vector<Row> rows;
  e.Scan(req, [&](const Row& r) {
    rows.push_back(r);
    return true;
  });
  return Canonical(std::move(rows));
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

// A log path for `tag`, cleared of the segments and checkpoint an earlier
// run left there: recovery must only ever see this run's files.
std::string TmpWal(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/chaos_" + tag + ".wal";
  EXPECT_TRUE(RemoveWalSegmentsBefore(path, UINT64_MAX).ok());
  std::remove(Checkpointer::CheckpointPath(path).c_str());
  return path;
}

// One injected-crash scenario: drive `steps` with a checkpoint every
// `ckpt_every` ops until the injector kills the run (or the sequence ends).
struct ScenarioResult {
  // Canonical dump after each state-changing attempted op; [0] is the
  // empty table. The durable state after any crash must equal one of
  // these — that is the prefix-consistency contract.
  std::vector<std::vector<Row>> prefixes;
  size_t acked = 0;  // index of the last prefix the writer acknowledged
  bool crashed = false;
  uint64_t checkpoints_ok = 0;
  uint64_t wal_records = 0;  // records the writer accepted before the crash
};

ScenarioResult RunScenario(const std::string& letter,
                           const std::string& wal_path, FaultInjector* fi,
                           const std::vector<ChaosStep>& steps,
                           int ckpt_every) {
  ScenarioResult rr;
  auto engine = MakeEngine(letter);
  EXPECT_TRUE(engine->EnableWal(wal_path, fi).ok());
  Model model;
  rr.prefixes.push_back(DumpModel(model));

  Status st = engine->CreateTable(FuzzItemDef());
  if (!st.ok()) {
    rr.crashed = true;
    rr.wal_records = engine->wal()->records_written();
    return rr;
  }

  Checkpointer cp(wal_path, fi);
  CommitClock model_clock;
  int since_ckpt = 0;
  for (const ChaosStep& s : steps) {
    const int64_t ts = model_clock.NextCommit().micros();
    st = ApplyChaosStep(*engine, s);
    const bool mutated = ApplyToModel(&model, s, ts);
    if (mutated) rr.prefixes.push_back(DumpModel(model));
    if (st.ok()) {
      EXPECT_TRUE(mutated);
      rr.acked = rr.prefixes.size() - 1;
    } else if (st.code() == Status::Code::kIoError) {
      rr.crashed = true;
      break;
    } else {
      EXPECT_EQ(Status::Code::kNotFound, st.code()) << st.ToString();
      EXPECT_FALSE(mutated);
    }
    if (++since_ckpt >= ckpt_every) {
      since_ckpt = 0;
      CheckpointInfo info;
      Status ck = cp.Write(engine.get(), &info);
      if (!ck.ok()) {
        rr.crashed = true;
        break;
      }
      ++rr.checkpoints_ok;
    }
  }
  rr.wal_records = engine->wal()->records_written();
  return rr;
}

// Finds which prefix the recovered state equals; -1 if none.
int MatchPrefix(const ScenarioResult& rr, const std::vector<Row>& got) {
  for (size_t i = rr.prefixes.size(); i-- > 0;) {
    if (SameRows(rr.prefixes[i], got)) return static_cast<int>(i);
  }
  return -1;
}

class ChaosSweepTest : public ::testing::TestWithParam<std::string> {};

struct CrashPlan {
  const char* tag;
  FaultInjector (*make)(uint64_t);
  uint64_t n;
};

TEST_P(ChaosSweepTest, PrefixConsistentAtEveryCrashPoint) {
  const std::string letter = GetParam();
  const int kSteps = 60;
  const int kCkptEvery = 12;  // several checkpoints per run
  const std::vector<ChaosStep> steps = MakeChaosSteps(20260807, kSteps);

  // Crash points: commit-boundary syncs, segment rotations, checkpoint
  // frames, the checkpoint's atomic rename and the group flush between
  // staging and sync — each swept at several deterministic trigger
  // indices. Syncs happen once per auto-commit and once per rotation;
  // group flushes once per auto-commit; rotations/renames once per
  // checkpoint; checkpoint frames accumulate ~3 per checkpoint (def + rows
  // chunk + footer).
  const std::vector<CrashPlan> plans = {
      {"sync", &FaultInjector::FailSyncNth, 1},
      {"sync", &FaultInjector::FailSyncNth, 2},
      {"sync", &FaultInjector::FailSyncNth, 7},
      {"sync", &FaultInjector::FailSyncNth, 14},
      {"sync", &FaultInjector::FailSyncNth, 27},
      {"sync", &FaultInjector::FailSyncNth, 45},
      {"rotate", &FaultInjector::FailRotateNth, 1},
      {"rotate", &FaultInjector::FailRotateNth, 2},
      {"rotate", &FaultInjector::FailRotateNth, 4},
      {"ckpt", &FaultInjector::FailCheckpointNth, 1},
      {"ckpt", &FaultInjector::FailCheckpointNth, 2},
      {"ckpt", &FaultInjector::FailCheckpointNth, 3},
      {"ckpt", &FaultInjector::FailCheckpointNth, 5},
      {"ckpt", &FaultInjector::FailCheckpointNth, 8},
      {"rename", &FaultInjector::TornRenameNth, 1},
      {"rename", &FaultInjector::TornRenameNth, 2},
      {"rename", &FaultInjector::TornRenameNth, 4},
      // Without a session every commit is a group of one: group n is the
      // n-th commit (the DDL first), killed after staging.
      {"group", &FaultInjector::FailGroupFlushNth, 1},
      {"group", &FaultInjector::FailGroupFlushNth, 7},
      {"group", &FaultInjector::FailGroupFlushNth, 27},
  };

  for (const CrashPlan& plan : plans) {
    const std::string tag =
        letter + "_" + plan.tag + "_" + std::to_string(plan.n);
    SCOPED_TRACE(tag);
    FaultInjector fi = plan.make(plan.n);
    const std::string wal_path = TmpWal(tag);
    ScenarioResult rr = RunScenario(letter, wal_path, &fi, steps, kCkptEvery);
    ASSERT_TRUE(rr.crashed) << "plan " << tag << " never triggered";
    ASSERT_TRUE(fi.triggered());

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    Status st = RecoverEngine(letter, wal_path, &recovered, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();

    // Prefix consistency: the recovered state is some prefix of the
    // attempted sequence, and never behind what was acknowledged durable.
    std::vector<Row> got = recovered->HasTable("ITEM")
                               ? DumpEngine(*recovered)
                               : std::vector<Row>();
    const int matched = MatchPrefix(rr, got);
    ASSERT_GE(matched, 0) << "recovered state matches no prefix; "
                          << report.ToString();
    EXPECT_GE(static_cast<size_t>(matched), rr.acked) << report.ToString();

    // Bounded replay: once a checkpoint survived, recovery must load it
    // and replay strictly fewer records than the writer ever logged.
    if (rr.checkpoints_ok > 0) {
      EXPECT_TRUE(report.checkpoint_loaded) << report.ToString();
      EXPECT_GE(report.checkpoint_segments, rr.checkpoints_ok);
      EXPECT_LT(report.records_total, rr.wal_records) << report.ToString();
    }
  }
}

// No-fault baseline: several checkpoints, clean shutdown, recovery replays
// only the records logged after the last checkpoint and reproduces the
// exact final state.
TEST_P(ChaosSweepTest, ReplayIsBoundedByLastCheckpoint) {
  const std::string letter = GetParam();
  const std::string wal_path = TmpWal(letter + "_bounded");
  const std::vector<ChaosStep> steps = MakeChaosSteps(7, 40);

  Model model;
  CommitClock model_clock;
  uint64_t records_after_ckpt = 0;
  {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path).ok());
    ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
    Checkpointer cp(wal_path);
    for (size_t i = 0; i < steps.size(); ++i) {
      const int64_t ts = model_clock.NextCommit().micros();
      Status st = ApplyChaosStep(*engine, steps[i]);
      const bool mutated = ApplyToModel(&model, steps[i], ts);
      ASSERT_EQ(st.ok(), mutated) << st.ToString();
      if (st.ok()) ++records_after_ckpt;
      if (i + 1 == 30) {
        CheckpointInfo info;
        ASSERT_TRUE(cp.Write(engine.get(), &info).ok());
        EXPECT_EQ(1u, info.segments_covered);
        EXPECT_EQ(1u, info.segments_removed);
        EXPECT_GT(info.rows, 0u);
        records_after_ckpt = 0;
      }
    }
    // The checkpoint truncated everything it covers: only the tail
    // segment remains on disk.
    std::vector<WalSegment> segs = ListWalSegments(wal_path);
    ASSERT_EQ(1u, segs.size());
    EXPECT_EQ(2u, segs[0].index);
  }

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  EXPECT_TRUE(report.checkpoint_loaded) << report.ToString();
  EXPECT_EQ(1u, report.checkpoint_segments);
  EXPECT_EQ(1u, report.segments_scanned);
  EXPECT_EQ(records_after_ckpt, report.records_total) << report.ToString();
  EXPECT_FALSE(report.tail_dropped);
  EXPECT_TRUE(SameRows(DumpModel(model), DumpEngine(*recovered)));
  // The JSON rendering carries the same accounting (the CI artifact).
  EXPECT_NE(std::string::npos,
            report.ToJson().find("\"checkpoint_loaded\":true"));
}

// A published checkpoint that later turns out unreadable (bit rot, torn
// device write that fsync lied about) is ignored, not fatal: recovery
// falls back to the full segment chain, which in this scenario still
// exists because the checkpoint was crafted by hand.
TEST_P(ChaosSweepTest, TornPublishedCheckpointIsIgnored) {
  const std::string letter = GetParam();
  const std::string wal_path = TmpWal(letter + "_tornckpt");
  const std::vector<ChaosStep> steps = MakeChaosSteps(11, 24);

  Model model;
  CommitClock model_clock;
  {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path).ok());
    ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
    for (size_t i = 0; i < steps.size(); ++i) {
      const int64_t ts = model_clock.NextCommit().micros();
      Status st = ApplyChaosStep(*engine, steps[i]);
      ASSERT_EQ(st.ok(), ApplyToModel(&model, steps[i], ts));
      if (i + 1 == 12) {
        // A bare rotation (no checkpoint): two segments, nothing removed.
        ASSERT_TRUE(engine->wal()->Rotate().ok());
      }
    }
  }
  // Handcraft a torn checkpoint: valid magic, garbage half-frame.
  const std::string ckpt_path = Checkpointer::CheckpointPath(wal_path);
  {
    std::FILE* f = std::fopen(ckpt_path.c_str(), "wb");
    ASSERT_NE(nullptr, f);
    const std::string magic = WalFileMagic();
    ASSERT_EQ(magic.size(), std::fwrite(magic.data(), 1, magic.size(), f));
    ASSERT_EQ(4u, std::fwrite("oops", 1, 4, f));
    std::fclose(f);
  }

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_FALSE(report.checkpoint_ignored_reason.empty()) << report.ToString();
  EXPECT_EQ(2u, report.segments_scanned);
  EXPECT_TRUE(SameRows(DumpModel(model), DumpEngine(*recovered)));
}

// When the WAL dies mid-service the session manager flips to read-only:
// writes get kUnavailable with a retry hint, snapshot reads keep serving.
TEST_P(ChaosSweepTest, DeadWalDegradesSessionToReadOnly) {
  const std::string letter = GetParam();
  // Sync 1 is the CREATE TABLE's group; the injected failure lands on the
  // 5th commit sync = the 4th insert.
  FaultInjector fi = FaultInjector::FailSyncNth(5);
  auto engine = MakeEngine(letter);
  ASSERT_TRUE(engine->EnableWal(TmpWal(letter + "_degrade"), &fi).ok());

  SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  SessionManager mgr(engine.get(), cfg);
  ASSERT_TRUE(mgr.Write([](TemporalEngine& e) {
                   return e.CreateTable(FuzzItemDef());
                 }).ok());

  int accepted = 0;
  Status death = Status::OK();
  for (int i = 1; i <= 10; ++i) {
    Status st = mgr.Insert("ITEM", Row{Value(int64_t(i)), Value(1.0),
                                       Value("x"), Value(int64_t(0)),
                                       Value(Period::kForever)});
    if (!st.ok()) {
      death = st;
      break;
    }
    ++accepted;
  }
  // The 4th insert hits the injected sync failure after retries exhaust.
  ASSERT_EQ(Status::Code::kIoError, death.code()) << death.ToString();
  ASSERT_EQ(3, accepted);
  ASSERT_TRUE(mgr.read_only());

  // Writes are now rejected with the retry-hint-carrying kUnavailable…
  Status rejected = mgr.Insert("ITEM", Row{Value(int64_t(99)), Value(1.0),
                                           Value("x"), Value(int64_t(0)),
                                           Value(Period::kForever)});
  EXPECT_EQ(Status::Code::kUnavailable, rejected.code());
  EXPECT_FALSE(rejected.retry_hint().empty()) << rejected.ToString();

  // …while reads keep serving the pinned snapshot. Every insert the engine
  // applied in memory (the acknowledged three plus the one whose log write
  // died) is visible; what matters is that reads still succeed at all.
  std::vector<Row> rows;
  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  ASSERT_TRUE(mgr.Read(req, nullptr, &rows).ok());
  EXPECT_GE(rows.size(), static_cast<size_t>(accepted));

  SessionManager::ServerStats stats = mgr.GetStats();
  EXPECT_EQ(1u, stats.writes_unavailable);
  EXPECT_GE(stats.reads_ok, 1u);
}

// A WAL attached after the session was built is group-committed like any
// other: the write waits on the engine's coordinator after the lock is
// released, so a killed group flush fails the write, degrades the session
// and never lets the commit reach a pinned read.
TEST_P(ChaosSweepTest, WalAttachedAfterSessionIsGroupCommitted) {
  const std::string letter = GetParam();
  auto engine = MakeEngine(letter);
  ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
  SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  SessionManager mgr(engine.get(), cfg);

  FaultInjector fi = FaultInjector::FailGroupFlushNth(1);
  ASSERT_TRUE(mgr.engine().EnableWal(TmpWal(letter + "_late"), &fi).ok());
  Status st = mgr.Insert("ITEM", Row{Value(int64_t(1)), Value(1.0), Value("x"),
                                     Value(int64_t(0)),
                                     Value(Period::kForever)});
  EXPECT_EQ(Status::Code::kIoError, st.code()) << st.ToString();
  EXPECT_TRUE(fi.triggered());
  EXPECT_TRUE(mgr.read_only());

  std::vector<Row> rows;
  ScanRequest req;
  req.table = "ITEM";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  ASSERT_TRUE(mgr.Read(req, nullptr, &rows).ok());
  EXPECT_TRUE(rows.empty()) << "an unacknowledged commit became visible";
}

// The revive path: a session degraded by a dead WAL comes back to
// writable WITHOUT a process restart. RunCheckpoint opens a fresh writer
// at the segment after the dead one, folds the whole in-memory state into
// a checkpoint covering every earlier segment (superseding whatever
// suffix the dead segment lost), and only then re-enables writes. The
// combined state — pre-death writes, revive checkpoint, post-revive
// writes — must recover from disk bit-for-bit.
TEST_P(ChaosSweepTest, CheckpointRevivesDegradedSessionWithoutRestart) {
  const std::string letter = GetParam();
  const std::string wal_path = TmpWal(letter + "_revive");
  FaultInjector fi = FaultInjector::FailSyncNth(5);
  auto engine = MakeEngine(letter);
  ASSERT_TRUE(engine->EnableWal(wal_path, &fi).ok());

  SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  SessionManager mgr(engine.get(), cfg);
  ASSERT_TRUE(mgr.Write([](TemporalEngine& e) {
                   return e.CreateTable(FuzzItemDef());
                 }).ok());
  for (int i = 1; i <= 10; ++i) {
    Status st = mgr.Insert("ITEM", Row{Value(int64_t(i)), Value(1.0),
                                       Value("x"), Value(int64_t(0)),
                                       Value(Period::kForever)});
    if (!st.ok()) break;
  }
  ASSERT_TRUE(mgr.read_only());

  // RunCheckpoint IS the revive: fresh writer + superseding checkpoint.
  Checkpointer cp(wal_path);
  CheckpointInfo info;
  ASSERT_TRUE(mgr.RunCheckpoint(&cp, &info).ok());
  EXPECT_FALSE(mgr.read_only());

  // Writes work again, on the same process, same manager.
  for (int i = 50; i < 53; ++i) {
    ASSERT_TRUE(mgr.Insert("ITEM", Row{Value(int64_t(i)), Value(2.0),
                                       Value("y"), Value(int64_t(0)),
                                       Value(Period::kForever)})
                    .ok());
  }
  // Recovery from the on-disk pair lands exactly on what the live engine
  // holds: the checkpoint covered the in-memory superset, the fresh
  // segment replays the post-revive writes, the dead suffix is gone.
  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  EXPECT_TRUE(report.checkpoint_loaded) << report.ToString();
  EXPECT_TRUE(SameRows(DumpEngine(mgr.engine()), DumpEngine(*recovered)));
}

// Checkpointing through the session layer: RunCheckpoint holds the writer
// lock, so the snapshot is consistent; afterwards writes continue and
// recovery reproduces the combined state.
TEST_P(ChaosSweepTest, SessionCheckpointThenRecover) {
  const std::string letter = GetParam();
  const std::string wal_path = TmpWal(letter + "_sessionckpt");
  auto engine = MakeEngine(letter);
  ASSERT_TRUE(engine->EnableWal(wal_path).ok());

  SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  SessionManager mgr(engine.get(), cfg);
  ASSERT_TRUE(mgr.Write([](TemporalEngine& e) {
                   return e.CreateTable(FuzzItemDef());
                 }).ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(mgr.Insert("ITEM", Row{Value(int64_t(i)), Value(double(i)),
                                       Value("a"), Value(int64_t(0)),
                                       Value(Period::kForever)})
                    .ok());
  }
  Checkpointer cp(wal_path);
  CheckpointInfo info;
  ASSERT_TRUE(mgr.RunCheckpoint(&cp, &info).ok());
  EXPECT_FALSE(mgr.read_only());
  for (int i = 7; i <= 9; ++i) {
    ASSERT_TRUE(mgr.Insert("ITEM", Row{Value(int64_t(i)), Value(double(i)),
                                       Value("b"), Value(int64_t(0)),
                                       Value(Period::kForever)})
                    .ok());
  }

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(3u, report.records_total) << report.ToString();
  EXPECT_TRUE(SameRows(DumpEngine(mgr.engine()), DumpEngine(*recovered)));
}

// --- Torn-group-commit sweep ------------------------------------------
//
// The group-commit write path adds new places to die: after a batch's
// records are staged (fflushed) but before the batched fdatasync, at the
// batched fdatasync itself, and torn mid-record inside a group's frames.
// Each transaction here is a Begin/Commit batch of three DMLs pushed
// through the session's group path, so a crash must lose or keep whole
// transactions — never a partial batch.

// Deterministic batched scripts: every batch is two inserts plus one
// update of a key committed in an EARLIER batch (so every statement in a
// batch succeeds, and no key is touched twice at one commit timestamp).
std::vector<std::vector<ChaosStep>> MakeGroupBatches(uint64_t seed,
                                                     int nbatches) {
  uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&h]() {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    return h >> 33;
  };
  std::vector<std::vector<ChaosStep>> batches;
  std::vector<int64_t> committed;
  int64_t next_key = 1;
  for (int b = 0; b < nbatches; ++b) {
    std::vector<ChaosStep> batch;
    std::vector<int64_t> fresh;
    for (int j = 0; j < 2; ++j) {
      ChaosStep s;
      const int64_t id = next_key++;
      const int64_t vb = static_cast<int64_t>(next() % 300);
      s.kind = ChaosStep::Kind::kInsert;
      s.row = Row{Value(id), Value(double(1 + next() % 1000)),
                  Value(next() % 2 == 0 ? "x" : "y"), Value(vb),
                  Value(Period::kForever)};
      fresh.push_back(id);
      batch.push_back(std::move(s));
    }
    ChaosStep third;
    if (committed.empty()) {
      const int64_t id = next_key++;
      third.kind = ChaosStep::Kind::kInsert;
      third.row = Row{Value(id), Value(double(1 + next() % 1000)), Value("z"),
                      Value(int64_t(0)), Value(Period::kForever)};
      fresh.push_back(id);
    } else {
      third.kind = ChaosStep::Kind::kUpdate;
      third.id = committed[next() % committed.size()];
      third.set = {{1, Value(double(1 + next() % 1000))}};
    }
    batch.push_back(std::move(third));
    batches.push_back(std::move(batch));
    committed.insert(committed.end(), fresh.begin(), fresh.end());
  }
  return batches;
}

struct GroupRun {
  // Canonical model dump after each committed batch; [0] is empty. The
  // extra entry pushed for the dying batch covers the case where its
  // records reached the OS file before the injected sync failure.
  std::vector<std::vector<Row>> prefixes;
  size_t acked = 0;  // last prefix whose batch was acknowledged durable
  bool crashed = false;
};

GroupRun RunGroupScenario(const std::string& letter,
                          const std::string& wal_path, FaultInjector* fi,
                          const std::vector<std::vector<ChaosStep>>& batches) {
  GroupRun rr;
  Model model;
  rr.prefixes.push_back(DumpModel(model));
  auto engine = MakeEngine(letter);
  EXPECT_TRUE(engine->EnableWal(wal_path, fi).ok());
  Status st = engine->CreateTable(FuzzItemDef());
  if (!st.ok()) {
    rr.crashed = true;
    return rr;
  }
  SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  cfg.write_shards = 4;  // the WAL is attached: group commit is armed
  SessionManager mgr(engine.get(), cfg);
  CommitClock model_clock;
  for (const std::vector<ChaosStep>& batch : batches) {
    const int64_t ts = model_clock.NextCommit().micros();
    Status ws = mgr.Write([&](TemporalEngine& e) {
      e.Begin();
      for (const ChaosStep& s : batch) {
        Status a = ApplyChaosStep(e, s);
        if (!a.ok()) return a;
      }
      return e.Commit();
    });
    if (ws.ok()) {
      for (const ChaosStep& s : batch) ApplyToModel(&model, s, ts);
      rr.prefixes.push_back(DumpModel(model));
      rr.acked = rr.prefixes.size() - 1;
      continue;
    }
    EXPECT_TRUE(ws.code() == Status::Code::kIoError ||
                ws.code() == Status::Code::kUnavailable)
        << ws.ToString();
    rr.crashed = true;
    if (ws.code() == Status::Code::kIoError) {
      // The batch committed in memory and its records may have reached the
      // OS file before the device sync was killed; recovery is allowed to
      // surface it — whole, or not at all.
      for (const ChaosStep& s : batch) ApplyToModel(&model, s, ts);
      rr.prefixes.push_back(DumpModel(model));
    }
    break;
  }
  return rr;
}

int MatchGroupPrefix(const GroupRun& rr, const std::vector<Row>& got) {
  for (size_t i = rr.prefixes.size(); i-- > 0;) {
    if (SameRows(rr.prefixes[i], got)) return static_cast<int>(i);
  }
  return -1;
}

TEST_P(ChaosSweepTest, TornGroupCommitRecoversWholeTransactionsOnly) {
  const std::string letter = GetParam();
  const int kBatches = 30;
  const std::vector<std::vector<ChaosStep>> batches =
      MakeGroupBatches(20260808, kBatches);

  struct GroupPlan {
    const char* tag;
    FaultInjector fi;
    size_t acked;  // batches acknowledged before the crash point
  };
  // The DDL before the session exists is group 1 and sync 1 (a group of
  // one); each batch then costs one group flush and one sync, and appends
  // four records (three statements + the commit marker) after the DDL's
  // one. Pinning `acked` keeps each plan killing the batch it was chosen
  // for.
  const std::vector<GroupPlan> plans = {
      // Before the batched fsync: staged, flushed, never synced.
      {"group", FaultInjector::FailGroupFlushNth(2), 0},
      {"group", FaultInjector::FailGroupFlushNth(3), 1},
      {"group", FaultInjector::FailGroupFlushNth(8), 6},
      {"group", FaultInjector::FailGroupFlushNth(20), 18},
      // At the batched fsync itself.
      {"sync", FaultInjector::FailSyncNth(2), 0},
      {"sync", FaultInjector::FailSyncNth(3), 1},
      {"sync", FaultInjector::FailSyncNth(11), 9},
      {"sync", FaultInjector::FailSyncNth(25), 23},
      // Torn mid-record inside a group's frames: the batch's commit marker
      // never lands, so recovery must drop the whole transaction.
      {"torn", FaultInjector::TornNth(3, 0), 0},
      {"torn", FaultInjector::TornNth(8, 5), 1},
      {"torn", FaultInjector::TornNth(14, 9), 3},
      {"torn", FaultInjector::TornNth(27, 13), 6},
      {"torn", FaultInjector::TornNth(61, 7), 14},
  };

  for (size_t p = 0; p < plans.size(); ++p) {
    const std::string tag = letter + "_g" + plans[p].tag + std::to_string(p);
    SCOPED_TRACE(tag);
    FaultInjector fi = plans[p].fi;
    const std::string wal_path = TmpWal(tag);
    GroupRun rr = RunGroupScenario(letter, wal_path, &fi, batches);
    ASSERT_TRUE(rr.crashed) << "plan never triggered";
    ASSERT_TRUE(fi.triggered());
    // The crash killed batch acked + 1 (its prefix is the last one), never
    // the DDL before the session.
    EXPECT_EQ(plans[p].acked, rr.acked);
    EXPECT_EQ(rr.acked + 2, rr.prefixes.size());

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    Status st = RecoverEngine(letter, wal_path, &recovered, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::vector<Row> got = recovered->HasTable("ITEM")
                               ? DumpEngine(*recovered)
                               : std::vector<Row>();
    const int matched = MatchGroupPrefix(rr, got);
    // Whole transactions only (any matched prefix is batch-aligned), and
    // never behind what the session acknowledged durable.
    ASSERT_GE(matched, 0) << "recovered state is not a per-transaction "
                             "prefix; "
                          << report.ToString();
    EXPECT_GE(static_cast<size_t>(matched), rr.acked) << report.ToString();
  }
}

// Concurrent flavour: four writers push disjoint-key transactions through
// the sharded group path while the injector kills a group mid-flight. The
// interleaving is nondeterministic, so the assertion is the atomicity
// contract itself: after recovery every three-row transaction is present
// in full or absent in full, and every acknowledged one is present.
TEST_P(ChaosSweepTest, ConcurrentGroupCrashLeavesNoPartialTransaction) {
  const std::string letter = GetParam();
  constexpr int kWriters = 4;
  constexpr int kBatchesEach = 40;
  constexpr int kRowsPerBatch = 3;

  // Group 1 is the CREATE TABLE, a group of one before the session.
  for (uint64_t group_n : {4u, 10u, 22u}) {
    const std::string tag =
        letter + "_cgc" + std::to_string(group_n);
    SCOPED_TRACE(tag);
    FaultInjector fi = FaultInjector::FailGroupFlushNth(group_n);
    const std::string wal_path = TmpWal(tag);
    std::vector<std::vector<int>> acked(kWriters);

    {
      auto engine = MakeEngine(letter);
      ASSERT_TRUE(engine->EnableWal(wal_path, &fi).ok());
      ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
      SessionConfig cfg;
      cfg.watchdog_period = std::chrono::milliseconds(0);
      cfg.write_shards = 8;
      SessionManager mgr(engine.get(), cfg);

      std::vector<std::thread> writers;
      for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
          for (int b = 0; b < kBatchesEach; ++b) {
            // Keys encode (writer, batch, row): batch = id / 10.
            const int64_t base =
                1'000'000 * (t + 1) + 10 * static_cast<int64_t>(b);
            Status ws = mgr.WriteKeyed(
                "ITEM", {Value(base)}, [&](TemporalEngine& e) {
                  e.Begin();
                  for (int j = 0; j < kRowsPerBatch; ++j) {
                    Status a = e.Insert(
                        "ITEM",
                        Row{Value(base + j), Value(double(b + 1)),
                            Value(t % 2 == 0 ? "x" : "y"), Value(int64_t(0)),
                            Value(Period::kForever)});
                    if (!a.ok()) return a;
                  }
                  return e.Commit();
                });
            if (ws.ok()) {
              acked[static_cast<size_t>(t)].push_back(b);
            } else {
              // The group died (kIoError for the in-flight batch,
              // kUnavailable once degraded): no later batch can commit.
              break;
            }
          }
        });
      }
      for (std::thread& w : writers) w.join();
      ASSERT_TRUE(fi.triggered()) << "plan never triggered";
      ASSERT_TRUE(mgr.read_only());
    }

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
    // Tally recovered rows per (writer, batch) transaction.
    std::vector<Row> rows = DumpEngine(*recovered);
    std::map<int64_t, int> per_batch;
    for (const Row& r : rows) {
      const int64_t id = r[0].AsInt();
      per_batch[id / 10] += 1;
    }
    for (const auto& [batch, count] : per_batch) {
      EXPECT_EQ(kRowsPerBatch, count)
          << "torn transaction " << batch << ": " << count << " of "
          << kRowsPerBatch << " rows survived";
    }
    for (int t = 0; t < kWriters; ++t) {
      for (int b : acked[static_cast<size_t>(t)]) {
        const int64_t key = (1'000'000 * (t + 1) + 10 * b) / 10;
        EXPECT_EQ(kRowsPerBatch, per_batch[key])
            << "acknowledged transaction lost: writer " << t << " batch "
            << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ChaosSweepTest,
                         ::testing::Values("A", "B", "C", "D"));

}  // namespace
}  // namespace bih
