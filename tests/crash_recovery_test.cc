// Differential crash-recovery sweep (the headline durability property).
//
// A deterministic fuzz-style operation sequence is driven through a
// WAL-attached engine with a fault injected at every k-th physical log
// write — clean write failures and torn mid-record tails both. After the
// "crash" the log is recovered into a fresh engine, which must reproduce
// EXACTLY the reference model's state at the last durable commit: same
// versions, same application periods, same system-time coordinates. Runs
// against all four architectures.
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "durability/group_commit.h"
#include "engine/recovery.h"
#include "temporal/clock.h"

namespace bih {
namespace {

TableDef ItemDef() {
  TableDef def;
  def.name = "ITEM";
  def.schema = Schema({{"ID", ColumnType::kInt},
                       {"PRICE", ColumnType::kDouble},
                       {"NOTE", ColumnType::kString},
                       {"VB", ColumnType::kDate},
                       {"VE", ColumnType::kDate}});
  def.primary_key = {0};
  def.app_periods = {{"VALIDITY", 3, 4}};
  def.system_versioned = true;
  return def;
}

// One engine-neutral step of the driven sequence (a tiny Operation clone,
// kept local so the sweep is self-contained).
struct Step {
  enum class Kind {
    kInsert,
    kUpdateCurrent,
    kUpdateSequenced,
    kUpdateOverwrite,
    kDeleteCurrent,
    kDeleteSequenced,
  };
  Kind kind;
  Row row;
  int64_t id = 0;
  Period window;
  std::vector<ColumnAssignment> set;
};

// Deterministic operation sequence; the same recipe as engine_fuzz_test.
// Updates/deletes only target keys inserted in an earlier batch of
// `batch_size` steps and not yet mutated in the current one: two
// mutations of a key at the same commit timestamp create empty system
// intervals, which the reference model does not define (the benchmark
// history never does this either).
std::vector<Step> MakeSteps(uint64_t seed, int n, size_t batch_size = 1) {
  Rng rng(seed);
  std::vector<Step> steps;
  std::vector<int64_t> keys;     // eligible: committed in an earlier batch
  std::vector<int64_t> pending;  // inserted in the current batch
  std::vector<int64_t> touched;  // mutated in the current batch
  int64_t next_key = 1;
  for (int i = 0; i < n; ++i) {
    if (i % static_cast<int>(batch_size) == 0) {
      keys.insert(keys.end(), pending.begin(), pending.end());
      pending.clear();
      touched.clear();
    }
    std::vector<int64_t> avail;
    for (int64_t k : keys) {
      if (std::find(touched.begin(), touched.end(), k) == touched.end()) {
        avail.push_back(k);
      }
    }
    int choice = static_cast<int>(rng.UniformInt(0, 9));
    Step s;
    if (choice <= 3 || avail.empty()) {
      int64_t id = next_key++;
      int64_t vb = rng.UniformInt(0, 300);
      int64_t ve =
          rng.Bernoulli(0.3) ? Period::kForever : vb + rng.UniformInt(1, 200);
      s.kind = Step::Kind::kInsert;
      s.row = Row{Value(id), Value(double(rng.UniformInt(1, 1000))),
                  Value(rng.Bernoulli(0.5) ? "x" : "y"), Value(vb), Value(ve)};
      pending.push_back(id);
    } else {
      s.id = avail[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(avail.size()) - 1))];
      touched.push_back(s.id);
      s.set = {{1, Value(double(rng.UniformInt(1, 1000)))}};
      int64_t wb = rng.UniformInt(0, 400);
      s.window = Period(wb, rng.Bernoulli(0.3) ? Period::kForever
                                               : wb + rng.UniformInt(1, 150));
      switch (choice) {
        case 4:
        case 5:
          s.kind = Step::Kind::kUpdateCurrent;
          break;
        case 6:
          s.kind = Step::Kind::kUpdateSequenced;
          break;
        case 7:
          s.kind = Step::Kind::kUpdateOverwrite;
          break;
        case 8:
          s.kind = Step::Kind::kDeleteSequenced;
          s.set.clear();
          break;
        default:
          s.kind = Step::Kind::kDeleteCurrent;
          break;
      }
    }
    steps.push_back(std::move(s));
  }
  return steps;
}

Status ApplyStep(TemporalEngine& e, const Step& s) {
  switch (s.kind) {
    case Step::Kind::kInsert:
      return e.Insert("ITEM", s.row);
    case Step::Kind::kUpdateCurrent:
      return e.UpdateCurrent("ITEM", {Value(s.id)}, s.set);
    case Step::Kind::kUpdateSequenced:
      return e.UpdateSequenced("ITEM", {Value(s.id)}, 0, s.window, s.set);
    case Step::Kind::kUpdateOverwrite:
      return e.UpdateOverwrite("ITEM", {Value(s.id)}, 0, s.window, s.set);
    case Step::Kind::kDeleteCurrent:
      return e.DeleteCurrent("ITEM", {Value(s.id)});
    case Step::Kind::kDeleteSequenced:
      return e.DeleteSequenced("ITEM", {Value(s.id)}, 0, s.window);
  }
  return Status::Internal("unreachable");
}

// Reference model: every version ever created, with explicit system time.
// (Same shape as the engine_fuzz_test model, reduced to what the sweep
// needs: full-history dumps.)
class Model {
 public:
  void Apply(const Step& s, int64_t ts) {
    switch (s.kind) {
      case Step::Kind::kInsert:
        versions_.push_back({s.row, ts, Period::kForever});
        return;
      case Step::Kind::kUpdateCurrent: {
        for (size_t i : CurrentOf(s.id)) {
          Row next = versions_[i].row;
          for (const ColumnAssignment& a : s.set) {
            next[static_cast<size_t>(a.column)] = a.value;
          }
          versions_[i].sys_to = ts;
          versions_.push_back({std::move(next), ts, Period::kForever});
        }
        return;
      }
      case Step::Kind::kDeleteCurrent:
        for (size_t i : CurrentOf(s.id)) versions_[i].sys_to = ts;
        return;
      default: {
        std::vector<size_t> cur = CurrentOf(s.id);
        std::vector<Row> rows;
        for (size_t i : cur) rows.push_back(versions_[i].row);
        SequencedOps ops;
        if (s.kind == Step::Kind::kUpdateSequenced) {
          ops = PlanSequencedUpdate(rows, 3, 4, s.window, s.set);
        } else if (s.kind == Step::Kind::kDeleteSequenced) {
          ops = PlanSequencedDelete(rows, 3, 4, s.window);
        } else {
          ops = PlanOverwriteUpdate(rows, 3, 4, s.window, s.set);
        }
        for (size_t vi : ops.to_close) versions_[cur[vi]].sys_to = ts;
        for (Row& r : ops.to_insert) {
          versions_.push_back({std::move(r), ts, Period::kForever});
        }
        return;
      }
    }
  }

  bool WouldSucceed(const Step& s) const {
    return s.kind == Step::Kind::kInsert || !CurrentOf(s.id).empty();
  }

  // Full-history dump in scan-schema order (user cols + system interval).
  std::vector<Row> Dump() const {
    std::vector<Row> out;
    for (const ModelVersion& v : versions_) {
      Row r = v.row;
      r.push_back(Value(v.sys_from));
      r.push_back(Value(v.sys_to));
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  struct ModelVersion {
    Row row;
    int64_t sys_from;
    int64_t sys_to;
  };

  std::vector<size_t> CurrentOf(int64_t id) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < versions_.size(); ++i) {
      if (versions_[i].sys_to == Period::kForever &&
          versions_[i].row[0].AsInt() == id) {
        out.push_back(i);
      }
    }
    return out;
  }

  std::vector<ModelVersion> versions_;
};

std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
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
  return rows;
}

void ExpectSameRows(const std::vector<Row>& expect, const std::vector<Row>& got,
                    const std::string& what) {
  ASSERT_EQ(expect.size(), got.size()) << what;
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].size(), got[i].size()) << what << " row " << i;
    for (size_t c = 0; c < expect[i].size(); ++c) {
      ASSERT_EQ(0, expect[i][c].Compare(got[i][c]))
          << what << " row " << i << " col " << c;
    }
  }
}

std::string TmpWal(const std::string& tag) {
  return ::testing::TempDir() + "/crash_" + tag + ".wal";
}

class CrashSweepTest : public ::testing::TestWithParam<std::string> {};

// Auto-commit mode: every op record is its own durable point, so a crash
// at log write n leaves exactly the first n-1 records (1 DDL + n-2 ops)
// durable. Fault flavours alternate between clean write failures and torn
// tails of varying length as the sweep advances.
TEST_P(CrashSweepTest, RecoveryMatchesModelAtEveryCrashPoint) {
  const std::string letter = GetParam();
  const uint64_t kSeed = 20260805;
  const int kSteps = 120;
  const int kStride = 5;  // crash after every 5th WAL write
  std::vector<Step> steps = MakeSteps(kSeed, kSteps);

  // Reference run (no faults) to learn the log length in records.
  uint64_t total_writes;
  {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(TmpWal(letter + "_ref")).ok());
    ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
    for (const Step& s : steps) {
      Status st = ApplyStep(*engine, s);
      ASSERT_TRUE(st.ok() || st.code() == Status::Code::kNotFound);
    }
    total_writes = engine->wal()->records_written();
  }
  ASSERT_GT(total_writes, 10u);

  for (uint64_t crash = 2; crash <= total_writes; crash += kStride) {
    // Alternate fault flavour along the sweep; torn lengths cycle through
    // 0 (nothing persisted) .. 14 bytes of the failing frame — always less
    // than the smallest frame, so the torn record never survives whole.
    const bool torn = crash % 2 == 0;
    const size_t keep = static_cast<size_t>((crash / 2) % 15);
    FaultInjector fi = torn ? FaultInjector::TornNth(crash, keep)
                            : FaultInjector::FailNth(crash);
    const std::string wal_path = TmpWal(letter + "_" + std::to_string(crash));
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path, &fi).ok());
    ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());

    // Drive until the injected crash; build the model only from mutations
    // that became durable (the clock ticks for every attempt, mirroring
    // the engine's wrapper, so timestamps stay aligned).
    Model model;
    CommitClock model_clock;
    bool crashed = false;
    for (const Step& s : steps) {
      int64_t ts = model_clock.NextCommit().micros();
      Status st = ApplyStep(*engine, s);
      if (st.code() == Status::Code::kIoError) {
        crashed = true;
        break;
      }
      if (st.ok()) {
        model.Apply(s, ts);
      } else {
        ASSERT_EQ(Status::Code::kNotFound, st.code())
            << letter << " crash=" << crash;
        ASSERT_FALSE(model.WouldSucceed(s));
      }
    }
    ASSERT_TRUE(crashed) << letter << " crash=" << crash;

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    Status st = RecoverEngine(letter, wal_path, &recovered, &report);
    ASSERT_TRUE(st.ok()) << st.ToString() << " " << letter
                         << " crash=" << crash;
    // A torn frame leaves garbage bytes behind the salvage point; a clean
    // write failure leaves nothing. Either way every full record survives.
    EXPECT_EQ(crash - 1, report.records_total) << report.ToString();
    EXPECT_EQ(torn && keep > 0, report.tail_dropped) << report.ToString();
    EXPECT_GE(report.bytes_total, report.bytes_salvaged);

    ExpectSameRows(Canonical(model.Dump()),
                   Canonical(DumpEngine(*recovered)),
                   letter + " crash=" + std::to_string(crash));
  }
}

// Batched mode: ops between Begin/Commit share one commit stamp and are
// durable only when the commit marker lands. A crash anywhere in the batch
// flush must roll the whole batch back to the previous commit point.
TEST_P(CrashSweepTest, UncommittedBatchRollsBackAtEveryCrashPoint) {
  const std::string letter = GetParam();
  const uint64_t kSeed = 77;
  const int kSteps = 90;
  const size_t kBatch = 4;
  std::vector<Step> steps = MakeSteps(kSeed, kSteps, kBatch);

  uint64_t total_writes;
  {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(TmpWal(letter + "_bref")).ok());
    ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
    for (size_t i = 0; i < steps.size(); i += kBatch) {
      engine->Begin();
      for (size_t j = i; j < std::min(steps.size(), i + kBatch); ++j) {
        Status st = ApplyStep(*engine, steps[j]);
        ASSERT_TRUE(st.ok() || st.code() == Status::Code::kNotFound);
      }
      ASSERT_TRUE(engine->Commit().ok());
    }
    total_writes = engine->wal()->records_written();
  }

  for (uint64_t crash = 2; crash <= total_writes; crash += 7) {
    FaultInjector fi = crash % 2 == 0
                           ? FaultInjector::TornNth(crash, (crash * 5) % 11)
                           : FaultInjector::FailNth(crash);
    const std::string wal_path = TmpWal(letter + "_b" + std::to_string(crash));
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path, &fi).ok());
    ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());

    Model model;
    CommitClock model_clock;
    bool crashed = false;
    for (size_t i = 0; i < steps.size() && !crashed; i += kBatch) {
      int64_t ts = model_clock.NextCommit().micros();
      engine->Begin();
      std::vector<const Step*> applied;
      for (size_t j = i; j < std::min(steps.size(), i + kBatch); ++j) {
        Status st = ApplyStep(*engine, steps[j]);
        if (st.ok()) applied.push_back(&steps[j]);
      }
      Status st = engine->Commit();
      if (st.code() == Status::Code::kIoError) {
        crashed = true;  // whole batch lost
      } else {
        ASSERT_TRUE(st.ok());
        for (const Step* s : applied) model.Apply(*s, ts);
      }
    }
    ASSERT_TRUE(crashed) << letter << " crash=" << crash;

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    Status st = RecoverEngine(letter, wal_path, &recovered, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectSameRows(Canonical(model.Dump()),
                   Canonical(DumpEngine(*recovered)),
                   letter + " batch crash=" + std::to_string(crash));
  }
}

// Group-boundary regression: transactions staged inside StageCommits (the
// session's write scope) across one shared group flush and across a
// segment rotation must replay with byte-identical state — including
// identical commit timestamps, which the full-history dump carries in its
// system-time columns. This is the recovery contract the group-commit
// write path leans on: deferring the fdatasync reorders *when* records
// become durable, never *what* they say.
TEST_P(CrashSweepTest, GroupBoundaryStagingRecoversIdenticalTimestamps) {
  const std::string letter = GetParam();
  const std::string wal_path = TmpWal(letter + "_group");
  const size_t kBatch = 4;
  std::vector<Step> steps = MakeSteps(131, 16, kBatch);

  Model model;
  CommitClock model_clock;
  {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path).ok());
    ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
    // The engine's coordinator is the only durability point; inside
    // StageCommits, Commit stages and leaves the wait to us.
    std::shared_ptr<GroupCommit> group = engine->group_commit();

    auto run_batch = [&](size_t i) {
      const int64_t ts = model_clock.NextCommit().micros();
      engine->Begin();
      std::vector<const Step*> applied;
      for (size_t j = i; j < std::min(steps.size(), i + kBatch); ++j) {
        Status st = ApplyStep(*engine, steps[j]);
        if (st.ok()) applied.push_back(&steps[j]);
      }
      ASSERT_TRUE(engine->Commit().ok());
      for (const Step* s : applied) model.Apply(*s, ts);
    };
    auto stage = [&](const std::function<void()>& body) {
      GroupCommit::Ticket ticket;
      EXPECT_TRUE(engine
                      ->StageCommits(
                          [&](TemporalEngine&) {
                            body();
                            return Status::OK();
                          },
                          &ticket)
                      .ok());
      return ticket;
    };

    // Batches 1 and 2 stage unsynced; one WaitDurable covers both in a
    // single device sync (the group flush under test).
    const uint64_t syncs_before = engine->wal()->syncs();
    const uint64_t groups_before = group->GetStats().groups;
    GroupCommit::Ticket two_batches = stage([&] {
      run_batch(0);
      run_batch(kBatch);
    });
    EXPECT_EQ(syncs_before, engine->wal()->syncs()) << "staging never syncs";
    ASSERT_TRUE(group->WaitDurable(two_batches).ok());
    EXPECT_EQ(syncs_before + 1, engine->wal()->syncs())
        << "two staged transactions should share one fdatasync";
    EXPECT_EQ(groups_before + 1, group->GetStats().groups);

    // Batch 3 stages in segment 1, then the segment rotates mid-stream
    // (the rotation itself syncs the staged tail); batch 4 lands in
    // segment 2 and is flushed by its own group.
    stage([&] { run_batch(2 * kBatch); });
    ASSERT_TRUE(engine->wal()->Rotate().ok());
    EXPECT_EQ(2u, engine->wal()->segment_index());
    ASSERT_TRUE(
        group->WaitDurable(stage([&] { run_batch(3 * kBatch); })).ok());
  }

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  EXPECT_EQ(2u, report.segments_scanned) << report.ToString();
  EXPECT_FALSE(report.tail_dropped) << report.ToString();
  ExpectSameRows(Canonical(model.Dump()), Canonical(DumpEngine(*recovered)),
                 letter + " group boundary");
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CrashSweepTest,
                         ::testing::Values("A", "B", "C", "D"));

}  // namespace
}  // namespace bih
