#include <algorithm>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/system_b.h"
#include "tpch/schema.h"

namespace bih {
namespace {

using Rows = std::vector<Row>;

// A small bitemporal table used throughout: ACCOUNT(id, owner, balance,
// valid period), system-versioned.
TableDef AccountDef() {
  TableDef def;
  def.name = "ACCOUNT";
  def.schema = Schema({{"ID", ColumnType::kInt},
                       {"OWNER", ColumnType::kString},
                       {"BALANCE", ColumnType::kDouble},
                       {"VALID_BEGIN", ColumnType::kDate},
                       {"VALID_END", ColumnType::kDate}});
  def.primary_key = {0};
  def.app_periods = {{"VALIDITY", 3, 4}};
  def.system_versioned = true;
  return def;
}

Row Account(int64_t id, const char* owner, double balance, int64_t b,
            int64_t e) {
  return {Value(id), Value(owner), Value(balance), Value(b), Value(e)};
}

constexpr int kSysFrom = 5, kSysTo = 6;

class EngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    engine_ = MakeEngine(GetParam());
    ASSERT_TRUE(engine_->CreateTable(AccountDef()).ok());
  }

  Rows Collect(const ScanRequest& req) {
    Rows out;
    engine_->Scan(req, [&](const Row& row) {
      out.push_back(row);
      return true;
    });
    return out;
  }

  Rows ScanWith(const TemporalScanSpec& spec, ExecStats* stats = nullptr) {
    ScanRequest req;
    req.table = "ACCOUNT";
    req.temporal = spec;
    req.stats = stats;
    Rows rows = Collect(req);
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.size(); ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return false;
    });
    return rows;
  }

  std::unique_ptr<TemporalEngine> engine_;
};

TEST_P(EngineTest, InsertAndCurrentScan) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 0,
                                                 Period::kForever)).ok());
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(2, "bob", 200.0, 0,
                                                 Period::kForever)).ok());
  Rows rows = ScanWith(TemporalScanSpec::Current());
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ(1, rows[0][0].AsInt());
  EXPECT_EQ("ann", rows[0][1].AsString());
  // System-time columns are appended and populated.
  ASSERT_EQ(7u, rows[0].size());
  EXPECT_FALSE(rows[0][kSysFrom].is_null());
}

TEST_P(EngineTest, ScanSchemaShape) {
  Schema s = engine_->ScanSchema("ACCOUNT");
  EXPECT_EQ(7, s.num_columns());
  EXPECT_EQ("ID", s.column(0).name);
}

TEST_P(EngineTest, UpdateCreatesHistoryVersion) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 0,
                                                 Period::kForever)).ok());
  ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                     {{2, Value(150.0)}}).ok());
  // Current sees the new balance only.
  Rows cur = ScanWith(TemporalScanSpec::Current());
  ASSERT_EQ(1u, cur.size());
  EXPECT_DOUBLE_EQ(150.0, cur[0][2].AsDouble());
  // Full system history sees both versions.
  TemporalScanSpec all;
  all.system_time = TemporalSelector::All();
  Rows hist = ScanWith(all);
  ASSERT_EQ(2u, hist.size());
  std::multiset<double> balances{hist[0][2].AsDouble(), hist[1][2].AsDouble()};
  EXPECT_EQ((std::multiset<double>{100.0, 150.0}), balances);
}

TEST_P(EngineTest, SystemTimeTravelSeesOldVersion) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 0,
                                                 Period::kForever)).ok());
  Timestamp before = engine_->Now();
  ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                     {{2, Value(150.0)}}).ok());
  Rows old_rows = ScanWith(TemporalScanSpec::SystemAsOf(before.micros()));
  ASSERT_EQ(1u, old_rows.size());
  EXPECT_DOUBLE_EQ(100.0, old_rows[0][2].AsDouble());
  // The closed version's system interval ends at the update time.
  EXPECT_NE(Period::kForever, old_rows[0][kSysTo].AsInt());
}

TEST_P(EngineTest, DeleteRemovesFromCurrentKeepsHistory) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 0,
                                                 Period::kForever)).ok());
  Timestamp before = engine_->Now();
  ASSERT_TRUE(engine_->DeleteCurrent("ACCOUNT", {Value(int64_t{1})}).ok());
  EXPECT_TRUE(ScanWith(TemporalScanSpec::Current()).empty());
  Rows old_rows = ScanWith(TemporalScanSpec::SystemAsOf(before.micros()));
  ASSERT_EQ(1u, old_rows.size());
  // Deleting a missing key reports NotFound.
  Status st = engine_->DeleteCurrent("ACCOUNT", {Value(int64_t{1})});
  EXPECT_EQ(Status::Code::kNotFound, st.code());
}

TEST_P(EngineTest, SequencedUpdateSplitsApplicationPeriod) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 10, 30)).ok());
  ASSERT_TRUE(engine_->UpdateSequenced("ACCOUNT", {Value(int64_t{1})}, 0,
                                       Period(15, 25), {{2, Value(999.0)}})
                  .ok());
  Rows cur = ScanWith(TemporalScanSpec::Current());
  ASSERT_EQ(3u, cur.size());  // [10,15) old, [15,25) new, [25,30) old
  // App time travel inside the window sees the new value.
  Rows at20 = ScanWith(TemporalScanSpec::AppAsOf(20));
  ASSERT_EQ(1u, at20.size());
  EXPECT_DOUBLE_EQ(999.0, at20[0][2].AsDouble());
  Rows at12 = ScanWith(TemporalScanSpec::AppAsOf(12));
  ASSERT_EQ(1u, at12.size());
  EXPECT_DOUBLE_EQ(100.0, at12[0][2].AsDouble());
  // Bitemporal: before the update (system time), the app split is invisible.
}

TEST_P(EngineTest, SequencedDeleteLeavesGap) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 10, 30)).ok());
  ASSERT_TRUE(engine_->DeleteSequenced("ACCOUNT", {Value(int64_t{1})}, 0,
                                       Period(15, 25)).ok());
  EXPECT_EQ(2u, ScanWith(TemporalScanSpec::Current()).size());
  EXPECT_TRUE(ScanWith(TemporalScanSpec::AppAsOf(20)).empty());
  EXPECT_EQ(1u, ScanWith(TemporalScanSpec::AppAsOf(12)).size());
  EXPECT_EQ(1u, ScanWith(TemporalScanSpec::AppAsOf(27)).size());
}

TEST_P(EngineTest, OverwriteMergesWindow) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 10, 20)).ok());
  ASSERT_TRUE(engine_->UpdateOverwrite("ACCOUNT", {Value(int64_t{1})}, 0,
                                       Period(15, 18), {{2, Value(5.0)}})
                  .ok());
  Rows at16 = ScanWith(TemporalScanSpec::AppAsOf(16));
  ASSERT_EQ(1u, at16.size());
  EXPECT_DOUBLE_EQ(5.0, at16[0][2].AsDouble());
  // Outside the overwrite window the old value survives.
  Rows at12 = ScanWith(TemporalScanSpec::AppAsOf(12));
  ASSERT_EQ(1u, at12.size());
  EXPECT_DOUBLE_EQ(100.0, at12[0][2].AsDouble());
  Rows at19 = ScanWith(TemporalScanSpec::AppAsOf(19));
  ASSERT_EQ(1u, at19.size());
  EXPECT_DOUBLE_EQ(100.0, at19[0][2].AsDouble());
}

TEST_P(EngineTest, BitemporalPointPoint) {
  // Build a bitemporal rectangle pattern: update app window after a system
  // version existed.
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 1.0, 0, 100)).ok());
  Timestamp t1 = engine_->Now();
  ASSERT_TRUE(engine_->UpdateSequenced("ACCOUNT", {Value(int64_t{1})}, 0,
                                       Period(50, 100), {{2, Value(2.0)}})
                  .ok());
  // (sys=t1, app=60): the old value, since the split happened after t1.
  Rows r = ScanWith(TemporalScanSpec::BothAsOf(t1.micros(), 60));
  ASSERT_EQ(1u, r.size());
  EXPECT_DOUBLE_EQ(1.0, r[0][2].AsDouble());
  // (sys=now, app=60): the new value.
  r = ScanWith(TemporalScanSpec::BothAsOf(engine_->Now().micros(), 60));
  ASSERT_EQ(1u, r.size());
  EXPECT_DOUBLE_EQ(2.0, r[0][2].AsDouble());
  // (sys=now, app=10): still the old value (outside the window).
  r = ScanWith(TemporalScanSpec::BothAsOf(engine_->Now().micros(), 10));
  ASSERT_EQ(1u, r.size());
  EXPECT_DOUBLE_EQ(1.0, r[0][2].AsDouble());
}

TEST_P(EngineTest, KeyEqualityLookup) {
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i), 0, Period::kForever))
                    .ok());
  }
  ScanRequest req;
  req.table = "ACCOUNT";
  req.equals = {{0, Value(int64_t{7})}};
  Rows rows = Collect(req);
  ASSERT_EQ(1u, rows.size());
  EXPECT_DOUBLE_EQ(7.0, rows[0][2].AsDouble());
}

TEST_P(EngineTest, RangeConstraint) {
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i), 0, Period::kForever))
                    .ok());
  }
  ScanRequest req;
  req.table = "ACCOUNT";
  req.range_col = 2;
  req.range_lo = Value(10.0);
  req.range_hi = Value(12.0);
  Rows rows = Collect(req);
  EXPECT_EQ(3u, rows.size());
}

TEST_P(EngineTest, ImplicitVsExplicitCurrentSameResult) {
  for (int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i), 0, Period::kForever))
                    .ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(i)},
                                         {{2, Value(double(i) * 10)}})
                      .ok());
    }
  }
  Rows implicit_rows = ScanWith(TemporalScanSpec::Current());
  Rows explicit_rows =
      ScanWith(TemporalScanSpec::SystemAsOf(engine_->Now().micros()));
  ASSERT_EQ(implicit_rows.size(), explicit_rows.size());
  for (size_t i = 0; i < implicit_rows.size(); ++i) {
    EXPECT_EQ(0, implicit_rows[i][0].Compare(explicit_rows[i][0]));
    EXPECT_EQ(0, implicit_rows[i][2].Compare(explicit_rows[i][2]));
  }
}

TEST_P(EngineTest, ImplicitCurrentAvoidsHistoryExplicitDoesNot) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 1.0, 0,
                                                 Period::kForever)).ok());
  ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                     {{2, Value(2.0)}}).ok());
  // System C keeps closed versions in the delta until the merge relocates
  // them to the history partition; force the merge so the partitions are in
  // their steady state.
  engine_->Maintain();
  ExecStats implicit_stats, explicit_stats;
  ScanWith(TemporalScanSpec::Current(), &implicit_stats);
  ScanWith(TemporalScanSpec::SystemAsOf(engine_->Now().micros()),
           &explicit_stats);
  if (GetParam() == "D") {
    // No current/history split: both plans scan the single table.
    EXPECT_EQ(implicit_stats.rows_examined, explicit_stats.rows_examined);
  } else {
    // The explicit AS OF is not recognized as "current": it reads the
    // history partition too (Fig. 6).
    EXPECT_TRUE(explicit_stats.touched_history);
    EXPECT_FALSE(implicit_stats.touched_history);
    EXPECT_GT(explicit_stats.rows_examined, implicit_stats.rows_examined);
  }
}

TEST_P(EngineTest, TransactionsShareCommitTimestamp) {
  engine_->Begin();
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "a", 1.0, 0,
                                                 Period::kForever)).ok());
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(2, "b", 2.0, 0,
                                                 Period::kForever)).ok());
  ASSERT_TRUE(engine_->Commit().ok());
  TemporalScanSpec all;
  all.system_time = TemporalSelector::All();
  Rows rows = ScanWith(all);
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ(rows[0][kSysFrom].AsInt(), rows[1][kSysFrom].AsInt());
}

TEST_P(EngineTest, StatsTrackPartitionsAndHistorySize) {
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "a", 1.0, 0,
                                                 Period::kForever)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                       {{2, Value(double(i))}}).ok());
  }
  engine_->Maintain();  // System C: force merge so history is materialized
  TableStats ts = engine_->GetTableStats("ACCOUNT");
  EXPECT_EQ(1u, ts.current_rows);
  EXPECT_EQ(5u, ts.history_rows + ts.pending_undo);
}

TEST_P(EngineTest, IndexedScanMatchesUnindexed) {
  for (int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i % 17), i % 40,
                                        (i % 40) + 10))
                    .ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(i)},
                                         {{2, Value(double(i % 7))}}).ok());
    }
  }
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::AsOf(engine_->Now().micros());
  spec.app_time = TemporalSelector::AsOf(5);
  Rows before = ScanWith(spec);

  IndexSpec is;
  is.table = "ACCOUNT";
  is.partition = PartitionSel::kCurrent;
  is.columns = {3};  // VALID_BEGIN
  is.type = IndexType::kBTree;
  is.name = "acct_app";
  ASSERT_TRUE(engine_->CreateIndex(is).ok());
  is.partition = PartitionSel::kHistory;
  is.name = "acct_app_hist";
  ASSERT_TRUE(engine_->CreateIndex(is).ok());

  Rows after = ScanWith(spec);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    for (size_t c = 0; c < before[i].size(); ++c) {
      EXPECT_EQ(0, before[i][c].Compare(after[i][c]));
    }
  }
  ASSERT_TRUE(engine_->DropIndexes("ACCOUNT").ok());
  Rows dropped = ScanWith(spec);
  EXPECT_EQ(before.size(), dropped.size());
}

// Every engine must fill ExecStats.used_index / index_name consistently:
// used_index is true when any scanned partition was served by an index, and
// index_name then lists the chosen index of each served partition in scan
// order, comma-separated (see ExecStats). A full scan with no indexes
// reports neither.
TEST_P(EngineTest, KeyLookupReportsPrimaryKeyFastPath) {
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i), 0, Period::kForever))
                    .ok());
  }
  ScanRequest req;
  req.table = "ACCOUNT";
  req.equals = {{0, Value(int64_t{7})}};
  ExecStats stats;
  req.stats = &stats;
  Rows rows = Collect(req);
  ASSERT_EQ(1u, rows.size());
  if (GetParam() == "A" || GetParam() == "B") {
    // Current-partition primary-key hash lookup.
    EXPECT_TRUE(stats.used_index);
    EXPECT_EQ("pk_current(ACCOUNT)", stats.index_name);
  } else {
    // System C ignores index structures (Section 5.3.2); System D's single
    // heap has no built-in key access path.
    EXPECT_FALSE(stats.used_index);
    EXPECT_EQ("", stats.index_name);
  }
}

TEST_P(EngineTest, TuningIndexesReportedPerPartition) {
  for (int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(engine_->Insert("ACCOUNT",
                                Account(i, "x", double(i % 17), i % 40,
                                        (i % 40) + 10))
                    .ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(i)},
                                         {{2, Value(double(i % 7))}}).ok());
    }
  }
  engine_->Maintain();
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::AsOf(engine_->Now().micros());
  spec.app_time = TemporalSelector::AsOf(5);
  ScanRequest req;
  req.table = "ACCOUNT";
  req.temporal = spec;

  // No indexes yet: a full scan must not claim one.
  ExecStats before;
  req.stats = &before;
  Collect(req);
  EXPECT_FALSE(before.used_index);
  EXPECT_EQ("", before.index_name);

  IndexSpec is;
  is.table = "ACCOUNT";
  is.partition = PartitionSel::kCurrent;
  is.columns = {3};  // VALID_BEGIN
  is.type = IndexType::kBTree;
  is.name = "acct_app";
  ASSERT_TRUE(engine_->CreateIndex(is).ok());
  is.partition = PartitionSel::kHistory;
  is.name = "acct_app_hist";
  ASSERT_TRUE(engine_->CreateIndex(is).ok());

  ExecStats after;
  req.stats = &after;
  Collect(req);
  if (GetParam() == "C") {
    // Accepted but never consulted.
    EXPECT_FALSE(after.used_index);
    EXPECT_EQ("", after.index_name);
  } else if (GetParam() == "D") {
    // One physical partition, so one chosen index.
    EXPECT_TRUE(after.used_index);
    EXPECT_EQ("acct_app", after.index_name);
  } else {
    // Current then history, in scan order.
    EXPECT_TRUE(after.used_index);
    EXPECT_EQ("acct_app,acct_app_hist", after.index_name);
  }
}

TEST_P(EngineTest, UnknownTableErrors) {
  EXPECT_EQ(Status::Code::kNotFound,
            engine_->Insert("NOPE", {}).code());
  EXPECT_EQ(Status::Code::kAlreadyExists,
            engine_->CreateTable(AccountDef()).code());
  ASSERT_TRUE(engine_->Insert("ACCOUNT", Account(1, "ann", 100.0, 0,
                                                 Period::kForever)).ok());
  const std::string wal_path =
      ::testing::TempDir() + "/unknown_table_errors_" + GetParam() + ".wal";
  ASSERT_TRUE(engine_->EnableWal(wal_path).ok());

  const std::vector<Value> key{Value(int64_t{1})};
  const std::vector<Value> missing{Value(int64_t{42})};
  const std::vector<ColumnAssignment> set{{2, Value(1.0)}};
  const Period window(10, 20);
  // The three sequenced statements, then all five keyed statements, against
  // `table` / `k`.
  auto sequenced = [&](const std::string& table, const std::vector<Value>& k,
                       int period_index) {
    return std::vector<Status>{
        engine_->UpdateSequenced(table, k, period_index, window, set),
        engine_->UpdateOverwrite(table, k, period_index, window, set),
        engine_->DeleteSequenced(table, k, period_index, window)};
  };
  auto keyed = [&](const std::string& table, const std::vector<Value>& k) {
    std::vector<Status> got = sequenced(table, k, 0);
    got.push_back(engine_->UpdateCurrent(table, k, set));
    got.push_back(engine_->DeleteCurrent(table, k));
    return got;
  };
  for (const Status& st : keyed("NOPE", key)) {
    EXPECT_EQ(Status::Code::kNotFound, st.code()) << st.ToString();
  }
  for (const Status& st : keyed("ACCOUNT", missing)) {
    EXPECT_EQ(Status::Code::kNotFound, st.code()) << st.ToString();
  }
  // A bad period index is rejected before the key is looked up.
  for (int bad_period : {-1, 1}) {
    for (const std::vector<Value>& k : {key, missing}) {
      for (const Status& st : sequenced("ACCOUNT", k, bad_period)) {
        EXPECT_EQ(Status::Code::kInvalidArgument, st.code()) << bad_period;
      }
    }
  }

  // Every failed statement consumed a commit tick, and none was logged.
  const Timestamp before = engine_->Now();
  EXPECT_EQ(Status::Code::kNotFound,
            engine_->DeleteCurrent("ACCOUNT", missing).code());
  EXPECT_LT(before.micros(), engine_->Now().micros());
  EXPECT_EQ(0u, engine_->wal()->records_written());
  // The key is untouched.
  Rows cur = ScanWith(TemporalScanSpec::Current());
  ASSERT_EQ(1u, cur.size());
  EXPECT_DOUBLE_EQ(100.0, cur[0][2].AsDouble());
  std::remove(wal_path.c_str());
}

TEST_P(EngineTest, ArityMismatchRejected) {
  Status st = engine_->Insert("ACCOUNT", {Value(int64_t{1})});
  EXPECT_EQ(Status::Code::kInvalidArgument, st.code());

  // Values the column's type cannot store, and NULL in key or period
  // columns, are rejected with a message naming table and column.
  struct BadRow {
    Row row;
    const char* column;
  };
  const std::vector<BadRow> bad_rows = {
      {{Value("1"), Value("ann"), Value(1.0), Value(int64_t{0}),
        Value(int64_t{9})},
       "ID"},
      {{Value(int64_t{1}), Value(int64_t{5}), Value(1.0), Value(int64_t{0}),
        Value(int64_t{9})},
       "OWNER"},
      {{Value(int64_t{1}), Value("ann"), Value("rich"), Value(int64_t{0}),
        Value(int64_t{9})},
       "BALANCE"},
      {{Value(int64_t{1}), Value("ann"), Value(1.0), Value(1.5),
        Value(int64_t{9})},
       "VALID_BEGIN"},
      {{Value(int64_t{1}), Value("ann"), Value(1.0), Value(int64_t{0}),
        Value("x")},
       "VALID_END"},
      {{Value(), Value("ann"), Value(1.0), Value(int64_t{0}),
        Value(int64_t{9})},
       "ID"},
      {{Value(int64_t{1}), Value("ann"), Value(1.0), Value(),
        Value(int64_t{9})},
       "VALID_BEGIN"},
  };
  for (const BadRow& bad : bad_rows) {
    st = engine_->Insert("ACCOUNT", bad.row);
    EXPECT_EQ(Status::Code::kInvalidArgument, st.code()) << bad.column;
    EXPECT_NE(std::string::npos, st.message().find("ACCOUNT")) << st.message();
    EXPECT_NE(std::string::npos, st.message().find(bad.column))
        << st.message();
  }
  EXPECT_TRUE(ScanWith(TemporalScanSpec::Current()).empty());

  // A double column takes an int (the core stores it unchanged; System C's
  // typed column widens it); a non-key, non-period column takes NULL.
  ASSERT_TRUE(engine_->Insert("ACCOUNT", {Value(int64_t{1}), Value(),
                                          Value(int64_t{7}), Value(int64_t{0}),
                                          Value(int64_t{100})})
                  .ok());
  Rows cur = ScanWith(TemporalScanSpec::Current());
  ASSERT_EQ(1u, cur.size());
  EXPECT_TRUE(cur[0][1].is_null());
  EXPECT_DOUBLE_EQ(7.0, cur[0][2].AsDouble());

  // SET values are checked the same way on every keyed update form.
  const std::vector<Value> key{Value(int64_t{1})};
  const Period window(10, 20);
  const std::vector<std::vector<ColumnAssignment>> bad_sets = {
      {{3, Value("x")}},
      {{4, Value()}},
      {{0, Value()}},
      {{1, Value(2.5)}},
      {{5, Value(int64_t{1})}},
      {{-1, Value(int64_t{1})}},
  };
  for (const std::vector<ColumnAssignment>& set : bad_sets) {
    EXPECT_EQ(Status::Code::kInvalidArgument,
              engine_->UpdateCurrent("ACCOUNT", key, set).code());
    EXPECT_EQ(Status::Code::kInvalidArgument,
              engine_->UpdateSequenced("ACCOUNT", key, 0, window, set).code());
    EXPECT_EQ(Status::Code::kInvalidArgument,
              engine_->UpdateOverwrite("ACCOUNT", key, 0, window, set).code());
  }
  // The rejected SETs left the key intact, so a sequenced update over it
  // still plans against well-formed periods.
  ASSERT_TRUE(engine_->UpdateSequenced("ACCOUNT", key, 0, window,
                                       {{2, Value(1.0)}})
                  .ok());
  EXPECT_EQ(3u, ScanWith(TemporalScanSpec::Current()).size());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values("A", "B", "C", "D"));

TEST(SystemDTest, BulkLoadWithExplicitTimestamps) {
  auto engine = MakeEngine("D");
  ASSERT_TRUE(engine->CreateTable(AccountDef()).ok());
  std::vector<Row> rows;
  // A closed historic version and its open successor.
  Row v1 = Account(1, "ann", 1.0, 0, Period::kForever);
  v1.push_back(Value(int64_t{1000}));
  v1.push_back(Value(int64_t{2000}));
  Row v2 = Account(1, "ann", 2.0, 0, Period::kForever);
  v2.push_back(Value(int64_t{2000}));
  v2.push_back(Value(Period::kForever));
  rows.push_back(v1);
  rows.push_back(v2);
  ASSERT_TRUE(engine->BulkLoad("ACCOUNT", rows).ok());
  ScanRequest req;
  req.table = "ACCOUNT";
  req.temporal = TemporalScanSpec::SystemAsOf(1500);
  int n = 0;
  double bal = 0;
  engine->Scan(req, [&](const Row& row) {
    ++n;
    bal = row[2].AsDouble();
    return true;
  });
  EXPECT_EQ(1, n);
  EXPECT_DOUBLE_EQ(1.0, bal);
}

TEST(SystemDTest, BulkLoadRejectedByNativeEngines) {
  for (const std::string letter : {"A", "B", "C"}) {
    auto engine = MakeEngine(letter);
    ASSERT_TRUE(engine->CreateTable(AccountDef()).ok());
    Status st = engine->BulkLoad("ACCOUNT", {});
    EXPECT_EQ(Status::Code::kUnimplemented, st.code()) << letter;
  }
}

TEST(SystemDTest, GistIndexAccepted) {
  auto engine = MakeEngine("D");
  ASSERT_TRUE(engine->CreateTable(AccountDef()).ok());
  IndexSpec is;
  is.table = "ACCOUNT";
  is.columns = {3, 4};
  is.type = IndexType::kRTree;
  is.name = "gist";
  EXPECT_TRUE(engine->CreateIndex(is).ok());
  // The native engines refuse R-trees.
  for (const std::string letter : {"A", "B", "C"}) {
    auto other = MakeEngine(letter);
    ASSERT_TRUE(other->CreateTable(AccountDef()).ok());
    EXPECT_EQ(Status::Code::kUnimplemented, other->CreateIndex(is).code());
  }
}

TEST(SystemCTest, MergeRelocatesInvalidatedVersions) {
  auto engine = MakeEngine("C");
  ASSERT_TRUE(engine->CreateTable(AccountDef()).ok());
  ASSERT_TRUE(engine->Insert("ACCOUNT", Account(1, "a", 1.0, 0,
                                                Period::kForever)).ok());
  ASSERT_TRUE(engine->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                    {{2, Value(2.0)}}).ok());
  TableStats before = engine->GetTableStats("ACCOUNT");
  EXPECT_EQ(0u, before.history_rows);  // still in delta
  engine->Maintain();
  TableStats after = engine->GetTableStats("ACCOUNT");
  EXPECT_EQ(1u, after.history_rows);
  EXPECT_EQ(1u, after.current_rows);
  // Data still correct after the merge.
  ScanRequest req;
  req.table = "ACCOUNT";
  int n = 0;
  engine->Scan(req, [&](const Row& row) {
    ++n;
    EXPECT_DOUBLE_EQ(2.0, row[2].AsDouble());
    return true;
  });
  EXPECT_EQ(1, n);
}

TEST(SystemBTest, UndoLogFlushesAtThreshold) {
  auto engine = MakeEngine("B");
  ASSERT_TRUE(engine->CreateTable(AccountDef()).ok());
  ASSERT_TRUE(engine->Insert("ACCOUNT", Account(1, "a", 1.0, 0,
                                                Period::kForever)).ok());
  for (size_t i = 0; i < SystemBEngine::kUndoFlushThreshold + 8; ++i) {
    ASSERT_TRUE(engine->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                      {{2, Value(double(i))}}).ok());
  }
  TableStats ts = engine->GetTableStats("ACCOUNT");
  // The background writer drained at least once.
  EXPECT_GT(ts.history_rows, 0u);
}

}  // namespace
}  // namespace bih
