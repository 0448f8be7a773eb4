// Unit tests for the durability layer: WAL record encoding, CRC framing,
// torn-tail salvage, deterministic fault injection, and single-engine
// recovery behavior (batch atomicity, report accounting).
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "durability/fault.h"
#include "durability/wal.h"
#include "engine/recovery.h"

namespace bih {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

Row ItemRow(int64_t id, double price, const std::string& note, int64_t vb,
            int64_t ve) {
  return Row{Value(id), Value(price), Value(note), Value(vb), Value(ve)};
}

TEST(WalCodecTest, AllRecordKindsRoundTrip) {
  std::vector<WalRecord> recs;
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kCreateTable;
    r.def = ItemDef();
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kInsert;
    r.ts = 12345;
    r.table = "ITEM";
    r.row = ItemRow(7, 99.5, "hello", 10, Period::kForever);
    r.row.push_back(Value::Null());
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kUpdateSequenced;
    r.flags = WalRecord::kInTxn;
    r.ts = 777;
    r.table = "ITEM";
    r.key = {Value(int64_t{7})};
    r.period_index = 1;
    r.period = Period(5, 25);
    r.set = {{1, Value(3.5)}, {2, Value("note")}};
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kDeleteSequenced;
    r.ts = 999;
    r.table = "ITEM";
    r.key = {Value(int64_t{9})};
    r.period = Period(0, Period::kForever);
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kBulkLoad;
    r.ts = 4;
    r.table = "ITEM";
    r.rows = {ItemRow(1, 1.0, "a", 0, 9), ItemRow(2, 2.0, "b", 3, 8)};
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kCommit;
    r.ts = 4242;
    recs.push_back(r);
  }

  const std::string path = TmpPath("roundtrip.wal");
  {
    std::unique_ptr<WalWriter> w;
    ASSERT_TRUE(WalWriter::Open(path, nullptr, &w).ok());
    for (const WalRecord& r : recs) ASSERT_TRUE(w->Append(r).ok());
    ASSERT_TRUE(w->Flush().ok());
    EXPECT_EQ(recs.size(), w->records_written());
  }
  WalScanResult scan;
  ASSERT_TRUE(ScanWal(path, &scan).ok());
  EXPECT_FALSE(scan.tail_dropped);
  EXPECT_EQ(scan.bytes_total, scan.bytes_salvaged);
  ASSERT_EQ(recs.size(), scan.records.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    const WalRecord& a = recs[i];
    const WalRecord& b = scan.records[i];
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << i;
    EXPECT_EQ(a.flags, b.flags) << i;
    EXPECT_EQ(a.ts, b.ts) << i;
    EXPECT_EQ(a.table, b.table) << i;
    ASSERT_EQ(a.row.size(), b.row.size()) << i;
    for (size_t c = 0; c < a.row.size(); ++c) {
      EXPECT_EQ(0, a.row[c].Compare(b.row[c])) << i << ":" << c;
    }
    ASSERT_EQ(a.key.size(), b.key.size()) << i;
    EXPECT_EQ(a.period_index, b.period_index) << i;
    EXPECT_EQ(a.period.begin, b.period.begin) << i;
    EXPECT_EQ(a.period.end, b.period.end) << i;
    ASSERT_EQ(a.set.size(), b.set.size()) << i;
    for (size_t c = 0; c < a.set.size(); ++c) {
      EXPECT_EQ(a.set[c].column, b.set[c].column);
      EXPECT_EQ(0, a.set[c].value.Compare(b.set[c].value));
    }
    ASSERT_EQ(a.rows.size(), b.rows.size()) << i;
  }
  // Round-trip the table definition too.
  const TableDef& def = scan.records[0].def;
  EXPECT_EQ("ITEM", def.name);
  EXPECT_EQ(5, def.schema.num_columns());
  EXPECT_EQ(ColumnType::kDouble, def.schema.column(1).type);
  ASSERT_EQ(1u, def.primary_key.size());
  ASSERT_EQ(1u, def.app_periods.size());
  EXPECT_EQ(3, def.app_periods[0].begin_col);
  EXPECT_TRUE(def.system_versioned);
}

TEST(WalCodecTest, CrcDetectsBitFlip) {
  const std::string path = TmpPath("flip.wal");
  FaultInjector fi = FaultInjector::FlipByteNth(2, 13);
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(path, &fi, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kInsert;
  rec.ts = 1;
  rec.table = "ITEM";
  rec.row = ItemRow(1, 1.0, "aaaa", 0, 5);
  ASSERT_TRUE(w->Append(rec).ok());
  ASSERT_TRUE(w->Append(rec).ok());  // this frame gets a byte flipped
  ASSERT_TRUE(w->Append(rec).ok());  // valid but beyond the corruption
  ASSERT_TRUE(w->Flush().ok());
  w.reset();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(path, &scan).ok());
  // Only the record before the corruption survives; nothing after a bad
  // CRC can be trusted.
  EXPECT_EQ(1u, scan.records.size());
  EXPECT_TRUE(scan.tail_dropped);
  EXPECT_NE(std::string::npos, scan.tail_reason.find("crc mismatch"));
  EXPECT_LT(scan.bytes_salvaged, scan.bytes_total);
}

TEST(WalCodecTest, TornTailIsSalvagedAndTruncatable) {
  const std::string path = TmpPath("torn.wal");
  FaultInjector fi = FaultInjector::TornNth(3, 5);  // 5 bytes of record 3
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(path, &fi, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kInsert;
  rec.ts = 9;
  rec.table = "ITEM";
  rec.row = ItemRow(2, 2.0, "bb", 1, 7);
  ASSERT_TRUE(w->Append(rec).ok());
  ASSERT_TRUE(w->Append(rec).ok());
  Status st = w->Append(rec);
  EXPECT_EQ(Status::Code::kIoError, st.code());
  // Dead after the torn write, like a crashed process.
  EXPECT_EQ(Status::Code::kIoError, w->Append(rec).code());
  w.reset();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(path, &scan).ok());
  EXPECT_EQ(2u, scan.records.size());
  EXPECT_TRUE(scan.tail_dropped);
  EXPECT_NE(std::string::npos, scan.tail_reason.find("torn"));
  EXPECT_LT(scan.bytes_salvaged, scan.bytes_total);

  // Truncating to the salvage point yields a clean log again.
  ASSERT_TRUE(TruncateWalTail(path, scan.bytes_salvaged).ok());
  WalScanResult rescan;
  ASSERT_TRUE(ScanWal(path, &rescan).ok());
  EXPECT_EQ(2u, rescan.records.size());
  EXPECT_FALSE(rescan.tail_dropped);
  EXPECT_EQ(rescan.bytes_total, rescan.bytes_salvaged);
}

TEST(WalCodecTest, BadMagicIsAnError) {
  const std::string path = TmpPath("magic.wal");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOTAWAL!", f);
  std::fclose(f);
  WalScanResult scan;
  Status st = ScanWal(path, &scan);
  EXPECT_EQ(Status::Code::kIoError, st.code());
}

TEST(FaultInjectorTest, EnvParsingAndDeterminism) {
  setenv("BIH_FAULT", "torn:7:3", 1);
  FaultInjector fi = FaultInjector::FromEnv();
  EXPECT_EQ(FaultInjector::Mode::kTornWrite, fi.mode());
  EXPECT_EQ(7u, fi.trigger_write());
  unsetenv("BIH_FAULT");
  EXPECT_EQ(FaultInjector::Mode::kNone, FaultInjector::FromEnv().mode());

  setenv("BIH_FAULT", "fail:3", 1);
  fi = FaultInjector::FromEnv();
  EXPECT_EQ(FaultInjector::Mode::kFailWrite, fi.mode());
  unsetenv("BIH_FAULT");

  // Same seed, same plan.
  FaultInjector a = FaultInjector::FromSeed(11, 100);
  FaultInjector b = FaultInjector::FromSeed(11, 100);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_GE(a.trigger_write(), 1u);
  EXPECT_LE(a.trigger_write(), 100u);
}

TEST(FaultInjectorTest, TransientFailsFirstAttemptOnly) {
  FaultInjector fi = FaultInjector::TransientNth(2);
  EXPECT_FALSE(fi.OnWrite(1, 64).fail);   // record 1 passes
  EXPECT_TRUE(fi.OnWrite(2, 64).fail);    // record 2, attempt 1: EIO
  EXPECT_FALSE(fi.OnWrite(2, 64).fail);   // record 2, attempt 2: passes
  EXPECT_FALSE(fi.OnWrite(3, 64).fail);   // no crash afterwards
  EXPECT_TRUE(fi.triggered());

  setenv("BIH_FAULT", "transient:5", 1);
  FaultInjector env = FaultInjector::FromEnv();
  EXPECT_EQ(FaultInjector::Mode::kTransientWrite, env.mode());
  EXPECT_EQ(5u, env.trigger_write());
  unsetenv("BIH_FAULT");
}

TEST(EngineWalTest, TransientWriteFailureIsRetriedAndDurable) {
  const std::string path = TmpPath("transient.wal");
  // Record 2 (the first insert) fails on its first attempt; the writer's
  // backoff retry must absorb it without surfacing an error.
  FaultInjector fi = FaultInjector::TransientNth(2);
  auto engine = MakeEngine("A");
  ASSERT_TRUE(engine->EnableWal(path, &fi).ok());
  ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(1, 1.0, "a", 0, 9)).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(2, 2.0, "b", 0, 9)).ok());
  EXPECT_TRUE(fi.triggered());
  engine.reset();

  // The retried record really landed: recovery replays both inserts.
  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine("A", path, &recovered, &report).ok());
  EXPECT_FALSE(report.tail_dropped);
  EXPECT_EQ(2u, recovered->GetTableStats("ITEM").current_rows);
}

TEST(EngineWalTest, FailedWalWriteSurfacesIoError) {
  const std::string path = TmpPath("fail.wal");
  FaultInjector fi = FaultInjector::FailNth(3);  // DDL + insert ok, then fail
  auto engine = MakeEngine("A");
  ASSERT_TRUE(engine->EnableWal(path, &fi).ok());
  ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(1, 1.0, "a", 0, 9)).ok());
  Status st = engine->Insert("ITEM", ItemRow(2, 2.0, "b", 0, 9));
  EXPECT_EQ(Status::Code::kIoError, st.code());
}

TEST(EngineWalTest, UncommittedBatchIsDroppedOnRecovery) {
  const std::string path = TmpPath("batch.wal");
  // Batch layout: [create][i1][i2][commit][i3][i4][commit-fails].
  FaultInjector fi = FaultInjector::FailNth(7);
  auto engine = MakeEngine("B");
  ASSERT_TRUE(engine->EnableWal(path, &fi).ok());
  ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
  engine->Begin();
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(1, 1.0, "a", 0, 9)).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(2, 2.0, "b", 0, 9)).ok());
  ASSERT_TRUE(engine->Commit().ok());
  engine->Begin();
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(3, 3.0, "c", 0, 9)).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(4, 4.0, "d", 0, 9)).ok());
  Status st = engine->Commit();
  EXPECT_EQ(Status::Code::kIoError, st.code());
  // Closing the engine flushes the two appended-but-uncommitted records to
  // disk; recovery must stage them, see no commit marker, and drop them.
  engine.reset();

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine("B", path, &recovered, &report).ok());
  // Only the first batch is durable.
  TableStats ts = recovered->GetTableStats("ITEM");
  EXPECT_EQ(2u, ts.current_rows);
  EXPECT_EQ(2u, report.ops_dropped);
  EXPECT_EQ(1u, report.txns_committed);
  EXPECT_EQ(3u, report.records_applied);  // create + 2 inserts
}

TEST(EngineWalTest, RecoveryPreservesCommitTimestamps) {
  const std::string path = TmpPath("stamps.wal");
  auto engine = MakeEngine("C");
  ASSERT_TRUE(engine->EnableWal(path).ok());
  ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(1, 1.0, "a", 0, 50)).ok());
  ASSERT_TRUE(
      engine->UpdateCurrent("ITEM", {Value(int64_t{1})}, {{1, Value(2.5)}})
          .ok());
  ASSERT_TRUE(
      engine
          ->UpdateSequenced("ITEM", {Value(int64_t{1})}, 0, Period(10, 20),
                            {{1, Value(9.0)}})
          .ok());

  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine("C", path, &recovered, &report).ok());
  EXPECT_FALSE(report.tail_dropped);
  EXPECT_EQ(recovered->Now().micros(), engine->Now().micros());

  auto dump = [](TemporalEngine& e) {
    ScanRequest req;
    req.table = "ITEM";
    req.temporal.system_time = TemporalSelector::All();
    req.temporal.app_time = TemporalSelector::All();
    std::vector<Row> rows;
    e.Scan(req, [&](const Row& r) {
      rows.push_back(r);
      return true;
    });
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.size(); ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return false;
    });
    return rows;
  };
  std::vector<Row> orig = dump(*engine);
  std::vector<Row> rec = dump(*recovered);
  ASSERT_EQ(orig.size(), rec.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(orig[i].size(), rec[i].size());
    for (size_t c = 0; c < orig[i].size(); ++c) {
      EXPECT_EQ(0, orig[i][c].Compare(rec[i][c])) << "row " << i << " col " << c;
    }
  }
}

// --- segments, rotation & checkpoint truncation ---------------------------

TEST(WalSegmentTest, SegmentNamingListingAndTruncation) {
  const std::string base = TmpPath("seg.wal");
  EXPECT_EQ(base, WalSegmentPath(base, 1));
  EXPECT_EQ(base + ".000002", WalSegmentPath(base, 2));
  EXPECT_EQ(base + ".000123", WalSegmentPath(base, 123));

  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(base, nullptr, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  rec.ts = 1;
  ASSERT_TRUE(w->Append(rec).ok());
  ASSERT_TRUE(w->Rotate().ok());
  rec.ts = 2;
  ASSERT_TRUE(w->Append(rec).ok());
  ASSERT_TRUE(w->Rotate().ok());
  rec.ts = 3;
  ASSERT_TRUE(w->Append(rec).ok());
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(3u, w->segment_index());
  EXPECT_EQ(3u, w->records_written());  // cumulative across segments
  w.reset();

  std::vector<WalSegment> segs = ListWalSegments(base);
  ASSERT_EQ(3u, segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(i + 1, segs[i].index);
    WalScanResult scan;
    ASSERT_TRUE(ScanWal(segs[i].path, &scan).ok());
    ASSERT_EQ(1u, scan.records.size());
    EXPECT_EQ(static_cast<int64_t>(i + 1), scan.records[0].ts);
    EXPECT_FALSE(scan.tail_dropped);
  }

  // Checkpoint truncation: drop every segment the snapshot already covers.
  uint64_t removed = 0;
  ASSERT_TRUE(RemoveWalSegmentsBefore(base, 3, &removed).ok());
  EXPECT_EQ(2u, removed);
  segs = ListWalSegments(base);
  ASSERT_EQ(1u, segs.size());
  EXPECT_EQ(3u, segs[0].index);
  // Truncating again is a no-op, not an error.
  ASSERT_TRUE(RemoveWalSegmentsBefore(base, 3, &removed).ok());
  EXPECT_EQ(0u, removed);
}

// --- writer death: one actionable error, then a stable rejection ----------

TEST(WalWriterTest, TransientExhaustionMarksWriterDeadExactlyOnce) {
  const std::string path = TmpPath("exhaust.wal");
  // Record 2 fails on 5 consecutive attempts — beyond the writer's
  // 3-attempt backoff budget, so this "transient" behaves like a device
  // outage the retry loop cannot ride out.
  FaultInjector fi = FaultInjector::TransientNth(2, 5);
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(path, &fi, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  rec.ts = 1;
  ASSERT_TRUE(w->Append(rec).ok());

  // The killing call surfaces the one actionable error...
  Status first = w->Append(rec);
  ASSERT_EQ(Status::Code::kIoError, first.code());
  EXPECT_NE(std::string::npos,
            first.message().find("injected write failure on wal record 2"));
  EXPECT_NE(std::string::npos, first.message().find(path));
  EXPECT_TRUE(w->dead());
  EXPECT_EQ(first.message(), w->dead_reason());

  // ...and every later call gets the same stable terse rejection pointing
  // back at recovery, instead of a fresh variant per retried append.
  Status again = w->Append(rec);
  ASSERT_EQ(Status::Code::kIoError, again.code());
  EXPECT_NE(std::string::npos, again.message().find("is dead"));
  EXPECT_EQ(again.message(), w->Append(rec).message());
  EXPECT_EQ(again.message(), w->Flush().message());
  EXPECT_EQ(again.message(), w->Rotate().message());
  // The actionable first error is preserved, never overwritten.
  EXPECT_EQ(first.message(), w->dead_reason());
  EXPECT_EQ(1u, w->records_written());
}

TEST(WalWriterTest, TransientWithinBackoffBudgetSurvives) {
  const std::string path = TmpPath("survive.wal");
  // Two failed attempts, third passes: inside the 3-attempt budget.
  FaultInjector fi = FaultInjector::TransientNth(1, 2);
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(path, &fi, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  rec.ts = 42;
  ASSERT_TRUE(w->Append(rec).ok());
  // Flush only stages: the device sync belongs to SyncGroup.
  const uint64_t syncs_before = w->syncs();
  ASSERT_TRUE(w->Flush().ok());
  EXPECT_EQ(syncs_before, w->syncs());
  EXPECT_TRUE(fi.triggered());
  EXPECT_FALSE(w->dead());
  w.reset();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(path, &scan).ok());
  ASSERT_EQ(1u, scan.records.size());
  EXPECT_EQ(42, scan.records[0].ts);
}

TEST(WalWriterTest, SyncFailureExhaustsRetriesAndKillsWriter) {
  const std::string path = TmpPath("sync_dead.wal");
  FaultInjector fi = FaultInjector::FailSyncNth(1);
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::Open(path, &fi, &w).ok());
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  ASSERT_TRUE(w->Append(rec).ok());
  // The commit's durability point is the group sync; a sync that keeps
  // failing past the retry budget must kill the writer, because the
  // durable prefix is unknown from here on.
  Status st = w->SyncGroup(nullptr);
  ASSERT_EQ(Status::Code::kIoError, st.code());
  EXPECT_NE(std::string::npos, st.message().find("wal sync failed"));
  EXPECT_NE(std::string::npos,
            st.message().find("injected sync failure at sync point 1"));
  EXPECT_TRUE(w->dead());
}

TEST(FaultInjectorTest, CrashPointModesParseFromEnvAndRoundTrip) {
  const struct {
    const char* spec;
    FaultInjector::Mode mode;
  } kCases[] = {
      {"transient:4:7", FaultInjector::Mode::kTransientWrite},
      {"sync:3", FaultInjector::Mode::kFailSync},
      {"rotate:2", FaultInjector::Mode::kFailRotate},
      {"ckpt:5", FaultInjector::Mode::kFailCheckpoint},
      {"rename:1", FaultInjector::Mode::kTornRename},
  };
  for (const auto& c : kCases) {
    setenv("BIH_FAULT", c.spec, 1);
    FaultInjector fi = FaultInjector::FromEnv();
    EXPECT_EQ(c.mode, fi.mode()) << c.spec;
    EXPECT_EQ(c.spec, fi.ToString()) << c.spec;
  }
  unsetenv("BIH_FAULT");
}

TEST(EngineWalTest, TransientEnvBeyondBackoffSurfacesSingleError) {
  const std::string path = TmpPath("exhaust_env.wal");
  // What an operator would set to model a write outage: record 3 (the
  // second insert) fails on 9 consecutive attempts.
  setenv("BIH_FAULT", "transient:3:9", 1);
  FaultInjector fi = FaultInjector::FromEnv();
  unsetenv("BIH_FAULT");
  auto engine = MakeEngine("D");
  ASSERT_TRUE(engine->EnableWal(path, &fi).ok());
  ASSERT_TRUE(engine->CreateTable(ItemDef()).ok());
  ASSERT_TRUE(engine->Insert("ITEM", ItemRow(1, 1.0, "a", 0, 9)).ok());

  Status st = engine->Insert("ITEM", ItemRow(2, 2.0, "b", 0, 9));
  EXPECT_EQ(Status::Code::kIoError, st.code());
  EXPECT_NE(std::string::npos, st.message().find("injected write failure"));

  // Dead exactly once: the next write repeats the terse rejection rather
  // than a second "actionable" variant.
  Status next = engine->Insert("ITEM", ItemRow(3, 3.0, "c", 0, 9));
  EXPECT_EQ(Status::Code::kIoError, next.code());
  EXPECT_NE(std::string::npos, next.message().find("is dead"));
  engine.reset();

  // The durable prefix (everything before the outage) recovers cleanly.
  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine("D", path, &recovered, &report).ok());
  EXPECT_EQ(1u, recovered->GetTableStats("ITEM").current_rows);
}

}  // namespace
}  // namespace bih
