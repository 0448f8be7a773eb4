// Randomized differential test: a reference bitemporal model (brute force
// over every version ever created) is driven with the same operation
// sequence as all four engines; random temporal queries must agree
// everywhere. This is the strongest correctness property in the suite: the
// engines share no storage code with the model.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/recovery.h"
#include "reference_model.h"
#include "temporal/clock.h"

namespace bih {
namespace {

class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, EnginesMatchModelUnderRandomOps) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  // Every engine runs WAL-attached (before DDL, so CreateTable is logged);
  // at the end each log is replayed into a fresh engine that must answer
  // the random queries identically to the original.
  std::vector<std::unique_ptr<TemporalEngine>> engines;
  std::vector<std::string> wal_paths;
  for (const std::string& letter : AllEngineLetters()) {
    engines.push_back(MakeEngine(letter));
    wal_paths.push_back(::testing::TempDir() + "/fuzz_" + letter + "_" +
                        std::to_string(seed) + ".wal");
    ASSERT_TRUE(engines.back()->EnableWal(wal_paths.back()).ok());
    ASSERT_TRUE(engines.back()->CreateTable(FuzzItemDef()).ok());
  }
  Model model;
  CommitClock model_clock;

  std::vector<int64_t> keys;
  int64_t next_key = 1;
  std::vector<int64_t> interesting_sys;  // timestamps to time travel to
  interesting_sys.push_back(model_clock.Now().micros());

  // Some steps run in Begin/Commit batches of 2-5 statements sharing one
  // commit stamp. Half of a batch's statements revisit the key its previous
  // statement touched, so versions opened and closed inside one batch (never
  // visible, never recorded) are exercised, and the WAL carries in-batch
  // records for the replay comparison below.
  int batch_left = 0;
  int64_t batch_ts = 0;
  int64_t batch_key = -1;
  const int kOps = 400;
  for (int step = 0; step < kOps; ++step) {
    if (batch_left == 0 && rng.Bernoulli(0.15)) {
      batch_left = static_cast<int>(rng.UniformInt(2, 5));
      batch_ts = model_clock.NextCommit().micros();
      batch_key = -1;
      for (auto& e : engines) e->Begin();
    }
    int choice = static_cast<int>(rng.UniformInt(0, 9));
    int64_t ts = batch_left > 0 ? batch_ts : model_clock.NextCommit().micros();
    // Build the op deterministically, apply to model + every engine.
    if (choice <= 3 || keys.empty()) {
      // Insert a fresh key with a random validity period.
      int64_t id = next_key++;
      int64_t vb = rng.UniformInt(0, 300);
      int64_t ve = rng.Bernoulli(0.3) ? Period::kForever
                                      : vb + rng.UniformInt(1, 200);
      Row row{Value(id), Value(double(rng.UniformInt(1, 1000))),
              Value(rng.Bernoulli(0.5) ? "x" : "y"), Value(vb), Value(ve)};
      model.Insert(row, ts);
      for (auto& e : engines) ASSERT_TRUE(e->Insert("ITEM", row).ok());
      keys.push_back(id);
      batch_key = id;
    } else {
      int64_t id = keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
      if (batch_left > 0 && batch_key >= 0 && rng.Bernoulli(0.5)) {
        id = batch_key;
      }
      batch_key = id;
      std::vector<ColumnAssignment> set{
          {1, Value(double(rng.UniformInt(1, 1000)))}};
      int64_t wb = rng.UniformInt(0, 400);
      Period window(wb, rng.Bernoulli(0.3) ? Period::kForever
                                           : wb + rng.UniformInt(1, 150));
      bool model_did = false;
      Status expect;
      switch (choice) {
        case 4:
        case 5:
          model_did = model.UpdateCurrent(id, set, ts);
          for (auto& e : engines) {
            Status st = e->UpdateCurrent("ITEM", {Value(id)}, set);
            ASSERT_EQ(model_did, st.ok()) << e->name() << " step " << step;
          }
          break;
        case 6:
          model_did =
              model.Sequenced(id, window, set, SequencedOp::kUpdate, ts);
          for (auto& e : engines) {
            Status st = e->UpdateSequenced("ITEM", {Value(id)}, 0, window, set);
            ASSERT_EQ(model_did, st.ok()) << e->name() << " step " << step;
          }
          break;
        case 7:
          model_did =
              model.Sequenced(id, window, set, SequencedOp::kOverwrite, ts);
          for (auto& e : engines) {
            Status st = e->UpdateOverwrite("ITEM", {Value(id)}, 0, window, set);
            ASSERT_EQ(model_did, st.ok()) << e->name() << " step " << step;
          }
          break;
        case 8:
          model_did = model.Sequenced(id, window, {}, SequencedOp::kDelete, ts);
          for (auto& e : engines) {
            Status st = e->DeleteSequenced("ITEM", {Value(id)}, 0, window);
            ASSERT_EQ(model_did, st.ok()) << e->name() << " step " << step;
          }
          break;
        default:
          model_did = model.DeleteCurrent(id, ts);
          for (auto& e : engines) {
            Status st = e->DeleteCurrent("ITEM", {Value(id)});
            ASSERT_EQ(model_did, st.ok()) << e->name() << " step " << step;
          }
          break;
      }
    }
    if (batch_left > 0 && (--batch_left == 0 || step == kOps - 1)) {
      batch_left = 0;
      for (auto& e : engines) ASSERT_TRUE(e->Commit().ok()) << e->name();
    }
    if (step % 37 == 0) interesting_sys.push_back(ts);
    // Occasionally run maintenance (System C merge) mid-stream.
    if (step % 97 == 0) {
      for (auto& e : engines) e->Maintain();
    }
  }

  // Replay every WAL into a fresh engine of the same architecture. The
  // reports must be clean (no dropped ops, no torn tail) and the recovered
  // clocks must match exactly, so time-travel queries agree below.
  std::vector<std::unique_ptr<TemporalEngine>> recovered;
  for (size_t i = 0; i < engines.size(); ++i) {
    std::unique_ptr<TemporalEngine> r;
    RecoveryReport report;
    Status st = RecoverEngine(AllEngineLetters()[i], wal_paths[i], &r, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(0u, report.ops_dropped) << report.ToString();
    EXPECT_FALSE(report.tail_dropped) << report.ToString();
    // Failed ops (NotFound) consume a commit tick but are never logged, so
    // the recovered clock may lag the original — but never run ahead, and
    // never behind the last durable commit. Durable mutation timestamps
    // themselves are compared exactly by the All-time queries below.
    ASSERT_GE(engines[i]->Now().micros(), r->Now().micros())
        << r->name() << " recovered clock ran ahead";
    ASSERT_GE(r->Now().micros(), report.last_commit_ts)
        << r->name() << " recovered clock behind last durable commit";
    recovered.push_back(std::move(r));
  }
  std::vector<TemporalEngine*> checked;
  for (auto& e : engines) checked.push_back(e.get());
  for (auto& r : recovered) checked.push_back(r.get());

  // Random temporal queries: engines (original and recovered) vs model.
  const int64_t now = model_clock.Now().micros();
  for (int trial = 0; trial < 60; ++trial) {
    TemporalScanSpec spec;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        spec.system_time = TemporalSelector::ImplicitCurrent();
        break;
      case 1:
        spec.system_time = TemporalSelector::AsOf(interesting_sys[
            static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(interesting_sys.size()) - 1))]);
        break;
      case 2: {
        int64_t a = interesting_sys[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(interesting_sys.size()) - 1))];
        spec.system_time = TemporalSelector::Between(a, now + 1);
        break;
      }
      default:
        spec.system_time = TemporalSelector::All();
        break;
    }
    switch (rng.UniformInt(0, 2)) {
      case 0:
        spec.app_time = TemporalSelector::AsOf(rng.UniformInt(0, 500));
        break;
      case 1: {
        int64_t a = rng.UniformInt(0, 400);
        spec.app_time = TemporalSelector::Between(a, a + rng.UniformInt(1, 200));
        break;
      }
      default:
        spec.app_time = TemporalSelector::All();
        break;
    }
    int64_t key = rng.Bernoulli(0.4)
                      ? keys[static_cast<size_t>(rng.UniformInt(
                            0, static_cast<int64_t>(keys.size()) - 1))]
                      : -1;
    std::vector<Row> expect = Canonical(model.Query(spec, now, key));
    for (TemporalEngine* e : checked) {
      ScanRequest req;
      req.table = "ITEM";
      req.temporal = spec;
      if (key >= 0) req.equals = {{0, Value(key)}};
      std::vector<Row> got;
      e->Scan(req, [&](const Row& row) {
        got.push_back(row);
        return true;
      });
      got = Canonical(std::move(got));
      ASSERT_EQ(expect.size(), got.size())
          << e->name() << " trial " << trial << " sys="
          << spec.system_time.ToString() << " app=" << spec.app_time.ToString();
      for (size_t i = 0; i < expect.size(); ++i) {
        for (size_t c = 0; c < expect[i].size(); ++c) {
          ASSERT_EQ(0, expect[i][c].Compare(got[i][c]))
              << e->name() << " trial " << trial << " row " << i << " col "
              << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bih
