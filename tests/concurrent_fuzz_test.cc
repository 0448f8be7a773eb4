// Concurrent differential test: a writer thread replays a random mutation
// sequence through the session layer while reader threads pin snapshots and
// scan. Every read is checked against the brute-force reference model
// evaluated *at the pinned watermark* — the model is fully built before the
// threads start (the operation sequence is deterministic and the commit
// clock ticks in lockstep), so the reference itself is immutable and the
// comparison needs no synchronization with the writer.
//
// A version that is open at watermark w but closed by a later write stores
// a SYS_TIME_END past w; the session layer rewrites that to "forever" when
// serving snapshot w, and the model's output is normalized the same way.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/recovery.h"
#include "reference_model.h"
#include "server/session.h"
#include "temporal/clock.h"

namespace bih {
namespace {

struct Op {
  enum Kind {
    kInsert,
    kUpdateCurrent,
    kSeqUpdate,
    kOverwrite,
    kSeqDelete,
    kDeleteCurrent
  };
  Kind kind = kInsert;
  Row row;      // kInsert
  int64_t id = 0;
  std::vector<ColumnAssignment> set;
  Period window{0, 0};
  bool expect_ok = true;
};

// Builds the deterministic op sequence and applies it to the model with a
// lockstep commit clock (one tick per op, exactly like the engines' DML
// entry points — failed statements consume a tick too).
std::vector<Op> BuildOps(uint64_t seed, Model* model,
                         std::vector<int64_t>* commit_ts,
                         std::vector<int64_t>* keys) {
  Rng rng(seed);
  CommitClock clock;
  std::vector<Op> ops;
  int64_t next_key = 1;
  const int kOps = 250;
  for (int step = 0; step < kOps; ++step) {
    int choice = static_cast<int>(rng.UniformInt(0, 9));
    int64_t ts = clock.NextCommit().micros();
    commit_ts->push_back(ts);
    Op op;
    if (choice <= 3 || keys->empty()) {
      int64_t id = next_key++;
      int64_t vb = rng.UniformInt(0, 300);
      int64_t ve = rng.Bernoulli(0.3) ? Period::kForever
                                      : vb + rng.UniformInt(1, 200);
      op.kind = Op::kInsert;
      op.row = Row{Value(id), Value(double(rng.UniformInt(1, 1000))),
                   Value(rng.Bernoulli(0.5) ? "x" : "y"), Value(vb),
                   Value(ve)};
      model->Insert(op.row, ts);
      keys->push_back(id);
    } else {
      op.id = (*keys)[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys->size()) - 1))];
      op.set = {{1, Value(double(rng.UniformInt(1, 1000)))}};
      int64_t wb = rng.UniformInt(0, 400);
      op.window = Period(wb, rng.Bernoulli(0.3) ? Period::kForever
                                                : wb + rng.UniformInt(1, 150));
      switch (choice) {
        case 4:
        case 5:
          op.kind = Op::kUpdateCurrent;
          op.expect_ok = model->UpdateCurrent(op.id, op.set, ts);
          break;
        case 6:
          op.kind = Op::kSeqUpdate;
          op.expect_ok = model->Sequenced(op.id, op.window, op.set,
                                          SequencedOp::kUpdate, ts);
          break;
        case 7:
          op.kind = Op::kOverwrite;
          op.expect_ok = model->Sequenced(op.id, op.window, op.set,
                                          SequencedOp::kOverwrite, ts);
          break;
        case 8:
          op.kind = Op::kSeqDelete;
          op.expect_ok = model->Sequenced(op.id, op.window, {},
                                          SequencedOp::kDelete, ts);
          break;
        default:
          op.kind = Op::kDeleteCurrent;
          op.expect_ok = model->DeleteCurrent(op.id, ts);
          break;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Status ApplyOp(TemporalEngine& e, const Op& op) {
  switch (op.kind) {
    case Op::kInsert:
      return e.Insert("ITEM", op.row);
    case Op::kUpdateCurrent:
      return e.UpdateCurrent("ITEM", {Value(op.id)}, op.set);
    case Op::kSeqUpdate:
      return e.UpdateSequenced("ITEM", {Value(op.id)}, 0, op.window, op.set);
    case Op::kOverwrite:
      return e.UpdateOverwrite("ITEM", {Value(op.id)}, 0, op.window, op.set);
    case Op::kSeqDelete:
      return e.DeleteSequenced("ITEM", {Value(op.id)}, 0, op.window);
    case Op::kDeleteCurrent:
      return e.DeleteCurrent("ITEM", {Value(op.id)});
  }
  return Status::Internal("unreachable");
}

// Model rows for versions still open at `w` carry their final close time;
// map anything past the watermark back to forever (the engine side of the
// comparison is normalized identically by the session layer).
std::vector<Row> NormalizeAtWatermark(std::vector<Row> rows, int64_t w) {
  for (Row& r : rows) {
    if (!r.empty() && r.back().is_int() && r.back().AsInt() > w) {
      r.back() = Value(Period::kForever);
    }
  }
  return rows;
}

class ConcurrentFuzzTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Engines, ConcurrentFuzzTest,
                         ::testing::ValuesIn(AllEngineLetters()));

TEST_P(ConcurrentFuzzTest, SnapshotReadsMatchModelUnderConcurrentWrites) {
  const uint64_t seed = 7;
  Model model;
  std::vector<int64_t> commit_ts;
  std::vector<int64_t> keys;
  std::vector<Op> ops = BuildOps(seed, &model, &commit_ts, &keys);

  std::unique_ptr<TemporalEngine> engine = MakeEngine(GetParam());
  ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
  // Give the manager a worker pool so reads may fan morsels out; each read
  // below picks its own width, proving pinned-snapshot semantics survive
  // intra-query parallelism at any setting.
  SessionConfig scfg;
  scfg.scan_threads = 8;
  SessionManager server(engine.get(), scfg);

  std::thread writer([&] {
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st =
          server.Write([&](TemporalEngine& e) { return ApplyOp(e, ops[i]); });
      EXPECT_EQ(ops[i].expect_ok, st.ok())
          << "op " << i << ": " << st.ToString();
      // Occasional mid-stream maintenance (System C delta merge) — it does
      // not consume a commit tick, so the clocks stay in lockstep.
      if (i % 83 == 82) {
        Status maint_st = server.Write([](TemporalEngine& e) {
          e.Maintain();
          return Status::OK();
        });
        EXPECT_TRUE(maint_st.ok()) << maint_st.ToString();
      }
    }
  });

  constexpr int kReaders = 3;
  constexpr int kReadsEach = 80;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed * 31 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsEach; ++i) {
        SessionManager::Snapshot snap = server.OpenSnapshot();
        const int64_t w = snap.watermark;
        auto pick_ts = [&] {
          return commit_ts[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(commit_ts.size()) - 1))];
        };
        TemporalScanSpec spec;
        switch (rng.UniformInt(0, 2)) {
          case 0:
            spec.system_time = TemporalSelector::AsOf(pick_ts());
            break;
          case 1: {
            int64_t a = pick_ts(), b = pick_ts();
            if (a > b) std::swap(a, b);
            spec.system_time = TemporalSelector::Between(a, b + 1);
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
            spec.app_time =
                TemporalSelector::Between(a, a + rng.UniformInt(1, 200));
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

        ScanRequest req;
        req.table = "ITEM";
        req.temporal = spec;
        if (key >= 0) req.equals = {{0, Value(key)}};
        // Random intra-query parallelism per read (1 = serial path).
        req.exec.scan_threads = static_cast<int>(rng.UniformInt(1, 8));
        req.exec.morsel_size = static_cast<uint64_t>(rng.UniformInt(1, 96));
        std::vector<Row> got;
        Status st = server.ReadAt(snap, req, nullptr, &got);
        ASSERT_TRUE(st.ok()) << st.ToString();
        got = Canonical(std::move(got));

        // Reference: the *final* model queried with the same clamped
        // selector — versions born after the watermark cannot match, so
        // this is exactly the state at the snapshot.
        TemporalScanSpec model_spec = spec;
        model_spec.system_time =
            SessionManager::ClampToWatermark(spec.system_time, w);
        std::vector<Row> expect = Canonical(
            NormalizeAtWatermark(model.Query(model_spec, w, key), w));

        ASSERT_EQ(expect.size(), got.size())
            << "reader " << t << " read " << i << " w=" << w
            << " sys=" << spec.system_time.ToString()
            << " app=" << spec.app_time.ToString() << " key=" << key;
        for (size_t r = 0; r < expect.size(); ++r) {
          for (size_t c = 0; c < expect[r].size(); ++c) {
            EXPECT_EQ(0, expect[r][c].Compare(got[r][c]))
                << "reader " << t << " read " << i << " row " << r << " col "
                << c;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  // After the writer finished, the latest snapshot must equal the full
  // final model verbatim.
  ScanRequest all;
  all.table = "ITEM";
  all.temporal.system_time = TemporalSelector::All();
  all.temporal.app_time = TemporalSelector::All();
  std::vector<Row> got;
  ASSERT_TRUE(server.Read(all, nullptr, &got).ok());
  const int64_t w = server.OpenSnapshot().watermark;
  std::vector<Row> expect =
      Canonical(NormalizeAtWatermark(model.Query(all.temporal, w, -1), w));
  got = Canonical(std::move(got));
  ASSERT_EQ(expect.size(), got.size());
  for (size_t r = 0; r < expect.size(); ++r) {
    for (size_t c = 0; c < expect[r].size(); ++c) {
      ASSERT_EQ(0, expect[r][c].Compare(got[r][c])) << "row " << r;
    }
  }
}

// --- Multi-writer differential fuzz -----------------------------------
//
// N writer threads drive disjoint key ranges through the session's keyed
// (sharded) write admission while readers pin snapshots, against a
// WAL-attached engine with group commit on — the production write path.
// The interleaving is nondeterministic, so the reference model cannot be
// prebuilt; instead every write records its engine-assigned commit
// timestamp *inside the exclusive-lock section*, and after the threads
// join the ops are sorted by that timestamp and replayed through the model
// in the exact serialization order the session chose. Final state, every
// pinned-snapshot read captured during the run, and the state recovered
// from the WAL must all match the model byte-for-byte.

// One writer's deterministic op script over its own key range. Targets are
// always keys this writer inserted, so cross-writer conflicts cannot
// exist by construction (that is the point: disjoint ranges land on
// distinct admission shards with high probability and commit unserialized
// against each other).
std::vector<Op> BuildWriterOps(uint64_t seed, int64_t key_base, int n) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<int64_t> keys;
  int64_t next_key = key_base;
  for (int step = 0; step < n; ++step) {
    int choice = static_cast<int>(rng.UniformInt(0, 9));
    Op op;
    if (choice <= 4 || keys.empty()) {
      int64_t id = next_key++;
      int64_t vb = rng.UniformInt(0, 300);
      int64_t ve =
          rng.Bernoulli(0.3) ? Period::kForever : vb + rng.UniformInt(1, 200);
      op.kind = Op::kInsert;
      op.row = Row{Value(id), Value(double(rng.UniformInt(1, 1000))),
                   Value(rng.Bernoulli(0.5) ? "x" : "y"), Value(vb),
                   Value(ve)};
      keys.push_back(id);
    } else {
      op.id = keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
      op.set = {{1, Value(double(rng.UniformInt(1, 1000)))}};
      int64_t wb = rng.UniformInt(0, 400);
      op.window = Period(wb, rng.Bernoulli(0.3) ? Period::kForever
                                                : wb + rng.UniformInt(1, 150));
      switch (choice) {
        case 5:
        case 6:
          op.kind = Op::kUpdateCurrent;
          break;
        case 7:
          op.kind = Op::kSeqUpdate;
          break;
        case 8:
          op.kind = Op::kOverwrite;
          break;
        default:
          op.kind = Op::kDeleteCurrent;
          break;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// What one op observed when it ran: the engine's commit timestamp (read
// under the exclusive lock, where the clock ticks) and whether the DML
// succeeded. Sorting all writers' records by ts reproduces the session's
// serialization order.
struct OpTrace {
  const Op* op = nullptr;
  int64_t ts = 0;
  bool ok = false;
};

// A pinned-snapshot read captured mid-run, replayed against the model
// after it is built.
struct ReadTrace {
  int64_t w = 0;
  TemporalScanSpec spec;
  int64_t key = -1;
  std::vector<Row> rows;
};

TEST_P(ConcurrentFuzzTest, MultiWriterDisjointRangesMatchSerializedModel) {
  const std::string letter = GetParam();
  const std::string wal_path =
      ::testing::TempDir() + "/mwfuzz_" + letter + ".wal";
  std::remove(wal_path.c_str());

  constexpr int kWriters = 4;
  constexpr int kOpsEach = 110;
  std::vector<std::vector<Op>> scripts;
  for (int t = 0; t < kWriters; ++t) {
    scripts.push_back(
        BuildWriterOps(900 + static_cast<uint64_t>(t),
                       10'000 * (t + 1), kOpsEach));
  }

  Model model;
  int64_t w_final = 0;
  {
    std::unique_ptr<TemporalEngine> engine = MakeEngine(letter);
    ASSERT_TRUE(engine->EnableWal(wal_path).ok());
    ASSERT_TRUE(engine->CreateTable(FuzzItemDef()).ok());
    SessionConfig scfg;
    scfg.scan_threads = 2;
    scfg.write_shards = 8;  // the WAL is attached: group commit is armed
    SessionManager server(engine.get(), scfg);

    std::vector<std::vector<OpTrace>> traces(kWriters);
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (const Op& op : scripts[static_cast<size_t>(t)]) {
          OpTrace trace;
          trace.op = &op;
          const int64_t key_val =
              op.kind == Op::kInsert ? op.row[0].AsInt() : op.id;
          Status st = server.WriteKeyed(
              "ITEM", {Value(key_val)}, [&](TemporalEngine& e) {
                Status s = ApplyOp(e, op);
                // Under the exclusive lock: the clock ticked exactly once
                // for this DML (failures tick too), so this is the op's
                // unique position in the serialization order.
                trace.ts = e.Now().micros();
                return s;
              });
          ASSERT_TRUE(st.ok() || st.code() == Status::Code::kNotFound)
              << st.ToString();
          trace.ok = st.ok();
          traces[static_cast<size_t>(t)].push_back(trace);
        }
      });
    }

    constexpr int kReaders = 2;
    constexpr int kReadsEach = 50;
    std::vector<std::vector<ReadTrace>> observations(kReaders);
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(4000 + static_cast<uint64_t>(t));
        for (int i = 0; i < kReadsEach; ++i) {
          ReadTrace obs;
          SessionManager::Snapshot snap = server.OpenSnapshot();
          obs.w = snap.watermark;
          obs.spec.system_time = rng.Bernoulli(0.5)
                                     ? TemporalSelector::All()
                                     : TemporalSelector::AsOf(obs.w);
          obs.spec.app_time =
              rng.Bernoulli(0.5)
                  ? TemporalSelector::All()
                  : TemporalSelector::AsOf(rng.UniformInt(0, 500));
          const int wtr = static_cast<int>(rng.UniformInt(1, kWriters));
          obs.key = rng.Bernoulli(0.5)
                        ? 10'000 * wtr + rng.UniformInt(0, kOpsEach - 1)
                        : -1;
          ScanRequest req;
          req.table = "ITEM";
          req.temporal = obs.spec;
          if (obs.key >= 0) req.equals = {{0, Value(obs.key)}};
          Status st = server.ReadAt(snap, req, nullptr, &obs.rows);
          ASSERT_TRUE(st.ok()) << st.ToString();
          observations[static_cast<size_t>(t)].push_back(std::move(obs));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    for (std::thread& r : readers) r.join();

    // Serialize: commit timestamps are assigned under the exclusive lock,
    // one tick per DML, so sorting recovers the exact apply order.
    std::vector<OpTrace> serialized;
    for (const auto& tr : traces) {
      serialized.insert(serialized.end(), tr.begin(), tr.end());
    }
    std::sort(serialized.begin(), serialized.end(),
              [](const OpTrace& a, const OpTrace& b) { return a.ts < b.ts; });
    for (size_t i = 1; i < serialized.size(); ++i) {
      ASSERT_NE(serialized[i - 1].ts, serialized[i].ts)
          << "two DMLs shared a commit tick";
    }
    for (const OpTrace& trace : serialized) {
      const Op& op = *trace.op;
      bool model_ok = true;
      switch (op.kind) {
        case Op::kInsert:
          model.Insert(op.row, trace.ts);
          break;
        case Op::kUpdateCurrent:
          model_ok = model.UpdateCurrent(op.id, op.set, trace.ts);
          break;
        case Op::kSeqUpdate:
          model_ok = model.Sequenced(op.id, op.window, op.set,
                                     SequencedOp::kUpdate, trace.ts);
          break;
        case Op::kOverwrite:
          model_ok = model.Sequenced(op.id, op.window, op.set,
                                     SequencedOp::kOverwrite, trace.ts);
          break;
        case Op::kSeqDelete:
          model_ok = model.Sequenced(op.id, op.window, {},
                                     SequencedOp::kDelete, trace.ts);
          break;
        case Op::kDeleteCurrent:
          model_ok = model.DeleteCurrent(op.id, trace.ts);
          break;
      }
      ASSERT_EQ(model_ok, trace.ok)
          << "engine and model disagree on op outcome at ts " << trace.ts;
    }

    // Every write was acknowledged durable, so the watermark must cover
    // the whole serialization; group commit must actually have grouped.
    w_final = server.OpenSnapshot().watermark;
    ASSERT_GE(w_final, serialized.back().ts);
    // The engine's coordinator also acknowledged the CREATE TABLE, a group
    // of one before the session existed.
    GroupCommit::Stats gstats = server.GetGroupCommitStats();
    EXPECT_EQ(gstats.acks, static_cast<uint64_t>(kWriters) * kOpsEach + 1);
    EXPECT_GT(gstats.groups, 0u);
    EXPECT_LE(gstats.groups, gstats.acks);

    // Final state, byte-for-byte.
    ScanRequest all;
    all.table = "ITEM";
    all.temporal.system_time = TemporalSelector::All();
    all.temporal.app_time = TemporalSelector::All();
    std::vector<Row> got;
    ASSERT_TRUE(server.Read(all, nullptr, &got).ok());
    std::vector<Row> expect = Canonical(
        NormalizeAtWatermark(model.Query(all.temporal, w_final, -1), w_final));
    got = Canonical(std::move(got));
    ASSERT_EQ(expect.size(), got.size());
    for (size_t r = 0; r < expect.size(); ++r) {
      for (size_t c = 0; c < expect[r].size(); ++c) {
        ASSERT_EQ(0, expect[r][c].Compare(got[r][c])) << "final row " << r;
      }
    }

    // Every pinned-snapshot read captured mid-run, byte-for-byte: the
    // snapshot contract says each must equal the model evaluated at its
    // watermark, no matter which groups were mid-flight when it pinned.
    for (const auto& reader_obs : observations) {
      for (const ReadTrace& obs : reader_obs) {
        TemporalScanSpec clamped = obs.spec;
        clamped.system_time =
            SessionManager::ClampToWatermark(obs.spec.system_time, obs.w);
        std::vector<Row> want = Canonical(NormalizeAtWatermark(
            model.Query(clamped, obs.w, obs.key), obs.w));
        std::vector<Row> have = Canonical(obs.rows);
        ASSERT_EQ(want.size(), have.size())
            << "pinned read at w=" << obs.w << " key=" << obs.key;
        for (size_t r = 0; r < want.size(); ++r) {
          for (size_t c = 0; c < want[r].size(); ++c) {
            ASSERT_EQ(0, want[r][c].Compare(have[r][c]))
                << "pinned read w=" << obs.w << " row " << r;
          }
        }
      }
    }
  }

  // The log the group syncs produced must recover to the same state: no
  // acknowledged transaction lost, no torn group replayed.
  std::unique_ptr<TemporalEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(letter, wal_path, &recovered, &report).ok());
  ScanRequest all;
  all.table = "ITEM";
  all.temporal.system_time = TemporalSelector::All();
  all.temporal.app_time = TemporalSelector::All();
  std::vector<Row> got;
  recovered->Scan(all, [&](const Row& r) {
    got.push_back(r);
    return true;
  });
  std::vector<Row> expect = Canonical(
      NormalizeAtWatermark(model.Query(all.temporal, w_final, -1), w_final));
  got = Canonical(std::move(got));
  ASSERT_EQ(expect.size(), got.size());
  for (size_t r = 0; r < expect.size(); ++r) {
    for (size_t c = 0; c < expect[r].size(); ++c) {
      ASSERT_EQ(0, expect[r][c].Compare(got[r][c])) << "recovered row " << r;
    }
  }
}

}  // namespace
}  // namespace bih
