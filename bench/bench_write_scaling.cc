// Update-stream writer scaling: the same per-key update stream driven
// through the session layer's write path — writers on distinct admission
// shards stage under the engine lock, then share batched group-commit
// fdatasyncs — at 1, 2, 4 and 8 writer threads, each lane reported as a
// speedup over the 1-writer lane. Not a paper figure: the EDBT 2014 study
// drives a single writer; this is the question its successor would ask
// next.
//
// Durability is real: this bench never sets BIH_NO_FSYNC (and scrubs it if
// inherited), because the whole point of group commit is amortizing the
// device wait — with syncs stubbed out every lane measures the same lock.
//
// Knobs: BIH_WSCALE_OPS updates per thread (400), BIH_WSCALE_ROWS fixture
// size (512), BIH_WSCALE_SHARDS admission shards (16). Output: a human
// table plus BENCH_write_scaling.json (path via BIH_WRITE_SCALING_JSON).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "common/period.h"
#include "engine/engine.h"
#include "server/session.h"

namespace bih {
namespace bench {
namespace {

int EnvInt(const char* name, int fallback, int lo, int hi) {
  if (const char* v = std::getenv(name)) {
    const int x = std::atoi(v);
    if (x >= lo && x <= hi) return x;
  }
  return fallback;
}

std::unique_ptr<TemporalEngine> BuildEngine(int64_t rows) {
  auto engine = MakeEngine("A");
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
  if (!engine->CreateTable(def).ok()) return nullptr;
  for (int64_t i = 1; i <= rows; ++i) {
    Status st = engine->Insert(
        "ITEM", {Value(i), Value(static_cast<double>(i) * 0.5),
                 Value("n" + std::to_string(i % 89)), Value(int64_t{0}),
                 Value(Period::kForever)});
    if (!st.ok()) return nullptr;
  }
  return engine;
}

struct LaneResult {
  double ups = 0.0;          // acknowledged updates per second
  uint64_t errors = 0;
  uint64_t syncs = 0;        // device syncs the run paid
  uint64_t groups = 0;       // syncs led by a waiter
  uint64_t acks = 0;         // tickets acknowledged
  uint64_t max_group = 0;    // largest LSN advance one sync covered
};

// One measured run: `threads` writers stream UpdateCurrent over disjoint
// key stripes of the preloaded table through the sharded session path.
LaneResult RunLane(int threads, int ops, int64_t rows, int shards,
                   const std::string& wal_path) {
  LaneResult r;
  std::remove(wal_path.c_str());
  auto engine = BuildEngine(rows);
  if (engine == nullptr) return r;
  // Attach the log after the fixture load (preloading is not the measured
  // stream) but before the session, which arms group commit over it.
  if (!engine->EnableWal(wal_path).ok()) return r;

  SessionConfig cfg;
  cfg.write_shards = shards;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  SessionManager session(engine.get(), cfg);

  std::vector<uint64_t> errs(static_cast<size_t>(threads), 0);
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      // Disjoint stripes: writer t updates keys t, t+threads, t+2*threads…
      // so no two writers ever contend on one key's shard by necessity.
      for (int i = 0; i < ops; ++i) {
        const int64_t key =
            1 + (static_cast<int64_t>(t) +
                 static_cast<int64_t>(i) * threads) % rows;
        Status st = session.UpdateCurrent(
            "ITEM", {Value(key)},
            {{1, Value(static_cast<double>(i) + 0.25)}});
        if (!st.ok()) ++errs[static_cast<size_t>(t)];
      }
    });
  }
  for (auto& th : ts) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  for (uint64_t e : errs) r.errors += e;
  const uint64_t total = static_cast<uint64_t>(threads) *
                         static_cast<uint64_t>(ops) -
                         r.errors;
  r.ups = wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
  r.syncs = engine->wal() != nullptr ? engine->wal()->syncs() : 0;
  GroupCommit::Stats gs = session.GetGroupCommitStats();
  r.groups = gs.groups;
  r.acks = gs.acks;
  r.max_group = gs.max_group;
  return r;
}

int Run() {
  // Group commit only helps when the device wait is real; make sure an
  // inherited fsync stub cannot silently turn this into a lock benchmark.
  ::unsetenv("BIH_NO_FSYNC");

  const int ops = EnvInt("BIH_WSCALE_OPS", 400, 1, 1000000);
  const int64_t rows = EnvInt("BIH_WSCALE_ROWS", 512, 8, 1000000);
  const int shards = EnvInt("BIH_WSCALE_SHARDS", 16, 1, 256);
  const std::vector<int> lanes = {1, 2, 4, 8};

  std::printf("bench_write_scaling: %d updates/thread over %lld keys, "
              "%d shards, real fdatasync (System A)\n",
              ops, static_cast<long long>(rows), shards);

  std::string json_lanes;
  double base = 0.0, speedup4 = 0.0;
  for (int threads : lanes) {
    LaneResult lane = RunLane(threads, ops, rows, shards,
                              "bench_wscale_" + std::to_string(threads) +
                                  ".wal");
    if (threads == 1) base = lane.ups;
    const double speedup = base > 0.0 ? lane.ups / base : 0.0;
    if (threads == 4) speedup4 = speedup;
    std::printf("%2d writers  %9.0f upd/s (%llu syncs, %llu groups / %llu "
                "acks, max batch %llu)   speedup %.2fx\n",
                threads, lane.ups, static_cast<unsigned long long>(lane.syncs),
                static_cast<unsigned long long>(lane.groups),
                static_cast<unsigned long long>(lane.acks),
                static_cast<unsigned long long>(lane.max_group), speedup);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"threads\":%d,\"group_ups\":%.1f,\"group_syncs\":%llu,"
        "\"groups\":%llu,\"acks\":%llu,\"max_group\":%llu,\"errors\":%llu,"
        "\"speedup\":%.3f}",
        json_lanes.empty() ? "" : ",", threads, lane.ups,
        static_cast<unsigned long long>(lane.syncs),
        static_cast<unsigned long long>(lane.groups),
        static_cast<unsigned long long>(lane.acks),
        static_cast<unsigned long long>(lane.max_group),
        static_cast<unsigned long long>(lane.errors), speedup);
    json_lanes += buf;
  }

  std::printf("group commit at 4 writers: %.2fx over 1 writer\n", speedup4);

  const char* path = std::getenv("BIH_WRITE_SCALING_JSON");
  const std::string out =
      path != nullptr ? path : "BENCH_write_scaling.json";
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"write_scaling\",\"ops_per_thread\":%d,"
               "\"rows\":%lld,\"shards\":%d,\"speedup_at_4_writers\":%.3f,"
               "\"lanes\":[%s]}\n",
               ops, static_cast<long long>(rows), shards, speedup4,
               json_lanes.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() { return bih::bench::Run(); }
