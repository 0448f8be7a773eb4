// Parallel-join scaling sweep (the Fig. 7 temporal-join axis, asked of the
// morsel executor): the CUSTOMER-ORDERS sort-merge join plus a grouped
// aggregation over the full version history, executed through the plan tree
// at 1, 2, 4 and 8 threads. Every lane's rows are checked byte-identical to
// the serial lane before its timing counts — a lane that diverges is a
// correctness bug, not a data point.
//
// A second pair of lanes runs the same filtered join unoptimized vs through
// OptimizePlan, reporting rows_examined for both: the optimizer's pruning
// claim (temporal rewrite + pushdown + scan folding) as a number the
// artifact diff can watch.
//
// A third set of lanes times two served queries of the history_analytics
// workload on System C, planned and run through OptimizePlan, at 1, 2 and 4
// threads: the T6 slice (an ungrouped AVG/COUNT straight over a parallel
// scan) and the AS OF CUSTOMER-ORDERS revenue by nation (the hash join
// whose build side and row assembly the column demand narrows). With more
// than one thread both run as morsel pipelines on the scanning workers.
// These lanes are reported, never gated.
//
// Knobs: BIH_JSCALE_H / BIH_JSCALE_M workload scale (0.02), BIH_JSCALE_REPS
// timed repetitions per lane (3). Output: a human table plus
// BENCH_join_scaling.json (path via BIH_JOIN_SCALING_JSON). With
// BIH_JSCALE_GATE=1 the process fails (exit 1) unless the 4-thread lane
// reaches BIH_JSCALE_MIN_SPEEDUP (default 2.0x) over serial — the
// acceptance gate for the parallel join/aggregation path.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/optimizer.h"
#include "exec/parallel.h"
#include "exec/plan.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tpch/schema.h"
#include "workload/context.h"

namespace bih {
namespace bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double x = std::atof(v);
    if (x > 0.0) return x;
  }
  return fallback;
}

int EnvInt(const char* name, int fallback, int lo, int hi) {
  if (const char* v = std::getenv(name)) {
    const int x = std::atoi(v);
    if (x >= lo && x <= hi) return x;
  }
  return fallback;
}

TemporalScanSpec FullHistory() {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  return spec;
}

ScanRequest Req(const char* table) {
  ScanRequest req;
  req.table = table;
  req.temporal = FullHistory();
  // The scans are pinned serial in every lane: this bench measures the
  // join/aggregation operators, so the (identical) input production cost
  // must not move between lanes. Per-scan options win over the
  // Execute-level ones by the MergeExecOptions contract.
  req.exec.scan_threads = 1;
  return req;
}

// The measured tree: full-history merge join feeding a grouped aggregation
// — both parallel operators in one pipeline, like the paper's temporal-join
// queries.
PlanPtr JoinAggPlan() {
  return AggregatePlan(
      MergeJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                    {customer::kCustKey}, {orders::kCustKey}),
      {customer::kNationKey},
      // CUSTOMER's scan width is 9 user + 2 system columns.
      {{AggKind::kSum, Col(11 + orders::kTotalPrice)},
       {AggKind::kCount, nullptr}});
}

bool SameRows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!(a[r][c] == b[r][c])) return false;
    }
  }
  return true;
}

uint64_t TotalExamined(const PlanNode& n) {
  uint64_t sum = n.stats.scan.rows_examined;
  for (const PlanPtr& c : n.children) sum += TotalExamined(*c);
  return sum;
}

const PlanNode* FindNode(const PlanNode& n, PlanNode::Kind kind) {
  if (n.kind == kind) return &n;
  for (const PlanPtr& c : n.children) {
    if (const PlanNode* hit = FindNode(*c, kind)) return hit;
  }
  return nullptr;
}

// One served query's lanes: plans `text` through OptimizePlan and times it
// at 1, 2 and 4 threads after checking each lane against the serial rows.
// Writes the lanes as one JSON object to *json; returns false on a failed
// run or a diverging lane.
bool ServedLanes(TemporalEngine& eng, const std::string& label,
                 const std::string& text, int reps, ScanScheduler* pool,
                 std::string* json) {
  sql::SelectStatement stmt;
  PlanPtr plan;
  std::vector<std::string> columns;
  if (!sql::ParseSelect(text, &stmt).ok() ||
      !sql::PlanSelect(eng, stmt, &plan, &columns).ok()) {
    std::fprintf(stderr, "served %s: planning failed\n", label.c_str());
    return false;
  }
  OptimizePlan(&plan, eng);

  ExecOptions serial;
  serial.scan_threads = 1;
  Rows want;
  if (!Execute(*plan, eng, serial, nullptr, &want).ok()) {
    std::fprintf(stderr, "served %s: serial run failed\n", label.c_str());
    return false;
  }
  // Rows into the top operator below the final projection: the joined rows
  // for the join, the scanned versions for the slice.
  const PlanNode* join = FindNode(*plan, PlanNode::Kind::kHashJoin);
  const PlanNode* counted =
      join != nullptr ? join : FindNode(*plan, PlanNode::Kind::kScan);
  const uint64_t rows = counted->stats.rows_output;
  std::printf("served %s: %llu rows into %zu output rows\n", label.c_str(),
              static_cast<unsigned long long>(rows), want.size());
  std::string lanes;
  for (int threads : {1, 2, 4}) {
    ExecOptions opts;
    opts.scan_threads = threads;
    opts.scheduler = pool;
    Rows got;
    if (!Execute(*plan, eng, opts, nullptr, &got).ok() ||
        !SameRows(want, got)) {
      std::fprintf(stderr, "served %s: %d-thread lane diverged\n",
                   label.c_str(), threads);
      return false;
    }
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!Execute(*plan, eng, opts, nullptr, &got).ok()) return false;
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    const double mrows_s =
        best_ms > 0.0 ? static_cast<double>(rows) / best_ms / 1000.0 : 0.0;
    std::printf("served %-5s %d thread(s)  %9.2f ms  %8.2f Mrows/s\n",
                label.c_str(), threads, best_ms, mrows_s);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%d,\"best_ms\":%.3f,\"mrows_per_s\":%.3f}",
                  lanes.empty() ? "" : ",", threads, best_ms, mrows_s);
    lanes += buf;
  }
  *json = "{\"engine\":\"C\",\"rows\":" + std::to_string(rows) +
          ",\"lanes\":[" + lanes + "]}";
  return true;
}

// The served lanes over one System C instance: the T6 slice at system time
// `t`, all application time, and the AS OF join by nation at `t`.
bool ServedQueryLanes(double h, double m, int reps, ScanScheduler* pool,
                      std::string* t6_json, std::string* join_json) {
  WorkloadConfig cfg;
  cfg.engine_letter = "C";
  cfg.h = h;
  cfg.m = m;
  cfg.seed = 42;
  std::printf("served: building workload (h=%.4f, m=%.4f, System C)...\n", h,
              m);
  WorkloadContext ctx = BuildWorkload(cfg);
  TemporalEngine& eng = ctx.eng();
  const std::string t = std::to_string(ctx.sys_mid.micros());
  return ServedLanes(eng, "t6",
                     "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                     "FOR SYSTEM_TIME AS OF " + t + " FOR BUSINESS_TIME ALL",
                     reps, pool, t6_json) &&
         ServedLanes(eng, "join",
                     "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM "
                     "CUSTOMER FOR SYSTEM_TIME AS OF " + t +
                         " c JOIN ORDERS FOR SYSTEM_TIME AS OF " + t +
                         " o ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY "
                         "ORDER BY C_NATIONKEY",
                     reps, pool, join_json);
}

int Run() {
  const double h = EnvDouble("BIH_JSCALE_H", 0.02);
  const double m = EnvDouble("BIH_JSCALE_M", 0.02);
  const int reps = EnvInt("BIH_JSCALE_REPS", 3, 1, 100);

  WorkloadConfig cfg;
  cfg.engine_letter = "A";
  cfg.h = h;
  cfg.m = m;
  cfg.seed = 42;
  std::printf("bench_join_scaling: building workload (h=%.4f, m=%.4f, "
              "System A)...\n", h, m);
  WorkloadContext ctx = BuildWorkload(cfg);
  TemporalEngine& eng = ctx.eng();
  ScanScheduler pool(7);

  PlanPtr plan = JoinAggPlan();

  // Serial baseline: rows, per-rep wall time, and the row count that turns
  // times into throughput.
  ExecOptions serial;
  serial.scan_threads = 1;
  Rows want;
  if (!Execute(*plan, eng, serial, nullptr, &want).ok()) {
    std::fprintf(stderr, "serial run failed\n");
    return 1;
  }
  const uint64_t joined = plan->children[0]->stats.rows_output;
  std::printf("join output %llu rows into %zu groups; %d reps/lane\n",
              static_cast<unsigned long long>(joined), want.size(), reps);

  std::string json_lanes;
  double serial_ms = 0.0, speedup4 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    ExecOptions opts;
    opts.scan_threads = threads;
    opts.scheduler = &pool;
    Rows got;
    // Correctness first: the lane's output must match serial exactly.
    if (!Execute(*plan, eng, opts, nullptr, &got).ok() ||
        !SameRows(want, got)) {
      std::fprintf(stderr, "%d-thread lane diverged from serial output\n",
                   threads);
      return 1;
    }
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!Execute(*plan, eng, opts, nullptr, &got).ok()) return 1;
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) serial_ms = best_ms;
    const double speedup = best_ms > 0.0 ? serial_ms / best_ms : 0.0;
    if (threads == 4) speedup4 = speedup;
    const double mrows_s =
        best_ms > 0.0 ? static_cast<double>(joined) / best_ms / 1000.0 : 0.0;
    std::printf("%2d threads  %9.2f ms  %8.2f Mrows/s  speedup %.2fx\n",
                threads, best_ms, mrows_s, speedup);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%d,\"best_ms\":%.3f,\"mrows_per_s\":%.3f,"
                  "\"speedup\":%.3f}",
                  json_lanes.empty() ? "" : ",", threads, best_ms, mrows_s,
                  speedup);
    json_lanes += buf;
  }

  // Optimizer lanes: the same join under a filter carrying a visibility
  // predicate, a sargable key equality and a pushable conjunct — run raw,
  // then through OptimizePlan. rows_examined is the pruning claim: the
  // equality folds into the left scan (index path), the visibility pair
  // rewrites the right scan to AS OF.
  const int width = eng.ScanSchema("ORDERS").num_columns();
  const Value t(ctx.sys_mid.micros());
  auto filtered = [&]() {
    return FilterPlan(
        HashJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                     {customer::kCustKey}, {orders::kCustKey}, 14),
        And(And(Le(Col(11 + width - 2), Lit(t)),
                Gt(Col(11 + width - 1), Lit(t))),
            And(Eq(Col(customer::kCustKey), Lit(ctx.hot_custkey)),
                Gt(Col(customer::kAcctBal), Lit(0.0)))));
  };
  PlanPtr unopt = filtered();
  Rows uo = RunPlan(*unopt, eng);
  const uint64_t examined_unopt = TotalExamined(*unopt);
  PlanPtr opt = filtered();
  OptimizerReport rep;
  OptimizePlan(&opt, eng, &rep);
  Rows oo = RunPlan(*opt, eng);
  const uint64_t examined_opt = TotalExamined(*opt);
  if (!SameRows(uo, oo)) {
    std::fprintf(stderr, "optimized plan diverged from unoptimized output\n");
    return 1;
  }
  std::printf("optimizer: rows_examined %llu -> %llu (%s)\n",
              static_cast<unsigned long long>(examined_unopt),
              static_cast<unsigned long long>(examined_opt),
              rep.ToString().c_str());

  std::string t6_json, join_json;
  if (!ServedQueryLanes(h, m, reps, &pool, &t6_json, &join_json)) return 1;

  const char* path = std::getenv("BIH_JOIN_SCALING_JSON");
  const std::string out = path != nullptr ? path : "BENCH_join_scaling.json";
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\"bench\":\"join_scaling\",\"h\":%.4f,\"m\":%.4f,\"join_rows\":%llu,"
      "\"speedup_at_4\":%.3f,\"lanes\":[%s],\"optimizer\":{"
      "\"rows_examined_unopt\":%llu,\"rows_examined_opt\":%llu,"
      "\"predicates_pushed\":%d,\"conjuncts_folded\":%d,"
      "\"temporal_rewrites\":%d,\"scans_pruned\":%d},\"served_t6\":%s,"
      "\"served_join\":%s}\n",
      h, m, static_cast<unsigned long long>(joined), speedup4,
      json_lanes.c_str(), static_cast<unsigned long long>(examined_unopt),
      static_cast<unsigned long long>(examined_opt), rep.predicates_pushed,
      rep.conjuncts_folded, rep.temporal_rewrites, rep.scans_pruned,
      t6_json.c_str(), join_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  if (EnvInt("BIH_JSCALE_GATE", 0, 0, 1) == 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      // A 4-thread speedup target is unmeetable on fewer than 4 hardware
      // threads; report loudly instead of failing on a starved machine.
      std::printf("gate skipped: only %u hardware thread(s) available\n", hw);
      return 0;
    }
    const double min = EnvDouble("BIH_JSCALE_MIN_SPEEDUP", 2.0);
    if (speedup4 < min) {
      std::fprintf(stderr,
                   "GATE FAILED: %.2fx at 4 threads (required >= %.2fx)\n",
                   speedup4, min);
      return 1;
    }
    std::printf("gate passed: %.2fx at 4 threads (required >= %.2fx)\n",
                speedup4, min);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() { return bih::bench::Run(); }
