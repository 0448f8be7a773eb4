// Audit scenario: trace the evolution of individual records through the
// generated TPC-BiH history — the pure-key ("audit") query class.
//
// Shows: loading the benchmark workload, finding the most-updated customer,
// key-in-time queries along each axis, Top-N version access, and comparing
// two snapshots of the same record.
#include <cstdio>

#include "workload/context.h"
#include "workload/queries.h"
#include "tpch/schema.h"

using namespace bih;

int main() {
  WorkloadConfig cfg;
  cfg.engine_letter = "A";
  cfg.h = 0.002;   // small TPC-H population
  cfg.m = 0.004;   // 4000 update scenarios
  cfg.seed = 7;
  std::printf("loading TPC-BiH workload (h=%.3f, m=%.3f)...\n", cfg.h, cfg.m);
  WorkloadContext ctx = BuildWorkload(cfg);
  TemporalEngine& db = *ctx.engine;

  // Tuning: the audit queries live on key access; add the Key+Time indexes.
  Status st = ApplyIndexSetting(db, IndexSetting::kKeyTime);
  BIH_CHECK_MSG(st.ok(), st.ToString());

  std::printf("auditing customer %lld (the most-updated key)\n\n",
              static_cast<long long>(ctx.hot_custkey));

  // Full system-time history of the record: every stored version.
  TemporalScanSpec full;
  full.system_time = TemporalSelector::All();
  full.app_time = TemporalSelector::All();
  Rows versions = K1(db, ctx.hot_custkey, full);
  const int sys_from = db.GetTableDef("CUSTOMER").schema.num_columns();
  std::printf("%zu versions on record:\n", versions.size());
  for (const Row& v : versions) {
    std::printf("  balance %10.2f  recorded at %s\n",
                v[customer::kAcctBal].AsDouble(),
                v[static_cast<size_t>(sys_from)].AsTimestamp().ToString().c_str());
  }
  // The access path behind K1: issue its key scan directly, pointing the
  // request at our own counters.
  ScanRequest key_scan;
  key_scan.table = "CUSTOMER";
  key_scan.temporal = full;
  key_scan.equals = {{customer::kCustKey, Value(ctx.hot_custkey)}};
  ExecStats stats;
  key_scan.stats = &stats;
  db.Scan(key_scan, [](const Row&) { return true; });
  std::printf("(index used: %s; %llu rows examined)\n\n",
              stats.used_index ? stats.index_name.c_str() : "none",
              static_cast<unsigned long long>(stats.rows_examined));

  // The latest three versions (K4) — "who changed this last?"
  Rows latest = K4(db, ctx.hot_custkey, full, 3);
  std::printf("latest %zu changes, newest first:\n", latest.size());
  for (const Row& v : latest) {
    std::printf("  balance %10.2f at %s\n", v[customer::kAcctBal].AsDouble(),
                v[static_cast<size_t>(sys_from)].AsTimestamp().ToString().c_str());
  }

  // The version directly before the newest one (K5): the classic
  // "what did it say before the last change" audit question.
  Rows prev = K5(db, ctx.hot_custkey, full);
  if (!prev.empty()) {
    std::printf("\nbefore the last change the balance was %.2f\n",
                prev[0][customer::kAcctBal].AsDouble());
  }

  // Value-based audit (K6): which customers ever had a balance beyond
  // 9900 at any point of the recorded history?
  TemporalScanSpec sys_axis;
  sys_axis.system_time = TemporalSelector::All();
  Rows rich = K6(db, 9900.0, sys_axis);
  std::printf("\n%zu versions across all customers recorded a balance over "
              "9900\n",
              rich.size());

  // Cross-check: the balance as of mid-history vs now.
  Rows then = K1(db, ctx.hot_custkey,
                 TemporalScanSpec::SystemAsOf(ctx.sys_mid.micros()));
  Rows now = K1(db, ctx.hot_custkey, TemporalScanSpec::Current());
  if (!then.empty() && !now.empty()) {
    std::printf("\nbalance mid-history: %.2f   balance now: %.2f\n",
                then[0][customer::kAcctBal].AsDouble(),
                now[0][customer::kAcctBal].AsDouble());
  }
  return 0;
}
