#ifndef TPCBIH_WORKLOAD_QUERIES_H_
#define TPCBIH_WORKLOAD_QUERIES_H_

#include <string>
#include <vector>

#include "exec/plan.h"
#include "temporal/timeline.h"
#include "workload/context.h"

namespace bih {

// The synthetic query classes of the benchmark (Section 3.3). Every
// function returns the materialized result so tests can assert semantics;
// benches time the calls. Unless noted, parameters follow the paper's
// choices (e.g., T1 on PARTSUPP because its current cardinality is stable,
// T2 on ORDERS because it grows).
//
// Each query is SQL text from one table in queries.cc, run through
// sql::ExecuteSql: the parse -> bind -> OptimizePlan -> Execute path the
// network server runs. What the grammar cannot say is C++ over rows read
// that way: R2's duration CASE, R3's boundary loop and timeline sweep, R7's
// previous-version correlation and K5's correlated subquery. R4 joins two
// SQL-planned grouped accesses in a hand-built plan (derived tables).

// ---- Time travel (T) -------------------------------------------------

// ALL / T5: complete history of ORDERS (upper bound for one-table queries).
Rows QueryAll(TemporalEngine& engine);

// T1: point-point time travel on PARTSUPP; returns {avg(supplycost), count}.
Rows T1(TemporalEngine& engine, const TemporalScanSpec& spec);

// T2: point-point time travel on ORDERS; returns {avg(totalprice), count}.
Rows T2(TemporalEngine& engine, const TemporalScanSpec& spec);

// T3: two time travels on the same table (CUSTOMER balances at two
// application times, joined by key); returns rows whose balance changed.
Rows T3(TemporalEngine& engine, int64_t app_t1, int64_t app_t2);

// T4: time travel with early stop (first n qualifying orders).
Rows T4(TemporalEngine& engine, const TemporalScanSpec& spec, size_t n);

// T6: temporal slicing on ORDERS; one dimension pinned, the other fully
// retrieved. Returns {avg(totalprice), count}.
Rows T6AppPointSysAll(TemporalEngine& engine, int64_t app_point);
Rows T6SysPointAppAll(TemporalEngine& engine, Timestamp sys_point);

// T7: current time travel, implicit (no system-time clause) vs explicit
// (AS OF <now>); identical answers, different plans (Fig. 6).
Rows T7Implicit(TemporalEngine& engine);
Rows T7Explicit(TemporalEngine& engine);

// T8/T9: simulated application time — the application-time constraint is
// issued as plain value predicates on the period columns instead of a
// temporal clause. T8 = point (like T2), T9 = slice (like T6).
Rows T8SimulatedAppPoint(TemporalEngine& engine, int64_t app_point,
                         const TemporalSelector& sys);
Rows T9SimulatedAppSlice(TemporalEngine& engine, int64_t app_point);

// ---- Pure-key / audit (K) --------------------------------------------

// K1: full history of one customer; ordered by system-time start.
Rows K1(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec);

// K2: K1 restricted to a temporal range (pass a range selector in `spec`).
Rows K2(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec);

// K3: K2 returning a single column (projection pushdown).
Rows K3(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec);

// K4: latest n versions (Top-N over the version count).
Rows K4(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec,
        size_t n);

// K5: the version directly preceding the latest one, found by timestamp
// correlation (the self-join formulation the paper uses).
Rows K5(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec);

// K6: history of customers selected by value: acctbal >= lo.
Rows K6(TemporalEngine& engine, double lo, const TemporalScanSpec& spec);

// ---- Range-timeslice (R) ----------------------------------------------

// R1: state changes of ORDERS along system time (status transitions).
Rows R1(TemporalEngine& engine);

// R2: state durations — time each order spent in status 'O' (system time).
Rows R2(TemporalEngine& engine);

// R3: temporal aggregation over ORDERS totalprice: a new result row per
// change point. `naive` follows the SQL:2011 formulation the paper had to
// use (boundary extraction + per-boundary evaluation); otherwise a
// timeline-sweep implementation (the operator DBMSs lack).
Rows R3(TemporalEngine& engine, TemporalAggKind kind, bool naive);

// R4: parts with the smallest difference in stock level over the history.
Rows R4(TemporalEngine& engine, size_t top_n);

// R5: temporal join — customers with balance < `balance_lim` while having
// active orders with totalprice > `price_lim` (system-time correlation).
Rows R5(TemporalEngine& engine, double balance_lim, double price_lim);

// R6: temporal aggregation combined with a join of two temporal tables:
// per nation, count of customer versions active at each order state change.
Rows R6(TemporalEngine& engine);

// R7: suppliers who increased a supply cost by more than `pct` percent in
// one update (previous-version correlation over the full key set).
Rows R7(TemporalEngine& engine, double pct);

// ---- Bitemporal dimension queries (B3.x, Table 3) ----------------------

// variant 0 is the non-temporal self-join baseline B3; 1..11 are the
// bitemporal combinations of Table 3.
Rows B3(TemporalEngine& engine, int variant, int64_t partkey,
        int64_t app_point, Timestamp sys_past);

// ---- The SQL text -------------------------------------------------------

// The text a query function runs, parameters bound, so EXPLAIN shows the
// plan a bench times: `spec` renders as the FOR SYSTEM_TIME / FOR
// BUSINESS_TIME clauses of the queried table, `values` as literals. Names:
// T1; T2 (also ALL, T6 and T7); T3; T4; T8 (also T9); K1 (also K2); K3; K4;
// K5.latest and K5.previous; K6; R1; R2; R3; R4.min and R4.max; R5; R6; R7.
// Fatal for an unknown name.
std::string QuerySql(const TemporalEngine& engine, const std::string& name,
                     const TemporalScanSpec& spec = {},
                     const std::vector<Value>& values = {});

// B3's text for one Table 3 variant: the variant picks the temporal clauses
// and the correlation predicates.
std::string B3Sql(const TemporalEngine& engine, int variant, int64_t partkey,
                  int64_t app_point, Timestamp sys_past);

}  // namespace bih

#endif  // TPCBIH_WORKLOAD_QUERIES_H_
