#ifndef TPCBIH_EXEC_PLAN_H_
#define TPCBIH_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/aggregate.h"
#include "exec/exec_options.h"
#include "exec/expr.h"
#include "exec/rows.h"

namespace bih {

// Composable query plans over the temporal engines. A query is a tree of
// PlanNodes executed bottom-up through one entry point, Execute(); the SQL
// layer, the benchmark workloads and the examples all build trees instead
// of calling operator kernels directly (the kernels are internal to
// src/exec — bih_lint enforces the boundary).
//
// Execution is a set of push-based pipelines. Each node pushes its output
// rows one at a time into its parent's consumer: Scan, Values, Filter,
// Project, the probe side of HashJoin, IndexJoin and CrossJoin, Aggregate's
// fold and Limit run inside the engine's row callback, each reusing one
// scratch row, and a Limit that is satisfied stops the scan beneath it.
// Only pipeline breakers hold rows: the hash-join and cross-join build
// sides, both MergeJoin inputs, Sort, Distinct and the root result. A
// hash-join build side (the right input, or the left one under
// PlanNode::build_left) holds a compact payload — only the cells its joined
// rows carry, in flat chunks — and every join kind assembles just the cells
// the tree above reads (PlanNode::emit).
//
// Parallelism never changes what a consumer sees. Engine scans fan out over
// the ScanScheduler morsel pool. Where a parallel scan feeds an Aggregate's
// fold or a hash-join build through Filter, Project and hash-join probe
// stages, those operators run per morsel on the worker that scanned it,
// into per-morsel partials merged in morsel order (a morsel pipeline);
// every other consumer sees the scan's rows on the calling thread in serial
// order. Sort-merge join and the aggregation of a materialized input (an
// Aggregate over a breaker) run morsel-parallel and merge in morsel order
// too. Output rows, float sums and per-node counters are byte-identical to
// serial execution at any thread count — see the notes in plan.cc.
//
// Every producing loop consults the QueryContext passed to Execute. When
// the token trips mid-node, Execute stops and returns the context's status;
// the partial output is only valid as "the query failed".

enum class JoinType { kInner, kLeftOuter };

struct SortSpec {
  // Sort key evaluated against the input row (a plain Col(i) for column
  // sorts; SQL ORDER BY binds arbitrary expressions).
  ExprPtr key;
  bool ascending = true;
};

// Per-node execution counters, reset and refilled by every Execute run.
// For kScan and kIndexJoin nodes, `scan` carries the engine-side counters
// (rows examined, partitions touched, index choice) of the node's last
// engine access, written here through ScanRequest::stats; these match the
// serial scan exactly at any thread count.
// A node below a satisfied Limit stops early, and its counters then cover
// only the rows it produced before the stop.
struct PlanStats {
  uint64_t rows_output = 0;
  ExecStats scan;
};

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  enum class Kind {
    kScan,       // leaf: one temporal table access
    kValues,     // leaf: pre-materialized rows
    kFilter,
    kProject,
    kHashJoin,   // children: {left, right}
    kMergeJoin,  // children: {left, right}; parallel run-emission
    kIndexJoin,  // child: {left}; per-row engine probes into `index_table`
    kCrossJoin,  // children: {left, right}; optional residual predicate
    kAggregate,  // parallel partial/final aggregation
    kSort,
    kLimit,
    kDistinct,
  };

  Kind kind;
  std::vector<PlanPtr> children;

  // kScan: ctx and parallelism knobs are injected at execution time for
  // fields the request leaves unset.
  ScanRequest scan;
  // kValues
  Rows values;
  // kFilter predicate; also the join residual for the join kinds.
  ExprPtr predicate;
  // kProject
  std::vector<ExprPtr> exprs;
  // Equi-join key columns (kHashJoin/kMergeJoin/kIndexJoin). right_keys
  // index the right child's rows for the in-memory joins and the probed
  // table's scan schema for kIndexJoin.
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  // kHashJoin: width of the right side, for kLeftOuter NULL padding.
  size_t right_width = 0;
  JoinType join_type = JoinType::kInner;
  // Join kinds: the output columns of a joined row that the tree above
  // reads (join keys and residual columns included), ascending, with
  // `left_width` the left input's row width. The optimizer's column
  // pruning sets both; a joined row then carries only these cells and
  // the others stay NULL. Unset (a plan that skipped OptimizePlan): every
  // column.
  std::optional<std::vector<int>> emit;
  size_t left_width = 0;
  // kHashJoin: build the hash table on the left input and probe it with
  // the right one (default: build right, probe left). Joined rows keep the
  // left-then-right layout either way; only their order changes, to probe
  // order. Set by the optimizer only, on inner joins whose row order
  // nothing above observes (see optimizer.h).
  bool build_left = false;
  // kIndexJoin probe target.
  std::string index_table;
  TemporalScanSpec index_spec;
  // kAggregate: output rows are group columns followed by one column per
  // aggregate, in spec order. With empty group_cols, exactly one row
  // (global aggregate), even over empty input (SQL semantics).
  std::vector<int> group_cols;
  std::vector<AggSpec> aggs;
  // kSort: stable sort over the evaluated keys.
  std::vector<SortSpec> sort_keys;
  // kLimit
  size_t limit = 0;

  // Execution counters of the latest run (reset by Execute).
  mutable PlanStats stats;

  const char* KindName() const;
};

// ---- Builders -----------------------------------------------------------

PlanPtr ScanPlan(ScanRequest req);
PlanPtr ValuesPlan(Rows rows);
PlanPtr FilterPlan(PlanPtr input, ExprPtr predicate);
PlanPtr ProjectPlan(PlanPtr input, std::vector<ExprPtr> exprs);
// Hash join on equality of the given key columns; NULL keys never match.
// For kLeftOuter, unmatched left rows are padded with right_width NULLs.
PlanPtr HashJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                     std::vector<int> right_keys, size_t right_width,
                     JoinType type = JoinType::kInner,
                     ExprPtr residual = nullptr);
// Sort-merge equi-join: sorts both inputs by (key, input position) and
// merges, emitting the cross product of equal-key runs. Same rows as the
// inner hash join, in key order.
PlanPtr MergeJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                      std::vector<int> right_keys, ExprPtr residual = nullptr);
// Index-nested-loop join: for every left row, probes `table` through the
// engine with equality on (left key columns -> table columns) under the
// given temporal coordinates. The plan shape commercial optimizers pick for
// selective joins — and abandon on temporal tables (Fig. 7).
PlanPtr IndexJoinPlan(PlanPtr left, std::vector<int> left_keys,
                      std::string table, std::vector<int> table_keys,
                      TemporalScanSpec spec, ExprPtr residual = nullptr);
// Nested-loop cross product with an optional residual predicate (the SQL
// fallback when a join has no equality conjunct).
PlanPtr CrossJoinPlan(PlanPtr left, PlanPtr right, ExprPtr residual = nullptr);
PlanPtr AggregatePlan(PlanPtr input, std::vector<int> group_cols,
                      std::vector<AggSpec> aggs);
PlanPtr SortPlan(PlanPtr input, std::vector<SortSpec> keys);
PlanPtr LimitPlan(PlanPtr input, size_t n);
// Removes duplicate rows, keeping first occurrences (SELECT DISTINCT).
PlanPtr DistinctPlan(PlanPtr input);

// ---- Execution ----------------------------------------------------------

// Executes the tree against `engine`, materializing the root's output into
// *out and per-node counters into each node's `stats`. `opts`
// supplies parallelism defaults for every scan and parallel operator in the
// tree (fields a Scan node pinned itself win; whatever is still unset
// resolves through the process defaults). On interruption, returns the
// context's status and *out holds the partial output produced so far.
Status Execute(const PlanNode& plan, TemporalEngine& engine,
               const ExecOptions& opts, QueryContext* ctx, Rows* out);

// Runs a fixed in-process plan (the workload queries, benches and tests)
// with default options and no context, and returns its rows. Such a plan
// cannot fail on its input, so any failure aborts (BIH_CHECK); callers
// with a context, options or client-supplied input use Execute().
Rows RunPlan(const PlanNode& plan, TemporalEngine& engine);

// Stable JSON rendering of the tree with per-node stats from the latest
// Execute run — the payload of EXPLAIN. Key order is fixed; strings go
// through common/json escaping.
std::string PlanToJson(const PlanNode& plan);

}  // namespace bih

#endif  // TPCBIH_EXEC_PLAN_H_
