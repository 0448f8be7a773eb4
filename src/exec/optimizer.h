#ifndef TPCBIH_EXEC_OPTIMIZER_H_
#define TPCBIH_EXEC_OPTIMIZER_H_

#include <string>

#include "exec/plan.h"

namespace bih {

// Rule-based plan rewriter. Every rule preserves the observable result of
// the tree (the rows Execute materializes at the root, in order), with one
// stated exception below; what the rules change is how much of the version
// space the engines touch, which is exactly the axis the paper's Section 5
// measures. Five rewrites (rules 1-6 in optimizer.cc; scan folding is
// rules 2 and 3):
//
//  * Predicate pushdown: AND-conjuncts of a Filter sitting on a join move
//    below the join when they reference only one side (right-side column
//    references are rebased by the left width). Left-outer joins only push
//    left-side conjuncts — a right-side filter above the join also sees the
//    NULL-padded rows, so moving it below would change the padding.
//  * Scan folding: a Filter directly over a Scan folds sargable conjuncts
//    into the ScanRequest — equality with a literal into `equals` (the
//    index-eligible form; the paper's Fig. 7 temporal joins hinge on it)
//    and non-strict range bounds into range_col/lo/hi; every other
//    conjunct becomes the scan's residual (ScanRequest::residual), which
//    the engine tests in its partition loop, so the Filter is gone either
//    way. Folding into the
//    temporal selector comes first: a filter reproducing the bitemporal
//    visibility predicate over the period columns (sys_from <= T < sys_to,
//    or an application period's begin <= T < end) becomes the
//    corresponding AS OF selector — the paper's T8 -> T2 observation that
//    a time-travel predicate stated as a WHERE clause defeats temporal
//    partition pruning until it is recognized as one.
//  * Column pruning: each Scan is told which columns the tree above it
//    actually consumes (ScanRequest::projection). Row width is unchanged —
//    column stores materialize only the projected cells and leave the
//    others NULL. Each join records the same demand for its own output
//    (PlanNode::emit): a hash join's build side keeps, and every join's row
//    assembly writes, only the cells read above it, and the other cells
//    stay NULL.
//  * Build side: an inner hash join whose two inputs are Scans (under
//    Filter/Project only) builds its hash table on the left input
//    (PlanNode::build_left) when the left table stores fewer versions —
//    current + history + pending undo, the same total on every engine —
//    than the right (Shapiro, TODS 1986). The joined rows keep their
//    layout but come out in probe (right-input) order, so the rule fires
//    only where that order cannot be observed: the join feeds an Aggregate
//    through Filter/Project only, and the Aggregate is ungrouped or sits
//    under a Sort (through Filters only) keyed on all of its group columns.
//    DISTINCT, ungrouped-order GROUP BY (no covering ORDER BY), left outer
//    joins and joins under anything else keep the right input as build
//    side. The exception to result preservation: the Aggregate folds its
//    rows in the other order, so a SUM or AVG over doubles may differ in
//    the last bits from the right-build plan (COUNT, MIN, MAX, COUNT
//    DISTINCT, the groups and their final order do not change).
//    Execution at any thread count stays byte-identical to serial
//    execution of the same plan.
//  * Aggregate fold: an ungrouped Aggregate directly over a Scan whose
//    aggregates are all COUNT(*), or COUNT, SUM, AVG, MIN or MAX of a bare
//    column, hands them to the scan (ScanRequest::aggs). The engine folds
//    each qualifying version's cells in its partition loop, in scan order,
//    and the Aggregate only finishes the one row: no version becomes a Row.
//
// The optimizer needs the engine only for schema arity (column counts,
// period column positions); it never executes anything.

struct OptimizerReport {
  int predicates_pushed = 0;   // conjuncts moved below a join
  int conjuncts_folded = 0;    // conjuncts absorbed into equals/range
  int temporal_rewrites = 0;   // visibility filters folded into selectors
  int scans_pruned = 0;        // scans given a projection list
  int builds_left = 0;         // hash joins set to build their left input
  int residuals_folded = 0;    // other conjuncts moved into a scan residual
  int aggregates_folded = 0;   // ungrouped aggregates folded into a scan

  std::string ToString() const;
};

// Rewrites *plan in place (the root node may be replaced, e.g. when a
// Filter folds away entirely). `report`, when non-null, receives what
// fired — the golden tests assert on it.
void OptimizePlan(PlanPtr* plan, const TemporalEngine& engine,
                  OptimizerReport* report = nullptr);

}  // namespace bih

#endif  // TPCBIH_EXEC_OPTIMIZER_H_
