#ifndef TPCBIH_EXEC_OPTIMIZER_H_
#define TPCBIH_EXEC_OPTIMIZER_H_

#include <string>

#include "exec/plan.h"

namespace bih {

// Rule-based plan rewriter. Every rule preserves the observable result of
// the tree (the rows Execute materializes at the root, in order); what the
// rules change is how much of the version space the engines touch, which is
// exactly the axis the paper's Section 5 measures. Three rewrites:
//
//  * Predicate pushdown: AND-conjuncts of a Filter sitting on a join move
//    below the join when they reference only one side (right-side column
//    references are rebased by the left width). Left-outer joins only push
//    left-side conjuncts — a right-side filter above the join also sees the
//    NULL-padded rows, so moving it below would change the padding.
//  * Scan folding: a Filter directly over a Scan folds sargable conjuncts
//    into the ScanRequest — equality with a literal into `equals` (the
//    index-eligible form; the paper's Fig. 7 temporal joins hinge on it)
//    and non-strict range bounds into range_col/lo/hi. Folding into the
//    temporal selector comes first: a filter reproducing the bitemporal
//    visibility predicate over the period columns (sys_from <= T < sys_to,
//    or an application period's begin <= T < end) becomes the
//    corresponding AS OF selector — the paper's T8 -> T2 observation that
//    a time-travel predicate stated as a WHERE clause defeats temporal
//    partition pruning until it is recognized as one.
//  * Column pruning: each Scan is told which columns the tree above it
//    actually consumes (ScanRequest::projection). Row width is unchanged —
//    column stores simply skip materializing dead attributes. Each join
//    records the same demand for its own output (PlanNode::emit): a hash
//    join's build side keeps, and every join's row assembly writes, only
//    the cells read above it, and the other cells stay NULL.
//
// The optimizer needs the engine only for schema arity (column counts,
// period column positions); it never executes anything.

struct OptimizerReport {
  int predicates_pushed = 0;   // conjuncts moved below a join
  int conjuncts_folded = 0;    // conjuncts absorbed into equals/range
  int temporal_rewrites = 0;   // visibility filters folded into selectors
  int scans_pruned = 0;        // scans given a projection list

  std::string ToString() const;
};

// Rewrites *plan in place (the root node may be replaced, e.g. when a
// Filter folds away entirely). `report`, when non-null, receives what
// fired — the golden tests assert on it.
void OptimizePlan(PlanPtr* plan, const TemporalEngine& engine,
                  OptimizerReport* report = nullptr);

}  // namespace bih

#endif  // TPCBIH_EXEC_OPTIMIZER_H_
