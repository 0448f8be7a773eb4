#include "exec/optimizer.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace bih {

std::string OptimizerReport::ToString() const {
  return "pushed=" + std::to_string(predicates_pushed) +
         " folded=" + std::to_string(conjuncts_folded) +
         " temporal=" + std::to_string(temporal_rewrites) +
         " pruned=" + std::to_string(scans_pruned) +
         " build_left=" + std::to_string(builds_left) +
         " residual=" + std::to_string(residuals_folded) +
         " agg_folded=" + std::to_string(aggregates_folded);
}

namespace {

// ---- Expression analysis ------------------------------------------------

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->op() == Expr::Op::kAnd) {
    for (const ExprPtr& c : e->children()) SplitConjuncts(c, out);
    return;
  }
  out->push_back(e);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& cs) {
  if (cs.empty()) return nullptr;
  ExprPtr e = cs[0];
  for (size_t i = 1; i < cs.size(); ++i) e = And(e, cs[i]);
  return e;
}

// Rebuilds `e` with every column reference shifted by `delta` (literals are
// shared — Expr is immutable).
ExprPtr RebaseCols(const ExprPtr& e, int delta) {
  if (e->op() == Expr::Op::kColumn) return Col(e->column() + delta);
  if (e->op() == Expr::Op::kLiteral) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  for (const ExprPtr& c : e->children()) kids.push_back(RebaseCols(c, delta));
  return std::make_shared<const Expr>(e->op(), std::move(kids));
}

bool IsLit(const ExprPtr& e) { return e->op() == Expr::Op::kLiteral; }
bool IsCol(const ExprPtr& e) { return e->op() == Expr::Op::kColumn; }

// Matches `col <op> literal` in either orientation; *op is reported with
// the column on the left (so `lit >= col` comes back as kLe).
bool MatchColLit(const ExprPtr& e, Expr::Op* op, int* col, Value* lit) {
  switch (e->op()) {
    case Expr::Op::kEq:
    case Expr::Op::kLe:
    case Expr::Op::kLt:
    case Expr::Op::kGe:
    case Expr::Op::kGt:
      break;
    default:
      return false;
  }
  const ExprPtr& a = e->children()[0];
  const ExprPtr& b = e->children()[1];
  if (IsCol(a) && IsLit(b)) {
    *op = e->op();
    *col = a->column();
    *lit = b->literal();
    return true;
  }
  if (IsLit(a) && IsCol(b)) {
    switch (e->op()) {
      case Expr::Op::kEq:
        *op = Expr::Op::kEq;
        break;
      case Expr::Op::kLe:
        *op = Expr::Op::kGe;
        break;
      case Expr::Op::kLt:
        *op = Expr::Op::kGt;
        break;
      case Expr::Op::kGe:
        *op = Expr::Op::kLe;
        break;
      case Expr::Op::kGt:
        *op = Expr::Op::kLt;
        break;
      default:
        return false;
    }
    *col = b->column();
    *lit = a->literal();
    return true;
  }
  return false;
}

// ---- Plan shape ---------------------------------------------------------

// Output width of a subtree, or -1 when it cannot be determined statically
// (a Values leaf with no rows). Widths gate the join rules: no width, no
// rewrite.
int PlanWidth(const PlanNode& n, const TemporalEngine& engine) {
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      if (!engine.HasTable(n.scan.table)) return -1;
      return engine.ScanSchema(n.scan.table).num_columns();
    case PlanNode::Kind::kValues:
      return n.values.empty() ? -1 : static_cast<int>(n.values[0].size());
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kSort:
    case PlanNode::Kind::kLimit:
    case PlanNode::Kind::kDistinct:
      return PlanWidth(*n.children[0], engine);
    case PlanNode::Kind::kProject:
      return static_cast<int>(n.exprs.size());
    case PlanNode::Kind::kHashJoin:
    case PlanNode::Kind::kMergeJoin:
    case PlanNode::Kind::kCrossJoin: {
      int lw = PlanWidth(*n.children[0], engine);
      int rw = PlanWidth(*n.children[1], engine);
      if (rw < 0 && n.kind == PlanNode::Kind::kHashJoin &&
          n.right_width > 0) {
        rw = static_cast<int>(n.right_width);
      }
      return lw < 0 || rw < 0 ? -1 : lw + rw;
    }
    case PlanNode::Kind::kIndexJoin: {
      int lw = PlanWidth(*n.children[0], engine);
      if (lw < 0 || !engine.HasTable(n.index_table)) return -1;
      return lw + engine.ScanSchema(n.index_table).num_columns();
    }
    case PlanNode::Kind::kAggregate:
      return static_cast<int>(n.group_cols.size() + n.aggs.size());
  }
  return -1;
}

bool IsJoinKind(PlanNode::Kind k) {
  return k == PlanNode::Kind::kHashJoin || k == PlanNode::Kind::kMergeJoin ||
         k == PlanNode::Kind::kCrossJoin;
}

// ---- Rule 1: predicate pushdown below joins -----------------------------

void PushDownFilters(PlanPtr* node, const TemporalEngine& engine,
                     OptimizerReport* rep) {
  PlanNode& n = **node;
  if (n.kind == PlanNode::Kind::kFilter && IsJoinKind(n.children[0]->kind)) {
    PlanNode& join = *n.children[0];
    const int lw = PlanWidth(*join.children[0], engine);
    const int rw = PlanWidth(*join.children[1], engine);
    if (lw >= 0 && rw >= 0) {
      // A right-side conjunct above a left-outer join also filters the
      // NULL-padded rows; below the join it could not. Left-side conjuncts
      // commute with padding (a padded row carries its left columns
      // unchanged), so those still move.
      const bool push_right = !(join.kind == PlanNode::Kind::kHashJoin &&
                                join.join_type == JoinType::kLeftOuter);
      std::vector<ExprPtr> conjuncts, keep, left_side, right_side;
      SplitConjuncts(n.predicate, &conjuncts);
      for (const ExprPtr& c : conjuncts) {
        std::set<int> cols;
        CollectColumns(c, &cols);
        const bool only_left =
            cols.empty() || *cols.rbegin() < lw;
        const bool only_right = !cols.empty() && *cols.begin() >= lw &&
                                *cols.rbegin() < lw + rw;
        if (only_left) {
          left_side.push_back(c);
        } else if (only_right && push_right) {
          right_side.push_back(RebaseCols(c, -lw));
        } else {
          keep.push_back(c);
        }
      }
      if (!left_side.empty() || !right_side.empty()) {
        rep->predicates_pushed +=
            static_cast<int>(left_side.size() + right_side.size());
        if (!left_side.empty()) {
          join.children[0] = FilterPlan(std::move(join.children[0]),
                                        CombineConjuncts(left_side));
        }
        if (!right_side.empty()) {
          join.children[1] = FilterPlan(std::move(join.children[1]),
                                        CombineConjuncts(right_side));
        }
        if (keep.empty()) {
          *node = std::move(n.children[0]);  // the Filter dissolved
        } else {
          n.predicate = CombineConjuncts(keep);
        }
      }
    }
  }
  for (PlanPtr& c : (*node)->children) PushDownFilters(&c, engine, rep);
}

// ---- Rules 2+3: folding a Filter into the Scan below it -----------------

// Recognizes the bitemporal visibility predicate over a (begin, end) column
// pair — begin <= T and end > T for one shared literal T — and removes the
// two conjuncts, reporting T. This is the rewrite the paper frames as
// T8 -> T2: the same time-travel constraint, stated as a WHERE clause vs.
// as a temporal selector the engine can prune partitions with.
bool ExtractAsOf(std::vector<ExprPtr>* conjuncts, int begin_col, int end_col,
                 Value* as_of) {
  for (size_t i = 0; i < conjuncts->size(); ++i) {
    Expr::Op op;
    int col;
    Value lit;
    if (!MatchColLit((*conjuncts)[i], &op, &col, &lit)) continue;
    if (op != Expr::Op::kLe || col != begin_col || lit.is_null()) continue;
    for (size_t j = 0; j < conjuncts->size(); ++j) {
      Expr::Op jop;
      int jcol;
      Value jlit;
      if (j == i || !MatchColLit((*conjuncts)[j], &jop, &jcol, &jlit)) {
        continue;
      }
      if (jop != Expr::Op::kGt || jcol != end_col) continue;
      if (jlit.is_null() || lit.Compare(jlit) != 0) continue;
      *as_of = lit;
      conjuncts->erase(conjuncts->begin() + std::max(i, j));
      conjuncts->erase(conjuncts->begin() + std::min(i, j));
      return true;
    }
  }
  return false;
}

void FoldFilterIntoScan(PlanPtr* node, const TemporalEngine& engine,
                        OptimizerReport* rep) {
  for (PlanPtr& c : (*node)->children) FoldFilterIntoScan(&c, engine, rep);
  PlanNode& n = **node;
  if (n.kind != PlanNode::Kind::kFilter ||
      n.children[0]->kind != PlanNode::Kind::kScan) {
    return;
  }
  ScanRequest& scan = n.children[0]->scan;
  if (!engine.HasTable(scan.table)) return;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(n.predicate, &conjuncts);

  // Temporal selector folding. System time: the two system columns sit
  // after the user columns in the scan schema. Application time: each
  // declared period names its (begin, end) user columns.
  const int width = engine.ScanSchema(scan.table).num_columns();
  const TableDef& def = engine.GetTableDef(scan.table);
  Value as_of;
  if (scan.temporal.system_time.kind == TemporalSelector::Kind::kAll &&
      ExtractAsOf(&conjuncts, width - 2, width - 1, &as_of)) {
    scan.temporal.system_time = TemporalSelector::AsOf(as_of.AsInt());
    ++rep->temporal_rewrites;
  }
  if (scan.temporal.app_time.kind == TemporalSelector::Kind::kAll) {
    for (size_t p = 0; p < def.app_periods.size(); ++p) {
      if (ExtractAsOf(&conjuncts, def.app_periods[p].begin_col,
                      def.app_periods[p].end_col, &as_of)) {
        scan.temporal.app_time = TemporalSelector::AsOf(as_of.AsInt());
        scan.temporal.app_period_index = static_cast<int>(p);
        ++rep->temporal_rewrites;
        break;
      }
    }
  }

  // Sargable conjuncts: equality with a literal becomes an `equals` entry
  // (the index-eligible form); non-strict bounds become the inclusive
  // range constraint while its column slot is free. Strict bounds and
  // NULL literals stay in the residual filter.
  std::vector<ExprPtr> keep;
  for (const ExprPtr& c : conjuncts) {
    Expr::Op op;
    int col;
    Value lit;
    bool folded = false;
    if (MatchColLit(c, &op, &col, &lit) && !lit.is_null() && col >= 0 &&
        col < width) {
      switch (op) {
        case Expr::Op::kEq:
          scan.equals.emplace_back(col, lit);
          folded = true;
          break;
        case Expr::Op::kGe:
          if ((scan.range_col < 0 || scan.range_col == col) &&
              scan.range_lo.is_null()) {
            scan.range_col = col;
            scan.range_lo = lit;
            folded = true;
          }
          break;
        case Expr::Op::kLe:
          if ((scan.range_col < 0 || scan.range_col == col) &&
              scan.range_hi.is_null()) {
            scan.range_col = col;
            scan.range_hi = lit;
            folded = true;
          }
          break;
        default:
          break;
      }
    } else if (c->op() == Expr::Op::kBetween && IsCol(c->children()[0]) &&
               IsLit(c->children()[1]) && IsLit(c->children()[2]) &&
               !c->children()[1]->literal().is_null() &&
               !c->children()[2]->literal().is_null() &&
               scan.range_col < 0) {
      scan.range_col = c->children()[0]->column();
      scan.range_lo = c->children()[1]->literal();
      scan.range_hi = c->children()[2]->literal();
      folded = true;
    }
    if (folded) {
      ++rep->conjuncts_folded;
    } else {
      keep.push_back(c);
    }
  }
  // The rest become the scan's residual: it runs in the engine's partition
  // loop on the versions the folded forms passed, in place of the Filter.
  if (!keep.empty()) {
    rep->residuals_folded += static_cast<int>(keep.size());
    if (scan.residual != nullptr) keep.insert(keep.begin(), scan.residual);
    scan.residual = CombineConjuncts(keep);
  }
  *node = std::move(n.children[0]);
}

// ---- Rule 4: column pruning ---------------------------------------------

// What the tree above a node consumes of its output. `all` is the top of
// the lattice (every column demanded).
struct Demand {
  bool all = false;
  std::set<int> cols;

  static Demand All() {
    Demand d;
    d.all = true;
    return d;
  }
};

void AddExprCols(const ExprPtr& e, Demand* d) {
  if (!d->all) CollectColumns(e, &d->cols);
}

// Splits what a join's parent reads, plus the columns of the join's
// residual, into the demands on its left and right inputs (right columns
// rebased past the `lw` left ones); the left keys are demanded too.
void SplitJoinDemand(const PlanNode& n, int lw, const Demand& demand,
                     Demand* dl, Demand* dr) {
  std::set<int> cols = demand.cols;
  CollectColumns(n.predicate, &cols);
  for (int c : cols) {
    if (c < lw) {
      dl->cols.insert(c);
    } else {
      dr->cols.insert(c - lw);
    }
  }
  dl->cols.insert(n.left_keys.begin(), n.left_keys.end());
}

// Records on a join the output columns its joined rows must carry: both
// inputs' demands, the right ones shifted past the left input.
void SetEmit(int lw, const Demand& dl, const Demand& dr, PlanNode* join) {
  std::vector<int> emit(dl.cols.begin(), dl.cols.end());
  for (int c : dr.cols) emit.push_back(c + lw);
  join->emit = std::move(emit);
  join->left_width = static_cast<size_t>(lw);
}

void PruneColumns(PlanNode& n, const Demand& demand,
                  const TemporalEngine& engine, OptimizerReport* rep) {
  switch (n.kind) {
    case PlanNode::Kind::kScan: {
      if (demand.all || !n.scan.projection.empty() ||
          !engine.HasTable(n.scan.table)) {
        return;
      }
      const int width = engine.ScanSchema(n.scan.table).num_columns();
      // Row width is part of the scan contract, so a projection never
      // narrows rows — it only lets column stores skip materializing dead
      // attributes. The residual's columns stay projected, so an emitted
      // row carries the same cells whichever thread shaped it. Demand can
      // be empty (COUNT(*)); keep one column so the request stays
      // meaningful.
      Demand d = demand;
      AddExprCols(n.scan.residual, &d);
      std::vector<int> proj(d.cols.begin(), d.cols.end());
      if (proj.empty()) proj.push_back(0);
      if (static_cast<int>(proj.size()) >= width) return;
      n.scan.projection = std::move(proj);
      ++rep->scans_pruned;
      return;
    }
    case PlanNode::Kind::kValues:
      return;
    case PlanNode::Kind::kFilter: {
      Demand d = demand;
      AddExprCols(n.predicate, &d);
      PruneColumns(*n.children[0], d, engine, rep);
      return;
    }
    case PlanNode::Kind::kProject: {
      Demand d;  // a Project's inputs are exactly its expressions' columns
      for (const ExprPtr& e : n.exprs) AddExprCols(e, &d);
      PruneColumns(*n.children[0], d, engine, rep);
      return;
    }
    case PlanNode::Kind::kSort: {
      Demand d = demand;
      for (const SortSpec& k : n.sort_keys) AddExprCols(k.key, &d);
      PruneColumns(*n.children[0], d, engine, rep);
      return;
    }
    case PlanNode::Kind::kLimit:
      PruneColumns(*n.children[0], demand, engine, rep);
      return;
    case PlanNode::Kind::kDistinct:
      // DISTINCT compares whole rows: every column is load-bearing.
      PruneColumns(*n.children[0], Demand::All(), engine, rep);
      return;
    case PlanNode::Kind::kAggregate: {
      Demand d;
      for (int c : n.group_cols) d.cols.insert(c);
      for (const AggSpec& a : n.aggs) AddExprCols(a.expr, &d);
      PruneColumns(*n.children[0], d, engine, rep);
      return;
    }
    case PlanNode::Kind::kHashJoin:
    case PlanNode::Kind::kMergeJoin:
    case PlanNode::Kind::kCrossJoin: {
      const int lw = PlanWidth(*n.children[0], engine);
      if (lw < 0 || demand.all) {
        n.emit.reset();
        PruneColumns(*n.children[0], Demand::All(), engine, rep);
        PruneColumns(*n.children[1], Demand::All(), engine, rep);
        return;
      }
      Demand dl, dr;
      SplitJoinDemand(n, lw, demand, &dl, &dr);
      dr.cols.insert(n.right_keys.begin(), n.right_keys.end());
      SetEmit(lw, dl, dr, &n);
      PruneColumns(*n.children[0], dl, engine, rep);
      PruneColumns(*n.children[1], dr, engine, rep);
      return;
    }
    case PlanNode::Kind::kIndexJoin: {
      // The right keys index the probed table, not a child's rows: the
      // engine matches them, so they are not demanded of the joined row.
      const int lw = PlanWidth(*n.children[0], engine);
      Demand dl, dr;
      if (lw < 0 || demand.all) {
        n.emit.reset();
        dl = Demand::All();
      } else {
        SplitJoinDemand(n, lw, demand, &dl, &dr);
        SetEmit(lw, dl, dr, &n);
      }
      PruneColumns(*n.children[0], dl, engine, rep);
      return;
    }
  }
}

// ---- Rule 5: hash-join build side --------------------------------------

// The first node at or below `n` that is not a Filter or Project.
PlanNode* BelowFilterProject(PlanNode* n) {
  while (n->kind == PlanNode::Kind::kFilter ||
         n->kind == PlanNode::Kind::kProject) {
    n = n->children[0].get();
  }
  return n;
}

// Versions `table` stores: current, history and pending undo. The total
// is the same on every engine holding the same data, so the build side
// does not depend on the architecture.
size_t StoredVersions(const TemporalEngine& engine, const std::string& table) {
  const TableStats s = engine.GetTableStats(table);
  return s.current_rows + s.history_rows + s.pending_undo;
}

// True when `sort` orders on every group column of an Aggregate with
// `groups` of them: a bare Col(g) key for each g. Distinct groups then
// never tie, so the sorted order does not depend on the order the
// Aggregate found its groups in.
bool SortsOnGroups(const PlanNode* sort, size_t groups) {
  if (sort == nullptr) return false;
  for (size_t g = 0; g < groups; ++g) {
    bool keyed = false;
    for (const SortSpec& k : sort->sort_keys) {
      keyed |= IsCol(k.key) && k.key->column() == static_cast<int>(g);
    }
    if (!keyed) return false;
  }
  return true;
}

// Builds an inner hash join on its left input when the two inputs are
// scans (under Filter/Project) and the left table stores fewer versions.
void ChooseBuildSide(PlanNode& join, const TemporalEngine& engine,
                     OptimizerReport* rep) {
  if (join.join_type != JoinType::kInner) return;
  const PlanNode* left = BelowFilterProject(join.children[0].get());
  const PlanNode* right = BelowFilterProject(join.children[1].get());
  if (left->kind != PlanNode::Kind::kScan ||
      right->kind != PlanNode::Kind::kScan ||
      !engine.HasTable(left->scan.table) ||
      !engine.HasTable(right->scan.table)) {
    return;
  }
  if (StoredVersions(engine, left->scan.table) <
      StoredVersions(engine, right->scan.table)) {
    join.build_left = true;
    ++rep->builds_left;
  }
}

// Walks the tree for hash joins whose row order nothing observes: a join
// feeding an Aggregate through Filter/Project only, where the Aggregate is
// ungrouped or under a Sort (through Filters) on all of its group columns.
// `sort` is that Sort for the nodes a Sort reaches through Filters only.
void ChooseBuildSides(PlanNode& n, const PlanNode* sort,
                      const TemporalEngine& engine, OptimizerReport* rep) {
  if (n.kind == PlanNode::Kind::kAggregate &&
      (n.group_cols.empty() || SortsOnGroups(sort, n.group_cols.size()))) {
    PlanNode* input = BelowFilterProject(n.children[0].get());
    if (input->kind == PlanNode::Kind::kHashJoin) {
      ChooseBuildSide(*input, engine, rep);
    }
  }
  const PlanNode* below = n.kind == PlanNode::Kind::kSort     ? &n
                          : n.kind == PlanNode::Kind::kFilter ? sort
                                                               : nullptr;
  for (PlanPtr& c : n.children) ChooseBuildSides(*c, below, engine, rep);
}

// ---- Rule 6: ungrouped aggregates fold into their scan -----------------

// True when the scan can fold `a` on its stored cells: COUNT(*), or COUNT,
// SUM, AVG, MIN or MAX of a bare column of the scan's `width` columns.
bool ScanFoldable(const AggSpec& a, int width) {
  if (a.kind == AggKind::kCountDistinct) return false;
  if (a.expr == nullptr) return a.kind == AggKind::kCount;
  return IsCol(a.expr) && a.expr->column() >= 0 && a.expr->column() < width;
}

// Hands the aggregates of an ungrouped Aggregate directly over a Scan to
// the scan (ScanRequest::aggs): the engine then folds each qualifying
// version's cells where it tests them, and the Aggregate only finishes the
// one row.
void FoldAggregatesIntoScans(PlanNode& n, const TemporalEngine& engine,
                             OptimizerReport* rep) {
  for (PlanPtr& c : n.children) FoldAggregatesIntoScans(*c, engine, rep);
  if (n.kind != PlanNode::Kind::kAggregate || !n.group_cols.empty() ||
      n.children[0]->kind != PlanNode::Kind::kScan) {
    return;
  }
  ScanRequest& scan = n.children[0]->scan;
  if (!engine.HasTable(scan.table) || !scan.aggs.empty()) return;
  const int width = engine.ScanSchema(scan.table).num_columns();
  for (const AggSpec& a : n.aggs) {
    if (!ScanFoldable(a, width)) return;
  }
  scan.aggs = n.aggs;
  ++rep->aggregates_folded;
}

}  // namespace

void OptimizePlan(PlanPtr* plan, const TemporalEngine& engine,
                  OptimizerReport* report) {
  OptimizerReport local;
  OptimizerReport* rep = report != nullptr ? report : &local;
  PushDownFilters(plan, engine, rep);
  FoldFilterIntoScan(plan, engine, rep);
  PruneColumns(**plan, Demand::All(), engine, rep);
  ChooseBuildSides(**plan, /*sort=*/nullptr, engine, rep);
  FoldAggregatesIntoScans(**plan, engine, rep);
}

}  // namespace bih
