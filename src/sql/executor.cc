#include "sql/executor.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "exec/optimizer.h"
#include "sql/parser.h"

namespace bih {
namespace sql {

namespace {

// Name scope of the rows flowing between operators: one entry per column.
struct ScopeColumn {
  std::string qualifier;  // table alias
  std::string name;
};

class Binder {
 public:
  explicit Binder(const std::vector<ScopeColumn>* scope) : scope_(scope) {}

  // Resolves a column reference to a position.
  Status ResolveColumn(const SqlExpr& e, int* out) const {
    int found = -1;
    for (size_t i = 0; i < scope_->size(); ++i) {
      const ScopeColumn& c = (*scope_)[i];
      if (c.name != e.name) continue;
      if (!e.qualifier.empty() && c.qualifier != e.qualifier) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column '" + e.name + "'");
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "unknown column '" +
          (e.qualifier.empty() ? e.name : e.qualifier + "." + e.name) + "'");
    }
    *out = found;
    return Status::OK();
  }

  // Binds a scalar expression (no aggregates allowed).
  Status Bind(const SqlExprPtr& e, ExprPtr* out) const {
    switch (e->kind) {
      case SqlExpr::Kind::kColumn: {
        int pos;
        BIH_RETURN_IF_ERROR(ResolveColumn(*e, &pos));
        *out = Col(pos);
        return Status::OK();
      }
      case SqlExpr::Kind::kLiteral:
        *out = Lit(e->literal);
        return Status::OK();
      case SqlExpr::Kind::kUnary: {
        ExprPtr inner;
        BIH_RETURN_IF_ERROR(Bind(e->children[0], &inner));
        *out = Not(inner);
        return Status::OK();
      }
      case SqlExpr::Kind::kBetween: {
        ExprPtr x, lo, hi;
        BIH_RETURN_IF_ERROR(Bind(e->children[0], &x));
        BIH_RETURN_IF_ERROR(Bind(e->children[1], &lo));
        BIH_RETURN_IF_ERROR(Bind(e->children[2], &hi));
        *out = Between(x, lo, hi);
        return Status::OK();
      }
      case SqlExpr::Kind::kLike: {
        ExprPtr s;
        BIH_RETURN_IF_ERROR(Bind(e->children[0], &s));
        const std::string& pattern = e->op;
        bool leading = !pattern.empty() && pattern.front() == '%';
        bool trailing = !pattern.empty() && pattern.back() == '%';
        std::string core = pattern.substr(
            leading ? 1 : 0,
            pattern.size() - (leading ? 1 : 0) - (trailing ? 1 : 0));
        if (core.find('%') != std::string::npos ||
            core.find('_') != std::string::npos) {
          return Status::Unimplemented(
              "LIKE supports only leading/trailing %% wildcards");
        }
        if (leading && trailing) {
          *out = Contains(s, Lit(Value(core)));
        } else if (trailing) {
          *out = StartsWith(s, Lit(Value(core)));
        } else if (leading) {
          // suffix match: contains + cheap approximation is wrong; use
          // equality of the trailing part via Contains as a documented
          // simplification would be unsound — implement via Contains plus
          // length is not expressible, so reject.
          return Status::Unimplemented("LIKE '%x' (suffix) is not supported");
        } else {
          *out = Eq(s, Lit(Value(core)));
        }
        return Status::OK();
      }
      case SqlExpr::Kind::kBinary: {
        ExprPtr a, b;
        BIH_RETURN_IF_ERROR(Bind(e->children[0], &a));
        BIH_RETURN_IF_ERROR(Bind(e->children[1], &b));
        const std::string& op = e->op;
        if (op == "+") *out = Add(a, b);
        else if (op == "-") *out = Sub(a, b);
        else if (op == "*") *out = Mul(a, b);
        else if (op == "/") *out = Div(a, b);
        else if (op == "=") *out = Eq(a, b);
        else if (op == "<>") *out = Ne(a, b);
        else if (op == "<") *out = Lt(a, b);
        else if (op == "<=") *out = Le(a, b);
        else if (op == ">") *out = Gt(a, b);
        else if (op == ">=") *out = Ge(a, b);
        else if (op == "AND") *out = And(a, b);
        else if (op == "OR") *out = Or(a, b);
        else return Status::Internal("unknown operator " + op);
        return Status::OK();
      }
      case SqlExpr::Kind::kAggregate:
        return Status::InvalidArgument(
            "aggregate not allowed in this context");
      case SqlExpr::Kind::kStar:
        return Status::InvalidArgument("'*' not allowed in this context");
    }
    return Status::Internal("unreachable");
  }

 private:
  const std::vector<ScopeColumn>* scope_;
};

bool ContainsAggregate(const SqlExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == SqlExpr::Kind::kAggregate) return true;
  for (const SqlExprPtr& c : e->children) {
    if (ContainsAggregate(c)) return true;
  }
  return false;
}

std::string DeriveName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == SqlExpr::Kind::kColumn) return item.expr->name;
  if (item.expr->kind == SqlExpr::Kind::kAggregate) return item.expr->func;
  return "EXPR" + std::to_string(index + 1);
}

// Extracts equi-join keys from the conjunctive ON condition: conditions of
// the form left_col = right_col become hash keys; everything else stays a
// residual predicate over the joined row.
void SplitJoinCondition(const SqlExprPtr& e, const Binder& left_binder,
                        const Binder& right_binder, std::vector<int>* left_keys,
                        std::vector<int>* right_keys,
                        std::vector<SqlExprPtr>* residual) {
  if (e->kind == SqlExpr::Kind::kBinary && e->op == "AND") {
    SplitJoinCondition(e->children[0], left_binder, right_binder, left_keys,
                       right_keys, residual);
    SplitJoinCondition(e->children[1], left_binder, right_binder, left_keys,
                       right_keys, residual);
    return;
  }
  if (e->kind == SqlExpr::Kind::kBinary && e->op == "=" &&
      e->children[0]->kind == SqlExpr::Kind::kColumn &&
      e->children[1]->kind == SqlExpr::Kind::kColumn) {
    int l, r;
    if (left_binder.ResolveColumn(*e->children[0], &l).ok() &&
        right_binder.ResolveColumn(*e->children[1], &r).ok()) {
      left_keys->push_back(l);
      right_keys->push_back(r);
      return;
    }
    if (left_binder.ResolveColumn(*e->children[1], &l).ok() &&
        right_binder.ResolveColumn(*e->children[0], &r).ok()) {
      left_keys->push_back(l);
      right_keys->push_back(r);
      return;
    }
  }
  residual->push_back(e);
}

// Lowers one table reference into a Scan leaf. Pure planning: only schema
// lookups, no engine access — the scan runs when the tree executes.
Status PlanTable(TemporalEngine& engine, const TableRef& ref, PlanPtr* plan,
                 std::vector<ScopeColumn>* scope) {
  if (!engine.HasTable(ref.table)) {
    return Status::NotFound("no table named " + ref.table);
  }
  const TableDef* def = &engine.GetTableDef(ref.table);
  TemporalScanSpec spec;
  spec.system_time = ref.system_time;
  spec.app_time = ref.app_time;
  if (!ref.app_period.empty()) {
    int idx = def->FindAppPeriod(ref.app_period);
    if (idx < 0) {
      return Status::InvalidArgument("table " + ref.table +
                                     " has no period named " + ref.app_period);
    }
    spec.app_period_index = idx;
  }
  if (ref.has_app_clause && def->app_periods.empty()) {
    return Status::InvalidArgument("table " + ref.table +
                                   " has no application-time period");
  }
  ScanRequest req;
  req.table = ref.table;
  req.temporal = spec;
  *plan = ScanPlan(std::move(req));
  Schema schema = engine.ScanSchema(ref.table);
  for (const Column& c : schema.columns()) {
    scope->push_back(ScopeColumn{ref.alias, c.name});
  }
  return Status::OK();
}

}  // namespace

Status PlanSelect(TemporalEngine& engine, const SelectStatement& stmt,
                  PlanPtr* out_plan, std::vector<std::string>* columns) {
  // FROM + JOIN pipeline.
  std::vector<ScopeColumn> scope;
  PlanPtr plan;
  BIH_RETURN_IF_ERROR(PlanTable(engine, stmt.from, &plan, &scope));
  for (const Join& join : stmt.joins) {
    std::vector<ScopeColumn> right_scope;
    PlanPtr right;
    BIH_RETURN_IF_ERROR(PlanTable(engine, join.table, &right, &right_scope));
    Binder left_binder(&scope);
    Binder right_binder(&right_scope);
    std::vector<int> lk, rk;
    std::vector<SqlExprPtr> residual_parts;
    SplitJoinCondition(join.on, left_binder, right_binder, &lk, &rk,
                       &residual_parts);
    // Combined scope for the residual predicate.
    std::vector<ScopeColumn> combined = scope;
    combined.insert(combined.end(), right_scope.begin(), right_scope.end());
    ExprPtr residual = nullptr;
    Binder combined_binder(&combined);
    for (const SqlExprPtr& part : residual_parts) {
      ExprPtr bound;
      BIH_RETURN_IF_ERROR(combined_binder.Bind(part, &bound));
      residual = residual == nullptr ? bound : And(residual, bound);
    }
    if (lk.empty()) {
      // Pure cross/theta join: nested loops with the residual on top.
      plan = CrossJoinPlan(std::move(plan), std::move(right), residual);
    } else {
      plan = HashJoinPlan(std::move(plan), std::move(right), lk, rk,
                          right_scope.size(), JoinType::kInner, residual);
    }
    scope = std::move(combined);
  }

  Binder binder(&scope);
  if (stmt.where != nullptr) {
    if (ContainsAggregate(stmt.where)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    ExprPtr pred;
    BIH_RETURN_IF_ERROR(binder.Bind(stmt.where, &pred));
    plan = FilterPlan(std::move(plan), pred);
  }

  const bool aggregating =
      !stmt.group_by.empty() || stmt.having != nullptr ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& i) { return ContainsAggregate(i.expr); });

  if (!aggregating) {
    // ORDER BY evaluates over the pre-projection row (SQL also allows
    // output aliases; support those by substituting the item expression).
    if (!stmt.order_by.empty()) {
      std::vector<SortSpec> keys;
      for (const OrderItem& item : stmt.order_by) {
        SqlExprPtr target = item.expr;
        if (target->kind == SqlExpr::Kind::kColumn && target->qualifier.empty()) {
          for (const SelectItem& si : stmt.items) {
            if (!si.alias.empty() && si.alias == target->name) {
              target = si.expr;
              break;
            }
          }
        }
        ExprPtr bound;
        BIH_RETURN_IF_ERROR(binder.Bind(target, &bound));
        keys.push_back(SortSpec{bound, item.ascending});
      }
      plan = SortPlan(std::move(plan), std::move(keys));
    }
    columns->clear();
    if (stmt.select_star) {
      for (const ScopeColumn& c : scope) columns->push_back(c.name);
    } else {
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        ExprPtr e;
        BIH_RETURN_IF_ERROR(binder.Bind(stmt.items[i].expr, &e));
        exprs.push_back(e);
        columns->push_back(DeriveName(stmt.items[i], i));
      }
      plan = ProjectPlan(std::move(plan), std::move(exprs));
    }
    if (stmt.distinct) plan = DistinctPlan(std::move(plan));
    if (stmt.limit >= 0) {
      plan = LimitPlan(std::move(plan), static_cast<size_t>(stmt.limit));
    }
    *out_plan = std::move(plan);
    return Status::OK();
  }

  // --- aggregation -------------------------------------------------------
  if (stmt.select_star) {
    return Status::InvalidArgument("SELECT * cannot be combined with GROUP BY");
  }
  // Group columns must be plain column references.
  std::vector<int> group_cols;
  for (const SqlExprPtr& g : stmt.group_by) {
    if (g->kind != SqlExpr::Kind::kColumn) {
      return Status::Unimplemented("GROUP BY supports only column references");
    }
    int pos;
    BIH_RETURN_IF_ERROR(binder.ResolveColumn(*g, &pos));
    group_cols.push_back(pos);
  }
  // Collect aggregate calls from the select list and HAVING, dedup by
  // (func, bound expr is not comparable) — we simply register each call.
  struct AggRef {
    const SqlExpr* call;
    size_t output_pos;
  };
  std::vector<AggSpec> specs;
  std::vector<AggRef> agg_refs;
  auto register_aggregates = [&](const SqlExprPtr& root,
                                 auto&& self) -> Status {
    if (root == nullptr) return Status::OK();
    if (root->kind == SqlExpr::Kind::kAggregate) {
      AggSpec spec;
      if (root->children[0]->kind == SqlExpr::Kind::kStar) {
        spec.kind = AggKind::kCount;
        spec.expr = nullptr;
      } else {
        ExprPtr arg;
        BIH_RETURN_IF_ERROR(binder.Bind(root->children[0], &arg));
        if (root->func == "SUM") spec.kind = AggKind::kSum;
        else if (root->func == "AVG") spec.kind = AggKind::kAvg;
        else if (root->func == "COUNT") spec.kind = AggKind::kCount;
        else if (root->func == "MIN") spec.kind = AggKind::kMin;
        else spec.kind = AggKind::kMax;
        spec.expr = arg;
      }
      agg_refs.push_back({root.get(), group_cols.size() + specs.size()});
      specs.push_back(std::move(spec));
      return Status::OK();
    }
    for (const SqlExprPtr& c : root->children) {
      BIH_RETURN_IF_ERROR(self(c, self));
    }
    return Status::OK();
  };
  for (const SelectItem& item : stmt.items) {
    BIH_RETURN_IF_ERROR(register_aggregates(item.expr, register_aggregates));
  }
  BIH_RETURN_IF_ERROR(register_aggregates(stmt.having, register_aggregates));
  for (const OrderItem& item : stmt.order_by) {
    BIH_RETURN_IF_ERROR(register_aggregates(item.expr, register_aggregates));
  }

  plan = AggregatePlan(std::move(plan), group_cols, specs);

  // Rebind expressions over the aggregate output: group columns map to the
  // leading positions, aggregate calls to their registered slots.
  auto bind_over_agg = [&](const SqlExprPtr& root, auto&& self,
                           ExprPtr* bound) -> Status {
    if (root->kind == SqlExpr::Kind::kAggregate) {
      for (const AggRef& ref : agg_refs) {
        if (ref.call == root.get()) {
          *bound = Col(static_cast<int>(ref.output_pos));
          return Status::OK();
        }
      }
      return Status::Internal("unregistered aggregate");
    }
    if (root->kind == SqlExpr::Kind::kColumn) {
      int pos;
      BIH_RETURN_IF_ERROR(binder.ResolveColumn(*root, &pos));
      for (size_t i = 0; i < group_cols.size(); ++i) {
        if (group_cols[i] == pos) {
          *bound = Col(static_cast<int>(i));
          return Status::OK();
        }
      }
      return Status::InvalidArgument("column '" + root->name +
                                     "' must appear in GROUP BY");
    }
    if (root->kind == SqlExpr::Kind::kLiteral) {
      *bound = Lit(root->literal);
      return Status::OK();
    }
    // Recurse through scalar operators.
    std::vector<ExprPtr> kids;
    for (const SqlExprPtr& c : root->children) {
      ExprPtr k;
      BIH_RETURN_IF_ERROR(self(c, self, &k));
      kids.push_back(k);
    }
    const std::string& op = root->op;
    if (root->kind == SqlExpr::Kind::kBinary) {
      if (op == "+") *bound = Add(kids[0], kids[1]);
      else if (op == "-") *bound = Sub(kids[0], kids[1]);
      else if (op == "*") *bound = Mul(kids[0], kids[1]);
      else if (op == "/") *bound = Div(kids[0], kids[1]);
      else if (op == "=") *bound = Eq(kids[0], kids[1]);
      else if (op == "<>") *bound = Ne(kids[0], kids[1]);
      else if (op == "<") *bound = Lt(kids[0], kids[1]);
      else if (op == "<=") *bound = Le(kids[0], kids[1]);
      else if (op == ">") *bound = Gt(kids[0], kids[1]);
      else if (op == ">=") *bound = Ge(kids[0], kids[1]);
      else if (op == "AND") *bound = And(kids[0], kids[1]);
      else if (op == "OR") *bound = Or(kids[0], kids[1]);
      else return Status::Internal("unknown operator " + op);
      return Status::OK();
    }
    if (root->kind == SqlExpr::Kind::kUnary) {
      *bound = Not(kids[0]);
      return Status::OK();
    }
    if (root->kind == SqlExpr::Kind::kBetween) {
      *bound = Between(kids[0], kids[1], kids[2]);
      return Status::OK();
    }
    return Status::Unimplemented("expression kind not allowed after GROUP BY");
  };

  if (stmt.having != nullptr) {
    ExprPtr pred;
    BIH_RETURN_IF_ERROR(bind_over_agg(stmt.having, bind_over_agg, &pred));
    plan = FilterPlan(std::move(plan), pred);
  }
  if (!stmt.order_by.empty()) {
    std::vector<SortSpec> keys;
    for (const OrderItem& item : stmt.order_by) {
      SqlExprPtr target = item.expr;
      if (target->kind == SqlExpr::Kind::kColumn && target->qualifier.empty()) {
        for (const SelectItem& si : stmt.items) {
          if (!si.alias.empty() && si.alias == target->name) {
            target = si.expr;
            break;
          }
        }
      }
      ExprPtr bound;
      BIH_RETURN_IF_ERROR(bind_over_agg(target, bind_over_agg, &bound));
      keys.push_back(SortSpec{bound, item.ascending});
    }
    plan = SortPlan(std::move(plan), std::move(keys));
  }

  std::vector<ExprPtr> projections;
  columns->clear();
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    ExprPtr e;
    BIH_RETURN_IF_ERROR(bind_over_agg(stmt.items[i].expr, bind_over_agg, &e));
    projections.push_back(e);
    columns->push_back(DeriveName(stmt.items[i], i));
  }
  plan = ProjectPlan(std::move(plan), std::move(projections));
  if (stmt.distinct) plan = DistinctPlan(std::move(plan));
  if (stmt.limit >= 0) {
    plan = LimitPlan(std::move(plan), static_cast<size_t>(stmt.limit));
  }
  *out_plan = std::move(plan);
  return Status::OK();
}

namespace {

// The one read path: plans `stmt`, optimizes the tree and executes it.
// SELECT, EXPLAIN and the key location of UPDATE/DELETE all run here.
// out->rows is left empty when execution fails (never a partial result).
Status RunQuery(TemporalEngine& engine, const SelectStatement& stmt,
                QueryContext* ctx, const ExecOptions& opts, SqlResult* out,
                PlanPtr* plan, OptimizerReport* report = nullptr) {
  out->rows.clear();
  BIH_RETURN_IF_ERROR(PlanSelect(engine, stmt, plan, &out->columns));
  OptimizePlan(plan, engine, report);
  Status st = Execute(**plan, engine, opts, ctx, &out->rows);
  if (!st.ok()) out->rows.clear();
  return st;
}

}  // namespace

Status ExecuteSelect(TemporalEngine& engine, const SelectStatement& stmt,
                     SqlResult* out, QueryContext* ctx,
                     const ExecOptions& opts) {
  PlanPtr plan;
  return RunQuery(engine, stmt, ctx, opts, out, &plan);
}

Status ExecuteDml(TemporalEngine& engine, const DmlStatement& stmt,
                  SqlResult* out, QueryContext* ctx) {
  if (!engine.HasTable(stmt.table)) {
    return Status::NotFound("no table named " + stmt.table);
  }
  const TableDef& def = engine.GetTableDef(stmt.table);
  const std::vector<ScopeColumn> empty_scope;
  Binder const_binder(&empty_scope);
  out->columns = {"AFFECTED"};

  if (stmt.kind == DmlStatement::Kind::kInsert) {
    if (static_cast<int>(stmt.values.size()) != def.schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT arity mismatch: table " + stmt.table + " has " +
          std::to_string(def.schema.num_columns()) + " columns");
    }
    Row row;
    for (const SqlExprPtr& v : stmt.values) {
      ExprPtr bound;
      BIH_RETURN_IF_ERROR(const_binder.Bind(v, &bound));
      row.push_back(bound->Eval({}));
    }
    BIH_RETURN_IF_ERROR(engine.Insert(stmt.table, std::move(row)));
    out->rows = {{Value(int64_t{1})}};
    return Status::OK();
  }

  // UPDATE / DELETE: resolve the portion clause.
  int period_index = 0;
  if (stmt.has_portion) {
    if (def.app_periods.empty()) {
      return Status::InvalidArgument("table " + stmt.table +
                                     " has no application-time period");
    }
    if (stmt.portion_period != "BUSINESS_TIME") {
      period_index = def.FindAppPeriod(stmt.portion_period);
      if (period_index < 0) {
        return Status::InvalidArgument("table " + stmt.table +
                                       " has no period named " +
                                       stmt.portion_period);
      }
    }
  }

  // Constant assignments resolved to column positions.
  std::vector<ColumnAssignment> set;
  for (const auto& [col, expr] : stmt.assignments) {
    int pos = def.schema.FindColumn(col);
    if (pos < 0) {
      return Status::InvalidArgument("unknown column '" + col + "'");
    }
    ExprPtr bound;
    Status st = const_binder.Bind(expr, &bound);
    if (!st.ok()) {
      return Status::Unimplemented(
          "SET supports only constant expressions: " + st.message());
    }
    set.push_back(ColumnAssignment{pos, bound->Eval({})});
  }

  // The target keys: SELECT DISTINCT <key> FROM <table> WHERE <where>
  // ORDER BY <key>, planned and optimized like any query, so a predicate
  // that pins the key becomes an index probe. Keys apply in key order.
  SelectStatement locate;
  locate.distinct = true;
  locate.from.table = stmt.table;
  locate.from.alias = stmt.table;
  locate.where = stmt.where;
  for (int c : def.primary_key) {
    auto col = std::make_shared<SqlExpr>();
    col->kind = SqlExpr::Kind::kColumn;
    col->name = def.schema.column(c).name;
    locate.items.push_back(SelectItem{col, ""});
    locate.order_by.push_back(OrderItem{col, true});
  }
  SqlResult keys;
  PlanPtr plan;
  BIH_RETURN_IF_ERROR(RunQuery(engine, locate, ctx, {}, &keys, &plan));
  // The statement's only interruption point: once it starts applying it
  // finishes, so it applies all of its keys or none.
  if (ctx != nullptr) BIH_RETURN_IF_ERROR(ctx->CheckNow());

  Period portion(stmt.portion_from, stmt.portion_to);
  engine.Begin();
  for (const Row& key : keys.rows) {
    Status st;
    if (stmt.kind == DmlStatement::Kind::kUpdate) {
      st = stmt.has_portion
               ? engine.UpdateSequenced(stmt.table, key, period_index,
                                        portion, set)
               : engine.UpdateCurrent(stmt.table, key, set);
    } else {
      st = stmt.has_portion
               ? engine.DeleteSequenced(stmt.table, key, period_index, portion)
               : engine.DeleteCurrent(stmt.table, key);
    }
    if (!st.ok()) {
      Status commit = engine.Commit();
      (void)commit;
      return st;
    }
  }
  BIH_RETURN_IF_ERROR(engine.Commit());
  out->rows = {{Value(static_cast<int64_t>(keys.rows.size()))}};
  return Status::OK();
}

namespace {

// Strips a leading (case-insensitive) EXPLAIN keyword; true when present.
bool StripExplainPrefix(const std::string& text, std::string* rest) {
  static const char kKeyword[] = "EXPLAIN";
  size_t i = text.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return false;
  for (size_t k = 0; kKeyword[k] != '\0'; ++k, ++i) {
    if (i >= text.size() ||
        std::toupper(static_cast<unsigned char>(text[i])) != kKeyword[k]) {
      return false;
    }
  }
  if (i >= text.size() ||
      !std::isspace(static_cast<unsigned char>(text[i]))) {
    return false;
  }
  *rest = text.substr(i);
  return true;
}

}  // namespace

Status Explain(TemporalEngine& engine, const std::string& text,
               std::string* json, QueryContext* ctx, const ExecOptions& opts) {
  SelectStatement stmt;
  BIH_RETURN_IF_ERROR(ParseSelect(text, &stmt));
  SqlResult result;
  PlanPtr plan;
  OptimizerReport report;
  BIH_RETURN_IF_ERROR(
      RunQuery(engine, stmt, ctx, opts, &result, &plan, &report));
  *json = "{\"optimizer\":{\"predicates_pushed\":" +
          std::to_string(report.predicates_pushed) +
          ",\"conjuncts_folded\":" + std::to_string(report.conjuncts_folded) +
          ",\"temporal_rewrites\":" +
          std::to_string(report.temporal_rewrites) +
          ",\"scans_pruned\":" + std::to_string(report.scans_pruned) +
          "},\"plan\":" + PlanToJson(*plan) + "}";
  return Status::OK();
}

Status ExecuteSql(TemporalEngine& engine, const std::string& text,
                  SqlResult* out, QueryContext* ctx, const ExecOptions& opts) {
  std::string rest;
  if (StripExplainPrefix(text, &rest)) {
    std::string json;
    BIH_RETURN_IF_ERROR(Explain(engine, rest, &json, ctx, opts));
    out->columns = {"PLAN"};
    out->rows = {{Value(json)}};
    return Status::OK();
  }
  if (LooksLikeDml(text)) {
    DmlStatement stmt;
    BIH_RETURN_IF_ERROR(ParseDml(text, &stmt));
    return ExecuteDml(engine, stmt, out, ctx);
  }
  SelectStatement stmt;
  BIH_RETURN_IF_ERROR(ParseSelect(text, &stmt));
  return ExecuteSelect(engine, stmt, out, ctx, opts);
}

}  // namespace sql
}  // namespace bih
