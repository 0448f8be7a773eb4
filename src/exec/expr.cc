#include "exec/expr.h"

namespace bih {

namespace {

Value Arith(Expr::Op op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_int() && b.is_int() && op != Expr::Op::kDiv) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case Expr::Op::kAdd:
        return Value(x + y);
      case Expr::Op::kSub:
        return Value(x - y);
      case Expr::Op::kMul:
        return Value(x * y);
      default:
        break;
    }
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case Expr::Op::kAdd:
      return Value(x + y);
    case Expr::Op::kSub:
      return Value(x - y);
    case Expr::Op::kMul:
      return Value(x * y);
    case Expr::Op::kDiv:
      return y == 0.0 ? Value::Null() : Value(x / y);
    default:
      break;
  }
  return Value::Null();
}

Value Compare3(Expr::Op op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int c = a.Compare(b);
  bool r = false;
  switch (op) {
    case Expr::Op::kEq:
      r = c == 0;
      break;
    case Expr::Op::kNe:
      r = c != 0;
      break;
    case Expr::Op::kLt:
      r = c < 0;
      break;
    case Expr::Op::kLe:
      r = c <= 0;
      break;
    case Expr::Op::kGt:
      r = c > 0;
      break;
    case Expr::Op::kGe:
      r = c >= 0;
      break;
    default:
      break;
  }
  return Value(int64_t{r});
}

}  // namespace

Value Expr::Eval(const Row& row) const {
  switch (op_) {
    case Op::kColumn:
      return row[static_cast<size_t>(column_)];
    case Op::kLiteral:
      return literal_;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
      return Arith(op_, children_[0]->Eval(row), children_[1]->Eval(row));
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      return Compare3(op_, children_[0]->Eval(row), children_[1]->Eval(row));
    case Op::kAnd: {
      // Short-circuit; NULL treated as false for filter purposes.
      Value a = children_[0]->Eval(row);
      if (a.is_null() || a.AsInt() == 0) return Value(int64_t{0});
      Value b = children_[1]->Eval(row);
      return Value(int64_t{!b.is_null() && b.AsInt() != 0});
    }
    case Op::kOr: {
      Value a = children_[0]->Eval(row);
      if (!a.is_null() && a.AsInt() != 0) return Value(int64_t{1});
      Value b = children_[1]->Eval(row);
      return Value(int64_t{!b.is_null() && b.AsInt() != 0});
    }
    case Op::kNot: {
      Value a = children_[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      return Value(int64_t{a.AsInt() == 0});
    }
    case Op::kIsNull:
      return Value(int64_t{children_[0]->Eval(row).is_null()});
    case Op::kContains: {
      Value s = children_[0]->Eval(row);
      Value n = children_[1]->Eval(row);
      if (s.is_null() || n.is_null()) return Value::Null();
      return Value(
          int64_t{s.AsString().find(n.AsString()) != std::string::npos});
    }
    case Op::kStartsWith: {
      Value s = children_[0]->Eval(row);
      Value p = children_[1]->Eval(row);
      if (s.is_null() || p.is_null()) return Value::Null();
      return Value(int64_t{s.AsString().rfind(p.AsString(), 0) == 0});
    }
    case Op::kBetween: {
      Value x = children_[0]->Eval(row);
      Value lo = children_[1]->Eval(row);
      Value hi = children_[2]->Eval(row);
      if (x.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value(int64_t{x.Compare(lo) >= 0 && x.Compare(hi) <= 0});
    }
    case Op::kYear: {
      Value d = children_[0]->Eval(row);
      if (d.is_null()) return Value::Null();
      int y, m, dd;
      d.AsDate().ToYMD(&y, &m, &dd);
      return Value(int64_t{y});
    }
  }
  return Value::Null();
}

ExprPtr Col(int column) { return std::make_shared<Expr>(column); }
ExprPtr Lit(Value v) { return std::make_shared<Expr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value(v)); }
ExprPtr Lit(double v) { return Lit(Value(v)); }
ExprPtr Lit(const char* v) { return Lit(Value(v)); }

namespace {
ExprPtr Mk(Expr::Op op, std::vector<ExprPtr> ch) {
  return std::make_shared<Expr>(op, std::move(ch));
}
}  // namespace

ExprPtr Add(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kAdd, {a, b}); }
ExprPtr Sub(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kSub, {a, b}); }
ExprPtr Mul(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kMul, {a, b}); }
ExprPtr Div(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kDiv, {a, b}); }
ExprPtr Eq(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kEq, {a, b}); }
ExprPtr Ne(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kNe, {a, b}); }
ExprPtr Lt(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kLt, {a, b}); }
ExprPtr Le(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kLe, {a, b}); }
ExprPtr Gt(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kGt, {a, b}); }
ExprPtr Ge(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kGe, {a, b}); }
ExprPtr And(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kAnd, {a, b}); }
ExprPtr Or(ExprPtr a, ExprPtr b) { return Mk(Expr::Op::kOr, {a, b}); }
ExprPtr Not(ExprPtr a) { return Mk(Expr::Op::kNot, {a}); }
ExprPtr IsNull(ExprPtr a) { return Mk(Expr::Op::kIsNull, {a}); }
ExprPtr Contains(ExprPtr s, ExprPtr needle) {
  return Mk(Expr::Op::kContains, {s, needle});
}
ExprPtr StartsWith(ExprPtr s, ExprPtr prefix) {
  return Mk(Expr::Op::kStartsWith, {s, prefix});
}
ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi) {
  return Mk(Expr::Op::kBetween, {x, lo, hi});
}
ExprPtr YearOf(ExprPtr date) { return Mk(Expr::Op::kYear, {date}); }

void CollectColumns(const ExprPtr& e, std::set<int>* cols) {
  if (e == nullptr) return;
  if (e->op() == Expr::Op::kColumn) cols->insert(e->column());
  for (const ExprPtr& c : e->children()) CollectColumns(c, cols);
}

std::string ExprToString(const ExprPtr& e) {
  if (e == nullptr) return "";
  const auto& kids = e->children();
  auto arg = [&kids](size_t i) { return ExprToString(kids[i]); };
  auto infix = [&](const char* op) {
    return "(" + arg(0) + " " + op + " " + arg(1) + ")";
  };
  switch (e->op()) {
    case Expr::Op::kColumn:
      return "col" + std::to_string(e->column());
    case Expr::Op::kLiteral:
      return e->literal().is_string() ? "'" + e->literal().ToString() + "'"
                                      : e->literal().ToString();
    case Expr::Op::kAdd:
      return infix("+");
    case Expr::Op::kSub:
      return infix("-");
    case Expr::Op::kMul:
      return infix("*");
    case Expr::Op::kDiv:
      return infix("/");
    case Expr::Op::kEq:
      return infix("=");
    case Expr::Op::kNe:
      return infix("<>");
    case Expr::Op::kLt:
      return infix("<");
    case Expr::Op::kLe:
      return infix("<=");
    case Expr::Op::kGt:
      return infix(">");
    case Expr::Op::kGe:
      return infix(">=");
    case Expr::Op::kAnd:
      return infix("AND");
    case Expr::Op::kOr:
      return infix("OR");
    case Expr::Op::kNot:
      return "(NOT " + arg(0) + ")";
    case Expr::Op::kIsNull:
      return "(" + arg(0) + " IS NULL)";
    case Expr::Op::kContains:
      return "CONTAINS(" + arg(0) + ", " + arg(1) + ")";
    case Expr::Op::kStartsWith:
      return "STARTS_WITH(" + arg(0) + ", " + arg(1) + ")";
    case Expr::Op::kBetween:
      return "(" + arg(0) + " BETWEEN " + arg(1) + " AND " + arg(2) + ")";
    case Expr::Op::kYear:
      return "YEAR(" + arg(0) + ")";
  }
  return "?";
}

}  // namespace bih
