#ifndef TPCBIH_EXEC_EXPR_H_
#define TPCBIH_EXEC_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/value.h"

namespace bih {

// Scalar expression tree evaluated row-at-a-time. Booleans are int64 0/1;
// a NULL operand generally yields NULL (SQL three-valued logic at the level
// the benchmark queries need: filters treat NULL as false).
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Op {
    kColumn,
    kLiteral,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
    kNot,
    kIsNull,
    kContains,    // string containment (LIKE '%x%')
    kStartsWith,  // LIKE 'x%'
    kBetween,     // a <= x <= b, children: {x, a, b}
    kYear,        // EXTRACT(YEAR FROM <date column>)
  };

  Expr(Op op, std::vector<ExprPtr> children)
      : op_(op), children_(std::move(children)) {}
  Expr(int column) : op_(Op::kColumn), column_(column) {}
  explicit Expr(Value literal) : op_(Op::kLiteral), literal_(std::move(literal)) {}

  Value Eval(const Row& row) const;

  // Convenience: evaluates as a filter predicate (NULL -> false).
  bool Test(const Row& row) const {
    Value v = Eval(row);
    return !v.is_null() && v.AsInt() != 0;
  }

  Op op() const { return op_; }
  int column() const { return column_; }
  // Structural accessors for the plan optimizer (expression analysis and
  // column rebasing). `literal()` is only meaningful for kLiteral nodes.
  const Value& literal() const { return literal_; }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  Op op_;
  int column_ = -1;
  Value literal_;
  std::vector<ExprPtr> children_;
};

// Builder helpers; the workload queries compose these.
ExprPtr Col(int column);
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr IsNull(ExprPtr a);
ExprPtr Contains(ExprPtr s, ExprPtr needle);
ExprPtr StartsWith(ExprPtr s, ExprPtr prefix);
ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi);
ExprPtr YearOf(ExprPtr date);

// Adds the columns `e` reads to *cols (nothing for a null `e`).
void CollectColumns(const ExprPtr& e, std::set<int>* cols);

// A compact rendering of `e` for EXPLAIN, e.g. "(col13 > 9000)".
std::string ExprToString(const ExprPtr& e);

}  // namespace bih

#endif  // TPCBIH_EXEC_EXPR_H_
