#ifndef TPCBIH_EXEC_AGGREGATE_H_
#define TPCBIH_EXEC_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/value.h"
#include "exec/expr.h"

namespace bih {

// The aggregate semantics, once: how an argument folds into a running
// state, how partial states merge, and how a state finishes into its output
// cell. Two folds use them: the plan's Aggregate operator (exec/plan.cc),
// over rows, and the scan-level fold of an ungrouped aggregate directly over
// a Scan (PartitionScan, engine/scan_util.h), over a partition's stored
// cells.
//
// Byte-identity under parallelism: floating-point addition is not
// associative, so a partial never keeps a SUM/AVG sum. It logs its addends
// in row order instead (Addend), and merging the partials in scan order
// replays every addend in the serial order.

enum class AggKind { kSum, kCount, kAvg, kMin, kMax, kCountDistinct };

struct AggSpec {
  AggKind kind;
  // Aggregated expression; ignored for kCount with expr == nullptr
  // (COUNT(*)).
  ExprPtr expr;
};

// Running state of one aggregate in one group. In a partial, SUM and AVG
// keep no sum here: their addends go to the partial's addend log.
struct AggState {
  double sum = 0.0;
  int64_t count = 0;
  bool has = false;
  Value min, max;
  std::set<std::string> distinct;

  void AddNumber(double v) {
    sum += v;
    ++count;
  }
};

// One SUM/AVG addend of a partial: aggregate `agg` of the partial's group
// `group` (0 for an ungrouped aggregate).
struct Addend {
  uint32_t group;
  uint32_t agg;
  double value;
};

// Three-way comparison of a cell with a state's MIN/MAX, as Value::Compare
// orders them. A cell read in place (int64_t or double) is compared with
// the state's value of the same type, so no Value is built for it.
template <class Cell>
int CompareCell(const Cell& v, const Value& m) {
  if constexpr (std::is_same_v<Cell, Value>) {
    return v.Compare(m);
  } else {
    Cell b;
    if constexpr (std::is_same_v<Cell, int64_t>) {
      b = m.AsInt();
    } else {
      b = m.AsDouble();
    }
    return v < b ? -1 : (v == b ? 0 : 1);
  }
}

// Folds one non-NULL argument `v` of an aggregate of `kind` into `s`: an
// int64_t or double read in place, or a Value. A SUM or AVG addend goes to
// `add(double)`.
template <class Cell, class Add>
void FoldValue(AggKind kind, const Cell& v, AggState* s, const Add& add) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      if constexpr (std::is_same_v<Cell, Value>) {
        add(v.AsDouble());
      } else {
        add(static_cast<double>(v));
      }
      break;
    case AggKind::kCount:
      ++s->count;
      break;
    case AggKind::kMin:
      if (!s->has || CompareCell(v, s->min) < 0) s->min = Value(v);
      s->has = true;
      break;
    case AggKind::kMax:
      if (!s->has || CompareCell(v, s->max) > 0) s->max = Value(v);
      s->has = true;
      break;
    case AggKind::kCountDistinct:
      if constexpr (std::is_same_v<Cell, Value>) {
        s->distinct.insert(v.ToString());
      } else {
        s->distinct.insert(Value(v).ToString());
      }
      break;
  }
}

// Folds `n` inputs into `st`, one state per aggregate, aggregate by
// aggregate and each in input order (the states are independent, so this is
// the state row-by-row folding reaches). `arg(i, j, f)` calls `f` with
// aggregate i's argument of input j (an int64_t, double or Value) unless it
// is NULL, which SQL aggregates skip; COUNT(*) reads none. SUM and AVG
// addends go to `add(i, v)`.
template <class Arg, class Add>
void FoldBatch(const std::vector<AggSpec>& aggs, size_t n, const Arg& arg,
               AggState* st, const Add& add) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggSpec& a = aggs[i];
    AggState* s = &st[i];
    if (a.kind == AggKind::kCount && a.expr == nullptr) {
      s->count += static_cast<int64_t>(n);
      continue;
    }
    auto fold = [&](const auto& v) {
      FoldValue(a.kind, v, s, [&](double d) { add(i, d); });
    };
    for (size_t j = 0; j < n; ++j) arg(i, j, fold);
  }
}

// Folds one input row into `st`: a bare-column argument is read in place,
// any other is evaluated into a temporary.
template <class Add>
void FoldRow(const Row& row, const std::vector<AggSpec>& aggs, AggState* st,
             const Add& add) {
  FoldBatch(
      aggs, 1,
      [&](size_t i, size_t, const auto& f) {
        const Expr& e = *aggs[i].expr;
        if (e.op() == Expr::Op::kColumn) {
          const Value& v = row[static_cast<size_t>(e.column())];
          if (!v.is_null()) f(v);
          return;
        }
        const Value v = e.Eval(row);
        if (!v.is_null()) f(v);
      },
      st, add);
}

// Merges the order-independent parts of partial states `part` into `st`,
// one state per aggregate: COUNT, MIN, MAX and COUNT DISTINCT. A partial's
// SUM/AVG addends are replayed separately, in order (AddNumber).
void MergeStates(const std::vector<AggSpec>& aggs, const AggState* part,
                 AggState* st);

// The output cell of a finished state of an aggregate of `kind`. Over no
// input, COUNT is 0 and every other aggregate NULL.
Value FinishState(AggKind kind, const AggState& s);

// The aggregate's SQL name, for EXPLAIN: SUM, COUNT, AVG, MIN, MAX or
// COUNT DISTINCT.
const char* AggKindName(AggKind kind);

}  // namespace bih

#endif  // TPCBIH_EXEC_AGGREGATE_H_
