#include "exec/aggregate.h"

namespace bih {

void MergeStates(const std::vector<AggSpec>& aggs, const AggState* part,
                 AggState* st) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggState& p = part[i];
    AggState& s = st[i];
    switch (aggs[i].kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        break;  // in the addend log
      case AggKind::kCount:
        s.count += p.count;
        break;
      case AggKind::kMin:
        if (p.has && (!s.has || p.min.Compare(s.min) < 0)) s.min = p.min;
        s.has |= p.has;
        break;
      case AggKind::kMax:
        if (p.has && (!s.has || p.max.Compare(s.max) > 0)) s.max = p.max;
        s.has |= p.has;
        break;
      case AggKind::kCountDistinct:
        s.distinct.insert(p.distinct.begin(), p.distinct.end());
        break;
    }
  }
}

Value FinishState(AggKind kind, const AggState& s) {
  switch (kind) {
    case AggKind::kSum:
      return s.count == 0 ? Value::Null() : Value(s.sum);
    case AggKind::kAvg:
      return s.count == 0 ? Value::Null()
                          : Value(s.sum / static_cast<double>(s.count));
    case AggKind::kCount:
      return Value(s.count);
    case AggKind::kMin:
      return s.has ? s.min : Value::Null();
    case AggKind::kMax:
      return s.has ? s.max : Value::Null();
    case AggKind::kCountDistinct:
      return Value(static_cast<int64_t>(s.distinct.size()));
  }
  return Value::Null();
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "SUM";
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kCountDistinct:
      return "COUNT DISTINCT";
  }
  return "?";
}

}  // namespace bih
