#include "temporal/sequenced.h"

namespace bih {

namespace {

Row WithAssignments(Row row, const std::vector<ColumnAssignment>& set) {
  for (const ColumnAssignment& a : set) {
    row[static_cast<size_t>(a.column)] = a.value;
  }
  return row;
}

// Writes `p` into the period columns of `row`.
void SetRowPeriod(Row* row, int begin_col, int end_col, const Period& p) {
  (*row)[static_cast<size_t>(begin_col)] = Value(p.begin);
  (*row)[static_cast<size_t>(end_col)] = Value(p.end);
}

}  // namespace

SequencedOps PlanSequencedUpdate(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& update_period,
                                 const std::vector<ColumnAssignment>& set) {
  SequencedOps ops;
  for (size_t i = 0; i < versions.size(); ++i) {
    const Row& v = versions[i];
    Period p = RowPeriod(v, begin_col, end_col);
    if (!p.Overlaps(update_period)) continue;
    ops.to_close.push_back(i);
    // Leftover before the update window keeps the old values.
    if (p.begin < update_period.begin) {
      Row left = v;
      SetRowPeriod(&left, begin_col, end_col,
                   Period(p.begin, update_period.begin));
      ops.to_insert.push_back(std::move(left));
    }
    // Overlap carries the assignments.
    Period mid = p.Intersect(update_period);
    Row changed = WithAssignments(v, set);
    SetRowPeriod(&changed, begin_col, end_col, mid);
    ops.to_insert.push_back(std::move(changed));
    // Leftover after the window keeps the old values.
    if (p.end > update_period.end) {
      Row right = v;
      SetRowPeriod(&right, begin_col, end_col, Period(update_period.end, p.end));
      ops.to_insert.push_back(std::move(right));
    }
  }
  return ops;
}

SequencedOps PlanSequencedDelete(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& delete_period) {
  SequencedOps ops;
  for (size_t i = 0; i < versions.size(); ++i) {
    const Row& v = versions[i];
    Period p = RowPeriod(v, begin_col, end_col);
    if (!p.Overlaps(delete_period)) continue;
    ops.to_close.push_back(i);
    if (p.begin < delete_period.begin) {
      Row left = v;
      SetRowPeriod(&left, begin_col, end_col,
                   Period(p.begin, delete_period.begin));
      ops.to_insert.push_back(std::move(left));
    }
    if (p.end > delete_period.end) {
      Row right = v;
      SetRowPeriod(&right, begin_col, end_col, Period(delete_period.end, p.end));
      ops.to_insert.push_back(std::move(right));
    }
  }
  return ops;
}

SequencedOps PlanOverwriteUpdate(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& update_period,
                                 const std::vector<ColumnAssignment>& set) {
  SequencedOps ops;
  const Row* base = nullptr;
  int64_t best_begin = Period::kBeginningOfTime;
  for (size_t i = 0; i < versions.size(); ++i) {
    const Row& v = versions[i];
    Period p = RowPeriod(v, begin_col, end_col);
    if (!p.Overlaps(update_period)) continue;
    ops.to_close.push_back(i);
    // Leftovers outside the overwrite window survive.
    if (p.begin < update_period.begin) {
      Row left = v;
      SetRowPeriod(&left, begin_col, end_col,
                   Period(p.begin, update_period.begin));
      ops.to_insert.push_back(std::move(left));
    }
    if (p.end > update_period.end) {
      Row right = v;
      SetRowPeriod(&right, begin_col, end_col, Period(update_period.end, p.end));
      ops.to_insert.push_back(std::move(right));
    }
    if (p.begin >= best_begin) {
      best_begin = p.begin;
      base = &v;
    }
  }
  if (base != nullptr) {
    Row merged = WithAssignments(*base, set);
    SetRowPeriod(&merged, begin_col, end_col, update_period);
    ops.to_insert.push_back(std::move(merged));
  }
  return ops;
}

}  // namespace bih
