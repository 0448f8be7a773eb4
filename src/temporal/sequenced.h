#ifndef TPCBIH_TEMPORAL_SEQUENCED_H_
#define TPCBIH_TEMPORAL_SEQUENCED_H_

#include <utility>
#include <vector>

#include "common/period.h"
#include "common/value.h"

namespace bih {

// Column assignment applied by an update: row[column] = value.
struct ColumnAssignment {
  int column;
  Value value;
};

// Result of planning a sequenced application-time DML statement against the
// existing application-time versions of one key. `to_close` indexes into the
// input version vector: those versions end (move to history in system time).
// `to_insert` are replacement rows with adjusted application-time periods.
struct SequencedOps {
  std::vector<size_t> to_close;
  std::vector<Row> to_insert;
};

// Plans a SEQUENCED VALIDTIME UPDATE (Snodgrass): rows whose application
// period [begin_col, end_col) overlaps `update_period` are split so that the
// overlapping part carries the assignments while the non-overlapping
// leftovers keep the old values. Rows outside the period are untouched.
//
// `versions` are the currently visible (in system time) application-time
// versions of a single key. The begin/end columns must hold int64 values.
SequencedOps PlanSequencedUpdate(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& update_period,
                                 const std::vector<ColumnAssignment>& set);

// Plans a SEQUENCED VALIDTIME DELETE: the overlap with `delete_period`
// disappears; leftovers before/after survive as new versions.
SequencedOps PlanSequencedDelete(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& delete_period);

// Plans a NONSEQUENCED (overwrite) update: every version overlapping the
// period is closed and one new row spanning exactly `update_period` with the
// assignments applied (based on the latest overlapped version's values) is
// inserted. Matches the "Overwrite App. Time" operations of Table 2.
SequencedOps PlanOverwriteUpdate(const std::vector<Row>& versions,
                                 int begin_col, int end_col,
                                 const Period& update_period,
                                 const std::vector<ColumnAssignment>& set);

// Returns the application-time period stored in `row`.
inline Period RowPeriod(const Row& row, int begin_col, int end_col) {
  return Period(row[static_cast<size_t>(begin_col)].AsInt(),
                row[static_cast<size_t>(end_col)].AsInt());
}

}  // namespace bih

#endif  // TPCBIH_TEMPORAL_SEQUENCED_H_
