#ifndef TPCBIH_EXEC_ROWS_H_
#define TPCBIH_EXEC_ROWS_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace bih {

// A fully materialized result set: a query's result, and the input a
// pipeline breaker (sort, distinct, merge join, cross-join build) holds.
// Rows flow between all other plan nodes one at a time (exec/plan.h).
using Rows = std::vector<Row>;

// Pretty-prints rows for the examples and the driver (column names
// optional).
std::string FormatRows(const Rows& rows, const std::vector<std::string>& names,
                       size_t max_rows = 20);

}  // namespace bih

#endif  // TPCBIH_EXEC_ROWS_H_
