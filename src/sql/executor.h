#ifndef TPCBIH_SQL_EXECUTOR_H_
#define TPCBIH_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/plan.h"
#include "sql/ast.h"

namespace bih {
namespace sql {

struct SqlResult {
  std::vector<std::string> columns;
  Rows rows;
};

// Lowers a parsed SELECT into a PlanNode tree (no execution, no engine
// mutation — only schema lookups). *columns receives the output column
// names. The tree is un-optimized; callers run OptimizePlan before
// Execute, as ExecuteSelect does.
Status PlanSelect(TemporalEngine& engine, const SelectStatement& stmt,
                  PlanPtr* plan, std::vector<std::string>* columns);

// Binds and executes a parsed statement against an engine: plans,
// optimizes, executes. `ctx` (optional, borrowed) carries the request
// deadline and cancellation: it is consulted per scanned row and at every
// operator boundary, and an interrupted query returns the context's
// verdict. `opts` supplies the execution defaults (scan width, worker
// pool) every plan operator inherits — a server session passes its
// exec_options() here.
Status ExecuteSelect(TemporalEngine& engine, const SelectStatement& stmt,
                     SqlResult* out, QueryContext* ctx = nullptr,
                     const ExecOptions& opts = {});

// Executes a parsed DML statement; `out` reports the number of affected
// keys in a single-row result. Assignments and inserted values must be
// constant expressions (the engine applies one value set per key).
// UPDATE/DELETE locate their keys as the query SELECT DISTINCT <key> FROM
// <table> WHERE <where> ORDER BY <key>, through the same plan, optimizer
// and executor as ExecuteSelect, and apply them in key order in one
// Begin/Commit batch. `ctx` bounds the key location and is checked once
// more before the first key is applied, never after: an interrupted
// statement applies nothing, and one that starts applying finishes.
Status ExecuteDml(TemporalEngine& engine, const DmlStatement& stmt,
                  SqlResult* out, QueryContext* ctx = nullptr);

// Parses + executes in one step; dispatches on the leading keyword
// (SELECT vs INSERT/UPDATE/DELETE). A statement prefixed with EXPLAIN
// plans, optimizes and executes the query, then returns a single-row
// result (column "PLAN") holding the JSON plan tree with per-node
// execution counters and the optimizer report — see Explain().
Status ExecuteSql(TemporalEngine& engine, const std::string& text,
                  SqlResult* out, QueryContext* ctx = nullptr,
                  const ExecOptions& opts = {});

// EXPLAIN worker: plans `text` (a SELECT without the EXPLAIN keyword),
// runs the optimizer, executes the optimized tree, and renders
// {"optimizer": {...rule counters...}, "plan": {...PlanToJson tree...}}
// into *json. Stable key order — tests and tools parse it.
Status Explain(TemporalEngine& engine, const std::string& text,
               std::string* json, QueryContext* ctx = nullptr,
               const ExecOptions& opts = {});

}  // namespace sql
}  // namespace bih

#endif  // TPCBIH_SQL_EXECUTOR_H_
