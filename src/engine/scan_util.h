#ifndef TPCBIH_ENGINE_SCAN_UTIL_H_
#define TPCBIH_ENGINE_SCAN_UTIL_H_

#include <atomic>
#include <cstdint>

#include "catalog/schema.h"
#include "common/value.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "storage/btree_index.h"
#include "storage/row_table.h"
#include "temporal/temporal.h"

namespace bih {

// Positions of the temporal columns inside a scan-schema row. `app_begin`/
// `app_end` are -1 for tables without application time (or when the request
// does not constrain it).
struct TemporalCols {
  int sys_from = -1;
  int sys_to = -1;
  int app_begin = -1;
  int app_end = -1;
};

// Derives the temporal column positions for `def` under the scan schema
// (user columns + sys_from + sys_to) and the requested app period.
TemporalCols ResolveTemporalCols(const TableDef& def, int app_period_index);

// Extracts the system-time period of a scan-schema row.
Period RowSystemPeriod(const Row& row, const TemporalCols& tc);

// Extracts the application-time period; requires app columns present.
Period RowAppPeriod(const Row& row, const TemporalCols& tc);

// Full temporal qualification of a row under the request's selectors.
// `now` is the engine's current system time in micros.
bool MatchesTemporal(const Row& row, const TemporalScanSpec& spec,
                     const TemporalCols& tc, int64_t now);

// Non-temporal residual predicates (equality list + range constraint).
bool MatchesConstraints(const Row& row, const ScanRequest& req);

// Records that one partition of this scan was served by index `name`.
// Every engine's index access paths report through this helper so the
// ExecStats contract is uniform: used_index means *some* partition used an
// index, and index_name lists the chosen index of each served partition in
// scan order, comma-separated (engine_test.cc asserts this).
inline void RecordIndexUse(ExecStats* stats, const std::string& name) {
  stats->used_index = true;
  if (!stats->index_name.empty()) stats->index_name += ",";
  stats->index_name += name;
}

// The system key index access path of the row stores (Systems A and B):
// true when `req.equals` pins every primary-key column of `def`. `key` then
// holds the key in key-column order, and the lookup is recorded as a use of
// the index "pk_current(<table>)".
bool PrimaryKeyLookup(const TableDef& def, const ScanRequest& req,
                      ExecStats* stats, IndexKey* key);

// Morsel body of the row-store fallback scans (Systems A, B and D): examines
// the live slots [begin, end) of `part`, shapes each into the scan-schema
// row through `row_of` (the stored row itself, or a morsel-local scratch row
// for layouts that append or strip columns) and records the ids of the
// qualifying slots. Thread-safe for concurrent morsels of one partition
// (pure reads).
template <class RowOf>
void ScanRowMorsel(const RowTable& part, const RowOf& row_of,
                   const ScanRequest& req, const TemporalCols& tc, int64_t now,
                   uint64_t begin, uint64_t end, const std::atomic<bool>& stop,
                   MorselOutput* out) {
  Row scratch;
  for (RowId rid = begin; rid < end; ++rid) {
    if (MorselInterrupted(stop, req.ctx)) return;
    if (!part.IsLive(rid)) continue;
    ++out->rows_examined;
    const Row& row = row_of(rid, &scratch);
    if (!MatchesTemporal(row, req.temporal, tc, now)) continue;
    if (!MatchesConstraints(row, req)) continue;
    out->rids.push_back(rid);
    out->examined_at.push_back(out->rows_examined);
  }
}

// The morsel-parallel form of a row-store partition scan: workers filter
// with ScanRowMorsel, and each hit is re-shaped through the same `row_of`
// and emitted to `cb` on the coordinator (or, when the request carries a
// sink, handed to the sink on the worker), so rows and counters match the
// serial loop.
template <class RowOf>
void ParallelRowScan(const ParallelScanPlan& plan, const RowTable& part,
                     const RowOf& row_of, const ScanRequest& req,
                     const TemporalCols& tc, int64_t now, ExecStats* stats,
                     bool* stopped, const RowCallback& cb) {
  ParallelScanPartition(
      plan, part.SlotCount(), req.ctx,
      [&](uint64_t begin, uint64_t end, const std::atomic<bool>& stop,
          MorselOutput* out) {
        ScanRowMorsel(part, row_of, req, tc, now, begin, end, stop, out);
      },
      row_of, req.sink, &stats->rows_examined, &stats->rows_output, stopped,
      cb);
}

}  // namespace bih

#endif  // TPCBIH_ENGINE_SCAN_UTIL_H_
