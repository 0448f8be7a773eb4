#include "engine/scan_util.h"

#include <algorithm>
#include <string>

#include "engine/index_set.h"
#include "storage/hash_index.h"

namespace bih {

TemporalCols ResolveTemporalCols(const TableDef& def, int app_period_index) {
  TemporalCols tc;
  tc.sys_from = def.schema.num_columns();
  tc.sys_to = def.schema.num_columns() + 1;
  if (!def.app_periods.empty()) {
    BIH_CHECK(app_period_index >= 0 &&
              app_period_index < static_cast<int>(def.app_periods.size()));
    tc.app_begin = def.app_periods[static_cast<size_t>(app_period_index)].begin_col;
    tc.app_end = def.app_periods[static_cast<size_t>(app_period_index)].end_col;
  }
  return tc;
}

Period RowSystemPeriod(const Row& row, const TemporalCols& tc) {
  const Value& from = row[static_cast<size_t>(tc.sys_from)];
  const Value& to = row[static_cast<size_t>(tc.sys_to)];
  return Period(from.is_null() ? Period::kBeginningOfTime : from.AsInt(),
                to.is_null() ? Period::kForever : to.AsInt());
}

Period RowAppPeriod(const Row& row, const TemporalCols& tc) {
  const Value& b = row[static_cast<size_t>(tc.app_begin)];
  const Value& e = row[static_cast<size_t>(tc.app_end)];
  return Period(b.is_null() ? Period::kBeginningOfTime : b.AsInt(),
                e.is_null() ? Period::kForever : e.AsInt());
}

bool MatchesTemporal(const Row& row, const TemporalScanSpec& spec,
                     const TemporalCols& tc, int64_t now) {
  if (!spec.system_time.Matches(RowSystemPeriod(row, tc), now)) return false;
  if (tc.app_begin >= 0) {
    // Application time "now" is the date corresponding to the system clock;
    // the benchmark always pins application time explicitly, so the implicit
    // case simply accepts all versions (non-sequenced semantics).
    if (spec.app_time.kind != TemporalSelector::Kind::kImplicitCurrent &&
        !spec.app_time.Matches(RowAppPeriod(row, tc), now)) {
      return false;
    }
  }
  return true;
}

bool MatchesConstraints(const Row& row, const ScanRequest& req) {
  for (const auto& [col, val] : req.equals) {
    if (row[static_cast<size_t>(col)].Compare(val) != 0) return false;
  }
  if (req.range_col >= 0) {
    const Value& v = row[static_cast<size_t>(req.range_col)];
    if (v.is_null()) return false;
    if (!req.range_lo.is_null() && v.Compare(req.range_lo) < 0) return false;
    if (!req.range_hi.is_null() && v.Compare(req.range_hi) > 0) return false;
  }
  return true;
}

namespace {

// Records that one partition of this scan was served by index `name`. Every
// index access path reports through here so the ExecStats contract is
// uniform: used_index means *some* partition used an index, and index_name
// lists the chosen index of each served partition in scan order,
// comma-separated (engine_test.cc asserts this).
void RecordIndexUse(ExecStats* stats, const std::string& name) {
  stats->used_index = true;
  if (!stats->index_name.empty()) stats->index_name += ",";
  stats->index_name += name;
}

// The system key index access path of the row stores (Systems A and B):
// true when `req.equals` pins every primary-key column of `def`. `key` then
// holds the key in key-column order, and the lookup is recorded as a use of
// the index "pk_current(<table>)".
bool PrimaryKeyLookup(const TableDef& def, const ScanRequest& req,
                      ExecStats* stats, IndexKey* key) {
  if (def.primary_key.empty() || req.equals.empty()) return false;
  key->assign(def.primary_key.size(), Value());
  for (size_t i = 0; i < def.primary_key.size(); ++i) {
    auto it = std::find_if(
        req.equals.begin(), req.equals.end(),
        [&](const auto& eq) { return eq.first == def.primary_key[i]; });
    if (it == req.equals.end()) return false;
    (*key)[i] = it->second;
  }
  RecordIndexUse(stats, "pk_current(" + def.name + ")");
  return true;
}

}  // namespace

PartitionScan::PartitionScan(const TableDef& def, const ScanRequest& req,
                             int64_t now, const RowCallback& cb)
    : def_(def),
      req_(req),
      tc_(ResolveTemporalCols(def, req.temporal.app_period_index)),
      now_(now),
      plan_(ResolveScanPlan(req.exec)),
      stats_(req.stats != nullptr ? req.stats : &local_),
      cb_(cb) {
  *stats_ = ExecStats{};
}

bool PartitionScan::IndexAccess(size_t partition_rows, const IndexSet& tuning,
                                const HashIndex* pk_current,
                                const std::function<bool(RowId)>& visit) {
  std::string index_name;
  if (tuning.TryIndexAccess(req_, tc_, partition_rows, &index_name, visit)) {
    RecordIndexUse(stats_, index_name);
    return true;
  }
  IndexKey key;
  if (pk_current == nullptr || !PrimaryKeyLookup(def_, req_, stats_, &key)) {
    return false;
  }
  pk_current->Lookup(key, visit);
  return true;
}

}  // namespace bih
