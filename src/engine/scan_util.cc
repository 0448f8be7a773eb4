#include "engine/scan_util.h"

#include <algorithm>

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

}  // namespace bih
