#include "engine/system_c.h"

#include <algorithm>

namespace bih {

namespace {

Schema StoredSchema(const TableDef& def) {
  // The hidden system-time columns; exposed in the scan schema at the same
  // positions other engines expose SYS_TIME_START/SYS_TIME_END.
  return def.schema.Extend({{"VALID_FROM", ColumnType::kTimestamp},
                            {"VALID_TO", ColumnType::kTimestamp}});
}

}  // namespace

SystemCEngine::Table* SystemCEngine::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const SystemCEngine::Table* SystemCEngine::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status SystemCEngine::DoCreateTable(const TableDef& def) {
  if (tables_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, Table(def, StoredSchema(def)));
  return Status::OK();
}

Status SystemCEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = Find(spec.table);
  if (t == nullptr) return Status::NotFound("table " + spec.table);
  if (spec.type == IndexType::kRTree) {
    return Status::Unimplemented("System C supports only B-tree indexes");
  }
  // Accepted, never consulted: the scan-based executor gains nothing from
  // secondary B-trees (Section 5.3.2: "System C does not benefit at all
  // from the additional B-Tree index").
  t->ignored_indexes.push_back(spec.name);
  return Status::OK();
}

Status SystemCEngine::DropIndexes(const std::string& table) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  t->ignored_indexes.clear();
  return Status::OK();
}

const TableDef& SystemCEngine::GetTableDef(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->def;
}

Schema SystemCEngine::ScanSchema(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->stored_schema;
}

IndexKey SystemCEngine::KeyOf(const Table& t, const Row& row) const {
  IndexKey key;
  key.reserve(t.def.primary_key.size());
  for (int c : t.def.primary_key) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

SystemCEngine::Loc SystemCEngine::AppendVersion(Table* t, Row user_row,
                                                Timestamp ts) {
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  RowId rid = t->delta.Append(user_row);
  Loc loc{Part::kDelta, rid};
  t->current_by_key[KeyOf(*t, user_row)].push_back(loc);
  return loc;
}

void SystemCEngine::InvalidateVersion(Table* t, const Loc& loc, Timestamp ts) {
  ColumnTable* part = PartOf(t, loc.part);
  const int vt_col = t->stored_schema.num_columns() - 1;
  const int vf_col = vt_col - 1;
  if (part->Get(loc.rid, vf_col).AsInt() == ts.micros()) {
    // Opened by the same transaction: physically drop instead of keeping a
    // never-visible version.
    part->Delete(loc.rid);
  } else {
    part->Set(loc.rid, vt_col, Value(ts));
  }
  IndexKey key;
  for (int c : t->def.primary_key) key.push_back(part->Get(loc.rid, c));
  auto it = t->current_by_key.find(key);
  BIH_CHECK(it != t->current_by_key.end());
  auto& locs = it->second;
  locs.erase(std::remove_if(locs.begin(), locs.end(),
                            [&](const Loc& l) {
                              return l.part == loc.part && l.rid == loc.rid;
                            }),
             locs.end());
  if (locs.empty()) t->current_by_key.erase(it);
}

void SystemCEngine::MaybeMerge(Table* t) {
  if (t->delta.SlotCount() >= kMergeThreshold) MergeTable(t);
}

void SystemCEngine::MergeTable(Table* t) {
  const int vt_col = t->stored_schema.num_columns() - 1;
  // Move delta rows: visible versions to main, invalidated ones straight to
  // history. Row ids change; patch the key map as we go.
  t->delta.Scan([&](RowId old_rid, const Row& row) {
    const Value& vt = row[static_cast<size_t>(vt_col)];
    const bool open = !vt.is_null() && vt.AsInt() == Period::kForever;
    if (open) {
      RowId new_rid = t->main.Append(row);
      IndexKey key = KeyOf(*t, row);
      auto it = t->current_by_key.find(key);
      BIH_CHECK(it != t->current_by_key.end());
      for (Loc& l : it->second) {
        if (l.part == Part::kDelta && l.rid == old_rid) {
          l.part = Part::kMain;
          l.rid = new_rid;
          break;
        }
      }
    } else {
      t->history.Append(row);
    }
    return true;
  });
  t->delta.Clear();
  // Relocate main rows invalidated since the last merge.
  const size_t main_size = t->main.SlotCount();
  for (RowId rid = 0; rid < main_size; ++rid) {
    if (!t->main.IsLive(rid)) continue;
    Value vt = t->main.Get(rid, vt_col);
    if (!vt.is_null() && vt.AsInt() != Period::kForever) {
      t->history.Append(t->main.GetRow(rid));
      t->main.Delete(rid);
    }
  }
}

void SystemCEngine::Maintain() {
  for (auto& [name, t] : tables_) MergeTable(&t);
}

Status SystemCEngine::DoInsert(const std::string& table, Row row) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(row.size()) != t->def.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  AppendVersion(t, std::move(row), MutationTime());
  MaybeMerge(t);
  return Status::OK();
}

Status SystemCEngine::DoUpdateCurrent(const std::string& table,
                                    const std::vector<Value>& key,
                                    const std::vector<ColumnAssignment>& set) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  auto it = t->current_by_key.find(key);
  if (it == t->current_by_key.end()) {
    return Status::NotFound("no current version of key");
  }
  std::vector<Loc> locs = it->second;
  for (const Loc& loc : locs) {
    ColumnTable* part = PartOf(t, loc.part);
    Row user_row = part->GetRow(loc.rid);
    user_row.resize(static_cast<size_t>(t->def.schema.num_columns()));
    for (const ColumnAssignment& a : set) {
      user_row[static_cast<size_t>(a.column)] = a.value;
    }
    InvalidateVersion(t, loc, ts);
    AppendVersion(t, std::move(user_row), ts);
  }
  MaybeMerge(t);
  return Status::OK();
}

Status SystemCEngine::ApplySequenced(const std::string& table,
                                     const std::vector<Value>& key,
                                     int period_index, const Period& period,
                                     const std::vector<ColumnAssignment>& set,
                                     int mode) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (period_index < 0 ||
      period_index >= static_cast<int>(t->def.app_periods.size())) {
    return Status::InvalidArgument("no such application-time period");
  }
  const AppPeriodDef& ap =
      t->def.app_periods[static_cast<size_t>(period_index)];
  Timestamp ts = MutationTime();
  auto it = t->current_by_key.find(key);
  if (it == t->current_by_key.end()) {
    return Status::NotFound("no current version of key");
  }
  std::vector<Loc> locs = it->second;
  std::vector<Row> versions;
  versions.reserve(locs.size());
  for (const Loc& loc : locs) {
    versions.push_back(PartOf(t, loc.part)->GetRow(loc.rid));
  }
  SequencedOps ops;
  switch (mode) {
    case 0:
      ops = PlanSequencedUpdate(versions, ap.begin_col, ap.end_col, period, set);
      break;
    case 1:
      ops = PlanSequencedDelete(versions, ap.begin_col, ap.end_col, period);
      break;
    default:
      ops = PlanOverwriteUpdate(versions, ap.begin_col, ap.end_col, period, set);
      break;
  }
  for (size_t vi : ops.to_close) InvalidateVersion(t, locs[vi], ts);
  for (Row& r : ops.to_insert) {
    r.resize(static_cast<size_t>(t->def.schema.num_columns()));
    AppendVersion(t, std::move(r), ts);
  }
  MaybeMerge(t);
  return Status::OK();
}

Status SystemCEngine::DoUpdateSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 0);
}

Status SystemCEngine::DoUpdateOverwrite(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 2);
}

Status SystemCEngine::DoDeleteCurrent(const std::string& table,
                                    const std::vector<Value>& key) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  auto it = t->current_by_key.find(key);
  if (it == t->current_by_key.end()) {
    return Status::NotFound("no current version of key");
  }
  std::vector<Loc> locs = it->second;
  for (const Loc& loc : locs) InvalidateVersion(t, loc, ts);
  return Status::OK();
}

Status SystemCEngine::DoDeleteSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period) {
  return ApplySequenced(table, key, period_index, period, {}, 1);
}

void SystemCEngine::ScanMorsel(const ColumnTable& part, const ScanRequest& req,
                               const TemporalCols& tc, int64_t now, int ncols,
                               const std::vector<uint8_t>& checked,
                               uint64_t begin, uint64_t end,
                               const std::atomic<bool>& stop,
                               MorselOutput* out) const {
  // Only the checked columns are fetched here; the coordinator materializes
  // the emit columns of the qualifying slots (see ScanPartition).
  Row row(static_cast<size_t>(ncols));
  for (RowId rid = begin; rid < end; ++rid) {
    if (MorselInterrupted(stop, req.ctx)) return;
    if (!part.IsLive(rid)) continue;
    ++out->rows_examined;
    for (int c = 0; c < ncols; ++c) {
      if (checked[static_cast<size_t>(c)]) row[static_cast<size_t>(c)] = part.Get(rid, c);
    }
    if (!MatchesTemporal(row, req.temporal, tc, now)) continue;
    if (!MatchesConstraints(row, req)) continue;
    out->rids.push_back(rid);
    out->examined_at.push_back(out->rows_examined);
  }
}

void SystemCEngine::ScanPartition(const Table& t, const ColumnTable& part,
                                  bool is_history, const ScanRequest& req,
                                  const TemporalCols& tc,
                                  const ParallelScanPlan& plan,
                                  ExecStats* stats, bool* stopped,
                                  const RowCallback& cb) {
  ++stats->partitions_touched;
  if (is_history) stats->touched_history = true;
  const int64_t now = clock_.Now().micros();
  const int ncols = t.stored_schema.num_columns();

  // Columns that predicates read; fetched before materialization so a scan
  // touches only the filter columns of non-qualifying rows — the column
  // store's advantage.
  std::vector<uint8_t> checked(static_cast<size_t>(ncols), 0);
  checked[static_cast<size_t>(tc.sys_from)] = 1;
  checked[static_cast<size_t>(tc.sys_to)] = 1;
  if (tc.app_begin >= 0) {
    checked[static_cast<size_t>(tc.app_begin)] = 1;
    checked[static_cast<size_t>(tc.app_end)] = 1;
  }
  for (const auto& [c, v] : req.equals) checked[static_cast<size_t>(c)] = 1;
  if (req.range_col >= 0) checked[static_cast<size_t>(req.range_col)] = 1;

  // Columns to materialize in emitted rows.
  std::vector<uint8_t> emit_col(static_cast<size_t>(ncols), 0);
  if (req.projection.empty()) {
    std::fill(emit_col.begin(), emit_col.end(), 1);
  } else {
    for (int c : req.projection) emit_col[static_cast<size_t>(c)] = 1;
    emit_col[static_cast<size_t>(tc.sys_from)] = 1;
    emit_col[static_cast<size_t>(tc.sys_to)] = 1;
  }

  if (plan.Engage(part.SlotCount())) {
    ParallelScanPartition(
        plan, part.SlotCount(), req.ctx,
        [&](uint64_t begin, uint64_t end, const std::atomic<bool>& stop,
            MorselOutput* out) {
          ScanMorsel(part, req, tc, now, ncols, checked, begin, end, stop,
                     out);
        },
        // Columns that are neither checked nor emitted stay null, exactly
        // as in the serial loop's scratch row.
        [&](uint64_t rid, Row* row) -> const Row& {
          row->resize(static_cast<size_t>(ncols));
          for (int c = 0; c < ncols; ++c) {
            const size_t i = static_cast<size_t>(c);
            if (checked[i] || emit_col[i]) (*row)[i] = part.Get(rid, c);
          }
          return *row;
        },
        &stats->rows_examined, &stats->rows_output, stopped, cb);
    return;
  }

  const size_t slots = part.SlotCount();
  Row row(static_cast<size_t>(ncols));
  for (RowId rid = 0; rid < slots; ++rid) {
    if (req.ctx != nullptr && !req.ctx->KeepGoing()) {
      *stopped = true;
      return;
    }
    if (!part.IsLive(rid)) continue;
    ++stats->rows_examined;
    for (int c = 0; c < ncols; ++c) {
      if (checked[static_cast<size_t>(c)]) row[static_cast<size_t>(c)] = part.Get(rid, c);
    }
    if (!MatchesTemporal(row, req.temporal, tc, now)) continue;
    if (!MatchesConstraints(row, req)) continue;
    for (int c = 0; c < ncols; ++c) {
      if (emit_col[static_cast<size_t>(c)] && !checked[static_cast<size_t>(c)]) {
        row[static_cast<size_t>(c)] = part.Get(rid, c);
      }
    }
    ++stats->rows_output;
    if (!cb(row)) {
      *stopped = true;
      return;
    }
  }
}

void SystemCEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  Table* t = Find(req.table);
  BIH_CHECK_MSG(t != nullptr, "no table " + req.table);
  ExecStats local;
  ExecStats* stats = req.stats != nullptr ? req.stats : &local;
  *stats = ExecStats{};
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const ParallelScanPlan plan =
      ResolveScanPlan(req.exec);
  bool stopped = false;
  ScanPartition(*t, t->delta, /*is_history=*/false, req, tc, plan, stats,
                &stopped, cb);
  if (!stopped) {
    ScanPartition(*t, t->main, /*is_history=*/false, req, tc, plan, stats,
                  &stopped, cb);
  }
  if (!stopped && t->def.system_versioned &&
      req.temporal.system_time.kind != TemporalSelector::Kind::kImplicitCurrent) {
    ScanPartition(*t, t->history, /*is_history=*/true, req, tc, plan, stats,
                  &stopped, cb);
  }
  if (req.stats == nullptr) PublishStats(local);
}

std::vector<std::string> SystemCEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status SystemCEngine::DoInstallVersion(const std::string& table,
                                       const Row& stored) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(stored.size()) != t->stored_schema.num_columns()) {
    return Status::InvalidArgument("snapshot row arity mismatch for " + table);
  }
  const size_t user_cols = static_cast<size_t>(t->def.schema.num_columns());
  const int64_t sys_from = stored[user_cols].AsInt();
  const bool open = stored[user_cols + 1].AsInt() == Period::kForever;
  if (open) {
    Row user_row(stored.begin(), stored.begin() + static_cast<long>(user_cols));
    AppendVersion(t, std::move(user_row), Timestamp(sys_from));
    MaybeMerge(t);
  } else {
    // Invalidated versions land in history directly; they never pass
    // through delta, so no key-map maintenance is needed.
    t->history.Append(stored);
  }
  return Status::OK();
}

TableStats SystemCEngine::GetTableStats(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  TableStats s;
  s.current_rows = t->delta.LiveCount() + t->main.LiveCount();
  s.history_rows = t->history.LiveCount();
  return s;
}

}  // namespace bih
