#include "engine/system_d.h"

#include <algorithm>

namespace bih {

namespace {

Schema StoredSchema(const TableDef& def) {
  return def.schema.Extend({{"SYS_TIME_START", ColumnType::kTimestamp},
                            {"SYS_TIME_END", ColumnType::kTimestamp}});
}

}  // namespace

SystemDEngine::Table* SystemDEngine::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const SystemDEngine::Table* SystemDEngine::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status SystemDEngine::DoCreateTable(const TableDef& def) {
  if (tables_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, Table(def, StoredSchema(def)));
  return Status::OK();
}

Status SystemDEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = Find(spec.table);
  if (t == nullptr) return Status::NotFound("table " + spec.table);
  // Single partition: both partition selectors address the same table.
  t->indexes.AddIndex(
      spec, [&](const std::function<void(RowId, const Row&)>& fn) {
        t->data.Scan([&](RowId rid, const Row& row) {
          fn(rid, row);
          return true;
        });
      });
  return Status::OK();
}

Status SystemDEngine::DropIndexes(const std::string& table) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  t->indexes.Clear();
  return Status::OK();
}

const TableDef& SystemDEngine::GetTableDef(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->def;
}

Schema SystemDEngine::ScanSchema(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->stored_schema;
}

IndexKey SystemDEngine::KeyOf(const Table& t, const Row& row) const {
  IndexKey key;
  key.reserve(t.def.primary_key.size());
  for (int c : t.def.primary_key) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

RowId SystemDEngine::InsertVersion(Table* t, Row user_row, Timestamp ts) {
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  RowId rid = t->data.Append(std::move(user_row));
  const Row& stored = t->data.Get(rid);
  t->current_by_key.Insert(KeyOf(*t, stored), rid);
  t->indexes.OnInsert(stored, rid);
  return rid;
}

void SystemDEngine::CloseVersion(Table* t, RowId rid, Timestamp ts) {
  Row* row = t->data.GetMutable(rid);
  t->current_by_key.Erase(KeyOf(*t, *row), rid);
  if ((*row)[row->size() - 2].AsInt() == ts.micros()) {
    // Same-transaction churn: the version was never visible; drop it.
    t->indexes.OnDelete(*row, rid);
    t->data.Delete(rid);
    return;
  }
  Row old_row = *row;
  (*row)[row->size() - 1] = Value(ts);
  t->indexes.OnUpdate(old_row, *row, rid);
}

Status SystemDEngine::DoInsert(const std::string& table, Row row) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(row.size()) != t->def.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  InsertVersion(t, std::move(row), MutationTime());
  return Status::OK();
}

Status SystemDEngine::DoBulkLoad(const std::string& table,
                               std::vector<Row> rows) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  const size_t arity = static_cast<size_t>(t->stored_schema.num_columns());
  for (Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "bulk rows must carry explicit system-time columns");
    }
    RowId rid = t->data.Append(std::move(row));
    const Row& stored = t->data.Get(rid);
    if (stored[arity - 1].AsInt() == Period::kForever) {
      t->current_by_key.Insert(KeyOf(*t, stored), rid);
    }
    t->indexes.OnInsert(stored, rid);
  }
  return Status::OK();
}

Status SystemDEngine::DoUpdateCurrent(const std::string& table,
                                    const std::vector<Value>& key,
                                    const std::vector<ColumnAssignment>& set) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  std::vector<RowId> rids;
  t->current_by_key.Lookup(key, [&](RowId rid) {
    rids.push_back(rid);
    return true;
  });
  if (rids.empty()) return Status::NotFound("no current version of key");
  for (RowId rid : rids) {
    Row user_row(t->data.Get(rid).begin(), t->data.Get(rid).end() - 2);
    for (const ColumnAssignment& a : set) {
      user_row[static_cast<size_t>(a.column)] = a.value;
    }
    CloseVersion(t, rid, ts);
    InsertVersion(t, std::move(user_row), ts);
  }
  return Status::OK();
}

Status SystemDEngine::ApplySequenced(const std::string& table,
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
  std::vector<RowId> rids;
  t->current_by_key.Lookup(key, [&](RowId rid) {
    rids.push_back(rid);
    return true;
  });
  if (rids.empty()) return Status::NotFound("no current version of key");

  std::vector<Row> versions;
  versions.reserve(rids.size());
  for (RowId rid : rids) versions.push_back(t->data.Get(rid));

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
  for (size_t vi : ops.to_close) CloseVersion(t, rids[vi], ts);
  for (Row& r : ops.to_insert) {
    Row user_row(r.begin(), r.end() - 2);
    InsertVersion(t, std::move(user_row), ts);
  }
  return Status::OK();
}

Status SystemDEngine::DoUpdateSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 0);
}

Status SystemDEngine::DoUpdateOverwrite(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 2);
}

Status SystemDEngine::DoDeleteCurrent(const std::string& table,
                                    const std::vector<Value>& key) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  std::vector<RowId> rids;
  t->current_by_key.Lookup(key, [&](RowId rid) {
    rids.push_back(rid);
    return true;
  });
  if (rids.empty()) return Status::NotFound("no current version of key");
  for (RowId rid : rids) CloseVersion(t, rid, ts);
  return Status::OK();
}

Status SystemDEngine::DoDeleteSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period) {
  return ApplySequenced(table, key, period_index, period, {}, 1);
}

void SystemDEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  Table* t = Find(req.table);
  BIH_CHECK_MSG(t != nullptr, "no table " + req.table);
  ExecStats local;
  ExecStats* stats = req.stats != nullptr ? req.stats : &local;
  *stats = ExecStats{};
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const int64_t now = clock_.Now().micros();
  stats->partitions_touched = 1;
  // No current/history split: any scan sees all versions.
  stats->touched_history = t->def.system_versioned;

  auto consider = [&](const Row& row) -> bool {
    if (req.ctx != nullptr && !req.ctx->KeepGoing()) return false;
    ++stats->rows_examined;
    if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
    if (!MatchesConstraints(row, req)) return true;
    ++stats->rows_output;
    return cb(row);
  };

  std::string index_name;
  if (t->indexes.TryIndexAccess(req, tc, t->data.LiveCount(), &index_name,
                                [&](RowId rid) {
                                  if (!t->data.IsLive(rid)) return true;
                                  return consider(t->data.Get(rid));
                                })) {
    RecordIndexUse(stats, index_name);
  } else {
    const ParallelScanPlan plan =
        ResolveScanPlan(req.exec);
    if (plan.Engage(t->data.SlotCount())) {
      bool stopped = false;
      ParallelRowScan(
          plan, t->data,
          [t](uint64_t rid, Row*) -> const Row& { return t->data.Get(rid); },
          req, tc, now, stats, &stopped, cb);
    } else {
      t->data.Scan([&](RowId, const Row& row) { return consider(row); });
    }
  }
  if (req.stats == nullptr) PublishStats(local);
}

std::vector<std::string> SystemDEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status SystemDEngine::DoInstallVersion(const std::string& table,
                                       const Row& stored) {
  // The single-table layout stores scan-schema rows verbatim; installing a
  // snapshot version is exactly a one-row bulk load.
  return DoBulkLoad(table, {stored});
}

TableStats SystemDEngine::GetTableStats(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  TableStats s;
  s.current_rows = t->current_by_key.size();
  s.history_rows = t->data.LiveCount() - t->current_by_key.size();
  return s;
}

}  // namespace bih
