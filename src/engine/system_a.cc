#include "engine/system_a.h"

#include <algorithm>

namespace bih {

namespace {

Schema StoredSchema(const TableDef& def) {
  return def.schema.Extend({{"SYS_TIME_START", ColumnType::kTimestamp},
                            {"SYS_TIME_END", ColumnType::kTimestamp}});
}

}  // namespace

SystemAEngine::Table* SystemAEngine::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const SystemAEngine::Table* SystemAEngine::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status SystemAEngine::DoCreateTable(const TableDef& def) {
  if (tables_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, Table(def, StoredSchema(def)));
  return Status::OK();
}

Status SystemAEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = Find(spec.table);
  if (t == nullptr) return Status::NotFound("table " + spec.table);
  if (spec.type == IndexType::kRTree) {
    // Architecture A exposes only B-tree (and hash) structures, like the
    // commercial systems in the study (Section 5.2).
    return Status::Unimplemented("System A supports only B-tree indexes");
  }
  auto build = [&](RowTable* part) {
    return [part](const std::function<void(RowId, const Row&)>& fn) {
      part->Scan([&](RowId rid, const Row& row) {
        fn(rid, row);
        return true;
      });
    };
  };
  if (spec.partition == PartitionSel::kCurrent) {
    t->current_indexes.AddIndex(spec, build(&t->current));
  } else {
    t->history_indexes.AddIndex(spec, build(&t->history));
  }
  return Status::OK();
}

Status SystemAEngine::DropIndexes(const std::string& table) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  t->current_indexes.Clear();
  t->history_indexes.Clear();
  return Status::OK();
}

const TableDef& SystemAEngine::GetTableDef(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->def;
}

Schema SystemAEngine::ScanSchema(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->stored_schema;
}

IndexKey SystemAEngine::KeyOf(const Table& t, const Row& stored_row) const {
  IndexKey key;
  key.reserve(t.def.primary_key.size());
  for (int c : t.def.primary_key) {
    key.push_back(stored_row[static_cast<size_t>(c)]);
  }
  return key;
}

std::vector<RowId> SystemAEngine::CurrentVersionsOf(
    Table* t, const std::vector<Value>& key) {
  std::vector<RowId> rids;
  t->pk_current.Lookup(key, [&](RowId rid) {
    rids.push_back(rid);
    return true;
  });
  return rids;
}

RowId SystemAEngine::InsertCurrent(Table* t, Row user_row, Timestamp ts) {
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  RowId rid = t->current.Append(std::move(user_row));
  const Row& stored = t->current.Get(rid);
  t->pk_current.Insert(KeyOf(*t, stored), rid);
  t->current_indexes.OnInsert(stored, rid);
  return rid;
}

void SystemAEngine::MoveToHistory(Table* t, RowId rid, Timestamp ts) {
  Row closed = t->current.Get(rid);
  t->pk_current.Erase(KeyOf(*t, closed), rid);
  t->current_indexes.OnDelete(closed, rid);
  t->current.Delete(rid);
  // A version opened and closed by the same transaction was never visible;
  // only the transaction's final state is versioned.
  if (closed[closed.size() - 2].AsInt() == ts.micros()) return;
  closed[closed.size() - 1] = Value(ts);  // SYS_TIME_END
  RowId hid = t->history.Append(std::move(closed));
  t->history_indexes.OnInsert(t->history.Get(hid), hid);
}

Status SystemAEngine::DoInsert(const std::string& table, Row row) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(row.size()) != t->def.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  InsertCurrent(t, std::move(row), MutationTime());
  return Status::OK();
}

Status SystemAEngine::DoUpdateCurrent(const std::string& table,
                                    const std::vector<Value>& key,
                                    const std::vector<ColumnAssignment>& set) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  std::vector<RowId> rids = CurrentVersionsOf(t, key);
  if (rids.empty()) return Status::NotFound("no current version of key");
  for (RowId rid : rids) {
    Row user_row(t->current.Get(rid).begin(),
                 t->current.Get(rid).end() - 2);  // strip system columns
    for (const ColumnAssignment& a : set) {
      user_row[static_cast<size_t>(a.column)] = a.value;
    }
    MoveToHistory(t, rid, ts);
    InsertCurrent(t, std::move(user_row), ts);
  }
  return Status::OK();
}

Status SystemAEngine::ApplySequenced(const std::string& table,
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
  std::vector<RowId> rids = CurrentVersionsOf(t, key);
  if (rids.empty()) return Status::NotFound("no current version of key");

  std::vector<Row> versions;
  versions.reserve(rids.size());
  for (RowId rid : rids) versions.push_back(t->current.Get(rid));

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
  for (size_t vi : ops.to_close) MoveToHistory(t, rids[vi], ts);
  for (Row& r : ops.to_insert) {
    Row user_row(r.begin(), r.end() - 2);
    InsertCurrent(t, std::move(user_row), ts);
  }
  return Status::OK();
}

Status SystemAEngine::DoUpdateSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 0);
}

Status SystemAEngine::DoUpdateOverwrite(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period,
                                      const std::vector<ColumnAssignment>& set) {
  return ApplySequenced(table, key, period_index, period, set, 2);
}

Status SystemAEngine::DoDeleteCurrent(const std::string& table,
                                    const std::vector<Value>& key) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  Timestamp ts = MutationTime();
  std::vector<RowId> rids = CurrentVersionsOf(t, key);
  if (rids.empty()) return Status::NotFound("no current version of key");
  for (RowId rid : rids) MoveToHistory(t, rid, ts);
  return Status::OK();
}

Status SystemAEngine::DoDeleteSequenced(const std::string& table,
                                      const std::vector<Value>& key,
                                      int period_index, const Period& period) {
  return ApplySequenced(table, key, period_index, period, {}, 1);
}

void SystemAEngine::ScanPartition(const Table& t, bool is_history,
                                  const ScanRequest& req,
                                  const TemporalCols& tc,
                                  const IndexSet& tuning,
                                  const ParallelScanPlan& plan,
                                  ExecStats* stats, bool* stopped,
                                  const RowCallback& cb) {
  const RowTable& part = is_history ? t.history : t.current;
  ++stats->partitions_touched;
  if (is_history) stats->touched_history = true;
  const int64_t now = clock_.Now().micros();

  auto consider = [&](const Row& row) -> bool {
    if (req.ctx != nullptr && !req.ctx->KeepGoing()) {
      *stopped = true;
      return false;
    }
    ++stats->rows_examined;
    if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
    if (!MatchesConstraints(row, req)) return true;
    ++stats->rows_output;
    if (!cb(row)) {
      *stopped = true;
      return false;
    }
    return true;
  };

  // Access path: tuning indexes first; the system key index on the current
  // partition next; table scan as the fallback.
  std::string index_name;
  auto emit_rid = [&](RowId rid) -> bool {
    if (!part.IsLive(rid)) return true;
    return consider(part.Get(rid));
  };
  if (tuning.TryIndexAccess(req, tc, part.LiveCount(), &index_name, emit_rid)) {
    RecordIndexUse(stats, index_name);
    return;
  }
  if (!is_history && !req.equals.empty()) {
    // The system-created key index serves full-key equality on current.
    IndexKey key(t.def.primary_key.size());
    size_t matched = 0;
    for (size_t i = 0; i < t.def.primary_key.size(); ++i) {
      for (const auto& [c, v] : req.equals) {
        if (c == t.def.primary_key[i]) {
          key[i] = v;
          ++matched;
          break;
        }
      }
    }
    if (matched == t.def.primary_key.size() && matched > 0) {
      RecordIndexUse(stats, "pk_current(" + t.def.name + ")");
      t.pk_current.Lookup(key, emit_rid);
      return;
    }
  }
  if (plan.Engage(part.SlotCount())) {
    ParallelRowScan(
        plan, part,
        [&part](uint64_t rid, Row*) -> const Row& { return part.Get(rid); },
        req, tc, now, stats, stopped, cb);
    return;
  }
  part.Scan([&](RowId, const Row& row) { return consider(row); });
}

void SystemAEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  Table* t = Find(req.table);
  BIH_CHECK_MSG(t != nullptr, "no table " + req.table);
  ExecStats local;
  ExecStats* stats = req.stats != nullptr ? req.stats : &local;
  *stats = ExecStats{};
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const ParallelScanPlan plan =
      ResolveScanPlan(req.exec);
  bool stopped = false;
  // Partition pruning: only the implicit-current case avoids the history
  // table. An explicit AS OF <now> is *not* recognized (Section 5.3.5).
  ScanPartition(*t, /*is_history=*/false, req, tc, t->current_indexes, plan,
                stats, &stopped, cb);
  if (!stopped && t->def.system_versioned &&
      req.temporal.system_time.kind != TemporalSelector::Kind::kImplicitCurrent) {
    ScanPartition(*t, /*is_history=*/true, req, tc, t->history_indexes, plan,
                  stats, &stopped, cb);
  }
  if (req.stats == nullptr) PublishStats(local);
}

std::vector<std::string> SystemAEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status SystemAEngine::DoInstallVersion(const std::string& table,
                                       const Row& stored) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(stored.size()) != t->stored_schema.num_columns()) {
    return Status::InvalidArgument("snapshot row arity mismatch for " + table);
  }
  const bool open = stored.back().AsInt() == Period::kForever;
  if (open) {
    RowId rid = t->current.Append(stored);
    const Row& r = t->current.Get(rid);
    t->pk_current.Insert(KeyOf(*t, r), rid);
    t->current_indexes.OnInsert(r, rid);
  } else {
    RowId hid = t->history.Append(stored);
    t->history_indexes.OnInsert(t->history.Get(hid), hid);
  }
  return Status::OK();
}

TableStats SystemAEngine::GetTableStats(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  TableStats s;
  s.current_rows = t->current.LiveCount();
  s.history_rows = t->history.LiveCount();
  return s;
}

}  // namespace bih
