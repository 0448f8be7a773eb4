#include "engine/system_b.h"

#include <algorithm>

namespace bih {

SystemBEngine::Table::Table(const TableDef& d)
    : TableBase(d),
      history_schema(scan_schema.Extend({{"TXN_ID", ColumnType::kInt},
                                         {"STMT_TYPE", ColumnType::kInt}})),
      current(def.schema),
      history(history_schema) {}

Status SystemBEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(spec.table, &t));
  if (spec.type == IndexType::kRTree) {
    return Status::Unimplemented("System B supports only B-tree indexes");
  }
  if (spec.partition == PartitionSel::kCurrent) {
    t->current_indexes.AddIndex(
        spec, [&](const std::function<void(RowId, const Row&)>& fn) {
          Row row;
          t->current.Scan([&](RowId rid, const Row&) {
            fn(rid, CurrentRow(*t, rid, &row));
            return true;
          });
        });
  } else {
    FlushUndo(t);
    t->history_indexes.AddIndex(
        spec, [&](const std::function<void(RowId, const Row&)>& fn) {
          t->history.Scan([&](RowId rid, const Row& row) {
            fn(rid, row);
            return true;
          });
        });
  }
  return Status::OK();
}

Status SystemBEngine::DropIndexes(const std::string& table) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  t->current_indexes.Clear();
  t->history_indexes.Clear();
  return Status::OK();
}

const Row& SystemBEngine::CurrentRow(const Table& t, RowId rid, Row* row) {
  const Row& user_row = t.current.Get(rid);
  row->assign(user_row.begin(), user_row.end());
  auto it = t.version_slot.find(rid);
  BIH_CHECK(it != t.version_slot.end());
  row->push_back(Value(t.versions[it->second].sys_from));
  row->push_back(Value(Period::kForever));
  return *row;
}

void SystemBEngine::CurrentVersions(TableBase& table,
                                    const std::vector<Value>& key,
                                    std::vector<VersionRef>* refs,
                                    std::vector<Row>* rows) {
  auto& t = static_cast<Table&>(table);
  t.pk_current.Lookup(key, [&](RowId rid) {
    refs->push_back(rid);
    CurrentRow(t, rid, &rows->emplace_back());
    return true;
  });
}

void SystemBEngine::OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                                StmtKind kind) {
  auto& t = static_cast<Table&>(table);
  // A row planned from a scan-schema version still has room for the two
  // system-time columns, which this layout keeps in the vertical partition.
  user_row.shrink_to_fit();
  RowId rid = t.current.Append(std::move(user_row));
  VersionMeta meta;
  meta.row_ref = rid;
  meta.sys_from = ts.micros();
  // Commit stamps are unique per transaction, so the stamp is the id.
  meta.txn_id = ts.micros();
  meta.stmt_type = static_cast<int64_t>(kind);
  t.versions.push_back(meta);
  t.version_slot[rid] = t.versions.size() - 1;
  t.pk_current.Insert(t.KeyOf(t.current.Get(rid)), rid);
  if (!t.current_indexes.empty()) {
    Row row;
    t.current_indexes.OnInsert(CurrentRow(t, rid, &row), rid);
  }
}

void SystemBEngine::CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                                 StmtKind kind, bool ever_visible) {
  auto& t = static_cast<Table&>(table);
  const RowId rid = ref;
  auto it = t.version_slot.find(rid);
  BIH_CHECK(it != t.version_slot.end());
  VersionMeta& meta = t.versions[it->second];
  if (!t.current_indexes.empty()) {
    Row row;
    t.current_indexes.OnDelete(CurrentRow(t, rid, &row), rid);
  }
  if (ever_visible) {
    Row hist = t.current.Get(rid);
    hist.push_back(Value(meta.sys_from));
    hist.push_back(Value(ts));
    hist.push_back(Value(meta.txn_id));
    hist.push_back(Value(static_cast<int64_t>(kind)));
    t.undo_log.push_back(std::move(hist));
  }
  t.pk_current.Erase(t.KeyOf(t.current.Get(rid)), rid);
  t.current.Delete(rid);
  meta.row_ref = kInvalidRowId;
  t.version_slot.erase(it);
  // Simulated background writer: drains the undo log once it fills up.
  // The unlucky transaction crossing the threshold pays for the batch,
  // which is what produces the 97th-percentile spikes of Fig. 16.
  if (t.undo_log.size() >= kUndoFlushThreshold) FlushUndo(&t);
}

void SystemBEngine::FlushUndo(Table* t) {
  // Nothing pending and no compaction due: return before touching anything,
  // so a Scan-path call on a prepared table is a pure read (concurrent
  // snapshot readers rely on this — see PrepareForReads).
  if (t->undo_log.empty() &&
      !(t->versions.size() > 64 &&
        t->version_slot.size() * 2 < t->versions.size())) {
    return;
  }
  for (Row& row : t->undo_log) {
    RowId hid = t->history.Append(std::move(row));
    if (!t->history_indexes.empty()) {
      t->history_indexes.OnInsert(t->history.Get(hid), hid);
    }
  }
  t->undo_log.clear();
  // Compact the version partition when closed entries dominate it.
  if (t->versions.size() > 64 &&
      t->version_slot.size() * 2 < t->versions.size()) {
    std::vector<VersionMeta> live;
    live.reserve(t->version_slot.size());
    for (const VersionMeta& m : t->versions) {
      if (m.row_ref != kInvalidRowId) live.push_back(m);
    }
    t->versions = std::move(live);
    t->version_slot.clear();
    for (size_t i = 0; i < t->versions.size(); ++i) {
      t->version_slot[t->versions[i].row_ref] = i;
    }
  }
}

void SystemBEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  Table* t = &TableOf<Table>(req.table);
  PartitionScan scan(t->def, req, clock_.Now().micros(), cb);

  if (!scan.needs_history()) {
    // Fast path: current partition only; the system time of a current row
    // is fetched through the row-reference without a join.
    scan.Touch(/*history=*/false);
    scan.ScanRows(
        t->current,
        [t](uint64_t rid, Row* row) -> const Row& {
          return CurrentRow(*t, rid, row);
        },
        t->current_indexes, &t->pk_current);
    return;
  }

  // System time involved: make pending history visible, reconstruct the
  // current partition's temporal information, then union with history.
  // Under the session layer PrepareForReads has already drained the undo
  // log, making this call a no-op on the concurrent read path.
  FlushUndo(t);
  scan.Touch(/*history=*/false);  // current
  scan.Touch(/*history=*/false);  // vertical temporal partition
  // Sort/merge join between the current table and its vertical temporal
  // partition. The version records are in update order, so the join has to
  // sort them — this is the reconstruction overhead the paper attributes
  // System B's history-query penalty to (Sections 5.3.1, 5.5). The join
  // result is built once, here; the scan (and its morsels) only read it.
  std::vector<VersionMeta> sorted = t->versions;
  std::sort(sorted.begin(), sorted.end(),
            [](const VersionMeta& a, const VersionMeta& b) {
              return a.row_ref < b.row_ref;
            });
  std::vector<int64_t> sys_from_of(t->current.SlotCount(), 0);
  for (const VersionMeta& m : sorted) {
    if (m.row_ref != kInvalidRowId) sys_from_of[m.row_ref] = m.sys_from;
  }
  scan.ScanRows(
      t->current,
      [t, &sys_from_of](uint64_t rid, Row* row) -> const Row& {
        const Row& user_row = t->current.Get(rid);
        row->assign(user_row.begin(), user_row.end());
        row->push_back(Value(sys_from_of[rid]));
        row->push_back(Value(Period::kForever));
        return *row;
      },
      t->current_indexes);
  if (scan.stopped()) return;

  // History rows carry extra metadata columns; project to the scan schema.
  scan.Touch(/*history=*/true);
  const int scan_width = t->scan_schema.num_columns();
  scan.ScanRows(
      t->history,
      [t, scan_width](uint64_t rid, Row* row) -> const Row& {
        const Row& hist_row = t->history.Get(rid);
        row->assign(hist_row.begin(), hist_row.begin() + scan_width);
        return *row;
      },
      t->history_indexes);
}

void SystemBEngine::PrepareForReads() {
  ForEachTable<Table>([this](Table& t) { FlushUndo(&t); });
}

Status SystemBEngine::DoInstallVersion(TableBase& table, const Row& stored) {
  auto& t = static_cast<Table&>(table);
  const size_t user_cols = static_cast<size_t>(t.def.schema.num_columns());
  const int64_t sys_from = stored[user_cols].AsInt();
  const int64_t sys_to = stored[user_cols + 1].AsInt();
  if (sys_to == Period::kForever) {
    Row user_row(stored.begin(), stored.begin() + static_cast<long>(user_cols));
    OpenVersion(t, std::move(user_row), Timestamp(sys_from), StmtKind::kInsert);
  } else {
    // Closed versions go straight to the history partition. The metadata
    // columns are zeroed: a restored store has no live transaction ids, and
    // scans never emit them (the scan schema stops at SYS_TIME_END).
    Row hist(stored.begin(), stored.begin() + static_cast<long>(user_cols));
    hist.push_back(Value(sys_from));
    hist.push_back(Value(sys_to));
    hist.push_back(Value(static_cast<int64_t>(0)));  // TXN_ID
    hist.push_back(Value(static_cast<int64_t>(0)));  // STMT_TYPE
    RowId hid = t.history.Append(std::move(hist));
    if (!t.history_indexes.empty()) {
      t.history_indexes.OnInsert(t.history.Get(hid), hid);
    }
  }
  return Status::OK();
}

TableStats SystemBEngine::GetTableStats(const std::string& table) const {
  const Table& t = TableOf<const Table>(table);
  TableStats s;
  s.current_rows = t.current.LiveCount();
  s.history_rows = t.history.LiveCount();
  s.pending_undo = t.undo_log.size();
  return s;
}

}  // namespace bih
