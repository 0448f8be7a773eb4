#include "engine/system_a.h"

namespace bih {

Status SystemAEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(spec.table, &t));
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
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  t->current_indexes.Clear();
  t->history_indexes.Clear();
  return Status::OK();
}

void SystemAEngine::CurrentVersions(TableBase& table,
                                    const std::vector<Value>& key,
                                    std::vector<VersionRef>* refs,
                                    std::vector<Row>* rows) {
  auto& t = static_cast<Table&>(table);
  t.pk_current.Lookup(key, [&](RowId rid) {
    refs->push_back(rid);
    rows->push_back(t.current.Get(rid));
    return true;
  });
}

void SystemAEngine::OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                                StmtKind) {
  auto& t = static_cast<Table&>(table);
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  AddCurrent(&t, std::move(user_row));
}

void SystemAEngine::AddCurrent(Table* t, Row stored) {
  RowId rid = t->current.Append(std::move(stored));
  const Row& row = t->current.Get(rid);
  t->pk_current.Insert(t->KeyOf(row), rid);
  t->current_indexes.OnInsert(row, rid);
}

void SystemAEngine::CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                                 StmtKind, bool ever_visible) {
  // The move to history: the version leaves the current partition and,
  // unless it was never visible, lands in history with its system interval
  // truncated at `ts`.
  auto& t = static_cast<Table&>(table);
  const RowId rid = ref;
  Row closed = t.current.Get(rid);
  t.pk_current.Erase(t.KeyOf(closed), rid);
  t.current_indexes.OnDelete(closed, rid);
  t.current.Delete(rid);
  if (!ever_visible) return;
  closed[closed.size() - 1] = Value(ts);  // SYS_TIME_END
  RowId hid = t.history.Append(std::move(closed));
  t.history_indexes.OnInsert(t.history.Get(hid), hid);
}

void SystemAEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  const Table& t = TableOf<const Table>(req.table);
  PartitionScan scan(t.def, req, clock_.Now().micros(), cb);
  // Both partitions store scan-schema rows; the system key index serves
  // the current partition only.
  auto stored = [](const RowTable& part) {
    return [&part](uint64_t rid, Row*) -> const Row& { return part.Get(rid); };
  };
  scan.Touch(/*history=*/false);
  scan.ScanRows(t.current, stored(t.current), t.current_indexes,
                &t.pk_current);
  if (scan.stopped() || !scan.needs_history()) return;
  scan.Touch(/*history=*/true);
  scan.ScanRows(t.history, stored(t.history), t.history_indexes);
}

Status SystemAEngine::DoInstallVersion(TableBase& table, const Row& stored) {
  auto& t = static_cast<Table&>(table);
  if (stored.back().AsInt() == Period::kForever) {
    AddCurrent(&t, stored);
  } else {
    RowId hid = t.history.Append(stored);
    t.history_indexes.OnInsert(t.history.Get(hid), hid);
  }
  return Status::OK();
}

TableStats SystemAEngine::GetTableStats(const std::string& table) const {
  const Table& t = TableOf<const Table>(table);
  TableStats s;
  s.current_rows = t.current.LiveCount();
  s.history_rows = t.history.LiveCount();
  return s;
}

}  // namespace bih
