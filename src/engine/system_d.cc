#include "engine/system_d.h"

namespace bih {

Status SystemDEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(spec.table, &t));
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
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  t->indexes.Clear();
  return Status::OK();
}

void SystemDEngine::CurrentVersions(TableBase& table,
                                    const std::vector<Value>& key,
                                    std::vector<VersionRef>* refs,
                                    std::vector<Row>* rows) {
  auto& t = static_cast<Table&>(table);
  t.current_by_key.Lookup(key, [&](RowId rid) {
    refs->push_back(rid);
    rows->push_back(t.data.Get(rid));
    return true;
  });
}

void SystemDEngine::OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                                StmtKind) {
  auto& t = static_cast<Table&>(table);
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  AddVersion(&t, std::move(user_row));
}

void SystemDEngine::CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                                 StmtKind, bool ever_visible) {
  auto& t = static_cast<Table&>(table);
  const RowId rid = ref;
  Row* row = t.data.GetMutable(rid);
  t.current_by_key.Erase(t.KeyOf(*row), rid);
  if (!ever_visible) {
    t.indexes.OnDelete(*row, rid);
    t.data.Delete(rid);
    return;
  }
  Row old_row = *row;
  (*row)[row->size() - 1] = Value(ts);  // SYS_TIME_END
  t.indexes.OnUpdate(old_row, *row, rid);
}

void SystemDEngine::AddVersion(Table* t, Row stored) {
  RowId rid = t->data.Append(std::move(stored));
  const Row& row = t->data.Get(rid);
  if (row.back().AsInt() == Period::kForever) {
    t->current_by_key.Insert(t->KeyOf(row), rid);
  }
  t->indexes.OnInsert(row, rid);
}

Status SystemDEngine::DoBulkLoad(const std::string& table,
                                 std::vector<Row> rows) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  const size_t arity = static_cast<size_t>(t->scan_schema.num_columns());
  for (Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "bulk rows must carry explicit system-time columns");
    }
    AddVersion(t, std::move(row));
  }
  return Status::OK();
}

void SystemDEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  const Table& t = TableOf<const Table>(req.table);
  PartitionScan scan(t.def, req, clock_.Now().micros(), cb);
  // No current/history split: any scan sees all versions.
  scan.Touch(/*history=*/t.def.system_versioned);
  scan.ScanRows(
      t.data,
      [&t](uint64_t rid, Row*) -> const Row& { return t.data.Get(rid); },
      t.indexes);
}

Status SystemDEngine::DoInstallVersion(TableBase& table, const Row& stored) {
  // The single-table layout stores scan-schema rows verbatim; installing a
  // snapshot version is exactly a one-row bulk load.
  AddVersion(&static_cast<Table&>(table), stored);
  return Status::OK();
}

TableStats SystemDEngine::GetTableStats(const std::string& table) const {
  const Table& t = TableOf<const Table>(table);
  TableStats s;
  s.current_rows = t.current_by_key.size();
  s.history_rows = t.data.LiveCount() - t.current_by_key.size();
  return s;
}

}  // namespace bih
