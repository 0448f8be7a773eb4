#include "engine/engine.h"

#include "engine/system_a.h"
#include "engine/system_b.h"
#include "engine/system_c.h"
#include "engine/system_d.h"

namespace bih {

void TemporalEngine::Begin() {
  BIH_CHECK_MSG(!in_txn_, "nested transactions are not supported");
  in_txn_ = true;
  txn_time_ = clock_.NextCommit();
  txn_wal_.clear();
}

Status TemporalEngine::Commit() {
  BIH_CHECK_MSG(in_txn_, "Commit without Begin");
  in_txn_ = false;
  if (wal_ == nullptr || txn_wal_.empty()) {
    txn_wal_.clear();
    return Status::OK();
  }
  // The batch becomes durable atomically: its records followed by a commit
  // marker, then one flush. A crash anywhere before the marker lands makes
  // recovery discard the whole batch.
  Status st;
  for (const WalRecord& rec : txn_wal_) {
    st = wal_->Append(rec);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    WalRecord commit;
    commit.kind = WalRecord::Kind::kCommit;
    commit.ts = txn_time_.micros();
    st = wal_->Append(commit);
  }
  txn_wal_.clear();
  if (!st.ok()) return st;
  return Acknowledge();
}

Status TemporalEngine::LogMutation(WalRecord rec) {
  if (in_txn_) {
    rec.flags |= WalRecord::kInTxn;
    txn_wal_.push_back(std::move(rec));
    return Status::OK();
  }
  BIH_RETURN_IF_ERROR(wal_->Append(rec));
  return Acknowledge();
}

Status TemporalEngine::Acknowledge() {
  // Outside StageCommits the group sync stages the records itself.
  if (stage_only_) return wal_->Flush();
  return group_->WaitDurable({wal_->appended_lsn()});
}

Status TemporalEngine::StageCommits(
    const std::function<Status(TemporalEngine&)>& fn,
    GroupCommit::Ticket* ticket) {
  stage_only_ = true;
  Status s = fn(*this);
  stage_only_ = false;
  // Taken even when fn failed: a failed statement may sit inside a batch
  // whose earlier statements committed.
  ticket->lsn = wal_ != nullptr ? wal_->appended_lsn() : 0;
  return s;
}

TemporalEngine::TableBase::TableBase(TableDef d, const char* sys_from,
                                     const char* sys_to)
    : def(std::move(d)),
      scan_schema(def.schema.Extend({{sys_from, ColumnType::kTimestamp},
                                     {sys_to, ColumnType::kTimestamp}})) {}

std::vector<Value> TemporalEngine::TableBase::KeyOf(const Row& row) const {
  std::vector<Value> key;
  key.reserve(def.primary_key.size());
  for (int c : def.primary_key) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

Status TemporalEngine::RegisterTable(const TableDef& def) {
  if (HasTable(def.name)) return Status::AlreadyExists("table " + def.name);
  tables_.emplace(def.name, MakeTable(def));
  return Status::OK();
}

Status TemporalEngine::CreateTable(const TableDef& def) {
  BIH_RETURN_IF_ERROR(RegisterTable(def));
  if (wal_ == nullptr) return Status::OK();
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCreateTable;
  rec.def = def;
  return LogMutation(std::move(rec));
}

const TableDef& TemporalEngine::GetTableDef(const std::string& table) const {
  return TableOf<TableBase>(table).def;
}

Schema TemporalEngine::ScanSchema(const std::string& table) const {
  return TableOf<TableBase>(table).scan_schema;
}

std::vector<std::string> TemporalEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

Status TemporalEngine::InstallVersion(const std::string& table,
                                      const Row& stored) {
  TableBase* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  if (static_cast<int>(stored.size()) != t->scan_schema.num_columns()) {
    return Status::InvalidArgument("snapshot row arity mismatch for " + table);
  }
  return DoInstallVersion(*t, stored);
}

Status TemporalEngine::BulkLoad(const std::string& table,
                                std::vector<Row> rows) {
  WalRecord rec;
  if (wal_ != nullptr) {
    rec.kind = WalRecord::Kind::kBulkLoad;
    rec.table = table;
    rec.rows = rows;
  }
  BIH_RETURN_IF_ERROR(DoBulkLoad(table, std::move(rows)));
  if (wal_ == nullptr) return Status::OK();
  return LogMutation(std::move(rec));
}

Status TemporalEngine::Insert(const std::string& table, Row row) {
  return Execute({WalRecord::Kind::kInsert, table, {}, {}, 0, {}},
                 std::move(row));
}

Status TemporalEngine::UpdateCurrent(const std::string& table,
                                     const std::vector<Value>& key,
                                     const std::vector<ColumnAssignment>& set) {
  return Execute({WalRecord::Kind::kUpdateCurrent, table, key, set, 0, {}},
                 {});
}

Status TemporalEngine::UpdateSequenced(
    const std::string& table, const std::vector<Value>& key, int period_index,
    const Period& period, const std::vector<ColumnAssignment>& set) {
  return Execute({WalRecord::Kind::kUpdateSequenced, table, key, set,
                  period_index, period},
                 {});
}

Status TemporalEngine::UpdateOverwrite(
    const std::string& table, const std::vector<Value>& key, int period_index,
    const Period& period, const std::vector<ColumnAssignment>& set) {
  return Execute({WalRecord::Kind::kUpdateOverwrite, table, key, set,
                  period_index, period},
                 {});
}

Status TemporalEngine::DeleteCurrent(const std::string& table,
                                     const std::vector<Value>& key) {
  return Execute({WalRecord::Kind::kDeleteCurrent, table, key, {}, 0, {}},
                 {});
}

Status TemporalEngine::DeleteSequenced(const std::string& table,
                                       const std::vector<Value>& key,
                                       int period_index, const Period& period) {
  return Execute(
      {WalRecord::Kind::kDeleteSequenced, table, key, {}, period_index, period},
      {});
}

Status TemporalEngine::Execute(const Statement& stmt, Row row) {
  const Timestamp ts = in_txn_ ? txn_time_ : clock_.NextCommit();
  if (wal_ == nullptr) return ApplyStatement(stmt, std::move(row), ts);
  WalRecord rec;
  rec.kind = stmt.kind;
  rec.ts = ts.micros();
  rec.table = stmt.table;
  rec.row = row;
  rec.key = stmt.key;
  rec.set = stmt.set;
  rec.period_index = stmt.period_index;
  rec.period = stmt.period;
  BIH_RETURN_IF_ERROR(ApplyStatement(stmt, std::move(row), ts));
  return LogMutation(std::move(rec));
}

namespace {

// Whether column `col` of `def` belongs to the primary key or to an
// application-time period; those may not hold NULL.
bool KeyOrPeriodColumn(const TableDef& def, int col) {
  for (int c : def.primary_key) {
    if (c == col) return true;
  }
  for (const AppPeriodDef& ap : def.app_periods) {
    if (ap.begin_col == col || ap.end_col == col) return true;
  }
  return false;
}

// Rejects a value column `col` cannot store. Int, date and timestamp
// columns share the int64 representation; a double column also takes an
// int, stored unchanged.
Status CheckValue(const TableDef& def, int col, const Value& v) {
  const Column& c = def.schema.column(col);
  bool ok = true;
  if (v.is_null()) {
    ok = !KeyOrPeriodColumn(def, col);
  } else if (c.type == ColumnType::kString) {
    ok = v.is_string();
  } else if (c.type == ColumnType::kDouble) {
    ok = v.is_int() || v.is_double();
  } else {
    ok = v.is_int();
  }
  if (ok) return Status::OK();
  const std::string what =
      v.is_null() ? std::string("NULL in a key or period column")
                  : v.ToString() + " in a " + ColumnTypeName(c.type) +
                        " column";
  return Status::InvalidArgument("table " + def.name + " column " + c.name +
                                 ": cannot store " + what);
}

Status CheckRow(const TableDef& def, const Row& row) {
  if (static_cast<int>(row.size()) != def.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + def.name);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    BIH_RETURN_IF_ERROR(CheckValue(def, static_cast<int>(c), row[c]));
  }
  return Status::OK();
}

Status CheckAssignments(const TableDef& def,
                        const std::vector<ColumnAssignment>& set) {
  for (const ColumnAssignment& a : set) {
    if (a.column < 0 || a.column >= def.schema.num_columns()) {
      return Status::InvalidArgument("table " + def.name + " has no column " +
                                     std::to_string(a.column));
    }
    BIH_RETURN_IF_ERROR(CheckValue(def, a.column, a.value));
  }
  return Status::OK();
}

}  // namespace

Status TemporalEngine::ApplyStatement(const Statement& stmt, Row row,
                                      Timestamp ts) {
  using Kind = WalRecord::Kind;
  TableBase* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(stmt.table, &t));
  const TableDef& def = t->def;
  if (stmt.kind == Kind::kInsert) {
    BIH_RETURN_IF_ERROR(CheckRow(def, row));
    OpenVersion(*t, std::move(row), ts, StmtKind::kInsert);
    EndStatement(*t);
    return Status::OK();
  }
  BIH_RETURN_IF_ERROR(CheckAssignments(def, stmt.set));
  const bool sequenced = stmt.kind == Kind::kUpdateSequenced ||
                         stmt.kind == Kind::kUpdateOverwrite ||
                         stmt.kind == Kind::kDeleteSequenced;
  const int periods = static_cast<int>(def.app_periods.size());
  if (sequenced && (stmt.period_index < 0 || stmt.period_index >= periods)) {
    return Status::InvalidArgument("no such application-time period");
  }
  std::vector<VersionRef> refs;
  std::vector<Row> versions;
  CurrentVersions(*t, stmt.key, &refs, &versions);
  if (refs.empty()) return Status::NotFound("no current version of key");

  SequencedOps ops;
  if (sequenced) {
    const AppPeriodDef& ap =
        def.app_periods[static_cast<size_t>(stmt.period_index)];
    if (stmt.kind == Kind::kUpdateSequenced) {
      ops = PlanSequencedUpdate(versions, ap.begin_col, ap.end_col,
                                stmt.period, stmt.set);
    } else if (stmt.kind == Kind::kUpdateOverwrite) {
      ops = PlanOverwriteUpdate(versions, ap.begin_col, ap.end_col,
                                stmt.period, stmt.set);
    } else {
      ops = PlanSequencedDelete(versions, ap.begin_col, ap.end_col,
                                stmt.period);
    }
  } else {
    for (size_t i = 0; i < versions.size(); ++i) ops.to_close.push_back(i);
  }

  // Same-transaction churn: a version opened at this very stamp was never
  // visible to anyone, so closing it leaves no history.
  const StmtKind close_kind = stmt.kind == Kind::kDeleteCurrent ||
                                     stmt.kind == Kind::kDeleteSequenced
                                 ? StmtKind::kDelete
                                 : StmtKind::kUpdate;
  const size_t user_cols = static_cast<size_t>(def.schema.num_columns());
  for (size_t vi : ops.to_close) {
    const bool ever_visible = versions[vi][user_cols].AsInt() != ts.micros();
    CloseVersion(*t, refs[vi], ts, close_kind, ever_visible);
  }
  if (stmt.kind == Kind::kUpdateCurrent) {
    // The modified copies of every closed version.
    ops.to_insert = std::move(versions);
    for (Row& r : ops.to_insert) {
      for (const ColumnAssignment& a : stmt.set) {
        r[static_cast<size_t>(a.column)] = a.value;
      }
    }
  }
  for (Row& r : ops.to_insert) {
    r.resize(user_cols);
    OpenVersion(*t, std::move(r), ts, StmtKind::kUpdate);
  }
  EndStatement(*t);
  return Status::OK();
}

Status TemporalEngine::EnableWal(const std::string& path,
                                 FaultInjector* fault) {
  std::unique_ptr<WalWriter> wal;
  BIH_RETURN_IF_ERROR(WalWriter::Open(path, fault, &wal));
  return AttachWal(std::move(wal));
}

Status TemporalEngine::AttachWal(std::unique_ptr<WalWriter> wal) {
  if (in_txn_) {
    return Status::InvalidArgument("cannot attach a WAL inside a transaction");
  }
  wal_ = std::move(wal);
  group_ = wal_ != nullptr ? std::make_shared<GroupCommit>(wal_) : nullptr;
  txn_wal_.clear();
  return Status::OK();
}

Status TemporalEngine::ApplyWalRecord(const WalRecord& rec) {
  if (clock_.Now().micros() < rec.ts) {
    clock_.Reset(Timestamp(rec.ts));
  }
  switch (rec.kind) {
    case WalRecord::Kind::kCreateTable:
      return RegisterTable(rec.def);
    case WalRecord::Kind::kInsert:
    case WalRecord::Kind::kUpdateCurrent:
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite:
    case WalRecord::Kind::kDeleteCurrent:
    case WalRecord::Kind::kDeleteSequenced:
      return ApplyStatement({rec.kind, rec.table, rec.key, rec.set,
                             rec.period_index, rec.period},
                            rec.row, Timestamp(rec.ts));
    case WalRecord::Kind::kBulkLoad:
      return DoBulkLoad(rec.table, rec.rows);
    case WalRecord::Kind::kCommit:
      return Status::OK();
    case WalRecord::Kind::kSnapshotRows:
      for (const Row& stored : rec.rows) {
        BIH_RETURN_IF_ERROR(InstallVersion(rec.table, stored));
      }
      return Status::OK();
    case WalRecord::Kind::kCheckpointFooter:
      // Nothing to install: the clock reset above already restored the
      // commit watermark the footer carries in ts.
      return Status::OK();
  }
  return Status::Internal("unhandled wal record kind");
}

Status TemporalEngine::DoBulkLoad(const std::string& table,
                                  std::vector<Row> rows) {
  (void)table;
  (void)rows;
  // Engines with engine-managed system time cannot accept explicit
  // timestamps; the history generator must replay transactions instead
  // (Section 4.2 of the paper).
  return Status::Unimplemented(
      "bulk load with explicit system time requires an engine without "
      "native system versioning");
}

std::unique_ptr<TemporalEngine> MakeEngine(const std::string& letter) {
  if (letter == "A") return std::make_unique<SystemAEngine>();
  if (letter == "B") return std::make_unique<SystemBEngine>();
  if (letter == "C") return std::make_unique<SystemCEngine>();
  if (letter == "D") return std::make_unique<SystemDEngine>();
  BIH_CHECK_MSG(false, "unknown engine letter: " + letter);
  return nullptr;
}

const std::vector<std::string>& AllEngineLetters() {
  static const std::vector<std::string>* letters =
      new std::vector<std::string>{"A", "B", "C", "D"};
  return *letters;
}

}  // namespace bih
