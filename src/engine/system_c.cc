#include "engine/system_c.h"

#include <algorithm>

namespace bih {

Status SystemCEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(spec.table, &t));
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
  Table* t = nullptr;
  BIH_RETURN_IF_ERROR(FindTable(table, &t));
  t->ignored_indexes.clear();
  return Status::OK();
}

void SystemCEngine::CurrentVersions(TableBase& table,
                                    const std::vector<Value>& key,
                                    std::vector<VersionRef>* refs,
                                    std::vector<Row>* rows) {
  auto& t = static_cast<Table&>(table);
  auto it = t.current_by_key.find(key);
  if (it == t.current_by_key.end()) return;
  for (const Loc& loc : it->second) {
    refs->push_back(RefOf(loc));
    rows->push_back(PartOf(&t, loc.part)->GetRow(loc.rid));
  }
}

void SystemCEngine::OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                                StmtKind) {
  auto& t = static_cast<Table&>(table);
  user_row.push_back(Value(ts));
  user_row.push_back(Value(Period::kForever));
  RowId rid = t.delta.Append(user_row);
  t.current_by_key[t.KeyOf(user_row)].push_back(Loc{Part::kDelta, rid});
}

void SystemCEngine::CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                                 StmtKind, bool ever_visible) {
  auto& t = static_cast<Table&>(table);
  const Loc loc = LocOf(ref);
  ColumnTable* part = PartOf(&t, loc.part);
  if (ever_visible) {
    part->Set(loc.rid, t.scan_schema.num_columns() - 1, Value(ts));  // VALID_TO
  } else {
    // Opened by the same transaction: physically drop instead of keeping a
    // never-visible version.
    part->Delete(loc.rid);
  }
  IndexKey key;
  for (int c : t.def.primary_key) key.push_back(part->Get(loc.rid, c));
  auto it = t.current_by_key.find(key);
  BIH_CHECK(it != t.current_by_key.end());
  auto& locs = it->second;
  locs.erase(std::remove_if(locs.begin(), locs.end(),
                            [&](const Loc& l) {
                              return l.part == loc.part && l.rid == loc.rid;
                            }),
             locs.end());
  if (locs.empty()) t.current_by_key.erase(it);
}

void SystemCEngine::EndStatement(TableBase& table) {
  auto& t = static_cast<Table&>(table);
  if (t.delta.SlotCount() >= kMergeThreshold) MergeTable(&t);
}

void SystemCEngine::MergeTable(Table* t) {
  const int vt_col = t->scan_schema.num_columns() - 1;
  // Move delta rows: visible versions to main, invalidated ones straight to
  // history. Row ids change; patch the key map as we go.
  t->delta.Scan([&](RowId old_rid, const Row& row) {
    const Value& vt = row[static_cast<size_t>(vt_col)];
    const bool open = !vt.is_null() && vt.AsInt() == Period::kForever;
    if (open) {
      RowId new_rid = t->main.Append(row);
      auto it = t->current_by_key.find(t->KeyOf(row));
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
  ForEachTable<Table>([this](Table& t) { MergeTable(&t); });
}

namespace {

// Qualifies System C's stored versions on their typed columns. The temporal
// selectors read the int64 period cells and the null bitmap directly (a
// NULL begin is the beginning of time and a NULL end is forever, as in
// RowSystemPeriod/RowAppPeriod), so a version the selectors reject never
// builds a Value. Equality and range constraints keep the Value path over
// the cells they read. Thread-safe for concurrent morsels (pure reads).
class VersionFilter {
 public:
  VersionFilter(const ColumnTable& part, const ScanRequest& req,
                const TemporalCols& tc, int64_t now)
      : part_(part), req_(req), tc_(tc), now_(now) {
    const TemporalScanSpec& spec = req.temporal;
    sys_ = spec.system_time.kind != TemporalSelector::Kind::kAll;
    app_ = tc.app_begin >= 0 &&
           spec.app_time.kind != TemporalSelector::Kind::kImplicitCurrent &&
           spec.app_time.kind != TemporalSelector::Kind::kAll;
    for (const auto& [c, v] : req.equals) constraint_cols_.push_back(c);
    if (req.range_col >= 0) constraint_cols_.push_back(req.range_col);
  }

  // True when slot `rid` qualifies. The constraint cells are fetched into
  // `scratch`, widened to the scan schema.
  bool Matches(RowId rid, Row* scratch) const {
    if (sys_ && !req_.temporal.system_time.Matches(
                    PeriodAt(rid, tc_.sys_from, tc_.sys_to), now_)) {
      return false;
    }
    if (app_ && !req_.temporal.app_time.Matches(
                    PeriodAt(rid, tc_.app_begin, tc_.app_end), now_)) {
      return false;
    }
    if (constraint_cols_.empty()) return true;
    scratch->resize(static_cast<size_t>(part_.schema().num_columns()));
    for (int c : constraint_cols_) {
      (*scratch)[static_cast<size_t>(c)] = part_.Get(rid, c);
    }
    return MatchesConstraints(*scratch, req_);
  }

 private:
  int64_t Cell(RowId rid, int col, int64_t if_null) const {
    if (part_.IsNull(rid, col)) return if_null;
    const std::vector<int64_t>* ints = part_.Ints(col);
    return ints != nullptr ? (*ints)[rid] : part_.Get(rid, col).AsInt();
  }
  Period PeriodAt(RowId rid, int begin, int end) const {
    return Period(Cell(rid, begin, Period::kBeginningOfTime),
                  Cell(rid, end, Period::kForever));
  }

  const ColumnTable& part_;
  const ScanRequest& req_;
  const TemporalCols& tc_;
  const int64_t now_;
  bool sys_ = false;
  bool app_ = false;
  std::vector<int> constraint_cols_;
};

}  // namespace

void SystemCEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  const Table& t = TableOf<const Table>(req.table);
  PartitionScan scan(t.def, req, clock_.Now().micros(), cb);
  const TemporalCols& tc = scan.tc();
  const int ncols = t.scan_schema.num_columns();

  // Columns an emitted row carries: the ones predicates read, and the
  // projection with the system-time pair (every column when unprojected).
  // Only qualifying versions fetch them — the column store's advantage.
  std::vector<uint8_t> fetched(static_cast<size_t>(ncols), 0);
  if (req.projection.empty()) {
    std::fill(fetched.begin(), fetched.end(), 1);
  } else {
    for (int c : req.projection) fetched[static_cast<size_t>(c)] = 1;
    fetched[static_cast<size_t>(tc.sys_from)] = 1;
    fetched[static_cast<size_t>(tc.sys_to)] = 1;
    if (tc.app_begin >= 0) {
      fetched[static_cast<size_t>(tc.app_begin)] = 1;
      fetched[static_cast<size_t>(tc.app_end)] = 1;
    }
    for (const auto& [c, v] : req.equals) fetched[static_cast<size_t>(c)] = 1;
    if (req.range_col >= 0) fetched[static_cast<size_t>(req.range_col)] = 1;
  }

  // Delta, main and history are scanned alike: versions qualify on their
  // stored columns, and a qualifying one is materialized with the fetched
  // columns only (the other columns stay null).
  auto scan_part = [&](const ColumnTable& part, bool history) {
    scan.Touch(history);
    const VersionFilter filter(part, req, tc, scan.now());
    scan.ScanSlots(
        part.SlotCount(), [&part](uint64_t rid) { return part.IsLive(rid); },
        [&filter](uint64_t rid, Row* scratch) {
          return filter.Matches(rid, scratch);
        },
        [&](uint64_t rid, Row* row) -> const Row& {
          row->resize(static_cast<size_t>(ncols));
          for (int c = 0; c < ncols; ++c) {
            if (fetched[static_cast<size_t>(c)]) {
              (*row)[static_cast<size_t>(c)] = part.Get(rid, c);
            }
          }
          return *row;
        });
  };
  scan_part(t.delta, /*history=*/false);
  if (!scan.stopped()) scan_part(t.main, /*history=*/false);
  if (!scan.stopped() && scan.needs_history()) {
    scan_part(t.history, /*history=*/true);
  }
}

Status SystemCEngine::DoInstallVersion(TableBase& table, const Row& stored) {
  auto& t = static_cast<Table&>(table);
  const size_t user_cols = static_cast<size_t>(t.def.schema.num_columns());
  const int64_t sys_from = stored[user_cols].AsInt();
  const bool open = stored[user_cols + 1].AsInt() == Period::kForever;
  if (open) {
    Row user_row(stored.begin(), stored.begin() + static_cast<long>(user_cols));
    OpenVersion(t, std::move(user_row), Timestamp(sys_from), StmtKind::kInsert);
    EndStatement(t);
  } else {
    // Invalidated versions land in history directly; they never pass
    // through delta, so no key-map maintenance is needed.
    t.history.Append(stored);
  }
  return Status::OK();
}

TableStats SystemCEngine::GetTableStats(const std::string& table) const {
  const Table& t = TableOf<const Table>(table);
  TableStats s;
  s.current_rows = t.delta.LiveCount() + t.main.LiveCount();
  s.history_rows = t.history.LiveCount();
  return s;
}

}  // namespace bih
