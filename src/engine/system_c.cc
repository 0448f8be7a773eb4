#include "engine/system_c.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

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

// A partition's cells read in place: per column its int64 or double cells
// (null for a string column) and the null bitmap, hoisted once per
// partition, so a per-slot read indexes an array instead of resolving the
// column's variant and building a Value. Thread-safe for concurrent morsels
// (pure reads).
class StoredCells {
 public:
  explicit StoredCells(const ColumnTable& part)
      : part_(part),
        width_(static_cast<size_t>(part.schema().num_columns())),
        nulls_(part.NullBitmap()) {
    for (int c = 0; c < part.schema().num_columns(); ++c) {
      const std::vector<int64_t>* ints = part.Ints(c);
      const std::vector<double>* doubles = part.Doubles(c);
      ints_.push_back(ints != nullptr ? ints->data() : nullptr);
      doubles_.push_back(doubles != nullptr ? doubles->data() : nullptr);
    }
  }

  const ColumnTable& part() const { return part_; }
  // The int64 cells of column `col`, or null when it stores another type.
  const int64_t* ints(int col) const {
    return ints_[static_cast<size_t>(col)];
  }
  bool IsNull(RowId rid, int col) const {
    return nulls_[rid * width_ + static_cast<size_t>(col)] != 0;
  }
  // An int-backed cell of `ints` (column `col`'s ints()), or `if_null`.
  int64_t Int(RowId rid, int col, const int64_t* ints, int64_t if_null) const {
    if (IsNull(rid, col)) return if_null;
    return ints != nullptr ? ints[rid] : part_.Get(rid, col).AsInt();
  }
  // Calls f with the cell, an int64_t, double or (strings) Value, unless it
  // is NULL.
  template <class F>
  void Read(RowId rid, int col, const F& f) const {
    if (IsNull(rid, col)) return;
    const size_t c = static_cast<size_t>(col);
    if (ints_[c] != nullptr) {
      f(ints_[c][rid]);
    } else if (doubles_[c] != nullptr) {
      f(doubles_[c][rid]);
    } else {
      f(part_.Get(rid, col));
    }
  }

 private:
  const ColumnTable& part_;
  const size_t width_;
  const uint8_t* const nulls_;
  std::vector<const int64_t*> ints_;
  std::vector<const double*> doubles_;
};

// Qualifies System C's stored versions on their typed columns. The temporal
// selectors read the int64 period cells through pointers hoisted once per
// partition (a NULL begin is the beginning of time and a NULL end is
// forever, as in RowSystemPeriod/RowAppPeriod), and so does a range
// constraint with integer bounds on an int-backed column; a version they
// reject builds no Value. Equality constraints and other ranges keep the
// Value path over the cells they read, which go into no emitted row.
// Thread-safe for concurrent morsels (pure reads).
class VersionFilter {
 public:
  VersionFilter(const StoredCells& cells, const ScanRequest& req,
                const TemporalCols& tc, int64_t now)
      : cells_(cells), req_(req), tc_(tc) {
    const TemporalScanSpec& spec = req.temporal;
    sys_ = spec.system_time.kind != TemporalSelector::Kind::kAll;
    app_ = tc.app_begin >= 0 &&
           spec.app_time.kind != TemporalSelector::Kind::kImplicitCurrent &&
           spec.app_time.kind != TemporalSelector::Kind::kAll;
    sys_window_ = WindowOf(spec.system_time, now);
    app_window_ = WindowOf(spec.app_time, now);
    sys_from_ = cells.ints(tc.sys_from);
    sys_to_ = cells.ints(tc.sys_to);
    if (app_) {
      app_begin_ = cells.ints(tc.app_begin);
      app_end_ = cells.ints(tc.app_end);
    }
    auto int_bound = [](const Value& v) { return v.is_null() || v.is_int(); };
    range_ints_ = req.range_col >= 0 ? cells.ints(req.range_col) : nullptr;
    if (range_ints_ != nullptr && int_bound(req.range_lo) &&
        int_bound(req.range_hi)) {
      lo_ = req.range_lo.is_null() ? INT64_MIN : req.range_lo.AsInt();
      hi_ = req.range_hi.is_null() ? INT64_MAX : req.range_hi.AsInt();
    } else {
      range_ints_ = nullptr;
    }
    by_value_ = !req.equals.empty() ||
                (req.range_col >= 0 && range_ints_ == nullptr);
  }

  // True when slot `rid` qualifies. The typed tests combine without
  // short-circuiting: whether a version passes one of them is data, and a
  // branch on it would mispredict.
  bool Matches(RowId rid) const {
    bool ok = true;
    if (sys_) {
      ok = InWindow(rid, sys_window_, tc_.sys_from, sys_from_, tc_.sys_to,
                    sys_to_);
    }
    if (app_) {
      ok &= InWindow(rid, app_window_, tc_.app_begin, app_begin_, tc_.app_end,
                     app_end_);
    }
    if (range_ints_ != nullptr) {
      const int64_t v = range_ints_[rid];
      ok &= !cells_.IsNull(rid, req_.range_col) & (v >= lo_) & (v <= hi_);
    }
    if (by_value_ && ok) {
      ok = MatchesConstraintCells(
          [this, rid](int col) { return cells_.part().Get(rid, col); }, req_);
    }
    return ok;
  }

 private:
  // A selector as a window [lo, hi) that a version's period [b, e)
  // overlaps, b < hi and lo < e: a point t (AS OF, or now for the implicit
  // current) is [t, t + 1), so the test is Period::Contains(t), and a range
  // is itself (Period::Overlaps).
  struct Window {
    int64_t lo = 0;
    int64_t hi = 0;
  };
  static Window WindowOf(const TemporalSelector& s, int64_t now) {
    if (s.kind == TemporalSelector::Kind::kRange) {
      return {s.range.begin, s.range.end};
    }
    const int64_t t =
        s.kind == TemporalSelector::Kind::kPoint ? s.point : now;
    // No period contains INT64_MAX (lo < e fails), so hi may stay there.
    return {t, t == INT64_MAX ? t : t + 1};
  }
  bool InWindow(RowId rid, const Window& w, int begin, const int64_t* begins,
                int end, const int64_t* ends) const {
    const int64_t b =
        cells_.Int(rid, begin, begins, Period::kBeginningOfTime);
    const int64_t e = cells_.Int(rid, end, ends, Period::kForever);
    return (b < w.hi) & (w.lo < e);
  }

  const StoredCells& cells_;
  const ScanRequest& req_;
  const TemporalCols& tc_;
  bool sys_ = false;
  bool app_ = false;
  Window sys_window_;
  Window app_window_;
  const int64_t* sys_from_ = nullptr;
  const int64_t* sys_to_ = nullptr;
  const int64_t* app_begin_ = nullptr;
  const int64_t* app_end_ = nullptr;
  // A range constraint read as int64 cells, when it has one: [lo_, hi_].
  const int64_t* range_ints_ = nullptr;
  int64_t lo_ = 0;
  int64_t hi_ = 0;
  bool by_value_ = false;
};

}  // namespace

void SystemCEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  const Table& t = TableOf<const Table>(req.table);
  PartitionScan scan(t.def, req, clock_.Now().micros(), cb);
  const TemporalCols& tc = scan.tc();
  const int ncols = t.scan_schema.num_columns();

  // Columns an emitted row carries: the projection (every column when
  // unprojected). The period and constraint cells the filter tested are
  // not fetched again unless projected. Only qualifying versions fetch
  // them — the column store's advantage.
  std::vector<int> fetched = req.projection;
  if (fetched.empty()) {
    fetched.resize(static_cast<size_t>(ncols));
    std::iota(fetched.begin(), fetched.end(), 0);
  }

  // Delta, main and history are scanned alike: versions qualify on their
  // stored columns, a residual predicate reads only its own cells of the
  // versions that pass them, and a qualifying version is materialized with
  // the fetched columns only (the other columns stay null) or, in a folding
  // scan, folded from its cells in place.
  auto scan_part = [&](const ColumnTable& part, bool history) {
    scan.Touch(history);
    const StoredCells cells(part);
    const VersionFilter filter(cells, req, tc, scan.now());
    scan.ScanSlots(
        part.SlotCount(), [&part](uint64_t rid) { return part.IsLive(rid); },
        [&](uint64_t rid, Row* row) {
          const bool match = filter.Matches(rid);
          if (req.residual == nullptr) return match;
          if (!match) return false;
          row->resize(static_cast<size_t>(ncols));
          for (int c : scan.residual_cols()) {
            (*row)[static_cast<size_t>(c)] = part.Get(rid, c);
          }
          return scan.Residual(*row);
        },
        [&](uint64_t rid, Row* row) -> const Row& {
          row->resize(static_cast<size_t>(ncols));
          for (int c : fetched) {
            (*row)[static_cast<size_t>(c)] = part.Get(rid, c);
          }
          return *row;
        },
        [&cells](uint64_t rid, int col, const auto& f) {
          cells.Read(rid, col, f);
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
