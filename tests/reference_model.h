// Shared reference machinery for the differential (fuzz) tests: a brute
// force bitemporal model that keeps every version ever created with explicit
// system intervals, plus the ITEM table both fuzz tests drive. The model
// shares no storage code with the engines, which is what makes agreement
// meaningful.
#ifndef TPCBIH_TESTS_REFERENCE_MODEL_H_
#define TPCBIH_TESTS_REFERENCE_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/period.h"
#include "common/value.h"
#include "temporal/sequenced.h"
#include "temporal/temporal.h"

namespace bih {

inline TableDef FuzzItemDef() {
  TableDef def;
  def.name = "ITEM";
  def.schema = Schema({{"ID", ColumnType::kInt},
                       {"PRICE", ColumnType::kDouble},
                       {"NOTE", ColumnType::kString},
                       {"VB", ColumnType::kDate},
                       {"VE", ColumnType::kDate}});
  def.primary_key = {0};
  def.app_periods = {{"VALIDITY", 3, 4}};
  def.system_versioned = true;
  return def;
}

// Reference model: every version with explicit system interval.
struct ModelVersion {
  Row row;          // user columns
  int64_t sys_from;
  int64_t sys_to;   // Period::kForever while visible
};

// The three application-time statements (FOR PORTION OF forms).
enum class SequencedOp { kUpdate, kDelete, kOverwrite };

class Model {
 public:
  void Insert(Row row, int64_t ts) {
    versions_.push_back({std::move(row), ts, Period::kForever});
  }

  std::vector<size_t> CurrentOf(int64_t id) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < versions_.size(); ++i) {
      if (versions_[i].sys_to == Period::kForever &&
          versions_[i].row[0].AsInt() == id) {
        out.push_back(i);
      }
    }
    return out;
  }

  bool UpdateCurrent(int64_t id, const std::vector<ColumnAssignment>& set,
                     int64_t ts) {
    std::vector<size_t> cur = CurrentOf(id);
    if (cur.empty()) return false;
    for (size_t i : cur) {
      Row next = versions_[i].row;
      for (const ColumnAssignment& a : set) {
        next[static_cast<size_t>(a.column)] = a.value;
      }
      versions_[i].sys_to = ts;
      versions_.push_back({std::move(next), ts, Period::kForever});
    }
    DropUnseen();
    return true;
  }

  bool Sequenced(int64_t id, const Period& window,
                 const std::vector<ColumnAssignment>& set, SequencedOp op,
                 int64_t ts) {
    std::vector<size_t> cur = CurrentOf(id);
    if (cur.empty()) return false;
    std::vector<Row> rows;
    for (size_t i : cur) rows.push_back(versions_[i].row);
    SequencedOps ops;
    switch (op) {
      case SequencedOp::kUpdate:
        ops = PlanSequencedUpdate(rows, 3, 4, window, set);
        break;
      case SequencedOp::kDelete:
        ops = PlanSequencedDelete(rows, 3, 4, window);
        break;
      case SequencedOp::kOverwrite:
        ops = PlanOverwriteUpdate(rows, 3, 4, window, set);
        break;
    }
    for (size_t vi : ops.to_close) versions_[cur[vi]].sys_to = ts;
    for (Row& r : ops.to_insert) {
      versions_.push_back({std::move(r), ts, Period::kForever});
    }
    DropUnseen();
    return true;
  }

  bool DeleteCurrent(int64_t id, int64_t ts) {
    std::vector<size_t> cur = CurrentOf(id);
    if (cur.empty()) return false;
    for (size_t i : cur) versions_[i].sys_to = ts;
    DropUnseen();
    return true;
  }

  // Brute-force evaluation of a temporal scan (scan-schema rows).
  std::vector<Row> Query(const TemporalScanSpec& spec, int64_t now,
                         int64_t key_or_minus1) const {
    std::vector<Row> out;
    for (const ModelVersion& v : versions_) {
      Period sys(v.sys_from, v.sys_to);
      if (!spec.system_time.Matches(sys, now)) continue;
      Period app(v.row[3].AsInt(), v.row[4].AsInt());
      if (spec.app_time.kind != TemporalSelector::Kind::kImplicitCurrent &&
          !spec.app_time.Matches(app, now)) {
        continue;
      }
      if (key_or_minus1 >= 0 && v.row[0].AsInt() != key_or_minus1) continue;
      Row r = v.row;
      r.push_back(Value(v.sys_from));
      r.push_back(Value(v.sys_to));
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  // A version opened and closed at the same stamp (by one batch of
  // statements sharing a commit timestamp) was never visible: no record of
  // it remains.
  void DropUnseen() {
    versions_.erase(std::remove_if(versions_.begin(), versions_.end(),
                                   [](const ModelVersion& v) {
                                     return v.sys_from == v.sys_to;
                                   }),
                    versions_.end());
  }

  std::vector<ModelVersion> versions_;
};

inline std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

}  // namespace bih

#endif  // TPCBIH_TESTS_REFERENCE_MODEL_H_
