#ifndef TPCBIH_ENGINE_SYSTEM_C_H_
#define TPCBIH_ENGINE_SYSTEM_C_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "storage/column_table.h"

namespace bih {

// Architecture C: in-memory column store with native system time only
// (Section 2.6).
//  * Every table is columnar with two hidden columns VALID_FROM/VALID_TO
//    tracking the system time of a version; visible rows have an open
//    VALID_TO.
//  * Storage is split into a write-optimized delta, a read-optimized main,
//    and a history partition. The merge operation moves delta rows into
//    main and relocates invalidated versions into the history partition.
//  * Execution is scan-based: tuning indexes are accepted but never used,
//    matching the measurement that B-trees bring System C no benefit.
//  * Application time has no native support; the period columns are plain
//    data, like the paper's "simulated application time". Sequenced DML
//    runs through the same shared statement code as on every engine.
class SystemCEngine : public TemporalEngine {
 public:
  // Delta size that triggers an automatic merge.
  static constexpr size_t kMergeThreshold = 1 << 16;

  std::string name() const override { return "SystemC"; }

  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;

  void Scan(const ScanRequest& req, const RowCallback& cb) override;
  TableStats GetTableStats(const std::string& table) const override;

  // Delta->main merge for every table (history relocation included).
  void Maintain() override;

 protected:
  std::unique_ptr<TableBase> MakeTable(const TableDef& def) const override {
    return std::make_unique<Table>(def);
  }
  // Refs encode a Loc (part and row id), so they go stale at a merge.
  void CurrentVersions(TableBase& table, const std::vector<Value>& key,
                       std::vector<VersionRef>* refs,
                       std::vector<Row>* rows) override;
  // Sets VALID_TO in place; the next merge relocates the version to history.
  void CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                    StmtKind kind, bool ever_visible) override;
  // Appends to the delta.
  void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                   StmtKind kind) override;
  // The merge check: merges once the delta reaches kMergeThreshold.
  void EndStatement(TableBase& table) override;
  Status DoInstallVersion(TableBase& table, const Row& stored) override;

 private:
  enum class Part : uint8_t { kDelta = 0, kMain = 1 };

  struct Loc {
    Part part;
    RowId rid;
  };
  // A version ref packs a Loc: the row id shifted over the part bit.
  static VersionRef RefOf(const Loc& loc) {
    return (static_cast<VersionRef>(loc.rid) << 1) |
           static_cast<VersionRef>(loc.part);
  }
  static Loc LocOf(VersionRef ref) {
    return Loc{static_cast<Part>(ref & 1u), ref >> 1};
  }

  struct KeyHash {
    size_t operator()(const IndexKey& k) const {
      size_t h = 0x345678;
      for (const Value& v : k) h = h * 1000003ULL ^ v.Hash();
      return h;
    }
  };
  struct KeyEq {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      return CompareKeys(a, b) == 0;
    }
  };

  struct Table : TableBase {
    ColumnTable delta;
    ColumnTable main;
    ColumnTable history;
    // Inverted index on the key columns, like the column store's dictionary
    // based key access; maps a key to its visible versions.
    std::unordered_map<IndexKey, std::vector<Loc>, KeyHash, KeyEq> current_by_key;
    std::vector<std::string> ignored_indexes;  // accepted but unused

    // The hidden system-time columns keep their own names; the scan schema
    // exposes them at the positions other engines use for SYS_TIME_*.
    explicit Table(const TableDef& d)
        : TableBase(d, "VALID_FROM", "VALID_TO"),
          delta(scan_schema),
          main(scan_schema),
          history(scan_schema) {}
  };

  static ColumnTable* PartOf(Table* t, Part p) {
    return p == Part::kDelta ? &t->delta : &t->main;
  }

  void MergeTable(Table* t);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_C_H_
