#ifndef TPCBIH_ENGINE_SYSTEM_C_H_
#define TPCBIH_ENGINE_SYSTEM_C_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
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
//    data and the engine wrapper emulates sequenced semantics client-side,
//    like the paper's "simulated application time".
class SystemCEngine : public TemporalEngine {
 public:
  // Delta size that triggers an automatic merge.
  static constexpr size_t kMergeThreshold = 1 << 16;

  std::string name() const override { return "SystemC"; }
  bool native_app_time() const override { return false; }

  Status DoCreateTable(const TableDef& def) override;
  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;
  const TableDef& GetTableDef(const std::string& table) const override;
  Schema ScanSchema(const std::string& table) const override;
  bool HasTable(const std::string& table) const override {
    return tables_.count(table) > 0;
  }

  Status DoInsert(const std::string& table, Row row) override;
  Status DoUpdateCurrent(const std::string& table, const std::vector<Value>& key,
                       const std::vector<ColumnAssignment>& set) override;
  Status DoUpdateSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set) override;
  Status DoUpdateOverwrite(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set) override;
  Status DoDeleteCurrent(const std::string& table,
                       const std::vector<Value>& key) override;
  Status DoDeleteSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period) override;

  std::vector<std::string> ListTables() const override;
  Status DoInstallVersion(const std::string& table, const Row& stored) override;

  void Scan(const ScanRequest& req, const RowCallback& cb) override;
  TableStats GetTableStats(const std::string& table) const override;

  // Delta->main merge for every table (history relocation included).
  void Maintain() override;

 private:
  enum class Part : uint8_t { kDelta = 0, kMain = 1 };

  struct Loc {
    Part part;
    RowId rid;
  };

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

  struct Table {
    TableDef def;
    Schema stored_schema;  // user columns + VALID_FROM + VALID_TO
    ColumnTable delta;
    ColumnTable main;
    ColumnTable history;
    // Inverted index on the key columns, like the column store's dictionary
    // based key access; maps a key to its visible versions.
    std::unordered_map<IndexKey, std::vector<Loc>, KeyHash, KeyEq> current_by_key;
    std::vector<std::string> ignored_indexes;  // accepted but unused

    Table(TableDef d, Schema stored)
        : def(std::move(d)), delta(stored), main(stored), history(stored) {
      stored_schema = stored;
    }
  };

  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  ColumnTable* PartOf(Table* t, Part p) {
    return p == Part::kDelta ? &t->delta : &t->main;
  }

  IndexKey KeyOf(const Table& t, const Row& row) const;
  void MergeTable(Table* t);
  void MaybeMerge(Table* t);

  Loc AppendVersion(Table* t, Row user_row, Timestamp ts);
  void InvalidateVersion(Table* t, const Loc& loc, Timestamp ts);

  Status ApplySequenced(const std::string& table, const std::vector<Value>& key,
                        int period_index, const Period& period,
                        const std::vector<ColumnAssignment>& set, int mode);

  void ScanPartition(const Table& t, const ColumnTable& part, bool is_history,
                     const ScanRequest& req, const TemporalCols& tc,
                     const ParallelScanPlan& plan, ExecStats* stats,
                     bool* stopped, const RowCallback& cb);

  // Morsel-range entry point of the columnar partition scan: fetches only
  // the checked columns of slots [begin, end) of `part` and records the ids
  // of the qualifying slots in `out`. Thread-safe for concurrent morsels
  // (pure column reads; dictionary interning happens only on Append).
  void ScanMorsel(const ColumnTable& part, const ScanRequest& req,
                  const TemporalCols& tc, int64_t now, int ncols,
                  const std::vector<uint8_t>& checked, uint64_t begin,
                  uint64_t end, const std::atomic<bool>& stop,
                  MorselOutput* out) const;

  std::unordered_map<std::string, Table> tables_;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_C_H_
