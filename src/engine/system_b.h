#ifndef TPCBIH_ENGINE_SYSTEM_B_H_
#define TPCBIH_ENGINE_SYSTEM_B_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
#include "storage/hash_index.h"
#include "storage/row_table.h"

namespace bih {

// Architecture B: row store with native bitemporal support and the most
// elaborate bookkeeping of the four systems (Section 5.2):
//  * The current table holds no temporal information at all; system-time
//    metadata (start timestamp, transaction id, statement type) lives in a
//    vertically partitioned side table and must be joined back — by an
//    actual sort/merge join with sorting on both sides — whenever a query
//    involves system time.
//  * The history table extends the user schema with the system interval
//    plus the extra metadata columns.
//  * Updates are first buffered in an undo log; a simulated background
//    process moves them to the history table in batches, which produces the
//    97th-percentile loading spikes of Fig. 16.
class SystemBEngine : public TemporalEngine {
 public:
  // Undo entries accumulated before the background writer kicks in. Sized
  // so that a few percent of update transactions hit the drain, matching
  // the paper's observation that ~5% of loading latencies spike by orders
  // of magnitude (Section 5.8).
  static constexpr size_t kUndoFlushThreshold = 32;

  std::string name() const override { return "SystemB"; }

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

  // Drains every table's undo log so that concurrent snapshot readers never
  // trigger the background-writer simulation from the scan path.
  void PrepareForReads() override;

 private:
  // Metadata record of one current row in the vertical partition.
  struct VersionMeta {
    RowId row_ref = kInvalidRowId;
    int64_t sys_from = 0;
    int64_t txn_id = 0;
    int64_t stmt_type = 0;  // 0=insert 1=update 2=delete
  };

  struct Table {
    TableDef def;
    Schema stored_schema;   // scan schema: user + sys interval
    Schema history_schema;  // user + sys interval + txn metadata
    RowTable current;       // user columns only
    // Vertical partition. Kept in *update order*, not row order: every
    // update re-appends the row's metadata record, so reconstruction really
    // has to sort (Section 5.3.1 attributes B's overhead to this join).
    std::vector<VersionMeta> versions;
    std::unordered_map<RowId, size_t> version_slot;  // row -> versions index
    RowTable history;
    std::vector<Row> undo_log;  // closed versions awaiting the writer
    HashIndex pk_current;
    IndexSet current_indexes;   // indexed over scan-schema rows
    IndexSet history_indexes;

    Table(TableDef d, Schema stored, Schema hist)
        : def(std::move(d)),
          stored_schema(stored),
          history_schema(hist),
          current(def.schema),
          history(hist) {}
  };

  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  IndexKey KeyOf(const Table& t, const Row& user_row) const;
  Row StoredRowOf(const Table& t, RowId rid) const;

  RowId InsertCurrent(Table* t, Row user_row, Timestamp ts, int stmt);
  void CloseVersion(Table* t, RowId rid, Timestamp ts, int stmt);
  void FlushUndo(Table* t);

  Status ApplySequenced(const std::string& table, const std::vector<Value>& key,
                        int period_index, const Period& period,
                        const std::vector<ColumnAssignment>& set, int mode);

  void ScanCurrentWithReconstruction(Table* t, const ScanRequest& req,
                                     const TemporalCols& tc,
                                     const ParallelScanPlan& plan,
                                     ExecStats* stats, bool* stopped,
                                     const RowCallback& cb);

  std::unordered_map<std::string, Table> tables_;
  int64_t next_txn_id_ = 1;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_B_H_
