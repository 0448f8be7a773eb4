#ifndef TPCBIH_ENGINE_SYSTEM_B_H_
#define TPCBIH_ENGINE_SYSTEM_B_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
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

  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;

  void Scan(const ScanRequest& req, const RowCallback& cb) override;
  TableStats GetTableStats(const std::string& table) const override;

  // Drains every table's undo log so that concurrent snapshot readers never
  // trigger the background-writer simulation from the scan path.
  void PrepareForReads() override;

 protected:
  std::unique_ptr<TableBase> MakeTable(const TableDef& def) const override {
    return std::make_unique<Table>(def);
  }
  // Refs are row ids in the current partition; the rows are reconstructed
  // from the vertical partition's start stamps.
  void CurrentVersions(TableBase& table, const std::vector<Value>& key,
                       std::vector<VersionRef>* refs,
                       std::vector<Row>* rows) override;
  // Buffers the closed version, with its TXN_ID and the statement `kind`
  // as STMT_TYPE, in the undo log; drains the log at kUndoFlushThreshold.
  void CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                    StmtKind kind, bool ever_visible) override;
  void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                   StmtKind kind) override;
  Status DoInstallVersion(TableBase& table, const Row& stored) override;

 private:
  // Metadata record of one current row in the vertical partition.
  struct VersionMeta {
    RowId row_ref = kInvalidRowId;
    int64_t sys_from = 0;
    int64_t txn_id = 0;
    int64_t stmt_type = 0;  // StmtKind of the opening statement
  };

  struct Table : TableBase {
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

    explicit Table(const TableDef& d);
  };

  // Fills `row` with current slot `rid` as a scan-schema row: its user
  // columns, then its start stamp from the vertical partition (looked up
  // through the row reference) and an open end.
  static const Row& CurrentRow(const Table& t, RowId rid, Row* row);
  void FlushUndo(Table* t);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_B_H_
