#ifndef TPCBIH_ENGINE_SYSTEM_A_H_
#define TPCBIH_ENGINE_SYSTEM_A_H_

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

// Architecture A: disk-style row store with native bitemporal support.
//  * Horizontal partitioning: a current table and a history table with the
//    same schema (user columns + system-time interval).
//  * Updates move the outdated version to the history table instantly.
//  * A system-created key index exists on the current table only; history
//    tables carry no indexes unless tuning adds them (Section 5.2).
class SystemAEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemA"; }

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

 private:
  struct Table {
    TableDef def;
    Schema stored_schema;  // user columns + SYS_TIME_START + SYS_TIME_END
    RowTable current;
    RowTable history;
    // System-created key index on the current partition (DML location and
    // query access). Survives DropIndexes.
    HashIndex pk_current;
    IndexSet current_indexes;
    IndexSet history_indexes;

    Table(TableDef d, Schema stored)
        : def(std::move(d)),
          stored_schema(stored),
          current(stored),
          history(stored) {}
  };

  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  // Closes version `rid` at time `t`: appends it to history with the system
  // interval truncated and removes it from the current partition.
  void MoveToHistory(Table* t, RowId rid, Timestamp ts);
  // Appends a fresh current version (system interval [ts, forever)).
  RowId InsertCurrent(Table* t, Row user_row, Timestamp ts);

  IndexKey KeyOf(const Table& t, const Row& stored_row) const;
  std::vector<RowId> CurrentVersionsOf(Table* t, const std::vector<Value>& key);

  // Shared plumbing for the three application-time DML flavours.
  Status ApplySequenced(const std::string& table, const std::vector<Value>& key,
                        int period_index, const Period& period,
                        const std::vector<ColumnAssignment>& set, int mode);

  void ScanPartition(const Table& t, bool is_history, const ScanRequest& req,
                     const TemporalCols& tc, const IndexSet& tuning,
                     const ParallelScanPlan& plan, ExecStats* stats,
                     bool* stopped, const RowCallback& cb);

  std::unordered_map<std::string, Table> tables_;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_A_H_
