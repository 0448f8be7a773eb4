#ifndef TPCBIH_ENGINE_SYSTEM_D_H_
#define TPCBIH_ENGINE_SYSTEM_D_H_

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

// Architecture D: disk-style row store *without* native temporal support
// (Section 2.5). The application models both time dimensions as ordinary
// columns in one non-partitioned table:
//  * no current/history split — every query sees all versions and filters;
//  * system time is maintained by the application layer (this wrapper), so
//    explicit timestamps are allowed and histories can be bulk loaded,
//    which is why loading is far cheaper than on the native engines;
//  * both B-tree and GiST (R-tree) tuning indexes are available.
class SystemDEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemD"; }
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
  Status DoBulkLoad(const std::string& table, std::vector<Row> rows) override;
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
    RowTable data;
    // Application-side bookkeeping of the visible versions per key; plays
    // the role of the app logic the paper says non-temporal deployments
    // must implement themselves. Not consulted by query planning.
    HashIndex current_by_key;
    IndexSet indexes;

    Table(TableDef d, Schema stored)
        : def(std::move(d)), stored_schema(stored), data(stored) {}
  };

  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  IndexKey KeyOf(const Table& t, const Row& row) const;
  RowId InsertVersion(Table* t, Row user_row, Timestamp ts);
  void CloseVersion(Table* t, RowId rid, Timestamp ts);

  Status ApplySequenced(const std::string& table, const std::vector<Value>& key,
                        int period_index, const Period& period,
                        const std::vector<ColumnAssignment>& set, int mode);

  std::unordered_map<std::string, Table> tables_;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_D_H_
