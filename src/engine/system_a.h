#ifndef TPCBIH_ENGINE_SYSTEM_A_H_
#define TPCBIH_ENGINE_SYSTEM_A_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "storage/hash_index.h"
#include "storage/row_table.h"

namespace bih {

// Architecture A: disk-style row store with native bitemporal support.
//  * Horizontal partitioning: a current table and a history table with the
//    same schema (user columns + system-time interval).
//  * Updates move the outdated version to the history table instantly
//    (CloseVersion).
//  * A system-created key index exists on the current table only; history
//    tables carry no indexes unless tuning adds them (Section 5.2).
class SystemAEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemA"; }

  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;

  void Scan(const ScanRequest& req, const RowCallback& cb) override;
  TableStats GetTableStats(const std::string& table) const override;

 protected:
  std::unique_ptr<TableBase> MakeTable(const TableDef& def) const override {
    return std::make_unique<Table>(def);
  }
  // Refs are row ids in the current partition.
  void CurrentVersions(TableBase& table, const std::vector<Value>& key,
                       std::vector<VersionRef>* refs,
                       std::vector<Row>* rows) override;
  void CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                    StmtKind kind, bool ever_visible) override;
  void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                   StmtKind kind) override;
  Status DoInstallVersion(TableBase& table, const Row& stored) override;

 private:
  struct Table : TableBase {
    RowTable current;
    RowTable history;
    // System-created key index on the current partition (DML location and
    // query access). Survives DropIndexes.
    HashIndex pk_current;
    IndexSet current_indexes;
    IndexSet history_indexes;

    explicit Table(const TableDef& d)
        : TableBase(d), current(scan_schema), history(scan_schema) {}
  };

  // Appends a scan-schema row with an open system interval to the current
  // partition and its indexes.
  void AddCurrent(Table* t, Row stored);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_A_H_
