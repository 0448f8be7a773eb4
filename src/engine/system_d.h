#ifndef TPCBIH_ENGINE_SYSTEM_D_H_
#define TPCBIH_ENGINE_SYSTEM_D_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "storage/hash_index.h"
#include "storage/row_table.h"

namespace bih {

// Architecture D: disk-style row store *without* native temporal support
// (Section 2.5). The application models both time dimensions as ordinary
// columns in one non-partitioned table:
//  * no current/history split — every query sees all versions and filters;
//  * system time is maintained by the application layer, so explicit
//    timestamps are allowed and histories can be bulk loaded, which is why
//    loading is far cheaper than on the native engines;
//  * both B-tree and GiST (R-tree) tuning indexes are available.
class SystemDEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemD"; }

  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;

  void Scan(const ScanRequest& req, const RowCallback& cb) override;
  TableStats GetTableStats(const std::string& table) const override;

 protected:
  std::unique_ptr<TableBase> MakeTable(const TableDef& def) const override {
    return std::make_unique<Table>(def);
  }
  // Refs are row ids in the single table.
  void CurrentVersions(TableBase& table, const std::vector<Value>& key,
                       std::vector<VersionRef>* refs,
                       std::vector<Row>* rows) override;
  // Sets SYS_TIME_END in place: a closed version stays where it is.
  void CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                    StmtKind kind, bool ever_visible) override;
  void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                   StmtKind kind) override;
  Status DoInstallVersion(TableBase& table, const Row& stored) override;
  Status DoBulkLoad(const std::string& table, std::vector<Row> rows) override;

 private:
  struct Table : TableBase {
    RowTable data;
    // Application-side bookkeeping of the visible versions per key; plays
    // the role of the app logic the paper says non-temporal deployments
    // must implement themselves. Not consulted by query planning.
    HashIndex current_by_key;
    IndexSet indexes;

    explicit Table(const TableDef& d) : TableBase(d), data(scan_schema) {}
  };

  // Appends a scan-schema row with explicit system time; an open one
  // becomes a current version of its key.
  void AddVersion(Table* t, Row stored);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_D_H_
