#ifndef TPCBIH_ENGINE_ENGINE_H_
#define TPCBIH_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/chrono.h"
#include "common/query_context.h"
#include "common/value.h"
#include "durability/group_commit.h"
#include "durability/wal.h"
#include "exec/aggregate.h"
#include "exec/exec_options.h"
#include "temporal/clock.h"
#include "temporal/sequenced.h"
#include "temporal/temporal.h"

namespace bih {

class MorselSink;     // src/exec/parallel.h
class ScanScheduler;  // src/exec/parallel.h

// Index structure choices offered by the tuning experiments (Section 5.1).
enum class IndexType { kBTree, kRTree, kHash };

// Which physical partition of a table an index is built on. Engines without
// a current/history split treat kCurrent/kHistory as the single table.
enum class PartitionSel { kCurrent, kHistory };

// A tuning index request. `columns` are positions in the table's *scan
// schema* (user columns followed by the two system-time columns, see
// TemporalEngine::ScanSchema). For kRTree the columns must name one or two
// (begin, end) period column pairs.
struct IndexSpec {
  std::string table;
  PartitionSel partition = PartitionSel::kCurrent;
  std::vector<int> columns;
  IndexType type = IndexType::kBTree;
  std::string name;
};

// Execution counters of one Scan, written to the request's
// ScanRequest::stats; the tests assert plan shape (which partitions were
// touched, whether an index was chosen) and the benches report them next to
// timings.
struct ExecStats {
  uint64_t rows_examined = 0;
  uint64_t rows_output = 0;
  int partitions_touched = 0;
  // True when any scanned partition was served by an index; index_name then
  // lists the chosen index of each served partition in scan order,
  // comma-separated. Engines that never consult indexes (System C ignores
  // them, Section 5.3.2) leave both at their defaults.
  bool used_index = false;
  std::string index_name;
  bool touched_history = false;
};

// One table access issued by a benchmark query.
struct ScanRequest {
  std::string table;
  TemporalScanSpec temporal;
  // Equality constraints on scan-schema columns (typically the primary key).
  std::vector<std::pair<int, Value>> equals;
  // Optional range constraint lo <= col <= hi; a null Value leaves the side
  // unbounded. Used by the value-in-time queries (K6).
  int range_col = -1;
  Value range_lo;
  Value range_hi;
  // Columns the consumer will read; empty means all. Column-store engines
  // only guarantee the projected columns are populated in emitted rows.
  std::vector<int> projection;
  // The conjuncts of a WHERE clause that fit neither `equals` nor the range
  // (may be null). A version qualifies only when this predicate, evaluated
  // on its scan-schema cells after the temporal and constraint match, is
  // true; NULL counts as false. Set by the optimizer only.
  ExprPtr residual;
  // Ungrouped aggregates folded into the scan (may be empty): COUNT(*), or
  // COUNT, SUM, AVG, MIN or MAX of a bare column. When set, the scan emits
  // no row and hands none to the sink: it folds every qualifying version
  // into `fold`, one AggState per aggregate, in scan order, so the states
  // are byte-identical to folding the serial scan's rows at any thread
  // count. Set by the optimizer only.
  std::vector<AggSpec> aggs;
  // Where a folding scan leaves its states (borrowed, aggs.size() of them,
  // folded into as they are); set by the executor, like `stats`. A folding
  // scan without it discards them.
  AggState* fold = nullptr;
  // Cooperative deadline/cancellation token (borrowed, may be null). The
  // scan loops consult it per row and stop early once it trips; the token
  // then carries kDeadlineExceeded or kCancelled. Engine state is never
  // touched by an interrupted read.
  QueryContext* ctx = nullptr;
  // When set, the scan resets *stats and writes its counters there; this is
  // the only way counters leave an engine, and a scan without it discards
  // them. A plan node points it at its own PlanStats::scan.
  ExecStats* stats = nullptr;
  // Consolidated intra-query parallelism knobs (threads, morsel size, worker
  // pool). Unset fields resolve through the session's ExecOptions and then
  // the process defaults; see exec/exec_options.h. Index access paths are
  // always serial. Results and counters are byte-identical to the serial
  // scan at any setting.
  ExecOptions exec;
  // Executor-owned consumer of the morsel-parallel partitions (borrowed,
  // may be null). When set, each partition that runs in parallel hands its
  // rows to the sink on the worker that scanned them (see MorselSink);
  // serial partitions and index access paths still emit through the row
  // callback. Counters are the same either way.
  MorselSink* sink = nullptr;
};

// Per-table size information (Section 5.2 architecture analysis).
struct TableStats {
  size_t current_rows = 0;
  size_t history_rows = 0;
  size_t pending_undo = 0;  // System B only
};

using RowCallback = std::function<bool(const Row&)>;

// How a statement changes a key. System B records it per version (its
// STMT_TYPE history column); the other engines ignore it.
enum class StmtKind : int64_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

// Opaque handle of one stored version, minted by CurrentVersions and valid
// until the statement ends (System C's merge relocates versions).
using VersionRef = uint64_t;

// Abstract bitemporal storage engine. The four implementations reproduce
// the four anonymized systems of the paper (see DESIGN.md for the mapping).
//
// Scan output layout ("scan schema"): the user columns of the table
// definition in order, then SYS_TIME_START and SYS_TIME_END (timestamps).
// Application-time periods are ordinary user columns per the TableDef.
//
// Everything that does not differ between the architectures lives here,
// once: the table registry, the type checks on written values, and all six
// DML statements. A statement allocates its commit timestamp, plans its
// version changes against the key's current versions (Snodgrass' sequenced
// splits for the FOR PORTION OF forms, "close all, insert the modified
// copies" otherwise), applies them through three per-engine version
// primitives (CurrentVersions, CloseVersion, OpenVersion) and mirrors the
// statement to the attached write-ahead log. An engine supplies its
// physical table, those primitives, its scans and its index handling.
class TemporalEngine {
 public:
  virtual ~TemporalEngine() = default;

  virtual std::string name() const = 0;

  // --- DDL -----------------------------------------------------------
  // AlreadyExists when a table of that name is registered.
  Status CreateTable(const TableDef& def);
  virtual Status CreateIndex(const IndexSpec& spec) = 0;
  virtual Status DropIndexes(const std::string& table) = 0;

  // GetTableDef and ScanSchema are fatal for an unknown table; callers
  // check HasTable first.
  const TableDef& GetTableDef(const std::string& table) const;
  Schema ScanSchema(const std::string& table) const;
  bool HasTable(const std::string& table) const {
    return tables_.count(table) > 0;
  }
  // Table names in deterministic (sorted) order; the checkpointer walks
  // these to snapshot the whole engine.
  std::vector<std::string> ListTables() const;

  // --- Transactions ----------------------------------------------------
  // DML statements outside Begin/Commit auto-commit individually. Batched
  // statements share one commit timestamp (the Fig. 13 batch-size knob);
  // a version opened and closed inside one batch was never visible and
  // leaves no history. With a WAL attached, a batch is durable once Commit
  // returns: its records plus a commit marker went through group_commit();
  // auto-commit statements commit individually the same way.
  void Begin();
  Status Commit();

  // --- DML -------------------------------------------------------------
  // Every statement consumes a commit tick (outside a batch), including
  // one that fails; only successful ones are logged. Errors: NotFound for
  // an unknown table or a key without current versions; InvalidArgument
  // for a row of the wrong arity, a value the column's type cannot store,
  // NULL in a key or application-period column, an unknown SET column or
  // period index.
  Status Insert(const std::string& table, Row row);

  // Bulk load with explicit system-time periods appended to each row
  // (arity = user columns + 2). Only engines without engine-managed system
  // time accept this (System D); others return Unimplemented, which is the
  // paper's reason history loading must replay individual transactions.
  Status BulkLoad(const std::string& table, std::vector<Row> rows);

  // Updates every currently visible version of `key` (non-temporal update:
  // only the system time moves).
  Status UpdateCurrent(const std::string& table, const std::vector<Value>& key,
                       const std::vector<ColumnAssignment>& set);

  // SEQUENCED VALIDTIME UPDATE over `period` of application time dimension
  // `period_index`.
  Status UpdateSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set);

  // Overwrite semantics (Table 2 "Overwrite App.Time"): replaces the
  // overlapped range with a single new version spanning exactly `period`.
  Status UpdateOverwrite(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set);

  // Deletes every currently visible version of `key`.
  Status DeleteCurrent(const std::string& table,
                       const std::vector<Value>& key);

  Status DeleteSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period);

  // --- Durability ------------------------------------------------------
  // Opens (creating/truncating) a write-ahead log at `path`; from here on
  // every committed mutation — DDL included — is mirrored to it. `fault`
  // (optional, borrowed) injects deterministic write failures for crash
  // testing. When a log write or sync fails, the mutating call returns
  // kIoError: the in-memory state is then ahead of the durable state,
  // exactly as in a crashed process, and recovery from the log yields the
  // state at the last durable commit.
  Status EnableWal(const std::string& path, FaultInjector* fault = nullptr);
  // Installs `wal` and arms a fresh group-commit coordinator over it.
  Status AttachWal(std::unique_ptr<WalWriter> wal);
  WalWriter* wal() const { return wal_.get(); }
  // The coordinator of the attached WAL (null without one).
  std::shared_ptr<GroupCommit> group_commit() const { return group_; }

  // Runs `fn` with acknowledgment left to the caller: commits inside stage
  // their records but do not wait for the device. *ticket then covers
  // every record staged so far (LSN 0 without a WAL), and
  // group_commit()->WaitDurable(*ticket) makes them durable — which the
  // session does after releasing its engine lock.
  Status StageCommits(const std::function<Status(TemporalEngine&)>& fn,
                      GroupCommit::Ticket* ticket);

  // Applies one logged mutation at its original commit timestamp, keeping
  // the engine clock ahead of it; crash recovery only (engine/recovery.h).
  // Runs the same statement code as the live entry points. Never mirrored
  // to an attached WAL.
  Status ApplyWalRecord(const WalRecord& rec);

  // --- Checkpointing ---------------------------------------------------
  // Installs one stored version (scan-schema layout: user columns followed
  // by SYS_TIME_START and SYS_TIME_END) directly into the engine's physical
  // partitions — current/delta for an open interval, history for a closed
  // one — bypassing DML semantics and WAL mirroring. Checkpoint restore
  // only: call on a freshly created engine before it serves anything.
  Status InstallVersion(const std::string& table, const Row& stored);

  // --- Query -----------------------------------------------------------
  virtual void Scan(const ScanRequest& req, const RowCallback& cb) = 0;

  virtual TableStats GetTableStats(const std::string& table) const = 0;

  // Engine-maintenance hook: System C's delta->main merge; no-op elsewhere.
  virtual void Maintain() {}

  // Publishes any lazily-deferred state so that subsequent Scans are pure
  // reads. The session layer (src/server/) calls this while it still holds
  // the exclusive writer lock after each mutation; concurrent snapshot
  // readers may then share the engine without mutating it. System B drains
  // its undo log here (its history scans otherwise flush on demand);
  // elsewhere a no-op.
  virtual void PrepareForReads() {}

  Timestamp Now() const { return clock_.Now(); }

 protected:
  // What every engine's physical table shares: the logical definition and
  // the scan schema. Engines derive their table type from this and hand it
  // out through MakeTable.
  struct TableBase {
    // The scan schema appends two system-time columns named `sys_from` and
    // `sys_to` (System C keeps its own VALID_FROM/VALID_TO names, which
    // SELECT * headers expose).
    explicit TableBase(TableDef d, const char* sys_from = "SYS_TIME_START",
                       const char* sys_to = "SYS_TIME_END");
    virtual ~TableBase() = default;

    // The primary-key values of a user-layout or scan-layout row.
    std::vector<Value> KeyOf(const Row& row) const;

    const TableDef def;
    const Schema scan_schema;
  };

  // --- Per-engine version store ----------------------------------------
  // The physical table for a newly registered `def`.
  virtual std::unique_ptr<TableBase> MakeTable(const TableDef& def) const = 0;
  // The versions of `key` visible now: one opaque ref and one scan-schema
  // row (user columns, SYS_TIME_START, SYS_TIME_END) each, in a stable order.
  virtual void CurrentVersions(TableBase& table, const std::vector<Value>& key,
                               std::vector<VersionRef>* refs,
                               std::vector<Row>* rows) = 0;
  // Ends version `ref` at `ts`. When `ever_visible` is false the version was
  // opened at `ts` by the same transaction and must vanish without trace.
  virtual void CloseVersion(TableBase& table, VersionRef ref, Timestamp ts,
                            StmtKind kind, bool ever_visible) = 0;
  // Stores a new current version of `user_row` (user columns only) opened
  // at `ts`.
  virtual void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                           StmtKind kind) = 0;
  // Runs once a statement has made its last version change: System C's
  // merge check, which relocates versions and so must not run mid-statement.
  virtual void EndStatement(TableBase& table) { (void)table; }

  // Checkpoint restore of one stored version; `stored` has the scan
  // schema's arity (InstallVersion checks it).
  virtual Status DoInstallVersion(TableBase& table, const Row& stored) = 0;
  virtual Status DoBulkLoad(const std::string& table, std::vector<Row> rows);

  // --- Registry access for the engines ------------------------------------
  // The table `name` as the engine's physical type T; NotFound when absent.
  template <class T>
  Status FindTable(const std::string& name, T** out) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("table " + name);
    *out = static_cast<T*>(it->second.get());
    return Status::OK();
  }
  // Same, fatal when absent: for callers that have checked HasTable.
  template <class T>
  T& TableOf(const std::string& name) const {
    auto it = tables_.find(name);
    BIH_CHECK_MSG(it != tables_.end(), "no table " + name);
    return static_cast<T&>(*it->second);
  }
  template <class T, class Fn>
  void ForEachTable(const Fn& fn) {
    for (auto& [name, t] : tables_) fn(static_cast<T&>(*t));
  }

  // The engine is externally synchronized: every mutation (and so every
  // touch of the transaction state below) runs under the session layer's
  // exclusive rw_mu_.
  CommitClock clock_;
  bool in_txn_ = false;
  Timestamp txn_time_;

 private:
  // One DML statement as an entry point (or WAL replay) received it; the
  // row of an insert travels beside it. Read in place, so a statement
  // copies nothing unless a WAL is attached.
  struct Statement {
    WalRecord::Kind kind;
    const std::string& table;
    const std::vector<Value>& key;
    const std::vector<ColumnAssignment>& set;
    int period_index;
    const Period& period;
  };

  // Registers `def` without logging it (CreateTable and WAL replay).
  Status RegisterTable(const TableDef& def);
  // The live DML entry points: allocates the commit stamp, applies the
  // statement and mirrors it to the WAL on success.
  Status Execute(const Statement& stmt, Row row);
  // The one DML routine: validates `stmt`, plans its version changes and
  // applies them at `ts` through the version primitives.
  Status ApplyStatement(const Statement& stmt, Row row, Timestamp ts);
  // Mirrors a successful mutation to the WAL: buffered inside a
  // transaction, appended and acknowledged immediately in auto-commit mode.
  Status LogMutation(WalRecord rec);
  // Stages the records just appended inside StageCommits; outside it,
  // waits on the coordinator until they are durable.
  Status Acknowledge();

  // Sorted, so ListTables is deterministic. Mutated by DDL only, under the
  // session layer's exclusive lock.
  std::map<std::string, std::unique_ptr<TableBase>> tables_;
  // Shared with the coordinator, which keeps it alive for its waiters;
  // AttachWal replaces both wholesale.
  std::shared_ptr<WalWriter> wal_;
  std::shared_ptr<GroupCommit> group_;
  bool stage_only_ = false;  // inside StageCommits
  std::vector<WalRecord> txn_wal_;  // write path only
};

// Factory: engines named "A".."D" (architecture letter as in the paper).
std::unique_ptr<TemporalEngine> MakeEngine(const std::string& letter);

// All four architecture letters, in paper order.
const std::vector<std::string>& AllEngineLetters();

}  // namespace bih

#endif  // TPCBIH_ENGINE_ENGINE_H_
