#ifndef TPCBIH_DURABILITY_WAL_H_
#define TPCBIH_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/period.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "durability/fault.h"
#include "temporal/sequenced.h"

namespace bih {

// Binary write-ahead log shared by all four engines. The log is engine-
// neutral: it records logical mutations (the same vocabulary as the archive
// Operation) together with the commit timestamp the engine assigned, so
// replaying it into a fresh engine of any architecture reproduces the exact
// bitemporal state — including system-time coordinates.
//
// File layout: an 8-byte magic ("BIHWAL01"), then framed records:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// payload = u8 kind, u8 flags, i64 commit_ts, kind-specific body. Strings
// are u32 length + bytes, values are 1-byte-tagged (null/int/double/str).
// A record with flags bit kInTxn set is only durable once a later kCommit
// record closes its transaction; recovery discards an unterminated batch,
// which is how a crash between Begin and the Commit flush loses exactly the
// uncommitted suffix and nothing else.
//
// The log is segmented: segment 1 lives at the base path itself (so a
// never-rotated log is byte-compatible with the pre-segmentation format)
// and segment i >= 2 at "<base>.NNNNNN". Rotation is driven by the
// checkpointer (durability/checkpoint.h); recovery replays the segment
// chain in index order.

// CRC-32 (IEEE 802.3 polynomial, reflected). Exposed so tests can craft
// deliberately corrupt frames.
uint32_t WalCrc32(const uint8_t* data, size_t n);

// The 8-byte file magic shared by log segments and checkpoint files.
std::string WalFileMagic();

// --- durable-sync primitives ---------------------------------------------
// These are the only sanctioned fsync/fdatasync call sites in the tree
// (tools/bih_lint enforces it): every durability decision goes through
// here, where BIH_NO_FSYNC can turn real device syncs off for tests and
// benches that churn thousands of tiny throwaway logs.

// True unless BIH_NO_FSYNC is set (re-read per call so tests can flip it).
bool DurableSyncEnabled();
// fdatasync of `f`'s descriptor; EINTR is retried. No-op when sync is
// disabled. `path` is only used for error messages.
Status SyncFileNow(std::FILE* f, const std::string& path);
// fsync of the directory containing `path`, making a create/rename of that
// name durable. No-op when sync is disabled.
Status SyncParentDir(const std::string& path);

// --- segment naming -------------------------------------------------------

// Path of segment `index` (1-based) of the log at `base`: `base` itself for
// index 1, "<base>.NNNNNN" (zero-padded) beyond.
std::string WalSegmentPath(const std::string& base, uint64_t index);

struct WalSegment {
  uint64_t index = 0;
  std::string path;
};

// All existing segments of the log at `base`, sorted by index. Missing
// leading segments (truncated by a checkpoint) are simply absent.
std::vector<WalSegment> ListWalSegments(const std::string& base);

// Deletes segments with index < keep_from (checkpoint truncation). The
// number of files removed is reported via `removed` when non-null.
Status RemoveWalSegmentsBefore(const std::string& base, uint64_t keep_from,
                               uint64_t* removed = nullptr);

struct WalRecord {
  enum class Kind : uint8_t {
    kCreateTable = 1,
    kInsert = 2,
    kUpdateCurrent = 3,
    kUpdateSequenced = 4,
    kUpdateOverwrite = 5,
    kDeleteCurrent = 6,
    kDeleteSequenced = 7,
    kBulkLoad = 8,
    kCommit = 9,  // closes the open transaction's records
    // Checkpoint-file records (durability/checkpoint.h); never produced by
    // live mutation logging.
    kSnapshotRows = 10,     // a chunk of stored versions of one table
    kCheckpointFooter = 11  // marks the checkpoint complete and readable
  };
  static constexpr uint8_t kInTxn = 0x01;  // flags bit

  Kind kind = Kind::kCommit;
  uint8_t flags = 0;
  int64_t ts = 0;  // commit timestamp (micros); 0 for DDL;
                   // clock watermark for kCheckpointFooter

  std::string table;                    // all DML kinds, kSnapshotRows
  TableDef def;                         // kCreateTable
  Row row;                              // kInsert
  std::vector<Row> rows;                // kBulkLoad, kSnapshotRows
  std::vector<Value> key;               // update/delete kinds
  int period_index = 0;                 // sequenced kinds
  Period period;                        // sequenced kinds
  std::vector<ColumnAssignment> set;    // update kinds
  uint64_t segments_covered = 0;        // kCheckpointFooter: highest WAL
                                        // segment folded into the snapshot

  bool in_txn() const { return (flags & kInTxn) != 0; }
};

// Serializes `rec` into the payload encoding (no frame header).
void EncodeWalRecord(const WalRecord& rec, std::string* out);
// Parses a payload produced by EncodeWalRecord.
Status DecodeWalRecord(const uint8_t* data, size_t n, WalRecord* out);

// Appends framed records to a log file. Writes go through the optional
// FaultInjector. Clean failures (an injected EIO before any byte landed,
// or a failed fflush/fdatasync) are retried with bounded exponential
// backoff before giving up; a short physical write is never retried,
// because the on-disk state is unknown. Once an append, flush, sync or
// rotation has definitively failed, the writer is dead: dead_reason()
// keeps the one actionable first error and every further call returns the
// same terse kIoError referencing it (the in-memory engine state is then
// ahead of the durable state, exactly like a real crash — the session
// layer reacts by degrading to read-only).
//
// Staging and durability are separate steps. Flush() only pushes buffered
// bytes to the OS. SyncGroup() is the one durability point of a commit: it
// flushes the stream, captures the append LSN and pays one fdatasync for
// every record appended so far. The group-commit coordinator
// (durability/group_commit.h) elects the caller; a writer used without a
// session still commits through it, as a group of one.
//
// One retry loop owns the device: SyncGroup and Rotate's segment finish
// both go through it. The writer's mutex is released during every device
// wait and every flush or sync backoff, so later transactions keep
// appending into the stream while a sync is in flight (commit pipelining);
// sync_inflight_ pins the FILE* meanwhile.
//
// Thread safety: the writer carries its own mutex, so Append/Flush/Rotate
// are safe from any thread. In the session layer all writes already arrive
// serialized under the exclusive engine lock; the internal lock makes the
// log's frame integrity independent of that outer discipline (and lets
// -Wthread-safety prove nothing touches the stream unlocked).
class WalWriter {
 public:
  // Attempts per record/flush/sync: the first try plus two retries, backing
  // off 1ms then 2ms. Enough to ride out a transient EINTR/ENOSPC-race
  // style hiccup without stalling a commit visibly.
  static constexpr int kMaxWriteAttempts = 3;

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Creates/truncates segment 1 of the log at `path`, writes the magic and
  // makes the creation durable (file + parent directory sync). The injector
  // (optional) is borrowed and must outlive the writer.
  static Status Open(const std::string& path, FaultInjector* fault,
                     std::unique_ptr<WalWriter>* out);

  // Creates/truncates segment `segment_index` (>= 1) of the log at `path`
  // and opens a writer positioned there, leaving earlier segments alone.
  // This is the revive path out of read-only degradation: a session whose
  // writer died at segment k opens a fresh writer at k+1, checkpoints the
  // in-memory state (covering everything before the fresh segment), and
  // resumes writes — recovery then never needs the dead segment's lost
  // suffix.
  static Status OpenAt(const std::string& path, uint64_t segment_index,
                       FaultInjector* fault, std::unique_ptr<WalWriter>* out);

  Status Append(const WalRecord& rec) EXCLUDES(mu_);
  // Stages buffered bytes in the OS (fflush). Never syncs the device: a
  // staged record is durable only once a SyncGroup covers it.
  Status Flush() EXCLUDES(mu_);
  // Finishes the current segment (flush + sync) and starts the next one.
  // Called by the checkpointer at the checkpoint watermark so the snapshot
  // covers exactly the finished segments. Rotation always syncs the device:
  // a segment boundary is a durability boundary.
  Status Rotate() EXCLUDES(mu_);

  // Records appended so far across segments — the LSN ticket a transaction
  // hands to the group-commit coordinator ("make everything up to here
  // durable").
  uint64_t appended_lsn() const EXCLUDES(mu_);
  // One batched durability point: flush the stream, capture the append
  // LSN, fdatasync the device (fault-checked per attempt via OnSync;
  // OnGroupFlush fires once between staging and the sync — the "crash with
  // the group in the page cache" point). On success *durable_upto
  // (optional) is the LSN the sync proved durable.
  Status SyncGroup(uint64_t* durable_upto) EXCLUDES(mu_);

  const std::string& path() const { return path_; }
  uint64_t records_written() const {
    MutexLock lock(mu_);
    return records_written_;
  }
  uint64_t bytes_written() const {
    MutexLock lock(mu_);
    return bytes_written_;
  }
  uint64_t segment_index() const {
    MutexLock lock(mu_);
    return segment_index_;
  }
  uint64_t syncs() const {
    MutexLock lock(mu_);
    return syncs_;
  }
  bool dead() const {
    MutexLock lock(mu_);
    return dead_;
  }
  // The first definitive failure, verbatim; empty while the writer lives.
  std::string dead_reason() const {
    MutexLock lock(mu_);
    return dead_reason_;
  }

 private:
  WalWriter(std::string path, std::FILE* f, FaultInjector* fault,
            uint64_t header_bytes, uint64_t segment_index = 1)
      : path_(std::move(path)),
        file_(f),
        fault_(fault),
        bytes_written_(header_bytes),
        segment_index_(segment_index) {}

  // Records the first definitive failure and returns its status; later
  // calls while dead get the same stable terse error from DeadStatus().
  Status MarkDead(std::string reason) REQUIRES(mu_);
  Status DeadStatus() const REQUIRES(mu_);
  // Sleeps out the backoff after failed attempt `attempt` with mu_
  // released, so a retrying flush or sync never stalls appenders.
  void BackoffLocked(int attempt) REQUIRES(mu_);
  // fflush with bounded retries; marks the writer dead on exhaustion.
  Status FlushLocked() REQUIRES(mu_);
  // The one device-sync loop behind SyncGroup and Rotate: waits out a sync
  // in flight, flushes, captures the append LSN, then fdatasyncs
  // (fault-checked and retried per attempt); on success *durable_upto
  // (optional) is that LSN. `group_flush` also consults the group-flush
  // crash point. Called without mu_; holds it only between device waits.
  Status SyncDevice(bool group_flush, uint64_t* durable_upto) EXCLUDES(mu_);
  // Rotate's tail: opens the next segment and swaps it in.
  Status StartNextSegment() REQUIRES(mu_);

  const std::string path_;  // base path (= segment 1), immutable

  // Everything below is the log stream's integrity: the FILE*, the injected
  // fault plan (its trigger counter mutates per write), the frame counters
  // and the scratch buffers must move together, one frame at a time.
  mutable Mutex mu_;
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  FaultInjector* fault_ GUARDED_BY(mu_) PT_GUARDED_BY(mu_) = nullptr;  // not owned
  uint64_t records_written_ GUARDED_BY(mu_) = 0;  // across all segments
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;    // across all segments
  uint64_t segment_index_ GUARDED_BY(mu_) = 1;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t group_syncs_ GUARDED_BY(mu_) = 0;
  uint64_t rotations_ GUARDED_BY(mu_) = 0;
  // While a device sync is in flight the FILE* must not be swapped or
  // closed, and no second sync may start: SyncDevice sets sync_inflight_
  // and drops mu_ for the wait; Rotate, the destructor and the next sync
  // wait on sync_cv_ for the flag to clear.
  bool sync_inflight_ GUARDED_BY(mu_) = false;
  CondVar sync_cv_;
  // Never notified: a timed wait on it is BackoffLocked's unlocked sleep.
  CondVar backoff_cv_;
  bool dead_ GUARDED_BY(mu_) = false;
  std::string dead_reason_ GUARDED_BY(mu_);
  // Scratch space reused across Append calls; at steady state appending a
  // record allocates nothing (this keeps the logging tax on the Fig. 16
  // loading path well under 2x).
  std::string payload_buf_ GUARDED_BY(mu_);
  std::string frame_buf_ GUARDED_BY(mu_);
};

// Result of scanning a log file up to the first torn or corrupt frame.
struct WalScanResult {
  std::vector<WalRecord> records;  // the valid prefix
  uint64_t bytes_total = 0;        // file size
  uint64_t bytes_salvaged = 0;     // offset just past the last valid record
  bool tail_dropped = false;       // trailing garbage was ignored
  std::string tail_reason;         // why the tail was cut (empty when clean)
};

// Reads every valid record of `path`. A bad magic is an error; a torn or
// CRC-corrupt tail is NOT — the valid prefix is returned and the tail
// described in `out` (graceful degradation; the caller decides whether to
// TruncateWalTail the file).
Status ScanWal(const std::string& path, WalScanResult* out);

// Truncates `path` to `bytes`, discarding a corrupt tail found by ScanWal
// so future appends extend a clean log.
Status TruncateWalTail(const std::string& path, uint64_t bytes);

}  // namespace bih

#endif  // TPCBIH_DURABILITY_WAL_H_
