#ifndef TPCBIH_SERVER_SESSION_H_
#define TPCBIH_SERVER_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "durability/group_commit.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "server/admission.h"

namespace bih {

// Knobs for one SessionManager.
struct SessionConfig {
  AdmissionConfig admission;
  // How often the watchdog sweeps the in-flight registry for overdue
  // queries. Zero disables the watchdog thread entirely.
  std::chrono::milliseconds watchdog_period{10};
  // Threads one scan may use (intra-query parallelism); 0 resolves to the
  // process default (BIH_SCAN_THREADS / SetDefaultScanThreads), 1 keeps
  // every read serial. When > 1, the manager owns a ScanScheduler sized
  // for this width and injects it into reads that do not bring their own.
  int scan_threads = 0;
  // Write-admission shards (clamped to >= 1). Keyed writes (Insert/
  // UpdateCurrent/DeleteCurrent) serialize per shard — hash of (table,
  // first key value) — instead of against every other writer, so
  // independent updates overlap their durability waits; generic Write()
  // is a barrier that takes all shards. Sharding is pure admission
  // discipline: the short exclusive apply under rw_mu_ stays the
  // serialization point, so correctness never depends on the hash.
  int write_shards = 16;
};

// Concurrent front door for a TemporalEngine. The engines themselves are
// single-threaded; this layer adds the discipline a server needs:
//
//  * Read()/ReadAt() run concurrently under a shared lock against a
//    *pinned snapshot*: the system-time watermark of the last durable
//    write. Because the bitemporal stores never destroy versions, clamping
//    a query's system-time selector to the watermark yields exactly the
//    state at that commit, so a reader never observes half of a later
//    batch no matter how writes interleave. ReadTxn() (the SQL path) runs
//    under the same lock but does not pin: see its comment.
//  * Writes pass shard admission first (keyed writes serialize per
//    (table, key)-hash shard; generic writes barrier on all shards), then
//    take the exclusive side of the lock for the in-memory apply and WAL
//    append, reusing the engines' existing WAL-mirrored DML path
//    unchanged; after each write the engine publishes deferred state
//    (System B's undo log) so subsequent scans are pure reads.
//  * Every write ends the same way. The apply runs inside the engine's
//    StageCommits scope, so its commits stage their WAL records and stop;
//    the write leaves the exclusive lock with a durability ticket at its
//    append LSN and only then waits on the engine's GroupCommit
//    coordinator, so concurrent writers on different shards share one
//    fdatasync. This holds for every WAL the engine carries, including one
//    attached after the session was built. The watermark advances only
//    after the ticket is acknowledged durable — Read() can never pin a
//    commit that a crash could still lose, and because commit timestamps
//    and LSNs are issued in the same order under the exclusive lock,
//    watermark publication in durability order equals publication in
//    commit order. Without a WAL there is nothing to wait on and the
//    watermark advances as soon as the lock is released.
//  * Every read passes admission control first (bounded queue + load
//    shedding) and carries an optional QueryContext checked per row; a
//    background watchdog cancels queries that outlive their deadline even
//    if they are stuck off the per-row path.
//  * When the write-ahead log dies (device failure, injected or real), the
//    manager degrades to read-only instead of taking the server down:
//    every subsequent write returns kUnavailable with a retry hint, while
//    pinned-snapshot reads keep serving the state at the last durable
//    commit. Restarting and recovering from the log restores writes.
//
// Every read call returns exactly one of: kOk (with rows), kDeadlineExceeded,
// kCancelled, or kResourceExhausted. An interrupted read leaves engine state
// untouched and returns no partial rows.
//
// Lock discipline (enforced by -Wthread-safety, see thread_annotations.h):
// shard admission locks come first (ascending index), then rw_mu_ protects
// the engine; inflight_mu_, watchdog_mu_ and stats_mu_ are leaf locks taken
// in that order after watchdog_mu_ by the watchdog sweep. The GroupCommit
// coordinator's internal mutex is only ever taken with no session lock
// held (durability waits happen after rw_mu_ is released). The watermark
// is the one deliberate lock-free handoff: stored once by Init, then
// advanced by CAS-max after the write's lock is released
// (AdvanceWatermark); the release-store pairs with the acquire-load in
// OpenSnapshot.
class SessionManager {
 public:
  // Serves an engine owned by someone else (e.g. a WorkloadContext).
  explicit SessionManager(TemporalEngine* engine, SessionConfig cfg = {});
  // Takes ownership of the engine.
  explicit SessionManager(std::unique_ptr<TemporalEngine> engine,
                          SessionConfig cfg = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // A pinned system-time position. Reads against the same snapshot return
  // the same result regardless of concurrent writes.
  struct Snapshot {
    int64_t watermark = 0;
  };

  // Pins the current watermark (the last durable write). Lock-free: the
  // acquire-load pairs with AdvanceWatermark's release CAS.
  Snapshot OpenSnapshot() const {
    return Snapshot{watermark_.load(std::memory_order_acquire)};
  }

  // --- Reads -----------------------------------------------------------
  // Runs `req` against the current snapshot / `snap`, appending rows to
  // `out`. `ctx` (optional, borrowed) carries deadline and cancellation;
  // on a non-OK return `out` is left empty.
  Status Read(ScanRequest req, QueryContext* ctx, std::vector<Row>* out);
  Status ReadAt(Snapshot snap, ScanRequest req, QueryContext* ctx,
                std::vector<Row>* out);

  // Runs `fn` on the engine under the shared (reader) side of the lock,
  // behind admission control, in-flight registration and watchdog
  // coverage; Read()/ReadAt() are callbacks of this core. This is how
  // composite read-only work (the SQL front end's scans, joins and
  // aggregations) runs against a consistent engine: writers are excluded
  // for the duration, and a deadline or cancellation that fires
  // mid-callback overrides fn's own status. The callback sees the engine's
  // applied state, including commits still waiting on their durability
  // ticket; it does not pin the watermark — only Read()/ReadAt() do. The
  // callback must not mutate the engine.
  Status ReadTxn(QueryContext* ctx,
                 const std::function<Status(TemporalEngine&)>& fn);

  // --- Writes ----------------------------------------------------------
  // Runs `fn` on the engine under the exclusive lock; any combination of
  // DML (including Begin/Commit batches) is atomic with respect to
  // readers, and the watermark advances once the write is durable. Takes
  // every admission shard (barrier), so it serializes against all keyed
  // writers — the convenience wrappers below route through the same core
  // but hold only their own shard.
  Status Write(const std::function<Status(TemporalEngine&)>& fn);

  // Like Write(), but admitted on the shard of (table, key) instead of the
  // all-shards barrier: writes to different shards overlap their
  // durability waits (under group commit they usually share one device
  // sync). `fn` must only touch rows of that key — the exclusive engine
  // lock still makes any violation atomic, but a violation serializes
  // against the wrong shard and may observe another in-flight writer's
  // committed-but-unacknowledged rows, exactly what keyed admission
  // promises callers it prevents.
  Status WriteKeyed(const std::string& table, const std::vector<Value>& key,
                    const std::function<Status(TemporalEngine&)>& fn);

  Status Insert(const std::string& table, Row row);
  Status UpdateCurrent(const std::string& table, const std::vector<Value>& key,
                       const std::vector<ColumnAssignment>& set);
  Status DeleteCurrent(const std::string& table, const std::vector<Value>& key);

  // Runs a checkpoint under the exclusive lock (the checkpointer requires
  // no mutation between its WAL rotation and its snapshot scan). Readers
  // proceed again as soon as it returns; writes queue behind it.
  //
  // On a session degraded to read-only this is also the revive path: a
  // fresh WAL writer is opened at the segment after the dead one, the
  // checkpoint folds the entire in-memory state into a snapshot covering
  // every earlier segment, and — only if both steps succeed and the fresh
  // writer is still healthy — writes are re-enabled (attaching the fresh
  // writer armed a fresh coordinator over it). A failed revive leaves the
  // session read-only: recovery then still lands on the pre-failure
  // durable state, never on a hole.
  Status RunCheckpoint(Checkpointer* cp, CheckpointInfo* info);

  // --- Degraded operation ----------------------------------------------
  // True once the manager has flipped to read-only after a WAL failure.
  // Writes are rejected with kUnavailable; reads are unaffected.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  // --- Introspection ---------------------------------------------------
  struct ServerStats {
    AdmissionController::Stats admission;
    uint64_t reads_ok = 0;
    uint64_t reads_deadline = 0;
    uint64_t reads_cancelled = 0;
    uint64_t reads_shed = 0;
    uint64_t writes = 0;
    uint64_t writes_unavailable = 0;  // rejected while degraded read-only
    uint64_t watchdog_kills = 0;
  };
  ServerStats GetStats() const;

  // Group-commit counters of the engine's current coordinator (zeroes
  // without a WAL; commits made before the session was built count too).
  // groups < acks is the amortization working: several acknowledged
  // commits shared one device sync. Takes the reader side of the engine
  // lock (the coordinator handle lives under it).
  GroupCommit::Stats GetGroupCommitStats();

  // Resolved write-admission shard count (>= 1).
  int write_shards() const { return static_cast<int>(shard_mu_.size()); }

  // Escape hatch for single-threaded setup and test assertions: hands out
  // the engine without the lock the concurrent paths require. Callers must
  // not race it against Read/Write.
  TemporalEngine& engine() NO_THREAD_SAFETY_ANALYSIS { return *engine_; }
  const AdmissionConfig& admission_config() const {
    return admission_.config();
  }

  // The manager's worker pool (null when configured serial) and resolved
  // per-scan thread count. The cancellation tests poll the scheduler's
  // idle count to prove interrupted parallel reads leave no worker busy.
  ScanScheduler* scheduler() { return scheduler_.get(); }
  int scan_threads() const { return scan_threads_; }

  // The session's resolved execution defaults, as injected into every read
  // whose request leaves the knobs unset. The SQL front end and the network
  // server pass this straight to Execute()/ExecuteSql so plan operators
  // (parallel joins, aggregation) share the session's worker pool.
  ExecOptions exec_options() {
    ExecOptions opts;
    opts.scan_threads = scan_threads_;
    opts.scheduler = scheduler_.get();
    return opts;
  }

  // Clamps a system-time selector so it cannot observe commits after
  // `watermark`. Exposed for the tests' reference models.
  static TemporalSelector ClampToWatermark(const TemporalSelector& sel,
                                           int64_t watermark);

 private:
  void Init(SessionConfig cfg);
  void WatchdogLoop();

  // The single writer core. `shard` >= 0 holds that one admission shard;
  // kAllShards barriers on every shard in ascending index order. Inside:
  // exclusive rw_mu_ for fn (staged, see StageCommits) + commit
  // bookkeeping, then the lock is dropped, the write waits on its
  // durability ticket (when the engine has a WAL) and the watermark
  // advances.
  static constexpr int kAllShards = -1;
  Status DoWrite(int shard, const std::function<Status(TemporalEngine&)>& fn);

  // RunCheckpoint's body, entered with every admission shard held.
  Status RunCheckpointLocked(Checkpointer* cp, CheckpointInfo* info);

  // Maps a keyed write to its admission shard.
  size_t ShardFor(const std::string& table, const std::vector<Value>& key,
                  const Row* row) const;

  // Runtime-indexed lock sets defeat the static analysis, so the shard
  // acquire/release pair is annotated away; discipline is by construction:
  // ascending index acquisition (no shard-shard deadlock) and shards
  // always taken before rw_mu_. The bih-analyze directives feed the same
  // facts to the whole-repo lock-graph pass.
  // bih-analyze: acquires(shard_mu_)
  void LockShards(int shard) NO_THREAD_SAFETY_ANALYSIS;
  // bih-analyze: releases(shard_mu_)
  void UnlockShards(int shard) NO_THREAD_SAFETY_ANALYSIS;

  // Folds one finished read's outcome into the per-code counters.
  void AccountRead(const Status& s);

  // Acquires the reader side of rw_mu_ in short polled slices so a reader
  // stuck behind a long write still honours its QueryContext. Returns true
  // with the shared lock held; false (lock not held) with *why set to the
  // context's failure status.
  bool PollLockShared(QueryContext* ctx, Status* why)
      TRY_ACQUIRE_SHARED(true, rw_mu_);

  // Watermark publication, called *after* rw_mu_ is released once the
  // write is durable (its ticket acknowledged, or no ticket to wait on).
  // CAS-max with release ordering: ticket acknowledgments arrive in LSN
  // (= commit) order from the coordinator, but the waiters themselves race
  // to store, so the max keeps a straggler from moving the snapshot
  // backwards.
  void AdvanceWatermark(int64_t commit_ts);

  // Flips to read-only if the engine's WAL has died. Called after every
  // write/checkpoint while still holding the exclusive lock.
  void DegradeIfWalDead() REQUIRES(rw_mu_);
  // Lock-free degrade for a failed durability wait, which surfaces after
  // rw_mu_ is already released. read_only_ only ever goes false -> true,
  // so the bare store cannot lose a revive (revives happen
  // under the exclusive lock in RunCheckpoint, which observes the flag
  // again before re-enabling).
  void DegradeNow();
  // The stable kUnavailable writes receive while degraded.
  Status ReadOnlyStatus() const;

  // Set by the owning constructor, null for a borrowed engine.
  const std::unique_ptr<TemporalEngine> owned_engine_;
  // The pointer is set once in the constructor and never reassigned; the
  // *pointee* is the shared state: readers scan it under the shared side
  // of rw_mu_, writers mutate it under the exclusive side.
  TemporalEngine* engine_ PT_GUARDED_BY(rw_mu_) = nullptr;

  // Intra-query parallelism: helpers shared by all concurrent reads. Both
  // are fixed in Init() before any thread exists, immutable afterwards.
  int scan_threads_ = 1;  // bih-lint: allow(guard-coverage) set once in Init
  std::unique_ptr<ScanScheduler> scheduler_;

  // Readers shared, writers exclusive. Readers acquire with try_lock_shared
  // in short polled slices (PollLockShared) so a reader stuck behind a long
  // write still honours its QueryContext. (Not try_lock_shared_for: the
  // timed rwlock acquisition compiles to pthread_rwlock_clockrdlock, which
  // TSan does not intercept, and this layer must stay TSan-clean.)
  // Ordering: after the admission shards (writers admit, then lock), and
  // before the WAL writer's mutex (DoWrite appends and DegradeIfWalDead
  // polls dead() under the exclusive lock). String args:
  // the shard vector and the cross-class WalWriter member cannot be named
  // by the C++ attribute grammar here.
  SharedMutex rw_mu_ ACQUIRED_AFTER("SessionManager::shard_mu_")
      ACQUIRED_BEFORE("WalWriter::mu_");

  // System time of the last *durable* write; Read() pins this. Stored once
  // by Init, then advanced by AdvanceWatermark() CAS-max after each write's
  // lock is released; read lock-free in OpenSnapshot().
  std::atomic<int64_t> watermark_{0};

  // Flips once (false -> true) when the WAL dies; checked lock-free on the
  // write fast path so rejected writes never queue behind the writer lock.
  // Set under rw_mu_ by DegradeIfWalDead, or lock-free by DegradeNow when
  // a durability wait fails after the lock is gone. Cleared (revive)
  // only under rw_mu_ in RunCheckpoint.
  std::atomic<bool> read_only_{false};

  // Write admission shards (size fixed in Init, >= 1). Keyed writes hold
  // shard_mu_[ShardFor(...)]; Write()/RunCheckpoint barrier on all of
  // them. Always acquired in ascending index order, always before rw_mu_.
  std::vector<std::unique_ptr<Mutex>> shard_mu_;

  // Writers between write admission and staging (records appended, ticket
  // taken). DoWrite hands it to WaitDurable, whose leader reads it to hold
  // the group open for writers already committed to joining — a scheduling
  // hint for batching, never a correctness dependency.
  std::atomic<int> staging_{0};

  AdmissionController admission_;

  // In-flight registry for the watchdog. Leaf lock: taken after
  // watchdog_mu_ by the sweep, alone by readers registering themselves.
  Mutex inflight_mu_ ACQUIRED_AFTER(watchdog_mu_);
  std::unordered_set<QueryContext*> inflight_ GUARDED_BY(inflight_mu_);

  // Fixed in Init() before the watchdog thread spawns, immutable after.
  std::chrono::milliseconds watchdog_period_{0};  // bih-lint: allow(guard-coverage)
  // Lifecycle-only: spawned in Init, joined in Shutdown; no third thread
  // ever touches the handle. bih-lint: allow(guard-coverage)
  std::thread watchdog_;
  Mutex watchdog_mu_;
  CondVar watchdog_cv_;
  bool shutdown_ GUARDED_BY(watchdog_mu_) = false;

  // Leaf lock: the watchdog sweep and DoWrite's commit bookkeeping both
  // finish inside it without taking anything further.
  mutable Mutex stats_mu_ ACQUIRED_AFTER(watchdog_mu_, rw_mu_);
  ServerStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace bih

#endif  // TPCBIH_SERVER_SESSION_H_
