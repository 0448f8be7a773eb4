#ifndef TPCBIH_DURABILITY_GROUP_COMMIT_H_
#define TPCBIH_DURABILITY_GROUP_COMMIT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/wal.h"

namespace bih {

// Leader-elected group commit over one WalWriter: the only way a commit
// becomes durable. Every engine with a WAL owns one coordinator
// (TemporalEngine::AttachWal builds it); a commit with nobody else in
// flight is simply a group of one.
//
// A transaction appends and stages its records (serialized by the session's
// exclusive engine lock), takes a Ticket at the writer's current append
// LSN, releases the engine lock, and calls WaitDurable. The first uncovered
// waiter with no sync in flight elects itself leader, optionally holds the
// group open for writers that announced themselves but have not yet staged
// (the collect phase), then runs one WalWriter::SyncGroup, which makes
// every record staged so far durable in a single fdatasync. Everyone whose
// ticket the advanced durable LSN covers piggybacks, so N concurrent
// commits pay ~1 device sync instead of N. The leader holds no lock during
// the device wait: transactions keep appending while the sync is in flight
// and form the next group (commit pipelining), and waiters covered by an
// earlier group acknowledge through the condition variable the moment
// their group lands, never queueing behind the next group's sync.
//
// The acknowledgment contract: WaitDurable returns OK only once every
// record with LSN <= ticket is on the device. Because commit timestamps
// and LSNs are assigned in the same order (both under the exclusive engine
// lock), "my LSN is durable" implies "every earlier commit is durable" —
// which is what lets the session publish its snapshot watermark in ticket
// order without ever exposing a commit that a crash could still lose.
//
// A failed group sync poisons the coordinator: the batch's transactions
// (and every later one) get the failure status, mirroring the writer's own
// dead-state discipline. The coordinator co-owns the writer so a waiter
// blocked in SyncGroup can never outlive the FILE* it is syncing, even if
// the engine swaps in a fresh writer (and coordinator) meanwhile.
class GroupCommit {
 public:
  // "Make everything up to this LSN durable." Obtained from
  // WalWriter::appended_lsn() after the transaction's records are appended.
  struct Ticket {
    uint64_t lsn = 0;
  };

  struct Stats {
    uint64_t groups = 0;     // device syncs led
    uint64_t acks = 0;       // tickets acknowledged durable
    uint64_t max_group = 0;  // largest LSN advance one sync paid for
  };

  explicit GroupCommit(std::shared_ptr<WalWriter> wal);

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  // Blocks until every record with LSN <= t.lsn is durable, leading a group
  // sync if nobody else is. Returns OK exactly when the ticket's records
  // are on the device; any failure means the transaction was never
  // acknowledged (the session degrades to read-only on that signal). A
  // ticket at LSN 0 (transaction appended nothing) returns OK immediately.
  //
  // `staging` (optional) counts writers that have entered the write path
  // but not yet appended their records — the session increments it before
  // taking the engine lock and decrements after staging. A leader about to
  // sync collects: it waits (bounded) for the counter to drain so the group
  // covers writers already committed to joining it, instead of leaving
  // each to pay its own sync one device-wait later. The counter is a
  // scheduling hint only; correctness never depends on it.
  Status WaitDurable(Ticket t, const std::atomic<int>* staging = nullptr)
      EXCLUDES(mu_);

  Stats GetStats() const EXCLUDES(mu_);

 private:
  // Co-owned (engine + coordinator): waiters blocked in SyncGroup keep the
  // writer alive across an engine-level writer swap.
  const std::shared_ptr<WalWriter> wal_;

  mutable Mutex mu_;
  // True while a leader is between electing itself and publishing its
  // group's result. The leader drops mu_ for the collect phase and the
  // device wait, so waiters covered by an earlier group acknowledge
  // immediately instead of queueing behind the in-flight sync.
  bool sync_inflight_ GUARDED_BY(mu_) = false;
  CondVar cv_;
  uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;
  bool dead_ GUARDED_BY(mu_) = false;
  Status dead_status_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace bih

#endif  // TPCBIH_DURABILITY_GROUP_COMMIT_H_
