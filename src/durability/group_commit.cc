#include "durability/group_commit.h"

#include <chrono>
#include <thread>
#include <utility>

namespace bih {
namespace {

// Upper bound on how long a leader waits for announced writers to finish
// staging before syncing without them. Chosen below one device sync
// (~145us here): collecting a straggler can never cost more than the
// extra sync the straggler would otherwise pay on its own.
constexpr std::chrono::microseconds kCollectDeadline{120};

}  // namespace

GroupCommit::GroupCommit(std::shared_ptr<WalWriter> wal)
    : wal_(std::move(wal)) {}

Status GroupCommit::WaitDurable(Ticket t, const std::atomic<int>* staging) {
  mu_.lock();
  while (durable_lsn_ < t.lsn) {
    if (dead_) {
      // The batch died unacknowledged; so does every transaction behind
      // it. Every queued waiter and all future tickets get the same answer.
      Status st = dead_status_;
      mu_.unlock();
      return st;
    }
    if (sync_inflight_) {
      // A leader is at the device; when it lands, durable_lsn_ jumps past
      // every ticket staged before its target. Sleep until then and
      // re-check. Waiters are never queued behind the *next* group's
      // device wait: the leader drops mu_ during the sync and durability
      // is published through the condition variable, so a covered ticket
      // acknowledges the moment its group lands even while a later group
      // is already syncing (commit pipelining on the ack side too).
      cv_.Wait(mu_);
      continue;
    }
    // Leader election: the first uncovered waiter with no sync in flight
    // leads one group for everyone queued here and everyone still staging.
    sync_inflight_ = true;
    mu_.unlock();

    // Collect phase: writers that announced themselves (entered the write
    // path, not yet appended) will stage within microseconds — wait for
    // them so this sync's target covers their tickets too, instead of each
    // paying its own sync one device-wait later. The unconditional yields
    // first bridge the instruction-scale gap between a peer acknowledging
    // the previous group and re-announcing for this one; without them the
    // leader samples the counter in exactly that blind spot and syncs
    // alone. Cost for a lone writer: two sched_yields (~1us) against a
    // device wait two orders of magnitude larger. A stuck staging writer
    // costs at most kCollectDeadline, strictly less than the sync it
    // would save.
    if (staging != nullptr) {
      std::this_thread::yield();
      std::this_thread::yield();
    }
    if (staging != nullptr &&
        staging->load(std::memory_order_acquire) > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + kCollectDeadline;
      while (staging->load(std::memory_order_acquire) > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }

    uint64_t upto = 0;
    Status st = wal_->SyncGroup(&upto);

    mu_.lock();
    sync_inflight_ = false;
    if (!st.ok()) {
      dead_ = true;
      dead_status_ = st;
      cv_.NotifyAll();
      mu_.unlock();
      return st;
    }
    ++stats_.groups;
    if (upto > durable_lsn_) {
      const uint64_t advance = upto - durable_lsn_;
      durable_lsn_ = upto;
      if (advance > stats_.max_group) stats_.max_group = advance;
    }
    cv_.NotifyAll();
  }
  ++stats_.acks;
  mu_.unlock();
  return Status::OK();
}

GroupCommit::Stats GroupCommit::GetStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace bih
