#include "server/session.h"

#include <algorithm>

namespace bih {

SessionManager::SessionManager(TemporalEngine* engine, SessionConfig cfg)
    : engine_(engine), admission_(cfg.admission) {
  Init(cfg);
}

SessionManager::SessionManager(std::unique_ptr<TemporalEngine> engine,
                               SessionConfig cfg)
    : owned_engine_(std::move(engine)),
      engine_(owned_engine_.get()),
      admission_(cfg.admission) {
  Init(cfg);
}

void SessionManager::Init(SessionConfig cfg) {
  const int shards = std::max(1, cfg.write_shards);
  shard_mu_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shard_mu_.push_back(std::make_unique<Mutex>());
  }
  {
    // No concurrent access can exist yet, but taking the writer lock keeps
    // the engine-touching setup on the same annotated path as Write().
    WriterLock lock(rw_mu_);
    // Anything loaded before the session layer took over (bulk load, WAL
    // recovery) becomes the base snapshot.
    engine_->PrepareForReads();
    watermark_.store(engine_->Now().micros(), std::memory_order_release);
  }
  scan_threads_ = cfg.scan_threads > 0 ? cfg.scan_threads : DefaultScanThreads();
  if (scan_threads_ > 1) {
    // The coordinator of each read participates in its own scan, so the
    // pool only needs threads - 1 helpers.
    scheduler_ = std::make_unique<ScanScheduler>(scan_threads_ - 1);
  }
  watchdog_period_ = cfg.watchdog_period;
  if (watchdog_period_.count() > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

SessionManager::~SessionManager() {
  if (watchdog_.joinable()) {
    {
      MutexLock lock(watchdog_mu_);
      shutdown_ = true;
    }
    watchdog_cv_.NotifyAll();
    watchdog_.join();
  }
}

void SessionManager::AdvanceWatermark(int64_t commit_ts) {
  int64_t cur = watermark_.load(std::memory_order_relaxed);
  while (commit_ts > cur &&
         !watermark_.compare_exchange_weak(cur, commit_ts,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
    // cur reloaded by the failed CAS; loop ends once someone at or past
    // commit_ts has published.
  }
}

void SessionManager::WatchdogLoop() {
  MutexLock lock(watchdog_mu_);
  while (!shutdown_) {
    watchdog_cv_.WaitFor(watchdog_mu_, watchdog_period_);
    if (shutdown_) return;
    const auto now = QueryContext::Clock::now();
    uint64_t killed = 0;
    {
      MutexLock reg(inflight_mu_);
      for (QueryContext* ctx : inflight_) {
        if (ctx->has_deadline() && now >= ctx->deadline() &&
            !ctx->cancel_requested()) {
          ctx->Cancel();  // attributed to the deadline by the context
          ++killed;
        }
      }
    }
    if (killed > 0) {
      MutexLock st(stats_mu_);
      stats_.watchdog_kills += killed;
    }
  }
}

TemporalSelector SessionManager::ClampToWatermark(const TemporalSelector& sel,
                                                  int64_t watermark) {
  // The engines keep every version queryable (closing a version moves it,
  // it is never destroyed), so restricting the system-time selector to
  // [beginning, watermark] reproduces the state at that commit exactly:
  // versions committed later begin after the watermark and cannot match.
  switch (sel.kind) {
    case TemporalSelector::Kind::kImplicitCurrent:
      // "Current" for this session means current as of the snapshot.
      return TemporalSelector::AsOf(watermark);
    case TemporalSelector::Kind::kPoint:
      return TemporalSelector::AsOf(std::min(sel.point, watermark));
    case TemporalSelector::Kind::kRange:
      // Half-open range: end watermark+1 keeps versions that begin exactly
      // at the watermark visible.
      return TemporalSelector::Between(
          std::min(sel.range.begin, watermark),
          std::min(sel.range.end, watermark + 1));
    case TemporalSelector::Kind::kAll:
      return TemporalSelector::Between(Period::kBeginningOfTime,
                                       watermark + 1);
  }
  return sel;
}

Status SessionManager::Read(ScanRequest req, QueryContext* ctx,
                            std::vector<Row>* out) {
  return ReadAt(OpenSnapshot(), std::move(req), ctx, out);
}

Status SessionManager::ReadAt(Snapshot snap, ScanRequest req,
                              QueryContext* ctx, std::vector<Row>* out) {
  out->clear();
  req.temporal.system_time =
      ClampToWatermark(req.temporal.system_time, snap.watermark);
  req.ctx = ctx;
  // Intra-query parallelism: reads that do not choose a width inherit the
  // manager's; workers run strictly within ReadTxn's shared-lock scope (the
  // scan drains its morsels before returning), so parallel reads see the
  // same pinned snapshot as serial ones.
  req.exec = MergeExecOptions(req.exec, exec_options());
  Status s = ReadTxn(ctx, [&](TemporalEngine& eng) {
    eng.Scan(req, [&](const Row& row) {
      out->push_back(row);
      // A version still open at the snapshot may have been closed by a
      // later write before this scan ran; its stored SYS_TIME_END is then
      // past the watermark. Rewriting it to forever makes reads against
      // the same snapshot byte-identical no matter how writes interleave.
      Row& r = out->back();
      if (!r.empty() && r.back().is_int() &&
          r.back().AsInt() > snap.watermark) {
        r.back() = Value(Period::kForever);
      }
      return true;
    });
    return Status::OK();
  });
  if (!s.ok()) out->clear();
  return s;
}

Status SessionManager::ReadTxn(
    QueryContext* ctx, const std::function<Status(TemporalEngine&)>& fn) {
  Status result = Status::OK();
  if (ctx != nullptr) result = ctx->CheckNow();
  if (result.ok()) result = admission_.Admit(ctx);
  if (!result.ok()) {
    AccountRead(result);
    return result;
  }

  if (ctx != nullptr) {
    MutexLock reg(inflight_mu_);
    inflight_.insert(ctx);
  }

  if (PollLockShared(ctx, &result)) {
    result = fn(*engine_);
    // A deadline or cancellation that fired mid-callback wins over whatever
    // the callback returned: an interrupted composite read must not be
    // reported as a clean success (or as a confusing secondary error).
    if (ctx != nullptr) {
      Status interrupted = ctx->status();
      if (!interrupted.ok()) result = interrupted;
    }
    rw_mu_.unlock_shared();
  }

  if (ctx != nullptr) {
    MutexLock reg(inflight_mu_);
    inflight_.erase(ctx);
  }
  admission_.Release();
  AccountRead(result);
  return result;
}

void SessionManager::AccountRead(const Status& s) {
  MutexLock lock(stats_mu_);
  switch (s.code()) {
    case Status::Code::kOk:
      ++stats_.reads_ok;
      break;
    case Status::Code::kDeadlineExceeded:
      ++stats_.reads_deadline;
      break;
    case Status::Code::kCancelled:
      ++stats_.reads_cancelled;
      break;
    case Status::Code::kResourceExhausted:
      ++stats_.reads_shed;
      break;
    default:
      break;
  }
}

bool SessionManager::PollLockShared(QueryContext* ctx, Status* why) {
  while (!rw_mu_.try_lock_shared()) {
    if (ctx != nullptr) {
      *why = ctx->CheckNow();
      if (!why->ok()) return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void SessionManager::DegradeIfWalDead() {
  WalWriter* wal = engine_->wal();
  if (wal != nullptr && wal->dead()) {
    read_only_.store(true, std::memory_order_release);
  }
}

void SessionManager::DegradeNow() {
  read_only_.store(true, std::memory_order_release);
}

Status SessionManager::ReadOnlyStatus() const {
  return Status::Unavailable(
      "session is read-only: the write-ahead log failed and the in-memory "
      "state may be ahead of the durable state",
      "snapshot reads continue at the last durable commit; restart the "
      "server and recover from the log to restore writes");
}

size_t SessionManager::ShardFor(const std::string& table,
                                const std::vector<Value>& key,
                                const Row* row) const {
  // Keyed DML serializes per (table, leading key value); the leading value
  // is the primary-key prefix in every schema this repo loads, so writes
  // to distinct keys land on distinct shards with high probability. A
  // collision only costs concurrency, never correctness: the exclusive
  // engine lock inside DoWrite is the real serialization point.
  size_t h = std::hash<std::string>{}(table);
  const Value* lead = nullptr;
  if (!key.empty()) {
    lead = &key.front();
  } else if (row != nullptr && !row->empty()) {
    lead = &row->front();
  }
  if (lead != nullptr) {
    h ^= lead->Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h % shard_mu_.size();
}

void SessionManager::LockShards(int shard) {
  if (shard != kAllShards) {
    shard_mu_[static_cast<size_t>(shard)]->lock();
    return;
  }
  // Barrier: ascending index order, the same order every keyed writer uses
  // implicitly (it holds exactly one), so the sweep cannot deadlock
  // against them or against a concurrent barrier.
  for (auto& mu : shard_mu_) mu->lock();
}

void SessionManager::UnlockShards(int shard) {
  if (shard != kAllShards) {
    shard_mu_[static_cast<size_t>(shard)]->unlock();
    return;
  }
  for (auto it = shard_mu_.rbegin(); it != shard_mu_.rend(); ++it) {
    (*it)->unlock();
  }
}

Status SessionManager::Write(
    const std::function<Status(TemporalEngine&)>& fn) {
  return DoWrite(kAllShards, fn);
}

Status SessionManager::WriteKeyed(
    const std::string& table, const std::vector<Value>& key,
    const std::function<Status(TemporalEngine&)>& fn) {
  return DoWrite(static_cast<int>(ShardFor(table, key, nullptr)), fn);
}

Status SessionManager::DoWrite(
    int shard, const std::function<Status(TemporalEngine&)>& fn) {
  // Fast path: a degraded session rejects writes without ever contending
  // for the writer lock, so the rejection cannot stall running reads.
  if (read_only_.load(std::memory_order_acquire)) {
    MutexLock st(stats_mu_);
    ++stats_.writes_unavailable;
    return ReadOnlyStatus();
  }
  LockShards(shard);
  // Re-check after the (possibly long) shard wait: a writer ahead of us on
  // this shard may have degraded the session meanwhile.
  if (read_only_.load(std::memory_order_acquire)) {
    UnlockShards(shard);
    MutexLock st(stats_mu_);
    ++stats_.writes_unavailable;
    return ReadOnlyStatus();
  }

  // The durability wait gets the engine's coordinator (shared_ptr: a
  // revive may swap in a fresh one while we wait) plus the write's ticket
  // and commit timestamp, all captured under the exclusive lock where LSN
  // order and commit order are the same order.
  std::shared_ptr<GroupCommit> group;
  GroupCommit::Ticket ticket;
  int64_t commit_ts = 0;

  // Announce before queueing on the writer lock: a group-commit leader
  // about to sync sees the counter and holds the group open until we have
  // staged, folding our commit into its fdatasync instead of leaving us to
  // lead our own one device-wait later. Decremented under the lock once
  // our records (and ticket) are in.
  staging_.fetch_add(1, std::memory_order_release);

  Status s;
  {
    WriterLock lock(rw_mu_);
    // Commits inside stop after staging; the ticket covers them all.
    s = engine_->StageCommits(fn, &ticket);
    // Publish deferred engine state (System B's undo log) while we still
    // hold the writer side, so subsequent scans are pure reads.
    engine_->PrepareForReads();
    commit_ts = engine_->Now().micros();
    group = engine_->group_commit();
    // An append failure (as opposed to a sync failure) kills the WAL while
    // we still hold the lock; from here on the session serves the pinned
    // snapshots but accepts no further writes.
    DegradeIfWalDead();
    staging_.fetch_sub(1, std::memory_order_release);
    {
      MutexLock st(stats_mu_);
      ++stats_.writes;
    }
  }

  // The exclusive lock is gone: readers and other shards proceed while we
  // wait for the device. The coordinator batches every waiter that piles up
  // here into one fdatasync.
  Status durable =
      group != nullptr ? group->WaitDurable(ticket, &staging_) : Status::OK();
  if (durable.ok()) {
    // Acknowledged (or nothing to wait on). Only now may readers pin this
    // commit: timestamps reach the watermark in durability order, which
    // equals commit order, so a pinned snapshot never spans a half-durable
    // suffix.
    AdvanceWatermark(commit_ts);
  } else {
    // Never acknowledged — the commit may not survive a crash, so its
    // timestamp must never reach the watermark. Degrade without the lock
    // (read_only_ only ever flips false -> true outside a revive).
    DegradeNow();
    if (s.ok()) s = durable;
  }
  UnlockShards(shard);
  return s;
}

Status SessionManager::RunCheckpoint(Checkpointer* cp, CheckpointInfo* info) {
  // Barrier on every admission shard: keyed writers hold their shard
  // across the durability wait, so once the sweep completes no write is
  // between "applied" and "acknowledged" — the checkpoint's rotation then
  // never races a group sync it didn't account for.
  LockShards(kAllShards);
  Status result = RunCheckpointLocked(cp, info);
  UnlockShards(kAllShards);
  return result;
}

Status SessionManager::RunCheckpointLocked(Checkpointer* cp,
                                           CheckpointInfo* info) {
  WriterLock lock(rw_mu_);
  if (read_only_.load(std::memory_order_acquire)) {
    // Revive path. The dead writer stopped at some segment k with an
    // unknown durable suffix; nothing can ever be appended there again.
    // Open a fresh writer at k+1 and checkpoint through it: the
    // checkpoint's own rotation then covers segments 1..k+1, so the
    // snapshot — taken from the in-memory state, which is a superset of
    // anything the dead segment held — supersedes the lost suffix, and
    // the covered segments (the dead one included) are deleted.
    WalWriter* dead = engine_->wal();
    if (dead == nullptr) return ReadOnlyStatus();
    std::unique_ptr<WalWriter> fresh;
    // The segment-create sync runs under the exclusive rw_mu_ on purpose:
    // this is the revive path of a degraded (read-only) engine inside a
    // checkpoint that already holds every admission shard, so no write can
    // be stalled by it — there is nothing to release the lock for.
    Status st =
        // bih-lint: allow(blocking-under-lock)
        WalWriter::OpenAt(dead->path(), dead->segment_index() + 1,
                          /*fault=*/nullptr, &fresh);
    if (!st.ok()) return st;  // still read-only; nothing changed
    // AttachWal arms a fresh coordinator over the fresh writer. The old
    // one is poisoned (its writer is the dead one); any straggler still
    // waiting on it holds its own shared_ptr and gets the dead status.
    BIH_RETURN_IF_ERROR(engine_->AttachWal(std::move(fresh)));
    Status cs = cp->Write(engine_, info);
    WalWriter* now = engine_->wal();
    if (!cs.ok() || now == nullptr || now->dead()) {
      // The revive itself failed (e.g. the checkpoint could not publish,
      // or the fresh writer died during the rotation). Stay read-only:
      // the durable state is still the pre-failure prefix, and claiming
      // writability against a dead log would reopen the hole this path
      // exists to close.
      return cs.ok() ? ReadOnlyStatus() : cs;
    }
    read_only_.store(false, std::memory_order_release);
    return Status::OK();
  }
  Status s = cp->Write(engine_, info);
  // The rotation may have killed the writer (injected or real): degrade
  // rather than let the next commit fail confusingly.
  DegradeIfWalDead();
  return s;
}

Status SessionManager::Insert(const std::string& table, Row row) {
  const int shard = static_cast<int>(ShardFor(table, {}, &row));
  return DoWrite(shard, [&](TemporalEngine& eng) {
    return eng.Insert(table, std::move(row));
  });
}

Status SessionManager::UpdateCurrent(const std::string& table,
                                     const std::vector<Value>& key,
                                     const std::vector<ColumnAssignment>& set) {
  const int shard = static_cast<int>(ShardFor(table, key, nullptr));
  return DoWrite(shard, [&](TemporalEngine& eng) {
    return eng.UpdateCurrent(table, key, set);
  });
}

Status SessionManager::DeleteCurrent(const std::string& table,
                                     const std::vector<Value>& key) {
  const int shard = static_cast<int>(ShardFor(table, key, nullptr));
  return DoWrite(
      shard, [&](TemporalEngine& eng) { return eng.DeleteCurrent(table, key); });
}

SessionManager::ServerStats SessionManager::GetStats() const {
  ServerStats s;
  {
    MutexLock lock(stats_mu_);
    s = stats_;
  }
  s.admission = admission_.GetStats();
  return s;
}

GroupCommit::Stats SessionManager::GetGroupCommitStats() {
  std::shared_ptr<GroupCommit> group;
  {
    ReaderLock lock(rw_mu_);
    group = engine_->group_commit();
  }
  return group != nullptr ? group->GetStats() : GroupCommit::Stats{};
}

}  // namespace bih
