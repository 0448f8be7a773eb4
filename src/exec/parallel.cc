#include "exec/parallel.h"

#include <algorithm>
#include <cstdlib>

namespace bih {

namespace {

constexpr int kMaxScanThreads = 64;

int EnvScanThreads() {
  static const int parsed = [] {
    const char* v = std::getenv("BIH_SCAN_THREADS");
    if (v == nullptr) return 1;
    const int n = std::atoi(v);
    return std::clamp(n, 1, kMaxScanThreads);
  }();
  return parsed;
}

// 0 = no override (fall back to the environment).
std::atomic<int> g_thread_override{0};

}  // namespace

int DefaultScanThreads() {
  const int o = g_thread_override.load(std::memory_order_relaxed);
  return o > 0 ? o : EnvScanThreads();
}

void SetDefaultScanThreads(int threads) {
  g_thread_override.store(threads < 1 ? 0 : std::min(threads, kMaxScanThreads),
                          std::memory_order_relaxed);
}

// The shared state of one parallel partition scan. Owned jointly (via
// shared_ptr) by the coordinator and the scheduler's job board, so a helper
// that raced with teardown still holds valid memory while it observes the
// stop flag.
struct ParallelJob {
  MorselScanFn body;
  uint64_t slot_count = 0;
  uint64_t morsel_size = 0;
  uint64_t num_morsels = 0;
  QueryContext* ctx = nullptr;  // borrowed; workers only read cancel flag

  // Work claiming: morsel m covers slots [m*morsel_size, ...). A morsel is
  // claimed by whoever fetch_adds `next` to its index first.
  std::atomic<uint64_t> next{0};

  // Raised by the coordinator on early exit and always before Retire. Also
  // the fence helpers re-check (seq_cst) before each claim so a helper that
  // wakes late never runs `body` after the coordinator moved on.
  std::atomic<bool> stop{false};

  // How many helpers may still join (threads - 1 at launch); decremented by
  // CAS when a helper signs on, so a 2-thread scan on an 8-thread pool gets
  // exactly one helper.
  std::atomic<int> helper_slots{0};

  // Helpers currently inside RunMorsels. Retire spins until it reaches
  // zero; the seq_cst increment/stop-check pair makes that spin sufficient
  // for the coordinator to reuse/destroy everything `body` captures.
  std::atomic<int> helpers_active{0};

  std::vector<MorselOutput> outputs;
  std::unique_ptr<std::atomic<bool>[]> done;  // per-morsel publication flag
};

namespace {

// Claims and runs morsels until the board is empty or the job stops.
// Shared by helpers and the coordinator.
void RunMorsels(ParallelJob* job) {
  while (!job->stop.load(std::memory_order_seq_cst)) {
    const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= job->num_morsels) return;
    const uint64_t begin = m * job->morsel_size;
    const uint64_t end = std::min(begin + job->morsel_size, job->slot_count);
    job->body(begin, end, job->stop, &job->outputs[m]);
    // Release pairs with the coordinator's acquire load: once it sees
    // done[m], the morsel's row ids and counters are fully visible.
    job->done[m].store(true, std::memory_order_release);
  }
}

}  // namespace

ScanScheduler::ScanScheduler(int helpers) {
  workers_.reserve(static_cast<size_t>(std::max(helpers, 0)));
  for (int i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ScanScheduler::~ScanScheduler() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

ScanScheduler* ScanScheduler::Default() {
  // Leaked on purpose (see header). Sized so the 1..8-thread bench sweeps
  // and tests never starve, even if the first caller only wanted 2 threads.
  static ScanScheduler* pool =
      new ScanScheduler(std::max(DefaultScanThreads(), 8) - 1);
  return pool;
}

void ScanScheduler::Launch(const std::shared_ptr<ParallelJob>& job) {
  // Wake only as many sleepers as the job accepts helpers: a 2-thread scan
  // on an 8-thread pool wakes one, not seven that would find the quota
  // taken and go back to sleep. A helper left asleep still sees job_seq_
  // moved when it next wakes and simply takes whatever job is posted then.
  const int quota = job->helper_slots.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    board_ = job;
    ++job_seq_;
  }
  if (quota >= num_workers()) {
    cv_.NotifyAll();
  } else {
    for (int i = 0; i < quota; ++i) cv_.NotifyOne();
  }
}

void ScanScheduler::Retire(const std::shared_ptr<ParallelJob>& job) {
  // The coordinator set job->stop before calling; make that unconditional.
  job->stop.store(true, std::memory_order_seq_cst);
  {
    MutexLock lock(mu_);
    if (board_ == job) board_.reset();
  }
  // Drain: a helper either (a) already incremented helpers_active — we spin
  // until its matching decrement — or (b) increments after our 0-read; by
  // the seq_cst total order that helper's subsequent stop check sees true
  // and it exits RunMorsels without running the body. Either way, once this
  // loop observes zero no helper will touch the job's body again. This is a
  // documented bare-atomic handoff, not a lock: the pairing is the seq_cst
  // increment/stop-check in WorkerLoop (regression-tested by the
  // RetireDrains* cases in tests/parallel_scan_test.cc).
  while (job->helpers_active.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

void ScanScheduler::WorkerLoop() {
  uint64_t seen_seq = 0;
  while (true) {
    std::shared_ptr<ParallelJob> job;
    {
      MutexLock lock(mu_);
      idle_.fetch_add(1, std::memory_order_acq_rel);
      // Explicit predicate loop (not a wait(lock, pred) lambda) so the
      // analysis sees the guarded reads of shutdown_/job_seq_ under mu_.
      while (!shutdown_ && job_seq_ == seen_seq) cv_.Wait(mu_);
      idle_.fetch_sub(1, std::memory_order_acq_rel);
      if (shutdown_) return;
      seen_seq = job_seq_;
      job = board_;
    }
    if (job == nullptr) continue;  // retired before we woke

    // Sign on within the job's helper quota.
    int slots = job->helper_slots.load(std::memory_order_relaxed);
    bool claimed = false;
    while (slots > 0 && !claimed) {
      claimed = job->helper_slots.compare_exchange_weak(
          slots, slots - 1, std::memory_order_acq_rel);
    }
    if (!claimed) continue;

    job->helpers_active.fetch_add(1, std::memory_order_seq_cst);
    RunMorsels(job.get());
    job->helpers_active.fetch_sub(1, std::memory_order_seq_cst);
  }
}

ParallelScanPlan ResolveScanPlan(int requested_threads,
                                 ScanScheduler* scheduler,
                                 uint64_t morsel_size) {
  ParallelScanPlan plan;
  plan.threads = requested_threads > 0
                     ? std::min(requested_threads, kMaxScanThreads)
                     : DefaultScanThreads();
  plan.morsel_size = morsel_size > 0 ? morsel_size : kDefaultMorselSize;
  if (plan.threads > 1) {
    plan.scheduler = scheduler != nullptr ? scheduler : ScanScheduler::Default();
  }
  if (plan.scheduler == nullptr) plan.threads = 1;
  return plan;
}

void ParallelScanPartition(const ParallelScanPlan& plan, uint64_t slot_count,
                           QueryContext* ctx, const MorselScanFn& body,
                           const MorselRowFn& row_of, MorselSink* sink,
                           uint64_t* rows_examined, uint64_t* rows_output,
                           bool* stopped,
                           const std::function<bool(const Row&)>& emit) {
  auto job = std::make_shared<ParallelJob>();
  job->slot_count = slot_count;
  job->morsel_size = plan.morsel_size;
  job->num_morsels = (slot_count + plan.morsel_size - 1) / plan.morsel_size;
  const uint64_t base =
      sink != nullptr ? sink->Reserve(job->num_morsels) : 0;
  if (sink == nullptr) {
    job->body = body;
  } else {
    // The thread that scanned a morsel also hands its hits to the sink,
    // materialized in a scratch row of its own.
    const uint64_t morsel = plan.morsel_size;
    job->body = [&body, &row_of, sink, ctx, base, morsel](
                    uint64_t begin, uint64_t end,
                    const std::atomic<bool>& stop, MorselOutput* out) {
      body(begin, end, stop, out);
      Row scratch;
      for (uint64_t rid : out->rids) {
        if (MorselInterrupted(stop, ctx)) return;
        sink->Consume(base + begin / morsel, row_of(rid, &scratch));
      }
    };
  }
  job->ctx = ctx;
  job->helper_slots.store(plan.threads - 1, std::memory_order_relaxed);
  job->outputs.resize(job->num_morsels);
  job->done.reset(new std::atomic<bool>[job->num_morsels]);
  for (uint64_t m = 0; m < job->num_morsels; ++m) {
    job->done[m].store(false, std::memory_order_relaxed);
  }
  plan.scheduler->Launch(job);

  bool tripped = false;    // QueryContext said stop (deadline/cancel)
  bool emit_stop = false;  // the consumer said stop (LIMIT, Top-N)
  Row scratch;             // every emitted row is built here, in turn
  uint64_t cursor = 0;     // next morsel to emit, in order
  while (cursor < job->num_morsels) {
    if (!job->done[cursor].load(std::memory_order_acquire)) {
      // The in-order morsel is not ready: be useful, claim one ourselves.
      const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
      if (m < job->num_morsels) {
        const uint64_t begin = m * job->morsel_size;
        const uint64_t end =
            std::min(begin + job->morsel_size, job->slot_count);
        job->body(begin, end, job->stop, &job->outputs[m]);
        job->done[m].store(true, std::memory_order_release);
        // Per-morsel deadline check, the parallel analogue of the serial
        // loops' periodic clock sampling.
        if (ctx != nullptr && !ctx->CheckNow().ok()) {
          tripped = true;
          break;
        }
        continue;
      }
      // All morsels claimed; wait for the helper that owns `cursor`.
      bool wait_tripped = false;
      while (!job->done[cursor].load(std::memory_order_acquire)) {
        if (ctx != nullptr && !ctx->CheckNow().ok()) {
          wait_tripped = true;
          break;
        }
        std::this_thread::yield();
      }
      if (wait_tripped) {
        tripped = true;
        break;
      }
    }

    // Per-morsel deadline check on the emit path too: when helpers outpace
    // the coordinator the claim branch above never runs, and the per-row
    // KeepGoing alone would defer an expired deadline for a full clock
    // interval's worth of rows.
    if (ctx != nullptr && !ctx->CheckNow().ok()) {
      tripped = true;
      break;
    }

    MorselOutput& out = job->outputs[cursor];
    if (sink != nullptr) {
      // The worker consumed the morsel's rows; its slot is complete, and
      // every slot before it is too.
      *rows_output += out.rids.size();
      sink->Finish(base + cursor);
    }
    for (size_t j = 0; sink == nullptr && j < out.rids.size(); ++j) {
      // Same per-emitted-row discipline as the serial loops.
      if (ctx != nullptr && !ctx->KeepGoing()) {
        tripped = true;
        break;
      }
      ++*rows_output;
      if (!emit(row_of(out.rids[j], &scratch))) {
        emit_stop = true;
        // The serial scan would have stopped mid-morsel: count exactly the
        // rows it would have examined up to this emission.
        *rows_examined += out.examined_at[j];
        break;
      }
    }
    if (tripped || emit_stop) break;
    *rows_examined += out.rows_examined;
    // Release emitted id buffers eagerly (two flat vectors per morsel), so
    // a wide scan holds only its in-flight morsels' hits.
    std::vector<uint64_t>().swap(out.rids);
    std::vector<uint64_t>().swap(out.examined_at);
    ++cursor;
  }

  job->stop.store(true, std::memory_order_seq_cst);
  plan.scheduler->Retire(job);
  if (tripped || emit_stop) *stopped = true;
}

bool ParallelMorselRun(const ParallelScanPlan& plan, uint64_t item_count,
                       QueryContext* ctx, const MorselRunFn& body,
                       const std::function<void(uint64_t m)>& finish) {
  auto job = std::make_shared<ParallelJob>();
  const uint64_t morsel = plan.morsel_size;
  job->body = [&body, morsel](uint64_t begin, uint64_t end,
                              const std::atomic<bool>& stop,
                              MorselOutput* out) {
    (void)out;  // results go to caller-owned per-morsel slots
    body(begin / morsel, begin, end, stop);
  };
  job->slot_count = item_count;
  job->morsel_size = morsel;
  job->num_morsels = PlanMorselCount(plan, item_count);
  job->ctx = ctx;
  job->helper_slots.store(plan.threads - 1, std::memory_order_relaxed);
  job->outputs.resize(job->num_morsels);
  job->done.reset(new std::atomic<bool>[job->num_morsels]);
  for (uint64_t m = 0; m < job->num_morsels; ++m) {
    job->done[m].store(false, std::memory_order_relaxed);
  }
  plan.scheduler->Launch(job);

  bool tripped = false;
  uint64_t finished = 0;  // morsels before this one went through `finish`
  auto finish_ready = [&] {
    while (finished < job->num_morsels &&
           job->done[finished].load(std::memory_order_acquire)) {
      if (finish) finish(finished);
      ++finished;
    }
  };
  // Coordinator participates: claim and run morsels like a helper, with the
  // per-morsel deadline check the serial loops express as clock sampling.
  while (!tripped) {
    const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= job->num_morsels) break;
    const uint64_t begin = m * morsel;
    const uint64_t end = std::min(begin + morsel, item_count);
    body(m, begin, end, job->stop);
    job->done[m].store(true, std::memory_order_release);
    if (ctx != nullptr && !ctx->CheckNow().ok()) tripped = true;
    if (!tripped) finish_ready();
  }
  // Wait for helpers to finish the morsels they claimed.
  while (!tripped && finished < job->num_morsels) {
    if (!job->done[finished].load(std::memory_order_acquire)) {
      if (ctx != nullptr && !ctx->CheckNow().ok()) {
        tripped = true;
        break;
      }
      std::this_thread::yield();
    }
    finish_ready();
  }

  job->stop.store(true, std::memory_order_seq_cst);
  plan.scheduler->Retire(job);
  return !tripped;
}

}  // namespace bih
