#ifndef TPCBIH_EXEC_PARALLEL_H_
#define TPCBIH_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "exec/exec_options.h"

namespace bih {

// Morsel-driven intra-query parallelism for the engines' full-partition
// scans (the access path that dominates Figs. 2-15: Section 5.2 attributes
// most cross-system gaps to how much of the version space a scan touches).
//
// Shape: a partition of N slots is cut into fixed-size row-id ranges
// ("morsels"). Workers claim morsels with one atomic fetch_add, run the
// partition's slot test over their range and record the *row ids* of the
// qualifying slots in a per-morsel buffer. The engines reach this file from
// one place, the morsel leg of PartitionScan::ScanSlots
// (engine/scan_util.h), which also runs the same slot test serially. The
// coordinating query thread participates too (so a scan makes progress even
// when every helper is busy elsewhere). What happens to the hits depends on
// the consumer:
//
//  * A plain row callback: the coordinator *emits* morsels strictly in
//    morsel order, materializing each hit into one coordinator-owned scratch
//    row through the engine's MorselRowFn just before handing it to the
//    consumer. Slot order inside a morsel is preserved by construction, so
//    the merged output is byte-identical to the serial scan, including under
//    early stop (LIMIT, Top-N); and since every row is built, consumed and
//    overwritten on one thread, nothing is allocated per row or freed on
//    another thread.
//  * A MorselSink (the plan executor's morsel pipelines, which never stop a
//    scan early): the worker that scanned a morsel materializes its hits
//    into a worker-local scratch row and hands them to the sink under the
//    morsel's slot number. The sink keeps one partial result per slot, and
//    the coordinator tells it, strictly in slot order, when a slot is
//    complete, so the sink merges the partials in the serial row order
//    while later morsels are still being scanned.
//
// Index access paths stay serial: they are already selective (Section
// 5.3.3's observation), so the scan loops are the only place the threads
// help.

// Rows per morsel when the request does not choose one. Large enough that
// the claim fetch_add and the done-flag publication are noise against the
// per-row filter work; small enough that an 8-way scan of the paper's
// ~100k-version partitions still load-balances.
inline constexpr uint64_t kDefaultMorselSize = 1024;

// Process-wide default thread count for scans that do not request one
// (ScanRequest::scan_threads == 0). Resolution order: SetDefaultScanThreads
// override if set, else the BIH_SCAN_THREADS environment variable, else 1
// (serial). Clamped to [1, 64].
int DefaultScanThreads();

// Overrides the process default; `threads` < 1 clears the override back to
// the environment. Used by the driver's --scan-threads flag and the bench
// scaling sweeps.
void SetDefaultScanThreads(int threads);

// Qualifying slots of one morsel, ascending. `examined_at[j]` is the number
// of rows the morsel had examined when slot rids[j] qualified, so a consumer
// that stops at rids[j] can reconstruct the exact rows_examined count the
// serial scan would have reported at that point. Cache-line aligned:
// neighbouring morsels of a job are usually scanned at the same time by
// different threads, and a morsel's body updates its output per row.
struct alignas(64) MorselOutput {
  std::vector<uint64_t> rids;
  std::vector<uint64_t> examined_at;
  uint64_t rows_examined = 0;
};

// Scans slots [begin, end) of a partition, appending the row ids of
// qualifying slots to `out`. Must poll `stop` (and its QueryContext, if any)
// between rows and return early when either trips; partial output of an
// interrupted morsel is discarded by the coordinator, never emitted.
using MorselScanFn = std::function<void(
    uint64_t begin, uint64_t end, const std::atomic<bool>& stop,
    MorselOutput* out)>;

// Materializes qualifying slot `rid` for emission, exactly as the serial
// scan loop would have shaped it. Returns either a row the partition
// already stores (row stores) or `*scratch` after filling it (column and
// reconstructed layouts); the reference is valid until the next call with
// the same scratch. ParallelScanPartition calls it on the coordinator with
// one scratch row for the whole scan, or on the workers with one scratch
// row per morsel when the scan feeds a MorselSink; it must only read shared
// state.
using MorselRowFn = std::function<const Row&(uint64_t rid, Row* scratch)>;

// The consumer of a scan whose rows may be processed on the workers that
// scanned them: the plan executor's morsel pipelines (exec/plan.cc). Rows
// arrive in numbered slots. Each parallel partition reserves one slot per
// morsel, in morsel order, after every slot reserved before it, so slot
// order is scan order. The rows of one slot are consumed by one thread, in
// scan order; different slots may be consumed concurrently. Serial
// partitions do not use the sink: they emit through the scan's row
// callback on the coordinator, which the executor routes to a slot of its
// own. A scan that ends early (its context tripped) leaves later slots
// unfinished.
class MorselSink {
 public:
  virtual ~MorselSink() = default;

  // Reserves `n` consecutive slots and returns the first. Called on the
  // coordinator before a partition's morsels start, never while any run.
  virtual uint64_t Reserve(uint64_t n) = 0;

  // Consumes one qualifying row of `slot`. May write only that slot's
  // state; `row` is valid only during the call.
  virtual void Consume(uint64_t slot, const Row& row) = 0;

  // Every slot up to and including `slot` is complete: no row of them
  // will be consumed again. Called on the coordinator, in slot order, while
  // workers may be consuming later slots.
  virtual void Finish(uint64_t slot) = 0;
};

// Per-row interruption poll for morsel bodies: the job's stop flag (set on
// coordinator early-exit and teardown) or an external Cancel() on the
// query's context (the watchdog path). Both are relaxed atomic loads.
inline bool MorselInterrupted(const std::atomic<bool>& stop,
                              const QueryContext* ctx) {
  return stop.load(std::memory_order_relaxed) ||
         (ctx != nullptr && ctx->cancel_requested());
}

struct ParallelJob;

// A fixed pool of helper threads that scans borrow morsels-at-a-time.
// One job is posted at a time ("job board"); helpers that find the board
// empty, or the job's helper quota already claimed, go back to sleep. The
// coordinator always participates in its own scan, so a job needs no
// helpers to finish — the pool only adds speed, never liveness.
class ScanScheduler {
 public:
  // `helpers` background threads (>= 0); a scan with T threads uses the
  // coordinator plus up to T-1 helpers.
  explicit ScanScheduler(int helpers);
  ~ScanScheduler();

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Helpers currently parked on the job board's condition variable. After a
  // scan returns, this climbs back to num_workers(); the cancellation tests
  // poll it to prove an interrupted parallel scan leaves no worker running.
  int idle_workers() const { return idle_.load(std::memory_order_acquire); }

  // Lazily-created process-wide pool, sized for 8-way scans (or wider when
  // the process default asks for more at first use). Intentionally leaked:
  // helper threads live for the process, like the engines' commit clock.
  static ScanScheduler* Default();

  // Internal job-board protocol, used by ParallelScanPartition.
  void Launch(const std::shared_ptr<ParallelJob>& job);
  void Retire(const std::shared_ptr<ParallelJob>& job);

 private:
  void WorkerLoop();

  // The job board. Everything a helper reads to find work lives under mu_;
  // the per-job stop/claim/drain handoffs are the job's own atomics (see
  // ParallelJob in parallel.cc for why each one is safe without a lock).
  Mutex mu_;
  CondVar cv_;
  std::shared_ptr<ParallelJob> board_ GUARDED_BY(mu_);  // at most one job
  uint64_t job_seq_ GUARDED_BY(mu_) = 0;  // bumped per Launch; wakes sleepers
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::atomic<int> idle_{0};
  // Written by the constructor before any helper can observe it, joined by
  // the destructor after shutdown_ is set: never touched concurrently.
  std::vector<std::thread> workers_;  // bih-lint: allow(guard-coverage)
};

// A resolved decision on how one partition scan runs.
struct ParallelScanPlan {
  ScanScheduler* scheduler = nullptr;  // null => serial
  int threads = 1;
  uint64_t morsel_size = kDefaultMorselSize;

  // Parallelism must pay for its fan-out: engage only when the scan is
  // wider than one morsel (a single-morsel scan is the serial loop with
  // extra steps). threads <= 1 keeps PartitionScan's serial loop, which
  // runs the same slot test and row shaping as the morsels.
  bool Engage(uint64_t slot_count) const {
    return threads > 1 && scheduler != nullptr && slot_count > morsel_size;
  }
};

// Resolves a ScanRequest's parallelism fields: `requested_threads` == 0
// falls back to DefaultScanThreads(), a null `scheduler` falls back to the
// process-wide pool (created on demand only if the plan is parallel), and
// `morsel_size` == 0 becomes kDefaultMorselSize.
ParallelScanPlan ResolveScanPlan(int requested_threads,
                                 ScanScheduler* scheduler,
                                 uint64_t morsel_size);

// Same resolution over the consolidated knob struct.
inline ParallelScanPlan ResolveScanPlan(const ExecOptions& opts) {
  return ResolveScanPlan(opts.scan_threads, opts.scheduler, opts.morsel_size);
}

// Runs `body` over every morsel of a `slot_count`-slot partition using the
// plan's pool. Without a `sink`, emits the qualifying slots, materialized
// through `row_of`, through `emit` in exact serial order. Emission runs on
// the calling thread (the coordinator), so `emit` may run arbitrary
// operator code without synchronization. With a `sink`, the partition
// reserves one sink slot per morsel and each morsel's hits, materialized
// through `row_of` on the thread that scanned the morsel, go to the sink
// under that slot; the coordinator finishes the slots in morsel order, and
// `emit` is not called. Counters accumulate into
// *rows_examined / *rows_output with the same values the serial loop would
// produce, including when `emit` returns false (early stop) or `ctx` trips
// mid-scan; *stopped is set (never cleared) when the scan ended early for
// either reason. The coordinator checks `ctx` per claimed morsel and per
// emitted row; workers poll the job's stop flag and the context's cancel
// flag per row. On return, no worker is still touching this scan's state.
void ParallelScanPartition(const ParallelScanPlan& plan, uint64_t slot_count,
                           QueryContext* ctx, const MorselScanFn& body,
                           const MorselRowFn& row_of, MorselSink* sink,
                           uint64_t* rows_examined, uint64_t* rows_output,
                           bool* stopped,
                           const std::function<bool(const Row&)>& emit);

// How many morsels the plan cuts an `item_count`-item range into. Callers
// of ParallelMorselRun size their per-morsel result slots with this before
// launching, so each worker writes only its own slot.
inline uint64_t PlanMorselCount(const ParallelScanPlan& plan,
                                uint64_t item_count) {
  return (item_count + plan.morsel_size - 1) / plan.morsel_size;
}

// One morsel of a generic parallel operator (join run-emission, partial
// aggregation): `m` is the morsel index, [begin, end) the item range. The
// body typically writes a caller-owned slot indexed by `m`; no two
// invocations share a morsel index. Long-running bodies should poll `stop`
// via MorselInterrupted and bail early.
using MorselRunFn = std::function<void(uint64_t m, uint64_t begin,
                                       uint64_t end,
                                       const std::atomic<bool>& stop)>;

// Generic morsel fan-out for operators above the scan: runs `body` over
// every morsel of [0, item_count) on the plan's pool, the coordinator
// participating like in ParallelScanPartition. Returns true when every
// morsel completed; false when `ctx` tripped first (per-morsel CheckNow on
// the coordinator), in which case some slots may be unwritten and the
// caller must discard the output. Either way no worker is still touching
// the caller's slots on return (the scheduler drain in Retire provides the
// happens-before edge for the coordinator's subsequent merge). With a
// `finish`, the coordinator calls finish(m) for every completed morsel, in
// morsel order, as soon as it and every morsel before it completed, while
// the workers run later morsels: a caller merges its partials there, in
// serial order, and holds only the in-flight ones.
bool ParallelMorselRun(const ParallelScanPlan& plan, uint64_t item_count,
                       QueryContext* ctx, const MorselRunFn& body,
                       const std::function<void(uint64_t m)>& finish = {});

}  // namespace bih

#endif  // TPCBIH_EXEC_PARALLEL_H_
