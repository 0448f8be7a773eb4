#ifndef TPCBIH_ENGINE_SCAN_UTIL_H_
#define TPCBIH_ENGINE_SCAN_UTIL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "catalog/schema.h"
#include "common/value.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "storage/row_table.h"
#include "temporal/temporal.h"

namespace bih {

// Positions of the temporal columns inside a scan-schema row. `app_begin`/
// `app_end` are -1 for tables without application time (or when the request
// does not constrain it).
struct TemporalCols {
  int sys_from = -1;
  int sys_to = -1;
  int app_begin = -1;
  int app_end = -1;
};

// Derives the temporal column positions for `def` under the scan schema
// (user columns + sys_from + sys_to) and the requested app period.
TemporalCols ResolveTemporalCols(const TableDef& def, int app_period_index);

// Extracts the system-time period of a scan-schema row.
Period RowSystemPeriod(const Row& row, const TemporalCols& tc);

// Extracts the application-time period; requires app columns present.
Period RowAppPeriod(const Row& row, const TemporalCols& tc);

// Full temporal qualification of a row under the request's selectors.
// `now` is the engine's current system time in micros.
bool MatchesTemporal(const Row& row, const TemporalScanSpec& spec,
                     const TemporalCols& tc, int64_t now);

// Non-temporal residual predicates (equality list + range constraint).
bool MatchesConstraints(const Row& row, const ScanRequest& req);

class HashIndex;
class IndexSet;

// One engine Scan's walk over the partitions it touches. Every partition
// scan of every engine runs through ScanSlots (and, on the row stores,
// ScanRows), so the context poll, the counters, the temporal and constraint
// match, emit-or-stop and the choice between index, primary-key and morsel
// access exist once. An engine supplies only its physical traits: how a
// stored slot qualifies and how it becomes a scan-schema row.
//
// The constructor resets the request's counters (or a local set when the
// request brings none) and resolves the temporal column positions and the
// parallelism; `now` is the engine's current system time in micros.
class PartitionScan {
 public:
  PartitionScan(const TableDef& def, const ScanRequest& req, int64_t now,
                const RowCallback& cb);
  PartitionScan(const PartitionScan&) = delete;
  PartitionScan& operator=(const PartitionScan&) = delete;

  const TemporalCols& tc() const { return tc_; }
  int64_t now() const { return now_; }
  // True once the consumer or the query context ended the scan; the engine
  // then touches no further partition.
  bool stopped() const { return stopped_; }
  // True when the request reaches past the current versions of a
  // system-versioned table. Only the implicit-current case prunes history;
  // an explicit AS OF <now> is *not* recognized (Section 5.3.5).
  bool needs_history() const {
    return def_.system_versioned &&
           req_.temporal.system_time.kind !=
               TemporalSelector::Kind::kImplicitCurrent;
  }

  // Counts one touched partition; a history partition sets touched_history.
  void Touch(bool history) {
    ++stats_->partitions_touched;
    if (history) stats_->touched_history = true;
  }

  // The partition loop over slots [0, slot_count), serial or, when the plan
  // engages, morsel-parallel (ParallelScanPartition: hits are emitted on
  // this thread in slot order, or handed to the request's sink on the
  // worker that scanned them). `live(rid)` skips tombstones.
  // `qualifies(rid, scratch)` decides a live slot, and `row_of(rid, scratch)`
  // shapes a qualifying slot into the scan-schema row it emits: either a row
  // the partition stores or `*scratch` after filling it. `qualifies` returns
  // bool when the layout tests its stored cells (a hit is then shaped through
  // `row_of` when it is emitted), or `const Row*` when it has to shape the
  // row to test it (null rejects; the serial loop emits the returned row
  // without shaping it again). Both run concurrently on morsels of one
  // partition with a scratch row per morsel, so they must only read shared
  // state.
  template <class Live, class Qualifies, class RowOf>
  void ScanSlots(uint64_t slot_count, const Live& live,
                 const Qualifies& qualifies, const RowOf& row_of);

  // A row-store partition (Systems A, B and D): a slot qualifies when the
  // row `row_of` shapes it into matches the request. The access path is a
  // `tuning` index the chooser accepts first, then the system key index
  // `pk_current` when given and the request pins the full key, then the
  // slot loop.
  template <class RowOf>
  void ScanRows(const RowTable& part, const RowOf& row_of,
                const IndexSet& tuning, const HashIndex* pk_current = nullptr);

 private:
  // The temporal and constraint match of a scan-schema row.
  bool Matches(const Row& row) const {
    return MatchesTemporal(row, req_.temporal, tc_, now_) &&
           MatchesConstraints(row, req_);
  }

  // Serves the partition from `tuning` or `pk_current`, passing every
  // candidate row id to `visit`; false when neither applies.
  bool IndexAccess(size_t partition_rows, const IndexSet& tuning,
                   const HashIndex* pk_current,
                   const std::function<bool(RowId)>& visit);

  // The step of the serial loop and the index access paths: visit(rid)
  // examines one slot and emits it if it qualifies, and returns false once
  // the scan has stopped. What it reads per slot is copied into the
  // closure, so the loop keeps it in registers.
  template <class Live, class Qualifies, class RowOf>
  auto Visitor(const Live& live, const Qualifies& qualifies,
               const RowOf& row_of, Row* scratch);

  const TableDef& def_;
  const ScanRequest& req_;
  const TemporalCols tc_;
  const int64_t now_;
  const ParallelScanPlan plan_;
  ExecStats local_;
  ExecStats* const stats_;
  const RowCallback& cb_;
  bool stopped_ = false;
};

template <class Live, class Qualifies, class RowOf>
auto PartitionScan::Visitor(const Live& live, const Qualifies& qualifies,
                            const RowOf& row_of, Row* scratch) {
  return [this, &live, &qualifies, &row_of, scratch, ctx = req_.ctx,
          stats = stats_, &cb = cb_](uint64_t rid) {
    if (!live(rid)) return true;
    if (ctx != nullptr && !ctx->KeepGoing()) {
      stopped_ = true;
      return false;
    }
    ++stats->rows_examined;
    const auto hit = qualifies(rid, scratch);
    if (!hit) return true;
    ++stats->rows_output;
    bool more;
    if constexpr (std::is_pointer_v<decltype(hit)>) {
      more = cb(*hit);
    } else {
      more = cb(row_of(rid, scratch));
    }
    if (!more) stopped_ = true;
    return more;
  };
}

template <class Live, class Qualifies, class RowOf>
void PartitionScan::ScanSlots(uint64_t slot_count, const Live& live,
                              const Qualifies& qualifies, const RowOf& row_of) {
  if (plan_.Engage(slot_count)) {
    ParallelScanPartition(
        plan_, slot_count, req_.ctx,
        [&](uint64_t begin, uint64_t end, const std::atomic<bool>& stop,
            MorselOutput* out) {
          Row scratch;
          for (uint64_t rid = begin; rid < end; ++rid) {
            if (MorselInterrupted(stop, req_.ctx)) return;
            if (!live(rid)) continue;
            ++out->rows_examined;
            if (!qualifies(rid, &scratch)) continue;
            out->rids.push_back(rid);
            out->examined_at.push_back(out->rows_examined);
          }
        },
        row_of, req_.sink, &stats_->rows_examined, &stats_->rows_output,
        &stopped_, cb_);
    return;
  }
  Row scratch;
  auto visit = Visitor(live, qualifies, row_of, &scratch);
  for (uint64_t rid = 0; rid < slot_count; ++rid) {
    if (!visit(rid)) return;
  }
}

template <class RowOf>
void PartitionScan::ScanRows(const RowTable& part, const RowOf& row_of,
                             const IndexSet& tuning,
                             const HashIndex* pk_current) {
  auto live = [&part](uint64_t rid) { return part.IsLive(rid); };
  auto qualifies = [this, &row_of](uint64_t rid, Row* scratch) -> const Row* {
    const Row& row = row_of(rid, scratch);
    return Matches(row) ? &row : nullptr;
  };
  Row scratch;
  if (IndexAccess(part.LiveCount(), tuning, pk_current,
                  Visitor(live, qualifies, row_of, &scratch))) {
    return;
  }
  ScanSlots(part.SlotCount(), live, qualifies, row_of);
}

}  // namespace bih

#endif  // TPCBIH_ENGINE_SCAN_UTIL_H_
