#ifndef TPCBIH_ENGINE_SCAN_UTIL_H_
#define TPCBIH_ENGINE_SCAN_UTIL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "engine/engine.h"
#include "exec/aggregate.h"
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

// The request's equality and range constraints over the cells `cell(col)`
// reads.
template <class Cell>
bool MatchesConstraintCells(const Cell& cell, const ScanRequest& req) {
  for (const auto& [col, val] : req.equals) {
    if (cell(col).Compare(val) != 0) return false;
  }
  if (req.range_col >= 0) {
    const auto& v = cell(req.range_col);
    if (v.is_null()) return false;
    if (!req.range_lo.is_null() && v.Compare(req.range_lo) < 0) return false;
    if (!req.range_hi.is_null() && v.Compare(req.range_hi) > 0) return false;
  }
  return true;
}

// The same over a scan-schema row.
bool MatchesConstraints(const Row& row, const ScanRequest& req);

class HashIndex;
class IndexSet;

// A layout whose slot test shapes the row it tests (the row stores) folds
// that row, so it supplies no cell reader to PartitionScan::ScanSlots.
struct NoCells {};

// One engine Scan's walk over the partitions it touches. Every partition
// scan of every engine runs through ScanSlots (and, on the row stores,
// ScanRows), so the context poll, the counters, the temporal, constraint and
// residual match, emit-or-fold-or-stop and the choice between index,
// primary-key and morsel access exist once. An engine supplies only its
// physical traits: how a stored slot qualifies, how it becomes a
// scan-schema row, and (a layout that tests its stored cells) how a cell is
// read in place.
//
// A scan whose request carries folded aggregates (ScanRequest::aggs) emits
// nothing: each qualifying slot's cells fold into the request's AggStates.
// Serially they fold in scan order; morsels fold into partials (counts,
// MIN/MAX, SUM/AVG addends in row order) that merge in morsel order, so the
// states are byte-identical at any thread count and morsel size. A layout
// that tests its stored cells folds a chunk of slots at a time: the
// qualifying slots first, then one aggregate after another over their
// cells, each still in slot order.
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

  // The request's residual conjuncts, for a layout that tests its stored
  // cells: after its temporal and constraint match, it fills the cells of
  // residual_cols() into a scan-schema row and asks Residual(row). True
  // without a residual.
  const std::vector<int>& residual_cols() const { return residual_cols_; }
  bool Residual(const Row& row) const {
    return req_.residual == nullptr || req_.residual->Test(row);
  }

  // Counts one touched partition; a history partition sets touched_history.
  void Touch(bool history) {
    ++stats_->partitions_touched;
    if (history) stats_->touched_history = true;
  }

  // The partition loop over slots [0, slot_count), serial or, when the plan
  // engages, morsel-parallel (ParallelScanPartition: hits are emitted on
  // this thread in slot order, or handed to the request's sink on the
  // worker that scanned them; a folding scan folds per morsel instead).
  // `live(rid)` skips tombstones. `qualifies(rid, scratch)` decides a live
  // slot, and `row_of(rid, scratch)` shapes a qualifying slot into the
  // scan-schema row it emits: either a row the partition stores or
  // `*scratch` after filling it. `qualifies` returns bool when the layout
  // tests its stored cells (a hit is then shaped through `row_of` when it is
  // emitted, and folded through `cells`), or `const Row*` when it has to
  // shape the row to test it (null rejects; the serial loop emits or folds
  // the returned row without shaping it again). `cells(rid, col, f)` calls
  // f with slot rid's cell of column col read in place (an int64_t, double
  // or Value) unless it is NULL. All of them run concurrently on morsels of
  // one partition with a scratch row per morsel, so they must only read
  // shared state.
  template <class Live, class Qualifies, class RowOf, class Cells = NoCells>
  void ScanSlots(uint64_t slot_count, const Live& live,
                 const Qualifies& qualifies, const RowOf& row_of,
                 const Cells& cells = {});

  // A row-store partition (Systems A, B and D): a slot qualifies when the
  // row `row_of` shapes it into matches the request. The access path is a
  // `tuning` index the chooser accepts first, then the system key index
  // `pk_current` when given and the request pins the full key, then the
  // slot loop.
  template <class RowOf>
  void ScanRows(const RowTable& part, const RowOf& row_of,
                const IndexSet& tuning, const HashIndex* pk_current = nullptr);

 private:
  // The temporal, constraint and residual match of a scan-schema row.
  bool Matches(const Row& row) const {
    return MatchesTemporal(row, req_.temporal, tc_, now_) &&
           MatchesConstraints(row, req_) && Residual(row);
  }

  // Serves the partition from `tuning` or `pk_current`, passing every
  // candidate row id to `visit`; false when neither applies.
  bool IndexAccess(size_t partition_rows, const IndexSet& tuning,
                   const HashIndex* pk_current,
                   const std::function<bool(RowId)>& visit);

  // Folds the qualifying slots of [begin, end) into `st`; SUM/AVG addends
  // go to add(i, v). A layout that shapes a row to test a slot folds that
  // row. A layout that tests its stored cells gathers a chunk's qualifying
  // slots first, and then every aggregate folds their cells in place
  // (`cells`), in slot order. `keep_going()` is polled per live slot; false
  // ends the range early (the call then returns false). Adds to *examined
  // and *output.
  template <class Live, class Qualifies, class Cells, class Poll, class Add>
  bool FoldRange(uint64_t begin, uint64_t end, const Live& live,
                 const Qualifies& qualifies, const Cells& cells,
                 const Poll& keep_going, AggState* st, const Add& add,
                 uint64_t* examined, uint64_t* output) const;

  // One morsel's fold, merged into the scan's states in morsel order: its
  // states, and per SUM/AVG aggregate its addends in row order.
  struct FoldPartial {
    std::vector<AggState> states;
    std::vector<std::vector<double>> addends;
    uint64_t rows_examined = 0;
    uint64_t rows_output = 0;
  };
  void MergeFold(FoldPartial* part);

  // The morsel-parallel leg of a folding ScanSlots.
  template <class Live, class Qualifies, class Cells>
  void FoldMorsels(uint64_t slot_count, const Live& live,
                   const Qualifies& qualifies, const Cells& cells);

  // The step of the serial loop and the index access paths: visit(rid)
  // examines one slot and emits it if it qualifies (or, on an index path of
  // a folding scan, folds its row), and returns false once the scan has
  // stopped. What it reads per slot is copied into the closure, so the loop
  // keeps it in registers.
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
  std::vector<int> residual_cols_;
  // A folding scan: each aggregate's argument column (-1 for COUNT(*)) and
  // the states it folds into (the request's, or local ones).
  std::vector<int> agg_cols_;
  std::vector<AggState> local_fold_;
  AggState* fold_ = nullptr;
  bool stopped_ = false;
};

template <class Live, class Qualifies, class RowOf>
auto PartitionScan::Visitor(const Live& live, const Qualifies& qualifies,
                            const RowOf& row_of, Row* scratch) {
  return [this, &live, &qualifies, &row_of, scratch, ctx = req_.ctx,
          stats = stats_, fold = fold_, &cb = cb_](uint64_t rid) {
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
      if (fold != nullptr) {  // an index path of a folding row-store scan
        FoldRow(*hit, req_.aggs, fold,
                [fold](size_t i, double v) { fold[i].AddNumber(v); });
        return true;
      }
      more = cb(*hit);
    } else {
      more = cb(row_of(rid, scratch));
    }
    if (!more) stopped_ = true;
    return more;
  };
}

template <class Live, class Qualifies, class Cells, class Poll, class Add>
bool PartitionScan::FoldRange(uint64_t begin, uint64_t end, const Live& live,
                              const Qualifies& qualifies, const Cells& cells,
                              const Poll& keep_going, AggState* st,
                              const Add& add, uint64_t* examined,
                              uint64_t* output) const {
  constexpr bool kShapesRows =
      std::is_pointer_v<std::invoke_result_t<Qualifies, uint64_t, Row*>>;
  static_assert(kShapesRows || !std::is_same_v<Cells, NoCells>,
                "a layout that tests its stored cells folds them through a "
                "cell reader");
  // Slots per gathered chunk: the selection stays in L1, and each
  // aggregate's pass over it runs one column.
  constexpr uint64_t kChunk = 1024;
  std::vector<uint64_t> sel;
  if constexpr (!kShapesRows) sel.resize(std::min(end - begin, kChunk));
  Row scratch;
  uint64_t seen = 0;
  bool more = true;
  for (uint64_t at = begin; at < end && more; at += kChunk) {
    const uint64_t stop = std::min(end, at + kChunk);
    size_t hits = 0;
    for (uint64_t rid = at; rid < stop; ++rid) {
      if (!live(rid)) continue;
      if (!keep_going()) {
        more = false;
        break;
      }
      ++seen;
      const auto hit = qualifies(rid, &scratch);
      if constexpr (kShapesRows) {
        if (!hit) continue;
        ++*output;
        FoldRow(*hit, req_.aggs, st, add);
      } else {
        // Written always and kept on a hit: no branch on the data.
        sel[hits] = rid;
        hits += static_cast<size_t>(hit);
      }
    }
    if constexpr (!kShapesRows) {
      *output += hits;
      FoldBatch(
          req_.aggs, hits,
          [&](size_t i, size_t j, const auto& f) {
            cells(sel[j], agg_cols_[i], f);
          },
          st, add);
    }
  }
  *examined += seen;
  return more;
}

template <class Live, class Qualifies, class Cells>
void PartitionScan::FoldMorsels(uint64_t slot_count, const Live& live,
                                const Qualifies& qualifies,
                                const Cells& cells) {
  std::vector<FoldPartial> parts(PlanMorselCount(plan_, slot_count));
  const bool done = ParallelMorselRun(
      plan_, slot_count, req_.ctx,
      [&](uint64_t m, uint64_t begin, uint64_t end,
          const std::atomic<bool>& stop) {
        FoldPartial& part = parts[m];
        part.states.resize(req_.aggs.size());
        part.addends.resize(req_.aggs.size());
        for (size_t i = 0; i < req_.aggs.size(); ++i) {
          const AggKind kind = req_.aggs[i].kind;
          if (kind == AggKind::kSum || kind == AggKind::kAvg) {
            part.addends[i].reserve(end - begin);
          }
        }
        auto add = [&part](size_t i, double v) {
          part.addends[i].push_back(v);
        };
        auto keep_going = [&stop, ctx = req_.ctx] {
          return !MorselInterrupted(stop, ctx);
        };
        FoldRange(begin, end, live, qualifies, cells, keep_going,
                  part.states.data(), add, &part.rows_examined,
                  &part.rows_output);
      },
      [&](uint64_t m) { MergeFold(&parts[m]); });
  if (!done) stopped_ = true;
}

template <class Live, class Qualifies, class RowOf, class Cells>
void PartitionScan::ScanSlots(uint64_t slot_count, const Live& live,
                              const Qualifies& qualifies, const RowOf& row_of,
                              const Cells& cells) {
  if (plan_.Engage(slot_count)) {
    if (fold_ != nullptr) {
      FoldMorsels(slot_count, live, qualifies, cells);
      return;
    }
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
  if (fold_ != nullptr) {
    AggState* fold = fold_;
    auto keep_going = [ctx = req_.ctx] {
      return ctx == nullptr || ctx->KeepGoing();
    };
    if (!FoldRange(
            0, slot_count, live, qualifies, cells, keep_going, fold,
            [fold](size_t i, double v) { fold[i].AddNumber(v); },
            &stats_->rows_examined, &stats_->rows_output)) {
      stopped_ = true;
    }
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
