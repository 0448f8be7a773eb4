#include "exec/plan.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/json.h"
#include "exec/parallel.h"

namespace bih {

const char* PlanNode::KindName() const {
  switch (kind) {
    case Kind::kScan:
      return "Scan";
    case Kind::kValues:
      return "Values";
    case Kind::kFilter:
      return "Filter";
    case Kind::kProject:
      return "Project";
    case Kind::kHashJoin:
      return "HashJoin";
    case Kind::kMergeJoin:
      return "MergeJoin";
    case Kind::kIndexJoin:
      return "IndexJoin";
    case Kind::kCrossJoin:
      return "CrossJoin";
    case Kind::kAggregate:
      return "Aggregate";
    case Kind::kSort:
      return "Sort";
    case Kind::kLimit:
      return "Limit";
    case Kind::kDistinct:
      return "Distinct";
  }
  return "?";
}

// ---- Builders -----------------------------------------------------------

namespace {

PlanPtr MakeNode(PlanNode::Kind kind) {
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  return n;
}

}  // namespace

PlanPtr ScanPlan(ScanRequest req) {
  PlanPtr n = MakeNode(PlanNode::Kind::kScan);
  n->scan = std::move(req);
  return n;
}

PlanPtr ValuesPlan(Rows rows) {
  PlanPtr n = MakeNode(PlanNode::Kind::kValues);
  n->values = std::move(rows);
  return n;
}

PlanPtr FilterPlan(PlanPtr input, ExprPtr predicate) {
  PlanPtr n = MakeNode(PlanNode::Kind::kFilter);
  n->children.push_back(std::move(input));
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr ProjectPlan(PlanPtr input, std::vector<ExprPtr> exprs) {
  PlanPtr n = MakeNode(PlanNode::Kind::kProject);
  n->children.push_back(std::move(input));
  n->exprs = std::move(exprs);
  return n;
}

PlanPtr HashJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                     std::vector<int> right_keys, size_t right_width,
                     JoinType type, ExprPtr residual) {
  BIH_CHECK(left_keys.size() == right_keys.size());
  PlanPtr n = MakeNode(PlanNode::Kind::kHashJoin);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->right_width = right_width;
  n->join_type = type;
  n->predicate = std::move(residual);
  return n;
}

PlanPtr MergeJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                      std::vector<int> right_keys, ExprPtr residual) {
  BIH_CHECK(left_keys.size() == right_keys.size());
  PlanPtr n = MakeNode(PlanNode::Kind::kMergeJoin);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->predicate = std::move(residual);
  return n;
}

PlanPtr IndexJoinPlan(PlanPtr left, std::vector<int> left_keys,
                      std::string table, std::vector<int> table_keys,
                      TemporalScanSpec spec, ExprPtr residual) {
  BIH_CHECK(left_keys.size() == table_keys.size());
  PlanPtr n = MakeNode(PlanNode::Kind::kIndexJoin);
  n->children.push_back(std::move(left));
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(table_keys);
  n->index_table = std::move(table);
  n->index_spec = spec;
  n->predicate = std::move(residual);
  return n;
}

PlanPtr CrossJoinPlan(PlanPtr left, PlanPtr right, ExprPtr residual) {
  PlanPtr n = MakeNode(PlanNode::Kind::kCrossJoin);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->predicate = std::move(residual);
  return n;
}

PlanPtr AggregatePlan(PlanPtr input, std::vector<int> group_cols,
                      std::vector<AggSpec> aggs) {
  PlanPtr n = MakeNode(PlanNode::Kind::kAggregate);
  n->children.push_back(std::move(input));
  n->group_cols = std::move(group_cols);
  n->aggs = std::move(aggs);
  return n;
}

PlanPtr SortPlan(PlanPtr input, std::vector<SortSpec> keys) {
  PlanPtr n = MakeNode(PlanNode::Kind::kSort);
  n->children.push_back(std::move(input));
  n->sort_keys = std::move(keys);
  return n;
}

PlanPtr LimitPlan(PlanPtr input, size_t limit) {
  PlanPtr n = MakeNode(PlanNode::Kind::kLimit);
  n->children.push_back(std::move(input));
  n->limit = limit;
  return n;
}

PlanPtr DistinctPlan(PlanPtr input) {
  PlanPtr n = MakeNode(PlanNode::Kind::kDistinct);
  n->children.push_back(std::move(input));
  return n;
}

// ---- Operator kernels (internal to this translation unit) ---------------

namespace {

struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x345678;
    for (const Value& v : key) h = h * 1000003ULL ^ v.Hash();
    return h;
  }
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

// The cell accessor of the key in `row`'s `cols`, for the key tables below.
auto RowCells(const Row& row, const std::vector<int>& cols) {
  return [&row, &cols](size_t i) -> const Value& {
    return row[static_cast<size_t>(cols[i])];
  };
}

// HashRowKey of the `width` cells at `key`.
size_t HashCells(const Value* key, size_t width) {
  size_t h = 0x345678;
  for (size_t i = 0; i < width; ++i) h = h * 1000003ULL ^ key[i].Hash();
  return h;
}

// A hash join's build input (the child index) and the key columns of its
// build and probe rows: the right input unless PlanNode::build_left.
size_t BuildChild(const PlanNode& join) { return join.build_left ? 0 : 1; }
const std::vector<int>& BuildKeys(const PlanNode& join) {
  return join.build_left ? join.left_keys : join.right_keys;
}
const std::vector<int>& ProbeKeys(const PlanNode& join) {
  return join.build_left ? join.right_keys : join.left_keys;
}

// The left-input columns a joined row of `join` carries when the left rows
// are `left_width` wide, ascending.
std::vector<int> LeftCols(const PlanNode& join, size_t left_width) {
  std::vector<int> cols;
  if (!join.emit.has_value()) {
    cols.resize(left_width);
    std::iota(cols.begin(), cols.end(), 0);
    return cols;
  }
  for (int c : *join.emit) {
    if (static_cast<size_t>(c) < std::min(left_width, join.left_width)) {
      cols.push_back(c);
    }
  }
  return cols;
}

// The right-input columns a joined row of `join` carries when the right
// rows are `right_width` wide, ascending.
std::vector<int> RightCols(const PlanNode& join, size_t right_width) {
  std::vector<int> cols;
  if (!join.emit.has_value()) {
    cols.resize(right_width);
    std::iota(cols.begin(), cols.end(), 0);
    return cols;
  }
  const int lw = static_cast<int>(join.left_width);
  for (int c : *join.emit) {
    if (c >= lw && static_cast<size_t>(c - lw) < right_width) {
      cols.push_back(c - lw);
    }
  }
  return cols;
}

// The build-input columns a hash join's joined rows carry when the build
// rows are `width` wide: the layout of its build payload.
std::vector<int> BuildCols(const PlanNode& join, size_t width) {
  return join.build_left ? LeftCols(join, width) : RightCols(join, width);
}

// Assembles a join's output rows in one scratch row, writing only the
// cells the tree above reads (PlanNode::emit; every cell when unset). A
// cell outside the demand is never written, so it keeps the NULL it got
// when the row was sized — the contract System C's scans follow for pruned
// columns.
class JoinAssembler {
 public:
  explicit JoinAssembler(const PlanNode& join) : join_(join) {}

  // Starts the joined rows of left row `l` with `right_width`-wide right
  // rows: writes l's cells.
  void Left(const Row& l, size_t right_width) {
    Size(l.size(), right_width);
    for (int c : left_cols_) {
      row_[static_cast<size_t>(c)] = l[static_cast<size_t>(c)];
    }
  }
  // Writes the right cells from a whole right row.
  void Right(const Row& r) {
    for (int c : right_cols_) {
      row_[lw_ + static_cast<size_t>(c)] = r[static_cast<size_t>(c)];
    }
  }
  // Starts the joined rows of hash-join probe row `p` with `build_width`-
  // wide build rows: writes p's cells on its side of the layout.
  void Probe(const Row& p, size_t build_width) {
    if (!join_.build_left) {
      Left(p, build_width);
      return;
    }
    Size(build_width, p.size());
    Right(p);
  }
  // Writes one match's build cells: `cells` holds them in BuildCols order.
  void Build(const Value* cells) {
    const std::vector<int>& cols =
        join_.build_left ? left_cols_ : right_cols_;
    const size_t base = join_.build_left ? 0 : lw_;
    for (size_t j = 0; j < cols.size(); ++j) {
      row_[base + static_cast<size_t>(cols[j])] = cells[j];
    }
  }
  // NULLs in place of the right cells (the unmatched side of a left outer
  // join).
  void Pad() {
    for (int c : right_cols_) {
      row_[lw_ + static_cast<size_t>(c)] = Value::Null();
    }
  }

  const Row& row() const { return row_; }

 private:
  // Lays the row out for `lw`-wide left and `rw`-wide right rows.
  void Size(size_t lw, size_t rw) {
    if (bound_ && lw == lw_ && rw == rw_) return;
    bound_ = true;
    lw_ = lw;
    rw_ = rw;
    left_cols_ = LeftCols(join_, lw);
    right_cols_ = RightCols(join_, rw);
    row_.assign(lw + rw, Value::Null());
  }

  const PlanNode& join_;
  bool bound_ = false;
  size_t lw_ = 0;
  size_t rw_ = 0;
  std::vector<int> left_cols_;
  std::vector<int> right_cols_;
  Row row_;
};

int CompareKeyCols(const Row& a, const std::vector<int>& acols, const Row& b,
                   const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    int c = a[static_cast<size_t>(acols[i])].Compare(
        b[static_cast<size_t>(bcols[i])]);
    if (c != 0) return c;
  }
  return 0;
}

// Sorts `order` (a permutation of input positions) by (key columns, input
// position). The tie-break makes the comparator a total order, so every
// comparison sort yields the same unique sequence — the property that lets
// the parallel chunk-sort + merge below reproduce the serial result bit for
// bit.
void SortOrderByKeys(std::vector<uint64_t>* order, const Rows& rows,
                     const std::vector<int>& keys,
                     const ParallelScanPlan& plan, QueryContext* ctx,
                     bool* interrupted) {
  auto less = [&rows, &keys](uint64_t a, uint64_t b) {
    int c = CompareKeyCols(rows[a], keys, rows[b], keys);
    return c != 0 ? c < 0 : a < b;
  };
  const uint64_t n = order->size();
  if (!plan.Engage(n)) {
    std::sort(order->begin(), order->end(), less);
    return;
  }
  // Parallel leg: each worker sorts one contiguous chunk, then the
  // coordinator merges pairwise. The total order guarantees the merged
  // sequence equals the serial sort's.
  ParallelScanPlan chunked = plan;
  chunked.morsel_size =
      (n + static_cast<uint64_t>(plan.threads) - 1) /
      static_cast<uint64_t>(plan.threads);
  if (chunked.morsel_size == 0) chunked.morsel_size = 1;
  if (!ParallelMorselRun(chunked, n, ctx,
                         [&](uint64_t, uint64_t begin, uint64_t end,
                             const std::atomic<bool>&) {
                           std::sort(order->begin() + begin,
                                     order->begin() + end, less);
                         })) {
    *interrupted = true;
    return;
  }
  for (uint64_t width = chunked.morsel_size; width < n; width *= 2) {
    // The merges of one level cover disjoint ranges, so they too fan out
    // on the pool; the level barrier (each level doubles the width) is the
    // return of ParallelMorselRun.
    std::vector<uint64_t> heads;
    for (uint64_t i = 0; i + width < n; i += 2 * width) heads.push_back(i);
    if (heads.empty()) continue;
    auto merge_pair = [&](uint64_t i) {
      std::inplace_merge(order->begin() + i, order->begin() + i + width,
                         order->begin() + std::min(i + 2 * width, n), less);
    };
    if (heads.size() == 1) {
      merge_pair(heads[0]);
      continue;
    }
    ParallelScanPlan level = plan;
    level.morsel_size = 1;  // one merge per morsel
    if (!ParallelMorselRun(level, heads.size(), ctx,
                           [&](uint64_t, uint64_t begin, uint64_t end,
                               const std::atomic<bool>&) {
                             for (uint64_t p = begin; p < end; ++p) {
                               merge_pair(heads[p]);
                             }
                           })) {
      *interrupted = true;
      return;
    }
  }
}

// Emits the equal-key runs whose first left position lies in [begin, end).
// Runs are discovered by comparing each position's key with its
// predecessor, so a run straddling a morsel boundary is owned entirely by
// the morsel holding its head — emission in morsel order is exactly the
// serial left-to-right run order.
void MergeJoinEmitRuns(const Rows& left, const Rows& right,
                       const std::vector<uint64_t>& lorder,
                       const std::vector<uint64_t>& rorder,
                       const PlanNode& n, QueryContext* ctx, uint64_t begin,
                       uint64_t end, const std::atomic<bool>& stop,
                       Rows* out) {
  const std::vector<int>& left_keys = n.left_keys;
  const std::vector<int>& right_keys = n.right_keys;
  auto same_left_key = [&](uint64_t a, uint64_t b) {
    return CompareKeyCols(left[lorder[a]], left_keys, left[lorder[b]],
                          left_keys) == 0;
  };
  JoinAssembler join(n);
  for (uint64_t p = begin; p < end; ++p) {
    if (p > 0 && same_left_key(p, p - 1)) continue;  // not a run head
    if (MorselInterrupted(stop, ctx)) return;
    const Row& head = left[lorder[p]];
    bool null_key = false;
    for (int k : left_keys) {
      null_key |= head[static_cast<size_t>(k)].is_null();
    }
    uint64_t lend = p + 1;
    while (lend < lorder.size() && same_left_key(lend, p)) ++lend;
    if (null_key) continue;  // NULL keys never join
    // Locate the matching right-side run by binary search.
    auto rlow = std::lower_bound(
        rorder.begin(), rorder.end(), head, [&](uint64_t r, const Row& h) {
          return CompareKeyCols(right[r], right_keys, h, left_keys) < 0;
        });
    auto rhigh = std::upper_bound(
        rlow, rorder.end(), head, [&](const Row& h, uint64_t r) {
          return CompareKeyCols(h, left_keys, right[r], right_keys) < 0;
        });
    if (rlow == rhigh) continue;
    const size_t right_width = right[*rlow].size();
    for (uint64_t i = p; i < lend; ++i) {
      if (MorselInterrupted(stop, ctx)) return;
      join.Left(left[lorder[i]], right_width);
      for (auto rit = rlow; rit != rhigh; ++rit) {
        join.Right(right[*rit]);
        if (n.predicate != nullptr && !n.predicate->Test(join.row())) {
          continue;
        }
        out->push_back(join.row());
      }
    }
  }
}

// Sort-merge join, byte-identical between the serial path and the morsel
// pool: both paths sort by the same total order and emit runs in ascending
// head position; the parallel leg just assigns run heads to morsels and
// concatenates the per-morsel buffers in order.
Rows MergeJoinKernel(const Rows& left, const Rows& right, const PlanNode& n,
                     QueryContext* ctx, const ParallelScanPlan& plan,
                     bool* interrupted) {
  std::vector<uint64_t> lorder(left.size());
  std::vector<uint64_t> rorder(right.size());
  std::iota(lorder.begin(), lorder.end(), 0);
  std::iota(rorder.begin(), rorder.end(), 0);
  SortOrderByKeys(&lorder, left, n.left_keys, plan, ctx, interrupted);
  if (*interrupted) return {};
  SortOrderByKeys(&rorder, right, n.right_keys, plan, ctx, interrupted);
  if (*interrupted) return {};

  const uint64_t count = lorder.size();
  std::atomic<bool> no_stop{false};
  if (!plan.Engage(count)) {
    Rows out;
    MergeJoinEmitRuns(left, right, lorder, rorder, n, ctx, 0, count, no_stop,
                      &out);
    if (ctx != nullptr && !ctx->status().ok()) *interrupted = true;
    return out;
  }
  std::vector<Rows> buffers(PlanMorselCount(plan, count));
  if (!ParallelMorselRun(plan, count, ctx,
                         [&](uint64_t m, uint64_t begin, uint64_t end,
                             const std::atomic<bool>& stop) {
                           MergeJoinEmitRuns(left, right, lorder, rorder, n,
                                             ctx, begin, end, stop,
                                             &buffers[m]);
                         })) {
    *interrupted = true;
    return {};
  }
  Rows out;
  size_t total = 0;
  for (const Rows& b : buffers) total += b.size();
  out.reserve(total);
  for (Rows& b : buffers) {
    for (Row& r : b) out.push_back(std::move(r));
  }
  return out;
}

// Dense ids for distinct keys of `width` cells, numbered in first-insert
// order. Keys are matched by cached hash (HashRowKey's), then
// Value::Compare equality, over open addressing, and their cells live in
// one flat array — no allocation per key. `cell(i)` reads cell i of the key
// a call asks about.
class KeyIds {
 public:
  static constexpr size_t kEnd = static_cast<size_t>(-1);

  explicit KeyIds(size_t width) : width_(width) {}

  size_t size() const { return size_; }
  size_t width() const { return width_; }
  const Value* key(size_t id) const {
    return key_cells_.data() + id * width_;
  }

  // Forgets every key, keeping the arrays' capacity.
  void Clear() {
    size_ = 0;
    key_cells_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }

  // The id of the key hashing to `hash`, or kEnd.
  template <class Cell>
  size_t Find(size_t hash, const Cell& cell) const {
    return slots_.empty() ? kEnd : slots_[Probe(hash, cell)].id;
  }

  // The id of the key hashing to `hash`, numbering it next when new.
  template <class Cell>
  size_t Intern(size_t hash, const Cell& cell) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(hash, cell)];
    if (slot.id == kEnd) {
      slot = Slot{hash, size_++};
      for (size_t i = 0; i < width_; ++i) key_cells_.push_back(cell(i));
    }
    return slot.id;
  }

 private:
  struct Slot {
    size_t hash = 0;
    size_t id = kEnd;  // kEnd for an empty slot
  };

  size_t Home(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  // The slot holding the key, or the empty slot where it would go.
  template <class Cell>
  size_t Probe(size_t hash, const Cell& cell) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = Home(hash);; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.id == kEnd) return s;
      if (slot.hash != hash) continue;
      const Value* key = this->key(slot.id);
      bool same = true;
      for (size_t i = 0; i < width_ && same; ++i) {
        same = cell(i).Compare(key[i]) == 0;
      }
      if (same) return s;
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kEnd) continue;
      size_t s = Home(slot.hash);
      while (slots_[s].id != kEnd) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<Slot> slots_;  // a power of two, at most half full
  int shift_ = 64;
  std::vector<Value> key_cells_;  // width_ cells per key
};

// Groups in first-seen order, each with one AggState per aggregate: the
// keys in one flat array (KeyIds) and the states in one vector, so a new
// group allocates nothing of its own. NULL is an ordinary key value.
class GroupTable {
 public:
  GroupTable(size_t width, size_t num_aggs) : ids_(width), num_aggs_(num_aggs) {}

  // The group whose key is `row`'s `cols`, added when new.
  size_t Find(const Row& row, const std::vector<int>& cols) {
    return Add(ids_.Intern(HashRowKey(row, cols), RowCells(row, cols)));
  }
  // The group whose key is the width() cells at `key`, added when new.
  size_t Find(const Value* key) {
    return Add(ids_.Intern(HashCells(key, ids_.width()),
                           [key](size_t i) -> const Value& { return key[i]; }));
  }
  // Find for the next row of a fold whose previous row went to group
  // `*last` (KeyIds::kEnd before the first row). Consecutive rows often
  // share a group (every row of an ungrouped aggregate, the joined rows of
  // one probe row), so the last group serves while its key repeats, without
  // a table lookup.
  size_t FindAfter(size_t* last, const Row& row, const std::vector<int>& cols) {
    if (*last == KeyIds::kEnd || !Holds(*last, row, cols)) {
      *last = Find(row, cols);
    }
    return *last;
  }

  // Forgets every group, keeping the arrays' capacity.
  void Clear() {
    ids_.Clear();
    states_.clear();
  }

  size_t size() const { return ids_.size(); }
  const Value* key(size_t g) const { return ids_.key(g); }
  size_t width() const { return ids_.width(); }
  // Group g's states, one per aggregate; valid until the next Find.
  AggState* states(size_t g) { return states_.data() + g * num_aggs_; }
  const AggState* states(size_t g) const {
    return states_.data() + g * num_aggs_;
  }

 private:
  size_t Add(size_t g) {
    states_.resize(ids_.size() * num_aggs_);
    return g;
  }

  // True when `row`'s `cols` hold group g's key.
  bool Holds(size_t g, const Row& row, const std::vector<int>& cols) const {
    const Value* key = ids_.key(g);
    for (size_t i = 0; i < cols.size(); ++i) {
      if (row[static_cast<size_t>(cols[i])].Compare(key[i]) != 0) return false;
    }
    return true;
  }

  KeyIds ids_;
  size_t num_aggs_;
  std::vector<AggState> states_;
};

// Folds one morsel's partial — its groups and its addend log, in row
// order — into the final groups. Merging the partials in morsel order makes
// the group discovery order the serial first-seen order, and replaying each
// log in order adds every group's addends in the serial row order
// (exec/aggregate.h): the result is byte-identical, not merely numerically
// close.
void MergePartial(const GroupTable& part, const std::vector<Addend>& addends,
                  const std::vector<AggSpec>& aggs, GroupTable* groups) {
  std::vector<size_t> to(part.size());
  for (size_t g = 0; g < part.size(); ++g) {
    to[g] = groups->Find(part.key(g));
    MergeStates(aggs, part.states(g), groups->states(to[g]));
  }
  for (const Addend& a : addends) {
    groups->states(to[a.group])[a.agg].AddNumber(a.value);
  }
}

// Output row of group `g`: its key columns, then one value per aggregate.
void FinishGroup(const GroupTable& groups, size_t g,
                 const std::vector<AggSpec>& aggs, Row* r) {
  r->assign(groups.key(g), groups.key(g) + groups.width());
  const AggState* st = groups.states(g);
  for (size_t i = 0; i < aggs.size(); ++i) {
    r->push_back(FinishState(aggs[i].kind, st[i]));
  }
}

Rows SortKernel(Rows in, const std::vector<SortSpec>& keys,
                QueryContext* ctx) {
  // Decorate-sort-strip: evaluate every key against the undecorated row,
  // append, stable-sort on the appended columns, strip. This is exactly the
  // ORDER BY lowering the SQL executor used, so expression sorts stay
  // byte-compatible.
  const size_t nk = keys.size();
  for (Row& r : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) break;
    Row vals;
    vals.reserve(nk);
    for (const SortSpec& k : keys) vals.push_back(k.key->Eval(r));
    for (Value& v : vals) r.push_back(std::move(v));
  }
  if (ctx != nullptr && !ctx->status().ok()) return in;
  std::stable_sort(in.begin(), in.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < nk; ++i) {
      int c = a[a.size() - nk + i].Compare(b[b.size() - nk + i]);
      if (c != 0) return keys[i].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  for (Row& r : in) r.resize(r.size() - nk);
  return in;
}

// ---- Pipelines ----------------------------------------------------------
//
// Stream() runs a node and hands each output row to the parent's consumer
// (a RowCallback) as soon as it exists; Collect() runs a node to completion
// into Rows. Pipeline breakers compute into Rows and stream from there; all
// other nodes stream. A consumer's `const Row&` is only valid during the
// call (producers overwrite one scratch row), so whoever keeps rows copies
// them. A consumer that returns false stops its producer, and the stop
// travels down to the engine scan, whose counters then equal a serial scan
// stopped at that row.
//
// With one thread a breaker's input streams on the coordinator and an
// Aggregate folds it row by row, in serial order. With more, the Filter,
// Project and hash-join probe stages between a parallel scan and the
// Aggregate fold or hash-join build it feeds form a morsel pipeline
// (MorselPipeline below) that runs on the workers; an Aggregate over a
// breaker's materialized rows runs the same pipeline over the morsels of
// those rows. Either way the per-morsel partials merge in morsel order,
// which is the serial row order.

// The key table of a hash join's build side. Build rows are numbered in
// the order they arrive; each distinct non-NULL key (a KeyIds id) names the
// chain of its rows (first and last; Next() links the rest in build order),
// and each row carries a pointer to its payload cells beside its link, so a
// probe's walk down a chain reads one array. No allocation per key or per
// row.
class JoinKeyTable {
 public:
  static constexpr size_t kEnd = KeyIds::kEnd;

  explicit JoinKeyTable(size_t width) : ids_(width) {}

  // Numbers the next build row, whose payload is at `cells`, and chains it
  // under the key in `row`'s `cols`. Returns false, keeping nothing, when a
  // key cell is NULL (NULL never matches).
  bool Insert(const Row& row, const std::vector<int>& cols,
              const Value* cells) {
    if (HasNull(row, cols)) return false;
    Chain(ids_.Intern(HashRowKey(row, cols), RowCells(row, cols)), cells);
    return true;
  }

  // Insert for a key a morsel already gathered: its non-NULL cells and
  // their HashRowKey hash.
  void InsertHashed(const Value* key, size_t hash, const Value* cells) {
    Chain(ids_.Intern(hash, [key](size_t i) -> const Value& { return key[i]; }),
          cells);
  }

  // The first build row whose key equals the one in `row`'s `cols`, or
  // kEnd.
  size_t Find(const Row& row, const std::vector<int>& cols) const {
    if (ids_.size() == 0 || HasNull(row, cols)) return kEnd;
    const size_t key = ids_.Find(HashRowKey(row, cols), RowCells(row, cols));
    return key == kEnd ? kEnd : chains_[key].head;
  }

  // The build row after `id` with the same key, or kEnd.
  size_t Next(size_t id) const { return links_[id].next; }

  // The payload cells of build row `id`.
  const Value* Cells(size_t id) const { return links_[id].cells; }

 private:
  struct ChainEnds {
    size_t head;
    size_t tail;
  };
  struct Link {
    size_t next;  // the key's next build row, or kEnd
    const Value* cells;
  };

  static bool HasNull(const Row& row, const std::vector<int>& cols) {
    for (int c : cols) {
      if (row[static_cast<size_t>(c)].is_null()) return true;
    }
    return false;
  }

  // Chains the next build row under key `key`.
  void Chain(size_t key, const Value* cells) {
    const size_t id = links_.size();
    links_.push_back(Link{kEnd, cells});
    if (key == chains_.size()) {
      chains_.push_back(ChainEnds{id, id});
    } else {
      links_[chains_[key].tail].next = id;
      chains_[key].tail = id;
    }
  }

  KeyIds ids_;
  std::vector<ChainEnds> chains_;  // per key id
  std::vector<Link> links_;        // per build row
};

bool IsPipelineBreaker(PlanNode::Kind kind) {
  return kind == PlanNode::Kind::kMergeJoin ||
         kind == PlanNode::Kind::kSort || kind == PlanNode::Kind::kDistinct;
}

// A hash join's finished build side: the key table, and per kept row the
// cells its joined rows carry (BuildCols of the build rows' width). The
// cells live in chunks that never reallocate, so a row's cells stay where
// they were first written and a morsel's cells join the build by moving
// its buffer in whole. Rows with a NULL key never match and are not kept.
struct HashBuild {
  // Build rows per chunk filled row by row.
  static constexpr size_t kChunkRows = 1024;

  explicit HashBuild(const PlanNode& n)
      : join(n), key_cols(BuildKeys(n)), keys(key_cols.size()) {}

  // Fixes the cell layout from the build rows' width.
  void Size(size_t w) {
    sized = true;
    width = w;
    cols = BuildCols(join, w);
  }

  // Adds the next build row.
  void Add(const Row& r) {
    if (!sized) Size(r.size());
    if (chunks.empty() ||
        chunks.back().size() + cols.size() > chunks.back().capacity()) {
      chunks.emplace_back().reserve(kChunkRows * cols.size());
    }
    std::vector<Value>& chunk = chunks.back();
    if (keys.Insert(r, key_cols, chunk.data() + chunk.size())) {
      for (int c : cols) chunk.push_back(r[static_cast<size_t>(c)]);
    }
  }

  // Adds the kept rows a morsel gathered, in build order: their key cells
  // (key_cols.size() per row), key hashes and payload cells (cols.size()
  // per row).
  void AddGathered(const std::vector<Value>& key_cells,
                   const std::vector<size_t>& hashes,
                   std::vector<Value> cells) {
    chunks.push_back(std::move(cells));
    const Value* row = chunks.back().data();
    const size_t nk = key_cols.size();
    for (size_t r = 0; r < hashes.size(); ++r, row += cols.size()) {
      keys.InsertHashed(key_cells.data() + r * nk, hashes[r], row);
    }
  }

  const PlanNode& join;
  const std::vector<int>& key_cols;  // of the build rows
  JoinKeyTable keys;
  std::vector<std::vector<Value>> chunks;
  std::vector<int> cols;
  size_t width = 0;  // of the build rows, once sized
  bool sized = false;
};

// Joins probe row `p` against a finished build, handing each joined row to
// `push` with the key chain's build order; a left outer join (which always
// builds right) pads an unmatched row. Returns false as soon as `push`
// does.
template <class Push>
bool ProbeRow(const PlanNode& n, const HashBuild& build, JoinAssembler* join,
              const Row& p, const Push& push) {
  bool matched = false;
  size_t id = build.keys.Find(p, ProbeKeys(n));
  if (id != JoinKeyTable::kEnd) join->Probe(p, build.width);
  for (; id != JoinKeyTable::kEnd; id = build.keys.Next(id)) {
    join->Build(build.keys.Cells(id));
    if (n.predicate != nullptr && !n.predicate->Test(join->row())) continue;
    matched = true;
    if (!push(join->row())) return false;
  }
  if (matched || n.join_type != JoinType::kLeftOuter) return true;
  join->Left(p, n.right_width);
  join->Pad();
  return push(join->row());
}

// Objects handed back for reuse, taken by any thread.
template <class T>
class FreeList {
 public:
  // A returned object, or null when none is left.
  std::unique_ptr<T> Take() {
    MutexLock lock(mu_);
    if (free_.empty()) return nullptr;
    std::unique_ptr<T> t = std::move(free_.back());
    free_.pop_back();
    return t;
  }
  void Put(std::unique_ptr<T> t) {
    MutexLock lock(mu_);
    free_.push_back(std::move(t));
  }

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<T>> free_ GUARDED_BY(mu_);
};

// A morsel pipeline (Leis et al., SIGMOD 2014): the Filter, Project and
// hash-join probe stages between a source and the breaker they feed — an
// Aggregate's fold or a hash-join build — run per slot, on the thread that
// produced the slot's rows. A slot is one morsel of a parallel scan
// partition, one run of rows a scan emitted serially, or one morsel of a
// materialized input. Each slot owns its stage scratch rows, its per-node
// row counts and its partial: a GroupTable and an addend log for an
// Aggregate, the gathered keys, hashes and payload cells for a build. The
// coordinator merges each finished slot into the breaker's state in slot
// order, which is the serial row order, so the groups, float sums, key
// chains and counters come out exactly as the serial fold or build makes
// them; the merged slot, cleared, serves a later one.
class MorselPipeline : public MorselSink {
 public:
  // `source` is the Scan the rows come from (null for a materialized input,
  // whose producer counted its rows); `stages` run bottom-up; the breaker is
  // the Aggregate whose `groups` the rows fold into, or the HashJoin whose
  // `build` they are.
  MorselPipeline(const PlanNode* source, std::vector<const PlanNode*> stages,
                 const PlanNode& aggregate, GroupTable* groups)
      : MorselPipeline(source, std::move(stages), aggregate) {
    groups_ = groups;
  }
  MorselPipeline(const PlanNode* source, std::vector<const PlanNode*> stages,
                 HashBuild* build)
      : MorselPipeline(source, std::move(stages), build->join) {
    build_ = build;
  }

  const PlanNode* source() const { return source_; }
  const std::vector<const PlanNode*>& stages() const { return stages_; }
  // The build probe stage `i` reads; the executor fills it before any row
  // enters the pipeline.
  HashBuild* build(size_t i) { return builds_[i].get(); }

  uint64_t Reserve(uint64_t n) override {
    const uint64_t base = slots_.size();
    slots_.resize(base + n);
    serial_open_ = false;
    return base;
  }

  void Consume(uint64_t slot, const Row& row) override {
    std::unique_ptr<Slot>& s = slots_[slot];
    if (s == nullptr) s = TakeSlot();
    ++s->counts[0];
    Feed(*s, 0, row);
  }

  // Merges the slots up to `slot` into the breaker's state and recycles
  // them.
  void Finish(uint64_t slot) override {
    for (; merged_ <= slot; ++merged_) {
      std::unique_ptr<Slot>& s = slots_[merged_];
      if (s == nullptr) continue;
      Merge(*s);
      s->Clear();
      free_.Put(std::move(s));
    }
  }

  // A row the scan emitted on the coordinator: consecutive ones share a
  // slot, placed after every slot reserved before it.
  bool ConsumeSerial(const Row& row) {
    if (!serial_open_) {
      serial_slot_ = Reserve(1);
      serial_open_ = true;
    }
    Consume(serial_slot_, row);
    return true;
  }

  // Finishes every slot, once the source has no rows left.
  void FinishAll() {
    if (!slots_.empty()) Finish(slots_.size() - 1);
  }

 private:
  MorselPipeline(const PlanNode* source, std::vector<const PlanNode*> stages,
                 const PlanNode& breaker)
      : source_(source), stages_(std::move(stages)), breaker_(breaker) {
    builds_.resize(stages_.size());
    for (size_t i = 0; i < stages_.size(); ++i) {
      if (stages_[i]->kind == PlanNode::Kind::kHashJoin) {
        builds_[i] = std::make_unique<HashBuild>(*stages_[i]);
      }
    }
  }

  struct Slot {
    explicit Slot(const MorselPipeline& p)
        : counts(p.stages_.size() + 1, 0),
          rows(p.stages_.size()),
          groups(p.breaker_.group_cols.size(), p.breaker_.aggs.size()) {
      joins.reserve(p.stages_.size());
      for (const PlanNode* n : p.stages_) joins.emplace_back(*n);
    }

    // Empties the slot for its next morsel; its buffers keep their
    // capacity.
    void Clear() {
      std::fill(counts.begin(), counts.end(), 0);
      groups.Clear();
      addends.clear();
      last = KeyIds::kEnd;
      hashes.clear();
      keys.clear();
      payload.clear();
    }

    std::vector<uint64_t> counts;      // rows out of the source, stages
    std::vector<Row> rows;             // per Project stage
    std::vector<JoinAssembler> joins;  // per probe stage
    // Aggregate breaker: the partial's groups, its SUM/AVG addends in row
    // order, and the group the last row folded into.
    GroupTable groups;
    std::vector<Addend> addends;
    size_t last = KeyIds::kEnd;
    // HashJoin breaker: the kept rows' key cells, hashes and payload cells.
    size_t width = 0;  // of the build rows; 0 until the first one
    std::vector<int> cols;
    std::vector<size_t> hashes;
    std::vector<Value> keys;
    std::vector<Value> payload;
  };

  // A merged slot, cleared, or a new one. Merged slots are reused rather
  // than freed: the coordinator merges while the workers fill later slots,
  // and freeing a slot's buffers there made the workers' next allocations
  // contend with the frees of memory they had allocated themselves.
  std::unique_ptr<Slot> TakeSlot() {
    std::unique_ptr<Slot> s = free_.Take();
    return s != nullptr ? std::move(s) : std::make_unique<Slot>(*this);
  }

  // Hands `row` to stage `i`, or to the breaker once past the last stage.
  void Feed(Slot& s, size_t i, const Row& row) const {
    if (i == stages_.size()) {
      Sink(s, row);
      return;
    }
    const PlanNode& n = *stages_[i];
    auto next = [&](const Row& out) {
      ++s.counts[i + 1];
      Feed(s, i + 1, out);
      return true;
    };
    switch (n.kind) {
      case PlanNode::Kind::kFilter:
        if (n.predicate->Test(row)) next(row);
        break;
      case PlanNode::Kind::kProject: {
        Row& projected = s.rows[i];
        projected.resize(n.exprs.size());
        for (size_t e = 0; e < n.exprs.size(); ++e) {
          projected[e] = n.exprs[e]->Eval(row);
        }
        next(projected);
        break;
      }
      case PlanNode::Kind::kHashJoin:
        ProbeRow(n, *builds_[i], &s.joins[i], row, next);
        break;
      default:
        break;
    }
  }

  void Sink(Slot& s, const Row& row) const {
    if (groups_ != nullptr) {
      const uint32_t group = static_cast<uint32_t>(
          s.groups.FindAfter(&s.last, row, breaker_.group_cols));
      FoldRow(row, breaker_.aggs, s.groups.states(group),
              [&s, group](size_t i, double v) {
                s.addends.push_back(
                    Addend{group, static_cast<uint32_t>(i), v});
              });
      return;
    }
    if (s.width == 0) {
      s.width = row.size();
      s.cols = BuildCols(breaker_, s.width);
    }
    const std::vector<int>& keys = BuildKeys(breaker_);
    for (int c : keys) {
      if (row[static_cast<size_t>(c)].is_null()) return;  // never matches
    }
    s.hashes.push_back(HashRowKey(row, keys));
    for (int c : keys) s.keys.push_back(row[static_cast<size_t>(c)]);
    for (int c : s.cols) s.payload.push_back(row[static_cast<size_t>(c)]);
  }

  // Adds a finished slot's counts to the nodes' counters and its partial to
  // the breaker's state.
  void Merge(Slot& s) {
    if (source_ != nullptr) source_->stats.rows_output += s.counts[0];
    for (size_t i = 0; i < stages_.size(); ++i) {
      stages_[i]->stats.rows_output += s.counts[i + 1];
    }
    if (groups_ != nullptr) {
      MergePartial(s.groups, s.addends, breaker_.aggs, groups_);
      return;
    }
    if (!build_->sized && s.width != 0) build_->Size(s.width);
    build_->AddGathered(s.keys, s.hashes, std::move(s.payload));
  }

  const PlanNode* source_;
  std::vector<const PlanNode*> stages_;
  const PlanNode& breaker_;
  GroupTable* groups_ = nullptr;
  HashBuild* build_ = nullptr;
  std::vector<std::unique_ptr<HashBuild>> builds_;
  std::vector<std::unique_ptr<Slot>> slots_;
  uint64_t merged_ = 0;  // slots before this one are merged
  FreeList<Slot> free_;
  bool serial_open_ = false;
  uint64_t serial_slot_ = 0;
};

// Aggregates a materialized input on the morsel pool into *groups: the
// Aggregate's pipeline over the morsels of `in`. Returns false when `ctx`
// tripped first (the groups are then incomplete).
bool ParallelAggregateKernel(const Rows& in, const PlanNode& agg,
                             QueryContext* ctx, const ParallelScanPlan& plan,
                             GroupTable* groups) {
  MorselPipeline pipe(/*source=*/nullptr, {}, agg, groups);
  const uint64_t base = pipe.Reserve(PlanMorselCount(plan, in.size()));
  if (!ParallelMorselRun(plan, in.size(), ctx,
                         [&](uint64_t m, uint64_t begin, uint64_t end,
                             const std::atomic<bool>& stop) {
                           for (uint64_t r = begin; r < end; ++r) {
                             if (MorselInterrupted(stop, ctx)) return;
                             pipe.Consume(base + m, in[r]);
                           }
                         })) {
    return false;
  }
  pipe.FinishAll();
  return true;
}

struct Executor {
  TemporalEngine& engine;
  const ExecOptions& opts;
  QueryContext* ctx;

  Status Boundary() const {
    return ctx != nullptr ? ctx->CheckNow() : Status::OK();
  }

  bool Live() const { return ctx == nullptr || ctx->KeepGoing(); }

  ParallelScanPlan OperatorPlan(const PlanNode& n) const {
    return ResolveScanPlan(MergeExecOptions(n.scan.exec, opts));
  }

  // Scan node `n`'s engine request: the query's context and options where
  // the node left them unset, and the node's own counters. Resets them.
  ScanRequest Request(const PlanNode& n) const {
    n.stats = PlanStats{};
    ScanRequest req = n.scan;
    if (req.ctx == nullptr) req.ctx = ctx;
    req.exec = MergeExecOptions(req.exec, opts);
    req.stats = &n.stats.scan;
    return req;
  }

  // Runs Scan `n`, which folds its aggregates (ScanRequest::aggs), into
  // the states at `fold`.
  Status FoldScan(const PlanNode& n, AggState* fold) {
    ScanRequest req = Request(n);
    req.fold = fold;
    engine.Scan(req, [](const Row&) { return true; });
    n.stats.rows_output = n.stats.scan.rows_output;
    return Boundary();
  }

  // The morsel pipeline feeding a breaker whose input is `top`: the chain
  // of Filter, Project and hash-join probe stages below it (bottom-up into
  // *stages; a join's chain continues down its probe input) to a Scan
  // (*scan) that runs in parallel. False when the chain holds any other
  // node or the scan is serial; such an input streams on the coordinator.
  bool MorselChain(const PlanNode& top, const PlanNode** scan,
                   std::vector<const PlanNode*>* stages) const {
    stages->clear();
    const PlanNode* n = &top;
    while (n->kind == PlanNode::Kind::kFilter ||
           n->kind == PlanNode::Kind::kProject ||
           n->kind == PlanNode::Kind::kHashJoin) {
      stages->push_back(n);
      n = n->kind == PlanNode::Kind::kHashJoin
              ? n->children[1 - BuildChild(*n)].get()
              : n->children[0].get();
    }
    if (n->kind != PlanNode::Kind::kScan) return false;
    std::reverse(stages->begin(), stages->end());
    *scan = n;
    return OperatorPlan(*n).threads > 1;
  }

  // Runs `pipe` into its breaker's state: the builds its probe stages read
  // complete first (the outermost first, as Stream runs them); then its
  // scan hands the rows of parallel partitions to the pipeline on the
  // workers and emits those of serial partitions here, into a slot of
  // their own.
  Status RunPipeline(MorselPipeline* pipe) {
    const PlanNode& scan = *pipe->source();
    const std::vector<const PlanNode*>& stages = pipe->stages();
    for (const PlanNode* stage : stages) stage->stats = PlanStats{};
    for (size_t i = stages.size(); i-- > 0;) {
      if (stages[i]->kind == PlanNode::Kind::kHashJoin) {
        BIH_RETURN_IF_ERROR(Build(*stages[i], pipe->build(i)));
      }
    }
    ScanRequest req = Request(scan);
    req.sink = pipe;
    engine.Scan(req,
                [pipe](const Row& row) { return pipe->ConsumeSerial(row); });
    BIH_RETURN_IF_ERROR(Boundary());
    pipe->FinishAll();
    return Status::OK();
  }

  // Builds hash join `n`'s build input into *build.
  Status Build(const PlanNode& n, HashBuild* build) {
    const PlanNode& input = *n.children[BuildChild(n)];
    const PlanNode* scan = nullptr;
    std::vector<const PlanNode*> stages;
    if (MorselChain(input, &scan, &stages)) {
      MorselPipeline pipe(scan, std::move(stages), build);
      return RunPipeline(&pipe);
    }
    return Stream(input, [build](const Row& r) {
      build->Add(r);
      return true;
    });
  }

  // Runs `n` to completion, materializing its output into *out.
  Status Collect(const PlanNode& n, Rows* out) {
    out->clear();
    if (!IsPipelineBreaker(n.kind)) {
      return Stream(n, [out](const Row& row) {
        out->push_back(row);
        return true;
      });
    }
    n.stats = PlanStats{};
    switch (n.kind) {
      case PlanNode::Kind::kMergeJoin: {
        Rows left, right;
        BIH_RETURN_IF_ERROR(Collect(*n.children[0], &left));
        BIH_RETURN_IF_ERROR(Collect(*n.children[1], &right));
        bool interrupted = false;
        *out = MergeJoinKernel(left, right, n, ctx, OperatorPlan(n),
                               &interrupted);
        break;
      }
      case PlanNode::Kind::kSort:
        BIH_RETURN_IF_ERROR(Collect(*n.children[0], out));
        *out = SortKernel(std::move(*out), n.sort_keys, ctx);
        break;
      case PlanNode::Kind::kDistinct: {
        std::unordered_set<Row, RowKeyHash, RowKeyEq> seen;
        auto keep_first = [&](const Row& row) {
          if (seen.insert(row).second) out->push_back(row);
          return true;
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], keep_first));
        break;
      }
      default:
        break;
    }
    n.stats.rows_output = out->size();
    return Boundary();
  }

  // Runs `n`, pushing each output row into `sink` until the rows run out or
  // `sink` returns false.
  Status Stream(const PlanNode& n, const RowCallback& sink) {
    if (IsPipelineBreaker(n.kind)) {
      Rows rows;
      BIH_RETURN_IF_ERROR(Collect(n, &rows));
      for (const Row& row : rows) {
        if (!Live() || !sink(row)) break;
      }
      return Boundary();
    }
    n.stats = PlanStats{};
    // Counts one output row of `n` and hands it to the parent.
    auto push = [&n, &sink](const Row& row) {
      ++n.stats.rows_output;
      return sink(row);
    };
    switch (n.kind) {
      case PlanNode::Kind::kScan:
        engine.Scan(Request(n), push);
        break;
      case PlanNode::Kind::kValues:
        for (const Row& row : n.values) {
          if (!Live() || !push(row)) break;
        }
        break;
      case PlanNode::Kind::kFilter: {
        auto filter = [&](const Row& row) {
          return !n.predicate->Test(row) || push(row);
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], filter));
        break;
      }
      case PlanNode::Kind::kProject: {
        Row projected;
        auto project = [&](const Row& row) {
          projected.resize(n.exprs.size());
          for (size_t i = 0; i < n.exprs.size(); ++i) {
            projected[i] = n.exprs[i]->Eval(row);
          }
          return push(projected);
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], project));
        break;
      }
      case PlanNode::Kind::kHashJoin: {
        // The build input (the right one unless build_left) builds first
        // (HashBuild); each row of the other input then probes it, so
        // joined rows come out in probe order and, per probe row, in the
        // order the build side produced its matches.
        HashBuild build(n);
        BIH_RETURN_IF_ERROR(Build(n, &build));
        JoinAssembler join(n);
        BIH_RETURN_IF_ERROR(
            Stream(*n.children[1 - BuildChild(n)], [&](const Row& p) {
              return ProbeRow(n, build, &join, p, push);
            }));
        break;
      }
      case PlanNode::Kind::kIndexJoin: {
        ScanRequest req;
        req.table = n.index_table;
        req.temporal = n.index_spec;
        req.ctx = ctx;
        req.exec = MergeExecOptions(req.exec, opts);
        // Each probe resets the counters, so the node keeps the last probe's.
        req.stats = &n.stats.scan;
        JoinAssembler join(n);
        bool stop = false;
        auto probe = [&](const Row& l) {
          req.equals.clear();
          bool null_key = false;
          for (size_t i = 0; i < n.left_keys.size(); ++i) {
            const Value& v = l[static_cast<size_t>(n.left_keys[i])];
            null_key |= v.is_null();
            req.equals.emplace_back(n.right_keys[i], v);
          }
          if (null_key) return true;
          bool first = true;
          engine.Scan(req, [&](const Row& r) {
            if (first) join.Left(l, r.size());
            first = false;
            join.Right(r);
            if (n.predicate != nullptr && !n.predicate->Test(join.row())) {
              return true;
            }
            stop = !push(join.row());
            return !stop;
          });
          return !stop;
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], probe));
        break;
      }
      case PlanNode::Kind::kCrossJoin: {
        Rows right;
        BIH_RETURN_IF_ERROR(Collect(*n.children[1], &right));
        JoinAssembler join(n);
        auto pair_up = [&](const Row& l) {
          if (right.empty()) return true;
          join.Left(l, right[0].size());
          for (const Row& r : right) {
            join.Right(r);
            if (n.predicate != nullptr && !n.predicate->Test(join.row())) {
              continue;
            }
            if (!push(join.row())) return false;
          }
          return true;
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], pair_up));
        break;
      }
      case PlanNode::Kind::kAggregate: {
        const PlanNode& child = *n.children[0];
        GroupTable groups(n.group_cols.size(), n.aggs.size());
        size_t last = KeyIds::kEnd;
        auto fold = [&](const Row& row) {
          AggState* st =
              groups.states(groups.FindAfter(&last, row, n.group_cols));
          FoldRow(row, n.aggs, st,
                  [st](size_t i, double v) { st[i].AddNumber(v); });
          return true;
        };
        const PlanNode* scan = nullptr;
        std::vector<const PlanNode*> stages;
        if (child.kind == PlanNode::Kind::kScan && !child.scan.aggs.empty()) {
          // The scan folds the aggregates on its stored cells into the one
          // group's states.
          BIH_RETURN_IF_ERROR(
              FoldScan(child, groups.states(groups.Find(Row{}, {}))));
        } else if (IsPipelineBreaker(child.kind)) {
          Rows in;
          BIH_RETURN_IF_ERROR(Collect(child, &in));
          const ParallelScanPlan plan = OperatorPlan(n);
          if (plan.Engage(in.size())) {
            if (!ParallelAggregateKernel(in, n, ctx, plan, &groups)) {
              return Boundary();
            }
          } else {
            for (const Row& row : in) {
              if (!Live()) break;
              fold(row);
            }
          }
        } else if (MorselChain(child, &scan, &stages)) {
          MorselPipeline pipe(scan, std::move(stages), n, &groups);
          BIH_RETURN_IF_ERROR(RunPipeline(&pipe));
        } else {
          BIH_RETURN_IF_ERROR(Stream(child, fold));
        }
        BIH_RETURN_IF_ERROR(Boundary());
        if (n.group_cols.empty() && groups.size() == 0) {
          groups.Find(Row{}, n.group_cols);
        }
        Row out;
        for (size_t g = 0; g < groups.size(); ++g) {
          FinishGroup(groups, g, n.aggs, &out);
          if (!push(out)) break;
        }
        break;
      }
      case PlanNode::Kind::kLimit: {
        auto take = [&](const Row& row) {
          if (n.stats.rows_output >= n.limit) return false;
          return push(row) && n.stats.rows_output < n.limit;
        };
        BIH_RETURN_IF_ERROR(Stream(*n.children[0], take));
        break;
      }
      case PlanNode::Kind::kMergeJoin:
      case PlanNode::Kind::kSort:
      case PlanNode::Kind::kDistinct:
        break;  // pipeline breakers, handled above
    }
    return Boundary();
  }
};

}  // namespace

Status Execute(const PlanNode& plan, TemporalEngine& engine,
               const ExecOptions& opts, QueryContext* ctx, Rows* out) {
  Executor exec{engine, opts, ctx};
  return exec.Collect(plan, out);
}

Rows RunPlan(const PlanNode& plan, TemporalEngine& engine) {
  Rows out;
  Status st = Execute(plan, engine, ExecOptions{}, /*ctx=*/nullptr, &out);
  BIH_CHECK_MSG(st.ok(), st.ToString());
  return out;
}

// ---- EXPLAIN rendering --------------------------------------------------

namespace {

std::string SelectorString(const TemporalSelector& s) { return s.ToString(); }

void AppendScanJson(const ScanRequest& req, std::string* out) {
  *out += ",\"table\":" + JsonQuote(req.table);
  *out += ",\"system_time\":" + JsonQuote(SelectorString(req.temporal.system_time));
  *out += ",\"app_time\":" + JsonQuote(SelectorString(req.temporal.app_time));
  if (req.temporal.app_period_index != 0) {
    *out += ",\"app_period\":" +
            std::to_string(req.temporal.app_period_index);
  }
  if (!req.equals.empty()) {
    *out += ",\"equals\":[";
    for (size_t i = 0; i < req.equals.size(); ++i) {
      if (i) *out += ",";
      *out += "{\"col\":" + std::to_string(req.equals[i].first) +
              ",\"value\":" + JsonQuote(req.equals[i].second.ToString()) + "}";
    }
    *out += "]";
  }
  if (req.range_col >= 0) {
    *out += ",\"range_col\":" + std::to_string(req.range_col);
    *out += ",\"range_lo\":" + JsonQuote(req.range_lo.ToString());
    *out += ",\"range_hi\":" + JsonQuote(req.range_hi.ToString());
  }
  if (!req.projection.empty()) {
    *out += ",\"projection\":[";
    for (size_t i = 0; i < req.projection.size(); ++i) {
      if (i) *out += ",";
      *out += std::to_string(req.projection[i]);
    }
    *out += "]";
  }
  if (req.residual != nullptr) {
    *out += ",\"residual\":" + JsonQuote(ExprToString(req.residual));
  }
  if (!req.aggs.empty()) {
    *out += ",\"aggregates\":[";
    for (size_t i = 0; i < req.aggs.size(); ++i) {
      if (i) *out += ",";
      const AggSpec& a = req.aggs[i];
      *out += JsonQuote(std::string(AggKindName(a.kind)) + "(" +
                        (a.expr == nullptr ? "*" : ExprToString(a.expr)) +
                        ")");
    }
    *out += "]";
  }
}

void AppendScanStatsJson(const ExecStats& s, std::string* out) {
  *out += ",\"rows_examined\":" + std::to_string(s.rows_examined);
  *out += ",\"partitions_touched\":" + std::to_string(s.partitions_touched);
  *out += std::string(",\"used_index\":") + (s.used_index ? "true" : "false");
  if (!s.index_name.empty()) {
    *out += ",\"index\":" + JsonQuote(s.index_name);
  }
  *out += std::string(",\"touched_history\":") +
          (s.touched_history ? "true" : "false");
}

// A join's assembled output columns, when the optimizer narrowed them.
void AppendEmitJson(const PlanNode& n, std::string* out) {
  if (!n.emit.has_value()) return;
  *out += ",\"emit\":[";
  for (size_t i = 0; i < n.emit->size(); ++i) {
    if (i) *out += ",";
    *out += std::to_string((*n.emit)[i]);
  }
  *out += "]";
}

void NodeToJson(const PlanNode& n, std::string* out) {
  *out += "{\"node\":" + JsonQuote(n.KindName());
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      AppendScanJson(n.scan, out);
      AppendScanStatsJson(n.stats.scan, out);
      break;
    case PlanNode::Kind::kValues:
      *out += ",\"rows\":" + std::to_string(n.values.size());
      break;
    case PlanNode::Kind::kHashJoin:
      *out += ",\"join_type\":" + JsonQuote(n.join_type == JoinType::kLeftOuter
                                                ? "left_outer"
                                                : "inner");
      *out += ",\"keys\":" + std::to_string(n.left_keys.size());
      *out += std::string(",\"build\":") +
              (n.build_left ? "\"left\"" : "\"right\"");
      AppendEmitJson(n, out);
      break;
    case PlanNode::Kind::kMergeJoin:
      *out += ",\"keys\":" + std::to_string(n.left_keys.size());
      AppendEmitJson(n, out);
      break;
    case PlanNode::Kind::kIndexJoin:
      *out += ",\"probe_table\":" + JsonQuote(n.index_table);
      *out += ",\"keys\":" + std::to_string(n.left_keys.size());
      AppendEmitJson(n, out);
      AppendScanStatsJson(n.stats.scan, out);
      break;
    case PlanNode::Kind::kCrossJoin:
      AppendEmitJson(n, out);
      break;
    case PlanNode::Kind::kAggregate:
      *out += ",\"group_cols\":" + std::to_string(n.group_cols.size());
      *out += ",\"aggregates\":" + std::to_string(n.aggs.size());
      break;
    case PlanNode::Kind::kSort:
      *out += ",\"keys\":" + std::to_string(n.sort_keys.size());
      break;
    case PlanNode::Kind::kLimit:
      *out += ",\"limit\":" + std::to_string(n.limit);
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kDistinct:
      break;
  }
  *out += ",\"rows_output\":" + std::to_string(n.stats.rows_output);
  if (!n.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i) *out += ",";
      NodeToJson(*n.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string PlanToJson(const PlanNode& plan) {
  std::string out;
  NodeToJson(plan, &out);
  return out;
}

}  // namespace bih
