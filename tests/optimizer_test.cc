// Golden tests for the rule-based optimizer: each rewrite fires where it
// should (asserted through OptimizerReport), never fires where it must not,
// preserves the materialized result exactly, and actually cuts the version
// space the engines touch — the axis the paper's Section 5 measures.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/optimizer.h"
#include "exec/plan.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tpch/schema.h"
#include "workload/context.h"
#include "workload/queries.h"

namespace bih {
namespace {

WorkloadContext& Workload(const std::string& letter) {
  static std::map<std::string, WorkloadContext>* cache =
      new std::map<std::string, WorkloadContext>();
  auto it = cache->find(letter);
  if (it == cache->end()) {
    WorkloadConfig cfg;
    cfg.engine_letter = letter;
    cfg.h = 0.001;
    cfg.m = 0.001;
    cfg.seed = 7;
    it = cache->emplace(letter, BuildWorkload(cfg)).first;
  }
  return it->second;
}

TemporalScanSpec FullHistory() {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  return spec;
}

ScanRequest Req(const std::string& table, const TemporalScanSpec& spec) {
  ScanRequest req;
  req.table = table;
  req.temporal = spec;
  return req;
}

void ExpectRowsIdentical(const Rows& want, const Rows& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size()) << "row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      ASSERT_TRUE(want[r][c] == got[r][c]) << "row " << r << " col " << c;
    }
  }
}

uint64_t TotalExamined(const PlanNode& n) {
  uint64_t sum = n.stats.scan.rows_examined;
  for (const PlanPtr& c : n.children) sum += TotalExamined(*c);
  return sum;
}

const PlanNode* FindJoin(const PlanNode& n) {
  switch (n.kind) {
    case PlanNode::Kind::kHashJoin:
    case PlanNode::Kind::kMergeJoin:
    case PlanNode::Kind::kIndexJoin:
    case PlanNode::Kind::kCrossJoin:
      return &n;
    default:
      break;
  }
  for (const PlanPtr& c : n.children) {
    if (const PlanNode* hit = FindJoin(*c)) return hit;
  }
  return nullptr;
}

// `text` with each "{t}" replaced by the workload's mid-history system time.
std::string AtMid(const WorkloadContext& ctx, std::string text) {
  const std::string t = std::to_string(ctx.sys_mid.micros());
  for (size_t at = text.find("{t}"); at != std::string::npos;
       at = text.find("{t}")) {
    text.replace(at, 3, t);
  }
  return text;
}

// AtMid(`query`) as the SQL layer plans it, unoptimized.
PlanPtr SqlPlan(WorkloadContext& ctx, const std::string& query) {
  const std::string text = AtMid(ctx, query);
  sql::SelectStatement stmt;
  EXPECT_TRUE(sql::ParseSelect(text, &stmt).ok()) << text;
  PlanPtr plan;
  std::vector<std::string> columns;
  EXPECT_TRUE(sql::PlanSelect(ctx.eng(), stmt, &plan, &columns).ok())
      << text;
  return plan;
}

// The join the served history_analytics workload asks for: revenue by
// nation over CUSTOMER and ORDERS, both AS OF the middle of the history.
constexpr const char* kServedJoin =
    "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM CUSTOMER "
    "FOR SYSTEM_TIME AS OF {t} c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o "
    "ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY ORDER BY C_NATIONKEY";
// The same query with the join's inputs swapped: unoptimized, it builds
// CUSTOMER and probes with ORDERS in scan order, the order in which the
// optimized served join, built on CUSTOMER, folds its rows.
constexpr const char* kServedJoinOrdersFirst =
    "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM ORDERS "
    "FOR SYSTEM_TIME AS OF {t} o JOIN CUSTOMER FOR SYSTEM_TIME AS OF {t} c "
    "ON O_CUSTKEY = C_CUSTKEY GROUP BY C_NATIONKEY ORDER BY C_NATIONKEY";

// Unoptimized, as the SQL layer plans it.
PlanPtr ServedJoin(WorkloadContext& ctx) { return SqlPlan(ctx, kServedJoin); }

// Optimizes the served join in *plan and checks its result. The build-side
// rule makes it fold its joined rows in ORDERS order, so its SUMs may
// differ in the last bits from the unoptimized plan's: the rows must equal
// those of the unoptimized ORDERS-first plan byte for byte, and the group
// keys and COUNTs those of the unoptimized original.
void CheckServedJoin(WorkloadContext& ctx, PlanPtr* plan,
                     OptimizerReport* report) {
  TemporalEngine& eng = ctx.eng();
  Rows original = RunPlan(**plan, eng);
  Rows swapped = RunPlan(*SqlPlan(ctx, kServedJoinOrdersFirst), eng);
  OptimizePlan(plan, eng, report);
  Rows got = RunPlan(**plan, eng);
  ExpectRowsIdentical(swapped, got);
  ASSERT_EQ(original.size(), got.size());
  ASSERT_GT(got.size(), 0u);
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_TRUE(original[r][0] == got[r][0]) << "row " << r;
    EXPECT_TRUE(original[r][1] == got[r][1]) << "row " << r;
  }
}

// Runs, optimizes, re-runs; asserts result identity and returns the
// (before, after) rows_examined pair for callers that assert pruning.
std::pair<uint64_t, uint64_t> CheckPreserves(PlanPtr* plan,
                                             TemporalEngine& eng,
                                             OptimizerReport* report) {
  Rows want = RunPlan(**plan, eng);
  const uint64_t before = TotalExamined(**plan);
  OptimizePlan(plan, eng, report);
  Rows got = RunPlan(**plan, eng);
  ExpectRowsIdentical(want, got);
  return {before, TotalExamined(**plan)};
}

TEST(OptimizerTest, PushesSingleSideConjunctsBelowJoin) {
  TemporalEngine& eng = Workload("A").eng();
  // One left-only conjunct, one right-only, one cross-side (must stay).
  // CUSTOMER's scan width is 11 (9 user + 2 system columns).
  PlanPtr plan = FilterPlan(
      HashJoinPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                   ScanPlan(Req("ORDERS", TemporalScanSpec::Current())),
                   {customer::kCustKey}, {orders::kCustKey}, 14),
      And(And(Gt(Col(customer::kAcctBal), Lit(0.0)),
              Gt(Col(11 + orders::kTotalPrice), Lit(1000.0))),
          Ne(Col(customer::kNationKey), Col(11 + orders::kShipPriority))));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(2, rep.predicates_pushed);
  // The cross-side conjunct keeps a Filter above the join.
  EXPECT_EQ(PlanNode::Kind::kFilter, plan->kind);
  EXPECT_EQ(PlanNode::Kind::kHashJoin, plan->children[0]->kind);
}

TEST(OptimizerTest, LeftOuterJoinOnlyPushesLeftConjuncts) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan = FilterPlan(
      HashJoinPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                   ScanPlan(Req("ORDERS", TemporalScanSpec::Current())),
                   {customer::kCustKey}, {orders::kCustKey}, 14,
                   JoinType::kLeftOuter),
      And(Gt(Col(customer::kAcctBal), Lit(0.0)),
          // Right-side conjunct: above the join it also rejects the
          // NULL-padded rows, so it must not move below.
          Gt(Col(11 + orders::kTotalPrice), Lit(1000.0))));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.predicates_pushed);
  EXPECT_EQ(PlanNode::Kind::kFilter, plan->kind);
}

TEST(OptimizerTest, EqualityFoldsIntoScanAndUsesIndex) {
  TemporalEngine& eng = Workload("A").eng();
  const int64_t key = Workload("A").hot_custkey;
  PlanPtr plan =
      FilterPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                 Eq(Col(customer::kCustKey), Lit(key)));
  OptimizerReport rep;
  auto [before, after] = CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.conjuncts_folded);
  // The Filter folded away entirely; the scan carries the equality and the
  // engine served it from the key index instead of a full scan.
  EXPECT_EQ(PlanNode::Kind::kScan, plan->kind);
  ASSERT_EQ(1u, plan->scan.equals.size());
  EXPECT_LT(after, before);
}

TEST(OptimizerTest, VisibilityPredicateBecomesSystemAsOf) {
  WorkloadContext& ctx = Workload("A");
  TemporalEngine& eng = ctx.eng();
  // T8 -> T2: the bitemporal visibility constraint stated as a WHERE
  // clause over the period columns. ORDERS' scan schema puts the system
  // columns at width-2 / width-1.
  const int width = eng.ScanSchema("ORDERS").num_columns();
  const Value t(ctx.sys_mid.micros());
  PlanPtr plan = FilterPlan(ScanPlan(Req("ORDERS", FullHistory())),
                            And(Le(Col(width - 2), Lit(t)),
                                Gt(Col(width - 1), Lit(t))));
  OptimizerReport rep;
  auto [before, after] = CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.temporal_rewrites);
  EXPECT_EQ(PlanNode::Kind::kScan, plan->kind);
  EXPECT_EQ(TemporalSelector::Kind::kPoint,
            plan->scan.temporal.system_time.kind);
  // The engine may still walk every version to evaluate AS OF (System A
  // does), but the rewrite must never examine more — and the scan itself
  // now emits only the visible versions instead of the whole history.
  EXPECT_LE(after, before);
  PlanPtr full = ScanPlan(Req("ORDERS", FullHistory()));
  const size_t history_rows = RunPlan(*full, eng).size();
  EXPECT_LT(plan->stats.rows_output, history_rows);
}

TEST(OptimizerTest, AppTimePredicateBecomesApplicationAsOf) {
  WorkloadContext& ctx = Workload("A");
  TemporalEngine& eng = ctx.eng();
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::ImplicitCurrent();
  spec.app_time = TemporalSelector::All();
  const Value t(ctx.app_mid);
  PlanPtr plan =
      FilterPlan(ScanPlan(Req("CUSTOMER", spec)),
                 And(Le(Col(customer::kVisibleBegin), Lit(t)),
                     Gt(Col(customer::kVisibleEnd), Lit(t))));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.temporal_rewrites);
  EXPECT_EQ(PlanNode::Kind::kScan, plan->kind);
  EXPECT_EQ(TemporalSelector::Kind::kPoint, plan->scan.temporal.app_time.kind);
}

TEST(OptimizerTest, StrictBoundsAndNullLiteralsBecomeTheScanResidual) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan =
      FilterPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                 And(Lt(Col(customer::kAcctBal), Lit(5000.0)),
                     Eq(Col(customer::kName), Lit(Value::Null()))));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(0, rep.conjuncts_folded);
  EXPECT_EQ(2, rep.residuals_folded);
  // Neither conjunct fits `equals` or the range; both run in the scan as
  // its residual, and no Filter is left above it.
  EXPECT_EQ(PlanNode::Kind::kScan, plan->kind);
  EXPECT_TRUE(plan->scan.equals.empty());
  EXPECT_NE(nullptr, plan->scan.residual);
}

TEST(OptimizerTest, BetweenFoldsToRangeConstraint) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan =
      FilterPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                 Between(Col(customer::kAcctBal), Lit(100.0), Lit(9000.0)));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.conjuncts_folded);
  EXPECT_EQ(PlanNode::Kind::kScan, plan->kind);
  EXPECT_EQ(customer::kAcctBal, plan->scan.range_col);
}

TEST(OptimizerTest, ColumnPruningMarksScansUnderProjections) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan =
      ProjectPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                  {Col(customer::kCustKey), Col(customer::kAcctBal)});
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(1, rep.scans_pruned);
  EXPECT_EQ((std::vector<int>{customer::kCustKey, customer::kAcctBal}),
            plan->children[0]->scan.projection);
}

TEST(OptimizerTest, ColumnPruningNarrowsTheServedJoinsRows) {
  // The served join reads 4 of its 25 output columns above it: the two
  // keys, the group column and the summed price. The HashJoin assembles
  // exactly those, and EXPLAIN says so.
  WorkloadContext& ctx = Workload("C");
  TemporalEngine& eng = ctx.eng();
  PlanPtr plan = ServedJoin(ctx);
  OptimizerReport rep;
  CheckServedJoin(ctx, &plan, &rep);
  const PlanNode* join = FindJoin(*plan);
  ASSERT_NE(nullptr, join);
  ASSERT_EQ(PlanNode::Kind::kHashJoin, join->kind);
  const int cw = eng.ScanSchema("CUSTOMER").num_columns();
  const std::vector<int> read = {customer::kCustKey, customer::kNationKey,
                                 cw + orders::kCustKey,
                                 cw + orders::kTotalPrice};
  ASSERT_TRUE(join->emit.has_value());
  EXPECT_EQ(read, *join->emit);
  EXPECT_EQ(static_cast<size_t>(cw), join->left_width);
  std::string emit = "\"emit\":[";
  for (size_t i = 0; i < read.size(); ++i) {
    emit += (i ? "," : "") + std::to_string(read[i]);
  }
  EXPECT_NE(std::string::npos, PlanToJson(*plan).find(emit + "]"));
}

// Join shapes whose parents read only part of the joined row, labelled:
// inputs for the result-preserving check of join-row assembly. CUSTOMER's
// scan width is 11 (9 user + 2 system columns), ORDERS' 14.
std::vector<std::pair<std::string, PlanPtr>> PartialDemandJoins(
    WorkloadContext& ctx) {
  TemporalEngine& eng = ctx.eng();
  const TemporalScanSpec now = TemporalScanSpec::Current();
  auto customers = [&] { return ScanPlan(Req("CUSTOMER", now)); };
  auto orders = [&](const TemporalScanSpec& spec) {
    return ScanPlan(Req("ORDERS", spec));
  };
  std::vector<std::pair<std::string, PlanPtr>> shapes;
  // A left outer join whose residual rejects some matches: customers
  // without orders, and customers whose orders all fail it, are padded.
  shapes.emplace_back(
      "left-outer-unmatched",
      ProjectPlan(HashJoinPlan(customers(), orders(now), {customer::kCustKey},
                               {orders::kCustKey}, 14, JoinType::kLeftOuter,
                               Gt(Col(11 + orders::kTotalPrice),
                                  Lit(150000.0))),
                  {Col(customer::kName), Col(11 + orders::kOrderKey)}));
  // The residual reads a column nothing above it reads.
  shapes.emplace_back(
      "residual-only-column",
      ProjectPlan(HashJoinPlan(customers(), orders(now), {customer::kCustKey},
                               {orders::kCustKey}, 14, JoinType::kInner,
                               Gt(Col(11 + orders::kTotalPrice),
                                  Col(customer::kAcctBal))),
                  {Col(customer::kCustKey), Col(11 + orders::kOrderKey)}));
  // Every version of every order: many build rows per key, so the order
  // within a key shows.
  shapes.emplace_back(
      "duplicate-build-keys",
      ProjectPlan(HashJoinPlan(customers(), orders(FullHistory()),
                               {customer::kCustKey}, {orders::kCustKey}, 14),
                  {Col(customer::kName), Col(11 + orders::kOrderKey),
                   Col(11 + orders::kTotalPrice)}));
  // NULL keys on both sides never match; the NULL-keyed left row is padded.
  auto R = [](Value a, Value b, Value c) { return Row{a, b, c}; };
  const Value null = Value::Null();
  const Value one(int64_t{1}), two(int64_t{2}), three(int64_t{3});
  Rows left{R(one, Value("a"), Value(1.5)), R(null, Value("b"), Value(2.5)),
            R(two, Value("c"), Value(3.5)), R(one, Value("d"), Value(4.5))};
  Rows right{R(one, Value(10.0), Value("x")),
             R(null, Value(20.0), Value("y")),
             R(one, Value(30.0), Value("z")),
             R(three, Value(40.0), Value("w"))};
  shapes.emplace_back(
      "null-keys",
      ProjectPlan(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                               3, JoinType::kLeftOuter),
                  {Col(1), Col(4)}));
  // An empty build side: every left row padded, or a global aggregate over
  // nothing.
  auto no_orders = [&] {
    return FilterPlan(orders(now), Lt(Col(orders::kTotalPrice), Lit(-1.0)));
  };
  shapes.emplace_back(
      "empty-build-left-outer",
      ProjectPlan(HashJoinPlan(customers(), no_orders(), {customer::kCustKey},
                               {orders::kCustKey}, 14, JoinType::kLeftOuter),
                  {Col(customer::kCustKey), Col(11 + orders::kTotalPrice)}));
  shapes.emplace_back(
      "empty-build-aggregate",
      AggregatePlan(HashJoinPlan(customers(), no_orders(),
                                 {customer::kCustKey}, {orders::kCustKey}, 14),
                    {}, {{AggKind::kSum, Col(11 + orders::kTotalPrice)},
                         {AggKind::kCount, nullptr}}));
  // The other join kinds assemble through the same demand.
  shapes.emplace_back(
      "merge-join",
      ProjectPlan(MergeJoinPlan(customers(), orders(FullHistory()),
                                {customer::kCustKey}, {orders::kCustKey}),
                  {Col(customer::kName), Col(11 + orders::kTotalPrice)}));
  shapes.emplace_back(
      "index-join",
      ProjectPlan(IndexJoinPlan(customers(), {customer::kCustKey}, "ORDERS",
                                {orders::kCustKey}, now),
                  {Col(customer::kName), Col(11 + orders::kTotalPrice)}));
  const int nw = eng.ScanSchema("NATION").num_columns();
  shapes.emplace_back(
      "cross-join",
      ProjectPlan(CrossJoinPlan(ScanPlan(Req("NATION", now)),
                                ScanPlan(Req("REGION", now)),
                                Eq(Col(nation::kRegionKey),
                                   Col(nw + region::kRegionKey))),
                  {Col(nation::kName), Col(nw + region::kName)}));
  return shapes;
}

TEST(OptimizerTest, EveryRuleIsResultPreservingOnEveryEngine) {
  // The composite query: pushdown, folding, temporal rewrite and pruning
  // all fire in one tree; the result must survive on all four systems.
  for (const char* letter : {"A", "B", "C", "D"}) {
    WorkloadContext& ctx = Workload(letter);
    TemporalEngine& eng = ctx.eng();
    const int width = eng.ScanSchema("ORDERS").num_columns();
    const Value t(ctx.sys_mid.micros());
    PlanPtr plan = ProjectPlan(
        FilterPlan(
            HashJoinPlan(
                ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                FilterPlan(ScanPlan(Req("ORDERS", FullHistory())),
                           And(Le(Col(width - 2), Lit(t)),
                               Gt(Col(width - 1), Lit(t)))),
                {customer::kCustKey}, {orders::kCustKey}, 14),
            And(Gt(Col(customer::kAcctBal), Lit(0.0)),
                Gt(Col(11 + orders::kTotalPrice), Lit(1000.0)))),
        {Col(customer::kCustKey), Col(11 + orders::kTotalPrice)});
    OptimizerReport rep;
    auto [before, after] = CheckPreserves(&plan, eng, &rep);
    EXPECT_GT(rep.predicates_pushed, 0) << letter;
    EXPECT_EQ(1, rep.temporal_rewrites) << letter;
    EXPECT_GT(rep.scans_pruned, 0) << letter;
    EXPECT_LE(after, before) << letter;

    // Joins whose parents read part of the row: each join assembles only
    // the demanded cells, and the result does not move. The served shape,
    // an Aggregate over the AS OF join, also gets its build side flipped.
    {
      SCOPED_TRACE(std::string(letter) + "/served-as-of-join");
      PlanPtr served = ServedJoin(ctx);
      CheckServedJoin(ctx, &served, nullptr);
      const PlanNode* join = FindJoin(*served);
      ASSERT_NE(nullptr, join);
      EXPECT_TRUE(join->emit.has_value());
    }
    for (auto& [label, shape] : PartialDemandJoins(ctx)) {
      SCOPED_TRACE(std::string(letter) + "/" + label);
      CheckPreserves(&shape, eng, nullptr);
      const PlanNode* join = FindJoin(*shape);
      ASSERT_NE(nullptr, join);
      EXPECT_TRUE(join->emit.has_value());
    }
  }
}

// EXPLAIN of AtMid(`query`) as the server returns it.
std::string Explain(WorkloadContext& ctx, const std::string& query) {
  const std::string text = AtMid(ctx, query);
  sql::SqlResult result;
  Status st = sql::ExecuteSql(ctx.eng(), "EXPLAIN " + text, &result);
  EXPECT_TRUE(st.ok()) << st.ToString() << ": " << text;
  if (!st.ok() || result.rows.empty()) return "";
  return result.rows[0][0].AsString();
}

// Every hash join of the tree builds the side `build_left` says.
void ExpectBuildSides(const PlanNode& n, bool build_left,
                      const std::string& what) {
  if (n.kind == PlanNode::Kind::kHashJoin) {
    EXPECT_EQ(build_left, n.build_left) << what;
  }
  for (const PlanPtr& c : n.children) ExpectBuildSides(*c, build_left, what);
}

TEST(OptimizerTest, BuildSideRuleBuildsTheServedJoinOnCustomerEverywhere) {
  // CUSTOMER stores far fewer versions than ORDERS, and the totals are the
  // same on every engine: all four build the served join on its left
  // input, and EXPLAIN says so.
  for (const char* letter : {"A", "B", "C", "D"}) {
    SCOPED_TRACE(letter);
    WorkloadContext& ctx = Workload(letter);
    TemporalEngine& eng = ctx.eng();
    const TableStats c = eng.GetTableStats("CUSTOMER");
    const TableStats o = eng.GetTableStats("ORDERS");
    EXPECT_LT(c.current_rows + c.history_rows + c.pending_undo,
              o.current_rows + o.history_rows + o.pending_undo);
    PlanPtr plan = ServedJoin(ctx);
    OptimizerReport rep;
    OptimizePlan(&plan, eng, &rep);
    EXPECT_EQ(1, rep.builds_left);
    ExpectBuildSides(*plan, true, letter);
    const std::string json = Explain(ctx, kServedJoin);
    EXPECT_NE(std::string::npos, json.find("\"builds_left\":1")) << json;
    EXPECT_NE(std::string::npos, json.find("\"build\":\"left\"")) << json;
    // Written ORDERS-first, the join already builds its smaller input.
    PlanPtr swapped = SqlPlan(ctx, kServedJoinOrdersFirst);
    OptimizePlan(&swapped, eng, &rep);
    ExpectBuildSides(*swapped, false, std::string(letter) + " swapped");
  }
}

TEST(OptimizerTest, BuildSideRuleKeepsJoinsWhoseRowOrderShows) {
  WorkloadContext& ctx = Workload("C");
  TemporalEngine& eng = ctx.eng();
  const std::vector<std::pair<std::string, std::string>> kept = {
      // The joined rows themselves reach the result.
      {"no-aggregate",
       "SELECT C_NAME, O_TOTALPRICE FROM CUSTOMER FOR SYSTEM_TIME AS OF {t} "
       "c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o ON C_CUSTKEY = O_CUSTKEY"},
      // Groups come out in first-seen order (R6's shape).
      {"grouped-unsorted",
       "SELECT C_NATIONKEY, COUNT(*) FROM CUSTOMER FOR SYSTEM_TIME AS OF {t} "
       "c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o ON C_CUSTKEY = O_CUSTKEY "
       "GROUP BY C_NATIONKEY"},
      // The Sort leaves ties between groups in first-seen order.
      {"sort-on-some-groups",
       "SELECT C_NATIONKEY, C_MKTSEGMENT, COUNT(*) FROM CUSTOMER FOR "
       "SYSTEM_TIME AS OF {t} c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o ON "
       "C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY, C_MKTSEGMENT "
       "ORDER BY C_NATIONKEY"},
      // DISTINCT keeps first occurrences, in row order.
      {"distinct",
       "SELECT DISTINCT C_NATIONKEY FROM CUSTOMER FOR SYSTEM_TIME AS OF {t} "
       "c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o ON C_CUSTKEY = O_CUSTKEY"},
  };
  for (const auto& [label, text] : kept) {
    PlanPtr plan = SqlPlan(ctx, text);
    OptimizerReport rep;
    CheckPreserves(&plan, eng, &rep);
    EXPECT_EQ(0, rep.builds_left) << label;
    ExpectBuildSides(*plan, false, label);
    EXPECT_EQ(std::string::npos,
              Explain(ctx, text).find("\"build\":\"left\""))
        << label;
  }
  // A left outer join under an ungrouped aggregate: the padding needs the
  // right input as build side.
  PlanPtr outer = AggregatePlan(
      HashJoinPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                   ScanPlan(Req("ORDERS", TemporalScanSpec::Current())),
                   {customer::kCustKey}, {orders::kCustKey}, 14,
                   JoinType::kLeftOuter),
      {}, {{AggKind::kCount, nullptr}});
  OptimizerReport rep;
  CheckPreserves(&outer, eng, &rep);
  EXPECT_EQ(0, rep.builds_left);
  ExpectBuildSides(*outer, false, "left-outer");
  // The same inner join under the same aggregate flips.
  PlanPtr inner = AggregatePlan(
      HashJoinPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                   ScanPlan(Req("ORDERS", TemporalScanSpec::Current())),
                   {customer::kCustKey}, {orders::kCustKey}, 14),
      {}, {{AggKind::kCount, nullptr}});
  CheckPreserves(&inner, eng, &rep);
  EXPECT_EQ(1, rep.builds_left);
  ExpectBuildSides(*inner, true, "inner");
}

TEST(OptimizerTest, WorkloadJoinsKeepTheirBuildSide) {
  // R5 (DISTINCT), R6 (GROUP BY without ORDER BY), B3 (DISTINCT), T3 and
  // R1 (joined rows returned) keep building their right input.
  WorkloadContext& ctx = Workload("B");
  TemporalEngine& eng = ctx.eng();
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"R5", QuerySql(eng, "R5", {}, {Value(5000.0), Value(100000.0)})},
      {"R6", QuerySql(eng, "R6")},
      {"B3", B3Sql(eng, 0, 1, ctx.app_mid, ctx.sys_mid)},
      {"T3", QuerySql(eng, "T3", {},
                      {Value(ctx.app_mid), Value(ctx.app_mid + 30)})},
      {"R1", QuerySql(eng, "R1")},
  };
  for (const auto& [label, text] : queries) {
    const std::string json = Explain(ctx, text);
    EXPECT_NE(std::string::npos, json.find("\"build\":\"right\"")) << label;
    EXPECT_EQ(std::string::npos, json.find("\"build\":\"left\"")) << label;
  }
}

TEST(OptimizerTest, ScanFoldsShowOnTheScanAndKeepRowsExamined) {
  // T2, both T6 slices and T8 fold their AVG/COUNT into the ORDERS scan,
  // T8's strict conjunct runs there as the residual, and nothing is left
  // between the Aggregate and the Scan. The folded plan examines exactly
  // the versions the unoptimized one does and returns the same bytes.
  for (const char* letter : {"A", "B", "C", "D"}) {
    WorkloadContext& ctx = Workload(letter);
    TemporalEngine& eng = ctx.eng();
    const TemporalSelector sys = TemporalSelector::AsOf(ctx.sys_mid.micros());
    const TemporalSelector app = TemporalSelector::AsOf(ctx.app_mid);
    const std::vector<std::pair<std::string, std::string>> queries = {
        {"T2", QuerySql(eng, "T2", {sys, app})},
        {"T6-app", QuerySql(eng, "T2", {TemporalSelector::All(), app})},
        {"T6-sys", QuerySql(eng, "T2", {sys, TemporalSelector::All()})},
        {"T8", QuerySql(eng, "T8", {sys, TemporalSelector::ImplicitCurrent()},
                        {Value(ctx.app_mid)})},
    };
    for (const auto& [label, text] : queries) {
      SCOPED_TRACE(std::string(letter) + "/" + label);
      const std::string json = Explain(ctx, text);
      EXPECT_NE(std::string::npos, json.find("\"aggregates_folded\":1"))
          << json;
      EXPECT_NE(std::string::npos,
                json.find("\"aggregates\":[\"AVG(col3)\",\"COUNT("))
          << json;
      EXPECT_NE(std::string::npos,
                json.find("\"node\":\"Aggregate\",\"group_cols\":0,"
                          "\"aggregates\":2,\"rows_output\":1,"
                          "\"children\":[{\"node\":\"Scan\""))
          << json;
      EXPECT_EQ(std::string::npos, json.find("\"node\":\"Filter\""))
          << json;
      EXPECT_EQ(label == "T8", json.find("\"residual\":\"(col9 > ") !=
                                   std::string::npos)
          << json;
      PlanPtr plan = SqlPlan(ctx, text);
      auto [before, after] = CheckPreserves(&plan, eng, nullptr);
      EXPECT_EQ(before, after);
    }
    // The served join, R5, R6 and the served per-customer counts are
    // grouped: they keep their Aggregate pipelines and their build sides.
    const std::vector<std::pair<std::string, std::string>> grouped = {
        {"served-join", kServedJoin},
        {"R5", QuerySql(eng, "R5", {}, {Value(5000.0), Value(100000.0)})},
        {"R6", QuerySql(eng, "R6")},
        {"served-groups",
         "SELECT O_CUSTKEY, COUNT(*) FROM ORDERS FOR SYSTEM_TIME AS OF {t} "
         "GROUP BY O_CUSTKEY"},
    };
    for (const auto& [label, text] : grouped) {
      SCOPED_TRACE(std::string(letter) + "/" + label);
      const std::string json = Explain(ctx, text);
      EXPECT_NE(std::string::npos, json.find("\"aggregates_folded\":0"))
          << json;
      EXPECT_EQ(std::string::npos, json.find("\"aggregates\":[")) << json;
    }
    EXPECT_NE(std::string::npos,
              Explain(ctx, kServedJoin).find("\"build\":\"left\""));
  }
}

}  // namespace
}  // namespace bih
