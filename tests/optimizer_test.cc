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

// The join the served history_analytics workload asks for: revenue by
// nation over CUSTOMER and ORDERS, both AS OF the middle of the history.
// Unoptimized, as the SQL layer plans it.
PlanPtr ServedJoin(WorkloadContext& ctx) {
  const std::string t = std::to_string(ctx.sys_mid.micros());
  sql::SelectStatement stmt;
  EXPECT_TRUE(sql::ParseSelect(
                  "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM "
                  "CUSTOMER FOR SYSTEM_TIME AS OF " + t +
                      " c JOIN ORDERS FOR SYSTEM_TIME AS OF " + t +
                      " o ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY "
                      "ORDER BY C_NATIONKEY",
                  &stmt)
                  .ok());
  PlanPtr plan;
  std::vector<std::string> columns;
  EXPECT_TRUE(sql::PlanSelect(ctx.eng(), stmt, &plan, &columns).ok());
  return plan;
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

TEST(OptimizerTest, StrictBoundsAndNullLiteralsStayInFilter) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan =
      FilterPlan(ScanPlan(Req("CUSTOMER", TemporalScanSpec::Current())),
                 And(Lt(Col(customer::kAcctBal), Lit(5000.0)),
                     Eq(Col(customer::kName), Lit(Value::Null()))));
  OptimizerReport rep;
  CheckPreserves(&plan, eng, &rep);
  EXPECT_EQ(0, rep.conjuncts_folded);
  EXPECT_EQ(PlanNode::Kind::kFilter, plan->kind);
  EXPECT_TRUE(plan->children[0]->scan.equals.empty());
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
  CheckPreserves(&plan, eng, &rep);
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
  // The served shape: an Aggregate over the AS OF join.
  shapes.emplace_back("served-as-of-join", ServedJoin(ctx));
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
    // the demanded cells, and the result does not move.
    for (auto& [label, shape] : PartialDemandJoins(ctx)) {
      SCOPED_TRACE(std::string(letter) + "/" + label);
      CheckPreserves(&shape, eng, nullptr);
      const PlanNode* join = FindJoin(*shape);
      ASSERT_NE(nullptr, join);
      EXPECT_TRUE(join->emit.has_value());
    }
  }
}

}  // namespace
}  // namespace bih
