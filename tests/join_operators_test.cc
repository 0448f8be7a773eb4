// Join-operator equivalence and golden-answer checks for the temporal
// TPC-H queries on a hand-verifiable configuration.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/plan.h"
#include "workload/tpch_queries.h"
#include "tpch/schema.h"

namespace bih {
namespace {

Row R(std::initializer_list<Value> vals) { return Row(vals); }

Rows Canonical(Rows rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

TEST(MergeJoinTest, MatchesHashJoinOnRandomInputs) {
  auto engine = MakeEngine("A");
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    Rows left, right;
    for (int i = 0; i < 60; ++i) {
      left.push_back(R({Value(rng.UniformInt(0, 15)),
                        Value(double(rng.UniformInt(0, 100)))}));
      right.push_back(R({Value(rng.UniformInt(0, 15)), Value("r")}));
    }
    Rows hash = Canonical(RunPlan(
        *HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0}, 2),
        *engine));
    Rows merge = Canonical(RunPlan(
        *MergeJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0}),
        *engine));
    ASSERT_EQ(hash.size(), merge.size()) << "trial " << trial;
    for (size_t i = 0; i < hash.size(); ++i) {
      for (size_t c = 0; c < hash[i].size(); ++c) {
        ASSERT_EQ(0, hash[i][c].Compare(merge[i][c]));
      }
    }
  }
}

TEST(MergeJoinTest, ResidualAndNullKeys) {
  Rows left{R({Value(int64_t{1}), Value(int64_t{10})}),
            R({Value::Null(), Value(int64_t{5})})};
  Rows right{R({Value(int64_t{1}), Value(int64_t{20})}),
             R({Value(int64_t{1}), Value(int64_t{5})}),
             R({Value::Null(), Value(int64_t{7})})};
  auto engine = MakeEngine("A");
  Rows out = RunPlan(*MergeJoinPlan(ValuesPlan(left), ValuesPlan(right),
                                    {0}, {0}, Lt(Col(1), Col(3))),
                     *engine);
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(20, out[0][3].AsInt());
}

TEST(IndexJoinPlanTest, ProbesEngineWithKeyLookups) {
  auto engine = MakeEngine("A");
  TableDef def;
  def.name = "T";
  def.schema = Schema({{"K", ColumnType::kInt}, {"V", ColumnType::kDouble}});
  def.primary_key = {0};
  def.system_versioned = true;
  ASSERT_TRUE(engine->CreateTable(def).ok());
  for (int64_t k = 1; k <= 50; ++k) {
    ASSERT_TRUE(engine->Insert("T", {Value(k), Value(double(k) * 10)}).ok());
  }
  Rows probes{R({Value(int64_t{3})}), R({Value(int64_t{42})}),
              R({Value(int64_t{99})}), R({Value::Null()})};
  // The node reports its own probes' counters with or without a context.
  QueryContext query_ctx;
  for (QueryContext* ctx : {static_cast<QueryContext*>(nullptr), &query_ctx}) {
    SCOPED_TRACE(ctx == nullptr ? "no context" : "with context");
    PlanPtr plan = IndexJoinPlan(ValuesPlan(probes), {0}, "T", {0},
                                 TemporalScanSpec::Current());
    Rows out;
    ASSERT_TRUE(Execute(*plan, *engine, ExecOptions{}, ctx, &out).ok());
    ASSERT_EQ(2u, out.size());  // 99 misses, NULL skipped
    std::set<int64_t> keys{out[0][0].AsInt(), out[1][0].AsInt()};
    EXPECT_EQ((std::set<int64_t>{3, 42}), keys);
    EXPECT_DOUBLE_EQ(out[0][0].AsInt() == 3 ? 30.0 : 420.0,
                     out[0][2].AsDouble());
    // The engine's key index served the probes; the node keeps the last
    // probe's counters, the key-99 miss (the NULL key is never probed).
    const ExecStats& last = plan->stats.scan;
    EXPECT_TRUE(last.used_index);
    EXPECT_EQ("pk_current(T)", last.index_name);
    EXPECT_EQ(0u, last.rows_examined);
    EXPECT_EQ(0u, last.rows_output);
  }
}

// Golden-answer tests: a fixed tiny workload where the expected values are
// verified by construction against the generator's own bookkeeping.
class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (ctx_ != nullptr) return;
    WorkloadConfig cfg;
    cfg.engine_letter = "A";
    cfg.h = 0.001;
    cfg.m = 0.001;
    cfg.seed = 123;
    ctx_ = new WorkloadContext(BuildWorkload(cfg));
  }
  static WorkloadContext* ctx_;
};

WorkloadContext* GoldenTest::ctx_ = nullptr;

TEST_F(GoldenTest, Q1MatchesDirectComputation) {
  // Recompute the Q1 aggregates straight from the end-state rows.
  const int64_t cutoff = Date::FromYMD(1998, 9, 2).days();
  std::map<std::pair<std::string, std::string>, std::pair<double, int64_t>>
      expect;  // (rf, ls) -> (sum qty, count)
  for (const Row& r : ctx_->end_state.lineitem) {
    if (r[lineitem::kShipDate].AsInt() > cutoff) continue;
    auto& slot = expect[{r[lineitem::kReturnFlag].AsString(),
                         r[lineitem::kLineStatus].AsString()}];
    slot.first += r[lineitem::kQuantity].AsDouble();
    ++slot.second;
  }
  Rows got = TpchQuery(1, *ctx_->engine, TemporalScanSpec::Current());
  ASSERT_EQ(expect.size(), got.size());
  for (const Row& r : got) {
    auto it = expect.find({r[0].AsString(), r[1].AsString()});
    ASSERT_TRUE(it != expect.end());
    EXPECT_NEAR(it->second.first, r[2].AsDouble(), 1e-6);
    EXPECT_EQ(it->second.second, r[9].AsInt());
  }
}

TEST_F(GoldenTest, Q6MatchesDirectComputation) {
  double expect = 0;
  const int64_t lo = Date::FromYMD(1994, 1, 1).days();
  const int64_t hi = Date::FromYMD(1995, 1, 1).days();
  for (const Row& r : ctx_->end_state.lineitem) {
    int64_t ship = r[lineitem::kShipDate].AsInt();
    double disc = r[lineitem::kDiscount].AsDouble();
    if (ship >= lo && ship < hi && disc >= 0.05 - 1e-9 && disc <= 0.07 + 1e-9 &&
        r[lineitem::kQuantity].AsDouble() < 24.0) {
      expect += r[lineitem::kExtendedPrice].AsDouble() * disc;
    }
  }
  Rows got = TpchQuery(6, *ctx_->engine, TemporalScanSpec::Current());
  ASSERT_EQ(1u, got.size());
  if (expect == 0) {
    EXPECT_TRUE(got[0][0].is_null());
  } else {
    EXPECT_NEAR(expect, got[0][0].AsDouble(), 1e-6 * expect);
  }
}

TEST_F(GoldenTest, Q4CountsMatchDirectComputation) {
  // Orders placed in 1993 Q3 that have at least one late lineitem.
  const int64_t lo = Date::FromYMD(1993, 7, 1).days();
  const int64_t hi = Date::FromYMD(1993, 10, 1).days();
  std::set<int64_t> late_orders;
  for (const Row& r : ctx_->end_state.lineitem) {
    if (r[lineitem::kCommitDate].AsInt() < r[lineitem::kReceiptDate].AsInt()) {
      late_orders.insert(r[lineitem::kOrderKey].AsInt());
    }
  }
  std::map<std::string, int64_t> expect;
  for (const Row& r : ctx_->end_state.orders) {
    int64_t od = r[orders::kOrderDate].AsInt();
    if (od >= lo && od < hi &&
        late_orders.count(r[orders::kOrderKey].AsInt())) {
      ++expect[r[orders::kOrderPriority].AsString()];
    }
  }
  Rows got = TpchQuery(4, *ctx_->engine, TemporalScanSpec::Current());
  ASSERT_EQ(expect.size(), got.size());
  for (const Row& r : got) {
    EXPECT_EQ(expect[r[0].AsString()], r[1].AsInt()) << r[0].AsString();
  }
}

}  // namespace
}  // namespace bih
