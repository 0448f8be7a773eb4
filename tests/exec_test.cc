#include <gtest/gtest.h>

#include "exec/expr.h"
#include "exec/plan.h"

namespace bih {
namespace {

Row R(std::initializer_list<Value> vals) { return Row(vals); }

// The Values-only trees below never touch the engine; one instance serves
// every test as the Execute() anchor.
Rows RunTree(PlanPtr plan) {
  static TemporalEngine* engine = MakeEngine("A").release();
  return RunPlan(*plan, *engine);
}

TEST(ExprTest, ArithmeticIntAndDouble) {
  Row row{Value(int64_t{6}), Value(7.0)};
  EXPECT_EQ(13, Add(Col(0), Col(1))->Eval(row).AsDouble());
  EXPECT_EQ(42.0, Mul(Col(0), Col(1))->Eval(row).AsDouble());
  EXPECT_EQ(12, Add(Col(0), Col(0))->Eval(row).AsInt());
  EXPECT_DOUBLE_EQ(6.0 / 7.0, Div(Col(0), Col(1))->Eval(row).AsDouble());
}

TEST(ExprTest, DivisionByZeroIsNull) {
  Row row{Value(1.0), Value(0.0)};
  EXPECT_TRUE(Div(Col(0), Col(1))->Eval(row).is_null());
}

TEST(ExprTest, Comparisons) {
  Row row{Value(int64_t{5}), Value(int64_t{7})};
  EXPECT_EQ(1, Lt(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(0, Gt(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Ne(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Le(Col(0), Col(0))->Eval(row).AsInt());
}

TEST(ExprTest, NullPropagationInFilters) {
  Row row{Value::Null(), Value(int64_t{1})};
  EXPECT_TRUE(Eq(Col(0), Col(1))->Eval(row).is_null());
  EXPECT_FALSE(Eq(Col(0), Col(1))->Test(row));  // NULL -> filtered out
  EXPECT_TRUE(IsNull(Col(0))->Test(row));
  EXPECT_FALSE(IsNull(Col(1))->Test(row));
}

TEST(ExprTest, BooleanShortCircuit) {
  Row row{Value(int64_t{1}), Value(int64_t{0})};
  EXPECT_EQ(1, Or(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(0, And(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Not(Col(1))->Eval(row).AsInt());
}

TEST(ExprTest, StringPredicates) {
  Row row{Value("PROMO BRUSHED STEEL")};
  EXPECT_TRUE(StartsWith(Col(0), Lit("PROMO"))->Test(row));
  EXPECT_FALSE(StartsWith(Col(0), Lit("STEEL"))->Test(row));
  EXPECT_TRUE(Contains(Col(0), Lit("BRUSHED"))->Test(row));
  EXPECT_FALSE(Contains(Col(0), Lit("POLISHED"))->Test(row));
}

TEST(ExprTest, BetweenAndYear) {
  Row row{Value(Date::FromYMD(1994, 5, 3))};
  EXPECT_EQ(1994, YearOf(Col(0))->Eval(row).AsInt());
  EXPECT_TRUE(Between(Col(0), Lit(Value(Date::FromYMD(1994, 1, 1))),
                      Lit(Value(Date::FromYMD(1994, 12, 31))))
                  ->Test(row));
}

TEST(PlanTest, FilterAndProject) {
  Rows in{R({Value(int64_t{1}), Value(2.0)}), R({Value(int64_t{5}), Value(3.0)})};
  Rows f = RunTree(FilterPlan(ValuesPlan(in), Gt(Col(0), Lit(int64_t{2}))));
  ASSERT_EQ(1u, f.size());
  Rows p = RunTree(ProjectPlan(ValuesPlan(f), {Mul(Col(1), Lit(2.0))}));
  EXPECT_DOUBLE_EQ(6.0, p[0][0].AsDouble());
}

TEST(PlanTest, HashJoinInner) {
  Rows left{R({Value(int64_t{1}), Value("a")}), R({Value(int64_t{2}), Value("b")}),
            R({Value(int64_t{3}), Value("c")})};
  Rows right{R({Value(int64_t{2}), Value(20.0)}),
             R({Value(int64_t{2}), Value(21.0)}),
             R({Value(int64_t{3}), Value(30.0)})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right),
                              {0}, {0}, 2));
  ASSERT_EQ(3u, out.size());
  for (const Row& r : out) {
    EXPECT_EQ(0, r[0].Compare(r[2]));
    EXPECT_EQ(4u, r.size());
  }
}

TEST(PlanTest, HashJoinLeftOuterPadsNulls) {
  Rows left{R({Value(int64_t{1})}), R({Value(int64_t{2})})};
  Rows right{R({Value(int64_t{2}), Value("x")})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                              2, JoinType::kLeftOuter));
  ASSERT_EQ(2u, out.size());
  const Row& unmatched = out[0][0].AsInt() == 1 ? out[0] : out[1];
  EXPECT_TRUE(unmatched[1].is_null());
  EXPECT_TRUE(unmatched[2].is_null());
}

TEST(PlanTest, HashJoinResidualPredicate) {
  Rows left{R({Value(int64_t{1}), Value(int64_t{10})})};
  Rows right{R({Value(int64_t{1}), Value(int64_t{5})}),
             R({Value(int64_t{1}), Value(int64_t{20})})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                              2, JoinType::kInner, Lt(Col(1), Col(3))));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(20, out[0][3].AsInt());
}

TEST(PlanTest, NullKeysNeverJoin) {
  Rows left{R({Value::Null(), Value(int64_t{1})})};
  Rows right{R({Value::Null(), Value(int64_t{2})})};
  EXPECT_TRUE(RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right),
                               {0}, {0}, 2))
                  .empty());
}

TEST(PlanTest, HashJoinKeepsBuildOrderWithinAKey) {
  Rows left{R({Value(int64_t{2}), Value("b")}),
            R({Value(int64_t{1}), Value("a")})};
  Rows right{R({Value(int64_t{2}), Value(20.0)}),
             R({Value(int64_t{1}), Value(10.0)}),
             R({Value(int64_t{2}), Value(21.0)}),
             R({Value(int64_t{2}), Value(22.0)})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0},
                                  {0}, 2));
  ASSERT_EQ(4u, out.size());
  const double want[] = {20.0, 21.0, 22.0, 10.0};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(want[i], out[i][3].AsDouble()) << "row " << i;
  }
}

// A join narrowed to the cells read above it (PlanNode::emit) writes only
// those; the others stay NULL, padding included.
TEST(PlanTest, JoinsAssembleOnlyTheEmittedCells) {
  Rows left{R({Value(int64_t{1}), Value(int64_t{10}), Value("l1")}),
            R({Value(int64_t{2}), Value(int64_t{10}), Value("l2")})};
  Rows right{R({Value(int64_t{1}), Value(int64_t{5}), Value("r1")}),
             R({Value(int64_t{1}), Value(int64_t{6}), Value("r2")}),
             R({Value(int64_t{2}), Value(int64_t{50}), Value("r3")})};
  // The residual rejects both matches of key 1, so that left row is
  // padded after right cells were written for it.
  PlanPtr hash = HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                              3, JoinType::kLeftOuter, Lt(Col(1), Col(4)));
  hash->emit = std::vector<int>{0, 1, 3, 4, 5};
  hash->left_width = 3;
  Rows out = RunTree(std::move(hash));
  ASSERT_EQ(2u, out.size());
  for (const Row& r : out) {
    ASSERT_EQ(6u, r.size());
    EXPECT_TRUE(r[2].is_null());
  }
  EXPECT_EQ(1, out[0][0].AsInt());
  EXPECT_TRUE(out[0][3].is_null());
  EXPECT_TRUE(out[0][4].is_null());
  EXPECT_TRUE(out[0][5].is_null());
  EXPECT_EQ(50, out[1][4].AsInt());
  EXPECT_EQ("r3", out[1][5].AsString());

  for (bool merge : {false, true}) {
    PlanPtr join = merge ? MergeJoinPlan(ValuesPlan(left), ValuesPlan(right),
                                         {0}, {0})
                         : CrossJoinPlan(ValuesPlan(left), ValuesPlan(right),
                                         Eq(Col(0), Col(3)));
    // The residual's columns belong to the demand, as the optimizer
    // records it.
    join->emit = std::vector<int>{0, 2, 3, 4};
    join->left_width = 3;
    Rows rows = RunTree(std::move(join));
    ASSERT_EQ(3u, rows.size()) << merge;
    const int64_t want[] = {5, 6, 50};
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(6u, rows[i].size());
      for (size_t c : {1u, 5u}) {
        EXPECT_TRUE(rows[i][c].is_null()) << merge << " row " << i;
      }
      EXPECT_EQ(want[i], rows[i][4].AsInt()) << merge << " row " << i;
    }
    EXPECT_EQ("l1", rows[0][2].AsString());
    EXPECT_EQ("l2", rows[2][2].AsString());
  }
}

TEST(PlanTest, AggregateKinds) {
  Rows in{R({Value("g"), Value(1.0)}), R({Value("g"), Value(3.0)}),
          R({Value("h"), Value(5.0)}), R({Value("g"), Value(3.0)})};
  Rows out = RunTree(SortPlan(
      AggregatePlan(ValuesPlan(in), {0},
                    {{AggKind::kSum, Col(1)},
                     {AggKind::kAvg, Col(1)},
                     {AggKind::kMin, Col(1)},
                     {AggKind::kMax, Col(1)},
                     {AggKind::kCount, nullptr},
                     {AggKind::kCountDistinct, Col(1)}}),
      {SortSpec{Col(0), true}}));
  ASSERT_EQ(2u, out.size());
  EXPECT_DOUBLE_EQ(7.0, out[0][1].AsDouble());
  EXPECT_DOUBLE_EQ(7.0 / 3.0, out[0][2].AsDouble());
  EXPECT_DOUBLE_EQ(1.0, out[0][3].AsDouble());
  EXPECT_DOUBLE_EQ(3.0, out[0][4].AsDouble());
  EXPECT_EQ(3, out[0][5].AsInt());
  EXPECT_EQ(2, out[0][6].AsInt());
}

TEST(PlanTest, GlobalAggregateOnEmptyInput) {
  Rows out = RunTree(AggregatePlan(ValuesPlan({}), {},
                               {{AggKind::kCount, nullptr},
                                {AggKind::kSum, Col(0)}}));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(0, out[0][0].AsInt());
  EXPECT_TRUE(out[0][1].is_null());  // SUM over nothing is NULL
}

TEST(PlanTest, AggregateSkipsNulls) {
  Rows in{R({Value(1.0)}), R({Value::Null()})};
  Rows out = RunTree(AggregatePlan(ValuesPlan(in), {},
                               {{AggKind::kCount, Col(0)},
                                {AggKind::kAvg, Col(0)}}));
  EXPECT_EQ(1, out[0][0].AsInt());
  EXPECT_DOUBLE_EQ(1.0, out[0][1].AsDouble());
}

TEST(PlanTest, SortMultiKeyAndStability) {
  Rows in{R({Value(int64_t{1}), Value("b")}), R({Value(int64_t{2}), Value("a")}),
          R({Value(int64_t{1}), Value("a")})};
  Rows out = RunTree(SortPlan(ValuesPlan(in), {SortSpec{Col(0), true},
                                           SortSpec{Col(1), false}}));
  EXPECT_EQ("b", out[0][1].AsString());
  EXPECT_EQ("a", out[1][1].AsString());
  EXPECT_EQ(2, out[2][0].AsInt());
}

TEST(PlanTest, LimitAndDistinct) {
  Rows in{R({Value(int64_t{1})}), R({Value(int64_t{1})}), R({Value(int64_t{2})})};
  EXPECT_EQ(2u, RunTree(LimitPlan(ValuesPlan(in), 2)).size());
  EXPECT_EQ(2u, RunTree(DistinctPlan(ValuesPlan(in))).size());
  EXPECT_EQ(3u, RunTree(LimitPlan(ValuesPlan(in), 99)).size());
}

TEST(PlanTest, FormatRowsTruncates) {
  Rows in;
  for (int i = 0; i < 30; ++i) in.push_back(R({Value(int64_t{i})}));
  std::string s = FormatRows(in, {"n"}, 5);
  EXPECT_NE(std::string::npos, s.find("25 more"));
}

}  // namespace
}  // namespace bih
