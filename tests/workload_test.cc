#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "tpch/schema.h"
#include "workload/queries.h"
#include "workload/tpch_queries.h"

namespace bih {
namespace {

// Canonical form for cross-engine comparison: engines emit rows in
// different physical orders, and floating-point aggregates accumulate in
// that order, so results are sorted and doubles compared with tolerance.
Rows Canonical(Rows rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

void ExpectRowsEq(const Rows& a, const Rows& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " row " << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      const Value& x = a[i][c];
      const Value& y = b[i][c];
      if (x.is_double() || y.is_double()) {
        ASSERT_FALSE(x.is_null() != y.is_null()) << what << " " << i << "," << c;
        if (!x.is_null()) {
          double dx = x.AsDouble(), dy = y.AsDouble();
          double tol = 1e-6 * std::max({1.0, std::fabs(dx), std::fabs(dy)});
          ASSERT_NEAR(dx, dy, tol) << what << " row " << i << " col " << c;
        }
      } else {
        ASSERT_EQ(0, x.Compare(y)) << what << " row " << i << " col " << c
                                   << ": " << x.ToString() << " vs "
                                   << y.ToString();
      }
    }
  }
}

// One shared workload, loaded into all four engines.
class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig cfg;
    cfg.engine_letter = "A";
    cfg.h = 0.001;
    cfg.m = 0.002;
    cfg.seed = 77;
    ctx_ = new WorkloadContext(BuildWorkload(cfg));
    engines_ = new std::vector<std::unique_ptr<TemporalEngine>>();
    engines_->push_back(nullptr);  // slot 0: ctx engine (A)
    for (const std::string letter : {"B", "C", "D"}) {
      engines_->push_back(LoadEngine(letter, ctx_->initial, ctx_->history));
    }
  }
  static void TearDownTestSuite() {
    delete engines_;
    delete ctx_;
  }

  static TemporalEngine& Engine(size_t i) {
    return i == 0 ? *ctx_->engine : *(*engines_)[i];
  }
  static const char* Letter(size_t i) {
    static const char* kLetters[4] = {"A", "B", "C", "D"};
    return kLetters[i];
  }

  // Runs `fn` against every engine and expects identical (canonical)
  // results; returns the engine-A result.
  template <typename Fn>
  Rows AllEnginesAgree(const std::string& what, Fn fn) {
    Rows reference = Canonical(fn(Engine(0)));
    for (size_t i = 1; i < 4; ++i) {
      Rows got = Canonical(fn(Engine(i)));
      ExpectRowsEq(reference, got,
                   what + " (A vs " + Letter(i) + ")");
    }
    return reference;
  }

  static WorkloadContext* ctx_;
  static std::vector<std::unique_ptr<TemporalEngine>>* engines_;
};

WorkloadContext* WorkloadTest::ctx_ = nullptr;
std::vector<std::unique_ptr<TemporalEngine>>* WorkloadTest::engines_ = nullptr;

TEST_F(WorkloadTest, QueryAllAgrees) {
  Rows r = AllEnginesAgree("ALL", [&](TemporalEngine& e) {
    return QueryAll(e);
  });
  ASSERT_EQ(1u, r.size());
  EXPECT_GT(r[0][1].AsInt(), 0);
}

TEST_F(WorkloadTest, T1PointPointAgrees) {
  for (auto [sys, app] :
       {std::pair<int64_t, int64_t>{ctx_->sys_end.micros(), ctx_->app_mid},
        {ctx_->sys_v0.micros(), ctx_->app_early},
        {ctx_->sys_mid.micros(), ctx_->app_late}}) {
    AllEnginesAgree("T1", [&, sys = sys, app = app](TemporalEngine& e) {
      return T1(e, TemporalScanSpec::BothAsOf(sys, app));
    });
  }
}

TEST_F(WorkloadTest, T2PointPointAgrees) {
  AllEnginesAgree("T2", [&](TemporalEngine& e) {
    return T2(e, TemporalScanSpec::BothAsOf(ctx_->sys_mid.micros(),
                                            ctx_->app_mid));
  });
}

TEST_F(WorkloadTest, T2CurrentSysVaryingApp) {
  for (int64_t app : {ctx_->app_early, ctx_->app_mid, ctx_->app_late}) {
    Rows r = AllEnginesAgree("T2app", [&, app = app](TemporalEngine& e) {
      return T2(e, TemporalScanSpec::AppAsOf(app));
    });
    ASSERT_EQ(1u, r.size());
  }
}

TEST_F(WorkloadTest, T3TwoTimeTravelsAgrees) {
  AllEnginesAgree("T3", [&](TemporalEngine& e) {
    return T3(e, ctx_->app_early, ctx_->app_late);
  });
}

TEST_F(WorkloadTest, T4EarlyStopReturnsN) {
  for (size_t i = 0; i < 4; ++i) {
    Rows r = T4(Engine(i), TemporalScanSpec::Current(), 5);
    EXPECT_EQ(5u, r.size()) << Letter(i);
  }
}

TEST_F(WorkloadTest, T6SlicesAgree) {
  AllEnginesAgree("T6app", [&](TemporalEngine& e) {
    return T6AppPointSysAll(e, ctx_->app_mid);
  });
  AllEnginesAgree("T6sys", [&](TemporalEngine& e) {
    return T6SysPointAppAll(e, ctx_->sys_mid);
  });
}

TEST_F(WorkloadTest, T7ImplicitEqualsExplicit) {
  for (size_t i = 0; i < 4; ++i) {
    Rows imp = Canonical(T7Implicit(Engine(i)));
    Rows exp = Canonical(T7Explicit(Engine(i)));
    ExpectRowsEq(imp, exp, std::string("T7 on ") + Letter(i));
  }
}

TEST_F(WorkloadTest, T8SimulatedEqualsNativeAppTravel) {
  // The simulated application-time formulation returns the same answer as
  // the native clause (it is only a plan difference).
  for (size_t i = 0; i < 4; ++i) {
    Rows native = T2(Engine(i), TemporalScanSpec::AppAsOf(ctx_->app_mid));
    Rows sim = T8SimulatedAppPoint(Engine(i), ctx_->app_mid,
                                   TemporalSelector::ImplicitCurrent());
    ExpectRowsEq(Canonical(native), Canonical(sim),
                 std::string("T8 on ") + Letter(i));
  }
}

TEST_F(WorkloadTest, K1KeyHistoryAgrees) {
  TemporalScanSpec app_evolution;  // app all, current sys
  app_evolution.app_time = TemporalSelector::All();
  AllEnginesAgree("K1-app", [&](TemporalEngine& e) {
    return K1(e, ctx_->hot_custkey, app_evolution);
  });
  TemporalScanSpec both;
  both.system_time = TemporalSelector::All();
  both.app_time = TemporalSelector::All();
  Rows full = AllEnginesAgree("K1-both", [&](TemporalEngine& e) {
    return K1(e, ctx_->hot_custkey, both);
  });
  EXPECT_GT(full.size(), 1u);  // the hot customer has history
}

TEST_F(WorkloadTest, K2TimeRestrictedIsSubsetOfK1) {
  TemporalScanSpec restricted;
  restricted.system_time =
      TemporalSelector::Between(ctx_->sys_v0.micros(), ctx_->sys_mid.micros());
  restricted.app_time = TemporalSelector::All();
  Rows sub = AllEnginesAgree("K2", [&](TemporalEngine& e) {
    return K2(e, ctx_->hot_custkey, restricted);
  });
  TemporalScanSpec both;
  both.system_time = TemporalSelector::All();
  both.app_time = TemporalSelector::All();
  Rows full = K1(*ctx_->engine, ctx_->hot_custkey, both);
  EXPECT_LE(sub.size(), full.size());
}

TEST_F(WorkloadTest, K3SingleColumnAgrees) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  Rows r = AllEnginesAgree("K3", [&](TemporalEngine& e) {
    return K3(e, ctx_->hot_custkey, spec);
  });
  if (!r.empty()) {
    EXPECT_EQ(2u, r[0].size());
  }
}

TEST_F(WorkloadTest, K4TopNVersions) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  for (size_t i = 0; i < 4; ++i) {
    Rows top = K4(Engine(i), ctx_->hot_custkey, spec, 3);
    EXPECT_LE(top.size(), 3u);
    // Versions are the latest ones, in descending system-time order.
    const int sys_from =
        Engine(i).GetTableDef("CUSTOMER").schema.num_columns();
    for (size_t j = 1; j < top.size(); ++j) {
      EXPECT_GE(top[j - 1][sys_from].AsInt(), top[j][sys_from].AsInt());
    }
  }
}

TEST_F(WorkloadTest, K5PreviousVersionAgrees) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  AllEnginesAgree("K5", [&](TemporalEngine& e) {
    return K5(e, ctx_->hot_custkey, spec);
  });
}

TEST_F(WorkloadTest, K6ValueInTimeAgrees) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  AllEnginesAgree("K6", [&](TemporalEngine& e) {
    return K6(e, 9000.0, spec);
  });
}

TEST_F(WorkloadTest, R1StateChangesAgree) {
  Rows r = AllEnginesAgree("R1", [&](TemporalEngine& e) { return R1(e); });
  // Deliveries and payments happened, so state changes exist.
  EXPECT_GT(r.size(), 0u);
}

TEST_F(WorkloadTest, R2StateDurationsAgree) {
  AllEnginesAgree("R2", [&](TemporalEngine& e) { return R2(e); });
}

TEST_F(WorkloadTest, R3NaiveMatchesTimelineSweep) {
  // The quadratic SQL:2011 formulation and the timeline operator must
  // produce the same aggregate at every boundary the naive version reports.
  Rows naive = R3(*ctx_->engine, TemporalAggKind::kCount, /*naive=*/true);
  Rows sweep = R3(*ctx_->engine, TemporalAggKind::kCount, /*naive=*/false);
  ASSERT_FALSE(naive.empty());
  ASSERT_FALSE(sweep.empty());
  size_t si = 0;
  for (const Row& n : naive) {
    int64_t t = n[0].AsInt();
    while (si < sweep.size() && sweep[si][1].AsInt() <= t) ++si;
    // sweep[si] covers t: [begin, end)
    ASSERT_LT(si, sweep.size());
    ASSERT_LE(sweep[si][0].AsInt(), t);
    EXPECT_DOUBLE_EQ(sweep[si][2].AsDouble(), n[1].AsDouble()) << "t=" << t;
  }
}

TEST_F(WorkloadTest, R4StockDifferencesAgree) {
  Rows r = AllEnginesAgree("R4", [&](TemporalEngine& e) {
    return R4(e, 10);
  });
  EXPECT_LE(r.size(), 10u);
}

TEST_F(WorkloadTest, R5TemporalJoinAgrees) {
  AllEnginesAgree("R5", [&](TemporalEngine& e) {
    return R5(e, 5000.0, 100000.0);
  });
}

TEST_F(WorkloadTest, R6AggregationJoinAgrees) {
  AllEnginesAgree("R6", [&](TemporalEngine& e) { return R6(e); });
}

TEST_F(WorkloadTest, R7PriceRaisesAgree) {
  Rows r = AllEnginesAgree("R7", [&](TemporalEngine& e) {
    return R7(e, 7.5);
  });
  // The "Change Price by Supplier" scenario raises by up to 10 percent, so
  // some suppliers qualify.
  EXPECT_GT(r.size(), 0u);
}

TEST_F(WorkloadTest, B3VariantsAgreeAcrossEngines) {
  const int64_t partkey = 55 % static_cast<int64_t>(ctx_->initial.part.size()) + 1;
  for (int variant = 0; variant <= 11; ++variant) {
    AllEnginesAgree("B3." + std::to_string(variant),
                    [&](TemporalEngine& e) {
                      return B3(e, variant, partkey, ctx_->app_mid,
                                ctx_->sys_mid);
                    });
  }
}

TEST_F(WorkloadTest, B3AgnosticSupersetOfPoint) {
  const int64_t partkey = 55 % static_cast<int64_t>(ctx_->initial.part.size()) + 1;
  Rows point = B3(*ctx_->engine, 1, partkey, ctx_->app_mid, ctx_->sys_mid);
  Rows agnostic = B3(*ctx_->engine, 11, partkey, ctx_->app_mid, ctx_->sys_mid);
  EXPECT_GE(agnostic.size(), point.size());
}

// The string value of `"key":"..."` in one EXPLAIN node.
std::string JsonField(const std::string& node, const std::string& key) {
  const std::string tag = "\"" + key + "\":\"";
  size_t p = node.find(tag);
  if (p == std::string::npos) return "";
  p += tag.size();
  return node.substr(p, node.find('"', p) - p);
}

// The integer value of `"key":N` in an EXPLAIN document, or -1.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  size_t p = json.find(tag);
  return p == std::string::npos
             ? -1
             : std::strtoll(json.c_str() + p + tag.size(), nullptr, 10);
}

// The scan leaves of an EXPLAIN plan in plan order, each as "TABLE
// sys=<selector> app=<selector>[ eq=[cols]][ range=<col>]".
std::vector<std::string> ScanLeaves(const std::string& json) {
  const std::string scan = "{\"node\":\"Scan\"";
  std::vector<std::string> out;
  for (size_t p = json.find(scan); p != std::string::npos;
       p = json.find(scan, p + 1)) {
    const std::string node =
        json.substr(p, json.find("\"rows_examined\"", p) - p);
    std::string leaf = JsonField(node, "table") +
                       " sys=" + JsonField(node, "system_time") +
                       " app=" + JsonField(node, "app_time");
    size_t eq = node.find("\"equals\":[");
    if (eq != std::string::npos) {
      std::string cols;
      const size_t end = node.find(']', eq);
      for (size_t c = node.find("\"col\":", eq); c < end;
           c = node.find("\"col\":", c + 1)) {
        cols += (cols.empty() ? "" : ",") +
                std::to_string(JsonInt(node.substr(c), "col"));
      }
      leaf += " eq=[" + cols + "]";
    }
    if (node.find("\"range_col\":") != std::string::npos) {
      leaf += " range=" + std::to_string(JsonInt(node, "range_col"));
    }
    out.push_back(leaf);
  }
  return out;
}

// One query function, the SQL it runs, and what that SQL must plan to.
struct PlanCase {
  std::string name;
  std::vector<std::string> texts;
  std::vector<std::string> scans;  // every scan leaf of `texts`, in order
  std::function<Rows(TemporalEngine&)> run;
  size_t rows;  // the function's row count, as the hand-built plans gave it
};

TEST_F(WorkloadTest, SqlTextPlansPinned) {
  TemporalScanSpec all;
  all.system_time = TemporalSelector::All();
  all.app_time = TemporalSelector::All();
  TemporalScanSpec sys_all;
  sys_all.system_time = TemporalSelector::All();
  TemporalScanSpec k2;
  k2.system_time =
      TemporalSelector::Between(ctx_->sys_v0.micros(), ctx_->sys_mid.micros());
  k2.app_time = TemporalSelector::All();
  const TemporalScanSpec both =
      TemporalScanSpec::BothAsOf(ctx_->sys_mid.micros(), ctx_->app_mid);
  const int64_t key = ctx_->hot_custkey;
  const int64_t partkey =
      55 % static_cast<int64_t>(ctx_->initial.part.size()) + 1;
  auto sel = [](const TemporalSelector& s) { return s.ToString(); };
  const std::string cur = "CURRENT";
  const std::string sys_mid = sel(both.system_time);
  const std::string app_mid = sel(both.app_time);
  const std::string app_early =
      sel(TemporalSelector::AsOf(ctx_->app_early));
  const std::string app_late = sel(TemporalSelector::AsOf(ctx_->app_late));
  ExecOptions serial;
  serial.scan_threads = 1;

  for (size_t i = 0; i < 4; ++i) {
    TemporalEngine& e = Engine(i);
    // K5's second statement is bound to the newest version's start: the
    // system-time start of K1's last row.
    const size_t sys_from = e.GetTableDef("CUSTOMER").schema.num_columns();
    const Value latest = K1(e, key, all).back()[sys_from];
    const std::string now = sel(TemporalSelector::AsOf(e.Now().micros()));
    std::vector<PlanCase> cases = {
        {"ALL", {QuerySql(e, "T2", all)}, {"ORDERS sys=ALL app=ALL"},
         [](TemporalEngine& x) { return QueryAll(x); }, 1},
        {"T1", {QuerySql(e, "T1", both)},
         {"PARTSUPP sys=" + sys_mid + " app=" + app_mid},
         [&](TemporalEngine& x) { return T1(x, both); }, 1},
        {"T2", {QuerySql(e, "T2", both)},
         {"ORDERS sys=" + sys_mid + " app=" + app_mid},
         [&](TemporalEngine& x) { return T2(x, both); }, 1},
        {"T3",
         {QuerySql(e, "T3", {},
                   {Value(ctx_->app_early), Value(ctx_->app_late)})},
         {"CUSTOMER sys=CURRENT app=" + app_early,
          "CUSTOMER sys=CURRENT app=" + app_late},
         [&](TemporalEngine& x) {
           return T3(x, ctx_->app_early, ctx_->app_late);
         },
         0},
        // Every version qualifies, so the early stop shows as exactly n
        // rows examined on every engine.
        {"T4", {QuerySql(e, "T4", all, {Value(int64_t{10})})},
         {"ORDERS sys=ALL app=ALL"},
         [&](TemporalEngine& x) { return T4(x, all, 10); }, 10},
        {"T6app", {QuerySql(e, "T2", [&] {
                     TemporalScanSpec s;
                     s.system_time = TemporalSelector::All();
                     s.app_time = TemporalSelector::AsOf(ctx_->app_mid);
                     return s;
                   }())},
         {"ORDERS sys=ALL app=" + app_mid},
         [&](TemporalEngine& x) { return T6AppPointSysAll(x, ctx_->app_mid); },
         1},
        {"T6sys", {QuerySql(e, "T2", [&] {
                     TemporalScanSpec s;
                     s.system_time = both.system_time;
                     s.app_time = TemporalSelector::All();
                     return s;
                   }())},
         {"ORDERS sys=" + sys_mid + " app=ALL"},
         [&](TemporalEngine& x) { return T6SysPointAppAll(x, ctx_->sys_mid); },
         1},
        {"T7implicit", {QuerySql(e, "T2")}, {"ORDERS sys=CURRENT app=CURRENT"},
         [](TemporalEngine& x) { return T7Implicit(x); }, 1},
        {"T7explicit",
         {QuerySql(e, "T2", TemporalScanSpec::SystemAsOf(e.Now().micros()))},
         {"ORDERS sys=" + now + " app=CURRENT"},
         [](TemporalEngine& x) { return T7Explicit(x); }, 1},
        // T8/T9: the application time stays a value predicate; its
        // non-strict bound folds into the scan's range.
        {"T8", {QuerySql(e, "T8", {}, {Value(ctx_->app_mid)})},
         {"ORDERS sys=CURRENT app=CURRENT range=" +
          std::to_string(orders::kActiveBegin)},
         [&](TemporalEngine& x) {
           return T8SimulatedAppPoint(x, ctx_->app_mid,
                                      TemporalSelector::ImplicitCurrent());
         },
         1},
        {"T9", {QuerySql(e, "T8", sys_all, {Value(ctx_->app_mid)})},
         {"ORDERS sys=ALL app=CURRENT range=" +
          std::to_string(orders::kActiveBegin)},
         [&](TemporalEngine& x) {
           return T9SimulatedAppSlice(x, ctx_->app_mid);
         },
         1},
        {"K1", {QuerySql(e, "K1", all, {Value(key)})},
         {"CUSTOMER sys=ALL app=ALL eq=[0]"},
         [&](TemporalEngine& x) { return K1(x, key, all); }, 10},
        {"K2", {QuerySql(e, "K1", k2, {Value(key)})},
         {"CUSTOMER sys=" + sel(k2.system_time) + " app=ALL eq=[0]"},
         [&](TemporalEngine& x) { return K2(x, key, k2); }, 4},
        {"K3", {QuerySql(e, "K3", all, {Value(key)})},
         {"CUSTOMER sys=ALL app=ALL eq=[0]"},
         [&](TemporalEngine& x) { return K3(x, key, all); }, 10},
        {"K4", {QuerySql(e, "K4", all, {Value(key), Value(int64_t{3})})},
         {"CUSTOMER sys=ALL app=ALL eq=[0]"},
         [&](TemporalEngine& x) { return K4(x, key, all, 3); }, 3},
        {"K5",
         {QuerySql(e, "K5.latest", all, {Value(key)}),
          QuerySql(e, "K5.previous", all, {Value(key), latest})},
         {"CUSTOMER sys=ALL app=ALL eq=[0]", "CUSTOMER sys=ALL app=ALL eq=[0]"},
         [&](TemporalEngine& x) { return K5(x, key, all); }, 1},
        {"K6", {QuerySql(e, "K6", sys_all, {Value(9900.0)})},
         {"CUSTOMER sys=ALL app=CURRENT range=" +
          std::to_string(customer::kAcctBal)},
         [&](TemporalEngine& x) { return K6(x, 9900.0, sys_all); }, 106},
        // R1: the meeting intervals become a second hash key.
        {"R1", {QuerySql(e, "R1")},
         {"ORDERS sys=ALL app=CURRENT", "ORDERS sys=ALL app=CURRENT"},
         [](TemporalEngine& x) { return R1(x); }, 536},
        {"R2", {QuerySql(e, "R2")},
         {"ORDERS sys=ALL app=CURRENT eq=[" +
          std::to_string(orders::kOrderStatus) + "]"},
         [](TemporalEngine& x) { return R2(x); }, 1309},
        {"R3", {QuerySql(e, "R3")}, {"ORDERS sys=ALL app=CURRENT"},
         [](TemporalEngine& x) {
           return R3(x, TemporalAggKind::kCount, /*naive=*/true);
         },
         1606},
        {"R4", {QuerySql(e, "R4.min"), QuerySql(e, "R4.max")},
         {"PARTSUPP sys=ALL app=ALL", "PARTSUPP sys=ALL app=ALL"},
         [](TemporalEngine& x) { return R4(x, 10); }, 10},
        {"R5", {QuerySql(e, "R5", {}, {Value(5000.0), Value(100000.0)})},
         {"CUSTOMER sys=ALL app=CURRENT", "ORDERS sys=ALL app=CURRENT"},
         [](TemporalEngine& x) { return R5(x, 5000.0, 100000.0); }, 137},
        {"R6", {QuerySql(e, "R6")},
         {"CUSTOMER sys=ALL app=CURRENT", "ORDERS sys=ALL app=CURRENT"},
         [](TemporalEngine& x) { return R6(x); }, 25},
        {"R7", {QuerySql(e, "R7")}, {"PARTSUPP sys=ALL app=CURRENT"},
         [](TemporalEngine& x) { return R7(x, 7.5); }, 10},
    };
    // Table 3: the (system, application) selectors of each B3 variant.
    const std::vector<std::pair<std::string, std::string>> b3 = {
        {cur, "ALL"},     {cur, app_mid},   {sys_mid, app_mid},
        {cur, "ALL"},     {"ALL", app_mid}, {"ALL", "ALL"},
        {cur, "ALL"},     {sys_mid, "ALL"}, {"ALL", "ALL"},
        {"ALL", app_mid}, {"ALL", "ALL"},   {"ALL", "ALL"}};
    for (int v = 0; v < static_cast<int>(b3.size()); ++v) {
      const std::string leaf = "PARTSUPP sys=" + b3[v].first +
                               " app=" + b3[v].second;
      cases.push_back(
          {"B3." + std::to_string(v),
           {B3Sql(e, v, partkey, ctx_->app_mid, ctx_->sys_mid)},
           {leaf + " eq=[0]", leaf},
           [&, v](TemporalEngine& x) {
             return B3(x, v, partkey, ctx_->app_mid, ctx_->sys_mid);
           },
           100});
    }

    for (const PlanCase& c : cases) {
      const std::string what = c.name + " on " + Letter(i);
      std::vector<std::string> leaves;
      for (const std::string& text : c.texts) {
        std::string json;
        Status st = sql::Explain(e, text, &json, nullptr, serial);
        ASSERT_TRUE(st.ok()) << what << ": " << st.ToString() << "\n" << text;
        // No query names an application time it then states as a value
        // predicate, so the T8 -> T2 rewrite never fires.
        EXPECT_EQ(0, JsonInt(json, "temporal_rewrites")) << what;
        if (c.name == "T4") {
          // The serial LIMIT n scan stops after n rows.
          EXPECT_EQ(10, JsonInt(json, "rows_examined")) << what;
        }
        for (std::string& leaf : ScanLeaves(json)) leaves.push_back(leaf);
      }
      EXPECT_EQ(c.scans, leaves) << what;
      EXPECT_EQ(c.rows, c.run(e).size()) << what;
    }
  }
}

TEST_F(WorkloadTest, IndexSettingsPreserveResults) {
  // Apply each tuning setting to a fresh engine A and verify query results
  // do not change.
  auto tuned = LoadEngine("A", ctx_->initial, ctx_->history);
  Rows before_t2 =
      Canonical(T2(*tuned, TemporalScanSpec::BothAsOf(ctx_->sys_mid.micros(),
                                                      ctx_->app_mid)));
  TemporalScanSpec kspec;
  kspec.system_time = TemporalSelector::All();
  kspec.app_time = TemporalSelector::All();
  Rows before_k1 = Canonical(K1(*tuned, ctx_->hot_custkey, kspec));
  for (IndexSetting setting :
       {IndexSetting::kTime, IndexSetting::kKeyTime, IndexSetting::kValue}) {
    ASSERT_TRUE(ApplyIndexSetting(*tuned, setting).ok());
    Rows after_t2 = Canonical(
        T2(*tuned, TemporalScanSpec::BothAsOf(ctx_->sys_mid.micros(),
                                              ctx_->app_mid)));
    ExpectRowsEq(before_t2, after_t2, "T2 under tuning");
    Rows after_k1 = Canonical(K1(*tuned, ctx_->hot_custkey, kspec));
    ExpectRowsEq(before_k1, after_k1, "K1 under tuning");
    for (const TableDef& def : BiHSchema()) {
      ASSERT_TRUE(tuned->DropIndexes(def.name).ok());
    }
  }
}

TEST_F(WorkloadTest, KeyTimeIndexIsUsedForKeyQueries) {
  auto tuned = LoadEngine("A", ctx_->initial, ctx_->history);
  ASSERT_TRUE(ApplyIndexSetting(*tuned, IndexSetting::kKeyTime).ok());
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  const size_t k1_rows = K1(*tuned, ctx_->hot_custkey, spec).size();
  // K1's access path, issued directly: the CUSTOMER primary-key scan.
  ScanRequest req;
  req.table = "CUSTOMER";
  req.temporal = spec;
  req.equals = {{customer::kCustKey, Value(ctx_->hot_custkey)}};
  ExecStats stats;
  req.stats = &stats;
  size_t versions = 0;
  tuned->Scan(req, [&](const Row&) {
    ++versions;
    return true;
  });
  EXPECT_EQ(k1_rows, versions);
  EXPECT_TRUE(stats.used_index);
  // Index access examines far fewer rows than the table has.
  TableStats ts = tuned->GetTableStats("CUSTOMER");
  EXPECT_LT(stats.rows_examined, (ts.current_rows + ts.history_rows) / 2);
}

TEST_F(WorkloadTest, GistIndexWorksOnSystemD) {
  auto tuned = LoadEngine("D", ctx_->initial, ctx_->history);
  Rows before = Canonical(T2(*tuned, TemporalScanSpec::AppAsOf(ctx_->app_early)));
  ASSERT_TRUE(
      ApplyIndexSetting(*tuned, IndexSetting::kTime, IndexType::kRTree).ok());
  Rows after = Canonical(T2(*tuned, TemporalScanSpec::AppAsOf(ctx_->app_early)));
  ExpectRowsEq(before, after, "T2 with GiST");
}

TEST_F(WorkloadTest, BaselineMatchesTemporalCurrent) {
  // The non-temporal end-state baseline must agree with the temporal
  // engine's implicit-current view (same data, no history).
  auto baseline = LoadBaseline(ctx_->end_state);
  Rows temporal_now = Canonical(T2(*ctx_->engine, TemporalScanSpec::Current()));
  Rows base_now = Canonical(T2(*baseline, TemporalScanSpec::Current()));
  ExpectRowsEq(temporal_now, base_now, "baseline current");
}

}  // namespace
}  // namespace bih
