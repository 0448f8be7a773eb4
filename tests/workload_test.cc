#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

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
    return K6(e, 9000.0, Value(), spec);
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
