// Differential tests for the parallel plan operators: for every engine
// architecture and query class, the rows AND the per-node counters of a
// parallel run must be byte-identical to the serial run at any thread
// count. This is the executable form of the plan.h contract — parallelism
// is a speed knob, never an observable one. The streamed shapes (joins,
// aggregates, filter/project chains and limits that run inside the
// engine's row callback) get the same check at every morsel size, and the
// interrupt tests prove a deadline or cancel fired mid-pipeline surfaces as
// the context's status and leaves the morsel pool drained.
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "exec/optimizer.h"
#include "exec/parallel.h"
#include "exec/plan.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tpch/schema.h"
#include "workload/context.h"

namespace bih {
namespace {

// One small workload per engine letter, built once (the differential sweep
// below runs dozens of plans against each).
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

ScanScheduler& Pool() {
  static ScanScheduler* pool = new ScanScheduler(7);
  return *pool;
}

TemporalScanSpec FullHistory() {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  return spec;
}

ScanRequest Req(const std::string& table) {
  ScanRequest req;
  req.table = table;
  req.temporal = FullHistory();
  return req;
}

// CUSTOMER's scan width (9 user + 2 system columns) and ORDERS' (12 + 2).
constexpr int kCustomerWidth = 11;
constexpr int kOrdersWidth = 14;

// `text` planned as the server plans it: parsed, planned and narrowed by
// OptimizePlan. "{t}" stands for the workload's mid-history system time and
// "{d}" for its mid application time.
PlanPtr SqlPlan(const std::string& letter, std::string text) {
  WorkloadContext& ctx = Workload(letter);
  for (const auto& [name, value] :
       {std::pair<std::string, int64_t>{"{t}", ctx.sys_mid.micros()},
        std::pair<std::string, int64_t>{"{d}", ctx.app_mid}}) {
    for (size_t at = text.find(name); at != std::string::npos;
         at = text.find(name)) {
      text.replace(at, name.size(), std::to_string(value));
    }
  }
  sql::SelectStatement stmt;
  EXPECT_TRUE(sql::ParseSelect(text, &stmt).ok()) << text;
  PlanPtr plan;
  std::vector<std::string> columns;
  EXPECT_TRUE(sql::PlanSelect(ctx.eng(), stmt, &plan, &columns).ok()) << text;
  OptimizePlan(&plan, ctx.eng());
  return plan;
}

// The served AS OF CUSTOMER-ORDERS join by nation as the server runs it, so
// its HashJoin assembles only the columns read above it.
constexpr const char* kJoinByNation =
    "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM CUSTOMER "
    "FOR SYSTEM_TIME AS OF {t} c JOIN ORDERS FOR SYSTEM_TIME AS OF {t} o "
    "ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY ORDER BY C_NATIONKEY";

PlanPtr ServedJoin(const std::string& letter) {
  return SqlPlan(letter, kJoinByNation);
}

// The query classes of the sweeps: a scan, the two parallel operators
// (sort-merge join, hash aggregation), a composite tree above them, and the
// shapes whose operators stream inside the engine's row callback.
PlanPtr BuildQuery(const std::string& cls) {
  if (cls == "scan") {
    return ScanPlan(Req("ORDERS"));
  }
  if (cls == "merge-join") {
    return MergeJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                         {customer::kCustKey}, {orders::kCustKey});
  }
  if (cls == "hash-agg") {
    return AggregatePlan(ScanPlan(Req("ORDERS")), {orders::kOrderStatus},
                         {{AggKind::kSum, Col(orders::kTotalPrice)},
                          {AggKind::kAvg, Col(orders::kTotalPrice)},
                          {AggKind::kMin, Col(orders::kTotalPrice)},
                          {AggKind::kMax, Col(orders::kTotalPrice)},
                          {AggKind::kCount, nullptr},
                          {AggKind::kCountDistinct, Col(orders::kCustKey)}});
  }
  if (cls == "hash-join-agg-sort") {
    // The served AS OF CUSTOMER-ORDERS join by nation.
    return SortPlan(
        AggregatePlan(
            HashJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                         {customer::kCustKey}, {orders::kCustKey},
                         kOrdersWidth),
            {customer::kNationKey},
            {{AggKind::kCount, nullptr},
             {AggKind::kSum, Col(kCustomerWidth + orders::kTotalPrice)}}),
        {SortSpec{Col(0), true}});
  }
  if (cls == "left-outer-residual") {
    return HashJoinPlan(
        ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
        {customer::kCustKey}, {orders::kCustKey}, kOrdersWidth,
        JoinType::kLeftOuter,
        Gt(Col(kCustomerWidth + orders::kTotalPrice), Lit(150000.0)));
  }
  if (cls == "cross-residual") {
    return CrossJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("NATION")),
                         Eq(Col(customer::kNationKey),
                            Col(kCustomerWidth + nation::kNationKey)));
  }
  if (cls == "filter-project") {
    PlanPtr inner = ProjectPlan(
        FilterPlan(ScanPlan(Req("ORDERS")),
                   Gt(Col(orders::kTotalPrice), Lit(50000.0))),
        {Col(orders::kOrderKey), Col(orders::kTotalPrice),
         Col(orders::kOrderStatus)});
    return ProjectPlan(FilterPlan(std::move(inner), Eq(Col(2), Lit("O"))),
                       {Col(0), Mul(Col(1), Lit(2.0))});
  }
  if (cls == "limit-scan") {
    // Stops the scan early, mid-morsel.
    return LimitPlan(ScanPlan(Req("ORDERS")), 37);
  }
  // Composite: join feeds a grouped aggregation feeds a sort, so morsel
  // boundaries of one parallel operator become the input of the next.
  return SortPlan(
      AggregatePlan(
          MergeJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                        {customer::kCustKey}, {orders::kCustKey}),
          {customer::kNationKey},
          {{AggKind::kSum, Col(kCustomerWidth + orders::kTotalPrice)},
           {AggKind::kCount, nullptr}}),
      {SortSpec{Col(0), true}});
}

const char* kClasses[] = {"scan", "merge-join", "hash-agg", "join-agg-sort"};
const char* kEngines[] = {"A", "B", "C", "D"};

// Flattened per-node counters, in preorder; serial and parallel runs must
// produce equal vectors (rows_output per node and the engine-side scan
// counters alike).
struct NodeStats {
  std::string kind;
  uint64_t rows_output;
  uint64_t scan_examined;
  uint64_t scan_output;
  int partitions;
  bool used_index;
  std::string index_name;

  bool operator==(const NodeStats& o) const {
    return kind == o.kind && rows_output == o.rows_output &&
           scan_examined == o.scan_examined && scan_output == o.scan_output &&
           partitions == o.partitions && used_index == o.used_index &&
           index_name == o.index_name;
  }
};

void CollectStats(const PlanNode& n, std::vector<NodeStats>* out) {
  out->push_back({n.KindName(), n.stats.rows_output, n.stats.scan.rows_examined,
                  n.stats.scan.rows_output, n.stats.scan.partitions_touched,
                  n.stats.scan.used_index, n.stats.scan.index_name});
  for (const PlanPtr& c : n.children) CollectStats(*c, out);
}

void ExpectRowsIdentical(const Rows& want, const Rows& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size()) << label << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      ASSERT_TRUE(want[r][c] == got[r][c])
          << label << " row " << r << " col " << c;
    }
  }
}

TEST(ParallelExecTest, EveryEngineClassAndThreadCountMatchesSerial) {
  for (const char* letter : kEngines) {
    TemporalEngine& eng = Workload(letter).eng();
    for (const char* cls : kClasses) {
      PlanPtr plan = BuildQuery(cls);
      const std::string label = std::string(letter) + "/" + cls;

      // Serial baseline. A tiny morsel keeps the test meaningful at the
      // small workload scale — a single-morsel input never engages.
      ExecOptions serial;
      serial.scan_threads = 1;
      serial.morsel_size = 64;
      Rows want;
      ASSERT_TRUE(Execute(*plan, eng, serial, nullptr, &want).ok()) << label;
      std::vector<NodeStats> want_stats;
      CollectStats(*plan, &want_stats);

      for (int threads = 2; threads <= 8; ++threads) {
        ExecOptions opts;
        opts.scan_threads = threads;
        opts.morsel_size = 64;
        opts.scheduler = &Pool();
        Rows got;
        ASSERT_TRUE(Execute(*plan, eng, opts, nullptr, &got).ok())
            << label << " threads=" << threads;
        ExpectRowsIdentical(want, got,
                            label + " threads=" + std::to_string(threads));
        std::vector<NodeStats> got_stats;
        CollectStats(*plan, &got_stats);
        EXPECT_EQ(want_stats, got_stats)
            << label << " threads=" << threads << ": counters diverged";
      }
    }
  }
}

TEST(ParallelExecTest, SchedulerDrainedAfterEveryRun) {
  TemporalEngine& eng = Workload("A").eng();
  PlanPtr plan = BuildQuery("join-agg-sort");
  ExecOptions opts;
  opts.scan_threads = 8;
  opts.morsel_size = 64;
  opts.scheduler = &Pool();
  Rows out;
  ASSERT_TRUE(Execute(*plan, eng, opts, nullptr, &out).ok());
  // Helpers park again once the last morsel retires; give the handoff a
  // moment but insist on full drain (a stuck helper is a real bug).
  for (int spin = 0; spin < 2000; ++spin) {
    if (Pool().idle_workers() == Pool().num_workers()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Pool().num_workers(), Pool().idle_workers());
}

TEST(ParallelExecTest, MorselSizeDoesNotChangeOutput) {
  TemporalEngine& eng = Workload("B").eng();
  PlanPtr plan = BuildQuery("merge-join");
  ExecOptions serial;
  serial.scan_threads = 1;
  Rows want;
  ASSERT_TRUE(Execute(*plan, eng, serial, nullptr, &want).ok());
  for (uint64_t morsel : {16u, 64u, 1000u, 100000u}) {
    ExecOptions opts;
    opts.scan_threads = 4;
    opts.morsel_size = morsel;
    opts.scheduler = &Pool();
    Rows got;
    ASSERT_TRUE(Execute(*plan, eng, opts, nullptr, &got).ok());
    ExpectRowsIdentical(want, got, "morsel=" + std::to_string(morsel));
  }
}

// ---- Streamed shapes ------------------------------------------------------

const char* kStreamedShapes[] = {"hash-join-agg-sort", "left-outer-residual",
                                 "cross-residual", "filter-project",
                                 "limit-scan", "served-as-of-join"};

TEST(ParallelExecTest, StreamedShapesMatchSerialAtEveryMorselSize) {
  const uint64_t kWhole = uint64_t{1} << 30;  // one morsel: never engages
  for (const char* letter : kEngines) {
    TemporalEngine& eng = Workload(letter).eng();
    for (const char* shape : kStreamedShapes) {
      PlanPtr plan = std::string(shape) == "served-as-of-join"
                         ? ServedJoin(letter)
                         : BuildQuery(shape);
      const std::string label = std::string(letter) + "/" + shape;
      ExecOptions serial;
      serial.scan_threads = 1;
      Rows want;
      ASSERT_TRUE(Execute(*plan, eng, serial, nullptr, &want).ok()) << label;
      ASSERT_GT(want.size(), 0u) << label;
      std::vector<NodeStats> want_stats;
      CollectStats(*plan, &want_stats);

      for (uint64_t morsel : {uint64_t{1}, uint64_t{7}, uint64_t{64}, kWhole}) {
        for (int threads : {1, 2, 4, 8}) {
          const std::string what = label + " morsel=" +
                                   std::to_string(morsel) +
                                   " threads=" + std::to_string(threads);
          ExecOptions opts;
          opts.scan_threads = threads;
          opts.morsel_size = morsel;
          opts.scheduler = &Pool();
          Rows got;
          ASSERT_TRUE(Execute(*plan, eng, opts, nullptr, &got).ok()) << what;
          ExpectRowsIdentical(want, got, what);
          std::vector<NodeStats> got_stats;
          CollectStats(*plan, &got_stats);
          EXPECT_EQ(want_stats, got_stats) << what << ": counters diverged";
        }
      }
    }
  }
}

// ---- Morsel pipelines ------------------------------------------------------

// The shapes whose operators run per morsel on the scanning worker once a
// scan is parallel: the served T2 and T6 slices (an ungrouped AVG/COUNT
// straight over a scan), a Filter+Project chain under a grouped aggregate
// with a NULL input column, the served join by nation (the ORDERS scan
// feeds the hash-join build; the CUSTOMER scan, the probe and the grouped
// fold run on the workers), a left outer join whose residual pads NULLs
// under an aggregate (SQL has no outer join, so that one is built by
// hand), and an aggregate whose input is empty but must still yield its one
// global row.
PlanPtr PipelineShape(const std::string& letter, const std::string& shape) {
  if (shape == "t2") {
    return SqlPlan(letter,
                   "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                   "FOR SYSTEM_TIME AS OF {t} FOR BUSINESS_TIME AS OF {d}");
  }
  if (shape == "t6-app") {
    return SqlPlan(letter,
                   "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                   "FOR SYSTEM_TIME ALL FOR BUSINESS_TIME AS OF {d}");
  }
  if (shape == "t6-sys") {
    return SqlPlan(letter,
                   "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                   "FOR SYSTEM_TIME AS OF {t} FOR BUSINESS_TIME ALL");
  }
  if (shape == "filter-project-grouped") {
    return AggregatePlan(
        ProjectPlan(FilterPlan(ScanPlan(Req("ORDERS")),
                               Ne(Col(orders::kOrderStatus), Lit("F"))),
                    {Col(orders::kOrderStatus),
                     Mul(Col(orders::kTotalPrice), Lit(2.0)),
                     Lit(Value::Null())}),
        {0},
        {{AggKind::kSum, Col(1)},
         {AggKind::kAvg, Col(1)},
         {AggKind::kMin, Col(1)},
         {AggKind::kCount, nullptr},
         {AggKind::kSum, Col(2)},
         {AggKind::kMax, Col(2)},
         {AggKind::kCount, Col(2)}});
  }
  if (shape == "join-by-nation") return ServedJoin(letter);
  if (shape == "left-outer-residual-agg") {
    return AggregatePlan(
        HashJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                     {customer::kCustKey}, {orders::kCustKey}, kOrdersWidth,
                     JoinType::kLeftOuter,
                     Gt(Col(kCustomerWidth + orders::kTotalPrice),
                        Lit(150000.0))),
        {customer::kNationKey},
        {{AggKind::kCount, nullptr},
         {AggKind::kCount, Col(kCustomerWidth + orders::kTotalPrice)},
         {AggKind::kSum, Col(kCustomerWidth + orders::kTotalPrice)},
         {AggKind::kMax, Col(kCustomerWidth + orders::kOrderDate)},
         {AggKind::kCountDistinct, Col(kCustomerWidth + orders::kOrderKey)}});
  }
  // Empty input.
  return SqlPlan(letter,
                 "SELECT MIN(C_ACCTBAL), COUNT(*), SUM(C_ACCTBAL) FROM "
                 "CUSTOMER FOR SYSTEM_TIME ALL WHERE C_CUSTKEY < 0");
}

const char* kPipelineShapes[] = {"t2",
                                 "t6-app",
                                 "t6-sys",
                                 "filter-project-grouped",
                                 "join-by-nation",
                                 "left-outer-residual-agg",
                                 "empty-global"};

// Runs `plan` serially, then at 2-8 threads and each morsel size, and
// expects the rows and every node's counters to match the serial run.
void ExpectParallelMatchesSerial(const PlanNode& plan, TemporalEngine& eng,
                                 const std::vector<uint64_t>& morsels,
                                 const std::string& label, Rows* serial_rows) {
  ExecOptions serial;
  serial.scan_threads = 1;
  Rows want;
  ASSERT_TRUE(Execute(plan, eng, serial, nullptr, &want).ok()) << label;
  std::vector<NodeStats> want_stats;
  CollectStats(plan, &want_stats);
  for (uint64_t morsel : morsels) {
    for (int threads = 2; threads <= 8; ++threads) {
      const std::string what = label + " morsel=" + std::to_string(morsel) +
                               " threads=" + std::to_string(threads);
      ExecOptions opts;
      opts.scan_threads = threads;
      opts.morsel_size = morsel;
      opts.scheduler = &Pool();
      Rows got;
      ASSERT_TRUE(Execute(plan, eng, opts, nullptr, &got).ok()) << what;
      ExpectRowsIdentical(want, got, what);
      std::vector<NodeStats> got_stats;
      CollectStats(plan, &got_stats);
      EXPECT_EQ(want_stats, got_stats) << what << ": counters diverged";
    }
  }
  *serial_rows = std::move(want);
}

TEST(ParallelExecTest, MorselPipelinesMatchSerial) {
  for (const char* letter : kEngines) {
    TemporalEngine& eng = Workload(letter).eng();
    for (const char* shape : kPipelineShapes) {
      PlanPtr plan = PipelineShape(letter, shape);
      const std::string label = std::string(letter) + "/" + shape;
      Rows want;
      ExpectParallelMatchesSerial(*plan, eng, {1, 64, 1024}, label, &want);
      if (std::string(shape) == "empty-global") {
        // Exactly one global row, over no input: MIN and SUM are NULL.
        ASSERT_EQ(1u, want.size()) << label;
        EXPECT_TRUE(want[0][0].is_null()) << label;
        EXPECT_EQ(0, want[0][1].AsInt()) << label;
        EXPECT_TRUE(want[0][2].is_null()) << label;
      } else if (std::string(shape) == "filter-project-grouped") {
        // The NULL column: SUM and MAX are NULL, COUNT(col) is 0.
        ASSERT_GT(want.size(), 0u) << label;
        for (const Row& row : want) {
          EXPECT_TRUE(row[5].is_null()) << label;
          EXPECT_TRUE(row[6].is_null()) << label;
          EXPECT_EQ(0, row[7].AsInt()) << label;
        }
      } else {
        ASSERT_GT(want.size(), 0u) << label;
      }
    }
  }
}

// System C after a merge and a few inserts: the delta partition holds fewer
// rows than one morsel and runs serially, so its rows reach the pipeline on
// the coordinator as one slot that must come before the slots of the
// parallel main and history partitions.
TEST(ParallelExecTest, SerialDeltaSlotKeepsScanOrderOnSystemC) {
  WorkloadConfig cfg;
  cfg.engine_letter = "C";
  cfg.h = 0.001;
  cfg.m = 0.001;
  cfg.seed = 11;
  WorkloadContext ctx = BuildWorkload(cfg);
  TemporalEngine& eng = ctx.eng();
  eng.Maintain();
  Rows orders;
  ASSERT_TRUE(Execute(*ScanPlan(Req("ORDERS")), eng, ExecOptions{}, nullptr,
                      &orders)
                  .ok());
  ASSERT_GT(orders.size(), 5u);
  // Five new orders for existing customers, priced to stand out in the
  // sums: they land in the delta, ahead of main and history in scan order.
  for (int i = 0; i < 5; ++i) {
    Row row(orders[static_cast<size_t>(i)].begin(),
            orders[static_cast<size_t>(i)].begin() + kOrdersWidth - 2);
    row[orders::kOrderKey] = Value(int64_t{100000000} + i);
    row[orders::kTotalPrice] = Value(1e9 + 0.125 * i);
    ASSERT_TRUE(eng.Insert("ORDERS", row).ok());
  }
  const std::string now = std::to_string(eng.Now().micros());
  for (const std::string& text : std::vector<std::string>{
           "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
           "FOR SYSTEM_TIME ALL",
           "SELECT O_ORDERSTATUS, SUM(O_TOTALPRICE), COUNT(*) FROM ORDERS "
           "FOR SYSTEM_TIME ALL GROUP BY O_ORDERSTATUS",
           "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) FROM CUSTOMER "
           "FOR SYSTEM_TIME AS OF " +
               now + " c JOIN ORDERS FOR SYSTEM_TIME AS OF " + now +
               " o ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY "
               "ORDER BY C_NATIONKEY"}) {
    sql::SelectStatement stmt;
    ASSERT_TRUE(sql::ParseSelect(text, &stmt).ok()) << text;
    PlanPtr plan;
    std::vector<std::string> columns;
    ASSERT_TRUE(sql::PlanSelect(eng, stmt, &plan, &columns).ok()) << text;
    OptimizePlan(&plan, eng);
    Rows want;
    ExpectParallelMatchesSerial(*plan, eng, {64}, "C " + text, &want);
    ASSERT_GT(want.size(), 0u) << text;
  }
}

// A satisfied Limit stops the scan beneath it: fewer rows examined than the
// full scan, and the same number at every thread count.
TEST(ParallelExecTest, LimitStopsItsScanEarlyWithSerialCounters) {
  for (const char* letter : kEngines) {
    TemporalEngine& eng = Workload(letter).eng();
    PlanPtr full = ScanPlan(Req("ORDERS"));
    ExecOptions serial;
    serial.scan_threads = 1;
    Rows all;
    ASSERT_TRUE(Execute(*full, eng, serial, nullptr, &all).ok());
    const uint64_t full_examined = full->stats.scan.rows_examined;

    PlanPtr limited = BuildQuery("limit-scan");
    Rows want;
    ASSERT_TRUE(Execute(*limited, eng, serial, nullptr, &want).ok());
    ASSERT_EQ(37u, want.size()) << letter;
    const ExecStats& scan = limited->children[0]->stats.scan;
    EXPECT_LT(scan.rows_examined, full_examined) << letter;
    EXPECT_EQ(37u, scan.rows_output) << letter;
    const uint64_t serial_examined = scan.rows_examined;
    for (int threads : {2, 4, 8}) {
      ExecOptions opts;
      opts.scan_threads = threads;
      opts.morsel_size = 5;
      opts.scheduler = &Pool();
      Rows got;
      ASSERT_TRUE(Execute(*limited, eng, opts, nullptr, &got).ok());
      ExpectRowsIdentical(want, got, letter);
      EXPECT_EQ(serial_examined,
                limited->children[0]->stats.scan.rows_examined)
          << letter << " threads=" << threads;
    }
  }
}

// ---- Interrupts inside pipelines -------------------------------------------

// A read-only engine view that runs `trip` on the query's context when the
// `after`-th row of `table` leaves a scan — through the row callback or,
// for a scan feeding a morsel pipeline, through the request's sink — i.e.
// inside whatever pipeline consumes that scan, on the thread that hands the
// row on (a worker, for a sink). The view registers the inner engine's
// table definitions so the executor resolves schemas through it; every row
// comes from the inner engine.
class TrippingEngine : public TemporalEngine {
 public:
  TrippingEngine(TemporalEngine* inner, std::string table, int after,
                 std::function<void(QueryContext*)> trip)
      : inner_(inner),
        table_(std::move(table)),
        after_(after),
        trip_(std::move(trip)) {
    for (const std::string& t : inner_->ListTables()) {
      EXPECT_TRUE(CreateTable(inner_->GetTableDef(t)).ok());
    }
  }

  bool tripped() const { return tripped_.load(); }

  std::string name() const override { return inner_->name(); }
  Status CreateIndex(const IndexSpec&) override { return ReadOnly(); }
  Status DropIndexes(const std::string&) override { return ReadOnly(); }
  TableStats GetTableStats(const std::string& t) const override {
    return inner_->GetTableStats(t);
  }
  void Scan(const ScanRequest& req, const RowCallback& cb) override {
    std::atomic<int> seen{0};
    auto see = [&] {
      if (req.table == table_ && seen.fetch_add(1) + 1 == after_) {
        tripped_.store(true);
        trip_(req.ctx);
      }
    };
    SeeingSink sink(req.sink, see);
    ScanRequest inner_req = req;
    if (req.sink != nullptr) inner_req.sink = &sink;
    inner_->Scan(inner_req, [&](const Row& row) {
      see();
      return cb(row);
    });
  }

 protected:
  std::unique_ptr<TableBase> MakeTable(const TableDef& def) const override {
    return std::make_unique<TableBase>(def);
  }
  // No key has a current version here, so no update or delete reaches the
  // version store; an insert would, and must not happen.
  void CurrentVersions(TableBase&, const std::vector<Value>&,
                       std::vector<VersionRef>*, std::vector<Row>*) override {}
  void CloseVersion(TableBase&, VersionRef, Timestamp, StmtKind,
                    bool) override {
    ADD_FAILURE() << "write through a read-only view";
  }
  void OpenVersion(TableBase&, Row, Timestamp, StmtKind) override {
    ADD_FAILURE() << "write through a read-only view";
  }
  Status DoInstallVersion(TableBase&, const Row&) override {
    return ReadOnly();
  }

 private:
  static Status ReadOnly() { return Status::Unimplemented("read-only view"); }

  // Forwards to the executor's sink, seeing each row first.
  class SeeingSink : public MorselSink {
   public:
    SeeingSink(MorselSink* inner, std::function<void()> see)
        : inner_(inner), see_(std::move(see)) {}
    uint64_t Reserve(uint64_t n) override { return inner_->Reserve(n); }
    void Consume(uint64_t slot, const Row& row) override {
      see_();
      inner_->Consume(slot, row);
    }
    void Finish(uint64_t slot) override { inner_->Finish(slot); }

   private:
    MorselSink* inner_;
    std::function<void()> see_;
  };

  TemporalEngine* inner_;
  std::string table_;
  int after_;
  std::function<void(QueryContext*)> trip_;
  std::atomic<bool> tripped_{false};
};

bool PoolDrained() {
  for (int spin = 0; spin < 2000; ++spin) {
    if (Pool().idle_workers() == Pool().num_workers()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Pool().idle_workers() == Pool().num_workers();
}

// Where the interrupt fires: inside the probe of a HashJoin that feeds an
// Aggregate (ORDERS is the probe side; the CUSTOMER build is complete by
// then), inside a hash-join build fed by a parallel ORDERS scan, inside an
// aggregate's Filter pipeline, or inside a parallel scan's emit loop under a
// Filter. With more than one thread all but the last run on the workers.
PlanPtr InterruptedPlan(const std::string& where) {
  if (where == "hash-join-build") {
    return HashJoinPlan(ScanPlan(Req("CUSTOMER")), ScanPlan(Req("ORDERS")),
                        {customer::kCustKey}, {orders::kCustKey},
                        kOrdersWidth);
  }
  if (where == "aggregate-pipeline") {
    return AggregatePlan(FilterPlan(ScanPlan(Req("ORDERS")),
                                    Gt(Col(orders::kTotalPrice), Lit(0.0))),
                         {},
                         {{AggKind::kAvg, Col(orders::kTotalPrice)},
                          {AggKind::kCount, nullptr}});
  }
  if (where == "hash-join-probe") {
    return AggregatePlan(
        HashJoinPlan(ScanPlan(Req("ORDERS")), ScanPlan(Req("CUSTOMER")),
                     {orders::kCustKey}, {customer::kCustKey}, kCustomerWidth),
        {kOrdersWidth + customer::kNationKey},
        {{AggKind::kSum, Col(orders::kTotalPrice)}});
  }
  return FilterPlan(ScanPlan(Req("ORDERS")),
                    Gt(Col(orders::kTotalPrice), Lit(0.0)));
}

TEST(ParallelExecTest, InterruptInsidePipelineReturnsStatusAndDrainsPool) {
  using Clock = QueryContext::Clock;
  for (const char* letter : kEngines) {
    TemporalEngine& inner = Workload(letter).eng();  // built before the clock
    for (const char* where : {"hash-join-probe", "hash-join-build",
                              "aggregate-pipeline", "scan-emit"}) {
      for (bool cancel : {true, false}) {
        const std::string label = std::string(letter) + "/" + where +
                                  (cancel ? "/cancel" : "/deadline");
        const Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(cancel ? 60000 : 300);
        QueryContext ctx(deadline);
        TrippingEngine eng(&inner, "ORDERS", /*after=*/10,
                           [&](QueryContext* c) {
                             if (cancel) {
                               c->Cancel();
                             } else {
                               std::this_thread::sleep_until(
                                   deadline + std::chrono::milliseconds(1));
                             }
                           });
        PlanPtr plan = InterruptedPlan(where);
        ExecOptions opts;
        opts.scan_threads = 4;
        opts.morsel_size = 7;
        opts.scheduler = &Pool();
        Rows out;
        const Status st = Execute(*plan, eng, opts, &ctx, &out);
        EXPECT_TRUE(eng.tripped()) << label;
        EXPECT_EQ(cancel ? Status::Code::kCancelled
                         : Status::Code::kDeadlineExceeded,
                  st.code())
            << label << ": " << st.ToString();
        EXPECT_EQ(st.code(), ctx.status().code()) << label;
        EXPECT_TRUE(PoolDrained()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace bih
