#include <algorithm>

#include <gtest/gtest.h>

#include "engine/system_a.h"
#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/context.h"

namespace bih {
namespace sql {
namespace {

// --- lexer ----------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  std::vector<Token> toks;
  ASSERT_TRUE(Tokenize("SELECT a.b, 42 FROM t WHERE x >= 3.5", &toks).ok());
  EXPECT_EQ("SELECT", toks[0].text);
  EXPECT_EQ(TokenType::kIdent, toks[1].type);
  EXPECT_EQ("A", toks[1].text);  // keywords and idents are uppercased
  EXPECT_EQ(".", toks[2].text);
  EXPECT_EQ("42", toks[5].text);
  EXPECT_EQ(">=", toks[10].text);
  EXPECT_EQ(TokenType::kEnd, toks.back().type);
}

TEST(LexerTest, StringsWithEscapes) {
  std::vector<Token> toks;
  ASSERT_TRUE(Tokenize("'it''s'", &toks).ok());
  EXPECT_EQ(TokenType::kString, toks[0].type);
  EXPECT_EQ("it's", toks[0].text);
  EXPECT_FALSE(Tokenize("'unterminated", &toks).ok());
}

TEST(LexerTest, CommentsAndErrors) {
  std::vector<Token> toks;
  ASSERT_TRUE(Tokenize("SELECT -- a comment\n1", &toks).ok());
  EXPECT_EQ("1", toks[1].text);
  EXPECT_FALSE(Tokenize("SELECT @", &toks).ok());
}

// --- parser ---------------------------------------------------------------

TEST(ParserTest, TemporalClauses) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect("SELECT * FROM ACCOUNT FOR SYSTEM_TIME AS OF 123 "
                          "FOR BUSINESS_TIME AS OF DATE '2020-06-01' a",
                          &stmt)
                  .ok());
  EXPECT_TRUE(stmt.select_star);
  EXPECT_EQ("ACCOUNT", stmt.from.table);
  EXPECT_EQ("A", stmt.from.alias);
  EXPECT_EQ(TemporalSelector::Kind::kPoint, stmt.from.system_time.kind);
  EXPECT_EQ(123, stmt.from.system_time.point);
  EXPECT_EQ(TemporalSelector::Kind::kPoint, stmt.from.app_time.kind);
  EXPECT_EQ(Date::FromYMD(2020, 6, 1).days(), stmt.from.app_time.point);
}

TEST(ParserTest, SystemTimeRangeAndAll) {
  SelectStatement stmt;
  ASSERT_TRUE(
      ParseSelect("SELECT * FROM T FOR SYSTEM_TIME FROM 5 TO 10", &stmt).ok());
  EXPECT_EQ(TemporalSelector::Kind::kRange, stmt.from.system_time.kind);
  EXPECT_EQ(Period(5, 10), stmt.from.system_time.range);
  ASSERT_TRUE(ParseSelect("SELECT * FROM T FOR SYSTEM_TIME ALL", &stmt).ok());
  EXPECT_EQ(TemporalSelector::Kind::kAll, stmt.from.system_time.kind);
}

TEST(ParserTest, NamedBusinessPeriod) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect(
                  "SELECT * FROM ORDERS FOR BUSINESS_TIME RECEIVABLE_TIME "
                  "AS OF 100",
                  &stmt)
                  .ok());
  EXPECT_EQ("RECEIVABLE_TIME", stmt.from.app_period);
}

TEST(ParserTest, JoinsWhereGroupOrderLimit) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect(
                  "SELECT c.NAME, SUM(o.TOTAL) AS revenue "
                  "FROM CUSTOMER c JOIN ORDERS o ON c.ID = o.CUST_ID "
                  "WHERE o.TOTAL > 100 GROUP BY c.NAME "
                  "HAVING SUM(o.TOTAL) > 1000 "
                  "ORDER BY revenue DESC LIMIT 10;",
                  &stmt)
                  .ok());
  EXPECT_EQ(2u, stmt.items.size());
  EXPECT_EQ("REVENUE", stmt.items[1].alias);
  EXPECT_EQ(1u, stmt.joins.size());
  EXPECT_NE(nullptr, stmt.where);
  EXPECT_EQ(1u, stmt.group_by.size());
  EXPECT_NE(nullptr, stmt.having);
  EXPECT_EQ(1u, stmt.order_by.size());
  EXPECT_FALSE(stmt.order_by[0].ascending);
  EXPECT_EQ(10, stmt.limit);
}

TEST(ParserTest, Errors) {
  SelectStatement stmt;
  EXPECT_FALSE(ParseSelect("SELECT", &stmt).ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM", &stmt).ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE", &stmt).ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T LIMIT x", &stmt).ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T trailing garbage !", &stmt).ok());
  EXPECT_FALSE(
      ParseSelect("SELECT * FROM T FOR SYSTEM_TIME NEARBY 3", &stmt).ok());
}

TEST(ParserTest, MinusBeforeANumberIsANegativeLiteral) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect("SELECT A FROM T WHERE A >= -100", &stmt).ok());
  const SqlExpr& bound = *stmt.where->children[1];
  ASSERT_EQ(SqlExpr::Kind::kLiteral, bound.kind);
  EXPECT_EQ(-100, bound.literal.AsInt());
  ASSERT_TRUE(ParseSelect("SELECT A FROM T WHERE A < -2.5", &stmt).ok());
  EXPECT_DOUBLE_EQ(-2.5, stmt.where->children[1]->literal.AsDouble());
  // Any other operand keeps the 0 - x form.
  ASSERT_TRUE(ParseSelect("SELECT A FROM T WHERE -A > 3", &stmt).ok());
  EXPECT_EQ(SqlExpr::Kind::kBinary, stmt.where->children[0]->kind);
  // A binary minus is still a subtraction.
  ASSERT_TRUE(ParseSelect("SELECT A FROM T WHERE A -1 > 3", &stmt).ok());
  EXPECT_EQ(SqlExpr::Kind::kBinary, stmt.where->children[0]->kind);
}

// --- end-to-end -----------------------------------------------------------

class SqlExecTest : public ::testing::Test {
 protected:
  virtual std::unique_ptr<TemporalEngine> NewEngine() {
    return MakeEngine("A");
  }

  void SetUp() override {
    engine_ = NewEngine();
    TableDef def;
    def.name = "ACCOUNT";
    def.schema = Schema({{"ID", ColumnType::kInt},
                         {"OWNER", ColumnType::kString},
                         {"BALANCE", ColumnType::kDouble},
                         {"VB", ColumnType::kDate},
                         {"VE", ColumnType::kDate}});
    def.primary_key = {0};
    def.app_periods = {{"VALIDITY", 3, 4}};
    def.system_versioned = true;
    ASSERT_TRUE(engine_->CreateTable(def).ok());
    TableDef owners;
    owners.name = "OWNER_INFO";
    owners.schema = Schema({{"OWNER", ColumnType::kString},
                            {"REGION", ColumnType::kString}});
    owners.primary_key = {0};
    ASSERT_TRUE(engine_->CreateTable(owners).ok());

    auto ins = [&](int64_t id, const char* owner, double bal, int64_t b,
                   int64_t e) {
      ASSERT_TRUE(engine_
                      ->Insert("ACCOUNT", {Value(id), Value(owner), Value(bal),
                                           Value(b), Value(e)})
                      .ok());
    };
    ins(1, "ann", 100.0, 0, Period::kForever);
    ins(2, "bob", 250.0, 0, Period::kForever);
    ins(3, "cat", -40.0, 50, 150);
    before_update_ = engine_->Now();
    ASSERT_TRUE(engine_->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                       {{2, Value(175.0)}}).ok());
    ASSERT_TRUE(engine_->Insert("OWNER_INFO", {Value("ann"), Value("west")})
                    .ok());
    ASSERT_TRUE(engine_->Insert("OWNER_INFO", {Value("bob"), Value("east")})
                    .ok());
  }

  Rows Run(const std::string& text, std::vector<std::string>* cols = nullptr) {
    SqlResult result;
    Status st = ExecuteSql(*engine_, text, &result);
    EXPECT_TRUE(st.ok()) << st.ToString() << " for: " << text;
    if (cols != nullptr) *cols = result.columns;
    return result.rows;
  }

  std::unique_ptr<TemporalEngine> engine_;
  Timestamp before_update_;
};

TEST_F(SqlExecTest, SelectStarCurrent) {
  std::vector<std::string> cols;
  Rows rows = Run("SELECT * FROM ACCOUNT", &cols);
  EXPECT_EQ(3u, rows.size());
  ASSERT_EQ(7u, cols.size());  // 5 user + 2 system columns
  EXPECT_EQ("SYS_TIME_START", cols[5]);
}

TEST_F(SqlExecTest, ProjectionAndWhere) {
  Rows rows = Run("SELECT OWNER, BALANCE * 2 AS double_bal FROM ACCOUNT "
                  "WHERE BALANCE > 150 ORDER BY OWNER");
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ("ann", rows[0][0].AsString());
  EXPECT_DOUBLE_EQ(350.0, rows[0][1].AsDouble());
  EXPECT_EQ("bob", rows[1][0].AsString());
}

TEST_F(SqlExecTest, SystemTimeTravel) {
  std::string q = "SELECT BALANCE FROM ACCOUNT FOR SYSTEM_TIME AS OF " +
                  std::to_string(before_update_.micros()) + " WHERE ID = 1";
  Rows rows = Run(q);
  ASSERT_EQ(1u, rows.size());
  EXPECT_DOUBLE_EQ(100.0, rows[0][0].AsDouble());  // pre-update value
  rows = Run("SELECT BALANCE FROM ACCOUNT WHERE ID = 1");
  EXPECT_DOUBLE_EQ(175.0, rows[0][0].AsDouble());
}

TEST_F(SqlExecTest, BusinessTimeTravel) {
  // Account 3 is valid only in [50, 150).
  Rows rows = Run("SELECT ID FROM ACCOUNT FOR BUSINESS_TIME AS OF 100");
  EXPECT_EQ(3u, rows.size());
  rows = Run("SELECT ID FROM ACCOUNT FOR BUSINESS_TIME AS OF 10");
  EXPECT_EQ(2u, rows.size());
  for (const Row& r : rows) EXPECT_NE(3, r[0].AsInt());
}

TEST_F(SqlExecTest, SystemTimeAllSeesHistory) {
  Rows rows = Run("SELECT COUNT(*) FROM ACCOUNT FOR SYSTEM_TIME ALL");
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(4, rows[0][0].AsInt());  // three inserts + one closed version
}

TEST_F(SqlExecTest, AggregatesWithGroupBy) {
  Rows rows = Run(
      "SELECT OWNER, COUNT(*), SUM(BALANCE), MIN(BALANCE) "
      "FROM ACCOUNT FOR SYSTEM_TIME ALL GROUP BY OWNER ORDER BY OWNER");
  ASSERT_EQ(3u, rows.size());
  EXPECT_EQ("ann", rows[0][0].AsString());
  EXPECT_EQ(2, rows[0][1].AsInt());
  EXPECT_DOUBLE_EQ(275.0, rows[0][2].AsDouble());
  EXPECT_DOUBLE_EQ(100.0, rows[0][3].AsDouble());
}

TEST_F(SqlExecTest, Having) {
  Rows rows = Run("SELECT OWNER FROM ACCOUNT FOR SYSTEM_TIME ALL "
                  "GROUP BY OWNER HAVING COUNT(*) > 1");
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ("ann", rows[0][0].AsString());
}

TEST_F(SqlExecTest, JoinWithQualifiedColumns) {
  Rows rows = Run(
      "SELECT a.OWNER, i.REGION FROM ACCOUNT a "
      "JOIN OWNER_INFO i ON a.OWNER = i.OWNER ORDER BY a.OWNER");
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ("ann", rows[0][0].AsString());
  EXPECT_EQ("west", rows[0][1].AsString());
  EXPECT_EQ("east", rows[1][1].AsString());
}

TEST_F(SqlExecTest, JoinWithResidualPredicate) {
  Rows rows = Run(
      "SELECT a.ID FROM ACCOUNT a JOIN OWNER_INFO i "
      "ON a.OWNER = i.OWNER AND a.BALANCE > 200");
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(2, rows[0][0].AsInt());  // bob, 250
}

TEST_F(SqlExecTest, LikeAndBetween) {
  Rows rows = Run("SELECT ID FROM ACCOUNT WHERE OWNER LIKE 'a%'");
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(1, rows[0][0].AsInt());
  rows = Run("SELECT ID FROM ACCOUNT WHERE BALANCE BETWEEN 150 AND 300 "
             "ORDER BY ID");
  EXPECT_EQ(2u, rows.size());
}

TEST_F(SqlExecTest, SelectDistinct) {
  Rows rows = Run("SELECT DISTINCT OWNER FROM ACCOUNT FOR SYSTEM_TIME ALL "
                  "ORDER BY OWNER");
  ASSERT_EQ(3u, rows.size());  // ann appears twice in the history
  EXPECT_EQ("ann", rows[0][0].AsString());
  EXPECT_EQ("bob", rows[1][0].AsString());
  EXPECT_EQ("cat", rows[2][0].AsString());
}

TEST_F(SqlExecTest, LimitCountsDistinctRows) {
  // LIMIT applies after DISTINCT: the two "ann" versions count once.
  Rows rows = Run("SELECT DISTINCT OWNER FROM ACCOUNT FOR SYSTEM_TIME ALL "
                  "ORDER BY OWNER LIMIT 2");
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ("ann", rows[0][0].AsString());
  EXPECT_EQ("bob", rows[1][0].AsString());
  // Version counts per owner are 1, 1 and 2: two distinct counts.
  rows = Run("SELECT DISTINCT COUNT(*) FROM ACCOUNT FOR SYSTEM_TIME ALL "
             "GROUP BY OWNER ORDER BY COUNT(*) LIMIT 2");
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ(1, rows[0][0].AsInt());
  EXPECT_EQ(2, rows[1][0].AsInt());
}

TEST_F(SqlExecTest, CountStarOnEmptyResult) {
  Rows rows = Run("SELECT COUNT(*) FROM ACCOUNT WHERE BALANCE > 99999");
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(0, rows[0][0].AsInt());
}

TEST_F(SqlExecTest, ErrorsAreStatuses) {
  SqlResult result;
  EXPECT_EQ(Status::Code::kNotFound,
            ExecuteSql(*engine_, "SELECT * FROM NOPE", &result).code());
  EXPECT_FALSE(ExecuteSql(*engine_, "SELECT NOPE FROM ACCOUNT", &result).ok());
  EXPECT_FALSE(
      ExecuteSql(*engine_, "SELECT OWNER FROM ACCOUNT GROUP BY ID", &result)
          .ok());  // OWNER not in GROUP BY
  EXPECT_FALSE(ExecuteSql(*engine_,
                          "SELECT * FROM OWNER_INFO FOR BUSINESS_TIME AS OF 3",
                          &result)
                   .ok());  // table has no application time
  EXPECT_FALSE(ExecuteSql(
                   *engine_,
                   "SELECT * FROM ACCOUNT FOR BUSINESS_TIME NOPE AS OF 3",
                   &result)
                   .ok());  // unknown period name
}

TEST_F(SqlExecTest, DmlInsertThroughSql) {
  Rows r = Run("INSERT INTO ACCOUNT VALUES (4, 'dan', 77.5, 0, 200)");
  ASSERT_EQ(1u, r.size());
  EXPECT_EQ(1, r[0][0].AsInt());
  Rows check = Run("SELECT BALANCE FROM ACCOUNT WHERE ID = 4");
  ASSERT_EQ(1u, check.size());
  EXPECT_DOUBLE_EQ(77.5, check[0][0].AsDouble());
}

TEST_F(SqlExecTest, DmlUpdateCurrent) {
  Rows r = Run("UPDATE ACCOUNT SET BALANCE = 999 WHERE OWNER = 'bob'");
  EXPECT_EQ(1, r[0][0].AsInt());
  Rows check = Run("SELECT BALANCE FROM ACCOUNT WHERE ID = 2");
  EXPECT_DOUBLE_EQ(999.0, check[0][0].AsDouble());
  // History kept the old value.
  Rows hist = Run("SELECT COUNT(*) FROM ACCOUNT FOR SYSTEM_TIME ALL "
                  "WHERE ID = 2");
  EXPECT_EQ(2, hist[0][0].AsInt());
}

TEST_F(SqlExecTest, DmlUpdateForPortionOfBusinessTime) {
  // Split cat's validity [50,150): new balance only over [80,120).
  Rows r = Run("UPDATE ACCOUNT FOR PORTION OF BUSINESS_TIME FROM 80 TO 120 "
               "SET BALANCE = 5 WHERE ID = 3");
  EXPECT_EQ(1, r[0][0].AsInt());
  Rows mid = Run("SELECT BALANCE FROM ACCOUNT FOR BUSINESS_TIME AS OF 100 "
                 "WHERE ID = 3");
  ASSERT_EQ(1u, mid.size());
  EXPECT_DOUBLE_EQ(5.0, mid[0][0].AsDouble());
  Rows before = Run("SELECT BALANCE FROM ACCOUNT FOR BUSINESS_TIME AS OF 60 "
                    "WHERE ID = 3");
  ASSERT_EQ(1u, before.size());
  EXPECT_DOUBLE_EQ(-40.0, before[0][0].AsDouble());
}

TEST_F(SqlExecTest, DmlDeleteForPortionLeavesGap) {
  Run("DELETE FROM ACCOUNT FOR PORTION OF BUSINESS_TIME FROM 60 TO 100 "
      "WHERE ID = 3");
  EXPECT_TRUE(Run("SELECT ID FROM ACCOUNT FOR BUSINESS_TIME AS OF 80 "
                  "WHERE ID = 3")
                  .empty());
  EXPECT_EQ(1u, Run("SELECT ID FROM ACCOUNT FOR BUSINESS_TIME AS OF 55 "
                    "WHERE ID = 3")
                    .size());
}

TEST_F(SqlExecTest, DmlDeleteCurrent) {
  Rows r = Run("DELETE FROM ACCOUNT WHERE BALANCE < 0");
  EXPECT_EQ(1, r[0][0].AsInt());  // cat
  EXPECT_EQ(2u, Run("SELECT ID FROM ACCOUNT").size());
  // Still in the history.
  EXPECT_EQ(1u, Run("SELECT ID FROM ACCOUNT FOR SYSTEM_TIME ALL "
                    "WHERE ID = 3")
                    .size());
}

TEST_F(SqlExecTest, DmlErrors) {
  SqlResult result;
  EXPECT_FALSE(ExecuteSql(*engine_, "INSERT INTO ACCOUNT VALUES (1)", &result)
                   .ok());  // arity
  EXPECT_FALSE(
      ExecuteSql(*engine_, "UPDATE NOPE SET X = 1", &result).ok());
  EXPECT_FALSE(ExecuteSql(*engine_,
                          "UPDATE ACCOUNT SET BALANCE = BALANCE + 1",
                          &result)
                   .ok());  // non-constant assignment
  EXPECT_FALSE(ExecuteSql(*engine_,
                          "UPDATE OWNER_INFO FOR PORTION OF BUSINESS_TIME "
                          "FROM 1 TO 2 SET REGION = 'x'",
                          &result)
                   .ok());  // table has no application time
  // A value the column cannot store is refused before anything is written,
  // so the sequenced update that follows still finds a well-formed period.
  Status st = ExecuteSql(*engine_, "UPDATE ACCOUNT SET VB = 'x' WHERE ID = 1",
                         &result);
  EXPECT_EQ(Status::Code::kInvalidArgument, st.code()) << st.ToString();
  st = ExecuteSql(*engine_, "INSERT INTO ACCOUNT VALUES (9, 'x', 'y', 0, 9)",
                  &result);
  EXPECT_EQ(Status::Code::kInvalidArgument, st.code()) << st.ToString();
  Rows r = Run("UPDATE ACCOUNT FOR PORTION OF BUSINESS_TIME FROM 0 TO 5 "
               "SET BALANCE = 1.0 WHERE ID = 1");
  EXPECT_EQ(1, r[0][0].AsInt());
  EXPECT_EQ(2u, Run("SELECT ID FROM ACCOUNT WHERE ID = 1").size());
}

// System A with probes on the two points an UPDATE/DELETE passes: the
// public Scan records every request, and OpenVersion cancels
// `cancel_on_open` (when set) once a new version is stored, i.e. after the
// statement applied its first key.
class ProbedEngine : public SystemAEngine {
 public:
  void Scan(const ScanRequest& req, const RowCallback& cb) override {
    scans.push_back(req);
    SystemAEngine::Scan(req, cb);
  }

  std::vector<ScanRequest> scans;
  QueryContext* cancel_on_open = nullptr;

 protected:
  void OpenVersion(TableBase& table, Row user_row, Timestamp ts,
                   StmtKind kind) override {
    SystemAEngine::OpenVersion(table, std::move(user_row), ts, kind);
    if (cancel_on_open != nullptr) cancel_on_open->Cancel();
  }
};

class SqlDmlTest : public SqlExecTest {
 protected:
  std::unique_ptr<TemporalEngine> NewEngine() override {
    auto e = std::make_unique<ProbedEngine>();
    probe_ = e.get();
    return e;
  }

  ProbedEngine* probe_ = nullptr;
};

TEST_F(SqlDmlTest, InterruptAfterFirstKeyStillAppliesEveryKey) {
  QueryContext ctx;
  probe_->cancel_on_open = &ctx;
  SqlResult r;
  Status st = ExecuteSql(*engine_, "UPDATE ACCOUNT SET BALANCE = 1", &r, &ctx);
  probe_->cancel_on_open = nullptr;
  ASSERT_TRUE(ctx.cancel_requested());  // the cancel did land mid-apply
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(3, r.rows[0][0].AsInt());
  Rows rows = Run("SELECT ID, BALANCE FROM ACCOUNT ORDER BY ID");
  ASSERT_EQ(3u, rows.size());
  for (const Row& row : rows) {
    EXPECT_DOUBLE_EQ(1.0, row[1].AsDouble()) << row[0].AsInt();
  }
}

TEST_F(SqlDmlTest, CancelledBeforeTheCallAppliesNothing) {
  const Rows before = Run("SELECT * FROM ACCOUNT FOR SYSTEM_TIME ALL");
  QueryContext ctx;
  ctx.Cancel();
  SqlResult r;
  Status st = ExecuteSql(*engine_, "UPDATE ACCOUNT SET BALANCE = 1", &r, &ctx);
  EXPECT_EQ(Status::Code::kCancelled, st.code()) << st.ToString();
  EXPECT_EQ(before, Run("SELECT * FROM ACCOUNT FOR SYSTEM_TIME ALL"));
}

TEST_F(SqlDmlTest, KeyPinnedPredicateLocatesThroughTheIndex) {
  probe_->scans.clear();
  Rows r = Run("UPDATE ACCOUNT SET BALANCE = 1 WHERE ID = 2");
  EXPECT_EQ(1, r[0][0].AsInt());
  ASSERT_EQ(1u, probe_->scans.size());
  const ScanRequest& req = probe_->scans[0];
  ASSERT_EQ(1u, req.equals.size());
  EXPECT_EQ(0, req.equals[0].first);  // ID
  EXPECT_EQ(2, req.equals[0].second.AsInt());
}

TEST_F(SqlExecTest, SameAnswerOnAllEngines) {
  // The SQL layer sits on the engine API, so every architecture answers
  // SQL identically; sanity-check one aggregate on each.
  for (const std::string& letter : AllEngineLetters()) {
    auto e = MakeEngine(letter);
    TableDef def = engine_->GetTableDef("ACCOUNT");
    ASSERT_TRUE(e->CreateTable(def).ok());
    ASSERT_TRUE(e->Insert("ACCOUNT", {Value(int64_t{1}), Value("x"),
                                      Value(10.0), Value(int64_t{0}),
                                      Value(Period::kForever)})
                    .ok());
    ASSERT_TRUE(e->UpdateCurrent("ACCOUNT", {Value(int64_t{1})},
                                 {{2, Value(20.0)}})
                    .ok());
    SqlResult r;
    ASSERT_TRUE(ExecuteSql(*e,
                           "SELECT SUM(BALANCE) FROM ACCOUNT "
                           "FOR SYSTEM_TIME ALL",
                           &r)
                    .ok());
    EXPECT_DOUBLE_EQ(30.0, r.rows[0][0].AsDouble()) << letter;
  }

  // DML: every engine locates the same keys, applies the same versions and
  // reports the same affected counts.
  Rows reference;
  for (const std::string& letter : AllEngineLetters()) {
    auto e = MakeEngine(letter);
    ASSERT_TRUE(e->CreateTable(engine_->GetTableDef("ACCOUNT")).ok());
    auto ins = [&](int64_t id, const char* owner, double bal, int64_t b,
                   int64_t end) {
      ASSERT_TRUE(e->Insert("ACCOUNT", {Value(id), Value(owner), Value(bal),
                                        Value(b), Value(end)})
                      .ok());
    };
    ins(1, "ann", 100.0, 0, Period::kForever);
    ins(2, "bob", 250.0, 0, Period::kForever);
    ins(3, "cat", -40.0, 50, 150);
    ins(4, "dan", 300.0, 0, Period::kForever);
    // System C names its system-time columns VALID_FROM/VALID_TO.
    const Schema scan = e->ScanSchema("ACCOUNT");
    const std::string sys_start = scan.column(5).name;
    auto dml = [&](const std::string& text) -> int64_t {
      SqlResult r;
      Status st = ExecuteSql(*e, text, &r);
      EXPECT_TRUE(st.ok()) << letter << ": " << st.ToString() << " for "
                           << text;
      return st.ok() ? r.rows[0][0].AsInt() : -1;
    };
    // Key-pinned.
    EXPECT_EQ(1, dml("UPDATE ACCOUNT SET BALANCE = 260 WHERE ID = 2"))
        << letter;
    // FOR PORTION OF: key 1 now has three application-time versions.
    EXPECT_EQ(1, dml("UPDATE ACCOUNT FOR PORTION OF BUSINESS_TIME "
                     "FROM 100 TO 200 SET BALANCE = 7 WHERE ID = 1"))
        << letter;
    // Non-key predicate: keys 2 and 4.
    EXPECT_EQ(2, dml("UPDATE ACCOUNT SET OWNER = 'rich' WHERE BALANCE > 200"))
        << letter;
    const int64_t after_rich = e->Now().micros();
    // Matches nothing.
    EXPECT_EQ(0, dml("DELETE FROM ACCOUNT WHERE ID = 99")) << letter;
    // Three matching versions of one key count once.
    EXPECT_EQ(1, dml("UPDATE ACCOUNT SET BALANCE = 5 WHERE OWNER = 'ann'"))
        << letter;
    EXPECT_EQ(1, dml("DELETE FROM ACCOUNT FOR PORTION OF BUSINESS_TIME "
                     "FROM 60 TO 100 WHERE ID = 3"))
        << letter;
    // System-time predicate: only keys 2 and 4 are unchanged since then.
    EXPECT_EQ(2, dml("UPDATE ACCOUNT SET BALANCE = 2 WHERE " + sys_start +
                     " <= " + std::to_string(after_rich)))
        << letter;
    // No WHERE: every current key.
    EXPECT_EQ(4, dml("UPDATE ACCOUNT SET BALANCE = 0")) << letter;
    EXPECT_EQ(1, dml("DELETE FROM ACCOUNT WHERE ID = 4")) << letter;

    SqlResult all;
    ASSERT_TRUE(ExecuteSql(*e,
                           "SELECT ID, OWNER, BALANCE, VB, VE FROM ACCOUNT "
                           "FOR SYSTEM_TIME ALL FOR BUSINESS_TIME ALL "
                           "ORDER BY ID, " + sys_start + ", VB",
                           &all)
                    .ok())
        << letter;
    if (reference.empty()) {
      reference = all.rows;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(reference, all.rows) << letter;
    }
  }
}

// A negative bound folds into the scan like a positive one: EXPLAIN shows
// the folded range, and the rows equal those of the unfolded `0 - 100`.
TEST(SqlNegativeLiteralTest, NegativeBoundFoldsIntoTheScanOnEveryEngine) {
  const std::string kFolded =
      "SELECT C_CUSTKEY FROM CUSTOMER WHERE C_ACCTBAL >= -100";
  for (const std::string& letter : AllEngineLetters()) {
    WorkloadConfig cfg;
    cfg.engine_letter = letter;
    cfg.h = 0.001;
    cfg.m = 0.001;
    cfg.seed = 7;
    WorkloadContext w = BuildWorkload(cfg);
    std::string json;
    ASSERT_TRUE(Explain(w.eng(), kFolded, &json).ok()) << letter;
    EXPECT_NE(std::string::npos, json.find("\"conjuncts_folded\":1"))
        << letter << ": " << json;
    EXPECT_NE(std::string::npos, json.find("\"range_lo\":\"-100\""))
        << letter << ": " << json;

    SqlResult folded, unfolded, all;
    ASSERT_TRUE(ExecuteSql(w.eng(), kFolded, &folded).ok()) << letter;
    ASSERT_TRUE(ExecuteSql(w.eng(),
                           "SELECT C_CUSTKEY FROM CUSTOMER "
                           "WHERE C_ACCTBAL >= 0 - 100",
                           &unfolded)
                    .ok())
        << letter;
    ASSERT_TRUE(
        ExecuteSql(w.eng(), "SELECT C_CUSTKEY FROM CUSTOMER", &all).ok());
    std::sort(folded.rows.begin(), folded.rows.end());
    std::sort(unfolded.rows.begin(), unfolded.rows.end());
    EXPECT_EQ(unfolded.rows, folded.rows) << letter;
    // The bound excludes some customers and keeps others.
    EXPECT_GT(folded.rows.size(), 0u) << letter;
    EXPECT_LT(folded.rows.size(), all.rows.size()) << letter;
  }
}

}  // namespace
}  // namespace sql
}  // namespace bih
