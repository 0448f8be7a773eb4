#include "workload/queries.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <utility>

#include "exec/optimizer.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace bih {

namespace {

struct QueryText {
  const char* table;  // resolves {for}, {sys_from} and {sys_to}
  const char* text;
};

// The SQL of the query classes, one entry per statement. Placeholders:
// {for} is the FOR SYSTEM_TIME / FOR BUSINESS_TIME clauses of a scan spec,
// {sys_from} and {sys_to} the engine's system-time columns, and {0}, {1},
// ... the query's literal parameters.
const std::map<std::string, QueryText>& QueryTable() {
  static const auto* table = new std::map<std::string, QueryText>{
      {"T1",
       {"PARTSUPP",
        "SELECT AVG(PS_SUPPLYCOST), COUNT(PS_SUPPLYCOST) FROM PARTSUPP{for}"}},
      {"T2",
       {"ORDERS",
        "SELECT AVG(O_TOTALPRICE), COUNT(O_TOTALPRICE) FROM ORDERS{for}"}},
      {"T3",
       {"CUSTOMER",
        "SELECT a.C_CUSTKEY, a.C_ACCTBAL, b.C_ACCTBAL "
        "FROM CUSTOMER FOR BUSINESS_TIME AS OF {0} a "
        "JOIN CUSTOMER FOR BUSINESS_TIME AS OF {1} b "
        "ON a.C_CUSTKEY = b.C_CUSTKEY "
        "WHERE a.C_ACCTBAL <> b.C_ACCTBAL"}},
      {"T4", {"ORDERS", "SELECT * FROM ORDERS{for} LIMIT {0}"}},
      // No FOR BUSINESS_TIME clause: the application time travels as plain
      // predicates, so the optimizer's T8 -> T2 rewrite does not fire.
      {"T8",
       {"ORDERS",
        "SELECT AVG(O_TOTALPRICE), COUNT(O_TOTALPRICE) FROM ORDERS{for} "
        "WHERE O_ACTIVE_BEGIN <= {0} AND O_ACTIVE_END > {0}"}},
      {"K1",
       {"CUSTOMER",
        "SELECT * FROM CUSTOMER{for} WHERE C_CUSTKEY = {0} "
        "ORDER BY {sys_from}"}},
      {"K3",
       {"CUSTOMER",
        "SELECT C_ACCTBAL, {sys_from} FROM CUSTOMER{for} "
        "WHERE C_CUSTKEY = {0} ORDER BY {sys_from}"}},
      {"K4",
       {"CUSTOMER",
        "SELECT * FROM CUSTOMER{for} WHERE C_CUSTKEY = {0} "
        "ORDER BY {sys_from} DESC LIMIT {1}"}},
      {"K5.latest",
       {"CUSTOMER",
        "SELECT MAX({sys_from}) FROM CUSTOMER{for} WHERE C_CUSTKEY = {0}"}},
      {"K5.previous",
       {"CUSTOMER",
        "SELECT * FROM CUSTOMER{for} WHERE C_CUSTKEY = {0} "
        "AND {sys_from} < {1} ORDER BY {sys_from} DESC LIMIT 1"}},
      {"K6",
       {"CUSTOMER",
        "SELECT * FROM CUSTOMER{for} WHERE C_ACCTBAL >= {0} "
        "ORDER BY C_CUSTKEY"}},
      {"R1",
       {"ORDERS",
        "SELECT a.O_ORDERKEY, a.O_ORDERSTATUS, b.O_ORDERSTATUS, b.{sys_from} "
        "FROM ORDERS FOR SYSTEM_TIME ALL a JOIN ORDERS FOR SYSTEM_TIME ALL b "
        "ON a.O_ORDERKEY = b.O_ORDERKEY AND a.{sys_to} = b.{sys_from} "
        "AND a.O_ORDERSTATUS <> b.O_ORDERSTATUS"}},
      {"R2",
       {"ORDERS",
        "SELECT O_ORDERKEY, {sys_from}, {sys_to} FROM ORDERS "
        "FOR SYSTEM_TIME ALL WHERE O_ORDERSTATUS = 'O'"}},
      {"R3",
       {"ORDERS",
        "SELECT O_TOTALPRICE, {sys_from}, {sys_to} FROM ORDERS "
        "FOR SYSTEM_TIME ALL"}},
      {"R4.min",
       {"PARTSUPP",
        "SELECT PS_PARTKEY, PS_SUPPKEY, MIN(PS_AVAILQTY) FROM PARTSUPP "
        "FOR SYSTEM_TIME ALL FOR BUSINESS_TIME ALL "
        "GROUP BY PS_PARTKEY, PS_SUPPKEY"}},
      {"R4.max",
       {"PARTSUPP",
        "SELECT PS_PARTKEY, PS_SUPPKEY, MAX(PS_AVAILQTY) FROM PARTSUPP "
        "FOR SYSTEM_TIME ALL FOR BUSINESS_TIME ALL "
        "GROUP BY PS_PARTKEY, PS_SUPPKEY"}},
      {"R5",
       {"CUSTOMER",
        "SELECT DISTINCT c.C_CUSTKEY FROM CUSTOMER FOR SYSTEM_TIME ALL c "
        "JOIN ORDERS FOR SYSTEM_TIME ALL o ON c.C_CUSTKEY = o.O_CUSTKEY "
        "AND c.{sys_from} < o.{sys_to} AND o.{sys_from} < c.{sys_to} "
        "WHERE c.C_ACCTBAL < {0} AND o.O_TOTALPRICE > {1}"}},
      {"R6",
       {"CUSTOMER",
        "SELECT c.C_NATIONKEY, COUNT(*) FROM CUSTOMER FOR SYSTEM_TIME ALL c "
        "JOIN ORDERS FOR SYSTEM_TIME ALL o ON c.C_CUSTKEY = o.O_CUSTKEY "
        "AND c.{sys_from} < o.{sys_to} AND o.{sys_from} < c.{sys_to} "
        "GROUP BY c.C_NATIONKEY"}},
      {"R7",
       {"PARTSUPP",
        "SELECT PS_PARTKEY, PS_SUPPKEY, PS_SUPPLYCOST, {sys_from} "
        "FROM PARTSUPP FOR SYSTEM_TIME ALL"}},
      // {on} takes the correlation predicates of the variant (B3Sql).
      {"B3",
       {"PARTSUPP",
        "SELECT DISTINCT r.PS_PARTKEY FROM PARTSUPP{for} l "
        "JOIN PARTSUPP{for} r ON l.PS_SUPPKEY = r.PS_SUPPKEY{on} "
        "WHERE l.PS_PARTKEY = {0} ORDER BY r.PS_PARTKEY"}},
  };
  return *table;
}

std::string Clause(const std::string& axis, const TemporalSelector& s) {
  switch (s.kind) {
    case TemporalSelector::Kind::kImplicitCurrent:
      return "";
    case TemporalSelector::Kind::kPoint:
      return " FOR " + axis + " AS OF " + std::to_string(s.point);
    case TemporalSelector::Kind::kRange:
      return " FOR " + axis + " FROM " + std::to_string(s.range.begin) +
             " TO " + std::to_string(s.range.end);
    case TemporalSelector::Kind::kAll:
      return " FOR " + axis + " ALL";
  }
  return "";
}

// A scan spec as SQL:2011 clauses; an unmentioned axis stays implicit.
std::string TemporalClauses(const TableDef& def, const TemporalScanSpec& spec) {
  std::string app = "BUSINESS_TIME";
  if (spec.app_period_index != 0) {
    app += " " + def.app_periods[static_cast<size_t>(spec.app_period_index)]
                     .name;
  }
  return Clause("SYSTEM_TIME", spec.system_time) + Clause(app, spec.app_time);
}

// An integer or double literal the lexer reads back as the same value:
// the shortest round-trip digits without an exponent, and doubles keep a
// decimal point so they stay doubles.
std::string Literal(const Value& v) {
  if (!v.is_double()) return v.ToString();
  char buf[400];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v.AsDouble(),
                                         std::chars_format::fixed);
  std::string s(buf, r.ptr);
  if (s.find('.') == std::string::npos) s += ".0";
  return s;
}

std::string Render(const TemporalEngine& engine, const std::string& table,
                   const std::string& text, const TemporalScanSpec& spec,
                   const std::vector<Value>& values) {
  const TableDef& def = engine.GetTableDef(table);
  const Schema scan = engine.ScanSchema(table);
  const int sys_from = def.schema.num_columns();
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (text[i] != '{') {
      out += text[i++];
      continue;
    }
    const size_t close = text.find('}', i);
    const std::string key = text.substr(i + 1, close - i - 1);
    i = close + 1;
    if (key == "for") {
      out += TemporalClauses(def, spec);
    } else if (key == "sys_from") {
      out += scan.column(sys_from).name;
    } else if (key == "sys_to") {
      out += scan.column(sys_from + 1).name;
    } else {
      out += Literal(values.at(std::stoul(key)));
    }
  }
  return out;
}

Rows RunSql(TemporalEngine& engine, const std::string& text) {
  sql::SqlResult result;
  Status st = sql::ExecuteSql(engine, text, &result);
  BIH_CHECK_MSG(st.ok(), st.ToString() + ": " + text);
  return std::move(result.rows);
}

Rows Run(TemporalEngine& engine, const std::string& name,
         const TemporalScanSpec& spec = {},
         const std::vector<Value>& values = {}) {
  return RunSql(engine, QuerySql(engine, name, spec, values));
}

// Plans one SELECT without running it (R4 joins two of them).
PlanPtr PlanSql(TemporalEngine& engine, const std::string& text) {
  sql::SelectStatement stmt;
  std::vector<std::string> columns;
  PlanPtr plan;
  Status st = sql::ParseSelect(text, &stmt);
  if (st.ok()) st = sql::PlanSelect(engine, stmt, &plan, &columns);
  BIH_CHECK_MSG(st.ok(), st.ToString() + ": " + text);
  return plan;
}

}  // namespace

std::string QuerySql(const TemporalEngine& engine, const std::string& name,
                     const TemporalScanSpec& spec,
                     const std::vector<Value>& values) {
  const QueryText& q = QueryTable().at(name);
  return Render(engine, q.table, q.text, spec, values);
}

Rows QueryAll(TemporalEngine& engine) {
  TemporalScanSpec all;
  all.system_time = TemporalSelector::All();
  all.app_time = TemporalSelector::All();
  return T2(engine, all);
}

Rows T1(TemporalEngine& engine, const TemporalScanSpec& spec) {
  return Run(engine, "T1", spec);
}

Rows T2(TemporalEngine& engine, const TemporalScanSpec& spec) {
  return Run(engine, "T2", spec);
}

Rows T3(TemporalEngine& engine, int64_t app_t1, int64_t app_t2) {
  return Run(engine, "T3", {}, {Value(app_t1), Value(app_t2)});
}

Rows T4(TemporalEngine& engine, const TemporalScanSpec& spec, size_t n) {
  return Run(engine, "T4", spec, {Value(static_cast<int64_t>(n))});
}

Rows T6AppPointSysAll(TemporalEngine& engine, int64_t app_point) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::AsOf(app_point);
  return T2(engine, spec);
}

Rows T6SysPointAppAll(TemporalEngine& engine, Timestamp sys_point) {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::AsOf(sys_point.micros());
  spec.app_time = TemporalSelector::All();
  return T2(engine, spec);
}

Rows T7Implicit(TemporalEngine& engine) {
  return T2(engine, TemporalScanSpec::Current());
}

Rows T7Explicit(TemporalEngine& engine) {
  return T2(engine, TemporalScanSpec::SystemAsOf(engine.Now().micros()));
}

Rows T8SimulatedAppPoint(TemporalEngine& engine, int64_t app_point,
                         const TemporalSelector& sys) {
  TemporalScanSpec spec;
  spec.system_time = sys;
  return Run(engine, "T8", spec, {Value(app_point)});
}

Rows T9SimulatedAppSlice(TemporalEngine& engine, int64_t app_point) {
  return T8SimulatedAppPoint(engine, app_point, TemporalSelector::All());
}

Rows K1(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec) {
  return Run(engine, "K1", spec, {Value(custkey)});
}

Rows K2(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec) {
  return K1(engine, custkey, spec);
}

Rows K3(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec) {
  return Run(engine, "K3", spec, {Value(custkey)});
}

Rows K4(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec,
        size_t n) {
  return Run(engine, "K4", spec,
             {Value(custkey), Value(static_cast<int64_t>(n))});
}

Rows K5(TemporalEngine& engine, int64_t custkey, const TemporalScanSpec& spec) {
  // The correlated subquery as two key accesses: the newest version's
  // start, then the newest version strictly older than it.
  Rows latest = Run(engine, "K5.latest", spec, {Value(custkey)});
  if (latest[0][0].is_null()) return {};
  return Run(engine, "K5.previous", spec, {Value(custkey), latest[0][0]});
}

Rows K6(TemporalEngine& engine, double lo, const TemporalScanSpec& spec) {
  return Run(engine, "K6", spec, {Value(lo)});
}

Rows R1(TemporalEngine& engine) {
  // Two evaluations of ORDERS joined on the key with the system intervals
  // meeting: each joined pair is one state transition.
  return Run(engine, "R1");
}

Rows R2(TemporalEngine& engine) {
  // Duration spent in the open state, per order; an open version lasts
  // until now (the CASE the grammar lacks).
  const int64_t now = engine.Now().micros();
  std::map<int64_t, int64_t> dur;
  for (const Row& row : Run(engine, "R2")) {
    int64_t e = row[2].AsInt();
    if (e == Period::kForever) e = now;
    dur[row[0].AsInt()] += e - row[1].AsInt();
  }
  Rows out;
  for (const auto& [k, d] : dur) out.push_back({Value(k), Value(d)});
  return out;
}

Rows R3(TemporalEngine& engine, TemporalAggKind kind, bool naive) {
  // Rows of (totalprice, sys_from, sys_to).
  Rows versions = Run(engine, "R3");

  if (!naive) {
    // Timeline sweep — the dedicated temporal-aggregation operator the
    // paper finds missing from all systems (cf. the Timeline Index work).
    std::vector<TimelineEntry> entries;
    entries.reserve(versions.size());
    for (const Row& row : versions) {
      TimelineEntry e;
      e.period = Period(row[1].AsInt(), row[2].AsInt());
      e.value = row[0].AsDouble();
      entries.push_back(e);
    }
    std::vector<TimelineSlice> slices =
        TemporalAggregate(std::move(entries), kind);
    Rows out;
    out.reserve(slices.size());
    for (const TimelineSlice& s : slices) {
      out.push_back({Value(s.period.begin), Value(s.period.end),
                     Value(s.value), Value(s.count)});
    }
    return out;
  }

  // Naive SQL:2011 formulation: project all interval boundaries, then for
  // each boundary re-evaluate the aggregate over the versions active there.
  // This is the "rather costly join over the time interval boundaries
  // followed by a grouping" of Section 3.3 — quadratic, hence the orders-of-
  // magnitude blowup of Fig. 14.
  std::vector<int64_t> boundaries;
  for (const Row& row : versions) {
    boundaries.push_back(row[1].AsInt());
    int64_t e = row[2].AsInt();
    if (e != Period::kForever) boundaries.push_back(e);
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  Rows out;
  for (int64_t b : boundaries) {
    double sum = 0.0, mn = 0.0, mx = 0.0;
    int64_t count = 0;
    for (const Row& row : versions) {
      int64_t vb = row[1].AsInt();
      int64_t ve = row[2].AsInt();
      if (vb <= b && b < ve) {
        double v = row[0].AsDouble();
        if (count == 0) {
          mn = mx = v;
        } else {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        sum += v;
        ++count;
      }
    }
    if (count == 0) continue;
    double value = 0.0;
    switch (kind) {
      case TemporalAggKind::kSum:
        value = sum;
        break;
      case TemporalAggKind::kCount:
        value = static_cast<double>(count);
        break;
      case TemporalAggKind::kAvg:
        value = sum / static_cast<double>(count);
        break;
      case TemporalAggKind::kMax:
        value = mx;
        break;
      case TemporalAggKind::kMin:
        value = mn;
        break;
    }
    out.push_back({Value(b), Value(value), Value(count)});
  }
  return out;
}

Rows R4(TemporalEngine& engine, size_t top_n) {
  // The SQL accesses PARTSUPP twice (min and max sub-selects) and joins the
  // two grouped results, which takes derived tables the grammar lacks: the
  // grouped accesses are planned from SQL, the join above them is built
  // here.
  PlanPtr mins = PlanSql(engine, QuerySql(engine, "R4.min"));
  PlanPtr maxs = PlanSql(engine, QuerySql(engine, "R4.max"));
  // (p, s, min, p, s, max) -> (p, s, max-min)
  PlanPtr plan = LimitPlan(
      SortPlan(ProjectPlan(HashJoinPlan(std::move(mins), std::move(maxs),
                                        {0, 1}, {0, 1}, 3),
                           {Col(0), Col(1), Sub(Col(5), Col(2))}),
               {SortSpec{Col(2), true}, SortSpec{Col(0), true},
                SortSpec{Col(1), true}}),
      top_n);
  OptimizePlan(&plan, engine);
  return RunPlan(*plan, engine);
}

Rows R5(TemporalEngine& engine, double balance_lim, double price_lim) {
  return Run(engine, "R5", {}, {Value(balance_lim), Value(price_lim)});
}

Rows R6(TemporalEngine& engine) {
  // Temporal aggregation + join: per nation, number of (order version,
  // customer version) pairs whose system intervals overlap.
  return Run(engine, "R6");
}

Rows R7(TemporalEngine& engine, double pct) {
  // Previous-version correlation for every key: order each key's versions
  // by system time and compare successive supply costs.
  struct Ver {
    int64_t from;
    double cost;
  };
  std::map<std::pair<int64_t, int64_t>, std::vector<Ver>> by_key;
  for (const Row& row : Run(engine, "R7")) {
    by_key[{row[0].AsInt(), row[1].AsInt()}].push_back(
        Ver{row[3].AsInt(), row[2].AsDouble()});
  }
  const double factor = 1.0 + pct / 100.0;
  std::set<int64_t> seen;
  Rows out;
  for (auto& [key, vers] : by_key) {
    std::sort(vers.begin(), vers.end(),
              [](const Ver& a, const Ver& b) { return a.from < b.from; });
    for (size_t i = 1; i < vers.size(); ++i) {
      const bool raised =
          vers[i - 1].cost > 0 && vers[i].cost > vers[i - 1].cost * factor;
      if (raised && seen.insert(key.second).second) {
        out.push_back({Value(key.second)});  // each supplier once
      }
    }
  }
  return out;
}

std::string B3Sql(const TemporalEngine& engine, int variant, int64_t partkey,
                  int64_t app_point, Timestamp sys_past) {
  // Table 3 coordinates: application in {Point, Correlation, Agnostic},
  // system in {Point/Current, Point/Past, Correlation, Agnostic}.
  enum class App { kPoint, kCorr, kAgnostic };
  enum class Sys { kCurrent, kPast, kCorr, kAgnostic };
  static constexpr std::pair<App, Sys> kVariants[] = {
      {App::kAgnostic, Sys::kCurrent},  // 0: non-temporal baseline
      {App::kPoint, Sys::kCurrent},     {App::kPoint, Sys::kPast},
      {App::kCorr, Sys::kCurrent},      {App::kPoint, Sys::kCorr},
      {App::kCorr, Sys::kCorr},         {App::kAgnostic, Sys::kCurrent},
      {App::kAgnostic, Sys::kPast},     {App::kAgnostic, Sys::kCorr},
      {App::kPoint, Sys::kAgnostic},    {App::kCorr, Sys::kAgnostic},
      {App::kAgnostic, Sys::kAgnostic},  // 11 and beyond
  };
  const auto [app, sys] =
      kVariants[variant >= 0 && variant < 11 ? variant : 11];

  TemporalScanSpec spec;  // kCurrent leaves system time implicit
  if (sys == Sys::kPast) {
    spec.system_time = TemporalSelector::AsOf(sys_past.micros());
  } else if (sys != Sys::kCurrent) {
    spec.system_time = TemporalSelector::All();
  }
  spec.app_time = app == App::kPoint ? TemporalSelector::AsOf(app_point)
                                     : TemporalSelector::All();

  std::string on;
  if (app == App::kCorr) {
    on += " AND l.PS_VALID_BEGIN < r.PS_VALID_END "
          "AND r.PS_VALID_BEGIN < l.PS_VALID_END";
  }
  if (sys == Sys::kCorr) {
    on += " AND l.{sys_from} < r.{sys_to} AND r.{sys_from} < l.{sys_to}";
  }
  std::string text = QueryTable().at("B3").text;
  text.replace(text.find("{on}"), 4, on);
  return Render(engine, "PARTSUPP", text, spec, {Value(partkey)});
}

Rows B3(TemporalEngine& engine, int variant, int64_t partkey,
        int64_t app_point, Timestamp sys_past) {
  return RunSql(engine, B3Sql(engine, variant, partkey, app_point, sys_past));
}

}  // namespace bih
