// Quickstart: create a bitemporal table, evolve it, and time-travel.
//
// Demonstrates the core public API: TemporalEngine (four architectures),
// TableDef with application-time periods, sequenced DML, and temporal scans
// (AS OF on either axis, slices, full history).
#include <cstdio>

#include "engine/engine.h"
#include "exec/plan.h"
#include "exec/rows.h"

using namespace bih;

namespace {

TableDef EmployeeDef() {
  TableDef def;
  def.name = "EMPLOYEE";
  def.schema = Schema({{"ID", ColumnType::kInt},
                       {"NAME", ColumnType::kString},
                       {"DEPARTMENT", ColumnType::kString},
                       {"SALARY", ColumnType::kDouble},
                       {"VALID_FROM", ColumnType::kDate},
                       {"VALID_TO", ColumnType::kDate}});
  def.primary_key = {0};
  def.app_periods = {{"EMPLOYMENT", 4, 5}};  // application time
  def.system_versioned = true;               // system time
  return def;
}

void Show(TemporalEngine& engine, const char* title, const ScanRequest& req) {
  Rows rows = RunPlan(*ScanPlan(req), engine);
  std::printf("\n-- %s (%zu rows)\n", title, rows.size());
  std::printf("%s", FormatRows(rows,
                               {"id", "name", "dept", "salary", "from", "to",
                                "sys_start", "sys_end"})
                        .c_str());
}

}  // namespace

int main() {
  // Pick any of the four architectures ("A".."D"); they answer identically,
  // they just store and plan differently.
  auto engine = MakeEngine("A");
  Status st = engine->CreateTable(EmployeeDef());
  BIH_CHECK_MSG(st.ok(), st.ToString());

  const int64_t jan = Date::FromYMD(2020, 1, 1).days();
  const int64_t jun = Date::FromYMD(2020, 6, 1).days();
  const int64_t dec = Date::FromYMD(2020, 12, 1).days();

  // Hire two employees; employment valid from January, open-ended.
  st = engine->Insert("EMPLOYEE", {Value(int64_t{1}), Value("ada"),
                                   Value("eng"), Value(90000.0), Value(jan),
                                   Value(Period::kForever)});
  BIH_CHECK_MSG(st.ok(), st.ToString());
  st = engine->Insert("EMPLOYEE", {Value(int64_t{2}), Value("grace"),
                                   Value("ops"), Value(80000.0), Value(jan),
                                   Value(Period::kForever)});
  BIH_CHECK_MSG(st.ok(), st.ToString());
  Timestamp before_raise = engine->Now();

  // A sequenced update: ada's salary rises from June onwards. The engine
  // splits her employment period: [jan, jun) keeps the old salary.
  st = engine->UpdateSequenced("EMPLOYEE", {Value(int64_t{1})}, 0,
                               Period(jun, Period::kForever),
                               {{3, Value(105000.0)}});
  BIH_CHECK_MSG(st.ok(), st.ToString());

  // A non-temporal correction: grace's department was recorded wrong all
  // along; only the system time moves.
  st = engine->UpdateCurrent("EMPLOYEE", {Value(int64_t{2})},
                             {{2, Value("eng")}});
  BIH_CHECK_MSG(st.ok(), st.ToString());

  ScanRequest req;
  req.table = "EMPLOYEE";
  Show(*engine, "current state", req);

  req.temporal = TemporalScanSpec::AppAsOf(Date::FromYMD(2020, 3, 1).days());
  Show(*engine, "salaries as valid in March (application time)", req);

  req.temporal = TemporalScanSpec::AppAsOf(dec);
  Show(*engine, "salaries as valid in December (application time)", req);

  req.temporal = TemporalScanSpec::SystemAsOf(before_raise.micros());
  Show(*engine, "what the database believed before the raise (system time)",
       req);

  TemporalScanSpec everything;
  everything.system_time = TemporalSelector::All();
  everything.app_time = TemporalSelector::All();
  req.temporal = everything;
  Show(*engine, "complete bitemporal history", req);

  // Plan introspection: a scan writes its counters into the ExecStats its
  // request points at, showing which partitions it touched and whether an
  // index served it.
  ExecStats stats;
  req.stats = &stats;
  engine->Scan(req, [](const Row&) { return true; });
  std::printf("\nhistory scan: %llu rows examined, %d partitions, history=%s\n",
              static_cast<unsigned long long>(stats.rows_examined),
              stats.partitions_touched, stats.touched_history ? "yes" : "no");
  return 0;
}
