// Interactive temporal SQL shell over a loaded TPC-BiH workload.
//
//   ./sql_shell [engine-letter]
//
// Loads the benchmark data into one engine and reads SELECT statements from
// stdin. Try:
//   SELECT COUNT(*) FROM ORDERS;
//   SELECT COUNT(*) FROM ORDERS FOR SYSTEM_TIME ALL;
//   SELECT O_ORDERSTATUS, COUNT(*), AVG(O_TOTALPRICE) FROM ORDERS
//     GROUP BY O_ORDERSTATUS ORDER BY O_ORDERSTATUS;
//   SELECT C_NAME, C_ACCTBAL FROM CUSTOMER FOR BUSINESS_TIME AS OF
//     DATE '1996-06-01' WHERE C_ACCTBAL > 9000 ORDER BY C_ACCTBAL DESC
//     LIMIT 5;
//   SELECT O_ORDERKEY FROM ORDERS FOR BUSINESS_TIME RECEIVABLE_TIME
//     AS OF DATE '1997-01-01' LIMIT 5;
// Prefix a SELECT with EXPLAIN for its plan tree with per-node counters
// (rows examined, partitions touched, index used).
#include <cstdio>
#include <iostream>
#include <string>

#include "sql/executor.h"
#include "workload/context.h"

using namespace bih;

int main(int argc, char** argv) {
  std::string letter = argc > 1 ? argv[1] : "A";
  WorkloadConfig cfg;
  cfg.engine_letter = letter;
  cfg.h = 0.002;
  cfg.m = 0.002;
  std::printf("loading TPC-BiH workload into System %s ...\n", letter.c_str());
  WorkloadContext ctx = BuildWorkload(cfg);
  std::printf(
      "tables: REGION NATION SUPPLIER PART PARTSUPP CUSTOMER ORDERS "
      "LINEITEM\nsystem time range: %lld .. %lld (micros)\n"
      "type SELECT / INSERT / UPDATE / DELETE statements "
      "(FOR PORTION OF BUSINESS_TIME works), empty line to quit\n\n",
      static_cast<long long>(ctx.sys_v0.micros()),
      static_cast<long long>(ctx.sys_end.micros()));

  std::string line, statement;
  while (true) {
    std::printf(statement.empty() ? "bih> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty() && statement.empty()) break;
    statement += line + "\n";
    // Execute once the statement looks complete (ends with ';') or the
    // user enters a blank line.
    if (line.find(';') == std::string::npos && !line.empty()) continue;
    sql::SqlResult result;
    Status st = sql::ExecuteSql(ctx.eng(), statement, &result);
    statement.clear();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      continue;
    }
    std::printf("%s(%zu rows)\n\n",
                FormatRows(result.rows, result.columns, 25).c_str(),
                result.rows.size());
  }
  return 0;
}
