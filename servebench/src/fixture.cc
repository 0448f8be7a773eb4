// Workload table, data set-up and the seeded operation generators.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.h"
#include "bih/generator.h"
#include "tpch/dbgen.h"
#include "tpch/schema.h"

namespace servebench {

using bih::IndexSetting;
using bih::Status;

// ---- Workloads ------------------------------------------------------------

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w(3);
  // Tens of microseconds per request: wire, codec, parse/plan, optimizer
  // folding and admission dominate; index probes barely register.
  w[0].name = "point_audit";
  w[0].engine = "A";
  w[0].index = IndexSetting::kKeyTime;
  w[0].mix = ReadMix::kPointAudit;
  // Two connections, one per CPU the process runs on (kCpus in main.cc).
  w[0].readers = 2;
  w[0].slice_s = 1.0;
  w[0].read_tail_pct = 90.0;
  // Scans, operators and the morsel scheduler do the work.
  w[1].name = "history_analytics";
  w[1].engine = "C";
  w[1].mix = ReadMix::kAnalytics;
  w[1].readers = 1;
  // Two scan threads, not four: a four-way scan waits for its slowest
  // vCPU, and on a shared host that swung throughput and the median
  // latency by a third between identical runs. Two, one per CPU, still
  // show a fix to the parallel path.
  w[1].reader_scan_threads = 2;
  w[1].slice_s = 5.0;
  w[1].read_tail_pct = 95.0;
  // Writer lock, SQL DML, System B's undo drain, WAL staging and group
  // commit; closed-loop readers show what a write costs a read.
  w[2].name = "update_mix";
  w[2].engine = "B";
  w[2].index = IndexSetting::kKeyTime;
  w[2].mix = ReadMix::kWriteInvariant;
  w[2].readers = 2;
  w[2].writers = 2;
  // Each write holds the exclusive lock for several milliseconds. At 20/s
  // per writer that was a third of the window, and throughput swung with
  // how many writes a slow host or device let finish inside it; at 5/s the
  // writes' share, and so that swing, is under a tenth.
  w[2].write_rate = 5.0;
  w[2].wal = true;
  w[2].slice_s = 2.0;
  w[2].read_tail_pct = 99.0;
  w[2].write_tail_pct = 95.0;
  return w;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* w =
      new std::vector<WorkloadSpec>(MakeWorkloads());
  return *w;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const WorkloadSpec& w : Workloads()) v->push_back(w.name);
    return v;
  }();
  return *names;
}

Scale ScaleFor(const Options& opt) {
  if (opt.tiny) return Scale{0.002, 0.002};
  return Scale{0.02, 0.02};
}

// ---- Set-up ---------------------------------------------------------------

namespace {

std::vector<int64_t> DistinctKeys(const std::vector<bih::Row>& rows, int col) {
  std::set<int64_t> keys;
  for (const bih::Row& r : rows) keys.insert(r[static_cast<size_t>(col)].AsInt());
  return std::vector<int64_t>(keys.begin(), keys.end());
}

}  // namespace

Status BuildFixture(const std::string& letter, IndexSetting index, Scale scale,
                    uint64_t seed, Fixture* out, SetupTimes* times) {
  *out = Fixture{};
  *times = SetupTimes{};
  auto t0 = Clock::now();
  bih::TpchData initial = bih::GenerateTpch({scale.h, seed});
  times->dbgen_s = SecondsSince(t0);

  t0 = Clock::now();
  bih::GeneratorConfig gcfg;
  gcfg.m = scale.m;
  gcfg.seed = seed + 1;
  bih::HistoryGenerator gen(initial, gcfg);
  bih::History history = gen.Generate();
  times->history_gen_s = SecondsSince(t0);

  t0 = Clock::now();
  out->engine = bih::MakeEngine(letter);
  bih::TemporalEngine& eng = *out->engine;
  BIH_RETURN_IF_ERROR(bih::CreateBiHTables(eng));
  BIH_RETURN_IF_ERROR(bih::LoadInitialData(eng, initial));
  out->sys_v0 = eng.Now().micros();
  BIH_RETURN_IF_ERROR(bih::ReplayHistory(eng, history));
  eng.Maintain();
  out->sys_end = eng.Now().micros();
  times->load_s = SecondsSince(t0);

  t0 = Clock::now();
  BIH_RETURN_IF_ERROR(bih::ApplyIndexSetting(eng, index));
  times->index_s = SecondsSince(t0);

  out->app_lo = bih::tpch_dates::kCurrent.AddDays(1).days();
  out->app_hi = bih::tpch_dates::kEnd.days() - 1;
  // Keys still visible after the history, so keyed updates never miss.
  const bih::TpchData end = gen.EndState();
  out->custkeys = DistinctKeys(end.customer, bih::customer::kCustKey);
  out->orderkeys = DistinctKeys(end.orders, bih::orders::kOrderKey);
  for (const bih::Row& r : end.customer) {
    const int64_t begin = r[bih::customer::kVisibleBegin].AsInt();
    const int64_t until = r[bih::customer::kVisibleEnd].AsInt();
    if (begin <= out->app_lo && until > out->app_hi) {
      out->spanning_custkeys.push_back(r[bih::customer::kCustKey].AsInt());
    }
  }
  if (out->custkeys.empty() || out->orderkeys.empty() ||
      out->spanning_custkeys.empty()) {
    return Status::Internal("fixture has no visible customers or orders");
  }
  return Status::OK();
}

// ---- Generators -----------------------------------------------------------

uint64_t StreamSeed(uint64_t seed, const std::string& role, int index) {
  uint64_t h = 1469598103934665603ull ^ (seed * 0x9E3779B97F4A7C15ull);
  for (char c : role) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h ^ (static_cast<uint64_t>(index) + 1) * 0xBF58476D1CE4E5B9ull;
}

namespace {

template <typename T>
const T& Pick(bih::Rng& rng, const std::vector<T>& v) {
  return v[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
}

std::string Num(int64_t v) { return std::to_string(v); }

}  // namespace

Op ReadGen::Next() {
  Op op;
  const int64_t t = rng_.UniformInt(fx_->sys_v0, fx_->sys_end);
  switch (mix_) {
    case ReadMix::kPointAudit: {
      const uint64_t kind = n_++ % 3;
      if (kind == 0) {
        op.sql = "SELECT * FROM CUSTOMER FOR SYSTEM_TIME ALL WHERE C_CUSTKEY = " +
                 Num(Pick(rng_, fx_->custkeys));
      } else if (kind == 1) {
        op.sql = "SELECT * FROM CUSTOMER FOR SYSTEM_TIME AS OF " + Num(t) +
                 " WHERE C_CUSTKEY = " + Num(Pick(rng_, fx_->custkeys));
      } else {
        op.sql = "SELECT * FROM ORDERS FOR SYSTEM_TIME AS OF " + Num(t) +
                 " WHERE O_ORDERKEY = " + Num(Pick(rng_, fx_->orderkeys));
      }
      break;
    }
    case ReadMix::kWriteInvariant: {
      // Time travel to before the run: later writes only close versions
      // after t, so the reply stays the same while writers run.
      if (n_++ % 2 == 0) {
        op.sql =
            "SELECT C_CUSTKEY, C_NAME, C_ACCTBAL, C_VISIBLE_BEGIN, "
            "C_VISIBLE_END FROM CUSTOMER FOR SYSTEM_TIME AS OF " +
            Num(t) + " WHERE C_CUSTKEY = " + Num(Pick(rng_, fx_->custkeys));
      } else {
        op.sql =
            "SELECT O_ORDERKEY, O_ORDERSTATUS, O_TOTALPRICE, O_SHIPPRIORITY "
            "FROM ORDERS FOR SYSTEM_TIME AS OF " +
            Num(t) + " WHERE O_ORDERKEY = " + Num(Pick(rng_, fx_->orderkeys));
      }
      break;
    }
    case ReadMix::kAnalytics: {
      const int64_t d = rng_.UniformInt(fx_->app_lo, fx_->app_hi);
      // Five slots, slicing twice: the median then falls inside one query
      // kind's latency band instead of on the gap between two kinds.
      const uint64_t kind = n_++ % 5;
      if (kind == 0) {  // T2: point-point time travel
        op.sql = "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                 "FOR SYSTEM_TIME AS OF " + Num(t) +
                 " FOR BUSINESS_TIME AS OF " + Num(d);
      } else if (kind == 1) {  // T6: application point, all system time
        op.sql = "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                 "FOR SYSTEM_TIME ALL FOR BUSINESS_TIME AS OF " + Num(d);
      } else if (kind == 2 || kind == 4) {  // T6: system point, all app time
        op.sql = "SELECT AVG(O_TOTALPRICE), COUNT(*) FROM ORDERS "
                 "FOR SYSTEM_TIME AS OF " + Num(t) + " FOR BUSINESS_TIME ALL";
      } else {  // AS OF join, revenue by nation
        op.sql = "SELECT C_NATIONKEY, COUNT(*), SUM(O_TOTALPRICE) "
                 "FROM CUSTOMER FOR SYSTEM_TIME AS OF " + Num(t) +
                 " c JOIN ORDERS FOR SYSTEM_TIME AS OF " + Num(t) +
                 " o ON C_CUSTKEY = O_CUSTKEY GROUP BY C_NATIONKEY "
                 "ORDER BY C_NATIONKEY";
      }
      break;
    }
  }
  return op;
}

int64_t WriteGen::PickKey(const std::vector<int64_t>& keys) {
  // This writer owns the keys congruent to its index; the key lists are
  // dense, so a few draws find one. Ownership only keeps writers off each
  // other's keys; the read-back gate holds without it.
  int64_t k = Pick(rng_, keys);
  for (int draw = 0; draw < 64 && k % writers_ != writer_; ++draw) {
    k = Pick(rng_, keys);
  }
  return k;
}

Op WriteGen::Next() {
  Op op;
  op.is_write = true;
  // A value no earlier write used, so the read-back can find this write.
  const int64_t kind = static_cast<int64_t>(next_id_ % 3);
  const int64_t id = static_cast<int64_t>(next_id_++) * writers_ + writer_;
  if (kind == 0) {  // payment: new account balance
    const int64_t k = PickKey(fx_->custkeys);
    const double bal = 100000.0 + static_cast<double>(id) * 0.25;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", bal);
    op.sql = "UPDATE CUSTOMER SET C_ACCTBAL = " + std::string(buf) +
             " WHERE C_CUSTKEY = " + Num(k);
    op.check = WriteCheck{"CUSTOMER", "C_CUSTKEY", k, "C_ACCTBAL",
                          bih::Value(bal)};
  } else if (kind == 1) {  // delivery: order status, stamped with the id
    const int64_t k = PickKey(fx_->orderkeys);
    op.sql = "UPDATE ORDERS SET O_ORDERSTATUS = 'F', O_SHIPPRIORITY = " +
             Num(id) + " WHERE O_ORDERKEY = " + Num(k);
    op.check = WriteCheck{"ORDERS", "O_ORDERKEY", k, "O_SHIPPRIORITY",
                          bih::Value(id)};
  } else {  // sequenced balance correction over part of the visible time
    const int64_t k = PickKey(fx_->spanning_custkeys);
    const int64_t from = rng_.UniformInt(fx_->app_lo, fx_->app_hi - 30);
    const double bal = 200000.0 + static_cast<double>(id) * 0.25;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", bal);
    op.sql = "UPDATE CUSTOMER FOR PORTION OF VISIBLE_TIME FROM " + Num(from) +
             " TO " + Num(from + 30) + " SET C_ACCTBAL = " + std::string(buf) +
             " WHERE C_CUSTKEY = " + Num(k);
    op.check = WriteCheck{"CUSTOMER", "C_CUSTKEY", k, "C_ACCTBAL",
                          bih::Value(bal)};
  }
  return op;
}

// ---- Statistics -----------------------------------------------------------

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

}  // namespace servebench
