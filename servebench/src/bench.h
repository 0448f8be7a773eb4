#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

// Served TPC-BiH benchmark: shared declarations. The benchmark hosts a
// net::Server over one loaded engine on loopback, drives it with net::Client
// connections (one thread each) and checks every sampled answer. A traced
// run replays the same operation streams in-process through each layer's
// public entry points with a span around every call. See RATIONALE.md.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/engine.h"
#include "server/session.h"
#include "workload/context.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- Command line -------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny data scale and short phases: the smoke test's setting.
  bool tiny = false;
  // Flips one byte of the first expected reply so the smoke test can prove
  // that the correctness gate trips.
  bool corrupt_expected = false;
  // Where the WAL and the span dump go (created by the caller).
  std::string work_dir = ".";
  std::string git_sha;
};

// ---- Workload definitions ----------------------------------------------

enum class ReadMix {
  kPointAudit,      // key history + point time travel, SELECT *
  kAnalytics,       // T2, T6 slices, AS OF CUSTOMER-ORDERS join by nation
  kWriteInvariant,  // point time travel before the run, user columns only
};

struct WorkloadSpec {
  std::string name;
  std::string engine;  // A..D
  bih::IndexSetting index = bih::IndexSetting::kNone;
  ReadMix mix = ReadMix::kPointAudit;
  int readers = 1;            // closed-loop connections
  int reader_scan_threads = 0;  // hello-frame scan_threads (0 = default)
  int writers = 0;            // open-loop connections
  double write_rate = 0.0;    // writes per second per writer connection
  bool wal = false;           // WAL + group commit, real fdatasync
  // The measured window is cut into slices of about `slice_s` seconds;
  // end-to-end rates and percentiles are medians of their per-slice values,
  // so a stall elsewhere on the host moves one slice, not the result. Each
  // tail percentile leaves at least ten samples beyond it in every slice;
  // above it the host's scheduling noise set the run-to-run spread
  // (RATIONALE.md).
  double slice_s = 1.0;
  double read_tail_pct = 99.0;
  double write_tail_pct = 95.0;
};

// Returns false for an unknown workload name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);
const std::vector<std::string>& WorkloadNames();

// ---- Fixture (setup) ----------------------------------------------------

struct Scale {
  double h = 0.0;
  double m = 0.0;
};
Scale ScaleFor(const Options& opt);

struct SetupTimes {
  double dbgen_s = 0.0;
  double history_gen_s = 0.0;
  double load_s = 0.0;
  double index_s = 0.0;
  double total() const { return dbgen_s + history_gen_s + load_s + index_s; }
};

// A loaded engine plus the coordinates the generators draw from.
struct Fixture {
  std::unique_ptr<bih::TemporalEngine> engine;
  int64_t sys_v0 = 0;   // micros: right after the initial load
  int64_t sys_end = 0;  // micros: after the full history
  int64_t app_lo = 0;   // day numbers of the evolution window
  int64_t app_hi = 0;
  // Keys visible at the end of the history (updates never miss).
  std::vector<int64_t> custkeys;
  std::vector<int64_t> orderkeys;
  // Customers with one version whose visible period spans the whole
  // evolution window, so a sequenced update there always changes a row.
  std::vector<int64_t> spanning_custkeys;
};

// Generates TPC-H data and a history from `seed`, loads it into engine
// `letter` and applies `index`. Timed phase by phase into *times.
bih::Status BuildFixture(const std::string& letter, bih::IndexSetting index,
                         Scale scale, uint64_t seed, Fixture* out,
                         SetupTimes* times);

// ---- Operations ---------------------------------------------------------

// What an acknowledged write must leave behind: some version of
// table.key_col = key carries col = value.
struct WriteCheck {
  std::string table;
  std::string key_col;
  int64_t key = 0;
  std::string col;
  bih::Value value;
};

struct Op {
  std::string sql;
  bool is_write = false;
  WriteCheck check;  // writes only
  // Filled by the served run for the replay: when the op started (reads)
  // or was due (writes), in seconds into the window, and its latency.
  double at_s = 0.0;
  double served_us = 0.0;
};

// Deterministic per-connection operation sources.
class ReadGen {
 public:
  ReadGen(const Fixture* fx, ReadMix mix, uint64_t seed)
      : fx_(fx), mix_(mix), rng_(seed) {}
  Op Next();

 private:
  const Fixture* fx_;
  ReadMix mix_;
  uint64_t n_ = 0;  // query kinds rotate, so every run has the same mix
  bih::Rng rng_;
};

class WriteGen {
 public:
  // Writer `writer` of `writers` draws keys with key % writers == writer,
  // so writers stay off each other's keys.
  WriteGen(const Fixture* fx, int writer, int writers, uint64_t seed)
      : fx_(fx), writer_(writer), writers_(writers), rng_(seed) {}
  Op Next();

 private:
  int64_t PickKey(const std::vector<int64_t>& keys);
  const Fixture* fx_;
  int writer_;
  int writers_;
  uint64_t next_id_ = 1;  // also rotates the statement kind
  bih::Rng rng_;
};

uint64_t StreamSeed(uint64_t seed, const std::string& role, int index);

// Longest stream prefix a connection records for the traced replay; bounds
// the benchmark's own memory and the span dump.
constexpr size_t kMaxStreamOps = 20000;

// ---- Statistics ---------------------------------------------------------

double Percentile(std::vector<double> v, double pct);
double Median(std::vector<double> v);
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// ---- Served run ---------------------------------------------------------

// One sampled read reply, for the byte-for-byte gate.
struct ReplySample {
  std::string sql;
  uint64_t request_id = 0;
  std::string raw_payload;
};

struct ServedResult {
  double window_s = 0.0;
  std::vector<double> read_us;
  std::vector<double> read_at_s;    // start, seconds into the window
  std::vector<double> write_us;     // timed from the due time
  std::vector<double> write_at_s;   // due time, seconds into the window
  std::vector<double> lateness_us;  // send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::vector<ReplySample> samples;
  std::vector<WriteCheck> acked;
  // Per-connection completed streams in issue order: the replay input.
  std::vector<std::vector<Op>> streams;
};

// Runs the workload's connections against `session` behind a net::Server
// for `seconds` after `warmup` seconds; every `sample_every`-th read is
// kept for the correctness gate.
bih::Status RunServed(const WorkloadSpec& spec, const Fixture& fx,
                      bih::SessionManager* session, uint64_t seed,
                      double warmup, double seconds, int sample_every,
                      ServedResult* out);

// Durability and version counters of one engine + session.
struct WriteCounters {
  uint64_t syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t groups = 0;
  uint64_t acks = 0;
  uint64_t history_rows = 0;
  uint64_t pending_undo = 0;
};
WriteCounters ReadCounters(bih::SessionManager* session);

// ---- Correctness gates --------------------------------------------------

struct GateResult {
  uint64_t checked = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;
  void Fail(const std::string& m) {
    ++failed;
    if (messages.size() < 5) messages.push_back(m);
  }
};

// Sampled replies vs in-process sql::ExecuteSql on the same engine; the
// reference runs serially, so a parallel reply must equal serial rows.
void CheckReplies(bih::TemporalEngine& engine,
                  const std::vector<ReplySample>& samples, bool corrupt,
                  GateResult* gate);
// Every acknowledged write is visible in the key's history.
void CheckReadback(bih::TemporalEngine& engine,
                   const std::vector<WriteCheck>& acked, GateResult* gate);
// Recovery of the WAL at `wal_path` holds the same history for every
// written key as the live engine.
void CheckRecovery(bih::TemporalEngine& live, const std::string& letter,
                   const std::string& wal_path,
                   const std::vector<WriteCheck>& acked, GateResult* gate);

// ---- Traced run ---------------------------------------------------------

struct TraceInput {
  const WorkloadSpec* spec = nullptr;
  const ServedResult* served = nullptr;
  bih::SessionManager* session = nullptr;  // the served session
  const Fixture* fx = nullptr;
  uint64_t seed = 0;
  double replay_cap_s = 0.0;  // per-connection replay length bound
  std::string wal_probe_path;  // read-only workloads: write-probe WAL
  std::string span_path;       // JSON span dump
  WriteCounters served_before, served_after;
};

// Replays the served streams untraced and traced, runs the write probe on
// read-only workloads and derives the per-layer metrics. Replay failures
// and parallel vs serial row mismatches count against `gate`.
bih::Status RunTraced(TraceInput in, std::vector<Metric>* metrics,
                      std::vector<std::string>* report, GateResult* gate);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
