// servebench: the served TPC-BiH benchmark.
//
//   servebench --workload point_audit|history_analytics|update_mix
//              --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-expected]
//              [--work-dir DIR] [--git-sha SHA]
//
// Prints a human report, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit 0 on a correct
// run, 1 when a correctness gate failed or the run could not complete, 2 on
// bad usage (including update_mix under BIH_NO_FSYNC).
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "durability/checkpoint.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using bih::Status;

// One fixed TPC-BiH instance for every run, as in the paper's experiments;
// --seed drives the operation streams (keys, times, parameters).
constexpr uint64_t kDataSeed = 2014;
// The whole process (set-up, server, clients) runs on this many CPUs. A
// request of tens of microseconds hops between a client and a server
// thread twice; spread over every vCPU of a shared host, each hop could
// wait for the hypervisor to run a descheduled vCPU, and point_audit's
// throughput swung fourfold between identical runs. On two vCPUs it held
// within a fifth while the unpinned runs swung.
constexpr int kCpus = 2;
// Per-slice latencies of one operation class.
std::vector<std::vector<double>> Slices(const std::vector<double>& at_s,
                                        const std::vector<double>& us,
                                        double window, int slices) {
  std::vector<std::vector<double>> out(static_cast<size_t>(slices));
  for (size_t i = 0; i < us.size(); ++i) {
    const int k = static_cast<int>(at_s[i] / window * slices);
    out[static_cast<size_t>(std::clamp(k, 0, slices - 1))].push_back(us[i]);
  }
  return out;
}

// The pct-th percentile of each slice, in milliseconds.
std::vector<double> PerSliceMs(const std::vector<std::vector<double>>& slices,
                               double pct) {
  std::vector<double> v;
  for (const std::vector<double>& s : slices) {
    if (!s.empty()) v.push_back(Percentile(s, pct) / 1000.0);
  }
  return v;
}

// Restricts the process to the first `n` CPUs of its affinity mask; threads
// started later inherit it. Returns a description for the report.
std::string PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "all (query failed)";
  }
  cpu_set_t use;
  CPU_ZERO(&use);
  std::string list;
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &use);
    if (taken++ > 0) list += ',';
    list += std::to_string(c);
  }
  if (sched_setaffinity(0, sizeof(use), &use) != 0) return "all (pin failed)";
  return list;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload W --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt-expected] "
               "[--work-dir DIR] [--git-sha SHA]\nworkloads:",
               why);
  for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *err = "missing value for " + a;
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (a == "--workload") {
      if (!value(&opt->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      opt->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        *err = "bad --seed " + v;
        return false;
      }
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      opt->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt->seconds > 0.0) ||
          opt->seconds > 600.0) {
        *err = "bad --seconds " + v;
        return false;
      }
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      if (v != "0" && v != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      opt->trace = v == "1";
    } else if (a == "--tiny") {
      opt->tiny = true;
    } else if (a == "--corrupt-expected") {
      opt->corrupt_expected = true;
    } else if (a == "--work-dir") {
      if (!value(&opt->work_dir)) return false;
    } else if (a == "--git-sha") {
      if (!value(&opt->git_sha)) return false;
    } else {
      *err = "unknown argument " + a;
      return false;
    }
  }
  if (opt->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

std::string Fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-32s %16.6f %-8s n=%llu\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    // %.17g keeps every digit the measurement has.
    s += "\"" + ms[i].name + "\": {\"value\": " + Fmt("%.17g", ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

int Run(const Options& opt) {
  WorkloadSpec spec;
  if (!FindWorkload(opt.workload, &spec)) return Usage("unknown workload");
  if (spec.wal && std::getenv("BIH_NO_FSYNC") != nullptr) {
    std::fprintf(stderr,
                 "servebench: refusing to run %s with BIH_NO_FSYNC set: its "
                 "write latencies need real device syncs\n",
                 spec.name.c_str());
    return 2;
  }
  const std::string cpus = PinToCpus(kCpus);
  const Scale scale = ScaleFor(opt);
  const std::string wal_path = opt.work_dir + "/" + spec.name + ".wal";
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf(
      "conditions {\"nproc\": %u, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"engine\": \"%s\", \"h\": %g, \"m\": %g, \"wal\": \"%s\", "
      "\"flush_policy\": \"%s\", \"cpus\": \"%s\"}\n",
      std::thread::hardware_concurrency(), SERVEBENCH_BUILD_TYPE,
      opt.git_sha.empty() ? "unknown" : opt.git_sha.c_str(),
      spec.engine.c_str(), scale.h, scale.m,
      spec.wal ? wal_path.c_str() : "none",
      spec.wal ? "group commit, fdatasync per group" : "none (no WAL)",
      cpus.c_str());

  // ---- Set-up, repeated; the last fixture serves. ------------------------
  const int setups = opt.tiny ? 1 : 3;
  std::vector<SetupTimes> times;
  Fixture fx;
  for (int r = 0; r < setups; ++r) {
    fx = Fixture{};  // free the previous engine before building the next
    SetupTimes t;
    Status st = BuildFixture(spec.engine, spec.index, scale, kDataSeed, &fx, &t);
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    times.push_back(t);
  }
  auto median_of = [&](double SetupTimes::* f) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*f);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : times) totals.push_back(t.total());
  const double setup_s = Median(totals);

  if (spec.wal) {
    // The durable base: a checkpoint of the loaded engine, so recovery is
    // checkpoint + the run's WAL tail.
    const auto t0 = Clock::now();
    bih::CheckpointInfo info;
    Status st = fx.engine->EnableWal(wal_path);
    if (st.ok()) st = bih::Checkpointer(wal_path).Write(fx.engine.get(), &info);
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: checkpoint failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint: %llu rows, %llu bytes in %.3f s\n",
                static_cast<unsigned long long>(info.rows),
                static_cast<unsigned long long>(info.bytes), SecondsSince(t0));
  }

  bih::SessionConfig cfg;
  cfg.scan_threads = 1;  // readers ask for more in their hello frame
  bih::SessionManager session(fx.engine.get(), cfg);

  // ---- Served run. -------------------------------------------------------
  const double warmup = opt.tiny ? 0.2 : 1.0;
  const double seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const int sample_every = spec.mix == ReadMix::kAnalytics ? 4 : 97;
  const WriteCounters before = ReadCounters(&session);
  ServedResult served;
  Status st = RunServed(spec, fx, &session, opt.seed, warmup, seconds,
                        sample_every, &served);
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: served run failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const WriteCounters after = ReadCounters(&session);
  for (const std::string& e : served.errors) {
    std::printf("error: %s\n", e.c_str());
  }

  // ---- Correctness gates. ------------------------------------------------
  GateResult gate;
  if (served.attempted == 0) gate.Fail("no operation ran in the window");
  CheckReplies(session.engine(), served.samples, opt.corrupt_expected, &gate);
  if (spec.writers > 0) {
    CheckReadback(session.engine(), served.acked, &gate);
    CheckRecovery(session.engine(), spec.engine, wal_path, served.acked, &gate);
  }

  std::vector<Metric> e2e, layers;
  std::vector<std::string> report;
  if (opt.trace) {
    TraceInput in;
    in.spec = &spec;
    in.served = &served;
    in.session = &session;
    in.fx = &fx;
    in.seed = opt.seed;
    in.replay_cap_s = std::min(opt.seconds / 4.0, 3.0);
    in.wal_probe_path = opt.work_dir + "/" + spec.name + ".probe.wal";
    in.span_path = opt.work_dir + "/spans_" + spec.name + ".json";
    in.served_before = before;
    in.served_after = after;
    st = RunTraced(in, &layers, &report, &gate);
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: traced run failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    layers.push_back({"setup.dbgen_s", median_of(&SetupTimes::dbgen_s), "s",
                      times.size()});
    layers.push_back({"setup.history_gen_s",
                      median_of(&SetupTimes::history_gen_s), "s", times.size()});
    layers.push_back({"setup.load_s", median_of(&SetupTimes::load_s), "s",
                      times.size()});
    layers.push_back({"setup.index_s", median_of(&SetupTimes::index_s), "s",
                      times.size()});
  }

  const uint64_t failed = served.failed + gate.failed;
  const double window = served.window_s;
  const int slices = std::max(1, static_cast<int>(window / spec.slice_s));
  const auto reads = Slices(served.read_at_s, served.read_us, window, slices);
  const auto writes = Slices(served.write_at_s, served.write_us, window, slices);
  std::vector<double> slice_rate;
  for (size_t k = 0; k < reads.size(); ++k) {
    slice_rate.push_back(static_cast<double>(reads[k].size() + writes[k].size()) /
                         (window / slices));
  }
  e2e.push_back({"setup_s", setup_s, "s", times.size()});
  e2e.push_back({"throughput_ops_s", Median(slice_rate), "1/s",
                 served.completed});
  e2e.push_back({"read_p50_ms", Median(PerSliceMs(reads, 50.0)), "ms",
                 served.read_us.size()});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  // Reported, not gated by BENCHMARK.json (see RATIONALE.md).
  std::vector<Metric> extra;
  extra.push_back({"read_tail_ms",
                   Median(PerSliceMs(reads, spec.read_tail_pct)), "ms",
                   served.read_us.size()});
  if (spec.writers > 0) {
    // Too few writes per slice: whole-window percentiles.
    extra.push_back({"write_p50_ms", Percentile(served.write_us, 50.0) / 1000.0,
                     "ms", served.write_us.size()});
    extra.push_back({"write_tail_ms",
                     Percentile(served.write_us, spec.write_tail_pct) / 1000.0,
                     "ms", served.write_us.size()});
  }
  extra.push_back({"error_ratio",
                   served.attempted > 0 ? static_cast<double>(failed) /
                                              static_cast<double>(served.attempted)
                                        : 0.0,
                   "ratio", served.attempted});

  std::printf("tail percentiles: read p%g, write p%g; %d slices of %.3f s\n",
              spec.read_tail_pct, spec.write_tail_pct, slices, window / slices);
  std::printf("ops/s per slice:");
  for (double r : slice_rate) std::printf(" %.1f", r);
  std::printf("\nmedian over slices: ops/s=%.1f", Median(slice_rate));
  for (double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    std::printf(" read_p%g_ms=%.4f", pct, Median(PerSliceMs(reads, pct)));
  }
  std::printf("\n");
  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : extra) PrintMetric(m);
  for (const Metric& m : layers) PrintMetric(m);
  for (const std::string& line : report) std::printf("%s\n", line.c_str());
  std::printf("gates: %llu checked, %llu failed\n",
              static_cast<unsigned long long>(gate.checked),
              static_cast<unsigned long long>(gate.failed));
  for (const std::string& m : gate.messages) std::printf("gate: %s\n", m.c_str());

  const bool correct = gate.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(served.attempted, 1)),
              static_cast<unsigned long long>(failed),
              MetricsJson(opt.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options opt;
  std::string err;
  if (!servebench::ParseArgs(argc, argv, &opt, &err)) {
    return servebench::Usage(err.c_str());
  }
  return servebench::Run(opt);
}
