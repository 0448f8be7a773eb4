// Figure 11: value-in-time (K6) — tracing customers selected by a balance
// predicate rather than by key — with and without a Value index, at two
// selectivities.
//
// Expected shape (Section 5.5.3): without an index everything is a table
// scan; the value index pays off only for the selective filter, the
// non-selective one falls back to scans.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

std::vector<std::unique_ptr<TemporalEngine>>* g_engines =
    new std::vector<std::unique_ptr<TemporalEngine>>();

void RegisterFor(const std::string& label, TemporalEngine* e,
                 const WorkloadContext& ctx) {
  TemporalScanSpec app_curr;
  app_curr.app_time = TemporalSelector::All();
  TemporalScanSpec app_past;
  app_past.app_time = TemporalSelector::All();
  app_past.system_time = TemporalSelector::AsOf(ctx.sys_mid.micros());
  TemporalScanSpec sys_axis;
  sys_axis.system_time = TemporalSelector::All();
  auto add = [&](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(("Fig11/" + name + "/" + label).c_str(),
                                 [e, fn](benchmark::State& state) {
                                   for (auto _ : state) {
                                     benchmark::DoNotOptimize(fn(*e));
                                   }
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
  };
  // Highly selective: balances close to the top of the range.
  add("K6_selective_app_curr_sys", [app_curr](TemporalEngine& eng) {
    return K6(eng, 9900.0, app_curr);
  });
  add("K6_selective_app_past_sys", [app_past](TemporalEngine& eng) {
    return K6(eng, 9900.0, app_past);
  });
  add("K6_selective_sys_curr_app", [sys_axis](TemporalEngine& eng) {
    return K6(eng, 9900.0, sys_axis);
  });
  // Non-selective: half of all balances qualify.
  add("K6_nonselective_sys", [sys_axis](TemporalEngine& eng) {
    return K6(eng, 0.0, sys_axis);
  });
}

void RegisterAll() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  for (const std::string& letter : AllEngineLetters()) {
    g_engines->push_back(w.Fresh(letter));
    RegisterFor("System" + letter + "_no_index", g_engines->back().get(), ctx);
    g_engines->push_back(w.Fresh(letter));
    Status st = ApplyIndexSetting(*g_engines->back(), IndexSetting::kValue);
    BIH_CHECK_MSG(st.ok(), st.ToString());
    RegisterFor("System" + letter + "_value_index", g_engines->back().get(),
                ctx);
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  bih::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
