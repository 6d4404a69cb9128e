// Reproduces the behavior illustrated by Fig. 2 of the paper: phase 1
// repeatedly attacks the current largest cluster (Cluster A, then
// Cluster B, ...) until the %Smax target p1 is met; phase 2 then sweeps
// the remaining undetectable faults circuit-wide. The bench prints the
// per-accepted-iteration trajectory of (largest cluster size, total U)
// and an ASCII rendering of the decay.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace dfmres;
using namespace dfmres::bench;

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  BenchObservability obs("fig2_phases");
  const auto circuits = selected_circuits({"tv80"});
  for (const auto& name : circuits) {
    DesignFlow flow(osu018_library(), bench_flow_options());
    const FlowState original =
        flow.run_initial(build_benchmark(name).value()).value();
    const ResynthesisResult result =
        resynthesize(flow, original, bench_resyn_options()).value();
    obs.absorb(flow.atpg_totals());
    obs.absorb(result.report);
    obs.set_final(result.state);

    std::printf("==== Fig. 2 trace: %s ====\n", name.c_str());
    std::printf("start: Smax=%zu U=%zu\n", original.smax(),
                original.num_undetectable());
    std::printf("%4s %3s %5s %8s %8s %12s\n", "iter", "q", "phase", "Smax",
                "U", "via");
    std::size_t max_smax = original.smax();
    int iter = 0;
    for (const IterationRecord& r : result.report.trace) {
      if (!r.accepted) continue;
      ++iter;
      std::printf("%4d %2d%% %5d %8zu %8zu %12s\n", iter, r.q, r.phase,
                  r.smax, r.undetectable,
                  r.via_backtracking ? "backtracking" : "direct");
      max_smax = std::max(max_smax, r.smax);
    }
    // ASCII decay of the largest cluster (the paper's Cluster A, B, ...
    // being broken up one after the other).
    std::printf("largest-cluster decay:\n");
    const auto bar = [&](std::size_t v) {
      const int width =
          max_smax == 0 ? 0
                        : static_cast<int>(60.0 * static_cast<double>(v) /
                                           static_cast<double>(max_smax));
      for (int i = 0; i < width; ++i) std::printf("#");
      std::printf(" %zu\n", v);
    };
    bar(original.smax());
    for (const IterationRecord& r : result.report.trace) {
      if (r.accepted) bar(r.smax);
    }
    std::printf("final: Smax=%zu U=%zu coverage=%.2f%%\n",
                result.state.smax(), result.state.num_undetectable(),
                100.0 * result.state.coverage());
  }
  return 0;
}
