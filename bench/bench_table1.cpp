// Reproduces Table I of the paper (Section II, "Clustered undetectable
// faults"): for each circuit, the numbers of internal/external DFM
// faults, the undetectable subsets, the gates corresponding to them, and
// the largest cluster of structurally adjacent undetectable faults.
//
// Expected shape (paper): U_In >> U_Ex although F_Ex > F_In, and a single
// cluster S_max holds a large fraction (tens of percent) of U.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.hpp"

using namespace dfmres;
using namespace dfmres::bench;

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  BenchObservability obs("table1");
  std::printf("==== Table I: clustered undetectable DFM faults ====\n");
  std::printf("%-10s %8s %8s %7s %7s %6s %6s %6s %7s %9s\n", "Circuit",
              "F_In", "F_Ex", "U_In", "U_Ex", "A", "G_U", "Gmax", "Smax",
              "%Smax_U");

  const auto circuits =
      selected_circuits({"aes_core", "des_perf", "sparc_exu", "sparc_fpu"});
  for (const auto& name : circuits) {
    const auto t0 = std::chrono::steady_clock::now();
    DesignFlow flow(osu018_library(), bench_flow_options());
    const FlowState state = flow.run_initial(build_benchmark(name).value()).value();
    obs.absorb(state.atpg.counters);
    obs.set_final(state);
    const StateStats s = stats_of(state);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf(
        "%-10s %8zu %8zu %7zu %7zu %6zu %6zu %6zu %7zu %8.2f%%  (%.1fs)\n",
        name.c_str(), s.f_in, s.f_ex, s.u_in, s.u_ex, s.aborted, s.g_u, s.gmax,
        s.smax,
        s.u == 0 ? 0.0
                 : 100.0 * static_cast<double>(s.smax) /
                       static_cast<double>(s.u),
        elapsed);
  }
  return 0;
}
