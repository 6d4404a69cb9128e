// Wall-clock scaling of the parallel fault-simulation sweeps in
// `run_atpg` (thread pool, PR "parallelize fault simulation"). Runs the
// implementation flow once on the largest seed benchmark block to obtain
// its DFM fault universe, then re-classifies that fixed universe at
// several thread counts, verifying that every run produces bit-identical
// fault statuses and recording per-run wall clock plus engine counters
// in `BENCH_parallel_atpg.json`.
//
// Overrides: first argv = circuit name; DFMRES_BENCH_THREADLIST="1,2,4"
// picks the thread counts; DFMRES_BENCH_REPEATS=N takes best-of-N.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

using namespace dfmres;
using namespace dfmres::bench;

namespace {

std::vector<int> thread_list() {
  std::vector<int> out;
  if (const char* env = std::getenv("DFMRES_BENCH_THREADLIST")) {
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::size_t end = comma == std::string::npos ? s.size() : comma;
      if (end > pos) out.push_back(std::atoi(s.substr(pos, end - pos).c_str()));
      pos = end + 1;
    }
  }
  if (out.empty()) out = {1, 2, 4};
  return out;
}

/// Largest seed benchmark by generic gate count (cheap to compute: the
/// generators are deterministic and build in milliseconds).
std::string largest_benchmark() {
  std::string best;
  std::size_t best_gates = 0;
  for (const auto name : benchmark_names()) {
    const Netlist nl = build_benchmark(name).value();
    if (nl.num_live_gates() > best_gates) {
      best_gates = nl.num_live_gates();
      best = std::string(name);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  BenchObservability obs("parallel_atpg");
  const std::string circuit = argc > 1 ? argv[1] : largest_benchmark();
  const int repeats = [] {
    const char* env = std::getenv("DFMRES_BENCH_REPEATS");
    return env ? std::max(1, std::atoi(env)) : 2;
  }();

  std::printf("==== parallel ATPG scaling: %s ====\n", circuit.c_str());
  DesignFlow flow(osu018_library(), bench_flow_options());
  const FlowState state = flow.run_initial(build_benchmark(circuit).value()).value();
  std::printf("faults=%zu gates=%zu\n", state.num_faults(),
              state.netlist.num_live_gates());

  AtpgOptions base = bench_flow_options().atpg;
  base.generate_tests = true;

  struct Run {
    int threads = 1;
    double seconds = 0.0;
    AtpgCounters counters;
  };
  std::vector<Run> runs;
  std::vector<FaultStatus> reference;
  bool identical = true;

  for (const int threads : thread_list()) {
    AtpgOptions options = base;
    options.num_threads = threads;
    Run run;
    run.threads = threads;
    run.seconds = std::numeric_limits<double>::max();
    for (int rep = 0; rep < repeats; ++rep) {
      using Clock = std::chrono::steady_clock;
      const auto t0 = Clock::now();
      const AtpgResult result =
          run_atpg(state.netlist, state.universe, flow.udfm(), options);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (seconds < run.seconds) {
        run.seconds = seconds;
        run.counters = result.counters;
      }
      if (reference.empty()) {
        reference = result.status;
      } else if (result.status != reference) {
        identical = false;
      }
    }
    obs.absorb(run.counters);
    runs.push_back(run);
    std::printf("threads=%-2d best-of-%d %.3fs  %s\n", threads, repeats,
                run.seconds, run.counters.summary().c_str());
  }

  const auto seconds_at = [&](int threads) {
    for (const Run& r : runs) {
      if (r.threads == threads) return r.seconds;
    }
    return 0.0;
  };
  const double base_s = seconds_at(1);
  const double par_s = seconds_at(4) > 0 ? seconds_at(4) : runs.back().seconds;
  const double speedup = par_s > 0 ? base_s / par_s : 0.0;
  std::printf("statuses bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO (BUG)");
  std::printf("speedup (1 -> %d threads): %.2fx\n", runs.back().threads,
              speedup);

  std::ofstream json("BENCH_parallel_atpg.json");
  json << "{\n  \"bench\": \"parallel_atpg\",\n";
  json << "  \"circuit\": \"" << circuit << "\",\n";
  json << "  \"faults\": " << state.num_faults() << ",\n";
  json << "  \"identical_statuses\": " << (identical ? "true" : "false")
       << ",\n";
  json << "  \"speedup\": " << speedup << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "    {\"threads\": " << runs[i].threads
         << ", \"seconds\": " << runs[i].seconds
         << ", \"counters\": " << runs[i].counters.json() << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_parallel_atpg.json\n");
  return identical ? 0 : 1;
}
