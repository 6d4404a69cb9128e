#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/core/campaign.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/core/run_report.hpp"
#include "src/library/osu018.hpp"
#include "src/util/metrics.hpp"
#include "src/util/trace.hpp"

namespace dfmres::bench {

/// Flow options tuned for benchmark runs: slightly smaller search budgets
/// than the library defaults keep a full 12-circuit sweep tractable on
/// one core without changing any observed trend. Fault-simulation
/// parallelism follows `DFMRES_BENCH_THREADS` (0/unset = hardware);
/// results are bit-identical across thread counts, so this only moves
/// wall clock.
inline FlowOptions bench_flow_options() {
  FlowOptions options;
  options.atpg.random_batches = 4;
  options.atpg.backtrack_limit = 1000;
  if (const char* env = std::getenv("DFMRES_BENCH_THREADS")) {
    options.atpg.num_threads = std::atoi(env);
  }
  return options;
}

inline ResynthesisOptions bench_resyn_options() {
  ResynthesisOptions options;
  options.max_iterations_per_phase = 12;
  options.reanalyses_per_iteration = 10;
  return options;
}

/// DFMRES_BENCH_COLD=1 selects the cold-start reference configuration:
/// no seed-test replay / cone trust, no candidate dedup, serial ladder.
/// Results are identical to the default warm configuration; only wall
/// clock moves (bench_table2 verifies this when it runs both).
inline bool bench_cold_mode() {
  const char* env = std::getenv("DFMRES_BENCH_COLD");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline void apply_cold_mode(FlowOptions& flow_options,
                            ResynthesisOptions& resyn_options) {
  flow_options.warm_start = false;
  resyn_options.dedup_candidates = false;
  resyn_options.parallel_ladder = false;
}

/// DFMRES_BENCH_JOBS: campaign jobs in flight for the scheduler-driven
/// benches (1/unset = the historical serial sweep). Results are
/// bit-identical for every value; only wall clock moves.
inline int bench_jobs() {
  if (const char* env = std::getenv("DFMRES_BENCH_JOBS")) {
    const int jobs = std::atoi(env);
    if (jobs > 0) return jobs;
  }
  return 1;
}

/// Environment override: DFMRES_BENCH_CIRCUITS="tv80,aes_core" restricts a
/// bench to a subset (useful while iterating).
inline std::vector<std::string> selected_circuits(
    std::initializer_list<const char*> defaults) {
  std::vector<std::string> out;
  if (const char* env = std::getenv("DFMRES_BENCH_CIRCUITS")) {
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::size_t end = comma == std::string::npos ? s.size() : comma;
      if (end > pos) out.push_back(s.substr(pos, end - pos));
      pos = end + 1;
    }
  }
  if (out.empty()) {
    for (const char* name : defaults) out.emplace_back(name);
  }
  return out;
}

/// Uniform observability for the bench binaries: construct one at the
/// top of main with the bench name; the destructor writes
/// `BENCH_<name>_report.json` with the same run-report schema the CLI
/// emits, plus `BENCH_<name>_metrics.json` when anything was absorbed.
/// `DFMRES_BENCH_TRACE=1` additionally enables the span tracer and
/// writes `BENCH_<name>_trace.json` — off by default so timing benches
/// measure the disabled-tracer fast path.
class BenchObservability {
 public:
  explicit BenchObservability(std::string name)
      : name_(std::move(name)),
        report_("bench_" + name_, /*circuit=*/"various"),
        t0_(std::chrono::steady_clock::now()) {
    const char* env = std::getenv("DFMRES_BENCH_TRACE");
    trace_ = env != nullptr && env[0] != '\0' && env[0] != '0';
    if (trace_) Tracer::instance().enable();
  }

  BenchObservability(const BenchObservability&) = delete;
  BenchObservability& operator=(const BenchObservability&) = delete;

  /// Folds one run's ATPG instrumentation into the bench-local registry.
  void absorb(const AtpgCounters& counters) {
    registry_.absorb(counters);
    absorbed_ = true;
  }
  /// Folds a resynthesis report (counters + convergence series).
  void absorb(const ResynthesisReport& report) {
    publish_metrics(report, registry_);
    report_.set_resynthesis(report);
    absorbed_ = true;
  }
  void set_final(const FlowState& state) { report_.set_final(state); }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }

  ~BenchObservability() {
    report_.set_runtime_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count());
    const std::string report_path = "BENCH_" + name_ + "_report.json";
    if (const Status s = report_.write_json(report_path); s.is_ok()) {
      std::printf("wrote %s\n", report_path.c_str());
    }
    if (absorbed_) {
      const std::string metrics_path = "BENCH_" + name_ + "_metrics.json";
      if (const Status s = registry_.write_json(metrics_path); s.is_ok()) {
        std::printf("wrote %s\n", metrics_path.c_str());
      }
    }
    if (trace_) {
      const std::string trace_path = "BENCH_" + name_ + "_trace.json";
      if (const Status s = Tracer::instance().write_chrome_json(trace_path);
          s.is_ok()) {
        std::printf("wrote %s\n", trace_path.c_str());
      }
      Tracer::instance().disable();
    }
  }

 private:
  std::string name_;
  RunReport report_;
  MetricsRegistry registry_;
  std::chrono::steady_clock::time_point t0_;
  bool trace_ = false;
  bool absorbed_ = false;
};

struct StateStats {
  std::size_t f = 0, f_in = 0, f_ex = 0;
  std::size_t u = 0, u_in = 0, u_ex = 0;
  std::size_t aborted = 0;  ///< no verdict: neither in U nor covered
  std::size_t g_u = 0, gmax = 0, smax = 0, smax_internal = 0;
  std::size_t tests = 0;
  double coverage = 0, delay = 0, power = 0;
};

inline StateStats stats_of(const FlowState& s) {
  StateStats out;
  out.f = s.num_faults();
  out.f_in = s.universe.count_internal();
  out.f_ex = out.f - out.f_in;
  out.u = s.num_undetectable();
  for (std::size_t i = 0; i < s.universe.size(); ++i) {
    out.u_in += s.universe.faults[i].scope == FaultScope::Internal &&
                s.atpg.status[i] == FaultStatus::Undetectable;
  }
  out.u_ex = out.u - out.u_in;
  out.aborted = s.atpg.num_aborted;
  out.g_u = s.clusters.gates_u.size();
  out.gmax = s.clusters.gmax.size();
  out.smax = s.smax();
  out.smax_internal = s.clusters.smax_internal(s.universe);
  out.tests = s.atpg.tests.size();
  out.coverage = s.coverage();
  out.delay = s.timing.critical_delay;
  out.power = s.timing.total_power();
  return out;
}

}  // namespace dfmres::bench
