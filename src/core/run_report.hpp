#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/util/metrics.hpp"
#include "src/util/status.hpp"

namespace dfmres {

/// Design-point summary used by the report's `initial`/`final` blocks —
/// the Table I / Table II columns of the paper (fault totals, U, |S_max|
/// and %S_max, coverage, delay, power, test count), plus the detected and
/// aborted counts, so every verdict is visible.
struct StateSummary {
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t undetectable = 0;
  std::size_t aborted = 0;
  std::size_t smax = 0;
  double smax_pct = 0.0;  ///< |S_max| as a percentage of all faults
  double coverage = 0.0;  ///< detected / faults
  double delay = 0.0;
  double power = 0.0;
  std::size_t tests = 0;

  [[nodiscard]] static StateSummary of(const FlowState& state);
};

/// Machine-readable run report (`--report-out`): one JSON document per
/// run with the options fingerprint, per-phase timing, Table-I/II-style
/// initial/final stats and the full per-candidate convergence series.
/// Schema documented in DESIGN.md §10; every producer (CLI commands and
/// bench_* binaries) emits this same shape.
class RunReport {
 public:
  /// `command` names the producer ("flow", "resyn", "bench_table2", …).
  RunReport(std::string command, std::string circuit);

  void set_threads(int threads);
  void set_fingerprint(std::uint64_t fingerprint);
  void set_initial(const FlowState& state);
  void set_final(const FlowState& state);
  /// Convergence series, resynthesis counters, phase timers, q_used and
  /// the partial flag all come from the procedure's report.
  void set_resynthesis(const ResynthesisReport& report);
  void set_atpg_totals(const AtpgCounters& totals);
  void set_runtime_seconds(double seconds);
  /// Marks the report as covering an interrupted run (deadline expiry).
  /// set_resynthesis() also sets this from `deadline_expired`.
  void set_partial(bool partial);

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] Status write_json(const std::string& path) const;

 private:
  std::string command_;
  std::string circuit_;
  /// Fault-sim kernel stamp (always "scalar") and its lane-word width in
  /// 64-bit words (always 1), kept so report documents keep their shape.
  std::string sim_kernel_;
  int sim_words_ = 1;
  int threads_ = 0;
  std::uint64_t fingerprint_ = 0;
  bool has_fingerprint_ = false;
  bool partial_ = false;
  double runtime_seconds_ = 0.0;
  double cpu_seconds_at_build_ = 0.0;
  std::optional<StateSummary> initial_;
  std::optional<StateSummary> final_;
  std::optional<ResynthesisReport> resyn_;
  std::optional<AtpgCounters> atpg_;
};

/// Publishes a resynthesis report into a metrics registry: the counters
/// under `resyn.*` and, per trace record, the convergence time series
/// (`resyn.series.*`, x = seconds since the procedure started).
void publish_metrics(const ResynthesisReport& report,
                     MetricsRegistry& registry);

}  // namespace dfmres
