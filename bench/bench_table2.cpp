// Reproduces Table II of the paper (Section IV): for each of the twelve
// benchmark blocks, the original design and the design produced by the
// two-phase resynthesis procedure with the largest 0 <= q <= 5 that
// improves the coverage; plus the `average` rows.
//
// Columns follow the paper: Max Inc (q), F, U, Cov, T, Smax, %Smax_all,
// Smax_I, %Smax_I, Delay, Power, Rtime — plus A, the faults ATPG aborted
// on (no verdict: counted neither in U nor in Cov). Expected shape: U drops by
// roughly an order of magnitude, coverage reaches ~99%, %Smax_all lands
// near/below p1 = 1%, T barely changes, delay/power stay within the q
// envelope, Rtime does not grow with circuit size.
//
// Besides the table, every run writes a machine-readable BENCH_resyn.json
// (per-block wall times, aggregate ATPG counters, initial and final U /
// aborted / coverage, final %Smax and the accepted-candidate trace). With DFMRES_BENCH_COLD=1 each
// block additionally runs in the cold-start reference configuration
// (no seed replay / cone trust, no dedup, serial ladder); the bench then
// verifies that final U, %Smax, coverage and the accepted-candidate
// sequence are identical, reports the warm-vs-cold speedup, and exits
// nonzero on any mismatch.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/util/fmt.hpp"

using namespace dfmres;
using namespace dfmres::bench;

namespace {

struct Row {
  std::string inc;
  StateStats s;
  double delay_rel = 1.0, power_rel = 1.0, rtime = 1.0;
};

void print_row(const char* circuit, const Row& r) {
  std::printf(
      "%-10s %5s %8zu %6zu %5zu %7.2f%% %5zu %6zu %8.2f%% %7zu %8.2f%% "
      "%8.2f%% %8.2f%% %7.2f\n",
      circuit, r.inc.c_str(), r.s.f, r.s.u, r.s.aborted, 100.0 * r.s.coverage,
      r.s.tests,
      r.s.smax,
      r.s.f == 0 ? 0.0 : 100.0 * static_cast<double>(r.s.smax) /
                             static_cast<double>(r.s.f),
      r.s.smax_internal,
      r.s.smax == 0 ? 0.0 : 100.0 * static_cast<double>(r.s.smax_internal) /
                                static_cast<double>(r.s.smax),
      100.0 * r.delay_rel, 100.0 * r.power_rel, r.rtime);
}

/// One full flow + resynthesis run of a block in the given configuration.
struct BlockRun {
  StateStats orig;
  StateStats resyn;
  ResynthesisReport report;
  AtpgCounters counters;  ///< flow-wide committed-analysis totals
  double flow_seconds = 0.0;
  double resyn_seconds = 0.0;
};

/// The sweep as a campaign manifest: one resyn job per block, each
/// carrying the bench options (optionally in the cold reference
/// configuration).
CampaignManifest sweep_manifest(const std::vector<std::string>& circuits,
                                bool cold) {
  CampaignManifest manifest;
  for (const auto& name : circuits) {
    CampaignJobSpec job;
    job.name = name;
    job.design = name;
    job.flow = bench_flow_options();
    job.resyn = bench_resyn_options();
    if (cold) apply_cold_mode(job.flow, job.resyn);
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

/// Runs the sweep through the campaign scheduler, DFMRES_BENCH_JOBS
/// blocks in flight. Aborts (value()) on campaign- or job-level errors:
/// a bench sweep has no partial-success mode.
CampaignResult run_sweep(const std::vector<std::string>& circuits,
                         bool cold) {
  CampaignOptions options;
  options.max_parallel_jobs = bench_jobs();
  CampaignResult result =
      run_campaign(sweep_manifest(circuits, cold), options).value();
  for (const auto& job : result.jobs) {
    if (!job.ok()) {
      std::fprintf(stderr, "block '%s' failed: %s\n", job.name.c_str(),
                   job.status.to_string().c_str());
      std::exit(1);
    }
  }
  return result;
}

BlockRun block_run(const CampaignJobResult& job) {
  BlockRun out;
  out.orig = stats_of(*job.initial);
  out.resyn = stats_of(*job.final_state);
  out.report = *job.resyn;
  out.counters = job.atpg_totals;
  out.resyn_seconds = out.report.runtime_seconds;
  // The job clock covers design build + flow + resynthesis; the flow
  // share is what Rtime normalizes against.
  out.flow_seconds = std::max(0.0, job.seconds - out.resyn_seconds);
  return out;
}

/// Canonical form of the accepted-candidate sequence, the identity that
/// warm-start optimizations must preserve.
std::string accepted_trace(const ResynthesisReport& report) {
  std::string out;
  for (const IterationRecord& r : report.trace) {
    if (!r.accepted) continue;
    out += "q" + std::to_string(r.q) + "p" + std::to_string(r.phase) + ":" +
           r.banned_through + (r.via_backtracking ? "*" : "") + "/U" +
           std::to_string(r.undetectable) + "/S" + std::to_string(r.smax) +
           ";";
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string block_json(const std::string& name, const char* mode,
                       const BlockRun& r) {
  // strfmt sizes the buffer: the accepted trace has no length bound.
  return strfmt(
      "{\"circuit\": \"%s\", \"mode\": \"%s\", \"flow_seconds\": %.3f, "
      "\"resyn_seconds\": %.3f, \"q_used\": %d, \"initial_u\": %zu, "
      "\"initial_aborted\": %zu, \"initial_coverage\": %.6f, "
      "\"final_u\": %zu, \"final_aborted\": %zu, "
      "\"final_coverage\": %.6f, \"final_smax\": %zu, \"final_faults\": %zu, "
      "\"tests\": %zu, \"accepted\": \"%s\", "
      "\"candidates_built\": %zu, \"u_in_probes\": %zu, \"full_probes\": %zu, "
      "\"sig_hits\": %zu, \"stash_commits\": %zu, \"build_seconds\": %.3f, "
      "\"u_in_seconds\": %.3f, \"probe_seconds\": %.3f, "
      "\"signoff_seconds\": %.3f, \"atpg\": ",
      name.c_str(), mode, r.flow_seconds, r.resyn_seconds, r.report.q_used,
      r.orig.u, r.orig.aborted, r.orig.coverage, r.resyn.u, r.resyn.aborted,
      r.resyn.coverage, r.resyn.smax, r.resyn.f, r.resyn.tests,
      json_escape(accepted_trace(r.report)).c_str(),
      r.report.candidates_built, r.report.u_in_probes, r.report.full_probes,
      r.report.sig_hits, r.report.stash_commits, r.report.build_seconds,
      r.report.u_in_seconds, r.report.probe_seconds,
      r.report.signoff_seconds) +
         r.counters.json() + "}";
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  BenchObservability obs("table2");
  const bool compare_cold = bench_cold_mode();
  std::printf("==== Table II: resynthesis results ====\n");
  std::printf("%-10s %5s %8s %6s %5s %8s %5s %6s %9s %7s %9s %9s %9s %7s\n",
              "Circuit", "Inc", "F", "U", "A", "Cov", "T", "Smax", "%Smax_all",
              "Smax_I", "%Smax_I", "Delay", "Power", "Rtime");

  const auto circuits = selected_circuits(
      {"tv80", "systemcaes", "aes_core", "wb_conmax", "des_perf", "sparc_spu",
       "sparc_ffu", "sparc_exu", "sparc_ifu", "sparc_tlu", "sparc_lsu",
       "sparc_fpu"});

  std::size_t count = 0;
  double sum[2][8] = {};  // [orig/resyn][F U cov T smax delay power A] sums
  std::vector<std::string> json_blocks;
  bool mismatch = false;
  double warm_total = 0.0, cold_total = 0.0;

  // The whole sweep goes through the campaign scheduler
  // (DFMRES_BENCH_JOBS blocks in flight; per-block results are
  // bit-identical to the serial sweep).
  const CampaignResult warm_sweep = run_sweep(circuits, /*cold=*/false);
  std::optional<CampaignResult> cold_sweep;
  if (compare_cold) cold_sweep.emplace(run_sweep(circuits, /*cold=*/true));
  std::printf("sweep: %d job(s) in flight x %d lane(s), warm wall %.2fs\n",
              warm_sweep.jobs_in_flight, warm_sweep.inner_threads,
              warm_sweep.seconds);

  for (std::size_t b = 0; b < circuits.size(); ++b) {
    const std::string& name = circuits[b];
    const BlockRun warm = block_run(warm_sweep.jobs[b]);
    obs.absorb(warm.counters);
    obs.absorb(warm.report);

    Row orig;
    orig.inc = "orig";
    orig.s = warm.orig;
    print_row(name.c_str(), orig);

    Row resyn;
    resyn.inc = warm.report.any_accepted
                    ? std::to_string(warm.report.q_used) + "%"
                    : "0%";
    resyn.s = warm.resyn;
    resyn.delay_rel = resyn.s.delay / orig.s.delay;
    resyn.power_rel = resyn.s.power / orig.s.power;
    resyn.rtime = warm.flow_seconds > 0
                      ? warm.report.runtime_seconds / warm.flow_seconds
                      : 0.0;
    print_row("", resyn);
    std::printf("  %s\n", warm.counters.summary().c_str());
    std::printf("  loop: %zu built (%.2fs), %zu u_in probes (%.2fs), "
                "%zu full probes (%.2fs), %zu sig hits, %zu stash commits, "
                "signoff %.2fs\n",
                warm.report.candidates_built, warm.report.build_seconds,
                warm.report.u_in_probes, warm.report.u_in_seconds,
                warm.report.full_probes, warm.report.probe_seconds,
                warm.report.sig_hits, warm.report.stash_commits,
                warm.report.signoff_seconds);
    json_blocks.push_back(block_json(name, "warm", warm));

    if (compare_cold) {
      const BlockRun cold = block_run(cold_sweep->jobs[b]);
      json_blocks.push_back(block_json(name, "cold", cold));
      warm_total += warm.resyn_seconds;
      cold_total += cold.resyn_seconds;
      const bool same = warm.resyn.u == cold.resyn.u &&
                        warm.resyn.smax == cold.resyn.smax &&
                        warm.resyn.f == cold.resyn.f &&
                        warm.resyn.coverage == cold.resyn.coverage &&
                        accepted_trace(warm.report) ==
                            accepted_trace(cold.report);
      std::printf("  cold check: %s  warm %.2fs vs cold %.2fs  speedup %.2fx\n",
                  same ? "identical" : "MISMATCH", warm.resyn_seconds,
                  cold.resyn_seconds,
                  warm.resyn_seconds > 0
                      ? cold.resyn_seconds / warm.resyn_seconds
                      : 0.0);
      if (!same) {
        std::printf(
            "  MISMATCH detail: U %zu/%zu Smax %zu/%zu F %zu/%zu\n"
            "    warm trace: %s\n    cold trace: %s\n",
            warm.resyn.u, cold.resyn.u, warm.resyn.smax, cold.resyn.smax,
            warm.resyn.f, cold.resyn.f, accepted_trace(warm.report).c_str(),
            accepted_trace(cold.report).c_str());
        mismatch = true;
      }
    }

    ++count;
    const Row* rows[2] = {&orig, &resyn};
    for (int k = 0; k < 2; ++k) {
      sum[k][0] += static_cast<double>(rows[k]->s.f);
      sum[k][1] += static_cast<double>(rows[k]->s.u);
      sum[k][2] += rows[k]->s.coverage;
      sum[k][3] += static_cast<double>(rows[k]->s.tests);
      sum[k][4] += static_cast<double>(rows[k]->s.smax);
      sum[k][5] += rows[k]->delay_rel;
      sum[k][6] += rows[k]->power_rel;
      sum[k][7] += static_cast<double>(rows[k]->s.aborted);
    }
  }

  if (count > 0) {
    const double n = static_cast<double>(count);
    std::printf("---- average over %zu circuits ----\n", count);
    for (int k = 0; k < 2; ++k) {
      std::printf(
          "%-10s %5s %8.0f %6.0f %5.0f %7.2f%% %5.0f %6.0f %9s %7s %9s "
          "%8.2f%% %8.2f%%\n",
          k == 0 ? "average" : "", k == 0 ? "orig" : "resyn", sum[k][0] / n,
          sum[k][1] / n, sum[k][7] / n, 100.0 * sum[k][2] / n, sum[k][3] / n,
          sum[k][4] / n,
          "-", "-", "-", 100.0 * sum[k][5] / n, 100.0 * sum[k][6] / n);
    }
  }
  if (compare_cold && warm_total > 0) {
    std::printf("---- cold-start comparison: warm %.2fs cold %.2fs "
                "speedup %.2fx%s ----\n",
                warm_total, cold_total, cold_total / warm_total,
                mismatch ? "  (RESULT MISMATCH)" : "");
  }

  std::ofstream json("BENCH_resyn.json");
  json << "{\"bench\": \"resyn\", \"cold_compare\": "
       << (compare_cold ? "true" : "false") << ", \"blocks\": [\n";
  for (std::size_t i = 0; i < json_blocks.size(); ++i) {
    json << "  " << json_blocks[i] << (i + 1 < json_blocks.size() ? "," : "")
         << "\n";
  }
  json << "]}\n";
  std::printf("wrote BENCH_resyn.json (%zu block records)\n",
              json_blocks.size());
  return mismatch ? 1 : 0;
}
