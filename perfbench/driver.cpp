// Benchmark driver: runs one workload of the paper's flow through the
// public API with library-default options, checks every output, and
// prints one JSON line of raw measurements that perfbench/run.py turns
// into the benchmark result. See perfbench/README.md.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --workload NAME --setup-only
//
// --seed is the ATPG seed (AtpgOptions::seed; the library default is
// 12345) and also seeds the random words of the equivalence check.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/library/osu018.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/sim/simd_dispatch.hpp"
#include "src/util/fmt.hpp"
#include "src/util/json.hpp"
#include "src/util/rng.hpp"
#include "src/util/trace.hpp"

namespace {

using namespace dfmres;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  std::vector<const char*> blocks;
  bool resyn;   ///< run_initial + resynthesize, else run_initial only
  int threads;  ///< AtpgOptions::num_threads (also sizes the ladder)
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"flow-podem", {"sparc_ffu", "aes_core"}, false, 1},
      {"resyn-probe", {"des_perf", "systemcaes"}, true, 4},
      {"resyn-uin", {"sparc_spu"}, true, 4},
  };
  return list;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- set-up -------------------------------------------------------------

/// The target library, each block's RTL netlist and one DesignFlow per
/// block (its constructor builds the UDFM by switch-level simulation).
/// The library is built once per process, so only the first prepare()
/// of a process measures a cold set-up.
struct Prepared {
  std::vector<Netlist> rtl;
  std::vector<std::unique_ptr<DesignFlow>> flows;
  double library_s = 0.0;
  double udfm_s = 0.0;
  double circuits_s = 0.0;

  [[nodiscard]] double total_s() const {
    return library_s + udfm_s + circuits_s;
  }
};

FlowOptions flow_options(const Workload& w, std::uint64_t seed) {
  FlowOptions options;
  options.atpg.seed = seed;
  options.atpg.num_threads = w.threads;
  return options;
}

Expected<Prepared> prepare(const Workload& w, std::uint64_t seed) {
  Prepared p;
  auto t0 = Clock::now();
  const auto library = osu018_library();
  p.library_s = seconds_since(t0);
  for (const char* block : w.blocks) {
    t0 = Clock::now();
    auto rtl = build_benchmark(block);
    p.circuits_s += seconds_since(t0);
    if (!rtl) return rtl.status();
    p.rtl.push_back(std::move(*rtl));
    t0 = Clock::now();
    p.flows.push_back(
        std::make_unique<DesignFlow>(library, flow_options(w, seed)));
    p.udfm_s += seconds_since(t0);
  }
  return p;
}

// ---- output checks ------------------------------------------------------

struct Verdicts {
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t undetectable = 0;
  std::size_t aborted = 0;
  std::size_t tests = 0;

  void add(const Verdicts& o) {
    faults += o.faults;
    detected += o.detected;
    undetectable += o.undetectable;
    aborted += o.aborted;
    tests += o.tests;
  }
};

/// Counts verdicts from the status vector (not AtpgResult::coverage(),
/// which credits aborts as covered). Every fault must have a verdict and
/// the vector must agree with the result's own tallies.
std::optional<std::string> tally(const FlowState& s, Verdicts* out) {
  const AtpgResult& r = s.atpg;
  Verdicts v;
  v.faults = s.num_faults();
  v.tests = r.tests.size();
  if (r.status.size() != v.faults) {
    return strfmt("status vector has %zu entries for %zu faults",
                  r.status.size(), v.faults);
  }
  for (const FaultStatus st : r.status) {
    switch (st) {
      case FaultStatus::Detected: ++v.detected; break;
      case FaultStatus::Undetectable: ++v.undetectable; break;
      case FaultStatus::Aborted: ++v.aborted; break;
      case FaultStatus::Unknown:
        return std::string("a fault was left without a verdict");
    }
  }
  if (r.cancelled || v.detected != r.num_detected ||
      v.undetectable != r.num_undetectable || v.aborted != r.num_aborted) {
    return strfmt("verdict tallies disagree: status %zu/%zu/%zu, result "
                  "%zu/%zu/%zu",
                  v.detected, v.undetectable, v.aborted, r.num_detected,
                  r.num_undetectable, r.num_aborted);
  }
  *out = v;
  return std::nullopt;
}

/// Simulates both netlists on the same random source words (matched by
/// CombView position: resynthesis never touches sequential gates) and
/// compares every observe point.
std::optional<std::string> same_function(const Netlist& a, const Netlist& b,
                                         std::uint64_t seed) {
  constexpr int kWords = 256;  // 16384 patterns
  const CombView va = CombView::build(a);
  const CombView vb = CombView::build(b);
  if (va.sources.size() != vb.sources.size() ||
      va.observe.size() != vb.observe.size()) {
    return strfmt("interface changed: %zu/%zu sources, %zu/%zu observe "
                  "points",
                  va.sources.size(), vb.sources.size(), va.observe.size(),
                  vb.observe.size());
  }
  ParallelSimulator sa(a, va);
  ParallelSimulator sb(b, vb);
  Rng rng(seed ^ 0x5eedf00dULL);
  for (int w = 0; w < kWords; ++w) {
    for (std::size_t i = 0; i < va.sources.size(); ++i) {
      const std::uint64_t bits = rng.next();
      sa.set_source(va.sources[i], bits);
      sb.set_source(vb.sources[i], bits);
    }
    sa.run();
    sb.run();
    for (std::size_t i = 0; i < va.observe.size(); ++i) {
      if (sa.value(va.observe[i]) != sb.value(vb.observe[i])) {
        return strfmt("observe point %zu differs on random word %d", i, w);
      }
    }
  }
  return std::nullopt;
}

/// Paper constraints on a resynthesized design: same function, die area
/// not grown, delay and power within q_used percent of the original.
std::optional<std::string> check_resynthesis(const FlowState& initial,
                                             const ResynthesisResult& r,
                                             std::uint64_t seed) {
  const FlowState& fin = r.state;
  if (auto why = same_function(initial.netlist, fin.netlist, seed)) {
    return why;
  }
  if (fin.placement.plan.total_sites() > initial.placement.plan.total_sites() ||
      !fin.placement.plan.fits(fin.netlist)) {
    return std::string("die area grew or the design does not fit");
  }
  const double limit = (1.0 + r.report.q_used / 100.0) * (1.0 + 1e-9);
  if (fin.timing.critical_delay > initial.timing.critical_delay * limit ||
      fin.timing.total_power() > initial.timing.total_power() * limit) {
    return strfmt("delay or power exceeds q_used=%d%%", r.report.q_used);
  }
  return std::nullopt;
}

// ---- one pass over the workload ----------------------------------------

MapOptions initial_map_options(const Netlist& rtl, const Library& target) {
  // The DFF/FA/HA pins DesignFlow::run_initial uses.
  MapOptions options;
  for (const auto& [src, dst] : {std::pair{"DFF", "DFFPOSX1"},
                                 std::pair{"FA", "FAX1"},
                                 std::pair{"HA", "HAX1"}}) {
    const auto s = rtl.library().find(src);
    const auto d = target.find(dst);
    if (s && d) options.fixed_map.emplace(s->value(), *d);
  }
  return options;
}

/// run_initial recomposed from the public stage calls, each under a
/// benchmark span, for the traced flow-podem pass. `analyze_stages`
/// false stops after placement and hands the rest to DesignFlow::
/// analyze (whose own spans tile it), which keeps the flow's committed
/// state exactly as run_initial leaves it for a later resynthesize.
Expected<FlowState> traced_initial(DesignFlow& flow, const Netlist& rtl,
                                   bool analyze_stages) {
  const FlowOptions& opt = flow.options();
  std::optional<TraceSpan> stage;
  stage.emplace("bench.map", "bench");
  auto mapped = technology_map(rtl, flow.target_ptr(),
                               initial_map_options(rtl, flow.target()));
  if (!mapped) return mapped.status();
  Netlist nl = std::move(*mapped);
  stage.emplace("bench.place", "bench");
  const Floorplan plan = make_floorplan(nl, opt.utilization);
  Placement placement = global_place(nl, plan, opt.place);
  if (!analyze_stages) {
    stage.emplace("bench.analyze", "bench");
    return flow.analyze(AnalysisRequest::placed(
        std::move(nl), std::move(placement), /*generate_tests=*/true));
  }
  stage.emplace("bench.route", "bench");
  RoutingResult routing = route(nl, placement, opt.route);
  stage.emplace("bench.sta", "bench");
  TimingPower timing = analyze_timing_power(nl, routing, opt.sta);
  stage.emplace("bench.extract", "bench");
  FaultUniverse universe =
      extract_dfm_faults(nl, placement, routing, flow.udfm());
  stage.emplace("bench.atpg", "bench");
  AtpgOptions atpg_options = opt.atpg;
  atpg_options.generate_tests = true;
  FaultStatusCache cache;  // a fresh flow's cache is empty too
  AtpgResult atpg = run_atpg(nl, universe, flow.udfm(), atpg_options, &cache);
  stage.emplace("bench.cluster", "bench");
  ClusterAnalysis clusters = cluster_undetectable(nl, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(nl),       std::move(placement),
                   std::move(routing),  std::move(timing),
                   std::move(universe), std::move(atpg),
                   std::move(clusters)};
}

struct BlockOutcome {
  std::string block;
  std::vector<FaultStatus> status;  ///< final design's verdicts
  Verdicts verdicts;
  AtpgCounters atpg;
  std::optional<ResynthesisReport> report;
  std::vector<std::string> accepted;  ///< accepted-candidate sequence
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::vector<BlockOutcome> blocks;

  void fail(const std::string& block, const std::string& why) {
    ++failed;
    errors.push_back(block + ": " + why);
  }
};

/// Runs every block of the workload once on fresh flows. Only the
/// run_initial / resynthesize calls are timed; the checks are not.
Pass run_pass(const Workload& w, Prepared& p, std::uint64_t seed,
              bool traced) {
  Pass pass;
  for (std::size_t b = 0; b < w.blocks.size(); ++b) {
    DesignFlow& flow = *p.flows[b];
    BlockOutcome out;
    out.block = w.blocks[b];

    ++pass.attempted;
    auto t0 = Clock::now();
    double c0 = cpu_seconds();
    Expected<FlowState> initial = [&]() -> Expected<FlowState> {
      if (!traced) return flow.run_initial(p.rtl[b]);
      TraceSpan span("bench.run_initial", "bench");
      return traced_initial(flow, p.rtl[b], /*analyze_stages=*/!w.resyn);
    }();
    pass.wall_s += seconds_since(t0);
    pass.cpu_s += cpu_seconds() - c0;
    if (!initial) {
      pass.fail(out.block, initial.status().to_string());
      continue;
    }
    if (auto why = tally(*initial, &out.verdicts)) {
      pass.fail(out.block, "run_initial: " + *why);
      continue;
    }
    out.atpg = initial->atpg.counters;

    if (w.resyn) {
      ++pass.attempted;
      ResynthesisOptions options;  // library defaults
      t0 = Clock::now();
      c0 = cpu_seconds();
      Expected<ResynthesisResult> result = [&] {
        std::optional<TraceSpan> span;
        if (traced) span.emplace("bench.resynthesize", "bench");
        return resynthesize(flow, *initial, options);
      }();
      pass.wall_s += seconds_since(t0);
      pass.cpu_s += cpu_seconds() - c0;
      if (!result) {
        pass.fail(out.block, result.status().to_string());
        continue;
      }
      if (auto why = tally(result->state, &out.verdicts)) {
        pass.fail(out.block, "resynthesize: " + *why);
        continue;
      }
      if (auto why = check_resynthesis(*initial, *result, seed)) {
        pass.fail(out.block, *why);
        continue;
      }
      out.atpg = flow.atpg_totals();
      for (const IterationRecord& r : result->report.trace) {
        if (!r.accepted) continue;
        out.accepted.push_back(strfmt("q%d/p%d/%s/U%zu/S%zu", r.q, r.phase,
                                      r.banned_through.c_str(),
                                      r.undetectable, r.smax));
      }
      out.report = std::move(result->report);
      out.status = std::move(result->state.atpg.status);
    } else {
      out.status = std::move(initial->atpg.status);
    }
    pass.blocks.push_back(std::move(out));
  }
  return pass;
}

// ---- exact counts --------------------------------------------------------

/// The deterministic part of a pass: identical across runs at a fixed
/// thread count and seed.
std::string exact_counts(const Pass& pass) {
  JsonWriter j;
  j.begin_object();
  for (const BlockOutcome& b : pass.blocks) {
    j.key(b.block);
    j.begin_object();
    j.field("F", static_cast<std::uint64_t>(b.verdicts.faults));
    j.field("detected", static_cast<std::uint64_t>(b.verdicts.detected));
    j.field("U", static_cast<std::uint64_t>(b.verdicts.undetectable));
    j.field("aborted", static_cast<std::uint64_t>(b.verdicts.aborted));
    j.field("T", static_cast<std::uint64_t>(b.verdicts.tests));
    j.field("atpg.backtracks", b.atpg.podem_backtracks);
    j.field("core.resyn.candidates_built",
            static_cast<std::uint64_t>(
                b.report ? b.report->candidates_built : 0));
    j.key("accepted");
    j.begin_array();
    for (const std::string& a : b.accepted) j.value(a);
    j.end_array();
    j.end_object();
  }
  j.end_object();
  return j.take();
}

/// True when two passes reached the same verdict for every fault.
bool same_verdicts(const Pass& a, const Pass& b) {
  if (a.blocks.size() != b.blocks.size()) return false;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].status != b.blocks[i].status) return false;
  }
  return true;
}

// ---- per-layer metrics ---------------------------------------------------

using Metrics = std::map<std::string, double>;

void add_counter_layers(const Pass& pass, Metrics* m) {
  Verdicts v;
  AtpgCounters c;
  ResynthesisReport r;
  std::size_t accepted = 0;
  for (const BlockOutcome& b : pass.blocks) {
    v.add(b.verdicts);
    c.merge(b.atpg);
    accepted += b.accepted.size();
    if (!b.report) continue;
    const ResynthesisReport& s = *b.report;
    r.candidates_built += s.candidates_built;
    r.u_in_probes += s.u_in_probes;
    r.full_probes += s.full_probes;
    r.sig_hits += s.sig_hits;
    r.build_seconds += s.build_seconds;
    r.u_in_seconds += s.u_in_seconds;
    r.probe_seconds += s.probe_seconds;
    r.signoff_seconds += s.signoff_seconds;
    r.probe_frame_bytes += s.probe_frame_bytes;
    r.probe_full_loads += s.probe_full_loads;
    r.probe_overlay_loads += s.probe_overlay_loads;
    r.probe_load_seconds += s.probe_load_seconds;
  }
  const auto d = [](auto x) { return static_cast<double>(x); };
  Metrics& o = *m;
  o["atpg.phase0_s"] = c.phase0_seconds;
  o["atpg.phase1_s"] = c.phase1_seconds;
  o["atpg.phase2_s"] = c.phase2_seconds;
  o["atpg.phase3_s"] = c.phase3_seconds;
  o["atpg.load_s"] = c.load_seconds;
  o["atpg.backtracks"] = d(c.podem_backtracks);
  o["atpg.detect_mask_calls"] = d(c.detect_mask_calls);
  o["atpg.prop_events"] = d(c.propagation_events);
  o["atpg.frame_bytes"] = d(c.frame_bytes_materialized);
  o["atpg.patterns"] = d(c.patterns_simulated);
  o["atpg.detected"] = d(v.detected);
  o["atpg.undetectable"] = d(v.undetectable);
  o["atpg.aborted"] = d(v.aborted);
  o["atpg.aborted_pct"] = v.faults ? 100.0 * d(v.aborted) / d(v.faults) : 0;
  o["core.resyn.probe_s"] = r.probe_seconds;
  o["core.resyn.probe_frame_bytes"] = d(r.probe_frame_bytes);
  o["core.resyn.probe_full_loads"] = d(r.probe_full_loads);
  o["core.resyn.probe_overlay_loads"] = d(r.probe_overlay_loads);
  o["core.resyn.probe_load_s"] = r.probe_load_seconds;
  o["core.resyn.u_in_s"] = r.u_in_seconds;
  o["core.resyn.u_in_probes"] = d(r.u_in_probes);
  o["core.resyn.build_s"] = r.build_seconds;
  o["core.resyn.candidates_built"] = d(r.candidates_built);
  o["core.resyn.full_probes"] = d(r.full_probes);
  o["core.resyn.sig_hits"] = d(r.sig_hits);
  o["core.resyn.accepted"] = d(accepted);
  o["core.resyn.accept_ratio"] =
      r.full_probes ? d(accepted) / d(r.full_probes) : 0.0;
  o["core.resyn.signoff_s"] = r.signoff_seconds;
}

/// Total and self time per span name. Self time is the span's duration
/// minus the union of its children's intervals clipped to the span
/// (children may run concurrently on pool workers).
struct SpanTimes {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
};

SpanTimes span_times(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const TraceEvent& e : events) {
    if (e.parent != 0) {
      children[e.parent].emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
  }
  SpanTimes t;
  for (const TraceEvent& e : events) {
    const std::uint64_t lo = e.start_ns;
    const std::uint64_t hi = e.start_ns + e.dur_ns;
    std::uint64_t covered = 0;
    if (auto it = children.find(e.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      for (auto [a, b] : iv) {
        a = std::clamp(a, lo, hi);
        b = std::clamp(b, lo, hi);
        if (a >= cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
        } else {
          cur_hi = std::max(cur_hi, b);
        }
      }
      covered += cur_hi - cur_lo;
    }
    t.total[e.name] += 1e-9 * static_cast<double>(e.dur_ns);
    t.self[e.name] += 1e-9 * static_cast<double>(e.dur_ns - covered);
  }
  return t;
}

void add_trace_layers(const Pass& traced, const Pass& untraced,
                      const std::vector<TraceEvent>& events, Metrics* m) {
  const SpanTimes t = span_times(events);
  const auto total = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* n : names) {
      if (auto it = t.total.find(n); it != t.total.end()) s += it->second;
    }
    return s;
  };
  const auto self = [&](const char* name) {
    const auto it = t.self.find(name);
    return it == t.self.end() ? 0.0 : it->second;
  };
  Metrics& o = *m;
  // Stage times: the benchmark's own spans on the flow-podem
  // recomposition, the program's flow.* spans inside DesignFlow::analyze
  // on the resyn workloads (committed analyses only; probe stages sit in
  // flow.probe's self time).
  o["synth.map_s"] = total({"synth.map"});
  o["place.global_s"] = total({"bench.place"});
  o["route.route_s"] = total({"bench.route", "flow.route"});
  o["sta.analyze_s"] = total({"bench.sta", "flow.sta"});
  o["dfm.extract_s"] = total({"bench.extract", "flow.extract_faults"});
  o["atpg.run_s"] = total({"atpg.run"});
  o["cluster.cluster_s"] = total({"bench.cluster", "flow.cluster"});
  o["trace.flow.probe_self_s"] = self("flow.probe");
  o["trace.flow.u_in_probe_self_s"] = self("flow.u_in_probe");
  o["trace.atpg.phase2.podem_self_s"] = self("atpg.phase2.podem");
  o["trace.atpg.sweep_self_s"] = self("atpg.sweep");
  o["trace.synth.map_self_s"] = self("synth.map");
  o["core.rung_s"] = total({"resyn.rung"});
  o["core.spec_rung_s"] = total({"resyn.rung.spec"});
  // Time of the traced pass outside the benchmark's stage spans (the
  // recomposition's stages on flow-podem; map, place, analyze and
  // resynthesize on the resyn workloads).
  o["bench.unattributed_s"] =
      traced.wall_s - total({"bench.map", "bench.place", "bench.route",
                             "bench.sta", "bench.extract", "bench.atpg",
                             "bench.cluster", "bench.analyze",
                             "bench.resynthesize"});
  o["bench.traced_wall_s"] = traced.wall_s;
  o["bench.trace_overhead_s"] = traced.wall_s - untraced.wall_s;
}

// ---- main ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 12345;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || end == v)) return std::nullopt;
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

void print_metric_object(JsonWriter& j, const Metrics& m) {
  j.begin_object();
  for (const auto& [k, v] : m) j.field(k, v);
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--setup-only]\n");
    return 2;
  }
  const auto& list = workloads();
  const auto wit = std::find_if(list.begin(), list.end(), [&](const auto& w) {
    return args->workload == w.name;
  });
  if (wit == list.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *wit;

  auto prepared = prepare(w, args->seed);
  if (!prepared) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 prepared.status().to_string().c_str());
    return 1;
  }
  Metrics setup;
  setup["setup_s"] = prepared->total_s();
  setup["library.build_s"] = prepared->library_s;
  setup["switchlevel.udfm_build_s"] = prepared->udfm_s;
  setup["circuits.build_s"] = prepared->circuits_s;
  if (args->setup_only) {
    JsonWriter j;
    print_metric_object(j, setup);
    std::printf("%s\n", j.str().c_str());
    return 0;
  }

  // Untraced passes over fresh flows, started while less than --seconds
  // has elapsed (at least one); the figures are medians over passes. The
  // first pass reuses the set-up's flows. A traced run needs only one
  // untraced pass, as the reference for the tracing overhead.
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    if (!passes.empty()) {
      auto fresh = prepare(w, args->seed);
      if (!fresh) return 1;
      prepared = std::move(fresh);
    }
    passes.push_back(run_pass(w, *prepared, args->seed, /*traced=*/false));
  } while (!args->trace && seconds_since(start) < args->seconds);

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  const std::string counts = exact_counts(passes.front());
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    if (p.failed == 0 && exact_counts(p) != counts) {
      ++failed;
      errors.push_back("exact counts differ between passes");
    }
  }

  Metrics metrics;
  std::vector<double> walls, cpus;
  for (const Pass& p : passes) {
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  metrics["wall_s"] = median(walls);
  metrics["cpu_s"] = median(cpus);
  Verdicts total;
  for (const BlockOutcome& b : passes.front().blocks) total.add(b.verdicts);
  metrics["untested_pct"] =
      total.faults ? 100.0 * static_cast<double>(total.faults - total.detected) /
                         static_cast<double>(total.faults)
                   : 0.0;
  metrics["peak_rss_mb"] = peak_rss_mb();

  Metrics layers;
  if (args->trace) {
    auto fresh = prepare(w, args->seed);
    if (!fresh) return 1;
    Tracer& tracer = Tracer::instance();
    tracer.reset();
    tracer.enable();
    Pass traced = run_pass(w, *fresh, args->seed, /*traced=*/true);
    tracer.disable();
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (traced.failed == 0 && passes.front().failed == 0 &&
        (!same_verdicts(traced, passes.front()) ||
         exact_counts(traced) != counts)) {
      ++failed;
      errors.push_back("traced pass does not reproduce the untraced verdicts");
    }
    add_counter_layers(passes.front(), &layers);
    add_trace_layers(traced, passes.front(), tracer.snapshot(), &layers);
    for (const auto& [k, v] : setup) {
      if (k != "setup_s") layers[k] = v;
    }
  }

  const SimdMode kernel = resolve_simd_mode(global_simd_mode());
  JsonWriter j;
  j.begin_object();
  j.field("workload", w.name);
  j.field("attempted", attempted);
  j.field("failed", failed);
  j.key("errors");
  j.begin_array();
  for (const std::string& e : errors) j.value(e);
  j.end_array();
  j.key("pass_wall_s");
  j.begin_array();
  for (const double v : walls) j.value(v);
  j.end_array();
  j.key("setup");
  print_metric_object(j, setup);
  j.key("metrics");
  print_metric_object(j, metrics);
  j.key("layers");
  print_metric_object(j, layers);
  j.key("counts");
  j.raw(counts);
  j.key("conditions");
  j.begin_object();
  j.field("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.field("kernel", simd_mode_name(kernel));
  j.field("W", simd_mode_words(kernel));
  j.field("threads", w.threads);
  j.field("atpg_seed", args->seed);
  j.field("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j.field("ndebug", true);
#else
  j.field("ndebug", false);
#endif
  j.end_object();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
