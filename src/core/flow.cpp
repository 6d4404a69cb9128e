#include "src/core/flow.hpp"

#include <algorithm>

#include "src/core/telemetry.hpp"
#include "src/library/osu018.hpp"
#include "src/util/logging.hpp"
#include "src/util/trace.hpp"

namespace dfmres {

namespace {

/// Tags an extraction span with the universe size and the work behind it.
void extract_args(TraceSpan& span, std::size_t faults,
                  const ExtractStats& work) {
  if (!span.active()) return;
  span.arg("faults", static_cast<std::uint64_t>(faults));
  span.arg("bridge_pairs", work.bridge_pairs);
  span.arg("windows", work.windows);
}

}  // namespace

DesignFlow::DesignFlow(std::shared_ptr<const Library> target,
                       FlowOptions options)
    : target_(std::move(target)), options_(options), udfm_(*target_) {}

Expected<FlowState> DesignFlow::run_initial(const Netlist& rtl) {
  // Synthesize(): technology mapping with arithmetic/sequential macros
  // pinned, the way RTL synthesis instantiates adder and flop cells.
  MapOptions map_options;
  const Library& slib = rtl.library();
  const auto pin_macro = [&](const char* src_name, const char* dst_name) {
    if (const auto src = slib.find(src_name)) {
      if (const auto dst = target_->find(dst_name)) {
        map_options.fixed_map.emplace(src->value(), *dst);
      }
    }
  };
  pin_macro("DFF", "DFFPOSX1");
  pin_macro("FA", "FAX1");
  pin_macro("HA", "HAX1");

  auto mapped = technology_map(rtl, target_, map_options);
  if (!mapped) return mapped.status();

  const Floorplan plan = make_floorplan(*mapped, options_.utilization);
  Placement placement = global_place(*mapped, plan, options_.place);
  auto state = analyze(AnalysisRequest::placed(std::move(*mapped),
                                               std::move(placement),
                                               /*generate_tests=*/true));
  if (!state) {
    // The initial floorplan is sized for the mapped netlist, so the
    // area constraint cannot fire here; treat it as an invariant breach.
    fatal_invariant("run_initial: initial placement of '%s' did not fit",
                    rtl.name().c_str());
  }
  return std::move(*state);
}

Expected<FlowState> DesignFlow::analyze(AnalysisRequest request) {
  if ((request.previous != nullptr) == request.placement.has_value()) {
    return make_status(StatusCode::kInvalidArgument,
                       "analyze: exactly one of previous/placement must be "
                       "set on the AnalysisRequest");
  }
  if (request.previous != nullptr) {
    std::optional<Placement> placement;
    {
      TraceSpan span("flow.incremental_place", "flow");
      placement = incremental_place(request.netlist, *request.previous);
    }
    if (!placement) {
      return make_status(StatusCode::kUnsatisfiable,
                         "analyze: die cannot absorb the edit to '%s'",
                         request.netlist.name().c_str());
    }
    // Gates without a position in the previous placement are exactly the
    // ones the edit introduced (ids are never reused), so the rewritten
    // region is recoverable without the caller spelling it out.
    std::vector<GateId> changed;
    const Placement& previous = *request.previous;
    for (GateId g : request.netlist.live_gates()) {
      if (g.value() >= previous.pos.size() ||
          !previous.pos[g.value()].valid()) {
        changed.push_back(g);
      }
    }
    return analyze_committed(std::move(request.netlist),
                             std::move(*placement), request.generate_tests,
                             &changed);
  }
  return analyze_committed(std::move(request.netlist),
                           std::move(*request.placement),
                           request.generate_tests,
                           /*changed_gates=*/nullptr);
}

FlowState DesignFlow::analyze_committed(
    Netlist netlist, Placement placement, bool generate_tests,
    const std::vector<GateId>* changed_gates) {
  // Cone bookkeeping: accumulate the rewrites since the last seed epoch;
  // an edit of unknown extent poisons cone trust until re-anchored.
  if (changed_gates) {
    changed_since_seed_.insert(changed_since_seed_.end(),
                               changed_gates->begin(), changed_gates->end());
  } else {
    changed_unknown_ = true;
  }

  TraceSpan analyze_span("flow.analyze", "flow");
  if (analyze_span.active()) {
    analyze_span.arg("gates",
                     static_cast<std::uint64_t>(netlist.num_live_gates()));
    analyze_span.arg("generate_tests", generate_tests ? 1 : 0);
  }
  // Stage spans reuse one optional slot; emplace closes the previous
  // stage before opening the next, so the spans tile the function.
  std::optional<TraceSpan> stage;
  stage.emplace("flow.route", "flow");
  RoutingResult routing = route(netlist, placement, options_.route);
  stage.emplace("flow.sta", "flow");
  TimingPower timing = analyze_timing_power(netlist, routing, options_.sta);
  stage.emplace("flow.extract_faults", "flow");
  ExtractStats extract_work;
  FaultUniverse universe =
      extract_dfm_faults(netlist, placement, routing, udfm_, &extract_work);
  extract_args(*stage, universe.size(), extract_work);
  stage.emplace("flow.atpg", "flow");
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = generate_tests;
  atpg_options.arena = &arena_;
  std::vector<std::uint8_t> untouched;
  if (options_.warm_start) {
    if (!seed_tests_.empty()) atpg_options.seed_tests = &seed_tests_;
    if (generate_tests && !changed_unknown_ && !seed_tests_.empty()) {
      untouched = cone_untouched_flags(netlist, universe, changed_since_seed_);
      atpg_options.cone_untouched = &untouched;
    }
  }
  AtpgResult atpg = run_atpg(netlist, universe, udfm_, atpg_options, &cache_);
  atpg_totals_.merge(atpg.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.analyses.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(universe.size(),
                                       std::memory_order_relaxed);
  if (generate_tests) {
    // Re-anchor the seed epoch: these tests become the replay set and
    // the rewritten-gate ledger restarts from this design point.
    seed_tests_ = atpg.tests;
    changed_since_seed_.clear();
    changed_unknown_ = false;
  }
  // This netlist is now the committed design probes will diff against;
  // re-anchor the shared seed frames onto it.
  rebase_overlays(netlist);
  stage.emplace("flow.cluster", "flow");
  ClusterAnalysis clusters =
      cluster_undetectable(netlist, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(netlist), std::move(placement),
                   std::move(routing), std::move(timing),
                   std::move(universe), std::move(atpg),
                   std::move(clusters)};
}

Expected<FlowState> DesignFlow::probe_reanalyze_impl(
    Netlist netlist, const Placement& previous, bool generate_tests,
    const FaultStatusCache* base_cache, FaultStatusCache* updates,
    FaultSimArena* arena, int num_threads, const CancelToken* cancel,
    AtpgCounters* counters) const {
  if (cancel_expired(cancel)) return cancel->to_status();
  TraceSpan probe_span("flow.probe", "flow");
  // Stage spans as in analyze_committed, under probe-only names so the
  // committed flow.* stage totals keep counting committed work only.
  std::optional<TraceSpan> stage;
  stage.emplace("flow.probe.place", "flow");
  auto placement = incremental_place(netlist, previous);
  if (!placement) {
    return make_status(StatusCode::kUnsatisfiable,
                       "probe: die cannot absorb the edit to '%s'",
                       netlist.name().c_str());
  }
  stage.emplace("flow.probe.route", "flow");
  RoutingResult routing = route(netlist, *placement, options_.route);
  stage.emplace("flow.probe.sta", "flow");
  TimingPower timing = analyze_timing_power(netlist, routing, options_.sta);
  stage.emplace("flow.probe.extract", "flow");
  ExtractStats extract_work;
  FaultUniverse universe =
      extract_dfm_faults(netlist, *placement, routing, udfm_, &extract_work);
  extract_args(*stage, universe.size(), extract_work);
  stage.reset();
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = generate_tests;
  atpg_options.arena = arena;
  atpg_options.cancel = cancel;
  if (num_threads != 0) atpg_options.num_threads = num_threads;
  if (options_.warm_start && !seed_tests_.empty()) {
    atpg_options.seed_tests = &seed_tests_;
    if (options_.probe_overlays && probe_baseline_.valid()) {
      atpg_options.baseline = &probe_baseline_;
    }
  }
  AtpgResult atpg =
      run_atpg_overlay(netlist, universe, udfm_, atpg_options, base_cache,
                       updates);
  if (atpg.cancelled) return cancel->to_status();
  if (counters != nullptr) counters->merge(atpg.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.probes_committed.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(universe.size(),
                                       std::memory_order_relaxed);
  stage.emplace("flow.probe.cluster", "flow");
  ClusterAnalysis clusters =
      cluster_undetectable(netlist, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(netlist), std::move(*placement),
                   std::move(routing), std::move(timing),
                   std::move(universe), std::move(atpg),
                   std::move(clusters)};
}

Expected<std::size_t> DesignFlow::probe_count_impl(
    const Netlist& nl, const FaultStatusCache* base_cache,
    FaultStatusCache* updates, FaultSimArena* arena, int num_threads,
    const CancelToken* cancel, AtpgCounters* counters) const {
  if (cancel_expired(cancel)) return cancel->to_status();
  TraceSpan probe_span("flow.u_in_probe", "flow");
  const FaultUniverse internal = [&] {
    TraceSpan span("flow.u_in_probe.extract", "flow");
    FaultUniverse faults = extract_internal_faults(nl, udfm_);
    extract_args(span, faults.size(), {});
    return faults;
  }();
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = false;
  atpg_options.arena = arena;
  atpg_options.cancel = cancel;
  if (num_threads != 0) atpg_options.num_threads = num_threads;
  if (options_.warm_start && !seed_tests_.empty()) {
    atpg_options.seed_tests = &seed_tests_;
    if (options_.probe_overlays && probe_baseline_.valid()) {
      atpg_options.baseline = &probe_baseline_;
    }
  }
  const AtpgResult result =
      run_atpg_overlay(nl, internal, udfm_, atpg_options, base_cache, updates);
  if (result.cancelled) return cancel->to_status();
  if (counters != nullptr) counters->merge(result.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.analyses.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(internal.size(),
                                       std::memory_order_relaxed);
  return result.num_undetectable;
}

Expected<FlowState> ProbeSession::reanalyze(Netlist netlist,
                                            const Placement& previous,
                                            bool generate_tests) {
  return flow_->probe_reanalyze_impl(std::move(netlist), previous,
                                     generate_tests, base_, &updates_, arena_,
                                     num_threads_, cancel_, &counters_);
}

Expected<std::size_t> ProbeSession::count_undetectable_internal(
    const Netlist& nl) {
  return flow_->probe_count_impl(nl, base_, &updates_, arena_, num_threads_,
                                 cancel_, &counters_);
}

void DesignFlow::rebase_overlays(const Netlist& nl) {
  if (!options_.warm_start || !options_.probe_overlays ||
      seed_tests_.empty()) {
    probe_baseline_.clear();
    return;
  }
  rebase_sim_baseline(probe_baseline_, nl, seed_tests_, options_.atpg.seed,
                      options_.atpg.random_batches);
}

void DesignFlow::commit_updates(const FaultStatusCache& updates) {
  for (const auto& [key, status] : updates) {
    cache_.insert_or_assign(key, status);
  }
}

std::vector<std::uint8_t> DesignFlow::cone_untouched_flags(
    const Netlist& nl, const FaultUniverse& universe,
    std::span<const GateId> changed_gates) {
  // A: nets whose value could differ after an arbitrary rewrite of the
  // changed gates — the fanout closure of their outputs, stopping at
  // sequential cells (full-scan frames are independent scan loads).
  std::vector<std::uint8_t> in_a(nl.net_capacity(), 0);
  std::vector<NetId> stack;
  const auto push_a = [&](NetId n) {
    if (n.valid() && n.value() < in_a.size() && !in_a[n.value()]) {
      in_a[n.value()] = 1;
      stack.push_back(n);
    }
  };
  for (GateId g : changed_gates) {
    if (!nl.gate_alive(g)) continue;
    for (NetId out : nl.gate(g).outputs) push_a(out);
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    for (const PinRef& sink : nl.net(n).sinks) {
      if (nl.cell_of(sink.gate).sequential) continue;
      for (NetId out : nl.gate(sink.gate).outputs) push_a(out);
    }
  }
  // B: nets that can reach A (backward closure over combinational
  // gates). A fault whose victim is outside B cannot propagate through
  // any changed value — not even via side inputs, because a path gate
  // with a side input in A has its output in A, which the victim would
  // then reach. So victim ∉ B (and aggressor ∉ B for bridges) plus an
  // unchanged owner makes excitation and propagation both invariant.
  std::vector<std::uint8_t> in_b = in_a;
  for (std::uint32_t v = 0; v < in_a.size(); ++v) {
    if (in_a[v]) stack.push_back(NetId{v});
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    const auto& net = nl.net(n);
    if (!net.has_gate_driver()) continue;
    if (nl.cell_of(net.driver_gate).sequential) continue;
    for (NetId f : nl.gate(net.driver_gate).fanin) {
      if (f.valid() && f.value() < in_b.size() && !in_b[f.value()]) {
        in_b[f.value()] = 1;
        stack.push_back(f);
      }
    }
  }
  std::vector<std::uint8_t> changed_gate(nl.gate_capacity(), 0);
  for (GateId g : changed_gates) {
    if (g.value() < changed_gate.size()) changed_gate[g.value()] = 1;
  }

  std::vector<std::uint8_t> untouched(universe.size(), 0);
  const auto net_touched = [&](NetId n) {
    return n.valid() && (n.value() >= in_b.size() || in_b[n.value()] != 0);
  };
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    const Fault& f = universe.faults[i];
    bool touched = net_touched(f.victim);
    if (f.kind == FaultKind::Bridge) touched = touched || net_touched(f.aggressor);
    if (f.owner.valid() && (f.owner.value() >= changed_gate.size() ||
                            changed_gate[f.owner.value()] != 0)) {
      touched = true;
    }
    untouched[i] = touched ? 0 : 1;
  }
  return untouched;
}

std::vector<CellId> DesignFlow::cells_by_internal_faults() const {
  std::vector<std::pair<std::size_t, CellId>> ranked;
  for (std::uint32_t i = 0; i < target_->num_cells(); ++i) {
    const CellId id{i};
    if (target_->cell(id).sequential) continue;
    const std::size_t count = internal_fault_count(*target_, udfm_, id);
    if (count > 0) ranked.emplace_back(count, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<CellId> order;
  order.reserve(ranked.size());
  for (const auto& [count, id] : ranked) order.push_back(id);
  return order;
}

}  // namespace dfmres
