#include "src/atpg/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

#include "src/sim/eval_kernel.hpp"
#include "src/util/trace.hpp"

namespace dfmres {
namespace {

constexpr std::size_t kLanes = FaultSimulator::kLanes;

// ---- SoA event heap ----
// Min-heap on topological position with the gate slot riding along in a
// parallel array: the sift compares touch only the position lane. Topo
// positions are unique per gate, so the pop order is fully determined.

void push_event(std::vector<std::uint32_t>& pos,
                std::vector<std::uint32_t>& gate, std::uint32_t p,
                std::uint32_t g) {
  pos.push_back(p);
  gate.push_back(g);
  std::size_t i = pos.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (pos[parent] <= pos[i]) break;
    std::swap(pos[parent], pos[i]);
    std::swap(gate[parent], gate[i]);
    i = parent;
  }
}

std::uint32_t pop_event(std::vector<std::uint32_t>& pos,
                        std::vector<std::uint32_t>& gate) {
  const std::uint32_t top = gate[0];
  pos[0] = pos.back();
  gate[0] = gate.back();
  pos.pop_back();
  gate.pop_back();
  const std::size_t n = pos.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t m = i;
    if (l < n && pos[l] < pos[m]) m = l;
    if (r < n && pos[r] < pos[m]) m = r;
    if (m == i) break;
    std::swap(pos[m], pos[i]);
    std::swap(gate[m], gate[i]);
    i = m;
  }
  return top;
}

// ---- good-machine evaluation ----

/// Packs tests[first..first+lanes) into per-source lane words: lane L
/// of the batch lands in bit L of the source's word.
void pack_sources(const DenseView& v, std::span<const TestPattern> tests,
                  std::size_t first, int lanes,
                  std::vector<std::uint64_t>& src0,
                  std::vector<std::uint64_t>& src1) {
  const std::size_t num_sources = v.sources.size();
  src0.assign(num_sources, 0);
  src1.assign(num_sources, 0);
  for (int lane = 0; lane < lanes; ++lane) {
    const TestPattern& t = tests[first + static_cast<std::size_t>(lane)];
    const std::uint64_t bit = std::uint64_t{1} << lane;
    for (std::size_t s = 0; s < num_sources; ++s) {
      if (t.frame0[s]) src0[s] |= bit;
      if (t.frame1[s]) src1[s] |= bit;
    }
  }
}

/// Evaluates `gates` in the given (topological) order over both frames
/// at once: each gate's CSR rows and cell metadata stream through the
/// cache once and serve 128 pattern lanes in lock-step.
void eval_gates(const DenseView& v, std::span<const std::uint32_t> gates,
                std::uint64_t* f0, std::uint64_t* f1) {
  std::uint64_t in0[kMaxCellInputs], in1[kMaxCellInputs];
  for (std::uint32_t gs : gates) {
    const CellSpec& cell = *v.cell[gs];
    const std::uint32_t fb = v.fanin_offset[gs];
    const std::size_t nin = v.fanin_offset[gs + 1] - fb;
    for (std::size_t i = 0; i < nin; ++i) {
      in0[i] = f0[v.fanin_net[fb + i]];
      in1[i] = f1[v.fanin_net[fb + i]];
    }
    const std::uint32_t ob = v.output_offset[gs];
    for (int k = 0; k < cell.num_outputs; ++k) {
      const std::uint32_t out = v.output_net[ob + static_cast<std::uint32_t>(k)];
      f0[out] = eval_cell_word(cell, k, in0, nin);
      f1[out] = eval_cell_word(cell, k, in1, nin);
    }
  }
}

/// Full good-machine evaluation of BOTH frames in one fused topological
/// pass. Slots never written (dead or undriven nets) keep their prior
/// contents, so callers zero-fill once at rebind.
void eval_frames(const DenseView& v, const std::uint64_t* src0,
                 const std::uint64_t* src1, std::uint64_t* f0,
                 std::uint64_t* f1) {
  for (std::size_t s = 0; s < v.sources.size(); ++s) {
    f0[v.sources[s]] = src0[s];
    f1[v.sources[s]] = src1[s];
  }
  eval_gates(v, v.order, f0, f1);
}

/// Standalone batch simulation into GoodFrames (the baseline builder;
/// no simulator instance involved).
GoodFrames simulate_batch(const DenseView& dv,
                          std::span<const TestPattern> patterns,
                          std::size_t first, int lanes,
                          std::vector<std::uint64_t>& src0,
                          std::vector<std::uint64_t>& src1) {
  GoodFrames out;
  out.lanes = lanes;
  out.good0.assign(dv.net_slots, 0);
  out.good1.assign(dv.net_slots, 0);
  pack_sources(dv, patterns, first, lanes, src0, src1);
  eval_frames(dv, src0.data(), src1.data(), out.good0.data(),
              out.good1.data());
  return out;
}

/// Recomputes exactly the plan's dirty slots in place over full frame
/// arrays (the rebase fold): zero the dirty slots, then evaluate the
/// dirty gates in topological order. Clean inputs already hold correct
/// values; dirty inputs were either written by an earlier dirty gate or
/// are undriven and stay zero — the same contract a full load leaves
/// behind.
void refresh_dirty(const DenseView& v, const CowPlan& plan, std::uint64_t* f0,
                   std::uint64_t* f1) {
  for (std::uint32_t n : plan.dirty_nets) {
    f0[n] = 0;
    f1[n] = 0;
  }
  eval_gates(v, plan.dirty_gates, f0, f1);
}

SimBaseline build_baseline_over(std::shared_ptr<const DenseView> dv,
                                std::span<const TestPattern> seeds,
                                std::uint64_t random_seed,
                                int random_batches) {
  SimBaseline out;
  out.num_patterns = seeds.size();
  out.frame_width = dv->sources.size();
  out.seeds_hash = seed_tests_hash(seeds);
  std::vector<std::uint64_t> src0, src1;
  const auto simulate_all = [&](std::span<const TestPattern> patterns,
                                std::vector<GoodFrames>& batches) {
    for (std::size_t first = 0; first < patterns.size(); first += kLanes) {
      const int lanes = static_cast<int>(
          std::min<std::size_t>(patterns.size() - first, kLanes));
      batches.push_back(
          simulate_batch(*dv, patterns, first, lanes, src0, src1));
    }
  };
  simulate_all(seeds, out.batches);
  // Phase-1 random batches: draw exactly as the engine does (64 pattern
  // pairs per engine batch, frame0 then frame1) from a fresh rng at the
  // given seed — the draws are rng-sequential, so drawing every batch up
  // front leaves the identical stream — then simulate them one engine
  // batch per stored batch.
  out.random_seed = random_seed;
  out.random_batch_count = random_batches;
  Rng rng(random_seed);
  const std::size_t total = kLanes * static_cast<std::size_t>(random_batches);
  for (std::size_t i = 0; i < total; ++i) {
    out.random_patterns.push_back({random_sim_frame(out.frame_width, rng),
                                   random_sim_frame(out.frame_width, rng)});
  }
  simulate_all(out.random_patterns, out.random_batches);
  out.view = std::move(dv);
  return out;
}

}  // namespace

std::vector<std::uint8_t> random_sim_frame(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = rng.flip() ? 1 : 0;
  return out;
}

std::uint64_t seed_tests_hash(std::span<const TestPattern> seeds) {
  // FNV-1a over pattern count, frame widths, and frame bytes in order.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  const auto mix_frame = [&](const std::vector<std::uint8_t>& f) {
    mix(f.size());
    for (std::uint8_t b : f) mix(b);
  };
  mix(seeds.size());
  for (const TestPattern& t : seeds) {
    mix_frame(t.frame0);
    mix_frame(t.frame1);
  }
  return h;
}

SimBaseline build_sim_baseline(const Netlist& nl,
                               std::span<const TestPattern> seeds,
                               std::uint64_t random_seed,
                               int random_batches) {
  if (seeds.empty()) return {};
  const CombView view = CombView::build(nl);
  return build_baseline_over(DenseView::build_shared(nl, view), seeds,
                             random_seed, random_batches);
}

void rebase_sim_baseline(SimBaseline& base, const Netlist& nl,
                         std::span<const TestPattern> seeds,
                         std::uint64_t random_seed, int random_batches) {
  if (seeds.empty()) {
    base.clear();
    return;
  }
  TraceSpan span("fsim.rebase", "fsim");
  const CombView view = CombView::build(nl);
  auto dv = DenseView::build_shared(nl, view);
  // The random patterns are a function of (seed, frame width), so an
  // unchanged width keeps them valid through a fold; a changed random
  // configuration forces the full rebuild below.
  if (base.valid() && base.seeds_hash == seed_tests_hash(seeds) &&
      base.num_patterns == seeds.size() &&
      base.frame_width == dv->sources.size() &&
      base.random_seed == random_seed &&
      base.random_batch_count == random_batches) {
    const CowPlan plan = build_cow_plan(*dv, *base.view);
    if (plan.valid) {
      if (span.active()) {
        span.arg("fold_dirty_nets", static_cast<int>(plan.dirty_nets.size()));
      }
      const auto fold = [&](GoodFrames& gf) {
        // resize() zero-fills slots the old design did not have; the
        // plan marks all of them dirty anyway.
        gf.good0.resize(dv->net_slots, 0);
        gf.good1.resize(dv->net_slots, 0);
        refresh_dirty(*dv, plan, gf.good0.data(), gf.good1.data());
      };
      for (GoodFrames& gf : base.batches) fold(gf);
      for (GoodFrames& gf : base.random_batches) fold(gf);
      base.view = std::move(dv);
      return;
    }
  }
  base = build_baseline_over(std::move(dv), seeds, random_seed,
                             random_batches);
}

CowPlan build_cow_plan(const DenseView& cand, const DenseView& base) {
  CowPlan plan;
  // The overlay contract needs identical source vectors (baseline frames
  // are reused without re-packing the scan loads).
  if (cand.sources != base.sources) return plan;

  const auto row_differs = [](const std::vector<std::uint32_t>& off_a,
                              const std::vector<std::uint32_t>& net_a,
                              const std::vector<std::uint32_t>& off_b,
                              const std::vector<std::uint32_t>& net_b,
                              std::uint32_t g) {
    const std::uint32_t ba = off_a[g], bb = off_b[g];
    const std::uint32_t la = off_a[g + 1] - ba, lb = off_b[g + 1] - bb;
    if (la != lb) return true;
    for (std::uint32_t i = 0; i < la; ++i) {
      if (net_a[ba + i] != net_b[bb + i]) return true;
    }
    return false;
  };

  // Seed set: gates that structurally differ between the two views.
  std::vector<std::uint8_t> gate_dirty(cand.gate_slots, 0);
  for (std::uint32_t g = 0; g < cand.gate_slots; ++g) {
    bool differs;
    if (g >= base.gate_slots) {
      differs = cand.cell[g] != nullptr;
    } else {
      differs = cand.cell[g] != base.cell[g] ||
                row_differs(cand.fanin_offset, cand.fanin_net,
                            base.fanin_offset, base.fanin_net, g) ||
                row_differs(cand.output_offset, cand.output_net,
                            base.output_offset, base.output_net, g);
    }
    if (!differs) continue;
    // An edited sequential gate changes a frame source; the overlay
    // replays sources verbatim, so bail out to full loads.
    if (cand.is_sequential[g] ||
        (g < base.gate_slots && base.cell[g] != nullptr &&
         base.is_sequential[g])) {
      return plan;
    }
    if (cand.cell[g] != nullptr) gate_dirty[g] = 1;
  }
  // The seeds themselves, before closure expansion, in candidate topo
  // order — the start set of the value-cutoff overlay replay.
  std::vector<std::uint8_t> seed_gate = gate_dirty;

  // Seed dirty nets: slots the baseline frames do not cover, nets whose
  // driver changed (covers gate removal), and outputs of dirty gates.
  plan.dirty.assign(cand.net_slots, 0);
  std::vector<std::uint32_t> worklist;
  const auto mark_net = [&](std::uint32_t n) {
    if (!plan.dirty[n]) {
      plan.dirty[n] = 1;
      worklist.push_back(n);
    }
  };
  for (std::uint32_t n = 0; n < cand.net_slots; ++n) {
    if (n >= base.net_slots || cand.driver[n] != base.driver[n]) {
      mark_net(n);
      // The overlay can read every other slot straight from the baseline
      // frames and let seed-gate evaluation decide what changed; these
      // it must preset (no baseline value, or newly undriven — the
      // full-load contract leaves unwritten slots at zero). Dead slots
      // are exempt: fault universes, observe sets, and fanout rows all
      // come from live nets only, so nothing ever reads their frames.
      if ((n >= base.net_slots || cand.driver[n] == DenseView::kNoDriver) &&
          cand.net_alive[n]) {
        plan.seed_nets.push_back(n);
      }
    }
  }
  for (std::uint32_t g = 0; g < cand.gate_slots; ++g) {
    if (!gate_dirty[g]) continue;
    for (std::uint32_t i = cand.output_offset[g];
         i < cand.output_offset[g + 1]; ++i) {
      mark_net(cand.output_net[i]);
    }
  }

  // Forward combinational closure: any gate reading a dirty net must be
  // re-evaluated, which dirties its outputs in turn. This is purely
  // structural — no functional-equivalence assumption — so clean slots
  // provably carry identical values in both designs.
  while (!worklist.empty()) {
    const std::uint32_t n = worklist.back();
    worklist.pop_back();
    for (std::uint32_t i = cand.fanout_offset[n]; i < cand.fanout_offset[n + 1];
         ++i) {
      const std::uint32_t gs = cand.fanout_gate[i];
      if (gate_dirty[gs]) continue;
      gate_dirty[gs] = 1;
      for (std::uint32_t o = cand.output_offset[gs];
           o < cand.output_offset[gs + 1]; ++o) {
        mark_net(cand.output_net[o]);
      }
    }
  }

  // Sources must stay clean (they are read from the baseline frames).
  for (std::uint32_t s : cand.sources) {
    if (plan.dirty[s]) return plan;
  }

  for (std::uint32_t n = 0; n < cand.net_slots; ++n) {
    if (plan.dirty[n]) plan.dirty_nets.push_back(n);
  }
  for (std::uint32_t gs : cand.order) {
    if (gate_dirty[gs]) plan.dirty_gates.push_back(gs);
    if (seed_gate[gs]) plan.seed_gates.push_back(gs);
  }
  plan.valid = true;
  return plan;
}

FaultSimulator::FaultSimulator(std::shared_ptr<const DenseView> view) {
  rebind(std::move(view));
}

FaultSimulator::FaultSimulator(const Netlist& nl, const CombView& view)
    : FaultSimulator(DenseView::build_shared(nl, view)) {}

void FaultSimulator::rebind(std::shared_ptr<const DenseView> view) {
  view_ = std::move(view);
  const std::size_t net_slots = view_->net_slots;
  // assign() reuses capacity, so rebinding an arena slot to a
  // similar-sized netlist performs no allocation. Stamps must be zeroed
  // together with the epoch reset or stale stamps from a previous
  // binding could alias the restarted epoch numbers.
  good0_.assign(net_slots, 0);
  good1_.assign(net_slots, 0);
  ov0_.assign(net_slots, 0);
  ov1_.assign(net_slots, 0);
  ov_dirty_.assign(net_slots, 0);
  ov_dirty_list_.clear();
  faulty_.assign(net_slots, 0);
  stamp_.assign(net_slots, 0);
  epoch_ = 0;
  set_lanes(0);
  scheduled_.assign(view_->gate_slots, 0);
  // Event scratch left over from an interrupted query against a previous
  // binding would index into the wrong design — drop it with the rest of
  // the per-binding state.
  event_pos_.clear();
  event_gate_.clear();
  touched_gates_.clear();
  touched_nets_.clear();
  bind_own_frames();
  patterns_simulated_ = 0;
  detect_mask_calls_ = 0;
  propagation_events_ = 0;
  frame_bytes_materialized_ = 0;
  full_loads_ = 0;
  overlay_loads_ = 0;
  overlay_dirty_nets_ = 0;
  load_seconds_ = 0.0;
  cancel_ = nullptr;
}

void FaultSimulator::rebind(const Netlist& nl, const CombView& view) {
  rebind(DenseView::build_shared(nl, view));
}

void FaultSimulator::bind_own_frames() {
  g0_ = good0_.data();
  g1_ = good1_.data();
  o0_ = nullptr;
  o1_ = nullptr;
  dirty_ = nullptr;
}

void FaultSimulator::set_lanes(std::size_t count) {
  lanes_ = static_cast<int>(std::min(count, kLanes));
  lane_mask_ = lanes_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes_) - 1;
}

void FaultSimulator::load(std::span<const TestPattern> tests,
                          std::size_t first, std::size_t count) {
  // One span per batch load (detect_mask itself is far too hot to trace
  // per call; the enclosing atpg.sweep span covers the query side).
  TraceSpan span("fsim.load", "fsim");
  if (span.active()) span.arg("lanes", static_cast<int>(count));
  const auto t0 = std::chrono::steady_clock::now();
  set_lanes(count);
  pack_sources(*view_, tests, first, lanes_, src0_, src1_);
  eval_frames(*view_, src0_.data(), src1_.data(), good0_.data(),
              good1_.data());
  bind_own_frames();
  patterns_simulated_ += 2 * static_cast<std::uint64_t>(lanes_);
  ++full_loads_;
  frame_bytes_materialized_ += 2 * sizeof(std::uint64_t) *
                               static_cast<std::uint64_t>(view_->net_slots);
  load_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void FaultSimulator::load_from(const FaultSimulator& other) {
  // Zero-copy adoption: alias whatever frames `other` has bound (its own
  // arrays after a full load, or baseline + overlay after a CoW load).
  lanes_ = other.lanes_;
  lane_mask_ = other.lane_mask_;
  g0_ = other.g0_;
  g1_ = other.g1_;
  o0_ = other.o0_;
  o1_ = other.o1_;
  dirty_ = other.dirty_;
}

void FaultSimulator::load_baseline(const SimBaseline& base, const CowPlan& plan,
                                   std::size_t batch, std::size_t count) {
  load_overlay_frames(base.batches[batch], plan, count);
}

void FaultSimulator::load_baseline_random(const SimBaseline& base,
                                          const CowPlan& plan,
                                          std::size_t batch,
                                          std::size_t count) {
  load_overlay_frames(base.random_batches[batch], plan, count);
}

void FaultSimulator::load_overlay_frames(const GoodFrames& gf,
                                         const CowPlan& plan,
                                         std::size_t count) {
  TraceSpan span("fsim.load", "fsim");
  if (span.active()) span.arg("lanes", static_cast<int>(count));
  const auto t0 = std::chrono::steady_clock::now();
  set_lanes(count);
  const DenseView& v = *view_;
  assert(gf.lanes == lanes_);
  assert(plan.valid && plan.dirty.size() == v.net_slots);
  g0_ = gf.good0.data();
  g1_ = gf.good1.data();
  o0_ = ov0_.data();
  o1_ = ov1_.data();
  // Undo the previous batch's marks instead of clearing O(netlist).
  for (std::uint32_t n : ov_dirty_list_) ov_dirty_[n] = 0;
  ov_dirty_list_.clear();
  dirty_ = ov_dirty_.data();

  // Event-driven replay with value cutoff: re-evaluate the edited gates,
  // record an output slot only when its recomputed word differs from the
  // baseline frames, and wake a reader only for recorded slots. For a
  // function-preserving rewrite the wave dies at the region boundary, so
  // the materialized slots track the edit, not its structural fanout
  // cone. Soundness: a non-seed gate has identical pin rows in both
  // designs, so if its input slots carry the baseline values its stored
  // outputs are already correct.
  const auto mark = [&](std::uint32_t n, std::uint64_t w0, std::uint64_t w1) {
    if (!ov_dirty_[n]) {
      ov_dirty_[n] = 1;
      ov_dirty_list_.push_back(n);
    }
    ov0_[n] = w0;
    ov1_[n] = w1;
  };
  event_pos_.clear();
  event_gate_.clear();
  touched_gates_.clear();
  const auto schedule = [&](std::uint32_t gs) {
    if (!scheduled_[gs]) {
      scheduled_[gs] = 1;
      touched_gates_.push_back(gs);
      push_event(event_pos_, event_gate_, v.topo_pos[gs], gs);
    }
  };
  // Slots the baseline frames cannot answer for start at 0 — the value a
  // full load leaves in slots nothing writes — and wake their readers; a
  // live driver (always a seed gate) overwrites them below.
  for (std::uint32_t n : plan.seed_nets) {
    mark(n, 0, 0);
    for (std::uint32_t i = v.fanout_offset[n]; i < v.fanout_offset[n + 1];
         ++i) {
      schedule(v.fanout_gate[i]);
    }
  }
  for (std::uint32_t gs : plan.seed_gates) schedule(gs);
  std::uint64_t in0[kMaxCellInputs], in1[kMaxCellInputs];
  while (!event_pos_.empty()) {
    const std::uint32_t gs = pop_event(event_pos_, event_gate_);
    const CellSpec& cell = *v.cell[gs];
    const std::uint32_t fb = v.fanin_offset[gs];
    const std::size_t nin = v.fanin_offset[gs + 1] - fb;
    for (std::size_t i = 0; i < nin; ++i) {
      in0[i] = g0(v.fanin_net[fb + i]);
      in1[i] = g1(v.fanin_net[fb + i]);
    }
    const std::uint32_t ob = v.output_offset[gs];
    for (int k = 0; k < cell.num_outputs; ++k) {
      const std::uint32_t out = v.output_net[ob + static_cast<std::uint32_t>(k)];
      const std::uint64_t w0 = eval_cell_word(cell, k, in0, nin);
      const std::uint64_t w1 = eval_cell_word(cell, k, in1, nin);
      if (ov_dirty_[out]) {
        // Preset slot (no baseline value): store unconditionally; its
        // readers were woken when it was preset.
        ov0_[out] = w0;
        ov1_[out] = w1;
      } else if (w0 != g0_[out] || w1 != g1_[out]) {
        mark(out, w0, w1);
        for (std::uint32_t i = v.fanout_offset[out];
             i < v.fanout_offset[out + 1]; ++i) {
          schedule(v.fanout_gate[i]);
        }
      }
      // else: bit-identical to the baseline — the wave stops here.
    }
  }
  // Scheduled flags persist across the pop (each gate runs once); reset
  // them for the detect queries that share the scratch.
  for (std::uint32_t gs : touched_gates_) scheduled_[gs] = 0;
  touched_gates_.clear();

  // Same pattern accounting as a full load: the batch's test frames are
  // (re)played against this design either way.
  patterns_simulated_ += 2 * static_cast<std::uint64_t>(lanes_);
  ++overlay_loads_;
  overlay_dirty_nets_ += ov_dirty_list_.size();
  frame_bytes_materialized_ +=
      2 * sizeof(std::uint64_t) *
      static_cast<std::uint64_t>(ov_dirty_list_.size());
  load_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::uint64_t FaultSimulator::detect_mask(
    std::span<const Excitation> excitations) {
  if (cancel_expired(cancel_)) return 0;
  ++detect_mask_calls_;
  const DenseView& v = *view_;
  std::uint64_t detected = 0;

  for (const Excitation& exc : excitations) {
    // Lanes where every condition literal holds and the victim's good
    // value opposes the forced value.
    std::uint64_t e = lane_mask_;
    for (const CondLiteral& lit : exc.lits) {
      const std::uint64_t val =
          lit.frame == 0 ? g0(lit.net.value()) : g1(lit.net.value());
      e = lit.value ? (e & val) : (e & ~val);
      if (e == 0) break;
    }
    if (e == 0) continue;
    const std::uint32_t victim = exc.victim.value();
    const std::uint64_t victim_good = g1(victim);
    e = exc.faulty_value ? (e & ~victim_good) : (e & victim_good);
    if (e == 0) continue;

    // Event-driven forward propagation of the flip (frame 1 only).
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      // Epoch wraparound: a stale stamp equal to the restarted epoch
      // would silently resurrect old faulty values, so clear the stamps
      // before reusing epoch numbers.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
    const auto fv_of = [&](std::uint32_t n) {
      return stamp_[n] == epoch_ ? faulty_[n] : g1(n);
    };
    const auto set_fv = [&](std::uint32_t n, std::uint64_t val) {
      faulty_[n] = val;
      stamp_[n] = epoch_;
      touched_nets_.push_back(n);
      ++propagation_events_;
    };
    touched_nets_.clear();
    set_fv(victim, (victim_good & ~e) | (exc.faulty_value ? e : 0));

    // SoA min-heap of gates by topological position (reused buffers).
    // Sinks come from the view's combinational fanout CSR, which already
    // excludes sequential gates.
    event_pos_.clear();
    event_gate_.clear();
    touched_gates_.clear();
    const auto schedule_sinks = [&](std::uint32_t n) {
      for (std::uint32_t i = v.fanout_offset[n]; i < v.fanout_offset[n + 1];
           ++i) {
        const std::uint32_t gs = v.fanout_gate[i];
        if (!scheduled_[gs]) {
          scheduled_[gs] = 1;
          touched_gates_.push_back(gs);
          push_event(event_pos_, event_gate_, v.topo_pos[gs], gs);
        }
      }
    };
    schedule_sinks(victim);
    std::uint64_t ins[kMaxCellInputs];
    while (!event_pos_.empty()) {
      const std::uint32_t gs = pop_event(event_pos_, event_gate_);
      const CellSpec& cell = *v.cell[gs];
      const std::uint32_t fb = v.fanin_offset[gs];
      const std::size_t nin = v.fanin_offset[gs + 1] - fb;
      for (std::size_t i = 0; i < nin; ++i) ins[i] = fv_of(v.fanin_net[fb + i]);
      const std::uint32_t ob = v.output_offset[gs];
      for (int k = 0; k < cell.num_outputs; ++k) {
        const std::uint32_t outn =
            v.output_net[ob + static_cast<std::uint32_t>(k)];
        const std::uint64_t nv = eval_cell_word(cell, k, ins, nin);
        if (nv != fv_of(outn)) {
          set_fv(outn, nv);
          schedule_sinks(outn);
        }
      }
    }
    for (std::uint32_t gs : touched_gates_) scheduled_[gs] = 0;

    // Detection at observation points: only nets stamped this epoch can
    // disagree with the good machine, so scan the touched set instead of
    // every observation point.
    for (std::uint32_t ns : touched_nets_) {
      if (v.observe_flag[ns]) detected |= (faulty_[ns] ^ g1(ns)) & e;
    }
    // The victim itself may be observed directly.
    if (v.is_primary_output[victim]) {
      detected |= (fv_of(victim) ^ victim_good) & e;
    }
    // Every active lane detected: later excitations cannot add bits.
    if (detected == lane_mask_) break;
  }
  return detected & lane_mask_;
}

FaultSimulator& FaultSimArena::acquire(std::size_t index,
                                       std::shared_ptr<const DenseView> view) {
#ifndef NDEBUG
  // Slots must be acquired serially by the run's calling thread (the
  // vector resize below and the rebind are unsynchronized). Different
  // runs may live on different threads — slot 0 re-pins the owner.
  if (index == 0) {
    owner_ = std::this_thread::get_id();
  } else {
    assert(owner_ == std::this_thread::get_id() &&
           "FaultSimArena slots acquired from a different thread than the "
           "run master");
  }
#endif
  if (index >= slots_.size()) slots_.resize(index + 1);
  if (!slots_[index]) {
    slots_[index] = std::make_unique<FaultSimulator>(std::move(view));
  } else {
    slots_[index]->rebind(std::move(view));
  }
  return *slots_[index];
}

}  // namespace dfmres
