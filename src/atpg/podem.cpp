#include "src/atpg/podem.hpp"

#include <algorithm>
#include <bit>

namespace dfmres {

namespace {
constexpr int kPow3[7] = {1, 3, 9, 27, 81, 243, 729};
constexpr std::uint32_t kNoLut = 0xFFFFFFFFu;
constexpr std::uint32_t kSource = SearchGraph::kSource;
constexpr std::uint32_t kUndriven = SearchGraph::kUndriven;
}  // namespace

Podem::Podem(const DenseView& dense, Config config)
    : dense_(dense), config_(config) {
  gate_lut_.assign(dense.gate_slots, kNoLut);
  net_stamp_.assign(dense.net_slots, 0);
  net_node_.assign(dense.net_slots, 0);
  gate_stamp_.assign(dense.gate_slots, 0);
  gate_rank_.assign(dense.gate_slots, 0);
}

std::uint32_t Podem::lut_of(std::uint32_t g) {
  if (gate_lut_[g] != kNoLut) return gate_lut_[g];
  const CellSpec* cell = dense_.cell[g];
  const auto it = std::find_if(lut_cells_.begin(), lut_cells_.end(),
                               [&](const auto& e) { return e.first == cell; });
  if (it != lut_cells_.end()) return gate_lut_[g] = it->second;
  // Precompute the ternary table of every output once per cell: this
  // makes a forward implication ~10x cheaper than enumerating X inputs.
  const auto block = static_cast<std::uint32_t>(lut_.size());
  const int n = cell->num_inputs;
  V3 ins[kMaxCellInputs];
  for (int out = 0; out < cell->num_outputs; ++out) {
    for (int idx = 0; idx < kPow3[n]; ++idx) {
      int rest = idx;
      for (int i = 0; i < n; ++i) {
        ins[i] = static_cast<V3>(rest % 3);
        rest /= 3;
      }
      lut_.push_back(static_cast<std::uint8_t>(
          eval_cell_v3(*cell, out, {ins, static_cast<std::size_t>(n)})));
    }
  }
  lut_cells_.emplace_back(cell, block);
  return gate_lut_[g] = block;
}

int Podem::good_index(std::uint32_t r) const {
  int idx = 0;  // Horner, from the last input down
  for (std::uint32_t i = sg_.fanin_offset[r + 1]; i > sg_.fanin_offset[r];
       --i) {
    idx = idx * 3 + static_cast<int>(value_[sg_.fanin_node[i - 1]].good);
  }
  return idx;
}

void Podem::build_subgraph(std::span<const CondLiteral> lits,
                           const Excitation* exc) {
  const DenseView& dv = dense_;
  ++epoch_;
  sg_.nodes.clear();
  sg_.gates.clear();
  const auto node_of = [&](std::uint32_t net) {
    if (net_stamp_[net] != epoch_) {
      net_stamp_[net] = epoch_;
      net_node_[net] = static_cast<std::uint32_t>(sg_.nodes.size());
      sg_.nodes.push_back(net);
    }
    return net_node_[net];
  };
  // Adds a gate with all its outputs; false if it was already present.
  const auto add_gate = [&](std::uint32_t g) {
    if (gate_stamp_[g] == epoch_) return false;
    gate_stamp_[g] = epoch_;
    sg_.gates.push_back(g);
    for (std::uint32_t k = dv.output_offset[g]; k < dv.output_offset[g + 1];
         ++k) {
      node_of(dv.output_net[k]);
    }
    return true;
  };

  // Victim cone: a forward walk over combinational sinks, with the node
  // list itself as the queue (only cone nets exist while it runs).
  scratch_.clear();
  if (exc != nullptr) {
    node_of(exc->victim.value());
    for (std::size_t i = 0; i < sg_.nodes.size(); ++i) {
      const std::uint32_t net = sg_.nodes[i];
      for (std::uint32_t s = dv.fanout_offset[net];
           s < dv.fanout_offset[net + 1]; ++s) {
        add_gate(dv.fanout_gate[s]);
      }
    }
    scratch_.assign(sg_.gates.begin(), sg_.gates.end());  // the cone gates
  }
  sg_.cone_nodes = static_cast<std::uint32_t>(sg_.nodes.size());
  sg_.lit_node.clear();
  for (const CondLiteral& lit : lits) {
    sg_.lit_node.push_back(node_of(lit.net.value()));
  }
  for (const std::uint32_t g : scratch_) {
    for (std::uint32_t i = dv.fanin_offset[g]; i < dv.fanin_offset[g + 1];
         ++i) {
      node_of(dv.fanin_net[i]);
    }
  }
  // Backward closure over combinational drivers; sources, undriven nets
  // and flop outputs terminate it.
  for (std::size_t i = 0; i < sg_.nodes.size(); ++i) {
    const std::uint32_t d = dv.driver[sg_.nodes[i]];
    if (d == DenseView::kNoDriver || dv.is_sequential[d]) continue;
    if (!add_gate(d)) continue;
    for (std::uint32_t k = dv.fanin_offset[d]; k < dv.fanin_offset[d + 1];
         ++k) {
      node_of(dv.fanin_net[k]);
    }
  }

  // Ranks: relevant gates in topological order.
  std::sort(sg_.gates.begin(), sg_.gates.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return dv.topo_pos[a] < dv.topo_pos[b];
            });
  const auto num_nodes = static_cast<std::uint32_t>(sg_.nodes.size());
  const auto num_ranks = static_cast<std::uint32_t>(sg_.gates.size());
  sg_.driver_rank.assign(num_nodes, kUndriven);
  sg_.driver_out.assign(num_nodes, 0);
  sg_.fanin_offset.assign(1, 0);
  sg_.out_offset.assign(1, 0);
  sg_.fanin_node.clear();
  sg_.out_node.clear();
  sg_.out_lut.clear();
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    const std::uint32_t g = sg_.gates[r];
    gate_rank_[g] = r;
    for (std::uint32_t i = dv.fanin_offset[g]; i < dv.fanin_offset[g + 1];
         ++i) {
      sg_.fanin_node.push_back(net_node_[dv.fanin_net[i]]);
    }
    const std::uint32_t block = lut_of(g);
    const auto stride = static_cast<std::uint32_t>(
        kPow3[dv.fanin_offset[g + 1] - dv.fanin_offset[g]]);
    for (std::uint32_t k = dv.output_offset[g]; k < dv.output_offset[g + 1];
         ++k) {
      const std::uint32_t node = net_node_[dv.output_net[k]];
      sg_.driver_rank[node] = r;
      sg_.driver_out[node] = static_cast<std::uint32_t>(sg_.out_node.size());
      sg_.out_node.push_back(node);
      sg_.out_lut.push_back(block + (k - dv.output_offset[g]) * stride);
    }
    sg_.fanin_offset.push_back(
        static_cast<std::uint32_t>(sg_.fanin_node.size()));
    sg_.out_offset.push_back(static_cast<std::uint32_t>(sg_.out_node.size()));
  }
  sg_.sources.clear();
  for (std::uint32_t i = 0; i < dv.sources.size(); ++i) {
    const std::uint32_t net = dv.sources[i];
    if (net_stamp_[net] != epoch_) continue;
    sg_.driver_rank[net_node_[net]] = kSource;
    sg_.sources.emplace_back(net_node_[net], i);
  }
  sg_.sink_offset.assign(1, 0);
  sg_.sink_rank.clear();
  sg_.observe.resize(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    const std::uint32_t net = sg_.nodes[n];
    for (std::uint32_t s = dv.fanout_offset[net];
         s < dv.fanout_offset[net + 1]; ++s) {
      const std::uint32_t g = dv.fanout_gate[s];
      if (gate_stamp_[g] == epoch_) sg_.sink_rank.push_back(gate_rank_[g]);
    }
    std::sort(sg_.sink_rank.begin() + sg_.sink_offset.back(),
              sg_.sink_rank.end());
    sg_.sink_offset.push_back(static_cast<std::uint32_t>(sg_.sink_rank.size()));
    sg_.observe[n] = dv.observe_flag[net];
  }
  sg_.cone_ranks.clear();
  for (const std::uint32_t g : scratch_) {
    sg_.cone_ranks.push_back(gate_rank_[g]);
  }
  std::sort(sg_.cone_ranks.begin(), sg_.cone_ranks.end());

  // All-X baseline; decisions then propagate incrementally.
  value_.assign(num_nodes, V5{});
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    const int idx = good_index(r);
    for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1]; ++k) {
      const auto v = static_cast<V3>(lut_[sg_.out_lut[k] + idx]);
      value_[sg_.out_node[k]] = V5{v, v};
    }
  }
  diff_nodes_.clear();
  dirty_.assign(num_ranks, 0);
  pending_.assign((num_ranks + 63) / 64, 0);
  visited_.assign(num_nodes, 0);
  visit_epoch_ = 0;
}

void Podem::simulate_faulty(const Excitation& exc, V3 excited) {
  // Victim injection on the faulty side, then one sweep of the victim cone
  // in rank order that evaluates only gates with a fanin whose faulty
  // value differs from its good value: every other node's faulty value
  // is its good value. Observation is checked in the same pass.
  for (const std::uint32_t n : diff_nodes_) value_[n].faulty = value_[n].good;
  diff_nodes_.clear();
  touched_.clear();
  observed_ = false;
  std::uint32_t dirty = 0;  // cone gates marked and not yet swept
  const auto set_faulty = [&](std::uint32_t n, V3 f) {
    value_[n].faulty = f;
    diff_nodes_.push_back(n);
    observed_ |= sg_.observe[n] != 0 && value_[n].has_fault_effect();
    for (std::uint32_t s = sg_.sink_offset[n]; s < sg_.sink_offset[n + 1];
         ++s) {
      dirty += dirty_[sg_.sink_rank[s]] ^ 1u;
      dirty_[sg_.sink_rank[s]] = 1;
    }
  };
  const V3 good = value_[0].good;  // the victim is node 0
  V3 f = good;
  if (excited == V3::One) {
    f = v3_of(exc.faulty_value);
  } else if (excited == V3::X && good != v3_of(exc.faulty_value)) {
    f = V3::X;
  }
  if (f != good) set_faulty(0, f);
  for (std::size_t c = 0; dirty != 0; ++c) {
    const std::uint32_t r = sg_.cone_ranks[c];
    if (dirty_[r] == 0) continue;
    dirty_[r] = 0;
    --dirty;
    touched_.push_back(r);
    int idx = 0;
    for (std::uint32_t i = sg_.fanin_offset[r + 1]; i > sg_.fanin_offset[r];
         --i) {
      idx = idx * 3 + static_cast<int>(value_[sg_.fanin_node[i - 1]].faulty);
    }
    for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1]; ++k) {
      const auto fo = static_cast<V3>(lut_[sg_.out_lut[k] + idx]);
      if (fo != value_[sg_.out_node[k]].good) set_faulty(sg_.out_node[k], fo);
    }
  }
}

V3 Podem::excitation_state(std::span<const CondLiteral> lits) const {
  bool any_x = false;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (lits[i].frame != 1) continue;
    const V3 v = value_[sg_.lit_node[i]].good;
    if (v == V3::X) {
      any_x = true;
    } else if (v != v3_of(lits[i].value)) {
      return V3::Zero;  // definitely broken
    }
  }
  return any_x ? V3::X : V3::One;
}

bool Podem::x_path_exists() {
  // Forward search inside the cone through nodes that could still carry
  // the fault effect, from the victim to any observation point.
  ++visit_epoch_;
  const auto passable = [&](std::uint32_t n) {
    const V5 v = value_[n];
    return v.has_fault_effect() || v.faulty == V3::X || v.good == V3::X;
  };
  if (!passable(0)) return false;
  scratch_.clear();
  scratch_.push_back(0);
  visited_[0] = visit_epoch_;
  while (!scratch_.empty()) {
    const std::uint32_t n = scratch_.back();
    scratch_.pop_back();
    if (sg_.observe[n] != 0) return true;  // a PO or a flop input
    for (std::uint32_t s = sg_.sink_offset[n]; s < sg_.sink_offset[n + 1];
         ++s) {
      const std::uint32_t r = sg_.sink_rank[s];
      for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1];
           ++k) {
        const std::uint32_t out = sg_.out_node[k];
        if (visited_[out] != visit_epoch_ && passable(out)) {
          visited_[out] = visit_epoch_;
          scratch_.push_back(out);
        }
      }
    }
  }
  return false;
}

std::optional<Podem::Objective> Podem::pick_objective(
    std::span<const CondLiteral> lits, const Excitation* exc) const {
  // 1. Unjustified condition literal.
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (lits[i].frame != 1) continue;
    if (value_[sg_.lit_node[i]].good == V3::X) {
      return Objective{sg_.lit_node[i], lits[i].value};
    }
  }
  if (!exc) return std::nullopt;  // pure justification: everything done

  // 2. Victim good value must oppose the forced value.
  if (value_[0].good == V3::X) return Objective{0, !exc->faulty_value};

  // 3. D-frontier: a gate with a fault effect on an input whose output
  // is still undecided; set one X input to help. Only gates the last
  // simulate_faulty swept have a differing input, in ascending rank.
  for (const std::uint32_t r : touched_) {
    const std::uint32_t begin = sg_.fanin_offset[r];
    const std::uint32_t end = sg_.fanin_offset[r + 1];
    bool has_d_input = false;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (value_[sg_.fanin_node[i]].has_fault_effect()) {
        has_d_input = true;
        break;
      }
    }
    if (!has_d_input) continue;
    bool output_undecided = false;
    for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1]; ++k) {
      const V5 ov = value_[sg_.out_node[k]];
      if (!ov.has_fault_effect() &&
          (ov.faulty == V3::X || ov.good == V3::X)) {
        output_undecided = true;
      }
    }
    if (!output_undecided) continue;
    // Choose an X input; prefer the value that exposes the effect.
    int good_idx = 0;
    int faulty_idx = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      good_idx += static_cast<int>(value_[sg_.fanin_node[i]].good) *
                  kPow3[i - begin];
      faulty_idx += static_cast<int>(value_[sg_.fanin_node[i]].faulty) *
                    kPow3[i - begin];
    }
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t in = sg_.fanin_node[i];
      if (value_[in].good != V3::X) continue;
      // Replace digit i on both sides by the candidate value.
      const int pow = kPow3[i - begin];
      const int gx = good_idx - static_cast<int>(V3::X) * pow;
      const int fx = faulty_idx - static_cast<int>(value_[in].faulty) * pow;
      for (const bool candidate : {true, false}) {
        const int c = static_cast<int>(v3_of(candidate)) * pow;
        for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1];
           ++k) {
          const auto go = static_cast<V3>(lut_[sg_.out_lut[k] + gx + c]);
          const auto fo = static_cast<V3>(lut_[sg_.out_lut[k] + fx + c]);
          if (is_definite(go) && is_definite(fo) && go != fo) {
            return Objective{in, candidate};
          }
        }
      }
      // Neither value provably propagates; still try one (search explores
      // the other on backtrack).
      return Objective{in, true};
    }
  }
  return std::nullopt;
}

std::optional<Podem::Decision> Podem::backtrace(Objective obj) const {
  std::uint32_t node = obj.node;
  bool want = obj.value;
  for (;;) {
    const std::uint32_t r = sg_.driver_rank[node];
    if (r == kSource) return Decision{node, want, false};
    if (r == kUndriven) return std::nullopt;  // dead end
    const std::uint8_t* lut = lut_.data() + sg_.out_lut[sg_.driver_out[node]];
    const int idx = good_index(r);

    // Pick an X input; choose the value most likely to produce `want`.
    const std::uint32_t begin = sg_.fanin_offset[r];
    int chosen = -1;  // position in sg_.fanin_node
    bool chosen_value = want;
    for (std::uint32_t i = begin; i < sg_.fanin_offset[r + 1] && chosen < 0;
         ++i) {
      if (value_[sg_.fanin_node[i]].good != V3::X) continue;
      const int pow = kPow3[i - begin];
      for (const bool candidate : {true, false}) {
        const V3 out = static_cast<V3>(
            lut[idx + (static_cast<int>(v3_of(candidate)) -
                       static_cast<int>(V3::X)) * pow]);
        if (out == v3_of(want) || out == V3::X) {
          chosen = static_cast<int>(i);
          chosen_value = candidate;
          if (out == v3_of(want)) break;  // exact justification preferred
        }
      }
    }
    if (chosen < 0) {
      // Every input definite yet output X is impossible; definite output
      // means the objective is already decided against us.
      return std::nullopt;
    }
    node = sg_.fanin_node[static_cast<std::uint32_t>(chosen)];
    want = chosen_value;
  }
}

void Podem::assign_source(std::uint32_t node, V3 v) {
  trail_marks_.push_back(trail_.size());
  if (value_[node].good == v) return;
  trail_.push_back({node, value_[node].good});
  value_[node] = V5{v, v};
  // Event-driven implication over a bitset worklist of ranks. Sinks
  // always outrank their drivers, so one forward scan of the bitset
  // visits every scheduled gate once, in topological order: a gate
  // scheduled while the scan runs lies ahead of it.
  std::uint64_t* pending = pending_.data();
  std::uint32_t first = 0xFFFFFFFFu;  // lowest / highest pending word
  std::uint32_t last = 0;
  const auto schedule_sinks = [&](std::uint32_t n) {
    const std::uint32_t begin = sg_.sink_offset[n];
    const std::uint32_t end = sg_.sink_offset[n + 1];
    if (begin == end) return;
    for (std::uint32_t s = begin; s < end; ++s) {
      const std::uint32_t r = sg_.sink_rank[s];
      pending[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
    // Sink rows are sorted, so their ends bound the pending words.
    first = std::min(first, sg_.sink_rank[begin] >> 6);
    last = std::max(last, sg_.sink_rank[end - 1] >> 6);
  };
  schedule_sinks(node);
  for (std::uint32_t w = first; w <= last; ++w) {
    while (pending[w] != 0) {
      const auto r = static_cast<std::uint32_t>(
          (w << 6) | static_cast<std::uint32_t>(std::countr_zero(pending[w])));
      pending[w] &= pending[w] - 1;
      const int idx = good_index(r);
      for (std::uint32_t k = sg_.out_offset[r]; k < sg_.out_offset[r + 1];
           ++k) {
        const std::uint32_t out = sg_.out_node[k];
        const auto nv = static_cast<V3>(lut_[sg_.out_lut[k] + idx]);
        if (value_[out].good != nv) {
          trail_.push_back({out, value_[out].good});
          value_[out] = V5{nv, nv};
          schedule_sinks(out);
        }
      }
    }
  }
}

void Podem::undo_last_assignment() {
  const std::size_t mark = trail_marks_.back();
  trail_marks_.pop_back();
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    value_[e.node] = V5{e.old_good, e.old_good};
    trail_.pop_back();
  }
}

Podem::Outcome Podem::search(std::span<const CondLiteral> lits,
                             const Excitation* exc, std::vector<V3>* test) {
  build_subgraph(lits, exc);
  std::vector<Decision>& stack = stack_;
  stack.clear();
  long backtracks = 0;
  trail_.clear();
  trail_marks_.clear();
  const auto emit_test = [&] {
    if (!test) return;
    test->assign(dense_.sources.size(), V3::X);
    for (const auto& [node, ordinal] : sg_.sources) {
      (*test)[ordinal] = value_[node].good;
    }
  };

  for (;;) {
    const V3 excited = excitation_state(lits);
    bool need_backtrack = false;

    if (excited == V3::Zero) {
      need_backtrack = true;  // a condition literal is definitely broken
    } else if (exc) {
      if (value_[0].good == v3_of(exc->faulty_value)) {
        need_backtrack = true;  // victim cannot oppose the forced value
      } else {
        simulate_faulty(*exc, excited);
        if (observed_) {
          emit_test();
          return Outcome::Detected;
        }
        if (!x_path_exists()) need_backtrack = true;
      }
    } else if (excited == V3::One) {
      emit_test();
      return Outcome::Detected;  // justification complete
    }

    if (!need_backtrack) {
      const auto obj = pick_objective(lits, exc);
      if (!obj) {
        need_backtrack = true;
      } else {
        const auto decision = backtrace(*obj);
        if (!decision) {
          need_backtrack = true;
        } else {
          assign_source(decision->node, v3_of(decision->value));
          stack.push_back(*decision);
          continue;
        }
      }
    }

    // Backtrack: flip the deepest unflipped decision.
    ++total_backtracks_;
    if (++backtracks > config_.backtrack_limit) return Outcome::Aborted;
    if ((backtracks & 63) == 0 && cancel_expired(config_.cancel)) {
      return Outcome::Aborted;
    }
    while (!stack.empty() && stack.back().flipped) {
      undo_last_assignment();
      stack.pop_back();
    }
    if (stack.empty()) return Outcome::Undetectable;
    undo_last_assignment();
    stack.back().flipped = true;
    stack.back().value = !stack.back().value;
    assign_source(stack.back().node, v3_of(stack.back().value));
  }
}

Podem::Outcome Podem::detect(const Excitation& excitation,
                             std::vector<V3>* test) {
  return search(excitation.lits, &excitation, test);
}

Podem::Outcome Podem::justify(std::span<const CondLiteral> lits,
                              std::vector<V3>* test) {
  // The engine justifies frame-0 cubes as an independent single-frame
  // problem; normalize the literals so the search sees all of them.
  std::vector<CondLiteral> frame1(lits.begin(), lits.end());
  for (CondLiteral& lit : frame1) lit.frame = 1;
  return search(frame1, nullptr, test);
}

}  // namespace dfmres
