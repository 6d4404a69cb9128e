#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/atpg/excitation.hpp"
#include "src/atpg/values.hpp"
#include "src/netlist/dense_view.hpp"
#include "src/util/cancel.hpp"

namespace dfmres {

/// The compact subgraph one search runs on, built from the DenseView by
/// Podem::build_subgraph. Nodes are the nets the search can ever read:
/// the victim's fanout cone (outputs and side inputs), the condition
/// literals, and their backward closure over combinational drivers. The
/// victim is node 0, and nodes [0, cone_nodes) are the victim plus the
/// outputs of its cone gates. Ranks order the gates driving nodes by
/// topological position, so every sink outranks its drivers.
struct SearchGraph {
  /// driver_rank markers for nodes no relevant gate drives.
  static constexpr std::uint32_t kSource = 0xFFFFFFFEu;
  static constexpr std::uint32_t kUndriven = 0xFFFFFFFFu;

  // Per rank: fanin nodes and output nodes (with their LUT offsets) as
  // CSR rows. Per node: its net slot, sink ranks (CSR), the driving rank
  // and output (or kSource / kUndriven), and observability.
  std::vector<std::uint32_t> nodes;  // node -> net slot
  std::vector<std::uint32_t> gates;  // rank -> gate slot
  std::vector<std::uint32_t> fanin_offset, fanin_node;
  std::vector<std::uint32_t> out_offset, out_node, out_lut;
  std::vector<std::uint32_t> sink_offset, sink_rank;
  std::vector<std::uint32_t> driver_rank, driver_out;
  std::vector<std::uint8_t> observe;
  // (node, source ordinal) of every source node.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sources;
  std::vector<std::uint32_t> lit_node;    // parallel to the literals
  std::vector<std::uint32_t> cone_ranks;  // victim cone, ascending
  std::uint32_t cone_nodes = 0;           // 0 for a justification
};

/// PODEM test generator over the combinational (full-scan) view.
///
/// Handles every fault model through condition cubes: the engine
/// justifies the excitation literals on the good machine, forces the
/// victim to its faulty value, and propagates the composite D value to an
/// observation point, branching only on sources (PIs and flop outputs).
/// The search is complete: exhausting it proves undetectability (the
/// paper's U set); hitting the backtrack limit yields Aborted, which the
/// engine hands to the SAT miter (src/atpg/sat.hpp) for a verdict.
///
/// Each search runs on a compact SearchGraph built once from the
/// DenseView: the nets it can read get dense local ids ("nodes"), the
/// gates that compute them get local ids in topological order ("ranks"),
/// and every hot loop walks local CSR rows.
class Podem {
 public:
  struct Config {
    long backtrack_limit = 50000;
    /// Cooperative cancellation, polled every 64 backtracks inside the
    /// search loop; an expired token yields Outcome::Aborted (never
    /// Undetectable — a cut-short search proves nothing).
    const CancelToken* cancel = nullptr;
  };

  enum class Outcome { Detected, Undetectable, Aborted };

  /// `dense` is borrowed and must outlive the generator.
  Podem(const DenseView& dense, Config config);

  /// Attempts to detect one excitation (frame-1 literals only; frame-0
  /// literals are a separate justify() call). On success `*test`
  /// receives one V3 per source (X = free).
  Outcome detect(const Excitation& excitation, std::vector<V3>* test);

  /// Justifies a set of (frame-agnostic) literals with no propagation
  /// requirement; used for the initializing pattern of two-frame faults.
  Outcome justify(std::span<const CondLiteral> lits, std::vector<V3>* test);

  /// The subgraph of the last detect/justify call; valid until the next
  /// one (the SAT back end encodes the same subgraph after an abort).
  [[nodiscard]] const SearchGraph& graph() const { return sg_; }

  /// Total backtracks across every detect/justify call on this instance
  /// (instrumentation for AtpgCounters).
  [[nodiscard]] std::uint64_t total_backtracks() const {
    return total_backtracks_;
  }

 private:
  struct Objective {
    std::uint32_t node;
    bool value;
  };
  struct Decision {
    std::uint32_t node;  // a source node
    bool value;
    bool flipped;
  };

  Outcome search(std::span<const CondLiteral> lits, const Excitation* exc,
                 std::vector<V3>* test);

  /// Builds the subgraph of one search (see SearchGraph) and simulates it
  /// with every source at X.
  void build_subgraph(std::span<const CondLiteral> lits,
                      const Excitation* exc);
  /// Offset of gate slot `g`'s ternary LUT block in lut_ (built on first
  /// use per cell).
  std::uint32_t lut_of(std::uint32_t g);
  /// Base-3 LUT index of rank `r`'s good fanin values.
  [[nodiscard]] int good_index(std::uint32_t r) const;
  /// Sets a source node and propagates the change through its sinks in
  /// rank order, recording an undo trail.
  void assign_source(std::uint32_t node, V3 v);
  void undo_last_assignment();
  /// Propagates the victim's faulty value through its cone and records
  /// whether a fault effect reached an observation point in observed_.
  void simulate_faulty(const Excitation& exc, V3 excited);
  /// All literals hold / definitely broken / undecided on good values.
  [[nodiscard]] V3 excitation_state(std::span<const CondLiteral> lits) const;
  [[nodiscard]] bool x_path_exists();
  [[nodiscard]] std::optional<Objective> pick_objective(
      std::span<const CondLiteral> lits, const Excitation* exc) const;
  /// Maps an objective to a source assignment, or nullopt on dead end.
  [[nodiscard]] std::optional<Decision> backtrace(Objective obj) const;

  const DenseView& dense_;
  Config config_;

  // Ternary LUTs, one block per cell: output k of a cell with n inputs
  // lives at block + k * 3^n, indexed by the base-3 encoding of the input
  // values (0, 1, X).
  std::vector<std::uint8_t> lut_;
  std::vector<std::pair<const CellSpec*, std::uint32_t>> lut_cells_;
  std::vector<std::uint32_t> gate_lut_;  // gate slot -> block, or kNoLut

  // Slot -> local id maps of the current search (epoch-stamped).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> net_stamp_, net_node_;
  std::vector<std::uint32_t> gate_stamp_, gate_rank_;

  SearchGraph sg_;

  // Per node. A faulty value differs from the good one only at the nodes
  // in diff_nodes_, which the last simulate_faulty call set; assignments
  // and undo write both halves.
  std::vector<V5> value_;
  std::vector<std::uint32_t> diff_nodes_;
  std::vector<std::uint32_t> touched_;  // cone ranks simulate_faulty swept
  std::vector<std::uint8_t> dirty_;     // per rank, simulate_faulty marks
  std::vector<std::uint64_t> pending_;  // assign_source worklist bitset
  std::vector<std::uint32_t> visited_;  // per node, x_path_exists stamps
  std::uint32_t visit_epoch_ = 0;
  std::vector<std::uint32_t> scratch_;
  bool observed_ = false;  // set by simulate_faulty
  std::vector<Decision> stack_;  // decision stack, reused across searches
  struct TrailEntry {
    std::uint32_t node;
    V3 old_good;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> trail_marks_;
  std::uint64_t total_backtracks_ = 0;
};

}  // namespace dfmres
