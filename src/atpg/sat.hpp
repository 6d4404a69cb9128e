#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/atpg/excitation.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/values.hpp"
#include "src/netlist/dense_view.hpp"
#include "src/util/cancel.hpp"

namespace dfmres {

/// Conflict-driven clause-learning SAT solver after MiniSat (Eén &
/// Sörensson, SAT 2003): two watched literals with blockers, first-UIP
/// learning with clause minimization, VSIDS decisions with phase saving
/// and Luby restarts. Learnt clauses are kept for the whole solve: ATPG
/// miters learn a few hundred at most. Every choice is a pure function
/// of the clause list (ties break by variable index; no randomness, no
/// time-based heuristics), so a solve is reproducible bit for bit. All
/// storage is reused across reset().
class SatSolver {
 public:
  /// Literal: 2 * variable + (1 if negated).
  using Lit = std::uint32_t;
  [[nodiscard]] static constexpr Lit lit(std::uint32_t var, bool value) {
    return 2 * var + (value ? 0u : 1u);
  }

  enum class Result { Sat, Unsat, Cancelled };

  /// Empties the clause database and sizes the solver for `num_vars`.
  void reset(std::uint32_t num_vars);
  /// Adds a clause (duplicates and tautologies are normalized away).
  /// Returns false once the formula is trivially unsatisfiable.
  bool add_clause(std::span<const Lit> lits);
  /// Solves; `cancel` is polled every 256 conflicts and at each restart.
  [[nodiscard]] Result solve(const CancelToken* cancel);
  /// Value of `var` in the model of the last Sat result.
  [[nodiscard]] bool model(std::uint32_t var) const {
    return assign_[var] == 1;
  }
  /// Conflicts of the last solve.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

 private:
  /// No reason clause (decision or unit), or not in the order heap.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::uint8_t kUndef = 2;
  struct Watcher {
    std::uint32_t cref;
    Lit blocker;
  };

  [[nodiscard]] std::uint8_t value(Lit l) const {
    const std::uint8_t a = assign_[l >> 1];
    return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l & 1u));
  }
  // Clause layout in arena_: [size, lits...].
  [[nodiscard]] std::uint32_t size_of(std::uint32_t c) const {
    return arena_[c];
  }
  [[nodiscard]] Lit* lits_of(std::uint32_t c) { return &arena_[c + 1]; }
  std::uint32_t alloc(std::span<const Lit> lits);
  void watch(std::uint32_t c);
  void enqueue(Lit l, std::uint32_t reason);
  [[nodiscard]] std::uint32_t propagate();
  void analyze(std::uint32_t conflict, std::uint32_t* backtrack_level);
  void cancel_until(std::uint32_t level);
  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  void bump_var(std::uint32_t v);
  // VSIDS order heap (max activity first, lower index on ties).
  [[nodiscard]] bool heap_before(std::uint32_t a, std::uint32_t b) const {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(std::uint32_t v);
  void heap_up(std::uint32_t pos);
  void heap_down(std::uint32_t pos);
  std::uint32_t heap_pop();

  std::uint32_t num_vars_ = 0;
  bool ok_ = true;
  std::vector<std::uint32_t> arena_;
  std::vector<std::vector<Watcher>> watches_;  // per literal
  std::vector<std::uint8_t> assign_, polarity_, seen_;
  std::vector<std::uint32_t> level_, reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint32_t> heap_, heap_pos_;
  std::vector<Lit> learnt_, clause_;
  std::uint64_t conflicts_ = 0;
};

/// SAT back end of the ATPG engine (Larrabee, "Test Pattern Generation
/// Using Boolean Satisfiability", IEEE TCAD 1992). Encodes the subgraph
/// PODEM built for a search (Podem::graph()) as CNF and solves it to a
/// verdict with no budget:
///
/// - detect: a good copy of every node, a faulty copy of the victim's
///   cone with the victim forced to `faulty_value`, the frame-1 literals
///   and good(victim) = !faulty_value as units, a difference variable
///   per cone node, and "some observed cone node differs". D-chain
///   clauses require a difference on an unobserved cone node to reach
///   one of its sink outputs.
/// - justify: the good copy and the literals as units.
///
/// Cells are encoded from prime-implicant CNF templates computed once
/// per cell function. Undriven nodes are constant 0, as in the fault
/// simulator. A model is the test (sources outside the subgraph stay X);
/// UNSAT is a proof; only an expired cancel token yields Aborted.
class SatAtpg {
 public:
  explicit SatAtpg(const DenseView& dense) : dense_(dense) {}

  Podem::Outcome detect(const SearchGraph& graph, const Excitation& exc,
                        std::vector<V3>* test, const CancelToken* cancel);
  Podem::Outcome justify(const SearchGraph& graph,
                         std::span<const CondLiteral> lits,
                         std::vector<V3>* test, const CancelToken* cancel);

  /// Conflicts of the last detect/justify call.
  [[nodiscard]] std::uint64_t conflicts() const {
    return solver_.conflicts();
  }

 private:
  /// Prime-implicant CNF of one cell output: clause i is
  /// codes[offset[i], offset[i+1]), a code being 2 * pin + negated with
  /// pin == num_inputs naming the output.
  struct CellCnf {
    std::vector<std::uint8_t> codes;
    std::vector<std::uint16_t> offset;
  };
  static const CellCnf& cnf_of(const CellSpec& cell, int output);

  /// Good-copy clauses of every rank (and constant-0 undriven nodes).
  void encode_good(const SearchGraph& graph);
  /// Clauses of rank `r` over the literals `lit_of(node)` of its nodes.
  template <typename LitOf>
  void encode_rank(const SearchGraph& graph, std::uint32_t r,
                   const LitOf& lit_of);
  void encode_gate(const CellCnf& cnf, std::span<const SatSolver::Lit> ins,
                   SatSolver::Lit out);
  const CellCnf& cnf_at(const SearchGraph& graph, std::uint32_t rank,
                        std::uint32_t k);
  Podem::Outcome finish(const SearchGraph& graph, std::vector<V3>* test,
                        const CancelToken* cancel);

  const DenseView& dense_;
  SatSolver solver_;
  std::vector<const CellCnf*> out_cnf_;  // per DenseView output slot
  std::vector<SatSolver::Lit> ins_, clause_;
};

}  // namespace dfmres
