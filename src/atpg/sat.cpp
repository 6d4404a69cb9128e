#include "src/atpg/sat.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace dfmres {

namespace {

/// Value x of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ...
double luby(int x) {
  int size = 1;
  int seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return std::ldexp(1.0, seq);
}

constexpr double kRestartConflicts = 100;  // Luby unit
constexpr double kVarDecay = 0.95;
constexpr SatSolver::Lit kNoLit = 0xFFFFFFFFu;

}  // namespace

// ---- solver -----------------------------------------------------------

void SatSolver::reset(std::uint32_t num_vars) {
  num_vars_ = num_vars;
  ok_ = true;
  arena_.clear();
  if (watches_.size() < 2 * std::size_t{num_vars}) {
    watches_.resize(2 * std::size_t{num_vars});
  }
  for (std::size_t l = 0; l < 2 * std::size_t{num_vars}; ++l) {
    watches_[l].clear();
  }
  assign_.assign(num_vars, kUndef);
  polarity_.assign(num_vars, 0);
  seen_.assign(num_vars, 0);
  level_.assign(num_vars, 0);
  reason_.assign(num_vars, kNone);
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.assign(num_vars, 0.0);
  var_inc_ = 1.0;
  // Equal activities: index order is already a valid heap.
  heap_.resize(num_vars);
  heap_pos_.resize(num_vars);
  for (std::uint32_t v = 0; v < num_vars; ++v) heap_[v] = heap_pos_[v] = v;
  conflicts_ = 0;
}

std::uint32_t SatSolver::alloc(std::span<const Lit> lits) {
  const auto c = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(static_cast<std::uint32_t>(lits.size()));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return c;
}

void SatSolver::watch(std::uint32_t c) {
  const Lit* lits = lits_of(c);
  watches_[lits[0]].push_back({c, lits[1]});
  watches_[lits[1]].push_back({c, lits[0]});
}

bool SatSolver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  clause_.assign(lits.begin(), lits.end());
  std::sort(clause_.begin(), clause_.end());
  std::size_t n = 0;
  Lit prev = kNoLit;
  for (const Lit l : clause_) {
    const std::uint8_t v = value(l);
    if (v == 1 || l == (prev ^ 1u)) return true;  // satisfied / tautology
    if (v == 0 || l == prev) continue;            // false at level 0 / dup
    clause_[n++] = prev = l;
  }
  clause_.resize(n);
  if (n == 0) return ok_ = false;
  if (n == 1) {
    enqueue(clause_[0], kNone);
    return true;
  }
  watch(alloc(clause_));
  return true;
}

void SatSolver::enqueue(Lit l, std::uint32_t reason) {
  const std::uint32_t v = l >> 1;
  assign_[v] = static_cast<std::uint8_t>((l & 1u) ^ 1u);
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

std::uint32_t SatSolver::propagate() {
  std::uint32_t conflict = kNone;
  while (qhead_ < trail_.size()) {
    const Lit false_lit = trail_[qhead_++] ^ 1u;
    std::vector<Watcher>& ws = watches_[false_lit];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Lit blocker = i->blocker;
      if (value(blocker) == 1) {
        *j++ = *i++;
        continue;
      }
      const std::uint32_t c = i->cref;
      Lit* lits = lits_of(c);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      ++i;
      const Lit first = lits[0];
      const Watcher w{c, first};
      if (first != blocker && value(first) == 1) {
        *j++ = w;
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2, n = size_of(c); k < n; ++k) {
        if (value(lits[k]) != 0) {
          lits[1] = lits[k];
          lits[k] = false_lit;
          watches_[lits[1]].push_back(w);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      *j++ = w;
      if (value(first) == 0) {
        conflict = c;
        qhead_ = trail_.size();
        while (i != end) *j++ = *i++;
      } else {
        enqueue(first, c);
      }
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return conflict;
}

void SatSolver::bump_var(std::uint32_t v) {
  if ((activity_[v] += var_inc_) > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] != kNone) heap_up(heap_pos_[v]);
}

void SatSolver::analyze(std::uint32_t conflict,
                        std::uint32_t* backtrack_level) {
  learnt_.clear();
  learnt_.push_back(kNoLit);  // the asserting literal, filled in below
  int path = 0;
  Lit p = kNoLit;
  std::size_t index = trail_.size();
  do {
    const Lit* lits = lits_of(conflict);
    // A reason clause holds its implied literal p at position 0.
    for (std::uint32_t k = p == kNoLit ? 0 : 1, n = size_of(conflict); k < n;
         ++k) {
      const std::uint32_t v = lits[k] >> 1;
      if (seen_[v] || level_[v] == 0) continue;
      bump_var(v);
      seen_[v] = 1;
      if (level_[v] >= decision_level()) {
        ++path;
      } else {
        learnt_.push_back(lits[k]);
      }
    }
    while (!seen_[trail_[--index] >> 1]) {
    }
    p = trail_[index];
    conflict = reason_[p >> 1];
    seen_[p >> 1] = 0;
    --path;
  } while (path > 0);
  learnt_[0] = p ^ 1u;

  // Minimization: drop a literal whose reason's other literals are all in
  // the clause already (or fixed at level 0).
  clause_.assign(learnt_.begin(), learnt_.end());  // seen_ marks to clear
  std::size_t n = 1;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    const std::uint32_t r = reason_[learnt_[i] >> 1];
    bool keep = r == kNone;
    if (!keep) {
      const Lit* lits = lits_of(r);
      for (std::uint32_t k = 1, m = size_of(r); k < m; ++k) {
        const std::uint32_t u = lits[k] >> 1;
        if (!seen_[u] && level_[u] > 0) {
          keep = true;
          break;
        }
      }
    }
    if (keep) learnt_[n++] = learnt_[i];
  }
  learnt_.resize(n);
  for (const Lit l : clause_) seen_[l >> 1] = 0;

  *backtrack_level = 0;
  if (learnt_.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt_.size(); ++i) {
      if (level_[learnt_[i] >> 1] > level_[learnt_[max_i] >> 1]) max_i = i;
    }
    std::swap(learnt_[1], learnt_[max_i]);
    *backtrack_level = level_[learnt_[1] >> 1];
  }
}

void SatSolver::cancel_until(std::uint32_t level) {
  if (decision_level() <= level) return;
  for (std::size_t c = trail_.size(); c-- > trail_lim_[level];) {
    const std::uint32_t v = trail_[c] >> 1;
    polarity_[v] = assign_[v];  // phase saving
    assign_[v] = kUndef;
    if (heap_pos_[v] == kNone) heap_insert(v);
  }
  qhead_ = trail_lim_[level];
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
}

SatSolver::Result SatSolver::solve(const CancelToken* cancel) {
  conflicts_ = 0;
  // An expired token wins even over a level-0 refutation: a cancelled
  // solve reports nothing.
  if (cancel_expired(cancel)) return Result::Cancelled;
  if (!ok_ || propagate() != kNone) return Result::Unsat;
  for (int restart = 0;; ++restart) {
    if (restart > 0 && cancel_expired(cancel)) return Result::Cancelled;
    const auto budget =
        static_cast<std::uint64_t>(luby(restart) * kRestartConflicts);
    for (std::uint64_t local = 0;;) {
      const std::uint32_t conflict = propagate();
      if (conflict != kNone) {
        ++conflicts_;
        ++local;
        if (decision_level() == 0) return Result::Unsat;
        std::uint32_t level = 0;
        analyze(conflict, &level);
        cancel_until(level);
        if (learnt_.size() == 1) {
          enqueue(learnt_[0], kNone);
        } else {
          const std::uint32_t c = alloc(learnt_);
          watch(c);
          enqueue(learnt_[0], c);
        }
        var_inc_ /= kVarDecay;
        if ((conflicts_ & 255) == 0 && cancel_expired(cancel)) {
          return Result::Cancelled;
        }
        continue;
      }
      if (local >= budget) break;
      Lit next = kNoLit;
      while (!heap_.empty()) {
        const std::uint32_t v = heap_pop();
        if (assign_[v] == kUndef) {
          next = lit(v, polarity_[v] == 1);
          break;
        }
      }
      if (next == kNoLit) return Result::Sat;
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(next, kNone);
    }
    cancel_until(0);
  }
}

void SatSolver::heap_insert(std::uint32_t v) {
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

void SatSolver::heap_up(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 1;
    if (!heap_before(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

void SatSolver::heap_down(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(heap_[child + 1], heap_[child])) ++child;
    if (!heap_before(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

std::uint32_t SatSolver::heap_pop() {
  const std::uint32_t v = heap_[0];
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  heap_pos_[v] = kNone;
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_down(0);
  }
  return v;
}

// ---- miter encoder ----------------------------------------------------

namespace {

using Lit = SatSolver::Lit;

Lit pos_lit(std::uint32_t var) { return SatSolver::lit(var, true); }

}  // namespace

const SatAtpg::CellCnf& SatAtpg::cnf_of(const CellSpec& cell, int output) {
  // Keyed by the function, not the CellSpec address (a later library may
  // reuse it), and shared by every engine in the process.
  static std::mutex mutex;
  static std::map<std::pair<std::uint64_t, int>, CellCnf> cache;
  const int n = cell.num_inputs;
  const std::uint32_t rows = 1u << n;
  const std::uint64_t valid = n == 6 ? ~0ull : (1ull << rows) - 1;
  const std::uint64_t truth = cell.truth(output) & valid;
  const std::lock_guard lock(mutex);
  const auto [it, inserted] = cache.try_emplace({truth, n});
  if (!inserted) return it->second;
  CellCnf& cnf = it->second;
  cnf.offset.push_back(0);
  // A cube is (care mask m, values v within m). Every prime implicant P
  // of the on-set gives the clause !P | y, and every prime implicant of
  // the off-set the clause !P | !y.
  std::vector<std::uint8_t> implicant(std::size_t{rows} * rows);
  for (const bool on : {true, false}) {
    const std::uint64_t target = on ? truth : ~truth & valid;
    for (std::uint32_t m = 0; m < rows; ++m) {
      for (std::uint32_t v = 0; v < rows; ++v) {
        if ((v & ~m) != 0) continue;
        bool all = true;
        for (std::uint32_t x = 0; x < rows && all; ++x) {
          if ((x & m) == v) all = ((target >> x) & 1u) != 0;
        }
        implicant[m * rows + v] = all ? 1 : 0;
      }
    }
    for (std::uint32_t m = 0; m < rows; ++m) {
      for (std::uint32_t v = 0; v < rows; ++v) {
        if ((v & ~m) != 0 || !implicant[m * rows + v]) continue;
        bool prime = true;
        for (std::uint32_t b = m; b != 0 && prime; b &= b - 1) {
          const std::uint32_t bit = b & (~b + 1);
          prime = !implicant[(m & ~bit) * rows + (v & ~bit)];
        }
        if (!prime) continue;
        for (int pin = 0; pin < n; ++pin) {
          if ((m >> pin) & 1u) {
            cnf.codes.push_back(
                static_cast<std::uint8_t>(2 * pin + ((v >> pin) & 1u)));
          }
        }
        cnf.codes.push_back(static_cast<std::uint8_t>(2 * n + (on ? 0 : 1)));
        cnf.offset.push_back(static_cast<std::uint16_t>(cnf.codes.size()));
      }
    }
  }
  return cnf;
}

const SatAtpg::CellCnf& SatAtpg::cnf_at(const SearchGraph& graph,
                                        std::uint32_t rank, std::uint32_t k) {
  if (out_cnf_.empty()) out_cnf_.assign(dense_.output_net.size(), nullptr);
  const std::uint32_t g = graph.gates[rank];
  const CellCnf*& slot = out_cnf_[dense_.output_offset[g] + k];
  if (slot == nullptr) slot = &cnf_of(*dense_.cell[g], static_cast<int>(k));
  return *slot;
}

void SatAtpg::encode_gate(const CellCnf& cnf, std::span<const Lit> ins,
                          Lit out) {
  for (std::size_t c = 0; c + 1 < cnf.offset.size(); ++c) {
    clause_.clear();
    for (std::uint32_t i = cnf.offset[c]; i < cnf.offset[c + 1]; ++i) {
      const std::uint32_t pin = cnf.codes[i] >> 1;
      clause_.push_back((pin < ins.size() ? ins[pin] : out) ^
                        (cnf.codes[i] & 1u));
    }
    solver_.add_clause(clause_);
  }
}

template <typename LitOf>
void SatAtpg::encode_rank(const SearchGraph& graph, std::uint32_t r,
                          const LitOf& lit_of) {
  ins_.clear();
  for (std::uint32_t i = graph.fanin_offset[r]; i < graph.fanin_offset[r + 1];
       ++i) {
    ins_.push_back(lit_of(graph.fanin_node[i]));
  }
  for (std::uint32_t k = graph.out_offset[r]; k < graph.out_offset[r + 1];
       ++k) {
    encode_gate(cnf_at(graph, r, k - graph.out_offset[r]), ins_,
                lit_of(graph.out_node[k]));
  }
}

void SatAtpg::encode_good(const SearchGraph& graph) {
  // Variable n is node n's good value.
  const auto num_ranks = static_cast<std::uint32_t>(graph.gates.size());
  for (std::uint32_t r = 0; r < num_ranks; ++r) encode_rank(graph, r, pos_lit);
  for (std::uint32_t n = 0; n < graph.nodes.size(); ++n) {
    if (graph.driver_rank[n] == SearchGraph::kUndriven) {
      const Lit unit = SatSolver::lit(n, false);
      solver_.add_clause({&unit, 1});
    }
  }
}

Podem::Outcome SatAtpg::detect(const SearchGraph& graph,
                               const Excitation& exc, std::vector<V3>* test,
                               const CancelToken* cancel) {
  // Variables: good values 0..N-1, then the faulty value of each cone
  // node (N + n) and whether the node lies on the propagation path
  // (N + C + n).
  const auto num_nodes = static_cast<std::uint32_t>(graph.nodes.size());
  const std::uint32_t cone = graph.cone_nodes;
  solver_.reset(num_nodes + 2 * cone);
  encode_good(graph);
  const auto faulty = [&](std::uint32_t n) {
    return pos_lit(n < cone ? num_nodes + n : n);
  };
  const auto path = [&](std::uint32_t n) {
    return pos_lit(num_nodes + cone + n);
  };
  for (const std::uint32_t r : graph.cone_ranks) encode_rank(graph, r, faulty);
  const auto unit = [&](Lit l) { solver_.add_clause({&l, 1}); };
  const auto clause = [&](std::initializer_list<Lit> lits) {
    solver_.add_clause({lits.begin(), lits.size()});
  };
  unit(SatSolver::lit(num_nodes, exc.faulty_value));  // faulty(victim)
  unit(SatSolver::lit(0, !exc.faulty_value));         // good(victim)
  for (std::size_t i = 0; i < exc.lits.size(); ++i) {
    if (exc.lits[i].frame != 1) continue;  // frame 0 is justified apart
    unit(SatSolver::lit(graph.lit_node[i], exc.lits[i].value));
  }
  // D-chain (Larrabee's active-path clauses): the victim is on the path,
  // a node on the path carries a fault effect, and the path goes on from
  // every unobserved node through an output of one of its sinks (all of
  // them cone gates, so every such output is a cone node). Any detecting
  // assignment has such a path: trace a differing observed node back
  // through differing fanins to the victim.
  unit(path(0));
  for (std::uint32_t n = 0; n < cone; ++n) {
    const Lit a = path(n) ^ 1u;
    const Lit g = pos_lit(n);
    const Lit f = faulty(n);
    clause({a, g, f});
    clause({a, g ^ 1u, f ^ 1u});
    if (graph.observe[n] != 0) continue;
    clause_.assign(1, a);
    for (std::uint32_t s = graph.sink_offset[n]; s < graph.sink_offset[n + 1];
         ++s) {
      const std::uint32_t r = graph.sink_rank[s];
      for (std::uint32_t k = graph.out_offset[r]; k < graph.out_offset[r + 1];
           ++k) {
        clause_.push_back(path(graph.out_node[k]));
      }
    }
    solver_.add_clause(clause_);
  }
  return finish(graph, test, cancel);
}

Podem::Outcome SatAtpg::justify(const SearchGraph& graph,
                                std::span<const CondLiteral> lits,
                                std::vector<V3>* test,
                                const CancelToken* cancel) {
  solver_.reset(static_cast<std::uint32_t>(graph.nodes.size()));
  encode_good(graph);
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit unit = SatSolver::lit(graph.lit_node[i], lits[i].value);
    solver_.add_clause({&unit, 1});
  }
  return finish(graph, test, cancel);
}

Podem::Outcome SatAtpg::finish(const SearchGraph& graph,
                               std::vector<V3>* test,
                               const CancelToken* cancel) {
  switch (solver_.solve(cancel)) {
    case SatSolver::Result::Unsat: return Podem::Outcome::Undetectable;
    case SatSolver::Result::Cancelled: return Podem::Outcome::Aborted;
    case SatSolver::Result::Sat: break;
  }
  if (test != nullptr) {
    test->assign(dense_.sources.size(), V3::X);
    for (const auto& [node, ordinal] : graph.sources) {
      (*test)[ordinal] = v3_of(solver_.model(node));
    }
  }
  return Podem::Outcome::Detected;
}

}  // namespace dfmres
