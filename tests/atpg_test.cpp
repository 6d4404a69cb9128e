#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "src/atpg/engine.hpp"
#include "src/atpg/excitation.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/sat.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/dfm/checker.hpp"
#include "src/library/osu018.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/sim/simd_dispatch.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

std::shared_ptr<const Library> lib() {
  static auto l = osu018_library();
  return l;
}

struct Fixture {
  Netlist nl{lib(), "atpg"};

  GateId add(const char* cell, std::initializer_list<NetId> ins) {
    std::vector<NetId> fanins(ins);
    return nl.add_gate(lib()->require(cell), fanins);
  }
  NetId out(GateId g, int k = 0) { return nl.gate(g).outputs[k]; }
};

TEST(Excitations, StuckAtHasNoConditions) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const GateId inv = f.add("INVX1", {a});
  f.nl.mark_primary_output(f.out(inv));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::StuckAt;
  fault.victim = f.out(inv);
  fault.value = true;
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  EXPECT_TRUE(exc[0].lits.empty());
  EXPECT_EQ(exc[0].victim, f.out(inv));
  EXPECT_TRUE(exc[0].faulty_value);
}

TEST(Excitations, TransitionCarriesFrame0Literal) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const GateId inv = f.add("INVX1", {a});
  f.nl.mark_primary_output(f.out(inv));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::Transition;
  fault.victim = f.out(inv);
  fault.value = false;  // slow-to-rise
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  ASSERT_EQ(exc[0].lits.size(), 1u);
  EXPECT_EQ(exc[0].lits[0].frame, 0);
  EXPECT_EQ(exc[0].lits[0].net, f.out(inv));
  EXPECT_FALSE(exc[0].lits[0].value);
}

TEST(Excitations, BridgeConditionsOnAggressor) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g1 = f.add("INVX1", {a});
  const GateId g2 = f.add("INVX1", {b});
  f.nl.mark_primary_output(f.out(g1));
  f.nl.mark_primary_output(f.out(g2));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::Bridge;
  fault.victim = f.out(g1);
  fault.aggressor = f.out(g2);
  fault.bridge_type = BridgeType::DomAnd;
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  ASSERT_EQ(exc[0].lits.size(), 1u);
  EXPECT_EQ(exc[0].lits[0].net, f.out(g2));
  EXPECT_FALSE(exc[0].lits[0].value);  // wired-AND: aggressor low dominates
  EXPECT_FALSE(exc[0].faulty_value);
}

TEST(Podem, DetectsSimpleStuckAt) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("AND2X2", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  const DenseView dense = DenseView::build(f.nl, view);
  Podem podem(dense, {1000});
  Excitation exc;
  exc.victim = f.out(g);
  exc.faulty_value = false;  // output SA0: need a=b=1
  std::vector<V3> test;
  ASSERT_EQ(podem.detect(exc, &test), Podem::Outcome::Detected);
  EXPECT_EQ(test[0], V3::One);
  EXPECT_EQ(test[1], V3::One);
}

TEST(Podem, ProvesRedundantFaultUndetectable) {
  // y = (a & b) | (a & !b): fault "second AND output SA0" is detectable,
  // but SA1 on the OR output is undetectable when a=1 (always 1)? Build
  // the classic: out = or(and(a,b), and(a,!b)) == a. SA1 on `out` needs
  // out=0 -> a=0 ok; SA0 needs out=1 -> a=1 ok; both detectable. The
  // undetectable one: SA0 on and(a,b) propagates only when and(a,!b)=0
  // and flips out: a=1,b=1 -> other term 0, out flips: detectable too!
  // A genuinely undetectable case: SA1 on and(a,b) requires b=0 for
  // propagation (other term a&!b = a); with a=1,b=0 the faulty OR sees
  // (1,1) vs good (0,1): masked. With a=0: excitation needs and=0 ok but
  // propagation blocked (other term 0, out 0 both ways? faulty or = 1!).
  // Actually a=0,b=*: good and=0, faulty and=1 -> out good=0, faulty=1:
  // detected. So craft real redundancy instead: out = a | (a & b).
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId and_g = f.add("AND2X2", {a, b});
  const GateId or_g = f.add("OR2X2", {a, f.out(and_g)});
  f.nl.mark_primary_output(f.out(or_g));
  const CombView view = CombView::build(f.nl);
  const DenseView dense = DenseView::build(f.nl, view);
  Podem podem(dense, {10000});
  // SA1 on the AND output: flips out only when a=0 -> but then faulty
  // out=1 ... wait good out=a; faulty out = a|1 = 1; at a=0 differs ->
  // detectable. SA0 on the AND output: faulty out = a|0 = a == good for
  // all inputs: undetectable (classic absorbed term).
  Excitation exc;
  exc.victim = f.out(and_g);
  exc.faulty_value = false;
  EXPECT_EQ(podem.detect(exc, nullptr), Podem::Outcome::Undetectable);
  // And its SA1 counterpart is detectable.
  exc.faulty_value = true;
  EXPECT_EQ(podem.detect(exc, nullptr), Podem::Outcome::Detected);
}

TEST(Podem, JustifyConditions) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("NAND2X1", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  const DenseView dense = DenseView::build(f.nl, view);
  Podem podem(dense, {1000});
  const CondLiteral want_zero[] = {{f.out(g), false, 0}};
  std::vector<V3> test;
  ASSERT_EQ(podem.justify(want_zero, &test), Podem::Outcome::Detected);
  EXPECT_EQ(test[0], V3::One);
  EXPECT_EQ(test[1], V3::One);
  // NAND output = 0 AND input a = 0 simultaneously: impossible.
  const CondLiteral impossible[] = {{f.out(g), false, 0}, {a, false, 0}};
  EXPECT_EQ(podem.justify(impossible, nullptr),
            Podem::Outcome::Undetectable);
}

/// PODEM vs an independent oracle on random circuits with multi-output
/// cells: for stuck-at faults and for faults conditioned on frame-1
/// literals (bridge- and cell-aware-style aggressor conditions), PODEM's
/// verdict must match exhaustive enumeration of all 2^5 source
/// assignments, and every test it returns must detect the fault under
/// every completion of its X bits. The oracle is a scalar two-machine
/// evaluator written here: it shares no code with the ATPG engine or the
/// fault simulators and calls eval_cell_v3 on definite values only.
class PodemExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(PodemExhaustive, AgreesWithBruteForce) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  Fixture f;
  const int num_inputs = 5;
  std::vector<NetId> nets;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(f.nl.add_primary_input());
  }
  const char* kCells[] = {"INVX1",  "NAND2X1", "NOR2X1",  "AND2X2",
                          "OR2X2",  "XOR2X1",  "AOI21X1", "OAI21X1",
                          "FAX1",   "HAX1"};
  std::vector<GateId> gates;  // creation order is topological
  for (int i = 0; i < 25; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(std::size(kCells))]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 10))]);
    }
    gates.push_back(f.nl.add_gate(cell, fanins));
    for (const NetId out : f.nl.gate(gates.back()).outputs) nets.push_back(out);
  }
  for (int i = 0; i < 4; ++i) {
    f.nl.mark_primary_output(nets[nets.size() - 1 - rng.below(6)]);
  }

  const CombView view = CombView::build(f.nl);
  ASSERT_EQ(view.sources.size(), static_cast<std::size_t>(num_inputs));
  const DenseView dense = DenseView::build(f.nl, view);
  Podem podem(dense, {100000});

  // Net values of one machine under a definite source assignment; the
  // faulty machine forces the victim once the literals hold on the good
  // machine.
  const auto simulate = [&](std::uint32_t assignment, const Excitation* exc,
                            const std::vector<V3>* good) {
    std::vector<V3> value(f.nl.net_capacity(), V3::X);
    const auto force = [&](NetId n) {
      if (exc == nullptr || n != exc->victim) return;
      for (const CondLiteral& lit : exc->lits) {
        if ((*good)[lit.net.value()] != v3_of(lit.value)) return;
      }
      value[n.value()] = v3_of(exc->faulty_value);
    };
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      value[view.sources[s].value()] = v3_of((assignment >> s) & 1);
      force(view.sources[s]);
    }
    for (const GateId g : gates) {
      const auto& gate = f.nl.gate(g);
      std::vector<V3> ins;
      for (const NetId in : gate.fanin) {
        EXPECT_TRUE(is_definite(value[in.value()]));
        ins.push_back(value[in.value()]);
      }
      for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
        value[gate.outputs[k].value()] =
            eval_cell_v3(f.nl.cell_of(g), static_cast<int>(k), ins);
        force(gate.outputs[k]);
      }
    }
    return value;
  };
  const auto detects = [&](const Excitation& exc, std::uint32_t assignment) {
    const std::vector<V3> good = simulate(assignment, nullptr, nullptr);
    const std::vector<V3> faulty = simulate(assignment, &exc, &good);
    for (const NetId po : f.nl.primary_outputs()) {
      if (good[po.value()] != faulty[po.value()]) return true;
    }
    return false;
  };

  // Every completion of a test's X bits must satisfy `holds`.
  const auto every_completion = [&](const std::vector<V3>& test,
                                    const auto& holds) {
    EXPECT_EQ(test.size(), view.sources.size());
    std::uint32_t fixed = 0;
    std::uint32_t free = 0;
    for (std::size_t s = 0; s < test.size(); ++s) {
      if (test[s] == V3::X) {
        free |= 1u << s;
      } else if (test[s] == V3::One) {
        fixed |= 1u << s;
      }
    }
    for (std::uint32_t a = 0; a < (1u << num_inputs); ++a) {
      if ((a & ~free) != fixed) continue;
      if (!holds(a)) return false;
    }
    return true;
  };

  // The SAT miter encodes the subgraph PODEM built for the same call, so
  // each excitation and cube is classified by both engines.
  SatAtpg sat(dense);
  int checked = 0;
  int detected = 0;
  int conditioned = 0;
  for (std::size_t i = 0; i < nets.size() && checked < 80; i += 3) {
    const NetId victim = nets[i];
    std::vector<Excitation> excitations;
    for (const bool sa : {false, true}) {
      excitations.push_back(Excitation{{}, victim, sa});
    }
    // Literals on nets created before the victim, which cannot lie in its
    // fanout cone (as for a bridge aggressor or a cell-aware side input).
    for (int c = 0; c < 2 && i > 0; ++c) {
      Excitation exc{{}, victim, rng.flip()};
      for (int l = 0; l <= c; ++l) {
        exc.lits.push_back({nets[rng.below(i)], rng.flip(), 1});
      }
      excitations.push_back(std::move(exc));
    }
    for (const Excitation& exc : excitations) {
      std::vector<V3> test;
      const auto verdict = podem.detect(exc, &test);
      ASSERT_NE(verdict, Podem::Outcome::Aborted);
      std::vector<V3> sat_test;
      const auto sat_verdict =
          sat.detect(podem.graph(), exc, &sat_test, nullptr);
      ASSERT_NE(sat_verdict, Podem::Outcome::Aborted);
      bool any = false;
      for (std::uint32_t a = 0; a < (1u << num_inputs); ++a) {
        any = any || detects(exc, a);
      }
      EXPECT_EQ(verdict == Podem::Outcome::Detected, any)
          << "net " << victim.value() << " faulty " << exc.faulty_value
          << " lits " << exc.lits.size();
      EXPECT_EQ(sat_verdict == Podem::Outcome::Detected, any)
          << "SAT, net " << victim.value() << " faulty " << exc.faulty_value
          << " lits " << exc.lits.size();
      ++checked;
      conditioned += exc.lits.empty() ? 0 : 1;
      const auto detects_exc = [&](std::uint32_t a) { return detects(exc, a); };
      if (sat_verdict == Podem::Outcome::Detected) {
        EXPECT_TRUE(every_completion(sat_test, detects_exc))
            << "SAT test, net " << victim.value();
      }
      if (verdict != Podem::Outcome::Detected) continue;
      ++detected;
      EXPECT_TRUE(every_completion(test, detects_exc))
          << "net " << victim.value();
    }
  }
  EXPECT_GT(detected, 0);
  EXPECT_GT(conditioned, 0);

  // Frame-0 justification: random cubes over any nets, justifiable iff
  // some source assignment makes every literal hold.
  int unjustifiable = 0;
  for (int c = 0; c < 40; ++c) {
    std::vector<CondLiteral> cube;
    for (int l = 0; l <= c % 3; ++l) {
      cube.push_back({nets[rng.below(nets.size())], rng.flip(), 0});
    }
    const auto holds = [&](std::uint32_t a) {
      const std::vector<V3> good = simulate(a, nullptr, nullptr);
      return std::all_of(cube.begin(), cube.end(), [&](const CondLiteral& l) {
        return good[l.net.value()] == v3_of(l.value);
      });
    };
    bool any = false;
    for (std::uint32_t a = 0; a < (1u << num_inputs); ++a) {
      any = any || holds(a);
    }
    unjustifiable += any ? 0 : 1;
    std::vector<V3> test;
    const auto verdict = podem.justify(cube, &test);
    std::vector<V3> sat_test;
    const auto sat_verdict = sat.justify(podem.graph(), cube, &sat_test,
                                         nullptr);
    EXPECT_EQ(verdict == Podem::Outcome::Detected, any) << "cube " << c;
    EXPECT_EQ(sat_verdict == Podem::Outcome::Detected, any) << "cube " << c;
    if (verdict == Podem::Outcome::Detected) {
      EXPECT_TRUE(every_completion(test, holds)) << "cube " << c;
    }
    if (sat_verdict == Podem::Outcome::Detected) {
      EXPECT_TRUE(every_completion(sat_test, holds)) << "SAT cube " << c;
    }
  }
  EXPECT_LT(unjustifiable, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemExhaustive, ::testing::Range(0, 8));

/// The CDCL solver on its own: random small CNFs against enumeration
/// (every model must satisfy every clause), and a pigeonhole formula hard
/// enough to run through many Luby restarts.
TEST(SatSolver, AgreesWithBruteForce) {
  Rng rng(31);
  SatSolver solver;
  for (int iter = 0; iter < 400; ++iter) {
    const auto num_vars = static_cast<std::uint32_t>(3 + rng.below(10));
    std::vector<std::vector<SatSolver::Lit>> clauses(num_vars *
                                                     (2 + rng.below(4)));
    solver.reset(num_vars);
    for (auto& clause : clauses) {
      for (std::uint64_t k = 0, n = 1 + rng.below(3); k < n; ++k) {
        clause.push_back(SatSolver::lit(
            static_cast<std::uint32_t>(rng.below(num_vars)), rng.flip()));
      }
      solver.add_clause(clause);
    }
    const auto satisfied = [&](const auto& value) {
      return std::all_of(clauses.begin(), clauses.end(), [&](const auto& c) {
        return std::any_of(c.begin(), c.end(), [&](SatSolver::Lit l) {
          return value(l >> 1) == ((l & 1u) == 0);
        });
      });
    };
    bool any = false;
    for (std::uint32_t a = 0; a < (1u << num_vars) && !any; ++a) {
      any = satisfied([&](std::uint32_t v) { return ((a >> v) & 1u) != 0; });
    }
    const SatSolver::Result r = solver.solve(nullptr);
    ASSERT_EQ(r == SatSolver::Result::Sat, any) << "instance " << iter;
    if (any) {
      EXPECT_TRUE(satisfied([&](std::uint32_t v) { return solver.model(v); }))
          << "instance " << iter;
    }
  }

  // 8 pigeons, 7 holes: variable p * 7 + h puts pigeon p in hole h.
  constexpr std::uint32_t kPigeons = 8;
  constexpr std::uint32_t kHoles = 7;
  solver.reset(kPigeons * kHoles);
  for (std::uint32_t p = 0; p < kPigeons; ++p) {
    std::vector<SatSolver::Lit> somewhere;
    for (std::uint32_t h = 0; h < kHoles; ++h) {
      somewhere.push_back(SatSolver::lit(p * kHoles + h, true));
    }
    solver.add_clause(somewhere);
  }
  for (std::uint32_t h = 0; h < kHoles; ++h) {
    for (std::uint32_t p = 0; p < kPigeons; ++p) {
      for (std::uint32_t q = p + 1; q < kPigeons; ++q) {
        const SatSolver::Lit both[] = {SatSolver::lit(p * kHoles + h, false),
                                       SatSolver::lit(q * kHoles + h, false)};
        solver.add_clause(both);
      }
    }
  }
  EXPECT_EQ(solver.solve(nullptr), SatSolver::Result::Unsat);
  EXPECT_GT(solver.conflicts(), 1000u);
}

TEST(FaultSim, AgreesWithPodemTests) {
  // Any test PODEM generates must be confirmed by the fault simulator.
  Rng rng(77);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 8; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI22X1"};
  for (int i = 0; i < 40; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 12))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  for (int i = 0; i < 4; ++i) f.nl.mark_primary_output(nets[nets.size() - 1 - i]);

  const CombView view = CombView::build(f.nl);
  const DenseView dense = DenseView::build(f.nl, view);
  Podem podem(dense, {20000});
  FaultSimulator fsim(f.nl, view);
  int confirmed = 0;
  for (std::size_t i = 8; i < nets.size(); i += 2) {
    Excitation exc;
    exc.victim = nets[i];
    exc.faulty_value = rng.flip();
    std::vector<V3> assign;
    if (podem.detect(exc, &assign) != Podem::Outcome::Detected) continue;
    TestPattern t;
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      const V3 v = assign[s];
      t.frame1.push_back(v == V3::One);
      t.frame0.push_back(rng.flip());
    }
    std::vector<TestPattern> tests{t};
    fsim.load(tests, 0, 1);
    const Excitation excs[] = {exc};
    EXPECT_NE(fsim.detect_mask(excs), 0u) << "net " << nets[i].value();
    ++confirmed;
  }
  EXPECT_GT(confirmed, 5);
}

TEST(Engine, EndToEndClassification) {
  // Full run_atpg over the internal faults of a small mapped block.
  Fixture f;
  std::vector<NetId> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(f.nl.add_primary_input());
    b.push_back(f.nl.add_primary_input());
  }
  NetId carry = f.nl.add_primary_input();
  for (int i = 0; i < 4; ++i) {
    const GateId fa = f.add("FAX1", {a[i], b[i], carry});
    carry = f.out(fa, 0);
    f.nl.mark_primary_output(f.out(fa, 1));
  }
  f.nl.mark_primary_output(carry);

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(f.nl, udfm);
  ASSERT_GT(universe.size(), 50u);
  AtpgOptions options;
  options.random_batches = 4;
  const AtpgResult result = run_atpg(f.nl, universe, udfm, options);
  EXPECT_EQ(result.num_detected + result.num_undetectable +
                result.num_aborted,
            universe.size());
  EXPECT_GT(result.num_detected, universe.size() / 2);
  // FA carry chains carry the charge-sharing-masked opens: some faults
  // must be undetectable.
  EXPECT_GT(result.num_undetectable, 0u);
  EXPECT_FALSE(result.tests.empty());

  // All detected faults must be covered by the compacted test set.
  const CombView view = CombView::build(f.nl);
  FaultSimulator fsim(f.nl, view);
  std::vector<bool> covered(universe.size(), false);
  for (std::size_t first = 0; first < result.tests.size(); first += 64) {
    const std::size_t count =
        std::min<std::size_t>(64, result.tests.size() - first);
    fsim.load(result.tests, first, count);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (covered[i] || result.status[i] != FaultStatus::Detected) continue;
      const auto exc = build_excitations(universe.faults[i], f.nl, udfm);
      if (fsim.detect_mask(exc) != 0) covered[i] = true;
    }
  }
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (result.status[i] == FaultStatus::Detected) {
      EXPECT_TRUE(covered[i]) << "fault " << i << " not covered by tests";
    }
  }
}

TEST(FaultSim, LaneMaskUnderSixtyFourLanes) {
  // Fewer than 64 loaded tests must exercise the `(1 << lanes) - 1`
  // shift path: detection bits may only appear in loaded lanes.
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("AND2X2", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  FaultSimulator fsim(f.nl, view);

  // Output SA0 is detected exactly where the good output is 1.
  std::vector<TestPattern> tests;
  for (const auto& [va, vb] : {std::pair{1, 1}, {0, 1}, {1, 1}}) {
    TestPattern t;
    t.frame0 = {0, 0};
    t.frame1 = {static_cast<std::uint8_t>(va), static_cast<std::uint8_t>(vb)};
    tests.push_back(std::move(t));
  }
  fsim.load(tests, 0, 3);
  EXPECT_EQ(fsim.lanes(), 3);
  Excitation exc;
  exc.victim = f.out(g);
  exc.faulty_value = false;
  const Excitation excs[] = {exc};
  EXPECT_EQ(fsim.detect_mask(excs), 0b101u);

  // A single-lane load of the undetected pattern yields mask 0.
  fsim.load(tests, 1, 1);
  EXPECT_EQ(fsim.lanes(), 1);
  EXPECT_EQ(fsim.detect_mask(excs), 0u);
}

TEST(SimdKernel, TailLanesExactMaskEveryMode) {
  // Tail shapes around the word boundary of the one 64-lane kernel,
  // against ground truth: with both inputs of test i at (i even), AND
  // output SA0 is detected exactly on the even lanes and SA1 on the odd
  // ones. Lanes past the loaded tail pack 0 inputs, where SA1 would fire
  // if the lane mask leaked. 65 tests load as a full word plus a
  // one-lane batch.
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("AND2X2", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  FaultSimulator fsim(f.nl, view);

  Excitation exc;
  exc.victim = f.out(g);
  exc.faulty_value = false;
  const Excitation excs[] = {exc};
  std::vector<TestPattern> alternating(65);
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    const std::uint8_t v = i % 2 == 0;
    alternating[i].frame0 = {v, v};
    alternating[i].frame1 = {v, v};
  }
  Excitation sa1 = exc;
  sa1.faulty_value = true;
  const Excitation sa1_excs[] = {sa1};
  const auto low_bits = [](std::size_t n) {
    return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  };
  const std::pair<std::size_t, std::size_t> kLoads[] = {
      {0, 1}, {0, 63}, {0, 64}, {64, 1}};
  for (const auto& [first, count] : kLoads) {
    fsim.load(alternating, first, count);
    ASSERT_EQ(fsim.lanes(), static_cast<int>(count));
    EXPECT_EQ(fsim.detect_mask(excs), 0x5555555555555555ULL & low_bits(count))
        << "first " << first << " count " << count;
    EXPECT_EQ(fsim.detect_mask(sa1_excs),
              0xAAAAAAAAAAAAAAAAULL & low_bits(count))
        << "first " << first << " count " << count;
  }
}

TEST(SimdDispatch, SimulatorReportsResolvedKernel) {
  // The one kernel is the 64-lane word; run reports and AtpgCounters
  // stamp it as "scalar" with a width of one word.
  const SimdMode kernel = resolve_simd_mode(global_simd_mode());
  EXPECT_STREQ(simd_mode_name(kernel), "scalar");
  EXPECT_EQ(simd_mode_words(kernel), 1);
  EXPECT_EQ(FaultSimulator::kLanes,
            64 * static_cast<std::size_t>(simd_mode_words(kernel)));

  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const GateId g = f.add("INVX1", {a});
  f.nl.mark_primary_output(f.out(g));
  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(f.nl, udfm);
  const AtpgResult r = run_atpg(f.nl, universe, udfm, AtpgOptions{});
  EXPECT_EQ(r.counters.sim_words, simd_mode_words(kernel));
}

TEST(FaultSim, LoadFromMatchesLoad) {
  Rng rng(31);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  for (int i = 0; i < 30; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 3]);

  const CombView view = CombView::build(f.nl);
  FaultSimulator master(f.nl, view);
  FaultSimulator worker(f.nl, view);
  std::vector<TestPattern> tests;
  for (int lane = 0; lane < 40; ++lane) {
    TestPattern t;
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      t.frame0.push_back(rng.flip());
      t.frame1.push_back(rng.flip());
    }
    tests.push_back(std::move(t));
  }
  master.load(tests, 0, tests.size());
  worker.load_from(master);
  EXPECT_EQ(worker.lanes(), master.lanes());
  for (std::size_t i = 6; i < nets.size(); ++i) {
    for (const bool sa : {false, true}) {
      Excitation exc;
      exc.victim = nets[i];
      exc.faulty_value = sa;
      const Excitation excs[] = {exc};
      EXPECT_EQ(master.detect_mask(excs), worker.detect_mask(excs))
          << "net " << nets[i].value() << " sa" << sa;
    }
  }
}

TEST(FaultSimArena, RebindAcrossDesignsMatchesFreshSimulators) {
  // Regression for stale per-batch scratch: one arena slot rebound
  // across differently-sized designs (large -> small -> large) must
  // answer every detect_mask query exactly like a simulator freshly
  // constructed for that design.
  Rng rng(91);
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  struct Design {
    Fixture f;
    std::vector<NetId> nets;
    std::vector<TestPattern> tests;
  };
  const auto make = [&](int inputs, int gates) {
    auto d = std::make_unique<Design>();
    for (int i = 0; i < inputs; ++i) {
      d->nets.push_back(d->f.nl.add_primary_input());
    }
    for (int i = 0; i < gates; ++i) {
      const CellId cell = lib()->require(kCells[rng.below(4)]);
      const CellSpec& spec = lib()->cell(cell);
      std::vector<NetId> fanins;
      for (int j = 0; j < spec.num_inputs; ++j) {
        fanins.push_back(d->nets[d->nets.size() - 1 - rng.below(
                                    std::min<std::size_t>(d->nets.size(), 8))]);
      }
      d->nets.push_back(d->f.out(d->f.nl.add_gate(cell, fanins)));
    }
    d->f.nl.mark_primary_output(d->nets.back());
    d->f.nl.mark_primary_output(d->nets[d->nets.size() - 2]);
    const CombView view = CombView::build(d->f.nl);
    for (int lane = 0; lane < 48; ++lane) {
      TestPattern t;
      for (std::size_t s = 0; s < view.sources.size(); ++s) {
        t.frame0.push_back(rng.flip());
        t.frame1.push_back(rng.flip());
      }
      d->tests.push_back(std::move(t));
    }
    return d;
  };
  const auto masks_of = [](Design& d, FaultSimulator& sim) {
    std::vector<std::uint64_t> out;
    sim.load(d.tests, 0, d.tests.size());
    for (const NetId net : d.nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        out.push_back(sim.detect_mask(excs));
      }
    }
    return out;
  };
  const auto fresh_masks = [&](Design& d) {
    FaultSimulator sim(d.f.nl, CombView::build(d.f.nl));
    return masks_of(d, sim);
  };

  const auto big = make(8, 60);
  const auto small = make(4, 10);
  const auto big_view =
      DenseView::build_shared(big->f.nl, CombView::build(big->f.nl));
  const auto small_view =
      DenseView::build_shared(small->f.nl, CombView::build(small->f.nl));

  FaultSimArena arena;
  EXPECT_EQ(masks_of(*big, arena.acquire(0, big_view)), fresh_masks(*big));
  // Shrinking rebind: every buffer is now oversized for the new design;
  // any stale lane count, frame value or event scratch shows up here.
  EXPECT_EQ(masks_of(*small, arena.acquire(0, small_view)),
            fresh_masks(*small));
  EXPECT_EQ(masks_of(*big, arena.acquire(0, big_view)), fresh_masks(*big));
  EXPECT_EQ(arena.size(), 1u);
}

TEST(FaultSim, BaselineOverlayMatchesFullLoad) {
  // A copy-on-write load against a committed baseline must agree bit for
  // bit with a full O(netlist) load of the same patterns, while
  // materializing strictly fewer frame bytes.
  Rng rng(47);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  for (int i = 0; i < 30; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 3]);

  const CombView base_view = CombView::build(f.nl);
  std::vector<TestPattern> seeds;
  for (int lane = 0; lane < 100; ++lane) {
    TestPattern t;
    for (std::size_t s = 0; s < base_view.sources.size(); ++s) {
      t.frame0.push_back(rng.flip());
      t.frame1.push_back(rng.flip());
    }
    seeds.push_back(std::move(t));
  }
  const SimBaseline base = build_sim_baseline(f.nl, seeds);
  ASSERT_TRUE(base.valid());
  const std::size_t cap = FaultSimulator::kLanes;
  ASSERT_EQ(base.batches.size(), (seeds.size() + cap - 1) / cap);

  // Candidate: the committed design plus a small appended cone — its new
  // nets are the only dirty slots.
  Netlist cand = f.nl;
  std::vector<NetId> cand_nets = nets;
  for (int i = 0; i < 3; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(cand_nets[cand_nets.size() - 1 - rng.below(6)]);
    }
    const GateId g = cand.add_gate(cell, fanins);
    cand_nets.push_back(cand.gate(g).outputs[0]);
  }
  cand.mark_primary_output(cand_nets.back());

  const auto cand_view =
      DenseView::build_shared(cand, CombView::build(cand));
  const CowPlan plan = build_cow_plan(*cand_view, *base.view);
  ASSERT_TRUE(plan.valid);
  EXPECT_GT(plan.dirty_nets.size(), 0u);
  EXPECT_LT(plan.dirty_nets.size(), cand_view->net_slots);

  FaultSimulator overlay_sim(cand_view);
  FaultSimulator full_sim(cand_view);
  for (std::size_t b = 0; b < base.batches.size(); ++b) {
    const std::size_t count =
        static_cast<std::size_t>(base.batches[b].lanes);
    overlay_sim.load_baseline(base, plan, b, count);
    full_sim.load(seeds, b * cap, count);
    ASSERT_EQ(overlay_sim.lanes(), full_sim.lanes());
    for (const NetId net : cand_nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        ASSERT_EQ(overlay_sim.detect_mask(excs), full_sim.detect_mask(excs))
            << "batch " << b << " net " << net.value() << " sa" << sa;
      }
    }
  }
  EXPECT_EQ(overlay_sim.overlay_loads(), base.batches.size());
  EXPECT_EQ(overlay_sim.full_loads(), 0u);
  EXPECT_LT(overlay_sim.frame_bytes_materialized(),
            full_sim.frame_bytes_materialized());
  // Both accountings agree on patterns: 2 frames per loaded pattern.
  EXPECT_EQ(overlay_sim.patterns_simulated(), full_sim.patterns_simulated());

  // The pre-simulated phase-1 batches obey the same contract: the stored
  // patterns reproduce the engine's deterministic draw, and an overlay
  // replay agrees bit for bit with a full load of those patterns.
  const SimBaseline rbase =
      build_sim_baseline(f.nl, seeds, /*random_seed=*/99, /*random_batches=*/2);
  ASSERT_EQ(rbase.random_batch_count, 2);
  ASSERT_EQ(rbase.random_batches.size(), (128 + cap - 1) / cap);
  ASSERT_EQ(rbase.random_patterns.size(), 128u);
  Rng replay(99);
  for (const TestPattern& t : rbase.random_patterns) {
    ASSERT_EQ(t.frame0, random_sim_frame(rbase.frame_width, replay));
    ASSERT_EQ(t.frame1, random_sim_frame(rbase.frame_width, replay));
  }
  const CowPlan rplan = build_cow_plan(*cand_view, *rbase.view);
  ASSERT_TRUE(rplan.valid);
  FaultSimulator roverlay_sim(cand_view);
  FaultSimulator rfull_sim(cand_view);
  for (std::size_t b = 0; b < rbase.random_batches.size(); ++b) {
    const std::size_t count =
        static_cast<std::size_t>(rbase.random_batches[b].lanes);
    roverlay_sim.load_baseline_random(rbase, rplan, b, count);
    rfull_sim.load(rbase.random_patterns, b * cap, count);
    for (const NetId net : cand_nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        ASSERT_EQ(roverlay_sim.detect_mask(excs),
                  rfull_sim.detect_mask(excs))
            << "random batch " << b << " net " << net.value() << " sa" << sa;
      }
    }
  }
}

TEST(Engine, CoverageNeverCreditsAborts) {
  AtpgResult r;
  r.num_detected = 90;
  r.num_undetectable = 4;
  r.num_aborted = 6;
  EXPECT_DOUBLE_EQ(r.coverage(100), 0.90);  // not 1 - 4/100
  EXPECT_DOUBLE_EQ(AtpgResult{}.coverage(0), 1.0);
}

TEST(Engine, DuplicateFaultsMirrorRepresentative) {
  // Distinct physical violations inducing the same logic fault (equal
  // Fault::Key, e.g. different guideline ids) are classified once and
  // the verdict mirrored onto every duplicate.
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId and_g = f.add("AND2X2", {a, b});
  const GateId or_g = f.add("OR2X2", {a, f.out(and_g)});
  f.nl.mark_primary_output(f.out(or_g));
  UdfmMap udfm(*lib());

  FaultUniverse universe;
  Fault detectable;  // primary-output SA0: trivially detectable
  detectable.kind = FaultKind::StuckAt;
  detectable.victim = f.out(or_g);
  detectable.value = false;
  detectable.guideline = 1;
  Fault undetectable;  // absorbed-term SA0 (see PodemExhaustive above)
  undetectable.kind = FaultKind::StuckAt;
  undetectable.victim = f.out(and_g);
  undetectable.value = false;
  undetectable.guideline = 2;
  // Interleave duplicates with different guideline ids.
  universe.faults = {detectable, undetectable, detectable, undetectable,
                     detectable};
  universe.faults[2].guideline = 7;
  universe.faults[3].guideline = 8;
  universe.faults[4].guideline = 9;

  const AtpgResult result = run_atpg(f.nl, universe, udfm, {});
  ASSERT_EQ(result.status.size(), 5u);
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_EQ(result.status[i], FaultStatus::Detected) << i;
  }
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_EQ(result.status[i], FaultStatus::Undetectable) << i;
  }
  // Duplicates count toward the totals like any other fault.
  EXPECT_EQ(result.num_detected, 3u);
  EXPECT_EQ(result.num_undetectable, 2u);
}

/// num_threads must never change results: the parallel sweeps write
/// per-fault mask slots and reduce serially. Statuses, compacted tests
/// and counts are required to be bit-identical on a seed benchmark.
TEST(Engine, ParallelMatchesSerialOnSeedBenchmark) {
  // Smallest benchmark block keeps the double classification fast.
  std::string_view smallest;
  std::size_t smallest_gates = std::numeric_limits<std::size_t>::max();
  for (const auto name : benchmark_names()) {
    const Netlist rtl = build_benchmark(name).value();
    if (rtl.num_live_gates() < smallest_gates) {
      smallest_gates = rtl.num_live_gates();
      smallest = name;
    }
  }
  const Netlist rtl = build_benchmark(smallest).value();
  MapOptions mo;
  const Library& slib = rtl.library();
  const auto pin = [&](const char* src, const char* dst) {
    if (const auto s = slib.find(src)) {
      mo.fixed_map.emplace(s->value(), *lib()->find(dst));
    }
  };
  pin("DFF", "DFFPOSX1");
  pin("FA", "FAX1");
  pin("HA", "HAX1");
  const auto mapped = technology_map(rtl, lib(), mo);
  ASSERT_TRUE(mapped.has_value());

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(*mapped, udfm);
  ASSERT_GT(universe.size(), 100u);

  AtpgOptions serial;
  serial.random_batches = 4;
  serial.num_threads = 1;
  const AtpgResult base = run_atpg(*mapped, universe, udfm, serial);
  EXPECT_EQ(base.counters.threads_used, 1);
  EXPECT_GT(base.counters.patterns_simulated, 0u);
  EXPECT_GT(base.counters.detect_mask_calls, 0u);

  for (const int threads : {2, 4}) {
    AtpgOptions options = serial;
    options.num_threads = threads;
    const AtpgResult parallel = run_atpg(*mapped, universe, udfm, options);
    EXPECT_EQ(parallel.counters.threads_used, threads);
    ASSERT_EQ(parallel.status.size(), base.status.size());
    for (std::size_t i = 0; i < base.status.size(); ++i) {
      ASSERT_EQ(parallel.status[i], base.status[i])
          << "fault " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(parallel.num_detected, base.num_detected);
    EXPECT_EQ(parallel.num_undetectable, base.num_undetectable);
    EXPECT_EQ(parallel.num_aborted, base.num_aborted);
    ASSERT_EQ(parallel.tests.size(), base.tests.size());
    for (std::size_t t = 0; t < base.tests.size(); ++t) {
      EXPECT_EQ(parallel.tests[t].frame0, base.tests[t].frame0) << t;
      EXPECT_EQ(parallel.tests[t].frame1, base.tests[t].frame1) << t;
    }
  }
}

TEST(Engine, CacheReproducesStatuses) {
  Fixture f;
  std::vector<NetId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(f.nl.add_primary_input());
  Rng rng(9);
  std::vector<NetId> nets = ins;
  for (int i = 0; i < 30; ++i) {
    const char* kCells[] = {"NAND2X1", "XOR2X1", "AOI21X1"};
    const CellId cell = lib()->require(kCells[rng.below(3)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 2]);

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(f.nl, udfm);
  AtpgOptions options;
  options.generate_tests = false;
  FaultStatusCache cache;
  const AtpgResult fresh = run_atpg(f.nl, universe, udfm, options, &cache);
  const AtpgResult cached = run_atpg(f.nl, universe, udfm, options, &cache);
  ASSERT_EQ(fresh.status.size(), cached.status.size());
  for (std::size_t i = 0; i < fresh.status.size(); ++i) {
    EXPECT_EQ(fresh.status[i], cached.status[i]) << i;
  }
}

TEST(FaultStatusCache, FlatTableSemantics) {
  FaultStatusCache cache;
  Fault f;
  f.kind = FaultKind::Bridge;
  f.victim = NetId(3);
  f.aggressor = NetId(4);
  EXPECT_EQ(cache.lookup(f), FaultStatus::Unknown);
  EXPECT_TRUE(cache.empty());
  cache.store(f, FaultStatus::Detected);
  EXPECT_EQ(cache.lookup(f), FaultStatus::Detected);
  cache.store(f, FaultStatus::Undetectable);  // overwrite in place
  EXPECT_EQ(cache.lookup(f), FaultStatus::Undetectable);
  EXPECT_EQ(cache.size(), 1u);
  Fault guideline_only = f;  // not part of the key
  guideline_only.guideline = 9;
  EXPECT_EQ(cache.lookup(guideline_only), FaultStatus::Undetectable);

  // Keys that differ from `f` in exactly one field stay distinct.
  std::vector<Fault> variants(7, f);
  variants[0].kind = FaultKind::StuckAt;
  variants[1].bridge_type = BridgeType::DomOr;
  variants[2].victim = NetId(5);
  variants[3].aggressor = NetId(3);
  variants[4].owner = GateId(0);
  variants[5].udfm_index = 1;
  variants[6].value = true;
  for (const Fault& v : variants) {
    EXPECT_EQ(cache.lookup(v), FaultStatus::Unknown);
    cache.store(v, FaultStatus::Aborted);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.lookup(f), FaultStatus::Undetectable);

  // Far more keys than the initial table, through several grows; every
  // status survives each rehash.
  cache.clear();
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(cache.lookup(f), FaultStatus::Unknown);
  constexpr std::uint32_t kKeys = 12000;
  const auto key_fault = [](std::uint32_t i) {
    Fault k;
    k.kind = FaultKind::CellAware;
    k.victim = NetId(i / 8);
    k.owner = GateId(i / 8);
    k.udfm_index = i % 8;
    return k;
  };
  const auto status_of = [](std::uint32_t i) {
    return static_cast<FaultStatus>(1 + i % 3);
  };
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    cache.store(key_fault(i), status_of(i));
  }
  ASSERT_EQ(cache.size(), kKeys);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(cache.lookup(key_fault(i)), status_of(i)) << i;
  }
  // Iteration visits each key once, in insertion order.
  std::uint32_t visited = 0;
  for (const auto& [key, status] : cache) {
    ASSERT_EQ(key, key_fault(visited).key()) << visited;
    EXPECT_EQ(status, status_of(visited));
    ++visited;
  }
  EXPECT_EQ(visited, kKeys);
}

/// A probe overlay records only the verdicts its own run computed: over
/// a base cache that already classifies every fault, an overlay run
/// reproduces the statuses from lookups and stores nothing.
TEST(Engine, ProbeOverlayHoldsOnlyFreshVerdicts) {
  FlowOptions flow_options;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(lib(), flow_options);
  const FlowState state =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  const std::size_t num_faults = state.universe.size();

  FaultStatusCache base;
  const AtpgResult filled = run_atpg(state.netlist, state.universe,
                                     flow.udfm(), flow_options.atpg, &base);
  ASSERT_FALSE(filled.cancelled);
  EXPECT_EQ(filled.counters.cache_hits, 0u);
  // One store per distinct key: duplicates share their representative's.
  EXPECT_EQ(filled.counters.cache_stores, base.size());
  EXPECT_LE(base.size(), num_faults);

  AtpgOptions options = flow_options.atpg;
  options.generate_tests = false;
  FaultStatusCache updates;
  const AtpgResult probe = run_atpg_overlay(
      state.netlist, state.universe, flow.udfm(), options, &base, &updates);
  EXPECT_EQ(probe.status, filled.status);
  EXPECT_TRUE(updates.empty());
  EXPECT_EQ(probe.counters.cache_hits, num_faults);
  EXPECT_EQ(probe.counters.cache_stores, 0u);
}

/// Verdicts come from PODEM or, behind its aborts, from the SAT miter:
/// they must not depend on the backtrack budget or the rng seed, and no
/// uncancelled run leaves a fault Aborted.
TEST(Engine, VerdictsIndependentOfBudgetAndSeed) {
  FlowOptions flow_options;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(lib(), flow_options);
  const FlowState state =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  std::vector<FaultStatus> reference;
  for (const std::uint64_t seed : {12345u, 2024u}) {
    for (const long limit : {16L, 4000L}) {
      AtpgOptions options = flow_options.atpg;
      options.seed = seed;
      options.backtrack_limit = limit;
      const AtpgResult r =
          run_atpg(state.netlist, state.universe, flow.udfm(), options);
      EXPECT_EQ(r.num_aborted, 0u) << "seed " << seed << " limit " << limit;
      if (reference.empty()) {
        reference = r.status;
        EXPECT_GT(r.counters.sat_calls, 0u);
      } else {
        EXPECT_EQ(r.status, reference) << "seed " << seed << " limit " << limit;
      }
    }
  }
}

/// A solve cut short by cancellation proves nothing: the miter reports
/// Aborted even for a provably undetectable fault, and a cancelled run
/// stores nothing in the cache.
TEST(Engine, CancelledSolveIsAbortedAndNeverCached) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId and_g = f.add("AND2X2", {a, b});
  const GateId or_g = f.add("OR2X2", {a, f.out(and_g)});
  f.nl.mark_primary_output(f.out(or_g));
  const CombView view = CombView::build(f.nl);
  const DenseView dense = DenseView::build(f.nl, view);
  // The absorbed AND term's SA0 is undetectable (see
  // Engine.DuplicateFaultsMirrorRepresentative).
  const Excitation redundant{{}, f.out(and_g), false};
  Podem podem(dense, {0});
  podem.detect(redundant, nullptr);
  SatAtpg sat(dense);
  EXPECT_EQ(sat.detect(podem.graph(), redundant, nullptr, nullptr),
            Podem::Outcome::Undetectable);
  CancelToken expired;
  expired.cancel();
  EXPECT_EQ(sat.detect(podem.graph(), redundant, nullptr, &expired),
            Podem::Outcome::Aborted);

  // Engine level: a deadline that trips while phase 2 runs every target
  // through the SAT miter (budget 0), shortened until a run is cut so
  // machine speed cannot let it finish. Whatever it cut, nothing is
  // cached and nothing the complete run detects is reported
  // undetectable.
  FlowOptions flow_options;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(lib(), flow_options);
  const FlowState state =
      flow.run_initial(build_benchmark("sparc_ffu").value()).value();
  AtpgOptions options = flow_options.atpg;
  options.backtrack_limit = 0;
  options.generate_tests = false;
  const AtpgResult full =
      run_atpg(state.netlist, state.universe, flow.udfm(), options);
  ASSERT_FALSE(full.cancelled);
  EXPECT_EQ(full.num_aborted, 0u);
  const double full_seconds = full.counters.total_seconds();
  AtpgResult cut;
  FaultStatusCache cache;
  for (const double share : {0.5, 0.25, 0.0}) {
    CancelToken deadline = CancelToken::with_deadline(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(share * full_seconds)));
    options.cancel = &deadline;
    cache.clear();
    cut = run_atpg(state.netlist, state.universe, flow.udfm(), options,
                   &cache);
    if (cut.cancelled) break;
  }
  ASSERT_TRUE(cut.cancelled);
  EXPECT_TRUE(cache.empty());
  for (std::size_t i = 0; i < cut.status.size(); ++i) {
    if (cut.status[i] == FaultStatus::Undetectable) {
      EXPECT_EQ(full.status[i], FaultStatus::Undetectable) << i;
    }
  }
}

/// Pins the PODEM search and the SAT miter behind it on real blocks:
/// run_atpg at the default seed with a small backtrack budget must
/// reproduce these exact verdict counts, backtrack totals, SAT call and
/// conflict totals, test counts and a digest of every status and test
/// bit. Any change to decision order, evaluation order, the CNF encoding
/// or rng draws shows up here; a pure speed change must leave them alone.
struct PinnedRun {
  const char* block;
  std::uint64_t backtracks;
  std::uint64_t sat_calls;
  std::uint64_t sat_conflicts;
  std::size_t detected;
  std::size_t undetectable;
  std::size_t aborted;
  std::size_t tests;
  std::uint64_t digest;
};

void PrintTo(const PinnedRun& pin, std::ostream* os) { *os << pin.block; }

std::uint64_t result_digest(const AtpgResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const FaultStatus s : r.status) mix(static_cast<std::uint64_t>(s));
  for (const TestPattern& t : r.tests) {
    for (const std::uint8_t b : t.frame0) mix(b);
    for (const std::uint8_t b : t.frame1) mix(b + 2u);
  }
  return h;
}

class PinnedSearch : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedSearch, ReproducesVerdictsAndBacktracks) {
  const PinnedRun& pin = GetParam();
  FlowOptions flow_options;
  flow_options.atpg.backtrack_limit = 60;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(lib(), flow_options);
  const FlowState state =
      flow.run_initial(build_benchmark(pin.block).value()).value();

  AtpgOptions options = flow_options.atpg;
  ASSERT_EQ(options.seed, 12345u);
  const AtpgResult r =
      run_atpg(state.netlist, state.universe, flow.udfm(), options);
  EXPECT_EQ(r.counters.podem_backtracks, pin.backtracks);
  EXPECT_EQ(r.counters.sat_calls, pin.sat_calls);
  EXPECT_EQ(r.counters.sat_conflicts, pin.sat_conflicts);
  EXPECT_EQ(r.num_detected, pin.detected);
  EXPECT_EQ(r.num_undetectable, pin.undetectable);
  EXPECT_EQ(r.num_aborted, pin.aborted);
  EXPECT_EQ(r.tests.size(), pin.tests);
  EXPECT_EQ(result_digest(r), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, PinnedSearch,
    ::testing::Values(PinnedRun{"sparc_ffu", 17874, 287, 2575, 14316, 320, 0,
                                250, 10012770089142975350ull},
                      PinnedRun{"sparc_tlu", 1371, 19, 146, 3651, 90, 0, 153,
                                12407970115796060017ull}),
    [](const auto& info) { return std::string(info.param.block); });

}  // namespace
}  // namespace dfmres
