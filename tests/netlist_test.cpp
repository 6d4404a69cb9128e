#include <gtest/gtest.h>

#include <algorithm>

#include "src/library/osu018.hpp"
#include "src/netlist/extract.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/stats.hpp"

namespace dfmres {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  NetlistTest() : lib_(osu018_library()), nl_(lib_, "t") {}

  GateId add(const char* cell, std::initializer_list<NetId> ins) {
    std::vector<NetId> fanins(ins);
    return nl_.add_gate(lib_->require(cell), fanins);
  }

  std::shared_ptr<const Library> lib_;
  Netlist nl_;
};

TEST_F(NetlistTest, BuildSmallCircuit) {
  const NetId a = nl_.add_primary_input("a");
  const NetId b = nl_.add_primary_input("b");
  const GateId g1 = add("NAND2X1", {a, b});
  const GateId g2 = add("INVX1", {nl_.gate(g1).outputs[0]});
  nl_.mark_primary_output(nl_.gate(g2).outputs[0]);

  EXPECT_EQ(nl_.num_live_gates(), 2u);
  EXPECT_EQ(nl_.primary_inputs().size(), 2u);
  EXPECT_EQ(nl_.primary_outputs().size(), 1u);
  EXPECT_TRUE(nl_.validate().empty());
  EXPECT_GT(nl_.total_area(), 0.0);
}

TEST_F(NetlistTest, TopologicalOrderRespectsDependencies) {
  const NetId a = nl_.add_primary_input();
  const NetId b = nl_.add_primary_input();
  const GateId g1 = add("NAND2X1", {a, b});
  const GateId g2 = add("NOR2X1", {nl_.gate(g1).outputs[0], a});
  const GateId g3 = add("XOR2X1", {nl_.gate(g2).outputs[0],
                                   nl_.gate(g1).outputs[0]});
  nl_.mark_primary_output(nl_.gate(g3).outputs[0]);

  const auto order = nl_.topological_order();
  ASSERT_EQ(order.size(), 3u);
  const auto pos = [&](GateId g) {
    return std::find(order.begin(), order.end(), g) - order.begin();
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_LT(pos(g2), pos(g3));
}

TEST_F(NetlistTest, CombinationalCycleIsReportedWithoutAborting) {
  const NetId a = nl_.add_primary_input();
  const GateId nand = add("NAND2X1", {a, a});
  nl_.mark_primary_output(nl_.gate(nand).outputs[0]);
  EXPECT_FALSE(nl_.has_combinational_cycle());

  // An inverter fed by the NAND drives a net the NAND then reads.
  const NetId loop = nl_.add_net();
  const std::vector<NetId> ins{nl_.gate(nand).outputs[0]};
  const std::vector<NetId> outs{loop};
  nl_.add_gate_driving(lib_->require("INVX1"), ins, outs);
  nl_.rewire_fanin(nand, 1, loop);
  EXPECT_TRUE(nl_.has_combinational_cycle());
  EXPECT_FALSE(nl_.validate().empty());
}

TEST_F(NetlistTest, SequentialGatesAreOrderBoundaries) {
  const NetId a = nl_.add_primary_input();
  const GateId inv = add("INVX1", {a});
  const GateId dff = add("DFFPOSX1", {nl_.gate(inv).outputs[0]});
  const GateId inv2 = add("INVX1", {nl_.gate(dff).outputs[0]});
  nl_.mark_primary_output(nl_.gate(inv2).outputs[0]);

  const auto order = nl_.topological_order();
  EXPECT_EQ(order.size(), 2u);  // DFF excluded

  const CombView view = CombView::build(nl_);
  // Sources: PI + DFF Q. Observations: PO + DFF D.
  EXPECT_EQ(view.sources.size(), 2u);
  EXPECT_EQ(view.observe.size(), 2u);
}

TEST_F(NetlistTest, RemoveGateDetachesAndKillsDanglingNets) {
  const NetId a = nl_.add_primary_input();
  const GateId g1 = add("INVX1", {a});
  const NetId mid = nl_.gate(g1).outputs[0];
  const GateId g2 = add("INVX1", {mid});
  const NetId out = nl_.gate(g2).outputs[0];
  nl_.mark_primary_output(out);

  nl_.remove_gate(g2);
  EXPECT_FALSE(nl_.gate_alive(g2));
  EXPECT_TRUE(nl_.net_alive(mid));   // still driven by g1
  EXPECT_TRUE(nl_.net_alive(out));   // kept: primary output marking
  EXPECT_TRUE(nl_.net(mid).sinks.empty());
  EXPECT_FALSE(nl_.net(out).has_gate_driver());

  nl_.remove_gate(g1);
  EXPECT_FALSE(nl_.net_alive(mid));  // no driver, no sinks
}

TEST_F(NetlistTest, RewireFanin) {
  const NetId a = nl_.add_primary_input();
  const NetId b = nl_.add_primary_input();
  const GateId g = add("NAND2X1", {a, a});
  nl_.mark_primary_output(nl_.gate(g).outputs[0]);
  EXPECT_EQ(nl_.net(a).sinks.size(), 2u);

  nl_.rewire_fanin(g, 1, b);
  EXPECT_EQ(nl_.net(a).sinks.size(), 1u);
  EXPECT_EQ(nl_.net(b).sinks.size(), 1u);
  EXPECT_EQ(nl_.gate(g).fanin[1], b);
  EXPECT_TRUE(nl_.validate().empty());
}

TEST_F(NetlistTest, CompactDropsDeadSlots) {
  const NetId a = nl_.add_primary_input("a");
  const GateId g1 = add("INVX1", {a});
  const GateId g2 = add("INVX1", {nl_.gate(g1).outputs[0]});
  const GateId g3 = add("BUFX2", {nl_.gate(g2).outputs[0]});
  nl_.mark_primary_output(nl_.gate(g3).outputs[0]);
  // Splice g2 out: drive g3 from g1 directly.
  nl_.rewire_fanin(g3, 0, nl_.gate(g1).outputs[0]);
  nl_.remove_gate(g2);

  const Netlist dense = nl_.compact();
  EXPECT_EQ(dense.num_live_gates(), 2u);
  EXPECT_EQ(dense.gate_capacity(), 2u);
  EXPECT_TRUE(dense.validate().empty());
  EXPECT_EQ(dense.primary_inputs().size(), 1u);
  EXPECT_EQ(dense.primary_outputs().size(), 1u);
  EXPECT_EQ(dense.input_name(0), "a");
}

TEST_F(NetlistTest, CellUsageCountsTypes) {
  const NetId a = nl_.add_primary_input();
  const GateId g1 = add("INVX1", {a});
  add("INVX1", {nl_.gate(g1).outputs[0]});
  add("NAND2X1", {a, nl_.gate(g1).outputs[0]});

  const CellUsage usage = cell_usage(nl_);
  EXPECT_EQ(usage.num_gates, 3u);
  ASSERT_EQ(usage.entries.size(), 2u);
  for (const auto& e : usage.entries) {
    if (e.name == "INVX1") {
      EXPECT_EQ(e.count, 2u);
    }
    if (e.name == "NAND2X1") {
      EXPECT_EQ(e.count, 1u);
    }
  }
}

TEST_F(NetlistTest, ExtractSubcircuitBoundaries) {
  // a -> inv1 -> nand(a, inv1) -> inv2 -> PO ; extract {nand}
  const NetId a = nl_.add_primary_input();
  const GateId inv1 = add("INVX1", {a});
  const GateId nand = add("NAND2X1", {a, nl_.gate(inv1).outputs[0]});
  const GateId inv2 = add("INVX1", {nl_.gate(nand).outputs[0]});
  nl_.mark_primary_output(nl_.gate(inv2).outputs[0]);

  const GateId region[] = {nand};
  const Subcircuit sub = extract_subcircuit(nl_, region).value();
  EXPECT_EQ(sub.boundary_inputs.size(), 2u);
  EXPECT_EQ(sub.boundary_outputs.size(), 1u);
  EXPECT_EQ(sub.circuit.num_live_gates(), 1u);
  EXPECT_TRUE(sub.circuit.validate().empty());
  EXPECT_EQ(sub.circuit.primary_outputs().size(), 1u);
}

TEST_F(NetlistTest, ReplaceRegionPreservesStructure) {
  const NetId a = nl_.add_primary_input();
  const NetId b = nl_.add_primary_input();
  const GateId nand = add("NAND2X1", {a, b});
  const GateId inv = add("INVX1", {nl_.gate(nand).outputs[0]});
  nl_.mark_primary_output(nl_.gate(inv).outputs[0]);

  // Replace {nand, inv} (== AND) with AND2X2.
  const GateId region[] = {nand, inv};
  const Subcircuit sub = extract_subcircuit(nl_, region).value();
  ASSERT_EQ(sub.boundary_inputs.size(), 2u);
  ASSERT_EQ(sub.boundary_outputs.size(), 1u);

  Netlist repl(lib_, "repl");
  const NetId ra = repl.add_primary_input();
  const NetId rb = repl.add_primary_input();
  const NetId ins[] = {ra, rb};
  const GateId rand_gate = repl.add_gate(lib_->require("AND2X2"), ins);
  repl.mark_primary_output(repl.gate(rand_gate).outputs[0]);

  const auto added = replace_region(nl_, sub, repl).value();
  EXPECT_EQ(added.size(), 1u);
  EXPECT_EQ(nl_.num_live_gates(), 1u);
  EXPECT_TRUE(nl_.validate().empty());
  // The PO net is preserved and now driven by the AND2X2.
  const NetId po = nl_.primary_outputs()[0];
  EXPECT_TRUE(nl_.net(po).has_gate_driver());
  EXPECT_EQ(nl_.cell_of(nl_.net(po).driver_gate).name, "AND2X2");
}

TEST_F(NetlistTest, ReplaceRegionWireThroughMergesNets) {
  // Region computes identity; replacement is a wire-through (PO == PI),
  // so the boundary output net is merged onto the boundary input.
  const NetId a = nl_.add_primary_input();
  const GateId inv1 = add("INVX1", {a});
  const GateId inv2 = add("INVX1", {nl_.gate(inv1).outputs[0]});
  const GateId sink = add("INVX1", {nl_.gate(inv2).outputs[0]});
  nl_.mark_primary_output(nl_.gate(sink).outputs[0]);

  const GateId region[] = {inv1, inv2};
  const Subcircuit sub = extract_subcircuit(nl_, region).value();

  Netlist repl(lib_, "repl");
  const NetId ra = repl.add_primary_input();
  repl.mark_primary_output(ra);  // wire-through

  const auto added = replace_region(nl_, sub, repl).value();
  EXPECT_TRUE(added.empty());
  EXPECT_TRUE(nl_.validate().empty());
  // The surviving sink now reads the primary input directly.
  EXPECT_EQ(nl_.gate(sink).fanin[0], a);
}

TEST_F(NetlistTest, ValidateCatchesArityMismatch) {
  // add_gate_driving asserts in debug; craft a subtler issue instead:
  // a net marked PO but never driven.
  const NetId n = nl_.add_net();
  nl_.mark_primary_output(n);
  const auto problems = nl_.validate();
  ASSERT_FALSE(problems.empty());
}

}  // namespace
}  // namespace dfmres
