#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/dfm/checker.hpp"
#include "src/dfm/guidelines.hpp"
#include "src/layout/floorplan.hpp"
#include "src/library/osu018.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"
#include "src/synth/mapper.hpp"

namespace dfmres {
namespace {

TEST(Guidelines, PaperCounts) {
  // 19 Via + 29 Metal + 11 Density guidelines (paper Section IV).
  EXPECT_EQ(kNumViaGuidelines, 19);
  EXPECT_EQ(kNumMetalGuidelines, 29);
  EXPECT_EQ(kNumDensityGuidelines, 11);
  EXPECT_EQ(all_guidelines().size(), 59u);
  int via = 0, metal = 0, density = 0;
  for (const Guideline& g : all_guidelines()) {
    switch (g.category) {
      case GuidelineCategory::Via: ++via; break;
      case GuidelineCategory::Metal: ++metal; break;
      case GuidelineCategory::Density: ++density; break;
    }
  }
  EXPECT_EQ(via, kNumViaGuidelines);
  EXPECT_EQ(metal, kNumMetalGuidelines);
  EXPECT_EQ(density, kNumDensityGuidelines);
}

TEST(Guidelines, IdsRoundTrip) {
  for (std::uint16_t id = 0; id < kNumGuidelines; ++id) {
    const Guideline& g = all_guidelines()[id];
    EXPECT_EQ(guideline_id(g.category, g.index_in_category), id);
  }
}

TEST(Guidelines, SelectionIsDeterministic) {
  for (int i = 0; i < 50; ++i) {
    const bool a = cell_defect_selected("FAX1", i, 28,
                                        DefectKind::TransistorStuckOpen,
                                        false);
    const bool b = cell_defect_selected("FAX1", i, 28,
                                        DefectKind::TransistorStuckOpen,
                                        false);
    EXPECT_EQ(a, b);
  }
}

TEST(Guidelines, MaskedSitesAreLikelierViolations) {
  int plain = 0, masked = 0;
  for (int i = 0; i < 200; ++i) {
    plain += cell_defect_selected("X", i, 8, DefectKind::TransistorStuckOpen,
                                  false);
    masked += cell_defect_selected("X", i, 8,
                                   DefectKind::TransistorStuckOpen, true);
  }
  EXPECT_GT(masked, plain);
}

class DfmExtraction : public ::testing::Test {
 protected:
  DfmExtraction()
      : lib_(osu018_library()), udfm_(*lib_), nl_(make_block()) {
    plan_ = make_floorplan(nl_);
    placement_ = global_place(nl_, plan_, {});
    routes_ = route(nl_, placement_, {});
    universe_ = extract_dfm_faults(nl_, placement_, routes_, udfm_);
  }

  static Netlist make_block() { return map_block("sparc_lsu"); }

 public:
  static Netlist map_block(std::string_view name) {
    const Netlist rtl = build_benchmark(name).value();
    MapOptions mo;
    const auto glib = generic_library();
    const auto tlib = osu018_library();
    mo.fixed_map.emplace(glib->require("DFF").value(),
                         tlib->require("DFFPOSX1"));
    mo.fixed_map.emplace(glib->require("FA").value(), tlib->require("FAX1"));
    mo.fixed_map.emplace(glib->require("HA").value(), tlib->require("HAX1"));
    return *technology_map(rtl, tlib, mo);
  }

 protected:
  std::shared_ptr<const Library> lib_;
  UdfmMap udfm_;
  Netlist nl_;
  Floorplan plan_;
  Placement placement_;
  RoutingResult routes_;
  FaultUniverse universe_;
};

TEST_F(DfmExtraction, FaultsReferenceLiveObjects) {
  for (const Fault& f : universe_.faults) {
    EXPECT_TRUE(nl_.net_alive(f.victim));
    EXPECT_LT(f.guideline, kNumGuidelines);
    if (f.scope == FaultScope::Internal) {
      ASSERT_TRUE(nl_.gate_alive(f.owner));
      EXPECT_EQ(f.kind, FaultKind::CellAware);
      EXPECT_LT(f.udfm_index,
                udfm_.of(nl_.gate(f.owner).cell).num_faults());
    }
    if (f.kind == FaultKind::Bridge) {
      ASSERT_TRUE(nl_.net_alive(f.aggressor));
      EXPECT_NE(f.victim, f.aggressor);
    }
  }
}

TEST_F(DfmExtraction, ExternalFaultsAreDedupedPerNetAndGuideline) {
  std::set<std::tuple<std::uint32_t, std::uint16_t, bool>> seen;
  for (const Fault& f : universe_.faults) {
    if (f.scope != FaultScope::External || f.kind == FaultKind::Bridge) {
      continue;
    }
    EXPECT_TRUE(seen.emplace(f.victim.value(), f.guideline, f.value).second)
        << "duplicate external fault on net " << f.victim.value();
  }
}

TEST_F(DfmExtraction, InternalCountsMatchPerCellHelper) {
  std::size_t expected = 0;
  for (GateId g : nl_.live_gates()) {
    if (nl_.cell_of(g).sequential) continue;
    expected += internal_fault_count(*lib_, udfm_, nl_.gate(g).cell);
  }
  // extract adds extra multiplicity for charge-sharing-masked sites;
  // every per-cell selected fault appears at least once.
  EXPECT_GE(universe_.count_internal(), expected);
}

TEST_F(DfmExtraction, ShapeMatchesPaperSectionII) {
  // F_Ex > F_In (more external than internal guideline faults)...
  EXPECT_GT(universe_.count_external(), universe_.count_internal() / 2);
  // ...and every guideline category contributes faults.
  const auto per = universe_.per_guideline(kNumGuidelines);
  std::size_t via = 0, metal = 0, density = 0;
  for (std::uint16_t id = 0; id < kNumGuidelines; ++id) {
    switch (all_guidelines()[id].category) {
      case GuidelineCategory::Via: via += per[id]; break;
      case GuidelineCategory::Metal: metal += per[id]; break;
      case GuidelineCategory::Density: density += per[id]; break;
    }
  }
  EXPECT_GT(via, 0u);
  EXPECT_GT(metal, 0u);
  EXPECT_GT(density, 0u);
}

TEST_F(DfmExtraction, InternalFaultsAreLayoutIndependent) {
  // The internal universe must not depend on placement/routing
  // (Section III-B: PDesign() is gated on internal counts alone).
  const FaultUniverse internal_only = extract_internal_faults(nl_, udfm_);
  EXPECT_EQ(internal_only.size(), universe_.count_internal());
  PlaceOptions other;
  other.seed = 99;
  const Placement placement2 = global_place(nl_, plan_, other);
  const RoutingResult routes2 = route(nl_, placement2, {});
  const FaultUniverse universe2 =
      extract_dfm_faults(nl_, placement2, routes2, udfm_);
  EXPECT_EQ(universe2.count_internal(), universe_.count_internal());
}

// ---------------------------------------------------------------------
// Reference extractor: the guideline rules written out plainly, sharing
// no code with checker.cpp. Every segment pair on a line is examined,
// targets are deduplicated in std::sets and each density window counts
// its nets' gcells in a std::map.
// ---------------------------------------------------------------------

using KeyedFault = std::tuple<int, int, std::uint32_t, std::uint32_t,
                              std::uint32_t, std::uint32_t, bool,
                              std::uint16_t>;

KeyedFault keyed(const Fault& f) {
  const Fault::Key k = f.key();
  return {k.kind,  k.bridge_type, k.victim, k.aggressor,
          k.owner, k.udfm_index,  k.value,  f.guideline};
}

double threshold(GuidelineCategory cat, int index) {
  return all_guidelines()[guideline_id(cat, index)].threshold;
}

/// The family in [first, last] with the largest threshold `value`
/// reaches, or -1.
int ref_high(GuidelineCategory cat, int first, int last, double value) {
  int best = -1;
  for (int i = first; i <= last; ++i) {
    if (value >= threshold(cat, i) &&
        (best < 0 || threshold(cat, i) > threshold(cat, best))) {
      best = i;
    }
  }
  return best;
}

/// The family in [first, last] with the smallest threshold `value` is
/// at or under, or -1.
int ref_low(GuidelineCategory cat, int first, int last, double value) {
  int best = -1;
  for (int i = first; i <= last; ++i) {
    if (value <= threshold(cat, i) &&
        (best < 0 || threshold(cat, i) < threshold(cat, best))) {
      best = i;
    }
  }
  return best;
}

std::vector<KeyedFault> reference_extract(const Netlist& nl,
                                          const Placement& pl,
                                          const RoutingResult& routes,
                                          const UdfmMap& udfm) {
  std::vector<KeyedFault> out;
  // Intra-cell: every selected defect site of every combinational
  // instance; charge-sharing-masked sites also violate the next two
  // guidelines of their family.
  for (GateId g : nl.live_gates()) {
    const CellSpec& spec = nl.cell_of(g);
    if (spec.sequential || spec.network.empty()) continue;
    const CellUdfm& cu = udfm.of(nl.gate(g).cell);
    for (std::size_t i = 0; i < cu.faults.size(); ++i) {
      const bool masked = cu.faults[i].patterns.empty();
      if (!cell_defect_selected(spec.name, i,
                                spec.network.transistors.size(),
                                cu.faults[i].defect.kind, masked)) {
        continue;
      }
      Fault f;
      f.kind = FaultKind::CellAware;
      f.scope = FaultScope::Internal;
      f.owner = g;
      f.victim = nl.gate(g).outputs[0];
      f.udfm_index = static_cast<std::uint32_t>(i);
      CellDefect d = cu.faults[i].defect;
      for (int extra = 0; extra <= (masked ? 2 : 0); ++extra) {
        f.guideline = guideline_for_cell_defect(
            {d.kind, static_cast<std::uint16_t>(d.a + extra), d.b});
        out.push_back(keyed(f));
      }
    }
  }

  // Single-net targets: both values, once per (net, guideline).
  std::set<std::pair<std::uint32_t, std::uint16_t>> targets;
  const auto target = [&](FaultKind kind, NetId net, GuidelineCategory cat,
                          int fam) {
    if (fam < 0) return;
    const std::uint16_t gid = guideline_id(cat, fam);
    if (!targets.emplace(net.value(), gid).second) return;
    for (const bool v : {false, true}) {
      Fault f;
      f.kind = kind;
      f.scope = FaultScope::External;
      f.victim = net;
      f.value = v;
      f.guideline = gid;
      out.push_back(keyed(f));
    }
  };
  constexpr auto kVia = GuidelineCategory::Via;
  constexpr auto kMetal = GuidelineCategory::Metal;
  constexpr auto kDensity = GuidelineCategory::Density;
  for (const Via& via : routes.vias) {
    if (via.redundant) continue;
    const double wl = routes.nets[via.net.value()].wirelength;
    target(FaultKind::Transition, via.net, kVia, ref_high(kVia, 11, 14, wl));
    if (via.at_segment_end) {
      target(FaultKind::StuckAt, via.net, kVia, ref_high(kVia, 17, 18, wl));
    }
  }
  for (NetId net : nl.live_nets()) {
    const NetRoute& nr = routes.nets[net.value()];
    target(FaultKind::Transition, net, kVia,
           ref_high(kVia, 15, 16, nr.num_vias));
    target(FaultKind::StuckAt, net, kMetal,
           ref_high(kMetal, 24, 26, nr.wirelength));
    target(FaultKind::Transition, net, kMetal,
           ref_high(kMetal, 27, 28, nr.max_congestion_pct / 100.0));
  }

  // Parallel runs: every pair of segments on one line, adjacent tracks,
  // different nets; four dominant bridges once per (pair, guideline).
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t>> pairs;
  const auto& segs = routes.segments;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      const RouteSegment& a = segs[i];
      const RouteSegment& b = segs[j];
      if (a.horizontal != b.horizontal || a.fixed != b.fixed) continue;
      if (a.net == b.net) continue;
      if (std::abs(routes.track_of(a.net) - routes.track_of(b.net)) != 1) {
        continue;
      }
      const int overlap = std::min(a.hi, b.hi) - std::max(a.lo, b.lo) + 1;
      const int fam = ref_high(kMetal, 18, 23, overlap);
      if (fam < 0) continue;
      const std::uint16_t gid = guideline_id(kMetal, fam);
      const auto lo_net = std::min(a.net, b.net);
      const auto hi_net = std::max(a.net, b.net);
      if (!pairs.emplace(lo_net.value(), hi_net.value(), gid).second) {
        continue;
      }
      for (const BridgeType type : {BridgeType::DomAnd, BridgeType::DomOr}) {
        for (const auto& [victim, aggressor] :
             {std::pair{lo_net, hi_net}, std::pair{hi_net, lo_net}}) {
          Fault f;
          f.kind = FaultKind::Bridge;
          f.scope = FaultScope::External;
          f.victim = victim;
          f.aggressor = aggressor;
          f.bridge_type = type;
          f.guideline = gid;
          out.push_back(keyed(f));
        }
      }
    }
  }

  // Density: 4x4-gcell windows at stride 2. A window's families apply
  // to every net whose wires pass through at least two of its gcells.
  const int gw = routes.grid_w, gh = routes.grid_h;
  std::vector<double> occupancy(static_cast<std::size_t>(gw) * gh, 0.0);
  for (GateId g : nl.live_gates()) {
    const auto& p = pl.of(g);
    if (!p.valid()) continue;
    const int gx = std::clamp(p.x / routes.options.gcell_sites, 0, gw - 1);
    const int gy = std::clamp(p.y / routes.options.gcell_rows, 0, gh - 1);
    occupancy[routes.cell(gx, gy)] +=
        static_cast<double>(nl.cell_of(g).width_sites) /
        (routes.options.gcell_sites * routes.options.gcell_rows);
  }
  std::map<std::size_t, std::set<std::uint32_t>> nets_at;
  for (const RouteSegment& s : segs) {
    for (int t = s.lo; t <= s.hi; ++t) {
      nets_at[s.horizontal ? routes.cell(t, s.fixed)
                           : routes.cell(s.fixed, t)]
          .insert(s.net.value());
    }
  }
  const double cap2 = 2.0 * routes.options.capacity_per_layer;
  for (int wy = 0; wy < gh; wy += 2) {
    for (int wx = 0; wx < gw; wx += 2) {
      double util = 0.0, wiring = 0.0;
      int cells = 0;
      std::map<std::uint32_t, int> gcells_of;
      for (int y = wy; y < std::min(wy + 4, gh); ++y) {
        for (int x = wx; x < std::min(wx + 4, gw); ++x) {
          const std::size_t c = routes.cell(x, y);
          util += occupancy[c];
          wiring += (routes.h_usage[c] + routes.v_usage[c]) / cap2;
          ++cells;
          for (const std::uint32_t n : nets_at[c]) ++gcells_of[n];
        }
      }
      util /= cells;
      wiring /= cells;
      for (const int fam : {ref_high(kDensity, 0, 3, util),
                            ref_low(kDensity, 4, 7, util),
                            ref_high(kDensity, 8, 10, wiring)}) {
        for (const auto& [n, count] : gcells_of) {
          if (count >= 2) {
            target(FaultKind::Transition, NetId{n}, kDensity, fam);
          }
        }
      }
    }
  }
  return out;
}

class DfmOracle : public ::testing::TestWithParam<std::string> {};

/// extract_dfm_faults and the reference yield the same multiset of
/// (fault key, guideline) on every Table-II block.
TEST_P(DfmOracle, ExtractionMatchesReference) {
  const auto lib = osu018_library();
  const UdfmMap udfm(*lib);
  const Netlist nl = DfmExtraction::map_block(GetParam());
  const Placement pl = global_place(nl, make_floorplan(nl), {});
  const RoutingResult routes = route(nl, pl, {});

  std::vector<KeyedFault> got;
  for (const Fault& f : extract_dfm_faults(nl, pl, routes, udfm).faults) {
    got.push_back(keyed(f));
  }
  std::vector<KeyedFault> want = reference_extract(nl, pl, routes, udfm);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

INSTANTIATE_TEST_SUITE_P(
    TableII, DfmOracle, ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const std::string_view name : benchmark_names()) {
        names.emplace_back(name);
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace dfmres
