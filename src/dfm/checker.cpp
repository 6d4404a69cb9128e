#include "src/dfm/checker.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

namespace dfmres {

namespace {

/// Largest guideline threshold in [first, last] (category-relative
/// indices) that `value` still violates (value >= threshold); -1 if none.
/// "Tightest family" assignment keeps one family per violation.
int tightest_family(GuidelineCategory cat, int first, int last,
                    double value) {
  const auto guidelines = all_guidelines();
  int best = -1;
  double best_threshold = -1.0;
  for (int i = first; i <= last; ++i) {
    const Guideline& g = guidelines[guideline_id(cat, i)];
    if (value >= g.threshold && g.threshold > best_threshold) {
      best_threshold = g.threshold;
      best = i;
    }
  }
  return best;
}

/// Low-side variant: violates when value <= threshold; picks smallest.
int tightest_family_low(GuidelineCategory cat, int first, int last,
                        double value) {
  const auto guidelines = all_guidelines();
  int best = -1;
  double best_threshold = 2.0;
  for (int i = first; i <= last; ++i) {
    const Guideline& g = guidelines[guideline_id(cat, i)];
    if (value <= g.threshold && g.threshold < best_threshold) {
      best_threshold = g.threshold;
      best = i;
    }
  }
  return best;
}

/// Metal-category indices of the parallel-run bridge families.
constexpr int kRunFirst = 18, kRunLast = 23;

/// Shortest overlap any parallel-run family flags.
int min_parallel_run() {
  int len = 0;
  while (tightest_family(GuidelineCategory::Metal, kRunFirst, kRunLast,
                         len) < 0) {
    ++len;
  }
  return len;
}

/// Indices of `cell`'s enumerated defect sites that are guideline
/// violations in its layout, in enumeration order.
std::vector<std::uint32_t> selected_defects(const CellSpec& spec,
                                            const CellUdfm& cu) {
  std::vector<std::uint32_t> selected;
  for (std::size_t i = 0; i < cu.faults.size(); ++i) {
    if (cell_defect_selected(spec.name, i, spec.network.transistors.size(),
                             cu.faults[i].defect.kind,
                             cu.faults[i].patterns.empty())) {
      selected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return selected;
}

}  // namespace

std::size_t internal_fault_count(const Library& lib, const UdfmMap& udfm,
                                 CellId cell) {
  return selected_defects(lib.cell(cell), udfm.of(cell)).size();
}

FaultUniverse extract_internal_faults(const Netlist& nl,
                                      const UdfmMap& udfm) {
  FaultUniverse universe;
  // The selection depends on the cell type only: evaluate it once per
  // type used, not once per instance.
  std::vector<std::optional<std::vector<std::uint32_t>>> selected(
      nl.library().num_cells());
  for (GateId g : nl.live_gates()) {
    const CellSpec& spec = nl.cell_of(g);
    if (spec.sequential || spec.network.empty()) continue;
    const CellId cell = nl.gate(g).cell;
    const CellUdfm& cu = udfm.of(cell);
    auto& sites = selected[cell.value()];
    if (!sites) sites = selected_defects(spec, cu);
    for (const std::uint32_t i : *sites) {
      Fault f;
      f.kind = FaultKind::CellAware;
      f.scope = FaultScope::Internal;
      f.owner = g;
      f.victim = nl.gate(g).outputs[0];
      f.cell_output = 0;
      f.udfm_index = i;
      f.guideline = guideline_for_cell_defect(cu.faults[i].defect);
      universe.faults.push_back(f);
      // Charge-sharing-masked sites sit at marginal geometries that
      // co-violate the sibling guidelines of their family; each
      // violation is counted (ATPG collapses the duplicates by key).
      if (cu.faults[i].patterns.empty()) {
        for (int extra = 1; extra <= 2; ++extra) {
          Fault dup = f;
          dup.guideline = guideline_for_cell_defect(
              {cu.faults[i].defect.kind,
               static_cast<std::uint16_t>(cu.faults[i].defect.a + extra),
               cu.faults[i].defect.b});
          universe.faults.push_back(dup);
        }
      }
    }
  }
  return universe;
}

FaultUniverse extract_dfm_faults(const Netlist& nl, const Placement& pl,
                                 const RoutingResult& routes,
                                 const UdfmMap& udfm, ExtractStats* stats) {
  FaultUniverse universe = extract_internal_faults(nl, udfm);
  auto& out = universe.faults;
  ExtractStats work;

  // Multiple physical sites can violate the same guideline on the same
  // net; the fault list (like a production ATPG fault list) carries one
  // logic fault per distinct (net, guideline) target. One guideline
  // bitset per net slot records the targets already emitted.
  static_assert(kNumGuidelines <= 64);
  std::vector<std::uint64_t> seen(nl.net_capacity(), 0);
  const auto push_pair = [&](FaultKind kind, NetId net,
                             std::uint16_t guideline) {
    std::uint64_t& word = seen[net.value()];
    const std::uint64_t bit = std::uint64_t{1} << guideline;
    if ((word & bit) != 0) return;
    word |= bit;
    for (const bool v : {false, true}) {
      Fault f;
      f.kind = kind;
      f.scope = FaultScope::External;
      f.victim = net;
      f.value = v;
      f.guideline = guideline;
      out.push_back(f);
    }
  };

  // ---- Via guidelines on the routed design ----
  for (const Via& via : routes.vias) {
    const double wl = routes.nets[via.net.value()].wirelength;
    if (!via.redundant) {
      if (const int fam = tightest_family(GuidelineCategory::Via, 11, 14, wl);
          fam >= 0) {
        push_pair(FaultKind::Transition, via.net,
                  guideline_id(GuidelineCategory::Via, fam));
      }
      if (via.at_segment_end) {
        if (const int fam =
                tightest_family(GuidelineCategory::Via, 17, 18, wl);
            fam >= 0) {
          push_pair(FaultKind::StuckAt, via.net,
                    guideline_id(GuidelineCategory::Via, fam));
        }
      }
    }
  }
  for (NetId net : nl.live_nets()) {
    const NetRoute& nr = routes.nets[net.value()];
    if (const int fam = tightest_family(GuidelineCategory::Via, 15, 16,
                                        nr.num_vias);
        fam >= 0) {
      push_pair(FaultKind::Transition, net,
                guideline_id(GuidelineCategory::Via, fam));
    }
    // Metal: long narrow wires (opens) and congested jogs (resistive).
    if (const int fam = tightest_family(GuidelineCategory::Metal, 24, 26,
                                        nr.wirelength);
        fam >= 0) {
      push_pair(FaultKind::StuckAt, net,
                guideline_id(GuidelineCategory::Metal, fam));
    }
    if (const int fam = tightest_family(GuidelineCategory::Metal, 27, 28,
                                        nr.max_congestion_pct / 100.0);
        fam >= 0) {
      push_pair(FaultKind::Transition, net,
                guideline_id(GuidelineCategory::Metal, fam));
    }
  }

  // ---- Metal parallel-run bridges ----
  {
    // One record per segment, its net's track computed once. Lines are
    // indexed densely by (orientation, coordinate): vertical columns,
    // then horizontal rows. Sorting by (line, lo, hi, net) groups each
    // line and fixes the scan order by geometry and net ids alone.
    struct LineSegment {
      int line, lo, hi;
      NetId net;
      int track;
    };
    std::vector<LineSegment> segs;
    segs.reserve(routes.segments.size());
    for (const RouteSegment& s : routes.segments) {
      segs.push_back({s.horizontal ? routes.grid_w + s.fixed : s.fixed, s.lo,
                      s.hi, s.net, routes.track_of(s.net)});
    }
    std::sort(segs.begin(), segs.end(),
              [](const LineSegment& a, const LineSegment& b) {
                return std::tie(a.line, a.lo, a.hi, a.net) <
                       std::tie(b.line, b.lo, b.hi, b.net);
              });
    // A pair reaches a family only if it overlaps by min_run gcells, the
    // shortest threshold. Sorted by lo, a's overlap with b is at most
    // a.hi - b.lo + 1, so once b.lo passes a.hi + 1 - min_run no later
    // segment on the line can reach one.
    const int min_run = min_parallel_run();
    // Bridge keys carry gids 37-42, which no single-net rule uses.
    std::set<std::uint64_t> bridged;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const LineSegment& a = segs[i];
      const int last_lo = a.hi + 1 - min_run;
      for (std::size_t j = i + 1; j < segs.size(); ++j) {
        const LineSegment& b = segs[j];
        if (b.line != a.line || b.lo > last_lo) break;
        ++work.bridge_pairs;
        if (a.net == b.net) continue;
        if (std::abs(a.track - b.track) != 1) continue;  // not adjacent
        const int overlap = std::min(a.hi, b.hi) - std::max(a.lo, b.lo) + 1;
        const int fam = tightest_family(GuidelineCategory::Metal, kRunFirst,
                                        kRunLast, overlap);
        if (fam < 0) continue;
        const std::uint16_t gid =
            guideline_id(GuidelineCategory::Metal, fam);
        const std::uint64_t pair_key =
            (static_cast<std::uint64_t>(
                 std::min(a.net.value(), b.net.value()))
             << 40) |
            (static_cast<std::uint64_t>(
                 std::max(a.net.value(), b.net.value()))
             << 8) |
            gid;
        if (!bridged.insert(pair_key).second) continue;
        for (const BridgeType type : {BridgeType::DomAnd, BridgeType::DomOr}) {
          for (const bool victim_is_a : {true, false}) {
            Fault f;
            f.kind = FaultKind::Bridge;
            f.scope = FaultScope::External;
            f.victim = victim_is_a ? a.net : b.net;
            f.aggressor = victim_is_a ? b.net : a.net;
            f.bridge_type = type;
            f.guideline = gid;
            out.push_back(f);
          }
        }
      }
    }
  }

  // ---- Density windows ----
  {
    // Per-gcell cell occupancy from the placement.
    const int gw = routes.grid_w, gh = routes.grid_h;
    const int gcell_sites = routes.options.gcell_sites *
                            routes.options.gcell_rows;
    std::vector<double> occupancy(static_cast<std::size_t>(gw) * gh, 0.0);
    for (GateId g : nl.live_gates()) {
      const auto& p = pl.of(g);
      if (!p.valid()) continue;
      const int gx = std::clamp(p.x / routes.options.gcell_sites, 0, gw - 1);
      const int gy = std::clamp(p.y / routes.options.gcell_rows, 0, gh - 1);
      occupancy[routes.cell(gx, gy)] +=
          static_cast<double>(nl.cell_of(g).width_sites) / gcell_sites;
    }
    // Nets present per gcell, deduplicated via a last-writer check, as
    // one CSR array: gcell c holds nets_in[nets_at[c], nets_at[c + 1]).
    // Pass 1 counts each gcell's entries, pass 2 fills them in routing
    // order.
    const std::size_t num_gcells = static_cast<std::size_t>(gw) * gh;
    const auto for_each_gcell = [&routes](const auto& visit) {
      for (const RouteSegment& s : routes.segments) {
        for (int t = s.lo; t <= s.hi; ++t) {
          const int x = s.horizontal ? t : s.fixed;
          const int y = s.horizontal ? s.fixed : t;
          visit(routes.cell(x, y), s.net);
        }
      }
    };
    std::vector<std::uint32_t> nets_at(num_gcells + 1, 0);
    {
      std::vector<NetId> last(num_gcells, NetId::invalid());
      for_each_gcell([&](std::size_t c, NetId net) {
        if (last[c] != net) {
          last[c] = net;
          ++nets_at[c + 1];
        }
      });
    }
    for (std::size_t c = 0; c < num_gcells; ++c) nets_at[c + 1] += nets_at[c];
    std::vector<NetId> nets_in(nets_at[num_gcells]);
    std::vector<std::uint32_t> fill(nets_at.begin(), nets_at.end() - 1);
    for_each_gcell([&](std::size_t c, NetId net) {
      if (fill[c] == nets_at[c] || nets_in[fill[c] - 1] != net) {
        nets_in[fill[c]++] = net;
      }
    });

    // Per-window gcell count of each net, and the nets in the order the
    // window first touches them (row-major gcells, routing order within).
    std::vector<int> net_gcells(nl.net_capacity(), 0);
    std::vector<NetId> touched;
    constexpr int kWindow = 4, kStride = 2;
    const double cap2 = 2.0 * routes.options.capacity_per_layer;
    for (int wy = 0; wy < gh; wy += kStride) {
      for (int wx = 0; wx < gw; wx += kStride) {
        const int x1 = std::min(wx + kWindow, gw);
        const int y1 = std::min(wy + kWindow, gh);
        double util = 0.0, wiring = 0.0;
        int cells = 0;
        for (int y = wy; y < y1; ++y) {
          for (int x = wx; x < x1; ++x) {
            const std::size_t c = routes.cell(x, y);
            util += occupancy[c];
            wiring += (routes.h_usage[c] + routes.v_usage[c]) / cap2;
            ++cells;
            for (std::uint32_t i = nets_at[c]; i < nets_at[c + 1]; ++i) {
              const NetId n = nets_in[i];
              if (net_gcells[n.value()]++ == 0) touched.push_back(n);
            }
          }
        }
        ++work.windows;
        util /= cells;
        wiring /= cells;

        int fam_high = tightest_family(GuidelineCategory::Density, 0, 3, util);
        int fam_low =
            tightest_family_low(GuidelineCategory::Density, 4, 7, util);
        int fam_wiring =
            tightest_family(GuidelineCategory::Density, 8, 10, wiring);
        for (const int fam : {fam_high, fam_low, fam_wiring}) {
          if (fam < 0) continue;
          const std::uint16_t gid =
              guideline_id(GuidelineCategory::Density, fam);
          for (const NetId n : touched) {
            // Only wires really inside the window.
            if (net_gcells[n.value()] >= 2) {
              push_pair(FaultKind::Transition, n, gid);
            }
          }
        }
        for (const NetId n : touched) net_gcells[n.value()] = 0;
        touched.clear();
      }
    }
  }

  if (stats != nullptr) *stats = work;
  return universe;
}

}  // namespace dfmres
