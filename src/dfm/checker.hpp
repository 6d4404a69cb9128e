#pragma once

#include "src/dfm/guidelines.hpp"
#include "src/faults/fault.hpp"
#include "src/faults/udfm_map.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"

namespace dfmres {

/// Number of internal DFM faults one instance of `cell` contributes (the
/// selected subset of its enumerated defect sites). This is the quantity
/// the resynthesis procedure orders library cells by (Section III-B).
[[nodiscard]] std::size_t internal_fault_count(const Library& lib,
                                               const UdfmMap& udfm,
                                               CellId cell);

/// Internal (cell-aware) faults only — the layout-independent part of
/// the universe, used to gate PDesign() during resynthesis (paper
/// Section III-B: internal faults depend only on which cells are used).
[[nodiscard]] FaultUniverse extract_internal_faults(const Netlist& nl,
                                                    const UdfmMap& udfm);

/// Work done by one extraction, for trace spans and benchmarks.
struct ExtractStats {
  std::uint64_t bridge_pairs = 0;  ///< same-line segment pairs examined
  std::uint64_t windows = 0;       ///< density windows evaluated
};

/// Scans the placed-and-routed design against all 59 DFM guidelines and
/// translates every violation into logic faults:
///  - intra-cell violations -> cell-aware (UDFM) internal faults,
///  - via opens / weak vias  -> stuck-at and transition faults,
///  - metal spacing runs     -> 4-way dominant bridge faults,
///  - density windows        -> transition faults on crossing nets.
/// Duplicate logic faults from distinct physical sites are kept (each is
/// its own violation, as in the paper's fault counts).
[[nodiscard]] FaultUniverse extract_dfm_faults(const Netlist& nl,
                                               const Placement& pl,
                                               const RoutingResult& routes,
                                               const UdfmMap& udfm,
                                               ExtractStats* stats = nullptr);

}  // namespace dfmres
