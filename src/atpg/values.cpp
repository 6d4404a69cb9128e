#include "src/atpg/values.hpp"

namespace dfmres {

V3 eval_cell_v3(const CellSpec& cell, int output, std::span<const V3> inputs) {
  // Collect X positions; enumerate their assignments.
  std::uint32_t base = 0;
  std::uint32_t x_positions[kMaxCellInputs] = {};
  int num_x = 0;
  for (int i = 0; i < cell.num_inputs; ++i) {
    switch (inputs[static_cast<std::size_t>(i)]) {
      case V3::One: base |= 1u << i; break;
      case V3::Zero: break;
      case V3::X: x_positions[num_x++] = static_cast<std::uint32_t>(i); break;
    }
  }
  bool first = true;
  bool value = false;
  for (std::uint32_t m = 0; m < (1u << num_x); ++m) {
    std::uint32_t pattern = base;
    for (int k = 0; k < num_x; ++k) {
      if ((m >> k) & 1u) pattern |= 1u << x_positions[k];
    }
    const bool v = cell.eval(output, pattern);
    if (first) {
      value = v;
      first = false;
    } else if (v != value) {
      return V3::X;
    }
  }
  return v3_of(value);
}

}  // namespace dfmres
