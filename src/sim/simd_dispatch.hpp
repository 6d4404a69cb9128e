#pragma once

// The fault-simulation kernel, stated for run reports and benchmarks:
// one 64-lane std::uint64_t kernel (src/atpg/fault_sim.cpp), so the
// stamp is always "scalar" with a width of one word.

namespace dfmres {

enum class SimdMode { kScalar };

[[nodiscard]] constexpr SimdMode global_simd_mode() { return SimdMode::kScalar; }
[[nodiscard]] constexpr SimdMode resolve_simd_mode(SimdMode mode) { return mode; }
[[nodiscard]] constexpr const char* simd_mode_name(SimdMode) { return "scalar"; }
/// Lane-group width of the kernel, in 64-bit words.
[[nodiscard]] constexpr int simd_mode_words(SimdMode) { return 1; }

}  // namespace dfmres
