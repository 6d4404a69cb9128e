#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

#include "src/atpg/excitation.hpp"
#include "src/netlist/dense_view.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/cancel.hpp"
#include "src/util/rng.hpp"

namespace dfmres {

/// One test: a fully specified assignment per source (PIs and flop
/// outputs) for the initialization frame and the detection frame. In the
/// full-scan model the two frames are independent scan loads.
struct TestPattern {
  std::vector<std::uint8_t> frame0;
  std::vector<std::uint8_t> frame1;

  [[nodiscard]] bool operator==(const TestPattern&) const = default;
};

/// One fully random frame of `n` source bits — THE generator shared by
/// the ATPG engine's phase-1 batches and the baseline builder, so both
/// draw identical patterns from identically seeded rngs.
[[nodiscard]] std::vector<std::uint8_t> random_sim_frame(std::size_t n,
                                                         Rng& rng);

/// One batch of good-machine net values, both frames, one 64-lane word
/// per net slot of the view they were simulated over: lane L of the
/// batch in bit L of slot n's word. A batch carries up to 64 lanes.
struct GoodFrames {
  int lanes = 0;
  std::vector<std::uint64_t> good0, good1;  ///< net_slots words each
};

/// Committed-baseline good frames for copy-on-write probe replay: the
/// seed test set simulated once, per lane batch, over the committed
/// design. Speculative probes of candidates derived from that design
/// share these frames read-only and materialize only the slots their
/// edit dirties (see CowPlan / FaultSimulator::load_baseline).
struct SimBaseline {
  std::shared_ptr<const DenseView> view;  ///< the committed design's view
  std::vector<GoodFrames> batches;  ///< seeds packed 64 per batch
  std::size_t num_patterns = 0;
  std::size_t frame_width = 0;   ///< sources per pattern at build
  std::uint64_t seeds_hash = 0;  ///< digest of the seed patterns

  /// The engine's phase-1 random batches, pre-simulated as well: the
  /// patterns are a pure function of (rng seed, frame width) — phase 0
  /// never draws from the engine rng — so every probe whose diff keeps
  /// the sources intact (a precondition of CowPlan validity anyway)
  /// regenerates exactly these patterns and can overlay these frames.
  /// The engine double-checks by comparing the regenerated patterns to
  /// `random_patterns` before trusting a batch. `random_batch_count` is
  /// the configured number of 64-pattern engine batches, one stored
  /// GoodFrames each.
  std::uint64_t random_seed = 0;
  int random_batch_count = 0;
  std::vector<TestPattern> random_patterns;  ///< 64 per engine batch
  std::vector<GoodFrames> random_batches;

  [[nodiscard]] bool valid() const {
    return view != nullptr && num_patterns > 0;
  }
  void clear() {
    view.reset();
    batches.clear();
    num_patterns = 0;
    frame_width = 0;
    seeds_hash = 0;
    random_seed = 0;
    random_batch_count = 0;
    random_patterns.clear();
    random_batches.clear();
  }
};

/// Order-sensitive digest of a seed test set; pins a SimBaseline to the
/// exact patterns its frames were simulated from.
[[nodiscard]] std::uint64_t seed_tests_hash(std::span<const TestPattern> seeds);

/// Simulates `seeds` over `nl` once (64 lanes per batch, both frames)
/// into a shareable baseline.
/// `random_batches` > 0 additionally generates and simulates the
/// engine's deterministic phase-1 batches for `random_seed` (the
/// AtpgOptions seed the probes will run with).
[[nodiscard]] SimBaseline build_sim_baseline(
    const Netlist& nl, std::span<const TestPattern> seeds,
    std::uint64_t random_seed = 0, int random_batches = 0);

/// Re-anchors `base` onto `nl` (the new committed design) for the same
/// seed set: folds the structural diff into the stored frames when the
/// copy-on-write plan allows (O(cone) per batch), otherwise re-simulates
/// from scratch. When `seeds` differs from the set the baseline was
/// built from (hash mismatch), or the random-batch configuration
/// changed, the rebuild is always full.
void rebase_sim_baseline(SimBaseline& base, const Netlist& nl,
                         std::span<const TestPattern> seeds,
                         std::uint64_t random_seed = 0,
                         int random_batches = 0);

/// The structural diff of a candidate design against a baseline design,
/// over their DenseViews.
///
/// Two granularities, for two consumers:
///
/// - `seed_gates`/`seed_nets` are just the *edit itself*: gates whose
///   pin rows or cell changed (or are new), and net slots the baseline
///   frames cannot answer for (past their capacity, or newly undriven).
///   Overlay loads start an event-driven re-simulation from these and
///   stop wherever recomputed values equal the baseline frames — for a
///   function-preserving rewrite the wave dies at the region boundary,
///   so the materialized slots are O(edit), not O(fanout cone).
/// - `dirty`/`dirty_nets`/`dirty_gates` are the full forward
///   combinational closure of the seeds — the slots that could
///   *possibly* change. The rebase fold uses these to refresh committed
///   frames in place, and every value the overlay materializes provably
///   lies inside this set.
///
/// Both are purely structural — no functional-equivalence assumption —
/// so replaying them reproduces a full simulation bit for bit: a net
/// outside the closure (or inside it but with equal recomputed values
/// upstream) carries the same value in both designs.
///
/// `valid` is false when the overlay contract does not hold (source
/// vectors differ, or a sequential gate changed) and the caller must
/// fall back to full loads.
struct CowPlan {
  bool valid = false;
  std::vector<std::uint8_t> dirty;        ///< closure, per cand net slot
  std::vector<std::uint32_t> dirty_nets;  ///< slots with dirty == 1
  std::vector<std::uint32_t> dirty_gates; ///< closure gate slots, topo order
  std::vector<std::uint32_t> seed_gates;  ///< edited gate slots, topo order
  std::vector<std::uint32_t> seed_nets;   ///< slots with no baseline value
};

[[nodiscard]] CowPlan build_cow_plan(const DenseView& cand,
                                     const DenseView& base);

/// 64-lane single-fault simulator with event-driven cone propagation:
/// one std::uint64_t word per net slot carries 64 pattern lanes. Load a
/// batch of tests, then query detection masks fault by fault (the
/// engine drops detected faults as it goes).
///
/// Good-value frames are bound, not owned: a full `load` simulates into
/// this instance's own frame arrays; `load_from` aliases another
/// instance's bound frames (zero copies); `load_baseline` aliases a
/// SimBaseline batch plus a private overlay holding only the dirty
/// slots. Aliased frames stay valid until their owner's next
/// load/rebind (or destruction) — the engine's master/worker sweep
/// contract (master loads, workers adopt, nobody loads mid-sweep)
/// satisfies this by construction.
///
/// Threading model: `detect_mask` reads the bound good-value frames but
/// mutates the `faulty_`/`stamp_`/`scheduled_` scratch, so a simulator
/// instance must never be shared between threads. Concurrent instances
/// may read the same bound frames (nobody writes them during a sweep).
class FaultSimulator {
 public:
  explicit FaultSimulator(std::shared_ptr<const DenseView> view);
  /// Convenience: builds a private DenseView over (nl, view).
  FaultSimulator(const Netlist& nl, const CombView& view);

  /// Re-targets this simulator at another design, reusing the
  /// already-allocated frame and scratch buffers (they only grow).
  /// Resets lanes, epochs, stale event/touched scratch, and the
  /// per-instance counters, so a rebound simulator reports counters for
  /// the new binding only.
  void rebind(std::shared_ptr<const DenseView> view);
  void rebind(const Netlist& nl, const CombView& view);

  /// Packs tests[first..first+count) into the lanes (up to kLanes) and
  /// simulates the good machine for both frames in one fused
  /// topological pass (a full O(netlist) materialization).
  void load(std::span<const TestPattern> tests, std::size_t first,
            std::size_t count);

  /// Adopts another simulator's bound batch (frames + lane count)
  /// without copying. Both instances must be bound to the same design;
  /// the adopted frames alias `other`'s and follow its lifetime rules.
  void load_from(const FaultSimulator& other);

  /// Copy-on-write batch load: binds baseline batch `batch` read-only
  /// and event-drives a re-simulation from `plan.seed_gates` into a
  /// private overlay, cutting off wherever recomputed values equal the
  /// baseline frames — O(values actually changed) materialized frame
  /// bytes instead of O(netlist). `plan` must have been built from this
  /// simulator's view against `base.view` and is borrowed until the
  /// next load/rebind; `count` must equal the batch's lane count.
  void load_baseline(const SimBaseline& base, const CowPlan& plan,
                     std::size_t batch, std::size_t count);

  /// Same, over the baseline's pre-simulated phase-1 random batch
  /// `batch` (see SimBaseline::random_batches). The caller must have
  /// checked that its regenerated patterns equal the stored ones.
  void load_baseline_random(const SimBaseline& base, const CowPlan& plan,
                            std::size_t batch, std::size_t count);

  /// Lane mask of the loaded tests that detect a fault with the given
  /// excitations (bit L = lane L). With an expired cancel token the
  /// query short-circuits to zero ("not detected") — only valid when
  /// the caller discards cancelled runs.
  [[nodiscard]] std::uint64_t detect_mask(
      std::span<const Excitation> excitations);

  /// Installs a cooperative cancel token polled at detect_mask entry
  /// (nullptr = never cancelled). Sweep workers inherit it via the
  /// options of the run that acquired them, not via load_from.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// Lanes one batch carries: one bit of a std::uint64_t word each.
  static constexpr std::size_t kLanes = 64;

  [[nodiscard]] int lanes() const { return lanes_; }
  [[nodiscard]] const DenseView& view() const { return *view_; }
  [[nodiscard]] const std::shared_ptr<const DenseView>& view_ptr() const {
    return view_;
  }

  /// Test frames simulated by `load`/`load_baseline` on this instance
  /// (2 per pattern).
  [[nodiscard]] std::uint64_t patterns_simulated() const {
    return patterns_simulated_;
  }
  /// `detect_mask` queries answered by this instance.
  [[nodiscard]] std::uint64_t detect_mask_calls() const {
    return detect_mask_calls_;
  }
  /// Faulty-value net updates during event-driven propagation (one per
  /// word update, covering all 64 lanes at once).
  [[nodiscard]] std::uint64_t propagation_events() const {
    return propagation_events_;
  }
  /// Good-frame bytes written by loads on this instance: 16 per net
  /// slot for a full load, 16 per dirty slot for an overlay load,
  /// zero for load_from. The bytes-per-probe number the overlay work is
  /// about.
  [[nodiscard]] std::uint64_t frame_bytes_materialized() const {
    return frame_bytes_materialized_;
  }
  [[nodiscard]] std::uint64_t full_loads() const { return full_loads_; }
  [[nodiscard]] std::uint64_t overlay_loads() const { return overlay_loads_; }
  /// Sum of dirty-slot counts over the overlay loads.
  [[nodiscard]] std::uint64_t overlay_dirty_nets() const {
    return overlay_dirty_nets_;
  }
  /// Wall time spent inside load/load_baseline.
  [[nodiscard]] double load_seconds() const { return load_seconds_; }

 private:
  void bind_own_frames();
  /// Sets lanes_ and the matching low-bit lane_mask_.
  void set_lanes(std::size_t count);
  /// Shared body of the two baseline loads: bind `gf` read-only and
  /// materialize the plan's dirty slots into the private overlay.
  void load_overlay_frames(const GoodFrames& gf, const CowPlan& plan,
                           std::size_t count);

  /// Good value of net slot `n` in frame 0/1. In full mode dirty_ is
  /// null and values come straight from the bound frames; in overlay
  /// mode a marked slot reads its materialized word.
  [[nodiscard]] std::uint64_t g0(std::uint32_t n) const {
    return (dirty_ != nullptr && dirty_[n]) ? o0_[n] : g0_[n];
  }
  [[nodiscard]] std::uint64_t g1(std::uint32_t n) const {
    return (dirty_ != nullptr && dirty_[n]) ? o1_[n] : g1_[n];
  }

  std::shared_ptr<const DenseView> view_;
  int lanes_ = 0;
  /// Active-lane mask of the current batch (low `lanes_` bits), for tail
  /// masking and the all-lanes-detected early exit.
  std::uint64_t lane_mask_ = 0;
  // Owned frame storage (full loads) and overlay storage (CoW loads),
  // one word per net slot.
  std::vector<std::uint64_t> good0_, good1_;
  std::vector<std::uint64_t> ov0_, ov1_;
  // Source-packing scratch reused across loads (one word per source).
  std::vector<std::uint64_t> src0_, src1_;
  // Active bindings: base frames, overlay frames, dirty flags
  // (dirty_ == nullptr means full mode — no overlay indirection).
  const std::uint64_t* g0_ = nullptr;
  const std::uint64_t* g1_ = nullptr;
  const std::uint64_t* o0_ = nullptr;
  const std::uint64_t* o1_ = nullptr;
  const std::uint8_t* dirty_ = nullptr;
  // Per-batch dynamic dirty set of the current overlay load (the slots
  // whose recomputed values actually differ from the baseline frames);
  // the list undoes the flags on the next load without an O(netlist)
  // clear. dirty_ points at ov_dirty_ in overlay mode.
  std::vector<std::uint8_t> ov_dirty_;
  std::vector<std::uint32_t> ov_dirty_list_;
  // Copy-on-write faulty values (one word per net slot) with per-slot
  // epoch stamps (avoids clearing).
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  // Gate slot scratch; uint8_t instead of vector<bool> because the
  // bit-proxy read-modify-write sits on the event-propagation hot path.
  std::vector<std::uint8_t> scheduled_;
  // Per-excitation event scratch reused across detect_mask calls,
  // structure-of-arrays: the pending-event min-heap keeps topo positions
  // and gate slots in parallel arrays (the heap sifts touch only the
  // position lane; the gate ids ride along), and the nets whose faulty
  // value was stamped this epoch live in touched_nets_ (the only nets
  // that can disagree with the good machine at an observation point).
  std::vector<std::uint32_t> event_pos_;
  std::vector<std::uint32_t> event_gate_;
  std::vector<std::uint32_t> touched_gates_;
  std::vector<std::uint32_t> touched_nets_;
  std::uint64_t patterns_simulated_ = 0;
  std::uint64_t detect_mask_calls_ = 0;
  std::uint64_t propagation_events_ = 0;
  std::uint64_t frame_bytes_materialized_ = 0;
  std::uint64_t full_loads_ = 0;
  std::uint64_t overlay_loads_ = 0;
  std::uint64_t overlay_dirty_nets_ = 0;
  double load_seconds_ = 0.0;
  const CancelToken* cancel_ = nullptr;
};

/// Pool of reusable FaultSimulator instances, one per engine lane
/// (slot 0 = master, slots 1..N = parallel sweep workers). A DesignFlow
/// keeps one arena alive across `run_atpg` calls so the inner loop of
/// resynthesis stops paying a fresh round of frame/scratch allocations
/// per candidate evaluation. All slots of one run share the run's
/// DenseView (built once by the engine).
///
/// Not thread-safe: acquire all slots serially on the run's calling
/// thread (before fanning out) and hand each worker its own
/// `FaultSimulator&`. Debug builds assert the contract: worker slots
/// must be acquired from the same thread that last acquired slot 0.
class FaultSimArena {
 public:
  /// Returns the simulator in slot `index` rebound to `view`, creating
  /// it on first use. Rebinding resets counters and all batch/event
  /// scratch, so a slot reused across differently-sized designs carries
  /// nothing over.
  FaultSimulator& acquire(std::size_t index,
                          std::shared_ptr<const DenseView> view);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<FaultSimulator>> slots_;
#ifndef NDEBUG
  std::thread::id owner_{};
#endif
};

}  // namespace dfmres
