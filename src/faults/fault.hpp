#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/ids.hpp"

namespace dfmres {

class Netlist;

/// Logic fault models the DFM violations translate to (paper Section II):
/// stuck-at and transition faults for opens, 4-way dominant bridges for
/// shorts between nets, and UDFM cell-aware faults for defects inside
/// standard cells.
enum class FaultKind : std::uint8_t { StuckAt, Transition, Bridge, CellAware };

enum class FaultScope : std::uint8_t { Internal, External };

/// Dominant bridge flavor: the aggressor forces the victim when it holds
/// the dominant value (wired-AND: 0 dominates; wired-OR: 1 dominates).
enum class BridgeType : std::uint8_t { DomAnd, DomOr };

struct Fault {
  FaultKind kind = FaultKind::StuckAt;
  FaultScope scope = FaultScope::External;
  /// StuckAt/Transition/Bridge: the faulted net. CellAware: the first
  /// output net of the owning gate (anchor for clustering; per-pattern
  /// victims come from the UDFM).
  NetId victim;
  /// StuckAt: stuck value. Transition: the value the net is stuck at
  /// during the failing transition (0 = slow-to-rise). Bridge: unused.
  bool value = false;
  NetId aggressor;                       ///< Bridge only
  BridgeType bridge_type = BridgeType::DomAnd;
  GateId owner;                          ///< CellAware: owning gate
  std::uint8_t cell_output = 0;          ///< CellAware anchor output pin
  std::uint32_t udfm_index = 0;          ///< CellAware: index into CellUdfm
  std::uint16_t guideline = 0;           ///< producing DFM guideline id

  /// Identity for status caching: everything that determines
  /// detectability (guideline id excluded — the same logical fault can be
  /// flagged by several guidelines).
  struct Key {
    std::uint8_t kind, bridge_type;
    std::uint32_t victim, aggressor, owner, udfm_index;
    bool value;

    friend bool operator==(const Key&, const Key&) = default;
  };
  [[nodiscard]] Key key() const {
    return {static_cast<std::uint8_t>(kind),
            static_cast<std::uint8_t>(bridge_type),
            victim.value(),
            aggressor.value(),
            owner.value(),
            udfm_index,
            value};
  }
};

/// Gates that *correspond* to a fault (paper Section II): the owner for
/// an internal fault; the driver and sinks of the victim net (and the
/// aggressor net for bridges) for an external fault.
[[nodiscard]] std::vector<GateId> corresponding_gates(const Fault& fault,
                                                      const Netlist& nl);

/// Flat hash map keyed by Fault::Key. Entries live in a dense vector in
/// insertion order (iteration visits each key once, in first-insertion
/// order); a power-of-two index of uint32_t slots (0 = empty, else entry
/// position + 1) is probed linearly and kept at most half full. The
/// fault-status memo and the engine's duplicate-fault dedupe both run
/// one lookup per fault of every analysis through this table.
template <typename V>
class FaultKeyMap {
 public:
  struct Entry {
    Fault::Key key;
    V value;
  };

  [[nodiscard]] const V* find(const Fault::Key& key) const {
    if (entries_.empty()) return nullptr;
    for (std::size_t s = slot_of(key);; s = (s + 1) & mask()) {
      const std::uint32_t e = index_[s];
      if (e == 0) return nullptr;
      if (entries_[e - 1].key == key) return &entries_[e - 1].value;
    }
  }

  /// Inserts {key, value} unless `key` is present; returns the mapped
  /// value and whether it was inserted.
  std::pair<V*, bool> try_emplace(const Fault::Key& key, V value) {
    if (2 * (entries_.size() + 1) > index_.size()) rehash(2 * index_.size());
    std::size_t s = slot_of(key);
    for (;; s = (s + 1) & mask()) {
      const std::uint32_t e = index_[s];
      if (e == 0) break;
      if (entries_[e - 1].key == key) return {&entries_[e - 1].value, false};
    }
    entries_.push_back({key, value});
    index_[s] = static_cast<std::uint32_t>(entries_.size());
    return {&entries_.back().value, true};
  }

  void insert_or_assign(const Fault::Key& key, V value) {
    const auto [slot, inserted] = try_emplace(key, value);
    if (!inserted) *slot = value;
  }

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  [[nodiscard]] std::size_t mask() const { return index_.size() - 1; }

  /// One multiplicative mix over the packed key fields; the slot is the
  /// top log2(capacity) bits of the product.
  [[nodiscard]] std::size_t slot_of(const Fault::Key& k) const {
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t a = k.victim | std::uint64_t{k.aggressor} << 32;
    const std::uint64_t b = k.owner | std::uint64_t{k.udfm_index} << 32;
    const std::uint64_t c = k.kind | std::uint64_t{k.bridge_type} << 8 |
                            std::uint64_t{k.value} << 16;
    std::uint64_t h = a * kMul;
    h = (h ^ (h >> 32) ^ b) * kMul;
    h = (h ^ (h >> 32) ^ c) * kMul;
    return static_cast<std::size_t>(h >> shift_);
  }

  void rehash(std::size_t capacity) {
    capacity = std::max<std::size_t>(capacity, 16);
    index_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t s = slot_of(entries_[e].key);
      while (index_[s] != 0) s = (s + 1) & mask();
      index_[s] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  int shift_ = 64;
};

/// The complete DFM fault universe of one placed-and-routed netlist.
struct FaultUniverse {
  std::vector<Fault> faults;

  [[nodiscard]] std::size_t size() const { return faults.size(); }
  [[nodiscard]] std::size_t count_internal() const;
  [[nodiscard]] std::size_t count_external() const;
  /// Faults per guideline id (index = guideline id).
  [[nodiscard]] std::vector<std::size_t> per_guideline(
      std::size_t num_guidelines) const;
};

}  // namespace dfmres
