// Lock-free visited-state table for parallel reachability analysis.
//
// An open-addressed, linear-probed hash table keyed on PackedState with an
// inline value per entry, in the style of the shared state storage LTSmin
// uses for multi-core model checking: a fixed array of slots, each guarded
// by a one-byte atomic status (empty -> writing -> ready), claimed with a
// single compare-exchange. insert() is an atomic insert-if-absent — exactly
// one thread wins each key; every other thread observes the winner's slot.
//
// Memory: one slot is the 32-byte key plus the value plus one status byte
// (padded), laid out contiguously. At the checker's working load factor this
// is well under half of what a node-based std::unordered_map spends per
// state (node allocation, bucket array, malloc headers) — and
// util::CompactStateTable (compact_state_table.h) halves it again by
// storing quotiented keys. Both backends expose the same interface so the
// checkers can be templated over the storage policy.
//
// Capacity is fixed during concurrent use. Growth is the caller's job at a
// synchronization point: rebuild() single-threadedly rehashes into a larger
// slot array (optionally dropping entries) and returns the old-slot ->
// new-slot remapping so callers can rewrite stored slot references. The
// level-synchronized BFS in mc/checker.h grows the table only at
// level barriers, where exactly one thread is active.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitpack.h"
#include "util/check.h"
#include "util/state_table_base.h"

namespace tta::util {

template <class Value>
class ConcurrentStateTable {
 public:
  /// Sentinel slot index: insert() saturated, find() missed, or a rebuild()
  /// remapping entry was dropped.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Insert {
    std::uint32_t slot = kNoSlot;
    bool inserted = false;  ///< true iff this call created the entry
  };

  /// Memoized hash token: hash(key) once at successor-generation time, then
  /// pass the token through insert()/find() so a state is hashed once per
  /// BFS touch. raw() feeds caller-side caches (the per-chunk dedup cache).
  struct Hashed {
    std::size_t h = 0;
    std::size_t raw() const { return h; }
  };

  /// `key_bits` is the number of significant low bits of every key. The
  /// flat backend stores full keys and ignores it; it is accepted so both
  /// backends construct uniformly from the model's packed width.
  explicit ConcurrentStateTable(std::size_t min_capacity = 1u << 16,
                                unsigned key_bits = kPackedWords * 64) {
    (void)key_bits;
    slots_ = std::vector<Slot>(round_up_pow2(min_capacity));
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Number of entries. Exact only at synchronization points (no concurrent
  /// inserts in flight); during a parallel phase it is a lower bound.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Entries beyond this make insert() report saturation instead of letting
  /// linear probing degrade; callers should rebuild() larger well before.
  std::size_t max_load() const { return capacity() - capacity() / 4; }

  Hashed hash(const PackedState& key) const { return {hash_value(key)}; }

  /// Thread-safe insert-if-absent. Returns the key's slot and whether this
  /// call inserted it; {kNoSlot, false} means the table is saturated and
  /// the caller must rebuild() at the next synchronization point.
  Insert insert(const PackedState& key, const Value& value) {
    return insert(key, value, hash(key));
  }

  /// insert() with a memoized hash token (from hash()).
  Insert insert(const PackedState& key, const Value& value,
                const Hashed& hashed) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = hashed.h & mask;
    for (std::size_t probes = 0; probes <= mask;
         ++probes, idx = (idx + 1) & mask) {
      Slot& s = slots_[idx];
      std::uint8_t status = s.status.load(std::memory_order_acquire);
      if (status == kEmpty) {
        // Saturation is checked only when a new slot would be claimed, so
        // keys already present keep resolving even at the load ceiling.
        if (size_.load(std::memory_order_relaxed) >= max_load()) return {};
        std::uint8_t expected = kEmpty;
        if (s.status.compare_exchange_strong(expected, kWriting,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          s.key = key;
          s.value = value;
          s.status.store(kReady, std::memory_order_release);
          size_.fetch_add(1, std::memory_order_relaxed);
          return {static_cast<std::uint32_t>(idx), true};
        }
        status = expected;  // lost the claim race; fall through
      }
      // The claiming thread publishes in a handful of stores; pause, then
      // yield, and abort loudly if the writer is wedged (state_table_base.h).
      SpinWaiter waiter;
      while (status == kWriting) {
        waiter.wait();
        status = s.status.load(std::memory_order_acquire);
      }
      if (s.key == key) return {static_cast<std::uint32_t>(idx), false};
    }
    return {};
  }

  /// Thread-safe lookup; kNoSlot if absent.
  std::uint32_t find(const PackedState& key) const {
    return find(key, hash(key));
  }

  std::uint32_t find(const PackedState& key, const Hashed& hashed) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = hashed.h & mask;
    for (std::size_t probes = 0; probes <= mask;
         ++probes, idx = (idx + 1) & mask) {
      const Slot& s = slots_[idx];
      std::uint8_t status = s.status.load(std::memory_order_acquire);
      SpinWaiter waiter;
      while (status == kWriting) {
        waiter.wait();
        status = s.status.load(std::memory_order_acquire);
      }
      if (status == kEmpty) return kNoSlot;
      if (s.key == key) return static_cast<std::uint32_t>(idx);
    }
    return kNoSlot;
  }

  bool occupied(std::uint32_t slot) const {
    return slots_[slot].status.load(std::memory_order_acquire) == kReady;
  }
  const PackedState& key_at(std::uint32_t slot) const {
    return slots_[slot].key;
  }
  const Value& value_at(std::uint32_t slot) const {
    return slots_[slot].value;
  }
  /// Mutation is only safe at synchronization points.
  Value& value_at(std::uint32_t slot) { return slots_[slot].value; }

  /// Single-threaded: rehashes into `new_capacity` slots (rounded up to a
  /// power of two), dropping entries for which `drop(value)` is true, and
  /// returns the old-slot -> new-slot remapping (kNoSlot for dropped
  /// entries). Callers holding slot indices — parent links, frontiers, edge
  /// lists — must rewrite them through the returned map. `Drop` is a plain
  /// template parameter (not std::function) so the predicate inlines and
  /// the no-predicate overload below has no per-entry branch at all.
  template <class Drop>
  std::vector<std::uint32_t> rebuild(std::size_t new_capacity, Drop&& drop) {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(round_up_pow2(new_capacity)));
    size_.store(0, std::memory_order_relaxed);
    std::vector<std::uint32_t> remap(old.size(), kNoSlot);
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old[i].status.load(std::memory_order_relaxed) != kReady) continue;
      if (drop(old[i].value)) continue;
      // The flat layout stores no hash, so every kept key is hashed again
      // here — the recompute the compact backend's stored quotient avoids.
      ++rebuild_rehashes_;
      Insert ins = insert(old[i].key, old[i].value);
      TTA_CHECK(ins.inserted);  // new_capacity must exceed the kept load
      remap[i] = ins.slot;
    }
    return remap;
  }

  /// rebuild() keeping every entry.
  std::vector<std::uint32_t> rebuild(std::size_t new_capacity) {
    return rebuild(new_capacity, [](const Value&) { return false; });
  }

  /// Hashes recomputed by table internals (flat: one per entry kept across
  /// each rebuild). Feeds CheckStats::hash_recomputes.
  std::uint64_t hash_recomputes() const { return rebuild_rehashes_; }

  /// Bytes held by the slot array (the table's whole footprint).
  std::size_t memory_bytes() const { return slots_.size() * sizeof(Slot); }

  /// Probe-length distribution of the current contents; full scan, only
  /// meaningful at a synchronization point. Diagnostic — the rehash here is
  /// deliberately not counted in hash_recomputes().
  TableProbeStats probe_stats() const {
    TableProbeStats stats;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].status.load(std::memory_order_acquire) != kReady) {
        continue;
      }
      const std::size_t home = hash_value(slots_[i].key) & mask;
      stats.record((i - home) & mask);
    }
    stats.finalize();
    return stats;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kWriting = 1;
  static constexpr std::uint8_t kReady = 2;

  struct Slot {
    std::atomic<std::uint8_t> status{kEmpty};
    PackedState key;
    Value value{};
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 64;  // floor; also keeps max_load() sane for tiny tables
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<Slot> slots_;
  std::atomic<std::size_t> size_{0};
  std::uint64_t rebuild_rehashes_ = 0;
};

}  // namespace tta::util
