// Lock-free visited-state table for parallel reachability analysis.
//
// An open-addressed, linear-probed hash table keyed on PackedState with an
// inline value per entry, in the style of the shared state storage LTSmin
// uses for multi-core model checking: a fixed array of slots, each guarded
// by a one-byte atomic status (empty -> writing -> ready), claimed with a
// single compare-exchange. insert() is an atomic insert-if-absent — exactly
// one thread wins each key; every other thread observes the winner's slot.
//
// Memory: a slot holds only the key's significant words — ceil(key_bits /
// 64) of them, fixed at construction — then the value, then the one-byte
// status, padded to 8 bytes; slots are laid out contiguously at that
// runtime stride. With the checker's 12-byte value that is 32 bytes per slot
// for the paper's 119-bit 4-node key, 40 at up to 192 bits and 48 at the
// full 256. The table hashes and compares only those words; key_at()
// zero-extends them back to a PackedState. util::CompactStateTable
// (compact_state_table.h) stores quotiented keys instead. Both backends
// expose the same interface so the checkers can be templated over the
// storage policy.
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
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bitpack.h"
#include "util/check.h"
#include "util/state_table_base.h"

namespace tta::util {

template <class Value>
class ConcurrentStateTable {
  static_assert(std::is_trivially_copyable_v<Value> && alignof(Value) <= 8,
                "values are stored in place after the 8-byte key words");

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

  /// `key_bits` is the number of significant low bits of every key; the
  /// table stores, hashes and compares only the 64-bit words that hold
  /// them, so every key must be zero above its last significant word.
  explicit ConcurrentStateTable(std::size_t min_capacity = 1u << 16,
                                unsigned key_bits = kPackedWords * 64)
      : key_words_(key_bits == 0 ? 1 : (key_bits + 63) / 64),
        status_offset_(8 * key_words_ + sizeof(Value)),
        stride_((status_offset_ + 8) / 8 * 8) {
    TTA_CHECK(key_words_ <= kPackedWords);
    allocate(round_up_pow2(min_capacity));
  }

  std::size_t capacity() const { return capacity_; }

  /// Number of entries. Exact only at synchronization points (no concurrent
  /// inserts in flight); during a parallel phase it is a lower bound.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Entries beyond this make insert() report saturation instead of letting
  /// linear probing degrade; callers should rebuild() larger well before.
  std::size_t max_load() const { return capacity() - capacity() / 4; }

  Hashed hash(const PackedState& key) const {
    for (std::size_t w = key_words_; w < kPackedWords; ++w) {
      TTA_DCHECK(key.words[w] == 0);
    }
    return {hash_words(key, key_words_)};
  }

  /// Thread-safe insert-if-absent. Returns the key's slot and whether this
  /// call inserted it; {kNoSlot, false} means the table is saturated and
  /// the caller must rebuild() at the next synchronization point.
  Insert insert(const PackedState& key, const Value& value) {
    return insert(key, value, hash(key));
  }

  /// insert() with a memoized hash token (from hash()).
  Insert insert(const PackedState& key, const Value& value,
                const Hashed& hashed) {
    const std::size_t mask = capacity_ - 1;
    std::size_t idx = hashed.h & mask;
    for (std::size_t probes = 0; probes <= mask;
         ++probes, idx = (idx + 1) & mask) {
      std::byte* slot = slot_at(idx);
      std::atomic_ref<std::uint8_t> status_ref = status(slot);
      std::uint8_t status = status_ref.load(std::memory_order_acquire);
      if (status == kEmpty) {
        // Saturation is checked only when a new slot would be claimed, so
        // keys already present keep resolving even at the load ceiling.
        if (size_.load(std::memory_order_relaxed) >= max_load()) return {};
        std::uint8_t expected = kEmpty;
        if (status_ref.compare_exchange_strong(expected, kWriting,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          std::uint64_t* words = key_words(slot);
          for (std::size_t w = 0; w < key_words_; ++w) words[w] = key.words[w];
          *value_ptr(slot) = value;
          status_ref.store(kReady, std::memory_order_release);
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
        status = status_ref.load(std::memory_order_acquire);
      }
      if (same_key(slot, key)) return {static_cast<std::uint32_t>(idx), false};
    }
    return {};
  }

  /// Thread-safe lookup; kNoSlot if absent.
  std::uint32_t find(const PackedState& key) const {
    return find(key, hash(key));
  }

  std::uint32_t find(const PackedState& key, const Hashed& hashed) const {
    const std::size_t mask = capacity_ - 1;
    std::size_t idx = hashed.h & mask;
    for (std::size_t probes = 0; probes <= mask;
         ++probes, idx = (idx + 1) & mask) {
      std::byte* slot = slot_at(idx);
      std::uint8_t status = this->status(slot).load(std::memory_order_acquire);
      SpinWaiter waiter;
      while (status == kWriting) {
        waiter.wait();
        status = this->status(slot).load(std::memory_order_acquire);
      }
      if (status == kEmpty) return kNoSlot;
      if (same_key(slot, key)) return static_cast<std::uint32_t>(idx);
    }
    return kNoSlot;
  }

  bool occupied(std::uint32_t slot) const {
    return status(slot_at(slot)).load(std::memory_order_acquire) == kReady;
  }
  /// The stored key, zero-extended to the full PackedState.
  PackedState key_at(std::uint32_t slot) const {
    PackedState key;
    const std::uint64_t* words = key_words(slot_at(slot));
    for (std::size_t w = 0; w < key_words_; ++w) key.words[w] = words[w];
    return key;
  }
  const Value& value_at(std::uint32_t slot) const {
    return *value_ptr(slot_at(slot));
  }
  /// Mutation is only safe at synchronization points.
  Value& value_at(std::uint32_t slot) { return *value_ptr(slot_at(slot)); }

  /// Single-threaded: rehashes into `new_capacity` slots (rounded up to a
  /// power of two), dropping entries for which `drop(value)` is true, and
  /// returns the old-slot -> new-slot remapping (kNoSlot for dropped
  /// entries). Callers holding slot indices — parent links, frontiers, edge
  /// lists — must rewrite them through the returned map. `Drop` is a plain
  /// template parameter (not std::function) so the predicate inlines and
  /// the no-predicate overload below has no per-entry branch at all.
  template <class Drop>
  std::vector<std::uint32_t> rebuild(std::size_t new_capacity, Drop&& drop) {
    const std::size_t old_capacity = capacity_;
    Bytes old = allocate(round_up_pow2(new_capacity));
    size_.store(0, std::memory_order_relaxed);
    std::vector<std::uint32_t> remap(old_capacity, kNoSlot);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      std::byte* slot = old.get() + i * stride_;
      if (status(slot).load(std::memory_order_relaxed) != kReady) continue;
      if (drop(*value_ptr(slot))) continue;
      // The flat layout stores no hash, so every kept key is hashed again
      // here — the recompute the compact backend's stored quotient avoids.
      ++rebuild_rehashes_;
      PackedState key;
      for (std::size_t w = 0; w < key_words_; ++w) {
        key.words[w] = key_words(slot)[w];
      }
      Insert ins = insert(key, *value_ptr(slot));
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
  std::size_t memory_bytes() const { return capacity_ * stride_; }

  /// Probe-length distribution of the current contents; full scan, only
  /// meaningful at a synchronization point. Diagnostic — the rehash here is
  /// deliberately not counted in hash_recomputes().
  TableProbeStats probe_stats() const {
    TableProbeStats stats;
    const std::size_t mask = capacity_ - 1;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (!occupied(static_cast<std::uint32_t>(i))) continue;
      const std::size_t home =
          hash_words(key_at(static_cast<std::uint32_t>(i)), key_words_) &
          mask;
      stats.record((i - home) & mask);
    }
    stats.finalize();
    return stats;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kWriting = 1;
  static constexpr std::uint8_t kReady = 2;

  // A slot, `stride_` bytes: key_words_ 64-bit key words, the Value, then
  // the status byte last, so the value packs against the key with no
  // padding in front of it. The array comes from calloc, which implicitly
  // creates the trivially copyable words, values and status bytes the
  // accessors below address; its zero bytes are kEmpty slots.
  struct FreeBytes {
    void operator()(std::byte* p) const { std::free(p); }
  };
  using Bytes = std::unique_ptr<std::byte[], FreeBytes>;

  /// Installs a zeroed array of `capacity` slots and returns the old one.
  Bytes allocate(std::size_t capacity) {
    auto* bytes = static_cast<std::byte*>(std::calloc(capacity, stride_));
    TTA_CHECK(bytes != nullptr);
    capacity_ = capacity;
    return std::exchange(data_, Bytes(bytes));
  }

  std::byte* slot_at(std::size_t i) const { return data_.get() + i * stride_; }
  static std::uint64_t* key_words(std::byte* slot) {
    return reinterpret_cast<std::uint64_t*>(slot);
  }
  Value* value_ptr(std::byte* slot) const {
    return reinterpret_cast<Value*>(slot + 8 * key_words_);
  }
  std::atomic_ref<std::uint8_t> status(std::byte* slot) const {
    return std::atomic_ref<std::uint8_t>(
        *reinterpret_cast<std::uint8_t*>(slot + status_offset_));
  }
  bool same_key(std::byte* slot, const PackedState& key) const {
    const std::uint64_t* words = key_words(slot);
    for (std::size_t w = 0; w < key_words_; ++w) {
      if (words[w] != key.words[w]) return false;
    }
    return true;
  }

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 64;  // floor; also keeps max_load() sane for tiny tables
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t key_words_;
  std::size_t status_offset_;
  std::size_t stride_;
  std::size_t capacity_ = 0;
  Bytes data_;
  std::atomic<std::size_t> size_{0};
  std::uint64_t rebuild_rehashes_ = 0;
};

}  // namespace tta::util
