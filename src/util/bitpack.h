// Fixed-width bit packing.
//
// The explicit-state model checker (src/mc) stores every reachable world
// state as a fixed-size little-endian bit string. PackedState is that
// string: a POD array of 64-bit words with equality and hashing, cheap to
// copy and to use as an unordered_map key. BitWriter/BitReader serialize
// bounded integer fields into/out of a PackedState in declaration order, so
// a model's encode() and decode() stay textually parallel and a mismatch is
// caught by the round-trip unit tests.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "util/check.h"

namespace tta::util {

/// Number of 64-bit words in a packed state. 256 bits comfortably holds the
/// paper's model (4–6 nodes, 2 couplers, fault budget) with room for
/// extensions; widening this is an ABI-only change.
inline constexpr std::size_t kPackedWords = 4;

/// A fixed-size bit string used as a hashable state key.
struct PackedState {
  std::array<std::uint64_t, kPackedWords> words{};

  friend bool operator==(const PackedState&, const PackedState&) = default;
  friend auto operator<=>(const PackedState&, const PackedState&) = default;

  /// Hex rendering (most-significant word first), for debugging and logs.
  std::string to_hex() const;
};

/// 64-bit mix of the first `words` words (splitmix-style avalanche per
/// word, combined with a rotation), so states that differ in only a few
/// low bits still land far apart. A table whose keys are zero above some
/// word hashes only the words below it. Inline: the flat visited table
/// hashes every generated successor.
inline std::size_t hash_words(const PackedState& s,
                              std::size_t words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t z = s.words[i] + 0x9e3779b97f4a7c15ull + h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    h = (h << 7 | h >> 57) ^ z;
  }
  return static_cast<std::size_t>(h);
}

/// 64-bit mix of all words.
inline std::size_t hash_value(const PackedState& s) noexcept {
  return hash_words(s, kPackedWords);
}

/// Sequentially writes bounded unsigned fields into a PackedState.
class BitWriter {
 public:
  /// Writes from bit `pos` on; the bits below it are left as they are,
  /// so a field group can be placed at its fixed offset on its own.
  explicit BitWriter(PackedState& out, unsigned pos = 0)
      : out_(&out), pos_(pos) {}

  /// Appends `bits` bits of `value`. Requires value < 2^bits and that the
  /// total stays within kPackedWords*64 bits. Inline: successor
  /// generation writes every node code it builds through it.
  void write(std::uint64_t value, unsigned bits) {
    TTA_DCHECK(bits >= 1 && bits <= 64);
    TTA_DCHECK(bits == 64 || value < (1ull << bits));
    TTA_DCHECK(pos_ + bits <= kPackedWords * 64);
    const unsigned word = pos_ / 64;
    const unsigned off = pos_ % 64;
    out_->words[word] |= value << off;
    if (off + bits > 64) {
      out_->words[word + 1] |= value >> (64 - off);
    }
    pos_ += bits;
  }

  /// Appends a boolean as one bit.
  void write_bool(bool b) { write(b ? 1u : 0u, 1); }

  unsigned bits_written() const { return pos_; }

 private:
  PackedState* out_;
  unsigned pos_;
};

/// Sequentially reads fields written by BitWriter, in the same order.
class BitReader {
 public:
  explicit BitReader(const PackedState& in) : in_(&in) {}

  std::uint64_t read(unsigned bits) {
    TTA_DCHECK(bits >= 1 && bits <= 64);
    TTA_DCHECK(pos_ + bits <= kPackedWords * 64);
    const unsigned word = pos_ / 64;
    const unsigned off = pos_ % 64;
    std::uint64_t v = in_->words[word] >> off;
    if (off + bits > 64) {
      v |= in_->words[word + 1] << (64 - off);
    }
    pos_ += bits;
    if (bits < 64) v &= (1ull << bits) - 1;
    return v;
  }
  bool read_bool() { return read(1) != 0; }

  unsigned bits_read() const { return pos_; }

 private:
  const PackedState* in_;
  unsigned pos_ = 0;
};

/// Smallest number of bits that can represent every value in [0, n].
/// bits_for(0) == 1 by convention (a field always occupies at least a bit).
constexpr unsigned bits_for(std::uint64_t n) {
  unsigned b = 1;
  while ((n >>= 1) != 0) ++b;
  return b;
}

}  // namespace tta::util

template <>
struct std::hash<tta::util::PackedState> {
  std::size_t operator()(const tta::util::PackedState& s) const noexcept {
    return tta::util::hash_value(s);
  }
};
