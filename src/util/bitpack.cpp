#include "util/bitpack.h"

#include <cstdio>

namespace tta::util {

std::string PackedState::to_hex() const {
  std::string out;
  char buf[20];
  for (std::size_t i = kPackedWords; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(words[i]));
    out += buf;
  }
  return out;
}

std::size_t hash_value(const PackedState& s) noexcept {
  // splitmix64 finalizer applied per word, combined with a rotation; this is
  // the classic avalanche used by state-space explorers to keep bucket
  // collisions low even when states differ in only a few low bits.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t w : s.words) {
    std::uint64_t z = w + 0x9e3779b97f4a7c15ull + h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    h = (h << 7 | h >> 57) ^ z;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace tta::util
