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

}  // namespace tta::util
