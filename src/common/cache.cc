#include "common/cache.h"

namespace stemroot {

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string HexDigest64(uint64_t value) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace stemroot
