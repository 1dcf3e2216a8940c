#include "util/xxh32.h"

#include <bit>
#include <cstring>

namespace egwalker {
namespace {

constexpr uint32_t kPrime1 = 0x9E3779B1u;
constexpr uint32_t kPrime2 = 0x85EBCA77u;
constexpr uint32_t kPrime3 = 0xC2B2AE3Du;
constexpr uint32_t kPrime4 = 0x27D4EB2Fu;
constexpr uint32_t kPrime5 = 0x165667B1u;

inline uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

inline uint32_t Round(uint32_t acc, uint32_t lane) {
  return std::rotl(acc + lane * kPrime2, 13) * kPrime1;
}

}  // namespace

uint32_t Xxh32(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const unsigned char* const end = p + bytes.size();
  uint32_t h;
  if (bytes.size() >= 16) {
    uint32_t v1 = kPrime1 + kPrime2;
    uint32_t v2 = kPrime2;
    uint32_t v3 = 0;
    uint32_t v4 = 0 - kPrime1;
    const unsigned char* const last_stripe = end - 16;
    do {
      v1 = Round(v1, Read32(p));
      v2 = Round(v2, Read32(p + 4));
      v3 = Round(v3, Read32(p + 8));
      v4 = Round(v4, Read32(p + 12));
      p += 16;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint32_t>(bytes.size());
  for (; p + 4 <= end; p += 4) {
    h = std::rotl(h + Read32(p) * kPrime3, 17) * kPrime4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h + *p * kPrime5, 11) * kPrime1;
  }
  h ^= h >> 15;
  h *= kPrime2;
  h ^= h >> 13;
  h *= kPrime3;
  h ^= h >> 16;
  return h;
}

}  // namespace egwalker
