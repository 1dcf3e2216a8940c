#include "testing/xxh32_reference.h"

#include <cstddef>

namespace egwalker::xxh32_reference {
namespace {

constexpr uint32_t kPrime1 = 2654435761u;
constexpr uint32_t kPrime2 = 2246822519u;
constexpr uint32_t kPrime3 = 3266489917u;
constexpr uint32_t kPrime4 = 668265263u;
constexpr uint32_t kPrime5 = 374761393u;

uint32_t RotateLeft(uint32_t x, int r) { return (x << r) | (x >> (32 - r)); }

// The little-endian 32-bit lane starting at byte `i`.
uint32_t Lane(std::string_view bytes, size_t i) {
  uint32_t v = 0;
  for (int b = 3; b >= 0; --b) {
    v = (v << 8) | static_cast<unsigned char>(bytes[i + static_cast<size_t>(b)]);
  }
  return v;
}

}  // namespace

uint32_t Hash(std::string_view bytes) {
  const size_t n = bytes.size();
  size_t i = 0;
  uint32_t acc;
  if (n >= 16) {
    uint32_t lanes[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    while (n - i >= 16) {
      for (int l = 0; l < 4; ++l) {
        lanes[l] = lanes[l] + Lane(bytes, i) * kPrime2;
        lanes[l] = RotateLeft(lanes[l], 13);
        lanes[l] = lanes[l] * kPrime1;
        i += 4;
      }
    }
    acc = RotateLeft(lanes[0], 1) + RotateLeft(lanes[1], 7) + RotateLeft(lanes[2], 12) +
          RotateLeft(lanes[3], 18);
  } else {
    acc = kPrime5;
  }
  acc = acc + static_cast<uint32_t>(n);
  while (n - i >= 4) {
    acc = acc + Lane(bytes, i) * kPrime3;
    acc = RotateLeft(acc, 17) * kPrime4;
    i += 4;
  }
  while (i < n) {
    acc = acc + static_cast<unsigned char>(bytes[i]) * kPrime5;
    acc = RotateLeft(acc, 11) * kPrime1;
    ++i;
  }
  acc = acc ^ (acc >> 15);
  acc = acc * kPrime2;
  acc = acc ^ (acc >> 13);
  acc = acc * kPrime3;
  acc = acc ^ (acc >> 16);
  return acc;
}

}  // namespace egwalker::xxh32_reference
