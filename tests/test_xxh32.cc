// Tests for XXH32, the column checksum of v2 containers with the XXH32
// header flag: the published test vectors, and agreement with the bytewise
// reference (tests/testing/xxh32_reference.cc) on every tail shape.

#include "util/xxh32.h"

#include <gtest/gtest.h>

#include <string>

#include "testing/xxh32_reference.h"
#include "util/prng.h"

namespace egwalker {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.Below(256));
  }
  return out;
}

TEST(Xxh32, KnownAnswers) {
  EXPECT_EQ(Xxh32(""), 0x02CC5D05u);
  EXPECT_EQ(Xxh32("a"), 0x550D7456u);
  EXPECT_EQ(Xxh32("abc"), 0x32D153FFu);
  EXPECT_EQ(xxh32_reference::Hash(""), 0x02CC5D05u);
  EXPECT_EQ(xxh32_reference::Hash("a"), 0x550D7456u);
  EXPECT_EQ(xxh32_reference::Hash("abc"), 0x32D153FFu);
}

// Lengths 0-64 cover the short path, one to four 16-byte stripes, and every
// combination of 4-byte words and single bytes in the tail.
TEST(Xxh32, MatchesReferenceOnEveryShortLength) {
  const std::string bytes = RandomBytes(64, 7);
  for (size_t n = 0; n <= bytes.size(); ++n) {
    const std::string_view prefix(bytes.data(), n);
    EXPECT_EQ(Xxh32(prefix), xxh32_reference::Hash(prefix)) << "length " << n;
  }
}

// Also at every alignment: the library reads words from any address.
TEST(Xxh32, MatchesReferenceOnLargeUnalignedInputs) {
  const std::string bytes = RandomBytes(100 * 1024 + 3, 11);
  for (size_t start = 0; start < 4; ++start) {
    const std::string_view view(bytes.data() + start, 100 * 1024 - start);
    EXPECT_EQ(Xxh32(view), xxh32_reference::Hash(view)) << "start " << start;
  }
}

TEST(Xxh32, EveryByteMatters) {
  std::string bytes = RandomBytes(40, 3);
  const uint32_t h = Xxh32(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 1;
    EXPECT_NE(Xxh32(bytes), h) << "byte " << i;
    bytes[i] ^= 1;
  }
}

}  // namespace
}  // namespace egwalker
