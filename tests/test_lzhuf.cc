// Tests for the LZ + canonical-Huffman codec, dynamic and static variants:
// round trips, the tiny-column regime the static code exists for,
// fail-closed decoding of corrupt input, the encoder's bytes pinned by
// digest, the one-parse codec race, the coded size against the reference
// parser (tests/testing/lz_reference.h), and the table-driven decoder
// against the bit-serial reference (tests/testing/lzhuf_reference.h) on
// pristine, mutated and hand-built streams.

#include "lzhuf/lzhuf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "testing/codec_inputs.h"
#include "testing/lz_reference.h"
#include "testing/lzhuf_reference.h"
#include "trace/generate.h"
#include "util/prng.h"

namespace egwalker {
namespace {

using testing::GoldenInputs;
using testing::SkewedInput;
using testing::StructuredInput;

uint64_t Fnv64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Code lengths of a dynamic stream's lit/len table: (4-bit length, 8-bit
// run) pairs, LSB-first, a run of 0 meaning 256.
std::vector<int> LitLenLengths(const std::string& stream) {
  std::vector<int> lengths;
  size_t bit = 0;
  auto get = [&](int count) {
    uint32_t v = 0;
    for (int i = 0; i < count; ++i, ++bit) {
      v |= ((static_cast<unsigned char>(stream.at(bit >> 3)) >> (bit & 7)) & 1u) << i;
    }
    return v;
  };
  while (lengths.size() < 286) {
    int len = static_cast<int>(get(4));
    uint32_t run = get(8);
    lengths.insert(lengths.end(), run == 0 ? 256 : run, len);
  }
  return lengths;
}

// Hand-assembles a dynamic stream: the two code-length tables (one
// (length, run 1) pair per symbol, which is valid if wasteful), then
// symbols under the canonical codes those lengths define, or raw bits
// (extra bits, or a deliberately invalid code).
class HandStream {
 public:
  HandStream(std::vector<uint8_t> lit_lengths, const std::vector<uint8_t>& dist_lengths)
      : lit_(std::move(lit_lengths)) {
    for (const std::vector<uint8_t>* table : {&std::as_const(lit_), &dist_lengths}) {
      for (uint8_t len : *table) {
        Put(len, 4);
        Put(1, 8);
      }
    }
  }
  // Sends lit/len symbol `sym`, MSB first.
  void Symbol(int sym) {
    uint32_t code = CanonicalCode(lit_, sym);
    for (int i = lit_[sym] - 1; i >= 0; --i) {
      Put((code >> i) & 1, 1);
    }
  }
  // Sends `count` raw bits LSB-first.
  void Put(uint32_t value, int count) {
    for (int i = 0; i < count; ++i) {
      if (nbits_ % 8 == 0) {
        bytes_.push_back(0);
      }
      bytes_.back() = static_cast<char>(bytes_.back() | (((value >> i) & 1) << (nbits_ % 8)));
      ++nbits_;
    }
  }
  size_t bits() const { return nbits_; }
  const std::string& bytes() const { return bytes_; }

 private:
  static uint32_t CanonicalCode(const std::vector<uint8_t>& lengths, int sym) {
    uint32_t code = 0;
    for (int len = 1; len <= lengths[sym]; ++len) {
      for (size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] == len && (len < lengths[sym] || static_cast<int>(s) < sym)) {
          ++code;
        }
      }
      if (len < lengths[sym]) {
        code <<= 1;
      }
    }
    return code;
  }

  std::vector<uint8_t> lit_;
  std::string bytes_;
  size_t nbits_ = 0;
};

// Both variants must round-trip every input; they only differ in where the
// code tables live.
void ExpectRoundTrips(const std::string& input) {
  std::string dyn = lzhuf::Compress(input);
  auto dyn_out = lzhuf::Decompress(dyn, input.size());
  ASSERT_TRUE(dyn_out.has_value());
  EXPECT_EQ(*dyn_out, input);

  std::string stat = lzhuf::CompressStatic(input);
  auto stat_out = lzhuf::DecompressStatic(stat, input.size());
  ASSERT_TRUE(stat_out.has_value());
  EXPECT_EQ(*stat_out, input);
}

TEST(Lzhuf, EmptyInput) { ExpectRoundTrips(""); }

TEST(Lzhuf, TinyInputs) {
  ExpectRoundTrips("a");
  ExpectRoundTrips("ab");
  ExpectRoundTrips("hello");
  ExpectRoundTrips("aaaaaaaaaaaa");
  ExpectRoundTrips(std::string(1, '\0'));
  ExpectRoundTrips(std::string(3, '\xff'));
}

TEST(Lzhuf, AllByteValues) {
  std::string input;
  for (int i = 0; i < 256; ++i) {
    input.push_back(static_cast<char>(i));
  }
  ExpectRoundTrips(input);
  ExpectRoundTrips(input + input + input);
}

TEST(Lzhuf, StaticBeatsDynamicOnTinyPayloads) {
  // The static code's entire reason to exist: on payloads of a few dozen
  // bytes the dynamic variant spends more on its code-length tables than
  // entropy coding saves.
  Prng rng(7);
  for (size_t len : {16u, 24u, 32u, 48u, 63u}) {
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>('a' + rng.Below(26)));
    }
    std::string dyn = lzhuf::Compress(input);
    std::string stat = lzhuf::CompressStatic(input);
    EXPECT_LT(stat.size(), dyn.size()) << "len " << len;
    // ASCII-only input: every literal is in the 8-bit class, so static
    // never exceeds input size + EOB + rounding.
    EXPECT_LE(stat.size(), input.size() + 3) << "len " << len;
  }
}

TEST(Lzhuf, ProseCompressesUnderBothCodes) {
  Prng rng(5);
  std::string prose = GenerateProse(rng, 100000);
  std::string dyn = lzhuf::Compress(prose);
  std::string stat = lzhuf::CompressStatic(prose);
  EXPECT_LT(dyn.size(), prose.size());
  EXPECT_LT(stat.size(), prose.size());
  // At this size the trained tables must beat the flat code.
  EXPECT_LT(dyn.size(), stat.size());
  ExpectRoundTrips(prose);
}

TEST(Lzhuf, OverlappingMatches) {
  for (size_t period = 1; period <= 7; ++period) {
    std::string input;
    for (size_t i = 0; i < 5000; ++i) {
      input.push_back(static_cast<char>('a' + (i % period)));
    }
    ExpectRoundTrips(input);
  }
}

TEST(Lzhuf, DecompressRejectsWrongSize) {
  std::string input = "some reasonably compressible text text text text";
  std::string dyn = lzhuf::Compress(input);
  EXPECT_FALSE(lzhuf::Decompress(dyn, input.size() + 1).has_value());
  EXPECT_FALSE(lzhuf::Decompress(dyn, input.size() - 1).has_value());
  std::string stat = lzhuf::CompressStatic(input);
  EXPECT_FALSE(lzhuf::DecompressStatic(stat, input.size() + 1).has_value());
  EXPECT_FALSE(lzhuf::DecompressStatic(stat, input.size() - 1).has_value());
}

TEST(Lzhuf, DecompressRejectsTruncatedInput) {
  std::string input(1000, 'r');
  input += "tail";
  std::string dyn = lzhuf::Compress(input);
  for (size_t len = 0; len < dyn.size(); len += 3) {
    EXPECT_FALSE(lzhuf::Decompress(dyn.substr(0, len), input.size()).has_value()) << len;
  }
  std::string stat = lzhuf::CompressStatic(input);
  for (size_t len = 0; len < stat.size(); len += 3) {
    EXPECT_FALSE(lzhuf::DecompressStatic(stat.substr(0, len), input.size()).has_value()) << len;
  }
}

TEST(Lzhuf, FuzzRoundTripsRandomStructuredInputs) {
  Prng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::string input = StructuredInput(rng, rng.Below(4000));
    std::string dyn = lzhuf::Compress(input);
    auto dyn_out = lzhuf::Decompress(dyn, input.size());
    ASSERT_TRUE(dyn_out.has_value()) << iter;
    ASSERT_EQ(*dyn_out, input) << iter;
    std::string stat = lzhuf::CompressStatic(input);
    auto stat_out = lzhuf::DecompressStatic(stat, input.size());
    ASSERT_TRUE(stat_out.has_value()) << iter;
    ASSERT_EQ(*stat_out, input) << iter;
  }
}

// The encoder's bytes, pinned: digests of both variants' output. A change
// to the bit writer or the code builders must leave them alone. A new
// match finder in lz4::Parse re-pins them, since a different parse is a
// different (equally valid) stream.
TEST(Lzhuf, GoldenDigests) {
  const std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> kGolden = {
      {"empty", {0xa8b2f04b88ba916full, 0xaf639e4c86018332ull}},
      {"one byte", {0x5845135ba25237d9ull, 0x09de9d07b657096eull}},
      {"hello", {0xe24a381ff8b5be33ull, 0x9b0f7d922595215eull}},
      {"all bytes x3", {0x9df290945ce28299ull, 0xa3f4527b523fcd6cull}},
      {"period 3", {0x629841c8be02532bull, 0xe926f9c75ec40786ull}},
      {"one byte x64k", {0x7c8c40cc2eb6e25dull, 0xe81337f9e55e59b9ull}},
      {"prose 100k", {0x2f63eaf0e84845dfull, 0x083e54f143fcaceeull}},
      {"structured 100", {0xcfd456cb26edcf6eull, 0x734b4ad36c10d1c5ull}},
      {"structured 1000", {0x9cbfc2781638586dull, 0xd730caf0fbb69042ull}},
      {"structured 4000", {0x2ccdeddd271c4dc7ull, 0x421b2a5af8387897ull}},
      {"structured 20000", {0xb1ca992e861a19ebull, 0x0e79fd53d5375375ull}},
      {"far matches", {0x5596b0e14fe8885aull, 0x563eba1851e79e29ull}},
      {"skewed", {0x96db7bd6e6fa926aull, 0x73bbf3ad9bff71f4ull}},
  };
  std::vector<std::pair<std::string, std::string>> inputs = GoldenInputs();
  ASSERT_EQ(inputs.size(), kGolden.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, input] = inputs[i];
    ASSERT_EQ(name, kGolden[i].first);
    EXPECT_EQ(Fnv64(lzhuf::Compress(input)), kGolden[i].second.first) << name;
    EXPECT_EQ(Fnv64(lzhuf::CompressStatic(input)), kGolden[i].second.second) << name;
    ExpectRoundTrips(input);
  }
}

// The codec race over one parse (the columnar encoder's column sizes run
// 16 bytes up, and both codes race on 64..511) must write exactly what
// racing the two public coders writes: the static stream unless the
// dynamic one is strictly shorter.
TEST(Lzhuf, CompressSmallestMatchesRacingBothCoders) {
  Prng rng(616);
  for (size_t size = 16; size <= 600; ++size) {
    std::string input;
    switch (size % 3) {
      case 0:
        input = StructuredInput(rng, size);
        break;
      case 1:
        input = GenerateProse(rng, size);
        break;
      default:  // Small values, like a column of varints or deltas.
        while (input.size() < size) {
          input.push_back(static_cast<char>(rng.Below(rng.Chance(0.8) ? 4 : 200)));
        }
        break;
    }
    input.resize(size);
    const std::string stat = lzhuf::CompressStatic(input);
    const std::string dyn = lzhuf::Compress(input);
    for (auto [try_static, try_dynamic] : {std::pair{true, false}, std::pair{false, true},
                                           std::pair{size < 512, size >= 64}}) {
      if (!try_static && !try_dynamic) {
        continue;
      }
      const bool dynamic_wins = !try_static || (try_dynamic && dyn.size() < stat.size());
      const lzhuf::Smallest got = lzhuf::CompressSmallest(input, try_static, try_dynamic);
      ASSERT_EQ(got.code, dynamic_wins ? lzhuf::Code::kDynamic : lzhuf::Code::kStatic)
          << "size " << size;
      ASSERT_EQ(got.stream, dynamic_wins ? dyn : stat) << "size " << size;
    }
    ASSERT_EQ(lzhuf::Compress(input, lz4::Parse(input)), dyn) << "size " << size;
  }
}

// The library's match finder probes far less than the reference parser
// (tests/testing/lz_reference.h); on these inputs its streams stay within
// half a percent of coding the reference's parse.
TEST(Lzhuf, ParseStaysNearTheReferenceParse) {
  for (const auto& [name, input] : GoldenInputs()) {
    if (name != "prose 100k" && name != "structured 20000" && name != "far matches") {
      continue;
    }
    const std::vector<lz4::LzStep> reference = lz_reference::Parse(input);
    ASSERT_EQ(lz_reference::CheckParse(input, reference), "") << name;
    const size_t oracle = lzhuf::Compress(input, reference).size();
    const size_t got = lzhuf::Compress(input).size();
    EXPECT_LE(static_cast<double>(got), 1.005 * static_cast<double>(oracle))
        << name << ": " << got << " vs " << oracle << " bytes";
  }
}

// Codes longer than the decoder's lookup table go through its slow path;
// this input drives the lit/len code to the 15-bit limit.
TEST(Lzhuf, SkewedInputReachesFifteenBitCodes) {
  const std::string input = SkewedInput();
  const std::string stream = lzhuf::Compress(input);
  std::vector<int> lengths = LitLenLengths(stream);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()), 15);
  EXPECT_GE(std::count_if(lengths.begin(), lengths.end(), [](int len) { return len > 10; }), 5);
  ExpectRoundTrips(input);
  EXPECT_EQ(lzhuf_reference::CompareDecoders(false, stream, input.size()), "");
  // Truncations land inside long codes too.
  for (size_t len = stream.size() - 64; len < stream.size(); ++len) {
    EXPECT_EQ(lzhuf_reference::CompareDecoders(false, stream.substr(0, len), input.size()), "")
        << len;
  }
}

// A lone-symbol code has length 1 and code 0; the pattern 1 is no code at
// all. Here the distance alphabet is a lone symbol (distance 1).
TEST(Lzhuf, LoneSymbolDistanceCodeRejectsTheUnusedPattern) {
  std::vector<uint8_t> lit(286, 0);
  lit['a'] = 1;
  lit[256] = 2;  // EOB
  lit[257] = 2;  // Match length 4.
  std::vector<uint8_t> dist(32, 0);
  dist[0] = 1;
  for (uint32_t dist_bit : {0u, 1u}) {
    HandStream s(lit, dist);
    s.Symbol('a');
    s.Symbol(257);
    s.Put(dist_bit, 1);  // The distance code: 0 is symbol 0, 1 is invalid.
    s.Symbol(256);
    auto out = lzhuf::Decompress(s.bytes(), 5);
    if (dist_bit == 0) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, "aaaaa");
    } else {
      EXPECT_FALSE(out.has_value());
    }
    EXPECT_EQ(lzhuf_reference::CompareDecoders(false, s.bytes(), 5), "") << dist_bit;
  }
  // A lone symbol of any other length is not a valid code.
  dist[0] = 2;
  HandStream s(lit, dist);
  s.Symbol('a');
  s.Symbol(257);
  s.Put(0, 2);
  s.Symbol(256);
  EXPECT_FALSE(lzhuf::Decompress(s.bytes(), 5).has_value());
  EXPECT_EQ(lzhuf_reference::CompareDecoders(false, s.bytes(), 5), "");
}

// Lengths 1..14 for 'a'..'n', then 'o' and EOB at 15: the codes of 'o'
// and EOB are all ones but for the last bit. Cut inside such a code, the
// zero bits read past the end spell a shorter valid code; the decoder
// must still see that the input ran out.
TEST(Lzhuf, TruncationInsideALongCodeFails) {
  std::vector<uint8_t> lit(286, 0);
  for (int i = 0; i < 14; ++i) {
    lit['a' + i] = static_cast<uint8_t>(i + 1);
  }
  lit['o'] = 15;
  lit[256] = 15;
  HandStream s(lit, std::vector<uint8_t>(32, 0));
  const size_t header_bits = s.bits();
  s.Symbol('o');
  s.Symbol(256);
  const std::string stream = s.bytes();
  auto out = lzhuf::Decompress(stream, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "o");
  int cuts_inside_first_code = 0;
  for (size_t len = 0; len < stream.size(); ++len) {
    const std::string cut = stream.substr(0, len);
    EXPECT_FALSE(lzhuf::Decompress(cut, 1).has_value()) << len;
    EXPECT_EQ(lzhuf_reference::CompareDecoders(false, cut, 1), "") << len;
    if (len * 8 > header_bits && len * 8 < header_bits + 15) {
      ++cuts_inside_first_code;
    }
  }
  EXPECT_GE(cuts_inside_first_code, 1);
}

// The table-driven decoder against the bit-serial reference on random
// structured streams of both codes and their mutations: identical
// accept/reject results and identical bytes.
TEST(Lzhuf, DecoderMatchesReferenceOnMutatedStreams) {
  Prng rng(2024);
  size_t accepted = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const std::string input = StructuredInput(rng, rng.Below(1500));
    for (bool static_code : {false, true}) {
      const std::string stream =
          static_code ? lzhuf::CompressStatic(input) : lzhuf::Compress(input);
      std::string err = lzhuf_reference::DifferentialSweep(static_code, stream, input.size(),
                                                            rng, 100, &accepted);
      ASSERT_EQ(err, "") << "iter " << iter << (static_code ? " static" : " dynamic");
    }
  }
  // Pristine streams at least; mutations in extra bits and literals
  // usually still decode.
  EXPECT_GT(accepted, 120u);
}

TEST(Lzhuf, MaxDecompressedSizeBoundsEveryStream) {
  // One byte repeated is the codec's best ratio: near 259 bytes per 2 bits.
  const std::string input(1 << 20, 'z');
  const std::string dyn = lzhuf::Compress(input);
  EXPECT_LE(input.size(), lzhuf::MaxDecompressedSize(dyn.size()));
  EXPECT_GT(input.size() * 2, lzhuf::MaxDecompressedSize(dyn.size()));
  const std::string stat = lzhuf::CompressStatic(input);
  EXPECT_LE(input.size(), lzhuf::MaxDecompressedSizeStatic(stat.size()));
  EXPECT_GT(input.size() * 2, lzhuf::MaxDecompressedSizeStatic(stat.size()));
  ExpectRoundTrips(input);
  // A claimed size beyond the bound is refused before any output exists.
  EXPECT_FALSE(lzhuf::Decompress(dyn, lzhuf::MaxDecompressedSize(dyn.size()) + 1).has_value());
  // A size no string can hold: were it not refused up front, building the
  // output buffer would throw.
  const size_t huge = std::numeric_limits<size_t>::max();
  EXPECT_FALSE(lzhuf::Decompress(dyn, huge).has_value());
  EXPECT_FALSE(lzhuf::DecompressStatic(stat, huge).has_value());
  EXPECT_EQ(lzhuf::MaxDecompressedSize(0), 0u);
  EXPECT_EQ(lzhuf::MaxDecompressedSizeStatic(0), 0u);
}

}  // namespace
}  // namespace egwalker
