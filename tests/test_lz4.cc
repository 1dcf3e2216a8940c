// Tests for the LZ4 block codec: round trips, compression effectiveness on
// text-like input, decoder robustness against corrupt input, and the
// contract of the shared LZ parse (lz4::Parse).

#include "lz4/lz4.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "testing/codec_inputs.h"
#include "testing/lz_reference.h"
#include "trace/generate.h"
#include "util/prng.h"

namespace egwalker {
namespace {

void ExpectRoundTrip(const std::string& input) {
  std::string compressed = lz4::Compress(input);
  EXPECT_LE(compressed.size(), lz4::MaxCompressedSize(input.size()));
  auto out = lz4::Decompress(compressed, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

TEST(Lz4, EmptyInput) { ExpectRoundTrip(""); }

TEST(Lz4, TinyInputs) {
  ExpectRoundTrip("a");
  ExpectRoundTrip("ab");
  ExpectRoundTrip("hello");
  ExpectRoundTrip("aaaaaaaaaaaa");  // 12 bytes: right at the match limit.
}

TEST(Lz4, HighlyRepetitiveInputCompressesWell) {
  std::string input(100000, 'x');
  std::string compressed = lz4::Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 50);
  auto out = lz4::Decompress(compressed, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

TEST(Lz4, RepeatedPhrase) {
  std::string input;
  for (int i = 0; i < 3000; ++i) {
    input += "the quick brown fox jumps over the lazy dog. ";
  }
  std::string compressed = lz4::Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 10);
  ExpectRoundTrip(input);
}

TEST(Lz4, ProseCompresses) {
  Prng rng(5);
  std::string prose = GenerateProse(rng, 200000);
  std::string compressed = lz4::Compress(prose);
  EXPECT_LT(compressed.size(), prose.size());  // Syllable soup still repeats.
  auto out = lz4::Decompress(compressed, prose.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, prose);
}

TEST(Lz4, IncompressibleRandomBytesRoundTrip) {
  Prng rng(17);
  std::string input;
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string compressed = lz4::Compress(input);
  EXPECT_LE(compressed.size(), lz4::MaxCompressedSize(input.size()));
  ExpectRoundTrip(input);
}

TEST(Lz4, OverlappingMatches) {
  // Period-1 through period-7 repetitions exercise the overlap copy path.
  for (size_t period = 1; period <= 7; ++period) {
    std::string input;
    for (size_t i = 0; i < 5000; ++i) {
      input.push_back(static_cast<char>('a' + (i % period)));
    }
    ExpectRoundTrip(input);
  }
}

TEST(Lz4, LongLiteralRuns) {
  // > 255 literal bytes forces length-extension bytes.
  Prng rng(23);
  std::string input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  ExpectRoundTrip(input);
}

TEST(Lz4, LongMatches) {
  // A very long match forces match-length extension bytes.
  std::string input = "seed-block-";
  input += std::string(10000, 'z');
  ExpectRoundTrip(input);
}

TEST(Lz4, DecompressRejectsWrongSize) {
  std::string input = "some reasonably compressible text text text text";
  std::string compressed = lz4::Compress(input);
  EXPECT_FALSE(lz4::Decompress(compressed, input.size() + 1).has_value());
  EXPECT_FALSE(lz4::Decompress(compressed, input.size() - 1).has_value());
}

TEST(Lz4, DecompressRejectsTruncatedInput) {
  std::string input(1000, 'r');
  input += "tail";
  std::string compressed = lz4::Compress(input);
  for (size_t len = 0; len < compressed.size(); len += 3) {
    EXPECT_FALSE(lz4::Decompress(compressed.substr(0, len), input.size()).has_value()) << len;
  }
}

TEST(Lz4, DecompressRejectsBadOffsets) {
  // Token: 1 literal + match; offset 0 is illegal; offset beyond output too.
  std::string bad;
  bad.push_back(0x14);  // 1 literal, match len 4+4.
  bad.push_back('A');
  bad.push_back(0x00);  // offset lo
  bad.push_back(0x00);  // offset hi -> offset 0.
  EXPECT_FALSE(lz4::Decompress(bad, 10).has_value());
  bad[2] = 0x09;  // offset 9 > 1 byte of output so far.
  EXPECT_FALSE(lz4::Decompress(bad, 10).has_value());
}

TEST(Lz4, FuzzRoundTripsRandomStructuredInputs) {
  Prng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::string input;
    size_t target = rng.Below(4000);
    while (input.size() < target) {
      if (rng.Chance(0.5) && !input.empty()) {
        // Copy a random earlier slice (creates matches).
        size_t from = rng.Below(input.size());
        size_t n = 1 + rng.Below(std::min<size_t>(input.size() - from, 60));
        input += input.substr(from, n);
      } else {
        for (uint64_t n = 1 + rng.Below(20); n > 0; --n) {
          input.push_back(static_cast<char>('a' + rng.Below(26)));
        }
      }
    }
    std::string compressed = lz4::Compress(input);
    auto out = lz4::Decompress(compressed, input.size());
    ASSERT_TRUE(out.has_value()) << iter;
    ASSERT_EQ(*out, input) << iter;
  }
}

// The parse contract (lz4.h): the steps cover the input exactly, every
// step but the last carries a match of >= 4 bytes at an offset in
// [1, min(position, 65535)], the last step is literal-only, and replaying
// the steps gives the input back.
TEST(Lz4, ParseMeetsContractOnGoldenInputs) {
  for (const auto& [name, input] : testing::GoldenInputs()) {
    EXPECT_EQ(lz_reference::CheckParse(input, lz4::Parse(input)), "") << name;
  }
}

TEST(Lz4, ParseMeetsContractOnStructuredInputs) {
  Prng rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    const std::string input = testing::StructuredInput(rng, rng.Below(4000));
    ASSERT_EQ(lz_reference::CheckParse(input, lz4::Parse(input)), "") << iter;
  }
  // Past the 64 KiB window, where the match finder's tables wrap.
  for (size_t target : {65536u + 13, 200000u}) {
    const std::string input = testing::StructuredInput(rng, target);
    EXPECT_EQ(lz_reference::CheckParse(input, lz4::Parse(input)), "") << target;
  }
  Prng prose_rng(8);
  const std::string prose = GenerateProse(prose_rng, 300000);
  EXPECT_EQ(lz_reference::CheckParse(prose, lz4::Parse(prose)), "");
}

// A copy 65535 bytes back is in the window and must be found; one byte
// further back it is out of reach.
TEST(Lz4, ParseUsesTheWholeWindowAndNoMore) {
  for (size_t distance : {65535u, 65536u}) {
    Prng rng(distance);
    std::string input;
    for (size_t i = 0; i < distance; ++i) {
      input.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    input += input.substr(0, 64);
    const std::vector<lz4::LzStep> steps = lz4::Parse(input);
    ASSERT_EQ(lz_reference::CheckParse(input, steps), "") << distance;
    const bool found = std::any_of(steps.begin(), steps.end(), [&](const lz4::LzStep& step) {
      return step.offset == 65535 && step.match_len >= 32;
    });
    EXPECT_EQ(found, distance == 65535) << distance;
  }
}

// The checker itself must reject broken parses.
TEST(Lz4, CheckParseRejectsBrokenSteps) {
  const std::string input = "abcdabcdabcdabcdabcd";
  using Steps = std::vector<lz4::LzStep>;
  EXPECT_EQ(lz_reference::CheckParse(input, Steps{{4, 16, 4}, {0, 0, 0}}), "");
  EXPECT_NE(lz_reference::CheckParse(input, Steps{}), "");
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 16, 4}}), "");           // Ends on a match.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 3, 4}, {13, 0, 0}}), "");  // Short match.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 16, 5}, {0, 0, 0}}), "");  // Offset > pos.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 16, 0}, {0, 0, 0}}), "");  // Offset 0.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 16, 3}, {0, 0, 0}}), "");  // Wrong bytes.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 12, 4}, {0, 0, 0}}), "");  // Too short.
  EXPECT_NE(lz_reference::CheckParse(input, Steps{{4, 12, 4}, {8, 0, 0}}), "");  // Too long.
}

}  // namespace
}  // namespace egwalker
