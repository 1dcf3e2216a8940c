// Tests for the B+-tree rope: unit cases plus a randomised differential
// test against a naive std::u32string-style oracle.

#include "rope/rope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rope/utf8.h"
#include "util/prng.h"

namespace egwalker {
namespace {

// Naive oracle: a vector of scalar values.
class NaiveText {
 public:
  void InsertAt(size_t pos, std::string_view utf8) {
    std::vector<uint32_t> cps;
    size_t i = 0;
    while (i < utf8.size()) {
      size_t len;
      cps.push_back(Utf8DecodeAt(utf8, i, &len));
      i += len;
    }
    chars_.insert(chars_.begin() + static_cast<long>(pos), cps.begin(), cps.end());
  }
  void RemoveAt(size_t pos, size_t count) {
    chars_.erase(chars_.begin() + static_cast<long>(pos),
                 chars_.begin() + static_cast<long>(pos + count));
  }
  size_t size() const { return chars_.size(); }
  std::string ToString() const {
    std::string out;
    for (uint32_t cp : chars_) {
      Utf8Append(out, cp);
    }
    return out;
  }

 private:
  std::vector<uint32_t> chars_;
};

TEST(Utf8, CountAndIndex) {
  std::string s = "a\xc3\xa9\xe4\xb8\x96\xf0\x9f\x98\x80z";  // a é 世 😀 z
  EXPECT_EQ(Utf8CountChars(s), 5u);
  EXPECT_EQ(Utf8ByteOfChar(s, 0), 0u);
  EXPECT_EQ(Utf8ByteOfChar(s, 1), 1u);
  EXPECT_EQ(Utf8ByteOfChar(s, 2), 3u);
  EXPECT_EQ(Utf8ByteOfChar(s, 3), 6u);
  EXPECT_EQ(Utf8ByteOfChar(s, 4), 10u);
  EXPECT_EQ(Utf8ByteOfChar(s, 5), 11u);
}

TEST(Utf8, Validation) {
  EXPECT_TRUE(Utf8IsValid("hello"));
  EXPECT_TRUE(Utf8IsValid("\xc3\xa9"));
  EXPECT_FALSE(Utf8IsValid("\xc3"));          // Truncated.
  EXPECT_FALSE(Utf8IsValid("\x80"));          // Bare continuation.
  EXPECT_FALSE(Utf8IsValid("\xff"));          // Invalid lead byte.
  EXPECT_FALSE(Utf8IsValid("\xe4\xb8"));      // Truncated 3-byte.
}

TEST(Rope, EmptyBehaviour) {
  Rope r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.char_size(), 0u);
  EXPECT_EQ(r.byte_size(), 0u);
  EXPECT_EQ(r.ToString(), "");
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, BasicInsertAndRemove) {
  Rope r;
  r.InsertAt(0, "Helo");
  r.InsertAt(3, "l");
  EXPECT_EQ(r.ToString(), "Hello");
  r.InsertAt(5, "!");
  EXPECT_EQ(r.ToString(), "Hello!");
  r.RemoveAt(0, 1);
  EXPECT_EQ(r.ToString(), "ello!");
  r.RemoveAt(4, 1);
  EXPECT_EQ(r.ToString(), "ello");
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, ConstructFromString) {
  std::string text(5000, 'x');
  Rope r(text);
  EXPECT_EQ(r.char_size(), 5000u);
  EXPECT_EQ(r.ToString(), text);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, LargeSequentialAppendSplitsLeaves) {
  Rope r;
  std::string expected;
  for (int i = 0; i < 2000; ++i) {
    std::string word = "w" + std::to_string(i) + " ";
    r.InsertAt(r.char_size(), word);
    expected += word;
  }
  EXPECT_EQ(r.ToString(), expected);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, PrependRepeatedly) {
  Rope r;
  std::string expected;
  for (int i = 0; i < 500; ++i) {
    r.InsertAt(0, "ab");
    expected = "ab" + expected;
  }
  EXPECT_EQ(r.ToString(), expected);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, RemoveEverything) {
  Rope r(std::string(1000, 'q'));
  r.RemoveAt(0, 1000);
  EXPECT_EQ(r.char_size(), 0u);
  EXPECT_EQ(r.ToString(), "");
  EXPECT_TRUE(r.CheckInvariants());
  r.InsertAt(0, "fresh");
  EXPECT_EQ(r.ToString(), "fresh");
}

TEST(Rope, RemoveAcrossLeaves) {
  std::string text;
  for (int i = 0; i < 300; ++i) {
    text += "0123456789";
  }
  Rope r(text);
  r.RemoveAt(100, 2500);
  text.erase(100, 2500);
  EXPECT_EQ(r.ToString(), text);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, MulticharUnicode) {
  Rope r;
  r.InsertAt(0, "héllo 世界");
  EXPECT_EQ(r.char_size(), 8u);
  r.InsertAt(6, "😀");
  EXPECT_EQ(r.char_size(), 9u);
  EXPECT_EQ(r.ToString(), "héllo 😀世界");
  EXPECT_EQ(r.CharAt(6), 0x1F600u);
  r.RemoveAt(6, 1);
  EXPECT_EQ(r.ToString(), "héllo 世界");
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(Rope, Substring) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "abcdefghij";
  }
  Rope r(text);
  EXPECT_EQ(r.Substring(0, 5), "abcde");
  EXPECT_EQ(r.Substring(995, 5), "fghij");
  EXPECT_EQ(r.Substring(37, 20), text.substr(37, 20));
  EXPECT_EQ(r.Substring(0, 0), "");
}

TEST(Rope, CharAt) {
  Rope r("hello");
  EXPECT_EQ(r.CharAt(0), 'h');
  EXPECT_EQ(r.CharAt(4), 'o');
}

TEST(Rope, CopyIsDeep) {
  Rope a("shared");
  Rope b(a);
  b.InsertAt(0, "not ");
  EXPECT_EQ(a.ToString(), "shared");
  EXPECT_EQ(b.ToString(), "not shared");
  a = b;
  EXPECT_EQ(a.ToString(), "not shared");
  a.RemoveAt(0, 4);
  EXPECT_EQ(b.ToString(), "not shared");
}

TEST(Rope, MoveTransfersOwnership) {
  Rope a("content");
  Rope b(std::move(a));
  EXPECT_EQ(b.ToString(), "content");
  EXPECT_EQ(a.char_size(), 0u);  // NOLINT(bugprone-use-after-move)
  a = std::move(b);
  EXPECT_EQ(a.ToString(), "content");
}

TEST(Rope, ForEachChunkConcatenatesToFullText) {
  std::string text;
  for (int i = 0; i < 700; ++i) {
    text += "chunk" + std::to_string(i);
  }
  Rope r(text);
  std::string collected;
  r.ForEachChunk(
      [](std::string_view chunk, void* ctx) {
        static_cast<std::string*>(ctx)->append(chunk);
      },
      &collected);
  EXPECT_EQ(collected, text);
}

TEST(Rope, MixedWidthBulkConstructionSplitsSafely) {
  // Regression: inserting one long text whose multi-byte scalars straddle
  // leaf byte midpoints used to overflow a leaf — the split backs down to a
  // scalar boundary, so the right half can exceed half the leaf capacity,
  // and a maximum-size insert chunk then failed the capacity check. Build
  // many mixed-width strings with pseudo-random interleavings and round-trip
  // each through both bulk paths: one InsertAt into an empty rope (leaf
  // splits and the chunk capacity check), and Rope(text), the bottom-up
  // builder of the cached-doc reload path.
  const char* pieces[] = {"a", "bc", "é", "ß", "世", "界", "😀", "𝄞", "\n"};
  Prng rng(77);
  for (int round = 0; round < 200; ++round) {
    std::string text;
    size_t target = 200 + rng.Below(1200);
    while (text.size() < target) {
      text += pieces[rng.Below(sizeof(pieces) / sizeof(pieces[0]))];
    }
    Rope built(text);
    ASSERT_TRUE(built.CheckInvariants()) << "round " << round;
    ASSERT_EQ(built.ToString(), text) << "round " << round;
    Rope inserted;
    inserted.InsertAt(0, text);
    ASSERT_TRUE(inserted.CheckInvariants()) << "round " << round;
    ASSERT_EQ(inserted.ToString(), text) << "round " << round;
    ASSERT_EQ(inserted.char_size(), built.char_size()) << "round " << round;
  }
}

// Exactly `bytes` bytes of text: `pad` ASCII bytes, then the 9-byte period
// "é世😀" (2-, 3- and 4-byte scalars) cut back to a scalar boundary, then
// ASCII up to the length. Over pads 0-8 a cut at any fixed byte offset lands
// on every position of the period, so a 2-, 3- and 4-byte scalar straddles
// each 256-byte leaf cut at each of its inner bytes.
std::string MixedWidthText(size_t bytes, size_t pad) {
  std::string text(std::min(pad, bytes), 'p');
  while (text.size() + 9 <= bytes) {
    text += "\xc3\xa9\xe4\xb8\x96\xf0\x9f\x98\x80";  // é 世 😀
  }
  text.append(bytes - text.size(), 'z');
  return text;
}

// Rope(text) builds the tree bottom-up with full leaves; an empty rope fed
// the same text by InsertAt descends and splits. Both must read the same.
TEST(Rope, BulkBuildReadsLikeInsertAt) {
  for (size_t bytes : {0, 1, 255, 256, 257, 4096}) {
    for (size_t pad = 0; pad < 9; ++pad) {
      const std::string text = MixedWidthText(bytes, pad);
      ASSERT_TRUE(Utf8IsValid(text));
      const std::string label = std::to_string(bytes) + " bytes, pad " + std::to_string(pad);
      Rope built(text);
      Rope inserted;
      inserted.InsertAt(0, text);
      ASSERT_TRUE(built.CheckInvariants()) << label;
      ASSERT_TRUE(inserted.CheckInvariants()) << label;
      EXPECT_EQ(built.ToString(), text) << label;
      EXPECT_EQ(built.ToString(), inserted.ToString()) << label;
      ASSERT_EQ(built.char_size(), inserted.char_size()) << label;
      EXPECT_EQ(built.char_size(), Utf8CountChars(text)) << label;
      EXPECT_EQ(built.byte_size(), inserted.byte_size()) << label;
      EXPECT_EQ(built.byte_size(), text.size()) << label;
      const size_t n = built.char_size();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(built.CharAt(i), inserted.CharAt(i)) << label << ", char " << i;
      }
      for (size_t from = 0; from <= n; from += 37) {
        for (size_t len : {size_t{0}, size_t{1}, size_t{90}, n - from}) {
          len = std::min(len, n - from);
          ASSERT_EQ(built.Substring(from, len), inserted.Substring(from, len))
              << label << ", from " << from << " len " << len;
        }
      }
    }
  }
}

// A bulk-built rope starts with full leaves, so its first edit in any leaf
// splits it. Random edits on it must track the oracle.
TEST(Rope, BulkBuiltRopeEditsMatchOracle) {
  const char* snippets[] = {"a", "xyz", "é", "世界", "😀!", "\n", "a longer run of typed text"};
  for (uint64_t seed : {21, 22, 23}) {
    Prng rng(seed);
    const std::string text = MixedWidthText(4096, seed % 9);
    Rope rope(text);
    NaiveText naive;
    naive.InsertAt(0, text);
    for (int i = 0; i < 3000; ++i) {
      if (naive.size() == 0 || rng.Chance(0.55)) {
        size_t pos = rng.Below(naive.size() + 1);
        const char* snippet = snippets[rng.Below(7)];
        rope.InsertAt(pos, snippet);
        naive.InsertAt(pos, snippet);
      } else {
        size_t pos = rng.Below(naive.size());
        size_t count = 1 + rng.Below(std::min<size_t>(naive.size() - pos, 300));
        rope.RemoveAt(pos, count);
        naive.RemoveAt(pos, count);
      }
      ASSERT_EQ(rope.char_size(), naive.size()) << "seed " << seed << " step " << i;
      if (i % 100 == 0) {
        ASSERT_TRUE(rope.CheckInvariants()) << "seed " << seed << " step " << i;
        ASSERT_EQ(rope.ToString(), naive.ToString()) << "seed " << seed << " step " << i;
      }
    }
    EXPECT_EQ(rope.ToString(), naive.ToString()) << "seed " << seed;
    EXPECT_TRUE(rope.CheckInvariants()) << "seed " << seed;
  }
}

TEST(Rope, AlternatingInsertDeletePointsMatchOracle) {
  // Two clustered cursors — a typing point and a distant delete point —
  // interleaved every step, the walker-style workload the two-entry edit
  // cache serves. Differential vs the oracle validates the cross-cache
  // absolute-offset fixups when one cache's edit shifts the other's leaf.
  for (uint64_t seed : {11, 12, 13}) {
    Prng rng(seed);
    Rope rope;
    NaiveText naive;
    std::string base(8000, 'x');
    rope.InsertAt(0, base);
    naive.InsertAt(0, base);
    size_t ins_cursor = naive.size() / 4;
    size_t del_cursor = (naive.size() * 3) / 4;
    for (int i = 0; i < 6000; ++i) {
      if (rng.Chance(0.01)) {  // Occasionally relocate both points.
        ins_cursor = rng.Below(naive.size() + 1);
        del_cursor = rng.Below(naive.size());
      }
      ins_cursor = std::min(ins_cursor, naive.size());
      rope.InsertAt(ins_cursor, "ab");
      naive.InsertAt(ins_cursor, "ab");
      ins_cursor += 2;
      if (del_cursor >= ins_cursor && del_cursor + 2 <= naive.size()) {
        del_cursor += 2;  // Keep the delete point on the same text.
      }
      if (del_cursor + 1 < naive.size()) {
        rope.RemoveAt(del_cursor, 1);
        naive.RemoveAt(del_cursor, 1);
      } else {
        del_cursor = naive.size() / 2;
      }
      ASSERT_EQ(rope.char_size(), naive.size()) << "seed " << seed << " step " << i;
    }
    EXPECT_EQ(rope.ToString(), naive.ToString()) << "seed " << seed;
    EXPECT_TRUE(rope.CheckInvariants()) << "seed " << seed;
  }
}

// Randomised differential test vs the oracle, parameterised over edit mixes.
struct FuzzParams {
  uint64_t seed;
  double insert_prob;
  int ops;
};

class RopeFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(RopeFuzzTest, MatchesNaiveOracle) {
  const FuzzParams p = GetParam();
  Prng rng(p.seed);
  Rope rope;
  NaiveText naive;
  const char* snippets[] = {"a", "xyz", "hello world", "é", "世界", "😀!", "\n", "long-ish text"};
  for (int i = 0; i < p.ops; ++i) {
    if (naive.size() == 0 || rng.Chance(p.insert_prob)) {
      size_t pos = rng.Below(naive.size() + 1);
      const char* text = snippets[rng.Below(8)];
      rope.InsertAt(pos, text);
      naive.InsertAt(pos, text);
    } else {
      size_t pos = rng.Below(naive.size());
      size_t count = 1 + rng.Below(std::min<size_t>(naive.size() - pos, 20));
      rope.RemoveAt(pos, count);
      naive.RemoveAt(pos, count);
    }
    ASSERT_EQ(rope.char_size(), naive.size());
  }
  EXPECT_EQ(rope.ToString(), naive.ToString());
  EXPECT_TRUE(rope.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Mixes, RopeFuzzTest,
                         ::testing::Values(FuzzParams{1, 0.9, 4000},   // Growth-heavy.
                                           FuzzParams{2, 0.5, 4000},   // Balanced churn.
                                           FuzzParams{3, 0.55, 8000},  // Long churn.
                                           FuzzParams{4, 0.7, 2000},   // Moderate.
                                           FuzzParams{5, 0.95, 6000},  // Mostly typing.
                                           FuzzParams{6, 0.45, 6000}   // Shrink-heavy.
                                           ));

}  // namespace
}  // namespace egwalker
