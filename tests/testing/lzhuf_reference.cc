#include "testing/lzhuf_reference.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lzhuf/lzhuf.h"

namespace egwalker::lzhuf_reference {
namespace {

// --- Alphabets (docs/EGWS.md) ---------------------------------------------
//
// Restated here rather than shared with src/lzhuf/, so a change to the
// library's tables shows up as a disagreement with the oracle.

constexpr int kEob = 256;
constexpr int kNumLenCodes = 29;
constexpr int kLitLenSymbols = 257 + kNumLenCodes;
constexpr uint16_t kLenBase[kNumLenCodes] = {4,  5,  6,  7,   8,   9,   10,  11,  12, 14,
                                             16, 18, 20, 24,  28,  32,  36,  44,  52, 60,
                                             68, 84, 100, 116, 132, 164, 196, 228, 259};
constexpr uint8_t kLenExtra[kNumLenCodes] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                             2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

constexpr int kNumDistCodes = 32;
constexpr uint32_t kDistBase[kNumDistCodes] = {
    1,    2,    3,    4,    5,    7,    9,     13,    17,    25,   33,
    49,   65,   97,   129,  193,  257,  385,   513,   769,   1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577, 32769, 49153};
constexpr uint8_t kDistExtra[kNumDistCodes] = {0, 0, 0, 0, 1,  1,  2,  2,  3,  3,  4,
                                               4, 5, 5, 6, 6,  7,  7,  8,  8,  9,  9,
                                               10, 10, 11, 11, 12, 12, 13, 13, 14, 14};

constexpr int kMaxCodeLen = 15;

// --- Bit input: one bit per call, LSB-first within bytes ------------------

class BitReader {
 public:
  explicit BitReader(std::string_view src) : src_(src) {}
  // Returns -1 past the end of input.
  int GetBit() {
    size_t byte = pos_ >> 3;
    if (byte >= src_.size()) {
      return -1;
    }
    int bit = (static_cast<unsigned char>(src_[byte]) >> (pos_ & 7)) & 1;
    ++pos_;
    return bit;
  }
  bool GetBitsLsb(int count, uint64_t* value) {
    *value = 0;
    for (int i = 0; i < count; ++i) {
      int bit = GetBit();
      if (bit < 0) {
        return false;
      }
      *value |= static_cast<uint64_t>(bit) << i;
    }
    return true;
  }
  // Bits of input not yet consumed (padding tolerance check).
  size_t RemainingBits() const { return src_.size() * 8 - pos_; }

 private:
  std::string_view src_;
  size_t pos_ = 0;
};

// --- Canonical Huffman decoding --------------------------------------------

// Per-length first code and symbol index, plus symbols ordered by (length,
// symbol).
struct Decoder {
  uint32_t first_code[kMaxCodeLen + 1] = {0};
  uint32_t first_index[kMaxCodeLen + 1] = {0};
  uint32_t count[kMaxCodeLen + 1] = {0};
  std::vector<uint16_t> symbols;
  bool usable = false;  // At least one symbol.
};

// Builds `dec`; false if the lengths are not a valid canonical code (Kraft
// sum off — except a lone symbol, which must have length 1).
bool BuildDecoder(const std::vector<uint8_t>& lengths, Decoder* dec) {
  uint32_t bl_count[kMaxCodeLen + 1] = {0};
  uint32_t used = 0;
  for (uint8_t len : lengths) {
    if (len > kMaxCodeLen) {
      return false;
    }
    if (len > 0) {
      ++bl_count[len];
      ++used;
    }
  }
  if (used == 0) {
    return true;  // Valid but unusable: any decode attempt fails.
  }
  if (used == 1) {
    if (bl_count[1] != 1) {
      return false;
    }
  } else {
    uint64_t kraft = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      kraft += static_cast<uint64_t>(bl_count[len]) << (kMaxCodeLen - len);
    }
    if (kraft != 1ull << kMaxCodeLen) {
      return false;  // Incomplete or oversubscribed code.
    }
  }
  uint32_t code = 0;
  uint32_t index = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    dec->first_code[len] = code;
    dec->first_index[len] = index;
    dec->count[len] = bl_count[len];
    index += bl_count[len];
  }
  dec->symbols.resize(used);
  std::vector<uint32_t> next(kMaxCodeLen + 1);
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    next[len] = dec->first_index[len];
  }
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] > 0) {
      dec->symbols[next[lengths[i]]++] = static_cast<uint16_t>(i);
    }
  }
  dec->usable = true;
  return true;
}

// Reads one symbol by growing the code a bit at a time; -1 on any failure.
int DecodeSymbol(BitReader& reader, const Decoder& dec) {
  if (!dec.usable) {
    return -1;
  }
  uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    int bit = reader.GetBit();
    if (bit < 0) {
      return -1;
    }
    code = (code << 1) | static_cast<uint32_t>(bit);
    if (dec.count[len] != 0 && code - dec.first_code[len] < dec.count[len]) {
      return dec.symbols[dec.first_index[len] + (code - dec.first_code[len])];
    }
  }
  return -1;
}

// (4-bit length, 8-bit run) pairs until the alphabet is covered; a run byte
// of 0 means 256.
bool ReadLengthTable(BitReader& reader, size_t alphabet, std::vector<uint8_t>* lengths) {
  lengths->assign(alphabet, 0);
  size_t covered = 0;
  while (covered < alphabet) {
    uint64_t len = 0;
    uint64_t run = 0;
    if (!reader.GetBitsLsb(4, &len) || !reader.GetBitsLsb(8, &run)) {
      return false;
    }
    if (run == 0) {
      run = 256;
    }
    if (covered + run > alphabet) {
      return false;
    }
    for (uint64_t j = 0; j < run; ++j) {
      (*lengths)[covered++] = static_cast<uint8_t>(len);
    }
  }
  return true;
}

// Decodes a symbol stream under the given decoders (everything after the
// code-length tables).
std::optional<std::string> DecodeStream(BitReader& reader, const Decoder& lit_dec,
                                        const Decoder& dist_dec, size_t decompressed_size) {
  std::string out;
  for (;;) {
    int sym = DecodeSymbol(reader, lit_dec);
    if (sym < 0 || sym >= kLitLenSymbols) {
      return std::nullopt;
    }
    if (sym == kEob) {
      break;
    }
    if (sym < 256) {
      if (out.size() >= decompressed_size) {
        return std::nullopt;
      }
      out.push_back(static_cast<char>(sym));
      continue;
    }
    int lc = sym - 257;
    uint64_t len_extra = 0;
    if (!reader.GetBitsLsb(kLenExtra[lc], &len_extra)) {
      return std::nullopt;
    }
    size_t len = kLenBase[lc] + len_extra;
    int dsym = DecodeSymbol(reader, dist_dec);
    if (dsym < 0 || dsym >= kNumDistCodes) {
      return std::nullopt;
    }
    uint64_t dist_extra = 0;
    if (!reader.GetBitsLsb(kDistExtra[dsym], &dist_extra)) {
      return std::nullopt;
    }
    size_t dist = kDistBase[dsym] + dist_extra;
    if (dist == 0 || dist > out.size() || out.size() + len > decompressed_size) {
      return std::nullopt;
    }
    size_t from = out.size() - dist;
    for (size_t i = 0; i < len; ++i) {  // Overlap-safe byte copy.
      out.push_back(out[from + i]);
    }
  }
  if (out.size() != decompressed_size) {
    return std::nullopt;
  }
  // The stream must end inside its final byte.
  if (reader.RemainingBits() >= 8) {
    return std::nullopt;
  }
  return out;
}

// The static code: lit/len 226 symbols at 8 bits + 60 (bytes 196..255) at
// 9 bits; distances all 32 at 5 bits.
void StaticLengths(std::vector<uint8_t>* lit_lengths, std::vector<uint8_t>* dist_lengths) {
  lit_lengths->assign(kLitLenSymbols, 8);
  for (size_t sym = 196; sym < 256; ++sym) {
    (*lit_lengths)[sym] = 9;
  }
  dist_lengths->assign(kNumDistCodes, 5);
}

std::optional<std::string> DecodeWithLengths(BitReader& reader,
                                             const std::vector<uint8_t>& lit_lengths,
                                             const std::vector<uint8_t>& dist_lengths,
                                             size_t decompressed_size) {
  Decoder lit_dec;
  Decoder dist_dec;
  if (!BuildDecoder(lit_lengths, &lit_dec) || !BuildDecoder(dist_lengths, &dist_dec)) {
    return std::nullopt;
  }
  return DecodeStream(reader, lit_dec, dist_dec, decompressed_size);
}

}  // namespace

std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size) {
  BitReader reader(src);
  std::vector<uint8_t> lit_lengths;
  std::vector<uint8_t> dist_lengths;
  if (!ReadLengthTable(reader, kLitLenSymbols, &lit_lengths) ||
      !ReadLengthTable(reader, kNumDistCodes, &dist_lengths)) {
    return std::nullopt;
  }
  return DecodeWithLengths(reader, lit_lengths, dist_lengths, decompressed_size);
}

std::optional<std::string> DecompressStatic(std::string_view src, size_t decompressed_size) {
  std::vector<uint8_t> lit_lengths;
  std::vector<uint8_t> dist_lengths;
  StaticLengths(&lit_lengths, &dist_lengths);
  BitReader reader(src);
  return DecodeWithLengths(reader, lit_lengths, dist_lengths, decompressed_size);
}

std::string CompareDecoders(bool static_code, std::string_view stream, size_t size,
                            size_t* accepted) {
  std::optional<std::string> got =
      static_code ? lzhuf::DecompressStatic(stream, size) : lzhuf::Decompress(stream, size);
  std::optional<std::string> want =
      static_code ? DecompressStatic(stream, size) : Decompress(stream, size);
  if (got.has_value() != want.has_value()) {
    return std::string("library ") + (got ? "accepts" : "rejects") + ", reference " +
           (want ? "accepts" : "rejects");
  }
  if (got && *got != *want) {
    return "both accept, output differs";
  }
  if (got && accepted != nullptr) {
    ++*accepted;
  }
  return {};
}

std::string DifferentialSweep(bool static_code, std::string_view stream, size_t size,
                              Prng& rng, int mutations, size_t* accepted) {
  auto check = [&](std::string_view s, size_t n, const std::string& what) -> std::string {
    std::string err = CompareDecoders(static_code, s, n, accepted);
    return err.empty() ? err : what + ": " + err;
  };
  if (std::string err = check(stream, size, "pristine"); !err.empty()) {
    return err;
  }
  for (size_t len = 0; len < stream.size(); ++len) {
    if (std::string err = check(stream.substr(0, len), size, "truncated to " +
                                                                 std::to_string(len));
        !err.empty()) {
      return err;
    }
  }
  for (int delta = -2; delta <= 2; ++delta) {
    if (delta == 0 || (delta < 0 && size < static_cast<size_t>(-delta))) {
      continue;
    }
    if (std::string err = check(stream, size + delta, "size " + std::to_string(delta));
        !err.empty()) {
      return err;
    }
  }
  for (int m = 0; m < mutations; ++m) {
    std::string s(stream);
    std::string what;
    switch (rng.Below(5)) {
      case 0: {  // One to three bit flips.
        what = "bit flips";
        for (uint64_t k = 1 + rng.Below(3); k > 0 && !s.empty(); --k) {
          s[rng.Below(s.size())] ^= static_cast<char>(1u << rng.Below(8));
        }
        break;
      }
      case 1:  // Byte overwrite.
        what = "byte overwrite";
        if (!s.empty()) {
          s[rng.Below(s.size())] = static_cast<char>(rng.Next() & 0xff);
        }
        break;
      case 2:  // Appended bytes.
        what = "appended bytes";
        for (uint64_t k = 1 + rng.Below(3); k > 0; --k) {
          s.push_back(static_cast<char>(rng.Next() & 0xff));
        }
        break;
      case 3:  // Flip near the end, where the EOB and padding live.
        what = "tail bit flip";
        if (!s.empty()) {
          s[s.size() - 1 - rng.Below(std::min<size_t>(s.size(), 4))] ^=
              static_cast<char>(1u << rng.Below(8));
        }
        break;
      default:  // Pure garbage of similar length.
        what = "garbage";
        for (char& c : s) {
          c = static_cast<char>(rng.Next() & 0xff);
        }
        break;
    }
    if (std::string err = check(s, size, what + " #" + std::to_string(m)); !err.empty()) {
      return err;
    }
  }
  return {};
}

}  // namespace egwalker::lzhuf_reference
