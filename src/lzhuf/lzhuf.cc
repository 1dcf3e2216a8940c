#include "lzhuf/lzhuf.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <queue>
#include <vector>

#include "lz4/lz4.h"
#include "util/assert.h"

namespace egwalker::lzhuf {
namespace {

// --- Alphabets ---------------------------------------------------------------
//
// Lit/len: 0..255 literal bytes, 256 end-of-block, 257+i a match length in
// bucket i (value = base + LSB-first extra bits). Distances use their own
// bucketed alphabet. The buckets are deflate's, shifted to min match 4 and
// extended to the 64KiB window of lz4::Parse. docs/EGWS.md states the
// format normatively.

constexpr int kEob = 256;
constexpr int kNumLenCodes = 29;
constexpr int kLitLenSymbols = 257 + kNumLenCodes;
constexpr uint16_t kLenBase[kNumLenCodes] = {4,  5,  6,  7,   8,   9,   10,  11,  12, 14,
                                             16, 18, 20, 24,  28,  32,  36,  44,  52, 60,
                                             68, 84, 100, 116, 132, 164, 196, 228, 259};
constexpr uint8_t kLenExtra[kNumLenCodes] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                             2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr size_t kMaxMatch = 259;  // Longer parse matches are split.

constexpr int kNumDistCodes = 32;
constexpr uint32_t kDistBase[kNumDistCodes] = {
    1,    2,    3,    4,    5,    7,    9,     13,    17,    25,   33,
    49,   65,   97,   129,  193,  257,  385,   513,   769,   1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577, 32769, 49153};
constexpr uint8_t kDistExtra[kNumDistCodes] = {0, 0, 0, 0, 1,  1,  2,  2,  3,  3,  4,
                                               4, 5, 5, 6, 6,  7,  7,  8,  8,  9,  9,
                                               10, 10, 11, 11, 12, 12, 13, 13, 14, 14};

constexpr int kMaxCodeLen = 15;

// Match length (4..kMaxMatch) -> length bucket, indexed by len - 4: the
// last bucket whose base does not exceed len.
constexpr std::array<uint8_t, kMaxMatch - 3> kLenCode = [] {
  std::array<uint8_t, kMaxMatch - 3> table{};
  for (size_t len = 4; len <= kMaxMatch; ++len) {
    for (uint8_t code = 0; code < kNumLenCodes; ++code) {
      if (kLenBase[code] <= len) {
        table[len - 4] = code;
      }
    }
  }
  return table;
}();

int LenToCode(size_t len) { return kLenCode[len - 4]; }

// Distance (1..65535) -> distance bucket. Distances 1..4 have a bucket
// each; above that, every power of two of (distance - 1) splits into two
// buckets on its second-highest bit.
constexpr int DistToCode(size_t dist) {
  const uint32_t d = static_cast<uint32_t>(dist - 1);
  if (d < 4) {
    return static_cast<int>(d);
  }
  const int top = std::bit_width(d) - 1;
  return 2 * top + static_cast<int>((d >> (top - 1)) & 1);
}

// The closed form must pick exactly the bucket whose range holds the
// distance.
constexpr bool DistCodesMatchBuckets() {
  for (int code = 0; code < kNumDistCodes; ++code) {
    for (uint32_t k = 0; k < (1u << kDistExtra[code]); ++k) {
      if (DistToCode(kDistBase[code] + k) != code) {
        return false;
      }
    }
  }
  return true;
}
static_assert(DistCodesMatchBuckets());

// --- Bit I/O -----------------------------------------------------------------
//
// LSB-first packing within bytes. Huffman codes are sent MSB-first (the
// canonical-code convention). The writer keeps every code bit-reversed, so
// sending one is a single LSB-first write; the reader indexes its lookup
// tables by the next stream bits, which are likewise a reversed code.
// Extra-bits fields are plain LSB-first integers.

uint32_t ReverseBits(uint32_t code, int len) {
  uint32_t out = 0;
  for (int i = 0; i < len; ++i) {
    out = (out << 1) | ((code >> i) & 1u);
  }
  return out;
}

class BitWriter {
 public:
  // Appends the low `count` (<= 32) bits of `bits`, which must have no
  // higher bit set.
  void Put(uint32_t bits, int count) {
    acc_ |= static_cast<uint64_t>(bits) << nbits_;
    nbits_ += count;
    if (nbits_ >= 32) {
      const char word[4] = {static_cast<char>(acc_), static_cast<char>(acc_ >> 8),
                            static_cast<char>(acc_ >> 16), static_cast<char>(acc_ >> 24)};
      out_.append(word, 4);
      acc_ >>= 32;
      nbits_ -= 32;
    }
  }
  // Flushes the partial last byte, zero-padded.
  std::string Finish() {
    for (; nbits_ > 0; nbits_ -= 8) {
      out_.push_back(static_cast<char>(acc_));
      acc_ >>= 8;
    }
    nbits_ = 0;
    return std::move(out_);
  }

 private:
  std::string out_;
  uint64_t acc_ = 0;
  int nbits_ = 0;  // Pending bits in acc_, < 32 between calls.
};

class BitReader {
 public:
  explicit BitReader(std::string_view src)
      : next_(reinterpret_cast<const unsigned char*>(src.data())), end_(next_ + src.size()) {}

  // Tops the buffer up to at least 56 bits, or to every input bit left.
  // With 8 input bytes to spare this is one unaligned load and no branch
  // on the bit count; the last 7 bytes go in one at a time. Either way the
  // bits above the buffered ones are the next input bits or, past the end
  // of input, zero.
  void Refill() {
    if (end_ - next_ >= 8) {
      uint64_t word;
      std::memcpy(&word, next_, 8);
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap64(word);
      }
      buf_ |= word << avail_;
      next_ += (63 - avail_) >> 3;
      avail_ |= 56;
    } else {
      while (avail_ <= 56 && next_ != end_) {
        buf_ |= static_cast<uint64_t>(*next_++) << avail_;
        avail_ += 8;
      }
    }
  }
  uint64_t Peek() const { return buf_; }
  // Drops `count` buffered bits; false if fewer are buffered, which after a
  // Refill means the input ends first.
  bool Skip(int count) {
    if (count > avail_) {
      return false;
    }
    buf_ >>= count;
    avail_ -= count;
    return true;
  }
  bool Read(int count, uint32_t* value) {
    *value = static_cast<uint32_t>(buf_ & ((uint64_t{1} << count) - 1));
    return Skip(count);
  }
  // Input bits not yet consumed.
  size_t RemainingBits() const {
    return static_cast<size_t>(avail_) + 8 * static_cast<size_t>(end_ - next_);
  }

 private:
  const unsigned char* next_;
  const unsigned char* end_;
  uint64_t buf_ = 0;
  int avail_ = 0;  // Buffered bits, at the bottom of buf_.
};

// --- Canonical Huffman -------------------------------------------------------

// Code lengths (<= kMaxCodeLen, 0 = unused) for `freq`. A lone used symbol
// gets length 1; all-zero frequencies produce all-zero lengths.
std::vector<uint8_t> BuildLengths(std::vector<uint64_t> freq) {
  const size_t n = freq.size();
  std::vector<uint8_t> lengths(n, 0);
  for (;;) {
    // (weight, node id); ids >= n are internal nodes.
    using Entry = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<std::pair<uint32_t, uint32_t>> children;  // Internal nodes.
    for (size_t i = 0; i < n; ++i) {
      if (freq[i] > 0) {
        heap.emplace(freq[i], static_cast<uint32_t>(i));
      }
    }
    if (heap.empty()) {
      return lengths;
    }
    if (heap.size() == 1) {
      lengths[heap.top().second] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      Entry a = heap.top();
      heap.pop();
      Entry b = heap.top();
      heap.pop();
      uint32_t id = static_cast<uint32_t>(n + children.size());
      children.emplace_back(a.second, b.second);
      heap.emplace(a.first + b.first, id);
    }
    // Depths by walking the internal nodes top-down (the root is the last
    // internal node created).
    std::vector<uint8_t> depth(n + children.size(), 0);
    uint8_t max_depth = 0;
    for (size_t i = children.size(); i-- > 0;) {
      uint8_t d = static_cast<uint8_t>(depth[n + i] + 1);
      depth[children[i].first] = d;
      depth[children[i].second] = d;
      max_depth = std::max(max_depth, d);
    }
    if (max_depth <= kMaxCodeLen) {
      for (size_t i = 0; i < n; ++i) {
        lengths[i] = freq[i] > 0 ? depth[i] : 0;
      }
      return lengths;
    }
    // Depth overflow (possible under extreme skew): flatten the frequency
    // distribution and rebuild. Converges quickly; the all-equal fixpoint
    // yields ceil(log2(used)) <= 9 bits for our alphabets.
    for (size_t i = 0; i < n; ++i) {
      if (freq[i] > 0) {
        freq[i] = freq[i] / 2 + 1;
      }
    }
  }
}

// Canonical code values for `lengths` (shorter codes first, ties by symbol),
// each bit-reversed for BitWriter::Put.
std::vector<uint32_t> ReversedCodes(const std::vector<uint8_t>& lengths) {
  uint32_t bl_count[kMaxCodeLen + 1] = {0};
  for (uint8_t len : lengths) {
    ++bl_count[len];
  }
  bl_count[0] = 0;
  uint32_t next_code[kMaxCodeLen + 1] = {0};
  uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    next_code[len] = code;
  }
  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] != 0) {
      codes[i] = ReverseBits(next_code[lengths[i]]++, lengths[i]);
    }
  }
  return codes;
}

// Primary lookup table width. Every static code and nearly every dynamic
// code fits; longer codes take DecodeLong.
constexpr int kTableBits = 10;

// Decoding tables for one canonical code.
struct Decoder {
  // Indexed by the next kTableBits stream bits: (symbol << 4) | length for
  // a code of <= kTableBits bits. 0 marks a longer code, or bits no code
  // starts with (an unused lone-symbol pattern, an empty code).
  uint16_t table[1 << kTableBits] = {0};
  // Canonical layout for DecodeLong: per length, the first code, the index
  // of its symbol in `symbols`, and the number of codes.
  uint32_t first_code[kMaxCodeLen + 1] = {0};
  uint32_t first_index[kMaxCodeLen + 1] = {0};
  uint32_t count[kMaxCodeLen + 1] = {0};
  uint16_t symbols[kLitLenSymbols] = {0};  // Ordered by (length, symbol).
};

// Builds `dec`; false if the lengths are not a valid canonical code (Kraft
// sum off — except the lone-symbol special case, mirroring BuildLengths).
// An all-zero code is valid but decodes nothing.
bool BuildDecoder(const uint8_t* lengths, size_t n, Decoder* dec) {
  uint32_t bl_count[kMaxCodeLen + 1] = {0};
  uint32_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    if (lengths[i] > kMaxCodeLen) {
      return false;
    }
    if (lengths[i] > 0) {
      ++bl_count[lengths[i]];
      ++used;
    }
  }
  if (used == 0) {
    return true;
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
  uint32_t next[kMaxCodeLen + 1] = {0};
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    dec->first_code[len] = code;
    dec->first_index[len] = index;
    dec->count[len] = bl_count[len];
    next[len] = index;
    index += bl_count[len];
  }
  for (size_t sym = 0; sym < n; ++sym) {
    const int len = lengths[sym];
    if (len == 0) {
      continue;
    }
    const uint32_t slot = next[len]++;
    dec->symbols[slot] = static_cast<uint16_t>(sym);
    if (len <= kTableBits) {
      const uint32_t reversed =
          ReverseBits(dec->first_code[len] + (slot - dec->first_index[len]), len);
      const uint16_t entry = static_cast<uint16_t>((sym << 4) | static_cast<size_t>(len));
      for (uint32_t i = reversed; i < (1u << kTableBits); i += 1u << len) {
        dec->table[i] = entry;
      }
    }
  }
  return true;
}

// The canonical grow-by-bit rule over the buffered bits, for what the table
// does not resolve; -1 if no code matches or the input ends inside it.
int DecodeLong(BitReader& in, const Decoder& dec) {
  uint64_t bits = in.Peek();
  uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len, bits >>= 1) {
    code = (code << 1) | static_cast<uint32_t>(bits & 1);
    if (code - dec.first_code[len] < dec.count[len]) {
      return in.Skip(len) ? dec.symbols[dec.first_index[len] + (code - dec.first_code[len])] : -1;
    }
  }
  return -1;
}

// Reads one symbol; -1 on failure. Needs >= kMaxCodeLen buffered bits, or
// the rest of the input.
inline int DecodeSymbol(BitReader& in, const Decoder& dec) {
  const uint16_t entry = dec.table[in.Peek() & ((1u << kTableBits) - 1)];
  if ((entry & 15) == 0) {
    return DecodeLong(in, dec);
  }
  return in.Skip(entry & 15) ? entry >> 4 : -1;
}

// --- Code-length tables on the wire ------------------------------------------
//
// (4-bit length, 8-bit run) pairs until the alphabet is covered; a run byte
// of 0 means 256. Cheap, and degenerate tables stay small.

void WriteLengthTable(BitWriter& writer, const std::vector<uint8_t>& lengths) {
  size_t i = 0;
  while (i < lengths.size()) {
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == lengths[i]) {
      ++run;
    }
    size_t left = run;
    while (left > 0) {
      size_t chunk = std::min<size_t>(left, 256);
      writer.Put(lengths[i], 4);
      writer.Put(chunk == 256 ? 0 : static_cast<uint32_t>(chunk), 8);
      left -= chunk;
    }
    i += run;
  }
}

bool ReadLengthTable(BitReader& in, size_t alphabet, uint8_t* lengths) {
  size_t covered = 0;
  while (covered < alphabet) {
    in.Refill();
    uint32_t len = 0;
    uint32_t run = 0;
    if (!in.Read(4, &len) || !in.Read(8, &run)) {
      return false;
    }
    if (run == 0) {
      run = 256;
    }
    if (covered + run > alphabet) {
      return false;
    }
    std::memset(lengths + covered, static_cast<int>(len), run);
    covered += run;
  }
  return true;
}

// Emits the symbol stream (pass 2 of Compress): literals, split matches,
// terminating EOB. Shared between the dynamic- and static-code variants —
// only the code tables differ. The codes are bit-reversed (ReversedCodes).
void EmitStream(BitWriter& writer, std::string_view src, const std::vector<lz4::LzStep>& steps,
                const std::vector<uint8_t>& lit_lengths, const std::vector<uint32_t>& lit_codes,
                const std::vector<uint8_t>& dist_lengths,
                const std::vector<uint32_t>& dist_codes) {
  size_t pos = 0;
  for (const lz4::LzStep& step : steps) {
    for (size_t i = 0; i < step.literals; ++i) {
      unsigned char c = static_cast<unsigned char>(src[pos + i]);
      writer.Put(lit_codes[c], lit_lengths[c]);
    }
    pos += step.literals;
    size_t remaining = step.match_len;
    while (remaining > 0) {
      size_t chunk = remaining;
      if (chunk > kMaxMatch) {
        chunk = remaining - kMaxMatch >= 4 ? kMaxMatch : kMaxMatch - 4;
      }
      int lc = LenToCode(chunk);
      size_t sym = 257 + static_cast<size_t>(lc);
      writer.Put(lit_codes[sym], lit_lengths[sym]);
      writer.Put(static_cast<uint32_t>(chunk - kLenBase[lc]), kLenExtra[lc]);
      int dc = DistToCode(step.offset);
      writer.Put(dist_codes[static_cast<size_t>(dc)], dist_lengths[static_cast<size_t>(dc)]);
      writer.Put(static_cast<uint32_t>(step.offset - kDistBase[dc]), kDistExtra[dc]);
      remaining -= chunk;
    }
    pos += step.match_len;
  }
  writer.Put(lit_codes[kEob], lit_lengths[kEob]);
}

// Decodes a symbol stream under the given decoders (everything after the
// code-length tables) into a buffer of exactly `decompressed_size` bytes,
// which the caller has bounded by the input size. Fail-closed exactly like
// Decompress.
std::optional<std::string> DecodeStream(BitReader& in, const Decoder& lit_dec,
                                        const Decoder& dist_dec, size_t decompressed_size) {
  std::string out(decompressed_size, '\0');
  char* const begin = out.data();
  char* const end = begin + decompressed_size;
  char* op = begin;
  for (;;) {
    // One refill covers a literal, or a whole match: at most 15 + 5 bits of
    // length and 15 + 14 of distance.
    in.Refill();
    const int sym = DecodeSymbol(in, lit_dec);
    if (sym < 256) {
      if (sym < 0 || op == end) {
        return std::nullopt;
      }
      *op++ = static_cast<char>(sym);
      continue;
    }
    if (sym == kEob) {
      break;
    }
    const int lc = sym - 257;
    uint32_t extra = 0;
    if (!in.Read(kLenExtra[lc], &extra)) {
      return std::nullopt;
    }
    const size_t len = kLenBase[lc] + extra;
    const int dc = DecodeSymbol(in, dist_dec);
    if (dc < 0 || !in.Read(kDistExtra[dc], &extra)) {
      return std::nullopt;
    }
    const size_t dist = kDistBase[dc] + extra;
    if (dist > static_cast<size_t>(op - begin) || len > static_cast<size_t>(end - op)) {
      return std::nullopt;
    }
    const char* from = op - dist;
    if (dist >= len) {
      std::memcpy(op, from, len);
    } else {
      for (size_t i = 0; i < len; ++i) {  // Overlapping: byte order matters.
        op[i] = from[i];
      }
    }
    op += len;
  }
  if (op != end) {
    return std::nullopt;
  }
  // The stream must end inside the final byte: trailing garbage is not
  // tolerated (a fail-closed tripwire against length-inflated input).
  if (in.RemainingBits() >= 8) {
    return std::nullopt;
  }
  return out;
}

// The fixed code for the table-less variant. Both length vectors are
// Kraft-exact so BuildDecoder accepts them unchanged:
//   lit/len: 226 symbols at 8 bits + 60 at 9 bits  (226/256 + 60/512 = 1)
//   dist:    all 32 symbols at 5 bits              (32/32 = 1)
// EOB and the match-length codes share the short class with the low
// literals — tiny column payloads are mostly ASCII plus matches, so the
// 9-bit class lands on the bytes they rarely contain.
void StaticLengths(std::vector<uint8_t>* lit_lengths, std::vector<uint8_t>* dist_lengths) {
  lit_lengths->assign(kLitLenSymbols, 8);
  for (size_t sym = 196; sym < 256; ++sym) {
    (*lit_lengths)[sym] = 9;
  }
  dist_lengths->assign(kNumDistCodes, 5);
}

struct StaticDecoders {
  Decoder lit;
  Decoder dist;
};

// Built once: the static code never changes.
const StaticDecoders& GetStaticDecoders() {
  static const StaticDecoders decoders = [] {
    StaticDecoders d;
    std::vector<uint8_t> lit_lengths;
    std::vector<uint8_t> dist_lengths;
    StaticLengths(&lit_lengths, &dist_lengths);
    // Kraft-exact by construction; BuildDecoder cannot fail on them.
    EGW_CHECK(BuildDecoder(lit_lengths.data(), lit_lengths.size(), &d.lit));
    EGW_CHECK(BuildDecoder(dist_lengths.data(), dist_lengths.size(), &d.dist));
    return d;
  }();
  return decoders;
}

// CompressStatic over a given parse.
std::string StaticStream(std::string_view src, const std::vector<lz4::LzStep>& steps) {
  std::vector<uint8_t> lit_lengths;
  std::vector<uint8_t> dist_lengths;
  StaticLengths(&lit_lengths, &dist_lengths);
  BitWriter writer;
  EmitStream(writer, src, steps, lit_lengths, ReversedCodes(lit_lengths), dist_lengths,
             ReversedCodes(dist_lengths));
  return writer.Finish();
}

}  // namespace

size_t MaxDecompressedSize(size_t stored_size) {
  // The tables take >= 36 bits (the 286-symbol lit/len table needs two
  // (length, run) pairs, the distance table one) and EOB >= 1. A literal
  // costs >= 1 bit per byte, a match >= 2 bits per <= kMaxMatch bytes, so
  // output peaks with all matches (an odd bit left can be one literal).
  constexpr size_t kOverheadBits = 37;
  if (stored_size * 8 < kOverheadBits) {
    return 0;
  }
  const size_t bits = stored_size * 8 - kOverheadBits;
  return bits / 2 * kMaxMatch + bits % 2;
}

size_t MaxDecompressedSizeStatic(size_t stored_size) {
  // EOB takes 8 bits, a literal >= 8 and a match 8 + 5 plus extra bits.
  if (stored_size == 0) {
    return 0;
  }
  const size_t bits = stored_size * 8 - 8;
  return bits / 13 * kMaxMatch + bits % 13 / 8;
}

std::string Compress(std::string_view src) { return Compress(src, lz4::Parse(src)); }

std::string Compress(std::string_view src, const std::vector<lz4::LzStep>& steps) {
  // Pass 1: symbol frequencies. Long matches are split into <= kMaxMatch
  // chunks (every chunk >= 4, see the emit loop).
  std::vector<uint64_t> lit_freq(kLitLenSymbols, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  lit_freq[kEob] = 1;
  {
    size_t pos = 0;
    for (const lz4::LzStep& step : steps) {
      for (size_t i = 0; i < step.literals; ++i) {
        ++lit_freq[static_cast<unsigned char>(src[pos + i])];
      }
      pos += step.literals;
      size_t remaining = step.match_len;
      while (remaining > 0) {
        size_t chunk = remaining;
        if (chunk > kMaxMatch) {
          chunk = remaining - kMaxMatch >= 4 ? kMaxMatch : kMaxMatch - 4;
        }
        ++lit_freq[257 + static_cast<size_t>(LenToCode(chunk))];
        ++dist_freq[static_cast<size_t>(DistToCode(step.offset))];
        remaining -= chunk;
      }
      pos += step.match_len;
    }
  }

  std::vector<uint8_t> lit_lengths = BuildLengths(lit_freq);
  std::vector<uint8_t> dist_lengths = BuildLengths(dist_freq);

  BitWriter writer;
  WriteLengthTable(writer, lit_lengths);
  WriteLengthTable(writer, dist_lengths);
  EmitStream(writer, src, steps, lit_lengths, ReversedCodes(lit_lengths), dist_lengths,
             ReversedCodes(dist_lengths));
  return writer.Finish();
}

std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size) {
  if (decompressed_size > MaxDecompressedSize(src.size())) {
    return std::nullopt;  // No stream this short decodes to that much.
  }
  BitReader in(src);
  uint8_t lit_lengths[kLitLenSymbols];
  uint8_t dist_lengths[kNumDistCodes];
  if (!ReadLengthTable(in, kLitLenSymbols, lit_lengths) ||
      !ReadLengthTable(in, kNumDistCodes, dist_lengths)) {
    return std::nullopt;
  }
  Decoder lit_dec;
  Decoder dist_dec;
  if (!BuildDecoder(lit_lengths, kLitLenSymbols, &lit_dec) ||
      !BuildDecoder(dist_lengths, kNumDistCodes, &dist_dec)) {
    return std::nullopt;
  }
  return DecodeStream(in, lit_dec, dist_dec, decompressed_size);
}

std::string CompressStatic(std::string_view src) { return StaticStream(src, lz4::Parse(src)); }

Smallest CompressSmallest(std::string_view src, bool try_static, bool try_dynamic) {
  Smallest best;
  const std::vector<lz4::LzStep> steps = lz4::Parse(src);
  if (try_static) {
    best.stream = StaticStream(src, steps);
    best.code = Code::kStatic;
  }
  if (try_dynamic) {
    std::string dynamic = Compress(src, steps);
    if (!try_static || dynamic.size() < best.stream.size()) {
      best.stream = std::move(dynamic);
      best.code = Code::kDynamic;
    }
  }
  return best;
}

std::optional<std::string> DecompressStatic(std::string_view src, size_t decompressed_size) {
  if (decompressed_size > MaxDecompressedSizeStatic(src.size())) {
    return std::nullopt;
  }
  const StaticDecoders& code = GetStaticDecoders();
  BitReader in(src);
  return DecodeStream(in, code.lit, code.dist, decompressed_size);
}

}  // namespace egwalker::lzhuf
