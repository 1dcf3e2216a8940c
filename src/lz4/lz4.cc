#include "lz4/lz4.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace egwalker::lz4 {
namespace {

constexpr size_t kMinMatch = 4;
// The LZ4 block format forbids matches within the last 12 bytes of input and
// requires the last 5 bytes to be literals.
constexpr size_t kMfLimit = 12;
constexpr size_t kLastLiterals = 5;
constexpr size_t kMaxOffset = 65535;
// Match finder bounds (see MatchFinder): table entries and chain
// candidates per search.
constexpr int kMaxTableLog = 16;
constexpr int kChainProbes = 48;

// Little-endian loads, so the hashes (and with them the parse) are the same
// on every host.
uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Length of the common prefix of `a` and `b`, at most `limit`, compared
// eight bytes at a time.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      return len + static_cast<size_t>(std::countr_zero(diff) >> 3);
    }
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// The match search of Parse. Two indexes over the positions inserted so
// far:
//   - a hash chain on each position's first 5 bytes. head_ maps a hash to
//     its newest position and chain_, a ring over the window, links each
//     position to the previous one with the same hash. A search walks at
//     most kChainProbes of it; the long matches come from here.
//   - newest_ maps a hash of the first 4 bytes to its newest position: the
//     4-byte match a 5-byte hash cannot see, tried when the chain found
//     nothing longer.
// The tables are sized to the input: the ring to the positions (a power of
// two, at most the window), the hash tables to four times that, at most
// 2^16 entries. A sparse table rarely offers a false candidate, so a
// position without a match costs two table updates and no search.
// Positions are stored as 32 bits, as in the LZ4 reference encoder.
class MatchFinder {
 public:
  MatchFinder(const uint8_t* base, size_t n, size_t last_pos)
      : base_(base),
        n_(n),
        last_pos_(last_pos),
        hash_log_(std::min(PositionBits() + 2, kMaxTableLog)),
        head_(size_t{1} << hash_log_, kNoPos),
        chain_(size_t{1} << std::min(PositionBits(), kMaxTableLog)),
        newest_(size_t{1} << hash_log_, kNoPos),
        mask_(chain_.size() - 1) {}

  // Indexes the positions not yet indexed below `end` (and at most
  // last_pos).
  void InsertUpTo(size_t end) {
    for (; inserted_ < std::min(end, last_pos_ + 1); ++inserted_) {
      Insert(inserted_);
    }
  }

  // Indexes `pos`, which must be the next position to index (and at most
  // last_pos), and returns the longest match there that is longer than
  // `longer_than` (>= kMinMatch - 1), or 0 if the probes find none. Among
  // equally long chain candidates the nearest wins.
  size_t InsertAndFind(size_t pos, size_t longer_than, size_t* offset) {
    EGW_DCHECK(pos == inserted_ && pos <= last_pos_);
    const auto [cand, near] = Insert(pos);
    inserted_ = pos + 1;
    if (!InWindow(pos, cand) && !InWindow(pos, near)) {
      return 0;  // Kept apart from Search so that this path inlines.
    }
    return Search(pos, cand, near, longer_than, offset);
  }

 private:
  static constexpr uint32_t kNoPos = 0xFFFFFFFFu;

  // Indexes `pos`. Returns the newest earlier positions with the same
  // 5-byte hash and with the same 4-byte hash (kNoPos if none).
  std::pair<uint32_t, uint32_t> Insert(size_t pos) {
    const uint8_t* p = base_ + pos;
    uint32_t& head = head_[Hash5(p)];
    uint32_t& newest = newest_[Hash4(p)];
    const std::pair<uint32_t, uint32_t> prev{head, newest};
    chain_[pos & mask_] = head;
    head = newest = static_cast<uint32_t>(pos);
    return prev;
  }

  // InsertAndFind's search, from the chain's newest candidate `cand` and
  // the 4-byte table's `near`.
  size_t Search(size_t pos, uint32_t cand, uint32_t near, size_t longer_than,
                size_t* offset) const {
    const size_t max_len = n_ - kLastLiterals - pos;
    if (max_len <= longer_than) {
      return 0;
    }
    const uint8_t* ip = base_ + pos;
    size_t best = longer_than;
    // A candidate beats `best` only if it agrees on the 4 bytes that end at
    // index `best`: one compare rejects most candidates.
    auto consider = [&](uint32_t c) {
      const uint8_t* cp = base_ + c;
      if (Load32(cp + best - 3) != Load32(ip + best - 3)) {
        return;
      }
      const size_t len = MatchLength(cp, ip, max_len);
      if (len > best) {
        best = len;
        *offset = pos - c;
      }
    };
    for (int probe = 0; probe < kChainProbes && InWindow(pos, cand) && best < max_len;
         ++probe) {
      const uint32_t next = chain_[cand & mask_];
      consider(cand);
      cand = next;
    }
    if (best <= kMinMatch && best < max_len && InWindow(pos, near)) {
      consider(near);
    }
    return best > longer_than ? best : 0;
  }

  // Bits that index every position: 2^PositionBits() > last_pos.
  int PositionBits() const { return static_cast<int>(std::bit_width(last_pos_)); }

  static bool InWindow(size_t pos, uint32_t cand) {
    return cand != kNoPos && pos - cand <= kMaxOffset;
  }
  // Multiplicative hashes of the first 5 and 4 bytes (the primes of the
  // Zstandard and LZ4 reference encoders), keeping the top hash_log_ bits.
  size_t Hash5(const uint8_t* p) const {
    return static_cast<size_t>(((Load64(p) << 24) * 889523592379ull) >> (64 - hash_log_));
  }
  size_t Hash4(const uint8_t* p) const {
    return static_cast<size_t>((Load32(p) * 2654435761u) >> (32 - hash_log_));
  }

  const uint8_t* base_;
  size_t n_;
  size_t last_pos_;
  int hash_log_;  // Of head_ and newest_.
  std::vector<uint32_t> head_;
  std::vector<uint32_t> chain_;
  std::vector<uint32_t> newest_;
  size_t mask_;          // Of the ring chain_.
  size_t inserted_ = 0;  // Positions [0, inserted_) are indexed.
};

// Emits a length using LZ4's 4-bit + 255-run scheme. `nibble_len` is what
// was stored in the token; this writes the extension bytes, if any.
void EmitLengthExtension(std::string& out, size_t len) {
  while (len >= 255) {
    out.push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out.push_back(static_cast<char>(len));
}

void EmitSequence(std::string& out, const uint8_t* literals, size_t lit_len, size_t match_len,
                  size_t offset) {
  size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  bool has_match = match_len > 0;
  size_t match_code = has_match ? match_len - kMinMatch : 0;
  size_t match_nibble = has_match ? (match_code < 15 ? match_code : 15) : 0;
  out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) {
    EmitLengthExtension(out, lit_len - 15);
  }
  out.append(reinterpret_cast<const char*>(literals), lit_len);
  if (has_match) {
    out.push_back(static_cast<char>(offset & 0xff));
    out.push_back(static_cast<char>(offset >> 8));
    if (match_nibble == 15) {
      EmitLengthExtension(out, match_code - 15);
    }
  }
}

}  // namespace

size_t MaxCompressedSize(size_t src_size) {
  // LZ4_compressBound: worst case is all literals with length extensions.
  return src_size + src_size / 255 + 16;
}

size_t MaxDecompressedSize(size_t src_size) {
  // A sequence's match part is a 2-byte offset plus k length bytes for at
  // most 4 + 15 + 255 * k output bytes; literals cost a byte each.
  return src_size * 255;
}

std::vector<LzStep> Parse(std::string_view src) {
  std::vector<LzStep> steps;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(src.data());
  const size_t n = src.size();

  if (n < kMfLimit + 1) {
    // Too short for any match: one literal-only step.
    steps.push_back(LzStep{n, 0, 0});
    return steps;
  }

  const size_t match_limit = n - kMfLimit;  // Last position a match may start at.
  MatchFinder finder(base, n, match_limit);
  size_t anchor = 0;  // Start of pending literals.
  size_t pos = 0;
  while (pos <= match_limit) {
    finder.InsertUpTo(pos);  // The positions the last match covered.
    size_t offset = 0;
    size_t len = finder.InsertAndFind(pos, kMinMatch - 1, &offset);
    if (len == 0) {
      ++pos;
      continue;
    }
    // Lazy evaluation: if starting one byte later yields a strictly longer
    // match, demote this byte to a literal and advance.
    while (pos + 1 <= match_limit) {
      size_t next_offset = 0;
      const size_t next_len = finder.InsertAndFind(pos + 1, len, &next_offset);
      if (next_len == 0) {
        break;
      }
      ++pos;
      len = next_len;
      offset = next_offset;
    }
    // Extend backwards over pending literals.
    size_t candidate = pos - offset;
    while (pos > anchor && candidate > 0 && base[pos - 1] == base[candidate - 1]) {
      --pos;
      --candidate;
      ++len;
    }
    steps.push_back(LzStep{pos - anchor, len, offset});
    pos += len;
    anchor = pos;
  }
  // Final literal-only step.
  steps.push_back(LzStep{n - anchor, 0, 0});
  return steps;
}

std::string Compress(std::string_view src) {
  std::string out;
  out.reserve(src.size() / 2 + 64);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(src.data());
  size_t pos = 0;
  for (const LzStep& step : Parse(src)) {
    EmitSequence(out, base + pos, step.literals, step.match_len, step.offset);
    pos += step.literals + step.match_len;
  }
  return out;
}

std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size) {
  std::string out;
  out.reserve(decompressed_size);
  const uint8_t* in = reinterpret_cast<const uint8_t*>(src.data());
  size_t pos = 0;
  const size_t n = src.size();

  auto read_extended = [&](size_t nibble, size_t* len) -> bool {
    *len = nibble;
    if (nibble != 15) {
      return true;
    }
    for (;;) {
      if (pos >= n) {
        return false;
      }
      uint8_t b = in[pos++];
      *len += b;
      if (b != 255) {
        return true;
      }
    }
  };

  if (n == 0) {
    return decompressed_size == 0 ? std::optional<std::string>(std::move(out)) : std::nullopt;
  }

  for (;;) {
    if (pos >= n) {
      return std::nullopt;
    }
    uint8_t token = in[pos++];
    size_t lit_len;
    if (!read_extended(token >> 4, &lit_len)) {
      return std::nullopt;
    }
    if (pos + lit_len > n) {
      return std::nullopt;
    }
    out.append(reinterpret_cast<const char*>(in + pos), lit_len);
    pos += lit_len;
    if (pos == n) {
      break;  // Final sequence has no match part.
    }
    if (pos + 2 > n) {
      return std::nullopt;
    }
    size_t offset = static_cast<size_t>(in[pos]) | (static_cast<size_t>(in[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) {
      return std::nullopt;
    }
    size_t match_len;
    if (!read_extended(token & 0x0f, &match_len)) {
      return std::nullopt;
    }
    match_len += kMinMatch;
    // Overlap-safe copy (offset may be smaller than match_len).
    size_t from = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out.push_back(out[from + i]);
    }
    if (out.size() > decompressed_size) {
      return std::nullopt;
    }
  }
  if (out.size() != decompressed_size) {
    return std::nullopt;
  }
  return out;
}

}  // namespace egwalker::lz4
