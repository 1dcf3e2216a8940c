#include "lz4/lz4.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace egwalker::lz4 {
namespace {

constexpr size_t kMinMatch = 4;
// The LZ4 block format forbids matches within the last 12 bytes of input and
// requires the last 5 bytes to be literals.
constexpr size_t kMfLimit = 12;
constexpr size_t kLastLiterals = 5;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashLog = 16;

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Hash4(uint32_t v) {
  // Fibonacci hashing of the 4-byte prefix, as in the reference encoder.
  return (v * 2654435761u) >> (32 - kHashLog);
}

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

  // Hash-chain matcher (the HC strategy): head[] maps a 4-byte-prefix hash
  // to its most recent position, chain[] threads every position with the
  // same hash in strictly decreasing order, and the search walks a bounded
  // number of candidates picking the longest match. Compression is a
  // write-path-only cost here (segments compress once, decode many), so
  // ratio is worth more than matcher speed — and the output stays standard
  // block format, so Decompress is untouched.
  constexpr uint32_t kNoPos = 0xFFFFFFFFu;
  constexpr size_t kMaxProbes = 128;
  std::vector<uint32_t> head(size_t{1} << kHashLog, kNoPos);
  std::vector<uint32_t> chain(n, kNoPos);
  const size_t match_limit = n - kMfLimit;

  size_t inserted = 0;  // Positions [0, inserted) are in the chains.
  auto insert_upto = [&](size_t end) {
    size_t limit = end < match_limit + 1 ? end : match_limit + 1;
    for (; inserted < limit; ++inserted) {
      uint32_t h = Hash4(Load32(base + inserted));
      chain[inserted] = head[h];
      head[h] = static_cast<uint32_t>(inserted);
    }
  };
  // Longest match for `pos` among chained candidates; 0 if none reaches
  // kMinMatch. Candidates are visited newest-first, so the position-ordered
  // chain lets the window check terminate the walk early.
  auto find_best = [&](size_t pos, size_t* best_offset) -> size_t {
    const size_t max_len = n - kLastLiterals - pos;
    if (max_len < kMinMatch) {
      return 0;
    }
    size_t best = 0;
    size_t probes = kMaxProbes;
    for (uint32_t cand = head[Hash4(Load32(base + pos))];
         cand != kNoPos && probes-- > 0; cand = chain[cand]) {
      const size_t c = cand;
      if (pos - c > kMaxOffset) {
        break;
      }
      // A longer-than-best match must agree at index `best`; skipping the
      // full scan otherwise is the classic cheap rejection.
      if (best != 0 && base[c + best] != base[pos + best]) {
        continue;
      }
      size_t len = 0;
      while (len < max_len && base[c + len] == base[pos + len]) {
        ++len;
      }
      if (len >= kMinMatch && len > best) {
        best = len;
        *best_offset = pos - c;
        if (best >= max_len) {
          break;
        }
      }
    }
    return best;
  };

  size_t anchor = 0;  // Start of pending literals.
  size_t pos = 0;
  while (pos <= match_limit) {
    insert_upto(pos);
    size_t offset = 0;
    size_t len = find_best(pos, &offset);
    if (len == 0) {
      ++pos;
      continue;
    }
    // Lazy evaluation: if starting one byte later yields a strictly longer
    // match, demote this byte to a literal and advance.
    while (pos + 1 <= match_limit) {
      insert_upto(pos + 1);
      size_t next_offset = 0;
      size_t next_len = find_best(pos + 1, &next_offset);
      if (next_len <= len) {
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
    insert_upto(pos);  // Chain the positions the match covered.
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
