#include "testing/lz_reference.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace egwalker::lz_reference {
namespace {

constexpr size_t kMinMatch = 4;
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

}  // namespace

std::vector<lz4::LzStep> Parse(std::string_view src) {
  std::vector<lz4::LzStep> steps;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(src.data());
  const size_t n = src.size();

  if (n < kMfLimit + 1) {
    steps.push_back(lz4::LzStep{n, 0, 0});
    return steps;
  }

  // head[] maps a 4-byte-prefix hash to its most recent position, chain[]
  // threads every position with the same hash in strictly decreasing
  // order, and the search walks up to kMaxProbes candidates picking the
  // longest match.
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

  size_t anchor = 0;
  size_t pos = 0;
  while (pos <= match_limit) {
    insert_upto(pos);
    size_t offset = 0;
    size_t len = find_best(pos, &offset);
    if (len == 0) {
      ++pos;
      continue;
    }
    // Lazy evaluation: a strictly longer match one byte later wins.
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
    size_t candidate = pos - offset;
    while (pos > anchor && candidate > 0 && base[pos - 1] == base[candidate - 1]) {
      --pos;
      --candidate;
      ++len;
    }
    steps.push_back(lz4::LzStep{pos - anchor, len, offset});
    pos += len;
    anchor = pos;
    insert_upto(pos);
  }
  steps.push_back(lz4::LzStep{n - anchor, 0, 0});
  return steps;
}

std::string CheckParse(std::string_view src, const std::vector<lz4::LzStep>& steps) {
  if (steps.empty()) {
    return "no steps";
  }
  std::string out;
  out.reserve(src.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    const lz4::LzStep& step = steps[i];
    const std::string where = "step " + std::to_string(i) + " at " + std::to_string(out.size());
    if (step.literals > src.size() - out.size()) {
      return where + ": literals run past the input";
    }
    out.append(src.substr(out.size(), step.literals));
    if (i + 1 == steps.size()) {
      if (step.match_len != 0) {
        return where + ": the last step has a match";
      }
      break;
    }
    if (step.match_len < kMinMatch) {
      return where + ": match of " + std::to_string(step.match_len) + " bytes";
    }
    if (step.offset < 1 || step.offset > std::min(out.size(), kMaxOffset)) {
      return where + ": offset " + std::to_string(step.offset) + " out of range";
    }
    if (step.match_len > src.size() - out.size()) {
      return where + ": match runs past the input";
    }
    for (size_t k = 0; k < step.match_len; ++k) {  // Overlapping: byte order matters.
      out.push_back(out[out.size() - step.offset]);
    }
  }
  if (out.size() != src.size()) {
    return "steps cover " + std::to_string(out.size()) + " of " + std::to_string(src.size()) +
           " bytes";
  }
  if (out != src) {
    const size_t at = static_cast<size_t>(
        std::mismatch(out.begin(), out.end(), src.begin()).first - out.begin());
    return "replay differs from the input at byte " + std::to_string(at);
  }
  return "";
}

}  // namespace egwalker::lz_reference
