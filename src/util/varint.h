// LEB128-style variable-length integer encoding, as used by the columnar
// event-graph storage format (Section 3.8 of the paper: "a variable-length
// binary encoding of integers, which represents small numbers in one byte,
// larger numbers in two bytes, etc.").
//
// Unsigned values are encoded 7 bits at a time, least significant group
// first, with the high bit of each byte signalling continuation. Signed
// values are zigzag-mapped onto unsigned ones first so that small-magnitude
// negative numbers stay short.

#ifndef EGWALKER_UTIL_VARINT_H_
#define EGWALKER_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace egwalker {

// Maximum encoded size of a 64-bit varint (ceil(64 / 7) bytes).
inline constexpr size_t kMaxVarintLen = 10;

// Appends the varint encoding of `value` to `out`.
void AppendVarint(std::string& out, uint64_t value);

// Zigzag-maps `value` and appends its varint encoding to `out`.
void AppendVarintSigned(std::string& out, int64_t value);

// Zigzag mapping helpers (exposed for tests and the columnar encoder).
constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// A bounds-checked reader over an encoded byte buffer. All Read* methods
// return std::nullopt on malformed or truncated input; the cursor is only
// advanced on success.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  // Number of bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ >= size_; }
  size_t position() const { return pos_; }
  // The bytes consumed so far, from the start of the buffer.
  std::string_view consumed() const {
    return std::string_view(reinterpret_cast<const char*>(data_), pos_);
  }

  std::optional<uint64_t> ReadVarint();
  std::optional<int64_t> ReadVarintSigned();
  std::optional<uint8_t> ReadByte();

  // Reads exactly `n` raw bytes into `out` (appended). Fails without
  // consuming anything if fewer than `n` bytes remain.
  bool ReadBytes(size_t n, std::string& out);

  // Skips `n` bytes; fails without consuming if not enough remain.
  bool Skip(size_t n);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace egwalker

#endif  // EGWALKER_UTIL_VARINT_H_
