// LZ + canonical-Huffman codec (deflate-like, from scratch).
//
// The LZ4 block format spends whole bytes on tokens, literals, and offsets,
// which caps its ratio near 1.5x on prose-like column payloads. This codec
// entropy-codes the same LZ step stream (lz4::Parse — one shared matcher)
// the way wlnzip-style compressors do: a combined literal/match-length
// alphabet and a bucketed distance alphabet, each under a dynamic canonical
// Huffman code, packed into a bitstream. It roughly doubles the at-rest
// savings of LZ4 on the EGWS columns while keeping the decoder strictly
// bounds-checked.
//
// The parse is the encoder's choice, not part of the format: the decoders
// accept any valid step stream, so a different matcher changes the bytes
// Compress writes but never what an existing stream decodes to. Parsing is
// nearly all of an encode's time, so the columnar encoder's codec race
// codes one parse both ways (CompressSmallest).
//
// Stream layout (bit-packed, LSB-first within bytes; docs/EGWS.md has the
// normative description):
//   lit/len code lengths   RLE of 4-bit lengths (see lzhuf.cc)
//   distance code lengths  same scheme
//   symbols                Huffman codes emitted MSB-first; length and
//                          distance codes carry LSB-first extra bits
//   end-of-block           symbol 256 terminates the stream
//
// The decoder keeps a 64-bit bit buffer and resolves each symbol with one
// lookup in a 10-bit table indexed by the next stream bits; only codes
// longer than that take the canonical bit-by-bit rule.
//
// Framing (where the decompressed size lives) is the caller's problem, like
// lz4.h. Decompress returns std::nullopt on any malformed input: bad code
// length tables, over-long reads, out-of-window distances, output size
// mismatch — it never crashes and never returns partial output. It
// allocates the output only after checking that the input is long enough
// to produce it (MaxDecompressedSize).

#ifndef EGWALKER_LZHUF_LZHUF_H_
#define EGWALKER_LZHUF_LZHUF_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lz4/lz4.h"

namespace egwalker::lzhuf {

// Compresses `src`. Output is never catastrophically larger than the input
// (worst case is the two code-length tables plus ~1 bit per byte overhead),
// but callers should keep the raw form when this does not actually shrink.
std::string Compress(std::string_view src);

// Decompresses a Compress() stream. `decompressed_size` must be the exact
// original size. Returns std::nullopt on malformed input.
std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size);

// Static-code variant: same LZ step stream and bit-level format as
// Compress(), but under a fixed canonical code both sides compute locally,
// so the stream carries no code-length tables at all. On tiny payloads
// (tens of bytes) the dynamic tables cost more than entropy coding saves;
// this is the fallback for that regime. The two formats are NOT
// interchangeable — a stream must be decoded by the variant that wrote it.
std::string CompressStatic(std::string_view src);
std::optional<std::string> DecompressStatic(std::string_view src, size_t decompressed_size);

// Compress over a given parse of `src`, which must meet lz4::Parse's
// contract. Compress(src) is Compress(src, lz4::Parse(src)).
std::string Compress(std::string_view src, const std::vector<lz4::LzStep>& steps);

// Which variant wrote a stream.
enum class Code { kStatic, kDynamic };

struct Smallest {
  std::string stream;
  Code code = Code::kStatic;
};

// Parses `src` once and codes the parse under the static code if
// `try_static`, under the dynamic one if `try_dynamic` (at least one must
// be set); returns the shorter stream, the static one on a tie. The bytes
// are those of racing CompressStatic(src) against Compress(src).
Smallest CompressSmallest(std::string_view src, bool try_static, bool try_dynamic);

// The most bytes a `stored_size`-byte stream of each variant can decode to.
// A match yields at most 259 bytes for at least 2 bits (dynamic code) or 13
// bits (static code), after the tables and end-of-block. Larger
// decompressed sizes are rejected up front; container readers use the same
// bound to refuse a directory entry that claims more.
size_t MaxDecompressedSize(size_t stored_size);
size_t MaxDecompressedSizeStatic(size_t stored_size);

}  // namespace egwalker::lzhuf

#endif  // EGWALKER_LZHUF_LZHUF_H_
