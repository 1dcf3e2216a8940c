// An LZ4 block-format codec, implemented from scratch.
//
// Section 3.8 of the paper LZ4-compresses the inserted-content column of the
// event-graph file format. Here the columnar encoder's per-column codec is
// lzhuf; LZ4 is read only, by the decoders of v1 content columns and of
// codec-1 v2 columns. This module provides the bounds-checked decompressor
// those paths use, a compatible block compressor that library code does not
// call, and the shared matcher.
//
// The match search is exposed separately as Parse(): the lzhuf codec
// (lzhuf/lzhuf.h) entropy-codes the LZ step stream instead of emitting
// block format.

#ifndef EGWALKER_LZ4_LZ4_H_
#define EGWALKER_LZ4_LZ4_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace egwalker::lz4 {

// One step of an LZ parse: copy `literals` source bytes verbatim, then copy
// `match_len` bytes starting `offset` bytes back in the output. The final
// step of a parse has match_len == 0 (trailing literals only); every other
// step has match_len >= 4 and 1 <= offset <= 65535.
struct LzStep {
  size_t literals = 0;
  size_t match_len = 0;
  size_t offset = 0;
};

// Lazy LZ parse of `src` (64KiB window, min match 4). The steps exactly
// cover src: every step but the last has match_len >= 4 and
// 1 <= offset <= min(position, 65535), the last step is literal-only, and
// replaying them reproduces src. As LZ4 blocks require, no match starts in
// the last 12 bytes or covers any of the last 5.
//
// Which matches it picks is the encoder's choice, not part of any format:
// decoders accept every step stream that meets the contract. The finder
// walks at most 48 candidates on a hash chain of 5-byte prefixes, then, if
// that found nothing longer than 4 bytes, tries the newest position with
// the same 4-byte prefix hash; one byte of lookahead (lazy evaluation)
// defers a match when the next position has a longer one. Its tables are
// sized to the input. On prose-like columns that codes within a tenth of a
// percent of a 128-probe chain on 4-byte prefixes, in half the time.
std::vector<LzStep> Parse(std::string_view src);

// Worst-case compressed size for `src_size` input bytes.
size_t MaxCompressedSize(size_t src_size);

// The most bytes a `src_size`-byte block can decompress to (255 per input
// byte). Container readers refuse a raw size above it.
size_t MaxDecompressedSize(size_t src_size);

// Compresses `src` into LZ4 block format. Only the egbench harness and
// tests call it; remove it once the harness stops timing it.
std::string Compress(std::string_view src);

// Decompresses an LZ4 block produced by Compress (or any valid LZ4 block).
// `decompressed_size` must be the exact original size. Returns std::nullopt
// on malformed input (including any out-of-bounds reference).
std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size);

}  // namespace egwalker::lz4

#endif  // EGWALKER_LZ4_LZ4_H_
