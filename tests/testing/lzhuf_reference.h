// Reference decoder for the lzhuf bitstream (docs/EGWS.md, "lzhuf
// bitstream"), kept beside the tests as the oracle for src/lzhuf/.
//
// It reads the stream one bit per call and grows each canonical Huffman code
// one bit at a time: slow, but a direct transcription of the format. The
// library's table-driven decoder must agree with it on every input — the
// same accept/reject result and, when both accept, the same bytes.
//
// Also here: the mutation sweep the differential tests (test_lzhuf,
// fuzz_all) run a stream through.

#ifndef EGWALKER_TESTS_TESTING_LZHUF_REFERENCE_H_
#define EGWALKER_TESTS_TESTING_LZHUF_REFERENCE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "util/prng.h"

namespace egwalker::lzhuf_reference {

// Same contracts as lzhuf::Decompress / lzhuf::DecompressStatic.
std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size);
std::optional<std::string> DecompressStatic(std::string_view src, size_t decompressed_size);

// Decodes (stream, size) with both the library decoder and the reference
// for the given code. Returns an empty string when they agree (same
// has_value(), same bytes), otherwise a description of the mismatch.
// Counts an agreed acceptance in *accepted.
std::string CompareDecoders(bool static_code, std::string_view stream, size_t size,
                            size_t* accepted = nullptr);

// Runs CompareDecoders over `stream` (which encodes `size` bytes) and
// `mutations` seeded mutations of it: the pristine stream, bit flips, byte
// overwrites, truncation at every length, appended bytes, a size off by
// up to 2 either way, and pure garbage of similar length. Returns the first
// mismatch (with the mutation that produced it), or an empty string.
// *accepted counts the variants both decoders accepted.
std::string DifferentialSweep(bool static_code, std::string_view stream, size_t size,
                              Prng& rng, int mutations, size_t* accepted = nullptr);

}  // namespace egwalker::lzhuf_reference

#endif  // EGWALKER_TESTS_TESTING_LZHUF_REFERENCE_H_
