// Seeded inputs for the LZ and lzhuf codec tests (test_lz4, test_lzhuf).

#ifndef EGWALKER_TESTS_TESTING_CODEC_INPUTS_H_
#define EGWALKER_TESTS_TESTING_CODEC_INPUTS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace egwalker::testing {

// Random structured input: literal bursts of random bytes and copies of
// earlier spans.
std::string StructuredInput(Prng& rng, size_t target);

// Literal-heavy input whose lit/len code reaches the 15-bit limit: 64 KiB
// of random high bytes (which the LZ parse cannot match) with rare bytes
// 'a'.. scattered in at Fibonacci frequencies 1, 1, 2, 3, 5, ...
std::string SkewedInput();

// Named inputs covering the codecs' corners (empty, tiny, every byte value,
// short periods, one byte repeated, prose, structured data, matches at the
// window edge, a skewed code), in a fixed order. Lzhuf.GoldenDigests pins
// the encoder's bytes on them.
std::vector<std::pair<std::string, std::string>> GoldenInputs();

}  // namespace egwalker::testing

#endif  // EGWALKER_TESTS_TESTING_CODEC_INPUTS_H_
