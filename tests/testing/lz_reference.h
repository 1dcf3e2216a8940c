// Reference LZ parser and the parse contract, kept beside the tests as the
// oracle for lz4::Parse (src/lz4/).
//
// Parse here is a lazy parse over a 128-probe hash chain on 4-byte
// prefixes with byte-at-a-time compares: slow, but close to the best a
// greedy-lazy parse over the 64 KiB window does. The library's parse must
// stay near it in coded size (test_lzhuf); no test expects the same steps.

#ifndef EGWALKER_TESTS_TESTING_LZ_REFERENCE_H_
#define EGWALKER_TESTS_TESTING_LZ_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "lz4/lz4.h"

namespace egwalker::lz_reference {

// Same contract as lz4::Parse.
std::vector<lz4::LzStep> Parse(std::string_view src);

// Checks `steps` against lz4::Parse's contract for `src`: the steps cover
// src exactly; every step but the last has match_len >= 4 and
// 1 <= offset <= min(position, 65535); the last step is literal-only; and
// replaying the steps reproduces src. Returns an empty string when they
// do, otherwise what is wrong.
std::string CheckParse(std::string_view src, const std::vector<lz4::LzStep>& steps);

}  // namespace egwalker::lz_reference

#endif  // EGWALKER_TESTS_TESTING_LZ_REFERENCE_H_
