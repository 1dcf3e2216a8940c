// Reference XXH32 (docs/EGWS.md, "Column checksums"), kept beside the tests
// as the oracle for src/util/xxh32.cc.
//
// It assembles every 32-bit lane from single bytes and applies the
// algorithm's steps one at a time, as the xxHash specification states
// them: slow, but free of the library's word loads and loop structure. The
// library must agree with it on every input.

#ifndef EGWALKER_TESTS_TESTING_XXH32_REFERENCE_H_
#define EGWALKER_TESTS_TESTING_XXH32_REFERENCE_H_

#include <cstdint>
#include <string_view>

namespace egwalker::xxh32_reference {

// XXH32 with seed 0, the only seed the format uses.
uint32_t Hash(std::string_view bytes);

}  // namespace egwalker::xxh32_reference

#endif  // EGWALKER_TESTS_TESTING_XXH32_REFERENCE_H_
