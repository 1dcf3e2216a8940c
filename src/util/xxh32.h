// XXH32: Yann Collet's 32-bit xxHash, the column checksum of v2 containers
// whose header sets the XXH32 flag (docs/EGWS.md).
//
// It replaces FNV-1a-32 on the load path because it hashes four 32-bit
// lanes per 16-byte stripe with independent multiply chains, where FNV-1a
// carries one multiply per byte; on a cached open that difference was a
// fifth of the open. The output is the reference algorithm's (test vectors
// in docs/EGWS.md) with the seed fixed at 0, as the format fixes it; words
// are read little-endian on every host.

#ifndef EGWALKER_UTIL_XXH32_H_
#define EGWALKER_UTIL_XXH32_H_

#include <cstdint>
#include <string_view>

namespace egwalker {

uint32_t Xxh32(std::string_view bytes);

}  // namespace egwalker

#endif  // EGWALKER_UTIL_XXH32_H_
