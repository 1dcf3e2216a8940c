// Golden container files for decode-forever tests.
//
// tests/fixtures/v1 holds files written by the last v1 encoder
// (tests/fixtures/v1/make_fixtures.cc says how). Encoders write neither v1
// nor LZ4-coded v2 columns, so these helpers are the only source of such
// inputs:
//   - ReadFixture / V1FixtureChain load the committed files;
//   - V2HeadV1TailChain puts a v2 segment in front of v1 ones;
//   - TranscodeChain re-encodes a chain segment by segment as v2, keeping
//     every segment's window, cached document and session checkpoint;
//   - RewriteColumnsAsLz4 turns raw v2 columns into codec-1 (LZ4) columns;
//     RewriteColumns, which it is built on, edits directory entries at will.

#ifndef EGWALKER_TESTS_TESTING_FIXTURES_H_
#define EGWALKER_TESTS_TESTING_FIXTURES_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "encoding/columnar.h"
#include "lz4/lz4.h"
#include "util/assert.h"
#include "util/varint.h"

namespace egwalker::testing {

// Column ids of the v2 directory (docs/EGWS.md).
constexpr uint8_t kOpsColumn = 0;
constexpr uint8_t kContentColumn = 3;

inline std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(EGW_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "missing fixture %s\n", path.c_str());
    std::abort();
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// The three-segment v1 chain a "!server" replica saved: cached documents
// on every segment, LZ4 content on the second, and a session anchor plus
// serialized session state on the third.
inline std::vector<std::string> V1FixtureChain() {
  return {ReadFixture("v1/chain-0.egws"), ReadFixture("v1/chain-1.egws"),
          ReadFixture("v1/chain-2.egws")};
}

// Decodes `chain` one segment at a time and re-encodes each segment's
// window as v2 with `options`, carrying over its cached document and
// session checkpoint.
inline std::vector<std::string> TranscodeChain(const std::vector<std::string>& chain,
                                               SaveOptions options) {
  Trace trace;
  std::vector<std::string> out;
  for (const std::string& seg : chain) {
    const Lv base = trace.graph.size();
    std::optional<std::string> cached;
    SegmentAnchor anchor;
    EGW_CHECK(DecodeSegmentInto(trace, seg, &cached, nullptr, &anchor));
    options.cache_final_doc = cached.has_value();
    out.push_back(EncodeSegment(trace, base, options, cached.value_or(""), anchor));
  }
  return out;
}

inline uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

// The fixture chain with its first segment transcoded to raw v2 and the
// other two left as v1: the order a store could hold when v2 segments were
// written before v1 ones. Doc::LoadChain skips the v2 head lazily and
// decodes the v1 tail eagerly.
inline std::vector<std::string> V2HeadV1TailChain() {
  std::vector<std::string> chain = V1FixtureChain();
  SaveOptions raw;
  raw.compress_columns = false;
  chain[0] = TranscodeChain({chain[0]}, raw)[0];
  return chain;
}

// One v2 directory entry with its payload, as RewriteColumns hands it out.
struct StoredColumnEntry {
  uint8_t id = 0;
  uint8_t codec = 0;
  uint64_t raw_size = 0;
  std::string stored;
};

// Re-emits a v2 EGWK file or EGWS segment after `edit` has changed its
// column entries in place. Stored sizes, offsets and checksums follow the
// edited payloads; codecs and raw sizes are written as `edit` left them,
// valid or not.
template <typename Edit>
std::string RewriteColumns(const std::string& bytes, Edit edit) {
  ByteReader r(bytes);
  std::string magic;
  EGW_CHECK(r.ReadBytes(4, magic) && (magic == "EGWK" || magic == "EGWS"));
  const bool segment = magic == "EGWS";
  EGW_CHECK(r.ReadByte() == 2);
  const uint8_t flags = *r.ReadByte();
  r.ReadVarint();  // Event count (EGWK) or base_lv (EGWS).
  if (segment) {
    r.ReadVarint();  // Event count.
    if ((flags & (1 << 3)) != 0) {  // Session anchor: lv, doc_len.
      r.ReadVarint();
      r.ReadVarint();
    }
    if ((flags & (1 << 4)) != 0) {  // Session state.
      EGW_CHECK(r.Skip(*r.ReadVarint()));
    }
  }
  for (uint64_t agents = *r.ReadVarint(); agents > 0; --agents) {
    EGW_CHECK(r.Skip(*r.ReadVarint()));
    if (segment) {  // Seq extent: first_seq, count.
      r.ReadVarint();
      r.ReadVarint();
    }
  }
  std::string out = bytes.substr(0, r.position());

  std::vector<StoredColumnEntry> cols(*r.ReadVarint());
  std::vector<uint64_t> stored_sizes;
  for (StoredColumnEntry& c : cols) {
    c.id = *r.ReadByte();
    c.codec = *r.ReadByte();
    c.raw_size = *r.ReadVarint();
    stored_sizes.push_back(*r.ReadVarint());
    r.ReadVarint();  // Offset.
    r.ReadVarint();  // Checksum.
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    EGW_CHECK(r.ReadBytes(stored_sizes[i], cols[i].stored));
  }
  EGW_CHECK(r.empty());

  for (StoredColumnEntry& c : cols) {
    edit(c);
  }
  AppendVarint(out, cols.size());
  uint64_t offset = 0;
  for (const StoredColumnEntry& c : cols) {
    out.push_back(static_cast<char>(c.id));
    out.push_back(static_cast<char>(c.codec));
    AppendVarint(out, c.raw_size);
    AppendVarint(out, c.stored.size());
    AppendVarint(out, offset);
    AppendVarint(out, Fnv1a(c.stored));
    offset += c.stored.size();
  }
  for (const StoredColumnEntry& c : cols) {
    out += c.stored;
  }
  return out;
}

// Rewrites a v2 EGWK file or EGWS segment whose columns are all stored raw
// (compress_columns = false) so that columns `ids` are stored as LZ4
// blocks with codec 1.
inline std::string RewriteColumnsAsLz4(const std::string& bytes,
                                       std::initializer_list<uint8_t> ids) {
  return RewriteColumns(bytes, [&](StoredColumnEntry& c) {
    for (uint8_t id : ids) {
      if (c.id == id) {
        EGW_CHECK(c.codec == 0);
        c.stored = lz4::Compress(c.stored);
        c.codec = 1;
      }
    }
  });
}

}  // namespace egwalker::testing

#endif  // EGWALKER_TESTS_TESTING_FIXTURES_H_
