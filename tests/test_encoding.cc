// Tests for the columnar storage format and the comparison size models.

#include "encoding/columnar.h"
#include "encoding/size_models.h"

#include <gtest/gtest.h>

#include "core/doc.h"
#include "core/walker.h"
#include "lzhuf/lzhuf.h"
#include "testing/fixtures.h"
#include "testing/random_trace.h"
#include "testing/trace_dump.h"
#include "trace/generate.h"

namespace egwalker {
namespace {

std::string Replay(const Trace& t) {
  Walker w(t.graph, t.ops);
  Rope doc;
  w.ReplayAll(doc);
  return doc.ToString();
}

void ExpectTracesEquivalent(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.graph.size(), b.graph.size());
  ASSERT_EQ(a.graph.entry_count(), b.graph.entry_count());
  ASSERT_EQ(a.graph.agent_count(), b.graph.agent_count());
  ASSERT_EQ(a.ops.runs().run_count(), b.ops.runs().run_count());
  for (Lv v = 0; v < a.graph.size(); ++v) {
    ASSERT_EQ(a.graph.LvToRaw(v), b.graph.LvToRaw(v)) << v;
    ASSERT_EQ(a.graph.ParentsOf(v), b.graph.ParentsOf(v)) << v;
  }
  EXPECT_EQ(Replay(a), Replay(b));
}

TEST(Columnar, RoundTripSimple) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "hello world");
  t.AppendDelete(a, t.graph.version(), 0, 6);

  std::string bytes = EncodeTrace(t, SaveOptions{});
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->content_complete);
  EXPECT_FALSE(decoded->cached_doc.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(Columnar, RoundTripConcurrentWithUnicode) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("a");
  AgentId b = t.graph.GetOrCreateAgent("b");
  Lv base = t.AppendInsert(a, {}, 0, "héllo 世界");
  Frontier common{base + 7};
  t.AppendInsert(a, common, 2, "😀");
  t.AppendDelete(b, common, 1, 3, /*fwd=*/true);
  std::string bytes = EncodeTrace(t, SaveOptions{});
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(Columnar, CachedFinalDoc) {
  Trace t = GenerateNamedTrace("C2", 0.002);
  std::string final_doc = Replay(t);
  SaveOptions raw;
  raw.compress_columns = false;
  SaveOptions opts = raw;
  opts.cache_final_doc = true;
  std::string bytes = EncodeTrace(t, opts, final_doc);
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->cached_doc.has_value());
  EXPECT_EQ(*decoded->cached_doc, final_doc);
  // Uncompressed, caching costs roughly the document size.
  std::string without = EncodeTrace(t, raw);
  EXPECT_NEAR(static_cast<double>(bytes.size()),
              static_cast<double>(without.size() + final_doc.size()), 16.0);
}

TEST(Columnar, OmittingDeletedContentShrinksFileButPreservesFinalText) {
  Trace t = GenerateNamedTrace("S3", 0.004);  // Heavy churn: most chars die.
  std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
  SaveOptions opts;
  opts.include_deleted_content = false;
  std::string small = EncodeTrace(t, opts, {}, &surviving);
  std::string full = EncodeTrace(t, SaveOptions{});
  EXPECT_LT(small.size(), full.size());

  auto decoded = DecodeTrace(small);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->content_complete);
  // Deleted characters decode as placeholders, so the *final* text — which
  // contains only surviving characters — must be intact.
  EXPECT_EQ(Replay(decoded->trace), Replay(t));
}

TEST(Columnar, RandomTracesRoundTrip) {
  for (uint64_t seed = 71; seed <= 76; ++seed) {
    testing::RandomTraceOptions ropts;
    ropts.seed = seed;
    ropts.actions = 60;
    Trace t = testing::MakeRandomTrace(ropts);
    const std::string final_doc = Replay(t);
    for (bool compress : {false, true}) {
      for (bool cache : {false, true}) {
        SaveOptions opts;
        opts.compress_columns = compress;
        opts.cache_final_doc = cache;
        std::string bytes = EncodeTrace(t, opts, cache ? final_doc : std::string_view{});
        auto decoded = DecodeTrace(bytes);
        ASSERT_TRUE(decoded.has_value()) << seed << " compress=" << compress;
        ExpectTracesEquivalent(t, decoded->trace);
        EXPECT_EQ(decoded->cached_doc.has_value(), cache) << seed;
        if (cache) {
          EXPECT_EQ(decoded->cached_doc, final_doc) << seed;
          EXPECT_EQ(ReadCachedDoc(bytes), final_doc) << seed;
        }
      }
    }

    // Also with deleted content omitted.
    std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
    SaveOptions small_opts;
    small_opts.include_deleted_content = false;
    auto decoded_small = DecodeTrace(EncodeTrace(t, small_opts, {}, &surviving));
    ASSERT_TRUE(decoded_small.has_value()) << seed;
    EXPECT_EQ(Replay(decoded_small->trace), final_doc) << seed;
  }
}

TEST(Columnar, RejectsCorruptInput) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "content goes here");
  std::string bytes = EncodeTrace(t, SaveOptions{});

  EXPECT_FALSE(DecodeTrace("").has_value());
  EXPECT_FALSE(DecodeTrace("EGWX").has_value());
  std::string wrong_version = bytes;
  wrong_version[4] = 99;
  EXPECT_FALSE(DecodeTrace(wrong_version).has_value());
  for (size_t len = 0; len < bytes.size(); len += 5) {
    std::string error;
    EXPECT_FALSE(DecodeTrace(bytes.substr(0, len), &error).has_value()) << len;
    EXPECT_FALSE(error.empty()) << len;
  }
}

TEST(Columnar, MetadataOverheadIsSmallOnSequentialTraces) {
  Trace t = GenerateNamedTrace("S2", 0.01);
  // Uncompressed, so the bound measures the metadata encoding itself.
  SaveOptions raw;
  raw.compress_columns = false;
  std::string bytes = EncodeTrace(t, raw);
  // Paper Section 4.5: file sizes are dominated by the inserted text; the
  // graph/ops metadata for a sequential trace is a small fraction.
  EXPECT_LT(static_cast<double>(bytes.size()),
            1.25 * static_cast<double>(t.ops.total_inserted_chars()));
}

TEST(Columnar, ReadCachedDocSkipsEverythingElse) {
  Trace t = GenerateNamedTrace("C1", 0.002);
  std::string final_doc = Replay(t);
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string bytes = EncodeTrace(t, opts, final_doc);
  auto text = ReadCachedDoc(bytes);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, final_doc);

  // Also with omitted deleted content in the file.
  std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
  opts.include_deleted_content = false;
  bytes = EncodeTrace(t, opts, final_doc, &surviving);
  text = ReadCachedDoc(bytes);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, final_doc);

  // Files without a cached doc yield nothing.
  EXPECT_FALSE(ReadCachedDoc(EncodeTrace(t, SaveOptions{})).has_value());
  // Corrupt/truncated input never crashes.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ReadCachedDoc(std::string_view(bytes).substr(0, len));
  }
}

// --- Indexed (v2) container ------------------------------------------------

TEST(ColumnarV2, CompressedColumnsShrinkFiles) {
  Trace t = GenerateNamedTrace("S2", 0.01);
  SaveOptions raw;
  raw.compress_columns = false;
  std::string raw_bytes = EncodeTrace(t, raw);
  std::string packed_bytes = EncodeTrace(t, SaveOptions{});
  EXPECT_LT(packed_bytes.size(), raw_bytes.size());
  auto decoded = DecodeTrace(packed_bytes);
  ASSERT_TRUE(decoded.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(ColumnarV2, RoundTripEdgeCases) {
  SaveOptions v2;

  // Empty trace: every column is empty.
  {
    Trace t;
    auto decoded = DecodeTrace(EncodeTrace(t, v2));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->trace.graph.size(), 0u);
  }
  // Single-event trace.
  {
    Trace t;
    AgentId a = t.graph.GetOrCreateAgent("solo");
    t.AppendInsert(a, {}, 0, "x");
    auto decoded = DecodeTrace(EncodeTrace(t, v2));
    ASSERT_TRUE(decoded.has_value());
    ExpectTracesEquivalent(t, decoded->trace);
  }
  // Delete-only suffix segment: its content column is empty while ops are
  // not (empty columns must round-trip inside the directory).
  {
    Trace t;
    AgentId a = t.graph.GetOrCreateAgent("d");
    t.AppendInsert(a, {}, 0, "abcdef");
    Lv base = t.graph.size();
    t.AppendDelete(a, t.graph.version(), 1, 3);
    // Re-encode only the delete suffix on top of a decoded prefix.
    Trace prefix;
    std::optional<std::string> cached;
    std::string error;
    {
      Trace full;
      AgentId pa = full.graph.GetOrCreateAgent("d");
      full.AppendInsert(pa, {}, 0, "abcdef");
      std::string head = EncodeSegment(full, 0, v2);
      ASSERT_TRUE(DecodeSegmentInto(prefix, head, &cached, &error)) << error;
    }
    std::string tail = EncodeSegment(t, base, v2);
    ASSERT_TRUE(DecodeSegmentInto(prefix, tail, &cached, &error)) << error;
    ExpectTracesEquivalent(t, prefix);
  }
}

TEST(SegmentV2, PeekReportsDirectoryAndExtents) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  AgentId b = t.graph.GetOrCreateAgent("bob");
  t.AppendInsert(a, {}, 0, "hello ");
  t.AppendInsert(b, t.graph.version(), 6, "world");
  SaveOptions v2;
  v2.cache_final_doc = true;
  std::string seg = EncodeSegment(t, 0, v2, "hello world");
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->format_version, 2);
  EXPECT_EQ(info->base_lv, 0u);
  EXPECT_EQ(info->event_count, 11u);
  EXPECT_TRUE(info->has_cached_doc);
  ASSERT_EQ(info->agents.size(), 2u);
  EXPECT_EQ(info->agents[0].agent, "alice");
  EXPECT_EQ(info->agents[0].first_seq, 0u);
  EXPECT_EQ(info->agents[0].count, 6u);
  EXPECT_EQ(info->agents[1].agent, "bob");
  EXPECT_EQ(info->agents[1].count, 5u);
  EXPECT_FALSE(info->columns.empty());
  uint64_t stored = 0;
  for (const SegmentColumn& col : info->columns) {
    EXPECT_NE(col.codec, 1u);  // Raw, LZ+Huffman or static LZ+Huffman: never LZ4.
    EXPECT_LE(col.codec, 3u);
    stored += col.stored_size;
  }
  EXPECT_LE(stored, seg.size());
}

TEST(SegmentV2, ChecksumCatchesEveryPayloadByteFlip) {
  Trace t = GenerateNamedTrace("S1", 0.004);
  SaveOptions v2;
  v2.cache_final_doc = true;
  std::string final_doc = Replay(t);
  std::string seg = EncodeSegment(t, 0, v2, final_doc);
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  uint64_t payload = 0;
  for (const SegmentColumn& col : info->columns) {
    payload += col.stored_size;
  }
  ASSERT_GT(payload, 0u);
  ASSERT_LE(payload, seg.size());
  // Payloads sit at the very end of a v2 segment; flipping ANY payload bit
  // must be caught by the column checksums, fail-closed.
  const size_t payload_start = seg.size() - payload;
  const size_t step = payload > 512 ? payload / 256 : 1;
  for (size_t i = payload_start; i < seg.size(); i += step) {
    std::string corrupt = seg;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    Trace scratch;
    std::optional<std::string> cached;
    std::string error;
    EXPECT_FALSE(DecodeSegmentInto(scratch, corrupt, &cached, &error)) << i;
    EXPECT_FALSE(error.empty()) << i;
  }
}

TEST(SegmentV2, RejectsTruncationAndBitFlipsWithoutCrashing) {
  Trace t = GenerateNamedTrace("S1", 0.003);
  SaveOptions v2;
  v2.cache_final_doc = true;
  std::string seg = EncodeSegment(t, 0, v2, Replay(t));

  // Truncations never crash and always fail (v2 validates directory offsets
  // and exact payload extents).
  for (size_t len = 0; len < seg.size(); len += 3) {
    std::string_view cut(seg.data(), len);
    EXPECT_FALSE(PeekSegment(cut).has_value()) << len;
    Trace scratch;
    std::optional<std::string> cached;
    EXPECT_FALSE(DecodeSegmentInto(scratch, cut, &cached)) << len;
  }
  // Bit flips anywhere must never crash or misdecode into a different
  // document: either the decode fails, or (flips in redundant varint
  // padding etc.) it yields the identical trace.
  std::string expected = Replay(t);
  for (size_t i = 0; i < seg.size(); i += 2) {
    std::string corrupt = seg;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    (void)PeekSegment(corrupt);
    Trace scratch;
    std::optional<std::string> cached;
    if (DecodeSegmentInto(scratch, corrupt, &cached)) {
      EXPECT_EQ(Replay(scratch), expected) << i;
    }
  }
}

TEST(SegmentV2, TrailingGarbageIsRejected) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "payload");
  SaveOptions v2;
  std::string seg = EncodeSegment(t, 0, v2);
  seg.push_back('\0');
  EXPECT_FALSE(PeekSegment(seg).has_value());
  Trace scratch;
  std::optional<std::string> cached;
  std::string error;
  EXPECT_FALSE(DecodeSegmentInto(scratch, seg, &cached, &error));
  EXPECT_FALSE(error.empty());
}

// A directory entry is a claim about its payload: no compressed column
// can decode to more than its codec's maximum expansion of its stored
// bytes, so a larger raw_size is refused with the directory, before any
// decoder sizes a buffer by it.
TEST(SegmentV2, RawSizeBeyondTheCodecsExpansionIsRejected) {
  Doc doc("alice");
  for (int i = 0; i < 40; ++i) {
    doc.Insert(doc.size(), "column payloads compress well when they repeat; ");
  }
  SaveOptions opts;
  opts.cache_final_doc = true;
  const std::string seg = doc.SaveSegment(0, opts);
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  int compressed = 0;
  for (const SegmentColumn& col : info->columns) {
    if (col.codec == 0) {
      continue;
    }
    ++compressed;
    const uint64_t bound = col.codec == 2 ? lzhuf::MaxDecompressedSize(col.stored_size)
                                          : lzhuf::MaxDecompressedSizeStatic(col.stored_size);
    ASSERT_LE(col.raw_size, bound);
    for (uint64_t claimed : {bound + 1, uint64_t{1} << 28}) {
      const std::string lying = testing::RewriteColumns(seg, [&](testing::StoredColumnEntry& c) {
        if (c.id == col.id) {
          c.raw_size = claimed;
        }
      });
      EXPECT_FALSE(PeekSegment(lying).has_value()) << int{col.id} << " " << claimed;
      Trace scratch;
      std::optional<std::string> cached;
      std::string error;
      EXPECT_FALSE(DecodeSegmentInto(scratch, lying, &cached, &error)) << int{col.id};
      EXPECT_NE(error.find("expansion"), std::string::npos) << error;
      EXPECT_FALSE(Doc::LoadChain({lying}, "bob").has_value()) << int{col.id};
    }
    // At the bound itself the directory is well-formed; only decoding the
    // column (lazily, for ops and content) can refuse it.
    const std::string at_bound = testing::RewriteColumns(seg, [&](testing::StoredColumnEntry& c) {
      if (c.id == col.id) {
        c.raw_size = bound;
      }
    });
    EXPECT_TRUE(PeekSegment(at_bound).has_value()) << int{col.id};
  }
  EXPECT_GE(compressed, 2);  // Content and the cached document at least.

  // The same holds for LZ4 (codec 1) columns: 255 raw bytes per stored byte.
  SaveOptions raw = opts;
  raw.compress_columns = false;
  const std::string lz4_seg =
      testing::RewriteColumnsAsLz4(doc.SaveSegment(0, raw), {testing::kContentColumn});
  ASSERT_TRUE(Doc::LoadChain({lz4_seg}, "bob").has_value());
  const std::string lz4_lying =
      testing::RewriteColumns(lz4_seg, [](testing::StoredColumnEntry& c) {
        if (c.codec == 1) {
          c.raw_size = c.stored.size() * 255 + 1;
        }
      });
  EXPECT_FALSE(PeekSegment(lz4_lying).has_value());
  EXPECT_FALSE(Doc::LoadChain({lz4_lying}, "bob").has_value());
}

// The codec's best ratio, one byte repeated, sits near the expansion
// bound and must still load.
TEST(SegmentV2, MaximumRatioColumnRoundTrips) {
  const std::string text(1 << 20, 'x');
  Doc doc("alice");
  doc.Insert(0, text);
  SaveOptions opts;
  opts.cache_final_doc = true;
  const std::string seg = doc.SaveSegment(0, opts);
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  bool saw_content = false;
  for (const SegmentColumn& col : info->columns) {
    if (col.raw_size == text.size()) {
      EXPECT_EQ(col.codec, 2u) << int{col.id};
      EXPECT_GT(col.raw_size, lzhuf::MaxDecompressedSize(col.stored_size) / 2) << int{col.id};
      saw_content = true;
    }
  }
  EXPECT_TRUE(saw_content);
  auto loaded = Doc::LoadChain({seg}, "bob");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->Text(), text);
}

TEST(ColumnarV2, EncodersRejectEveryOtherFormatVersion) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "v1 is read-only");
  for (int version : {0, 1, 3}) {
    SaveOptions opts;
    opts.format_version = version;
    EXPECT_DEATH(EncodeTrace(t, opts), "format_version") << version;
    EXPECT_DEATH(EncodeSegment(t, 0, opts), "format_version") << version;
  }
}

TEST(ColumnarV2, EncodersNeverWriteLz4Columns) {
  // LZ4 is decode-only: no column of a whole or a tail segment picks it,
  // on the paper's trace shapes or on random concurrent histories.
  std::vector<Trace> traces;
  for (const char* name : {"S1", "S2", "S3", "C1", "C2", "A1", "A2"}) {
    traces.push_back(GenerateNamedTrace(name, 0.003));
  }
  for (uint64_t seed = 81; seed <= 86; ++seed) {
    testing::RandomTraceOptions ropts;
    ropts.seed = seed;
    traces.push_back(testing::MakeRandomTrace(ropts));
  }
  SaveOptions opts;
  opts.cache_final_doc = true;
  for (const Trace& t : traces) {
    const std::string text = Replay(t);
    for (Lv base : {Lv{0}, t.graph.size() / 2}) {
      auto info = PeekSegment(EncodeSegment(t, base, opts, text));
      ASSERT_TRUE(info.has_value());
      for (const SegmentColumn& col : info->columns) {
        EXPECT_NE(col.codec, 1u) << "column " << int{col.id} << " at base " << base;
      }
    }
  }
}

// --- Golden v1 files and LZ4-coded v2 columns: decoders read them forever ---

TEST(V1Fixtures, TraceFilesDecodeToTheirExpectedTrace) {
  const std::string dump = testing::ReadFixture("v1/trace.dump");
  const std::string text = testing::ReadFixture("v1/trace.txt");
  for (const char* name : {"v1/trace.egwk", "v1/trace-lz4.egwk", "v1/trace-cached.egwk"}) {
    const std::string bytes = testing::ReadFixture(name);
    ASSERT_EQ(bytes[4], 1) << name;  // Container version.
    std::string error;
    auto decoded = DecodeTrace(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << name << ": " << error;
    EXPECT_TRUE(decoded->content_complete) << name;
    EXPECT_EQ(testing::DumpTrace(decoded->trace), dump) << name;
    EXPECT_EQ(Replay(decoded->trace), text) << name;
  }

  const std::string cached = testing::ReadFixture("v1/trace-cached.egwk");
  EXPECT_EQ(DecodeTrace(cached)->cached_doc, text);
  EXPECT_EQ(ReadCachedDoc(cached), text);
  EXPECT_FALSE(ReadCachedDoc(testing::ReadFixture("v1/trace.egwk")).has_value());
  auto doc = Doc::Load(cached, "reader");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Text(), text);
  EXPECT_EQ(doc->replayed_events(), 0u);
}

TEST(V1Fixtures, SurvivalFileDecodesDeletedContentAsPlaceholders) {
  std::string error;
  auto decoded = DecodeTrace(testing::ReadFixture("v1/trace-survival.egwk"), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_FALSE(decoded->content_complete);
  EXPECT_EQ(testing::DumpTrace(decoded->trace), testing::ReadFixture("v1/trace-survival.dump"));
  EXPECT_EQ(Replay(decoded->trace), testing::ReadFixture("v1/trace.txt"));
}

TEST(V1Fixtures, ChainLoadsWithItsCachedDocAndSessionCheckpoint) {
  const std::vector<std::string> chain = testing::V1FixtureChain();
  const std::string dump = testing::ReadFixture("v1/chain.dump");
  const std::string text = testing::ReadFixture("v1/chain.txt");

  Lv next = 0;
  for (const std::string& seg : chain) {
    auto info = PeekSegment(seg);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->format_version, 1);
    EXPECT_TRUE(info->columns.empty());  // v1 has no column directory.
    EXPECT_TRUE(info->has_cached_doc);
    EXPECT_EQ(info->base_lv, next);
    next += info->event_count;
  }

  Trace t;
  std::optional<std::string> cached;
  SegmentAnchor anchor;
  std::string error;
  for (const std::string& seg : chain) {
    ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error, &anchor)) << error;
  }
  EXPECT_EQ(t.graph.size(), next);
  EXPECT_EQ(testing::DumpTrace(t), dump);
  EXPECT_EQ(cached, text);
  EXPECT_EQ(anchor.lv, 14u);
  EXPECT_EQ(anchor.doc_len, 15u);
  EXPECT_FALSE(anchor.session_state.empty());

  auto doc = Doc::LoadChain(chain, "!server", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->Text(), text);
  EXPECT_EQ(testing::DumpTrace(doc->trace()), dump);
  EXPECT_EQ(doc->replayed_events(), 0u);
  EXPECT_EQ(doc->lazy_segments_skipped(), 0u);  // Nothing to skip without a directory.
}

TEST(V1Fixtures, V2HeadThenV1TailLoadsLazilyThenHydrates) {
  const std::string dump = testing::ReadFixture("v1/chain.dump");
  const std::string text = testing::ReadFixture("v1/chain.txt");
  std::vector<std::string> chain = testing::V2HeadV1TailChain();
  for (bool lz4_head : {false, true}) {
    if (lz4_head) {
      chain[0] =
          testing::RewriteColumnsAsLz4(chain[0], {testing::kOpsColumn, testing::kContentColumn});
    }
    const std::vector<int> versions = {2, 1, 1};
    for (size_t i = 0; i < chain.size(); ++i) {
      auto info = PeekSegment(chain[i]);
      ASSERT_TRUE(info.has_value()) << i;
      EXPECT_EQ(info->format_version, versions[i]) << i;
    }
    std::string error;

    Trace t;
    std::optional<std::string> cached;
    for (const std::string& seg : chain) {
      ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error)) << error;
    }
    EXPECT_EQ(testing::DumpTrace(t), dump) << lz4_head;
    EXPECT_EQ(cached, text) << lz4_head;

    ChainLoadOptions eager_options;
    eager_options.lazy_ops = false;
    auto eager = Doc::LoadChain(chain, "!server", &error, eager_options);
    ASSERT_TRUE(eager.has_value()) << error;
    EXPECT_EQ(eager->lazy_segments_skipped(), 0u);
    EXPECT_EQ(testing::DumpTrace(eager->trace()), dump) << lz4_head;

    // Only the v2 head is skipped; the v1 tail decodes eagerly after it.
    auto lazy = Doc::LoadChain(chain, "!server", &error);
    ASSERT_TRUE(lazy.has_value()) << error;
    EXPECT_EQ(lazy->lazy_segments_skipped(), 1u);
    EXPECT_EQ(lazy->replayed_events(), 0u);
    EXPECT_EQ(lazy->Text(), text);
    (void)lazy->Save();
    EXPECT_EQ(lazy->hydrated_segments(), 1u);
    EXPECT_EQ(testing::DumpTrace(lazy->trace()), dump) << lz4_head;
  }
}

TEST(Lz4Columns, TraceFileDecodes) {
  auto v1 = DecodeTrace(testing::ReadFixture("v1/trace.egwk"));
  ASSERT_TRUE(v1.has_value());
  SaveOptions raw;
  raw.compress_columns = false;
  const std::string bytes = testing::RewriteColumnsAsLz4(
      EncodeTrace(v1->trace, raw), {testing::kOpsColumn, testing::kContentColumn});
  std::string error;
  auto decoded = DecodeTrace(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(testing::DumpTrace(decoded->trace), testing::ReadFixture("v1/trace.dump"));
  EXPECT_EQ(Replay(decoded->trace), testing::ReadFixture("v1/trace.txt"));
}

TEST(Lz4Columns, SegmentsDecodeEagerlyAndLazily) {
  SaveOptions raw;
  raw.compress_columns = false;
  std::vector<std::string> chain = testing::TranscodeChain(testing::V1FixtureChain(), raw);
  for (std::string& seg : chain) {
    seg = testing::RewriteColumnsAsLz4(seg, {testing::kOpsColumn, testing::kContentColumn});
    auto info = PeekSegment(seg);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->format_version, 2);
    for (const SegmentColumn& col : info->columns) {
      bool lz4 = col.id == testing::kOpsColumn || col.id == testing::kContentColumn;
      EXPECT_EQ(col.codec, lz4 ? 1u : 0u) << int{col.id};
    }
  }
  const std::string dump = testing::ReadFixture("v1/chain.dump");
  const std::string text = testing::ReadFixture("v1/chain.txt");
  std::string error;

  Trace t;
  std::optional<std::string> cached;
  for (const std::string& seg : chain) {
    ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error)) << error;
  }
  EXPECT_EQ(testing::DumpTrace(t), dump);
  EXPECT_EQ(cached, text);

  ChainLoadOptions eager_options;
  eager_options.lazy_ops = false;
  auto eager = Doc::LoadChain(chain, "!server", &error, eager_options);
  ASSERT_TRUE(eager.has_value()) << error;
  EXPECT_EQ(eager->lazy_segments_skipped(), 0u);
  EXPECT_EQ(eager->Text(), text);
  EXPECT_EQ(testing::DumpTrace(eager->trace()), dump);

  auto lazy = Doc::LoadChain(chain, "!server", &error);
  ASSERT_TRUE(lazy.has_value()) << error;
  EXPECT_EQ(lazy->lazy_segments_skipped(), chain.size());
  EXPECT_EQ(lazy->Text(), text);
  // A full save walks the whole op log, hydrating every skipped segment.
  (void)lazy->Save();
  EXPECT_EQ(lazy->hydrated_segments(), chain.size());
  EXPECT_EQ(testing::DumpTrace(lazy->trace()), dump);
}

// --- Checksums and header flags ---------------------------------------------

// Header byte 5 holds the flags of both containers; flips one of them.
std::string FlipFlagBit(std::string bytes, int bit) {
  bytes[5] = static_cast<char>(bytes[5] ^ (1 << bit));
  return bytes;
}

// A segment the tests below corrupt: two authors, a cached document and a
// session checkpoint, so the header carries every optional field.
std::string CheckpointedSegment() {
  Doc alice("alice");
  Doc bob("bob");
  for (int i = 0; i < 20; ++i) {
    alice.Insert(alice.size(), "checksums cover the header and the directory. ");
  }
  bob.MergeFrom(alice);
  bob.Insert(3, "bob's ü€ ");
  alice.MergeFrom(bob);
  SaveOptions opts;
  opts.cache_final_doc = true;
  opts.checkpoint_session_state = true;
  return alice.SaveSegment(0, opts);
}

TEST(Checksums, EncodersSetTheXxh32Flag) {
  const std::string seg = CheckpointedSegment();
  EXPECT_NE(seg[5] & testing::kXxh32Flag, 0);
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->has_cached_doc);
  EXPECT_NE(info->anchor.lv, kInvalidLv);
  EXPECT_TRUE(info->has_session_state);
  EXPECT_EQ(info->agents.size(), 2u);
  auto t = DecodeTrace(testing::ReadFixture("v1/trace.egwk"));
  ASSERT_TRUE(t.has_value());
  EXPECT_NE(EncodeTrace(t->trace, SaveOptions{})[5] & testing::kXxh32Flag, 0);
}

TEST(Checksums, UnknownTraceFlagsFailClosed) {
  auto t = DecodeTrace(testing::ReadFixture("v1/trace.egwk"));
  ASSERT_TRUE(t.has_value());
  SaveOptions opts;
  opts.cache_final_doc = true;
  const std::string bytes = EncodeTrace(t->trace, opts, Replay(t->trace));
  ASSERT_TRUE(DecodeTrace(bytes).has_value());
  // Bits 3 and 4 belong to segments, bit 1 to v1 files, 6 and 7 to nobody.
  for (int bit : {1, 3, 4, 6, 7}) {
    const std::string flagged = FlipFlagBit(bytes, bit);
    std::string error;
    EXPECT_FALSE(DecodeTrace(flagged, &error).has_value()) << bit;
    EXPECT_EQ(error, "unknown flags") << bit;
    EXPECT_FALSE(ReadCachedDoc(flagged).has_value()) << bit;
    EXPECT_FALSE(Doc::Load(flagged, "reader").has_value()) << bit;
  }
  // The XXH32 flag is a v2 rule: a v1 file carrying it is refused too.
  std::string error;
  EXPECT_FALSE(DecodeTrace(FlipFlagBit(testing::ReadFixture("v1/trace.egwk"), 5), &error));
  EXPECT_EQ(error, "unknown flags");
}

TEST(Checksums, UnknownSegmentFlagsFailClosed) {
  const std::string seg = CheckpointedSegment();
  ASSERT_TRUE(Doc::LoadChain({seg}, "reader").has_value());
  // Bit 1 belongs to v1 segments, 6 and 7 to nobody.
  for (int bit : {1, 6, 7}) {
    const std::string flagged = FlipFlagBit(seg, bit);
    Trace t;
    std::optional<std::string> cached;
    std::string error;
    EXPECT_FALSE(DecodeSegmentInto(t, flagged, &cached, &error)) << bit;
    EXPECT_EQ(error, "unknown flags") << bit;
    EXPECT_FALSE(PeekSegment(flagged).has_value()) << bit;
    EXPECT_FALSE(Doc::LoadChain({flagged}, "reader").has_value()) << bit;
  }
  Trace t;
  std::optional<std::string> cached;
  std::string error;
  EXPECT_FALSE(DecodeSegmentInto(t, FlipFlagBit(testing::ReadFixture("v1/chain-0.egws"), 5),
                                 &cached, &error));
  EXPECT_EQ(error, "unknown flags");
}

// A raw_size one too large on a compressed column the load skips lazily
// (ops, content) passes every size check. Before the directory checksum
// such a segment loaded, and the first Save() aborted when hydration could
// not decode the column. Now the load refuses it.
TEST(Checksums, RawSizeOffByOneFailsTheLoad) {
  const std::string seg = CheckpointedSegment();
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  std::vector<uint8_t> lazy_packed;
  for (const SegmentColumn& col : info->columns) {
    if ((col.id == testing::kOpsColumn || col.id == testing::kContentColumn) && col.codec != 0) {
      lazy_packed.push_back(col.id);
    }
  }
  ASSERT_FALSE(lazy_packed.empty());
  for (uint8_t id : lazy_packed) {
    const std::string rotted = testing::RewriteColumns(
        seg,
        [&](testing::StoredColumnEntry& c) {
          if (c.id == id) {
            c.raw_size += 1;
          }
        },
        testing::DirectoryChecksum::kKeep);
    EXPECT_FALSE(PeekSegment(rotted).has_value()) << int{id};
    Trace t;
    std::optional<std::string> cached;
    std::string error;
    EXPECT_FALSE(DecodeSegmentInto(t, rotted, &cached, &error)) << int{id};
    EXPECT_EQ(error, "directory checksum mismatch") << int{id};
    error.clear();
    EXPECT_FALSE(Doc::LoadChain({seg, rotted}, "reader", &error).has_value()) << int{id};
    EXPECT_NE(error.find("segment 1/2"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(Doc::LoadChain({rotted}, "reader", &error).has_value()) << int{id};
    EXPECT_FALSE(error.empty()) << int{id};
  }
}

// Every byte of an XXH32-flagged container is covered: the header and the
// directory by the directory checksum, each payload by its column's.
TEST(Checksums, EverySingleBitFlipFailsTheDecode) {
  const std::string seg = CheckpointedSegment();
  auto t = DecodeTrace(testing::ReadFixture("v1/trace-cached.egwk"));
  ASSERT_TRUE(t.has_value());
  SaveOptions opts;
  opts.cache_final_doc = true;
  const std::string file = EncodeTrace(t->trace, opts, *t->cached_doc);
  for (size_t i = 0; i < seg.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = seg;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      Trace scratch;
      std::optional<std::string> cached;
      ASSERT_FALSE(DecodeSegmentInto(scratch, flipped, &cached)) << "byte " << i << " bit " << bit;
    }
  }
  for (size_t i = 0; i < file.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = file;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ASSERT_FALSE(DecodeTrace(flipped).has_value()) << "byte " << i << " bit " << bit;
    }
  }
}

// --- Golden v2 files written before the XXH32 flag ---------------------------

std::vector<std::string> FnvFixtureChain() {
  return {testing::ReadFixture("v2-fnv/chain-0.egws"), testing::ReadFixture("v2-fnv/chain-1.egws"),
          testing::ReadFixture("v2-fnv/chain-2.egws")};
}

TEST(V2FnvFixtures, TraceFileDecodesToItsExpectedTrace) {
  const std::string bytes = testing::ReadFixture("v2-fnv/trace-cached.egwk");
  const std::string dump = testing::ReadFixture("v2-fnv/trace.dump");
  const std::string text = testing::ReadFixture("v2-fnv/trace.txt");
  ASSERT_EQ(bytes[4], 2);                         // Container version.
  ASSERT_EQ(bytes[5] & testing::kXxh32Flag, 0);  // FNV-1a checksums.
  std::string error;
  auto decoded = DecodeTrace(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(testing::DumpTrace(decoded->trace), dump);
  EXPECT_EQ(Replay(decoded->trace), text);
  EXPECT_EQ(decoded->cached_doc, text);
  EXPECT_EQ(ReadCachedDoc(bytes), text);
  auto doc = Doc::Load(bytes, "reader");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Text(), text);
  EXPECT_EQ(doc->replayed_events(), 0u);
}

TEST(V2FnvFixtures, ChainLoadsLazilyThenHydrates) {
  const std::vector<std::string> chain = FnvFixtureChain();
  const std::string dump = testing::ReadFixture("v2-fnv/chain.dump");
  const std::string text = testing::ReadFixture("v2-fnv/chain.txt");
  int compressed = 0;
  for (const std::string& seg : chain) {
    ASSERT_EQ(seg[5] & testing::kXxh32Flag, 0);
    auto info = PeekSegment(seg);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->format_version, 2);
    for (const SegmentColumn& col : info->columns) {
      compressed += col.codec != 0 ? 1 : 0;
    }
  }
  EXPECT_GT(compressed, 0);

  Trace t;
  std::optional<std::string> cached;
  SegmentAnchor anchor;
  std::string error;
  for (const std::string& seg : chain) {
    ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error, &anchor)) << error;
  }
  EXPECT_EQ(testing::DumpTrace(t), dump);
  EXPECT_EQ(cached, text);
  EXPECT_EQ(anchor.lv, 209u);
  EXPECT_EQ(anchor.doc_len, 210u);
  EXPECT_FALSE(anchor.session_state.empty());

  auto lazy = Doc::LoadChain(chain, "!server", &error);
  ASSERT_TRUE(lazy.has_value()) << error;
  EXPECT_EQ(lazy->lazy_segments_skipped(), chain.size());
  EXPECT_EQ(lazy->replayed_events(), 0u);
  EXPECT_EQ(lazy->Text(), text);
  (void)lazy->Save();
  EXPECT_EQ(lazy->hydrated_segments(), chain.size());
  EXPECT_EQ(testing::DumpTrace(lazy->trace()), dump);
}

// RewriteColumns writes the checksums each header's flag selects: left
// unedited, both kinds of file come back byte for byte.
TEST(V2FnvFixtures, RewriteColumnsKeepsEitherChecksumRule) {
  auto keep = [](testing::StoredColumnEntry&) {};
  for (const std::string& seg : FnvFixtureChain()) {
    EXPECT_EQ(testing::RewriteColumns(seg, keep), seg);
  }
  const std::string file = testing::ReadFixture("v2-fnv/trace-cached.egwk");
  EXPECT_EQ(testing::RewriteColumns(file, keep), file);
  const std::string seg = CheckpointedSegment();
  EXPECT_EQ(testing::RewriteColumns(seg, keep), seg);
  EXPECT_EQ(testing::RewriteColumns(seg, keep, testing::DirectoryChecksum::kKeep), seg);
}

TEST(V2FnvFixtures, AFlippedPayloadByteFailsItsColumnChecksum) {
  // The last byte of a file is in its last column's payload.
  std::string file = testing::ReadFixture("v2-fnv/trace-cached.egwk");
  file.back() = static_cast<char>(file.back() ^ 0x10);
  std::string error;
  EXPECT_FALSE(DecodeTrace(file, &error).has_value());
  EXPECT_EQ(error, "column checksum mismatch");
  EXPECT_FALSE(ReadCachedDoc(file).has_value());

  // In a chain, the first payload byte of every column, skipped lazily or not.
  const std::vector<std::string> chain = FnvFixtureChain();
  for (size_t s = 0; s < chain.size(); ++s) {
    auto info = PeekSegment(chain[s]);
    ASSERT_TRUE(info.has_value());
    uint64_t payloads = 0;
    for (const SegmentColumn& col : info->columns) {
      payloads += col.stored_size;
    }
    size_t at = chain[s].size() - payloads;
    for (const SegmentColumn& col : info->columns) {
      std::vector<std::string> rotted = chain;
      rotted[s][at] = static_cast<char>(rotted[s][at] ^ 0x01);
      at += col.stored_size;
      Trace t;
      std::optional<std::string> cached;
      error.clear();
      for (size_t i = 0; i <= s; ++i) {
        if (!DecodeSegmentInto(t, rotted[i], &cached, &error)) {
          break;
        }
      }
      EXPECT_EQ(error, "column checksum mismatch") << "segment " << s << " column " << int{col.id};
      error.clear();
      EXPECT_FALSE(Doc::LoadChain(rotted, "!server", &error).has_value());
      EXPECT_NE(error.find("column checksum mismatch"), std::string::npos) << error;
    }
  }
}

TEST(SizeModels, OrderingMatchesPaperFigures) {
  // Figure 11: the Automerge-like full-history file is larger than our
  // event-graph encoding. Figure 12: the Yjs-like final-state file is
  // smaller than the full encoding. Both models are uncompressed, so ours
  // is too.
  SaveOptions raw;
  raw.compress_columns = false;
  for (const char* name : {"S2", "C2", "A1"}) {
    Trace t = GenerateNamedTrace(name, 0.004);
    uint64_t ours = EncodeTrace(t, raw).size();
    uint64_t automerge = AutomergeLikeSize(t.graph, t.ops);
    uint64_t yjs = YjsLikeSize(t.graph, t.ops);
    EXPECT_GT(automerge, ours) << name;
    EXPECT_LT(yjs, automerge) << name;
    EXPECT_GT(yjs, 0u) << name;
  }
}

}  // namespace
}  // namespace egwalker
