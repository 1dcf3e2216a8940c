#include "encoding/columnar.h"

#include <unordered_map>

#include "core/walker.h"
#include "lz4/lz4.h"
#include "lzhuf/lzhuf.h"
#include "rope/rope.h"
#include "rope/utf8.h"
#include "util/assert.h"
#include "util/varint.h"
#include "util/xxh32.h"

namespace egwalker {
namespace {

constexpr char kMagic[4] = {'E', 'G', 'W', 'K'};
constexpr char kSegmentMagic[4] = {'E', 'G', 'W', 'S'};
// Container versions. v1 is the concatenated-blob layout: read-only, with
// decode paths kept forever and held to that by the golden files under
// tests/fixtures/v1. v2 adds the column directory and is the only layout
// the encoders write; see docs/EGWS.md.
constexpr uint8_t kFormatV1 = 1;
constexpr uint8_t kFormatV2 = 2;

constexpr uint8_t kFlagContentComplete = 1 << 0;
// v1 only (read-only): the content column is LZ4-compressed. v2 records
// codecs per column in the directory and never sets this flag.
constexpr uint8_t kFlagCompressed = 1 << 1;
constexpr uint8_t kFlagCachedDoc = 1 << 2;
// Segments only: the header carries a walker-session anchor (critical LV +
// document length at it). Flag-gated, so pre-anchor segments decode as
// anchor-free.
constexpr uint8_t kFlagSessionAnchor = 1 << 3;
// Segments only: the header carries a serialized walker session
// (Walker::SaveSession bytes, length-prefixed, opaque here).
constexpr uint8_t kFlagSessionState = 1 << 4;
// v2 only: column checksums are XXH32 (seed 0) rather than FNV-1a-32, and a
// checksum of the header and directory follows the directory. Every writer
// sets it; files written without it verify as they always did.
constexpr uint8_t kFlagXxh32 = 1 << 5;

// The header flag bits a container may carry. Any other bit fails the
// decode ("unknown flags"): a reader must not skip a rule it does not know.
uint8_t KnownFlags(bool segment, bool v2) {
  uint8_t known = kFlagContentComplete | kFlagCachedDoc | (v2 ? kFlagXxh32 : kFlagCompressed);
  if (segment) {
    known |= kFlagSessionAnchor | kFlagSessionState;
  }
  return known;
}

// v2 column ids (directory entries; docs/EGWS.md).
constexpr uint8_t kColOps = 0;
constexpr uint8_t kColParents = 1;
constexpr uint8_t kColAgents = 2;
constexpr uint8_t kColContent = 3;
constexpr uint8_t kColCachedDoc = 4;
constexpr uint8_t kColSurvival = 5;  // Full format only.
constexpr uint8_t kMaxColId = kColSurvival;

constexpr uint8_t kCodecRaw = 0;
constexpr uint8_t kCodecLz4 = 1;  // Accepted by decoders; encoders never pick it.
constexpr uint8_t kCodecLzHuf = 2;
constexpr uint8_t kCodecLzHufStatic = 3;  // Table-less fixed code (tiny columns).
constexpr uint8_t kMaxCodec = kCodecLzHufStatic;

// Fail-closed allocation cap: no column may claim more than this many
// bytes raw or stored, so a corrupt length cannot make the decoder
// allocate unbounded memory before validation catches it.
constexpr uint64_t kMaxColumnLen = 1ull << 28;  // 256 MiB
// Arithmetic cap for counts/LVs/seqs read from input: the sum of two
// capped values cannot overflow uint64, so range checks stay sound.
constexpr uint64_t kMaxCount = 1ull << 62;

// Columns smaller than this skip the dynamic Huffman code, which pays
// ~30-80 bytes of code-length tables before the first symbol.
constexpr size_t kCompressMinLen = 64;
// Columns in [kStaticMinLen, kStaticTryMax) additionally try the table-less
// static-code lzhuf variant. Below kCompressMinLen it is the only candidate
// (it has no fixed cost to amortise); above, it competes with the dynamic
// code until the payload is big enough that dynamic tables always pay off.
constexpr size_t kStaticMinLen = 16;
constexpr size_t kStaticTryMax = 512;

// The checksum of v2 columns written before the XXH32 flag. Read-only: one
// multiply per byte made verifying the cached text a fifth of an open.
uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

// The checksum of a stored v2 column under the header's hash rule. Cheap
// enough to verify on every load, which is what lets lazy decode skip
// *parsing* a column while still detecting its corruption up front.
uint32_t ColumnChecksum(bool xxh32, std::string_view stored) {
  return xxh32 ? Xxh32(stored) : Fnv1a(stored);
}

// --- v2 column block ---------------------------------------------------------
//
// directory := count, then per column
//   { id u8, codec u8, raw_size varint, stored_size varint,
//     offset varint, checksum(stored bytes) varint }
// then, under kFlagXxh32, dir_checksum: XXH32 of every container byte before
// it (header and directory) as a little-endian u32, followed by the stored
// payloads concatenated in directory order. The offset is redundant with the
// running stored_size sum and is validated against it — an extra tripwire
// against desynchronised directories.

struct ColumnSpec {
  uint8_t id;
  const std::string* data;
};

// `out` holds the container so far: its header, with kFlagXxh32 set.
void AppendColumnBlock(std::string& out, const std::vector<ColumnSpec>& cols, bool compress) {
  std::vector<std::string> stored(cols.size());
  std::vector<uint8_t> codec(cols.size(), kCodecRaw);
  for (size_t i = 0; i < cols.size(); ++i) {
    const std::string& raw = *cols[i].data;
    if (compress && raw.size() >= kStaticMinLen) {
      // Segments compress once and decode many times, so trying both
      // lzhuf codes is the right trade. Tiny columns only get the
      // table-less static code; mid-size columns race it against the
      // dynamic code, over one parse.
      lzhuf::Smallest packed = lzhuf::CompressSmallest(raw, raw.size() < kStaticTryMax,
                                                       raw.size() >= kCompressMinLen);
      // Keep the compressed form only when it saves at least 1/8th.
      if (packed.stream.size() <= raw.size() - raw.size() / 8) {
        stored[i] = std::move(packed.stream);
        codec[i] = packed.code == lzhuf::Code::kStatic ? kCodecLzHufStatic : kCodecLzHuf;
        continue;
      }
    }
    stored[i] = raw;
  }
  AppendVarint(out, cols.size());
  uint64_t offset = 0;
  for (size_t i = 0; i < cols.size(); ++i) {
    out.push_back(static_cast<char>(cols[i].id));
    out.push_back(static_cast<char>(codec[i]));
    AppendVarint(out, cols[i].data->size());
    AppendVarint(out, stored[i].size());
    AppendVarint(out, offset);
    AppendVarint(out, Xxh32(stored[i]));
    offset += stored[i].size();
  }
  const uint32_t dir_checksum = Xxh32(out);
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>(dir_checksum >> shift));
  }
  for (const std::string& s : stored) {
    out += s;
  }
}

struct ColumnMeta {
  uint8_t id = 0;
  uint8_t codec = kCodecRaw;
  uint64_t raw_size = 0;
  uint64_t stored_size = 0;
  uint64_t offset = 0;
  uint32_t checksum = 0;
};

// The most raw bytes `stored_size` stored bytes can decode to under
// `codec`. A directory entry claiming more is refused before any decoder
// sizes a buffer by it.
uint64_t MaxRawSize(uint8_t codec, uint64_t stored_size) {
  switch (codec) {
    case kCodecLz4:
      return lz4::MaxDecompressedSize(stored_size);
    case kCodecLzHuf:
      return lzhuf::MaxDecompressedSize(stored_size);
    case kCodecLzHufStatic:
      return lzhuf::MaxDecompressedSizeStatic(stored_size);
    default:
      return stored_size;
  }
}

// Parses and validates a directory (ids, codecs, size caps, offsets, and
// under `xxh32` the directory checksum), leaving the reader positioned at
// the first payload byte. The reader must have started at the container's
// first byte. Payloads are not consumed. Returns nullptr on success.
const char* ReadColumnDirectory(ByteReader& reader, bool xxh32, std::vector<ColumnMeta>& out) {
  auto count = reader.ReadVarint();
  if (!count || *count > static_cast<uint64_t>(kMaxColId) + 1) {
    return "bad column count";
  }
  out.clear();
  out.resize(*count);
  uint64_t next_offset = 0;
  uint32_t seen_ids = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto id = reader.ReadByte();
    auto codec = reader.ReadByte();
    auto raw_size = reader.ReadVarint();
    auto stored_size = reader.ReadVarint();
    auto offset = reader.ReadVarint();
    auto checksum = reader.ReadVarint();
    if (!id || !codec || !raw_size || !stored_size || !offset || !checksum) {
      return "truncated column directory";
    }
    if (*id > kMaxColId || (seen_ids & (1u << *id)) != 0) {
      return "bad column id";
    }
    seen_ids |= 1u << *id;
    if (*codec > kMaxCodec || *raw_size > kMaxColumnLen || *stored_size > kMaxColumnLen ||
        (*codec == kCodecRaw && *stored_size != *raw_size) || *checksum > 0xFFFFFFFFull) {
      return "bad column directory entry";
    }
    if (*raw_size > MaxRawSize(static_cast<uint8_t>(*codec), *stored_size)) {
      return "column raw size exceeds its codec's expansion";
    }
    if (*offset != next_offset) {
      return "bad column offset";
    }
    next_offset += *stored_size;
    out[i] = ColumnMeta{*id,    static_cast<uint8_t>(*codec),          *raw_size,
                        *stored_size, *offset, static_cast<uint32_t>(*checksum)};
  }
  if (xxh32) {
    const uint32_t expected = Xxh32(reader.consumed());
    std::string stored;
    if (!reader.ReadBytes(4, stored)) {
      return "truncated column directory";
    }
    uint32_t dir_checksum = 0;
    for (int i = 3; i >= 0; --i) {
      dir_checksum = (dir_checksum << 8) | static_cast<uint8_t>(stored[static_cast<size_t>(i)]);
    }
    if (dir_checksum != expected) {
      return "directory checksum mismatch";
    }
  }
  return nullptr;
}

struct StoredColumn {
  uint8_t id = 0;
  uint8_t codec = kCodecRaw;
  uint64_t raw_size = 0;
  std::string stored;
};

// Directory + payloads, with every checksum verified — corruption in ANY
// column (even one the caller will skip) fails the decode here.
const char* ReadColumnBlock(ByteReader& reader, bool xxh32, std::vector<StoredColumn>& out) {
  std::vector<ColumnMeta> metas;
  if (const char* err = ReadColumnDirectory(reader, xxh32, metas)) {
    return err;
  }
  out.clear();
  out.resize(metas.size());
  for (size_t i = 0; i < metas.size(); ++i) {
    out[i].id = metas[i].id;
    out[i].codec = metas[i].codec;
    out[i].raw_size = metas[i].raw_size;
    if (!reader.ReadBytes(metas[i].stored_size, out[i].stored)) {
      return "truncated column payload";
    }
    if (ColumnChecksum(xxh32, out[i].stored) != metas[i].checksum) {
      return "column checksum mismatch";
    }
  }
  return nullptr;
}

// Decompresses a stored v2 column payload according to its codec id.
std::optional<std::string> DecompressColumn(uint8_t codec, std::string_view stored,
                                            uint64_t raw_size) {
  switch (codec) {
    case kCodecLz4:
      return lz4::Decompress(stored, raw_size);
    case kCodecLzHuf:
      return lzhuf::Decompress(stored, raw_size);
    case kCodecLzHufStatic:
      return lzhuf::DecompressStatic(stored, raw_size);
    default:
      return std::nullopt;  // Directory validation already rejects these.
  }
}

// Moves column `id` out of a decoded block, decompressing if stored packed.
// Absent columns yield an empty string with *present = false.
const char* TakeColumn(std::vector<StoredColumn>& cols, uint8_t id, std::string& out,
                       bool* present = nullptr) {
  out.clear();
  if (present != nullptr) {
    *present = false;
  }
  for (StoredColumn& c : cols) {
    if (c.id != id) {
      continue;
    }
    if (present != nullptr) {
      *present = true;
    }
    if (c.codec == kCodecRaw) {
      out = std::move(c.stored);
    } else {
      auto raw = DecompressColumn(c.codec, c.stored, c.raw_size);
      if (!raw) {
        return "corrupt compressed column";
      }
      out = std::move(*raw);
    }
    return nullptr;
  }
  return nullptr;
}

bool BlockHasColumn(const std::vector<StoredColumn>& cols, uint8_t id) {
  for (const StoredColumn& c : cols) {
    if (c.id == id) {
      return true;
    }
  }
  return false;
}

// --- Shared column walkers ---------------------------------------------------
//
// The full file format (EncodeTrace/DecodeTrace) and the incremental
// checkpoint segments (EncodeSegment/DecodeSegmentInto) use the same three
// structure columns; the only difference is the window [base_lv, end_lv)
// they cover (the full format is simply base_lv == 0). One implementation
// serves both so the formats cannot drift apart. The writers emit the v2
// column layouts only; the readers also accept the read-only v1 variants.

// Column 1: operations — (type, direction, run length) headers with start
// positions delta-coded against the cursor implied by the previous run,
// restarting from 0 at base_lv. When `content` is non-null, the UTF-8 of
// insert slices is appended to it in event order.
//
// Two layout choices aim at the entropy coder:
//   - the column is split into two back-to-back streams (varint
//     header-stream length, all headers, all deltas), so each stream is a
//     homogeneous byte population;
//   - positions are delta-coded against a *per-agent* cursor, with runs
//     clipped at agent-span boundaries. Concurrent editors each type at
//     their own location, so interleaved traces produce huge alternating
//     global-cursor jumps but tiny per-agent ones. Cursors are
//     column-local (all start at 0), so segments stay self-delimiting.
void WriteOpsColumn(const OpLog& ops, const Graph& g, Lv base_lv, Lv end_lv,
                    std::string& ops_col, std::string* content) {
  std::string headers;
  std::string deltas;
  std::unordered_map<AgentId, int64_t> cursors;
  for (Lv lv = base_lv; lv < end_lv;) {
    const AgentSpan& as = g.agent_spans().FindChecked(lv);
    int64_t& cursor = cursors[as.agent];
    OpSlice slice = ops.SliceAt(lv, std::min<Lv>(end_lv, as.span.end));
    uint64_t tag = (slice.kind == OpKind::kDelete ? 1 : 0) | (slice.fwd ? 2 : 0);
    AppendVarint(headers, (slice.count << 2) | tag);
    AppendVarintSigned(deltas, static_cast<int64_t>(slice.pos_start) - cursor);
    if (slice.kind == OpKind::kInsert) {
      cursor = static_cast<int64_t>(slice.pos_start + slice.count);
      if (content != nullptr) {
        *content += slice.text;
      }
    } else if (slice.fwd) {
      cursor = static_cast<int64_t>(slice.pos_start);
    } else {
      cursor = static_cast<int64_t>(slice.pos_start - (slice.count - 1));
    }
    lv += slice.count;
  }
  AppendVarint(ops_col, headers.size());
  ops_col += headers;
  ops_col += deltas;
}

// Column 2: parents — one record per graph run clipped to the window;
// parents are encoded as positive deltas below the record's first event. A
// run straddling base_lv chains its tail onto the predecessor (delta 1).
void WriteParentsColumn(const Graph& g, Lv base_lv, Lv end_lv, std::string& col) {
  for (Lv lv = base_lv; lv < end_lv;) {
    const GraphEntry& entry = g.EntryContaining(lv);
    AppendVarint(col, entry.span.end - lv);
    if (lv > entry.span.start) {
      AppendVarint(col, 1);
      AppendVarint(col, 1);  // Parent = lv - 1.
    } else {
      AppendVarint(col, entry.parents.size());
      for (Lv p : entry.parents) {
        AppendVarint(col, lv - p);
      }
    }
    lv = entry.span.end;
  }
}

// Column 3: agent assignment runs, clipped and seq-adjusted. `remap`
// translates interned AgentIds to column indexes (nullptr = identity, for
// the full format whose table holds every agent in id order).
//
// Each run's start seq is zigzag-coded against the agent's column-local
// continuation (the end of its previous run in this window, or 0 for its
// first run): agents almost always continue where they left off, so the
// delta stream is nearly all zeros.
void WriteAgentsColumn(const Graph& g, Lv base_lv, Lv end_lv,
                       const std::unordered_map<AgentId, uint32_t>* remap, std::string& col) {
  std::unordered_map<uint64_t, uint64_t> expected;  // column agent idx -> next seq
  for (Lv lv = base_lv; lv < end_lv;) {
    const AgentSpan& as = g.agent_spans().FindChecked(lv);
    uint64_t idx = remap != nullptr ? remap->at(as.agent) : as.agent;
    uint64_t len = as.span.end - lv;
    uint64_t seq = as.seq_start + (lv - as.span.start);
    AppendVarint(col, idx);
    AppendVarint(col, len);
    auto it = expected.find(idx);
    uint64_t exp = it == expected.end() ? 0 : it->second;
    AppendVarintSigned(col, static_cast<int64_t>(seq) - static_cast<int64_t>(exp));
    expected[idx] = seq + len;
    lv = as.span.end;
  }
}

// Rebuilds graph events [base_lv, end_lv) by walking the parents and agent
// columns in parallel, emitting maximal chunks on which both are constant.
// Returns nullptr on success, a static error message on malformed input.
//
// Every quantity is validated before it feeds Graph::Add, whose
// EGW_CHECKs are program invariants, not input validation: run lengths
// are clamped to the window, seqs are capped against overflow, and a run
// claiming sequence numbers the graph already holds for that agent is
// rejected — the (agent, seq) index assumes monotonic insertion, so
// admitting a rewind would corrupt lookups instead of failing.
const char* DecodeGraphColumns(Graph& graph, const std::string& parents_col,
                               const std::string& agents_col,
                               const std::vector<AgentId>& agents, Lv base_lv, Lv end_lv,
                               bool v2) {
  ByteReader pr(parents_col);
  ByteReader ar(agents_col);
  uint64_t entry_left = 0;
  Frontier entry_parents;
  bool entry_fresh = false;  // True for the first chunk of an entry.
  uint64_t agent_left = 0;
  uint64_t agent_idx = 0;
  uint64_t seq_next = 0;
  std::unordered_map<uint64_t, uint64_t> expected;  // v2: column agent idx -> next seq
  Lv lv = base_lv;
  while (lv < end_lv) {
    if (entry_left == 0) {
      auto len = pr.ReadVarint();
      auto np = pr.ReadVarint();
      if (!len || *len == 0 || *len > end_lv - lv || !np || *np > 1u << 16) {
        return "bad parents record";
      }
      entry_parents.clear();
      for (uint64_t i = 0; i < *np; ++i) {
        auto delta = pr.ReadVarint();
        if (!delta || *delta == 0 || *delta > lv) {
          return "bad parent delta";
        }
        FrontierInsert(entry_parents, lv - *delta);
      }
      entry_left = *len;
      entry_fresh = true;
    }
    if (agent_left == 0) {
      auto a = ar.ReadVarint();
      auto len = ar.ReadVarint();
      if (!a || *a >= agents.size() || !len || *len == 0 || *len > end_lv - lv) {
        return "bad agent record";
      }
      uint64_t seq_value;
      if (v2) {
        // Reconstruct the absolute seq from the zigzag delta against this
        // agent's column-local continuation, rejecting anything that would
        // leave the [0, kMaxCount] range (the additions below stay
        // overflow-free because every operand is capped at 2^62).
        auto d = ar.ReadVarintSigned();
        if (!d) {
          return "bad agent record";
        }
        auto it = expected.find(*a);
        uint64_t exp = it == expected.end() ? 0 : it->second;
        if (*d > 0 && static_cast<uint64_t>(*d) > kMaxCount - exp) {
          return "bad agent record";
        }
        if (*d < 0 && (*d < -static_cast<int64_t>(kMaxCount) ||
                       static_cast<uint64_t>(-*d) > exp)) {
          return "bad agent record";
        }
        seq_value = *d >= 0 ? exp + static_cast<uint64_t>(*d) : exp - static_cast<uint64_t>(-*d);
        if (*len > kMaxCount - seq_value) {
          return "bad agent record";
        }
        expected[*a] = seq_value + *len;
      } else {
        auto seq = ar.ReadVarint();
        if (!seq || *seq > kMaxCount) {
          return "bad agent record";
        }
        seq_value = *seq;
      }
      if (seq_value < graph.NextSeqFor(agents[*a])) {
        return "agent seq rewind";
      }
      agent_idx = *a;
      agent_left = *len;
      seq_next = seq_value;
    }
    uint64_t chunk = std::min(entry_left, agent_left);
    chunk = std::min<uint64_t>(chunk, end_lv - lv);
    Frontier parents = entry_fresh ? entry_parents : Frontier{lv - 1};
    graph.Add(agents[agent_idx], seq_next, chunk, parents);
    seq_next += chunk;
    lv += chunk;
    entry_left -= chunk;
    agent_left -= chunk;
    entry_fresh = false;
  }
  if (!pr.empty() || !ar.empty()) {
    return "trailing graph column data";
  }
  return nullptr;
}

// Rebuilds ops [base_lv, end_lv) from the ops column plus the content
// stream. `surviving` enables the omitted-deleted-content decode (absent
// characters come back as U+FFFD); nullptr means the content is complete.
// The whole content stream must be consumed exactly.
const char* DecodeOpsColumn(OpLog& ops, const std::string& ops_col, const std::string& content,
                            const std::vector<LvSpan>* surviving, Lv base_lv, Lv end_lv,
                            const Graph* g) {
  const bool v2 = g != nullptr;
  // v1 interleaves (header, delta) pairs in one stream; v2 prefixes the
  // column with the header-stream length and stores all headers before all
  // deltas. Both readers alias the single v1 stream so the loop below reads
  // either layout unchanged.
  ByteReader whole(ops_col);
  ByteReader split_hr(nullptr, 0);
  ByteReader split_dr(nullptr, 0);
  if (v2) {
    auto hlen = whole.ReadVarint();
    if (!hlen || *hlen > whole.remaining()) {
      return "bad op column framing";
    }
    const uint8_t* rest = reinterpret_cast<const uint8_t*>(ops_col.data()) + whole.position();
    split_hr = ByteReader(rest, *hlen);
    split_dr = ByteReader(rest + *hlen, whole.remaining() - *hlen);
  }
  ByteReader& hr = v2 ? split_hr : whole;
  ByteReader& dr = v2 ? split_dr : whole;
  size_t content_byte = 0;
  size_t survive_idx = 0;
  int64_t global_cursor = 0;
  std::unordered_map<AgentId, int64_t> cursors;  // v2 only
  Lv lv = base_lv;
  while (lv < end_lv) {
    auto header = hr.ReadVarint();
    auto delta = dr.ReadVarintSigned();
    if (!header || (*header >> 2) == 0 || !delta) {
      return "bad op record";
    }
    uint64_t len = *header >> 2;
    // A run must not outrun the event window: the graph decoded exactly
    // [base_lv, end_lv), so excess length here means corrupt input (it
    // used to be accepted silently, leaving ops and graph disagreeing).
    if (len > end_lv - lv) {
      return "op run past window end";
    }
    // v2: positions are deltas against the run's agent's own cursor, and
    // the writer clips runs at agent-span boundaries — a run crossing one
    // is corrupt. The graph is always decoded (or already resident, for
    // hydration) before ops, so the span walk below is well-defined.
    int64_t* cursor = &global_cursor;
    if (v2) {
      const AgentSpan& as = g->agent_spans().FindChecked(lv);
      if (len > as.span.end - lv) {
        return "op run crosses agent boundary";
      }
      cursor = &cursors[as.agent];
    }
    bool is_delete = (*header & 1) != 0;
    bool fwd = (*header & 2) != 0;
    // Position arithmetic stays overflow-free: delta and the incoming
    // cursor are capped at 2^60, so their sum fits int64 with room for the
    // run length below; the outgoing cursor is re-checked next iteration.
    constexpr int64_t kMaxPos = 1ll << 60;
    if (*delta > kMaxPos || *delta < -kMaxPos || *cursor > kMaxPos) {
      return "op position overflow";
    }
    int64_t pos_signed = *cursor + *delta;
    if (pos_signed < 0) {
      return "op position underflow";
    }
    if (pos_signed > kMaxPos) {
      return "op position overflow";
    }
    uint64_t pos = static_cast<uint64_t>(pos_signed);
    if (is_delete) {
      *cursor = fwd ? pos_signed : pos_signed - static_cast<int64_t>(len - 1);
      if (*cursor < 0) {
        return "op position underflow";
      }
      ops.PushDelete(lv, len, pos, fwd);
    } else {
      *cursor = pos_signed + static_cast<int64_t>(len);
      std::string text;
      if (surviving == nullptr) {
        size_t end_byte =
            Utf8ByteOfChar(std::string_view(content).substr(content_byte), len) + content_byte;
        text = content.substr(content_byte, end_byte - content_byte);
        // Utf8ByteOfChar saturates at the end of the stream, so a short
        // content column shows up as a short slice, not an overrun.
        if (Utf8CountChars(text) != len) {
          return "content column too short";
        }
        content_byte = end_byte;
      } else {
        // Surviving chars come from the content stream; omitted ones
        // decode as U+FFFD.
        for (uint64_t i = 0; i < len; ++i) {
          Lv id = lv + i;
          while (survive_idx < surviving->size() && (*surviving)[survive_idx].end <= id) {
            ++survive_idx;
          }
          bool alive = survive_idx < surviving->size() && (*surviving)[survive_idx].contains(id);
          if (alive) {
            if (content_byte >= content.size()) {
              return "content column too short";
            }
            size_t cl;
            uint32_t cp = Utf8DecodeAt(content, content_byte, &cl);
            content_byte += cl;
            Utf8Append(text, cp);
          } else {
            Utf8Append(text, 0xFFFD);
          }
        }
      }
      ops.PushInsert(lv, pos, text);
    }
    lv += len;
  }
  if (!hr.empty() || !dr.empty()) {
    return "trailing op column data";
  }
  if (content_byte != content.size()) {
    return "trailing content bytes";
  }
  return nullptr;
}

// Parses the survival column shared by both container versions. Spans are
// gap/length coded; caps keep the arithmetic overflow-free.
const char* ParseSurvivalColumn(const std::string& survival_col, std::vector<LvSpan>& out) {
  ByteReader sr(survival_col);
  auto count = sr.ReadVarint();
  if (!count || *count > kMaxCount) {
    return "bad survival column";
  }
  Lv prev = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto gap = sr.ReadVarint();
    auto len = sr.ReadVarint();
    if (!gap || *gap > kMaxCount || !len || *len > kMaxCount || prev > kMaxCount) {
      return "bad survival span";
    }
    Lv start = prev + *gap;
    out.push_back({start, start + *len});
    prev = start + *len;
  }
  if (!sr.empty()) {
    return "trailing survival column data";
  }
  return nullptr;
}

}  // namespace

std::vector<LvSpan> ComputeSurvivingChars(const Graph& graph, const OpLog& ops) {
  // Replay with clearing disabled so the final internal state covers every
  // character, then collect the runs that were never deleted.
  Walker walker(graph, ops);
  Rope doc;
  Walker::Options opts;
  opts.enable_clearing = false;
  walker.ReplayAll(doc, opts);
  std::vector<LvSpan> out;
  const StateTree& tree = walker.tree();
  for (StateTree::Cursor c = tree.Begin(); !tree.AtEnd(c); c = tree.NextPiece(c)) {
    StateTree::Piece piece = tree.PieceAt(c);
    if (piece.ever_deleted || piece.first_id >= kPlaceholderBase) {
      continue;
    }
    if (!out.empty() && out.back().end == piece.first_id) {
      out.back().end += piece.len;
    } else {
      out.push_back({piece.first_id, piece.first_id + piece.len});
    }
  }
  // Record ids are insert-event LVs but appear in document order; sort into
  // LV order for the encoder's sequential scan.
  std::sort(out.begin(), out.end(),
            [](const LvSpan& a, const LvSpan& b) { return a.start < b.start; });
  std::vector<LvSpan> merged;
  for (const LvSpan& s : out) {
    if (!merged.empty() && merged.back().end >= s.start) {
      merged.back().end = std::max(merged.back().end, s.end);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

std::string EncodeTrace(const Trace& trace, const SaveOptions& options,
                        std::string_view final_doc, const std::vector<LvSpan>* surviving) {
  EGW_CHECK(options.include_deleted_content || surviving != nullptr);
  EGW_CHECK(options.format_version == kFormatV2);

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kFormatV2));
  uint8_t flags = kFlagXxh32;
  if (options.include_deleted_content) {
    flags |= kFlagContentComplete;
  }
  if (options.cache_final_doc) {
    flags |= kFlagCachedDoc;
  }
  out.push_back(static_cast<char>(flags));
  AppendVarint(out, trace.graph.size());

  // Agent name table.
  AppendVarint(out, trace.graph.agent_count());
  for (size_t i = 0; i < trace.graph.agent_count(); ++i) {
    const std::string& name = trace.graph.AgentName(static_cast<AgentId>(i));
    AppendVarint(out, name.size());
    out += name;
  }

  // Columns 1-3 (shared walkers, full window): operations, parents, agent
  // assignment runs. With complete content the insert text falls out of the
  // ops walk; the survival-filtered content is built separately below.
  std::string ops_col;
  std::string content;
  WriteOpsColumn(trace.ops, trace.graph, 0, trace.graph.size(), ops_col,
                 options.include_deleted_content ? &content : nullptr);
  std::string parents_col;
  WriteParentsColumn(trace.graph, 0, trace.graph.size(), parents_col);
  std::string agents_col;
  WriteAgentsColumn(trace.graph, 0, trace.graph.size(), nullptr, agents_col);

  // Column 4 (optional): survival spans, when deleted content is omitted.
  std::string survival_col;
  if (!options.include_deleted_content) {
    AppendVarint(survival_col, surviving->size());
    Lv prev = 0;
    for (const LvSpan& s : *surviving) {
      AppendVarint(survival_col, s.start - prev);
      AppendVarint(survival_col, s.size());
      prev = s.end;
    }
  }

  // Column 5: inserted content, in event order. The complete-content case
  // was collected by the ops walk above; the Figure 12 configuration keeps
  // only the bytes of surviving characters.
  if (!options.include_deleted_content) {
    size_t survive_idx = 0;
    for (const OpRun& run : trace.ops.runs()) {
      if (run.kind != OpKind::kInsert) {
        continue;
      }
      Lv id = run.span.start;
      size_t byte = 0;
      while (id < run.span.end) {
        while (survive_idx < surviving->size() && (*surviving)[survive_idx].end <= id) {
          ++survive_idx;
        }
        bool alive = survive_idx < surviving->size() && (*surviving)[survive_idx].contains(id);
        Lv chunk_end = run.span.end;
        if (survive_idx < surviving->size()) {
          chunk_end = alive ? std::min(chunk_end, (*surviving)[survive_idx].end)
                            : std::min(chunk_end, (*surviving)[survive_idx].start);
          if (chunk_end <= id) {
            chunk_end = run.span.end;  // Past the last survival span.
          }
        }
        size_t end_byte = Utf8ByteOfChar(std::string_view(run.text).substr(byte),
                                         chunk_end - id) +
                          byte;
        if (alive) {
          content.append(run.text, byte, end_byte - byte);
        }
        byte = end_byte;
        id = chunk_end;
      }
    }
  }

  std::string cached(final_doc);
  std::vector<ColumnSpec> cols = {
      {kColOps, &ops_col}, {kColParents, &parents_col}, {kColAgents, &agents_col}};
  if (!options.include_deleted_content) {
    cols.push_back({kColSurvival, &survival_col});
  }
  cols.push_back({kColContent, &content});
  if (options.cache_final_doc) {
    cols.push_back({kColCachedDoc, &cached});
  }
  AppendColumnBlock(out, cols, options.compress_columns);
  return out;
}

std::optional<DecodeResult> DecodeTrace(std::string_view bytes, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<DecodeResult> {
    if (error != nullptr) {
      *error = msg;
    }
    return std::nullopt;
  };

  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::string magic;
  if (!reader.ReadBytes(4, magic) || magic != std::string(kMagic, 4)) {
    return fail("bad magic");
  }
  auto version = reader.ReadByte();
  if (!version || (*version != kFormatV1 && *version != kFormatV2)) {
    return fail("unsupported version");
  }
  const bool v2 = *version == kFormatV2;
  auto flags = reader.ReadByte();
  if (!flags) {
    return fail("truncated flags");
  }
  if ((*flags & ~KnownFlags(/*segment=*/false, v2)) != 0) {
    return fail("unknown flags");
  }
  bool content_complete = (*flags & kFlagContentComplete) != 0;
  bool compressed = (*flags & kFlagCompressed) != 0;
  bool cached_doc = (*flags & kFlagCachedDoc) != 0;
  auto event_count = reader.ReadVarint();
  if (!event_count || *event_count > kMaxCount) {
    return fail("bad event count");
  }

  DecodeResult result;
  result.content_complete = content_complete;
  Trace& trace = result.trace;

  auto agent_count = reader.ReadVarint();
  if (!agent_count || *agent_count > 1u << 24) {
    return fail("bad agent count");
  }
  std::vector<AgentId> agents;
  for (uint64_t i = 0; i < *agent_count; ++i) {
    auto len = reader.ReadVarint();
    std::string name;
    if (!len || !reader.ReadBytes(*len, name)) {
      return fail("bad agent name");
    }
    agents.push_back(trace.graph.GetOrCreateAgent(name));
  }

  std::string ops_col, parents_col, agents_col, survival_col, content;
  if (v2) {
    std::vector<StoredColumn> cols;
    if (const char* err = ReadColumnBlock(reader, (*flags & kFlagXxh32) != 0, cols)) {
      return fail(err);
    }
    if (!reader.empty()) {
      return fail("trailing bytes");
    }
    if (!BlockHasColumn(cols, kColOps) || !BlockHasColumn(cols, kColParents) ||
        !BlockHasColumn(cols, kColAgents) || !BlockHasColumn(cols, kColContent) ||
        BlockHasColumn(cols, kColSurvival) == content_complete ||
        BlockHasColumn(cols, kColCachedDoc) != cached_doc) {
      return fail("column set does not match flags");
    }
    const char* err = TakeColumn(cols, kColOps, ops_col);
    if (err == nullptr) err = TakeColumn(cols, kColParents, parents_col);
    if (err == nullptr) err = TakeColumn(cols, kColAgents, agents_col);
    if (err == nullptr) err = TakeColumn(cols, kColContent, content);
    if (err == nullptr && !content_complete) {
      err = TakeColumn(cols, kColSurvival, survival_col);
    }
    std::string doc;
    if (err == nullptr && cached_doc) {
      err = TakeColumn(cols, kColCachedDoc, doc);
    }
    if (err != nullptr) {
      return fail(err);
    }
    if (cached_doc) {
      result.cached_doc = std::move(doc);
    }
  } else {
    auto read_column = [&](std::string& col) {
      auto len = reader.ReadVarint();
      return len && reader.ReadBytes(*len, col);
    };
    if (!read_column(ops_col) || !read_column(parents_col) || !read_column(agents_col)) {
      return fail("truncated columns");
    }
    if (!content_complete && !read_column(survival_col)) {
      return fail("truncated survival column");
    }
    auto raw_content_len = reader.ReadVarint();
    if (!raw_content_len) {
      return fail("truncated content length");
    }
    if (compressed) {
      if (*raw_content_len > kMaxColumnLen) {
        return fail("content length too large");
      }
      auto comp_len = reader.ReadVarint();
      std::string comp;
      if (!comp_len || !reader.ReadBytes(*comp_len, comp)) {
        return fail("truncated compressed content");
      }
      if (*raw_content_len > lz4::MaxDecompressedSize(comp.size())) {
        return fail("compressed content length exceeds its expansion");
      }
      auto decompressed = lz4::Decompress(comp, *raw_content_len);
      if (!decompressed) {
        return fail("corrupt compressed content");
      }
      content = std::move(*decompressed);
    } else if (!reader.ReadBytes(*raw_content_len, content)) {
      return fail("truncated content");
    }
    if (cached_doc) {
      auto len = reader.ReadVarint();
      std::string doc;
      if (!len || !reader.ReadBytes(*len, doc)) {
        return fail("truncated cached document");
      }
      result.cached_doc = std::move(doc);
    }
  }

  std::vector<LvSpan> surviving;
  if (!content_complete) {
    if (const char* err = ParseSurvivalColumn(survival_col, surviving)) {
      return fail(err);
    }
  }

  // --- Rebuild the graph and op log via the shared column walkers. ---
  if (const char* err =
          DecodeGraphColumns(trace.graph, parents_col, agents_col, agents, 0, *event_count, v2)) {
    return fail(err);
  }
  if (const char* err = DecodeOpsColumn(trace.ops, ops_col, content,
                                        content_complete ? nullptr : &surviving, 0,
                                        *event_count, v2 ? &trace.graph : nullptr)) {
    return fail(err);
  }
  return result;
}

std::string EncodeSegment(const Trace& trace, Lv base_lv, const SaveOptions& options,
                          std::string_view final_doc, const SegmentAnchor& anchor) {
  // Survival bitmaps are whole-trace properties; a chain cannot compose
  // them, so segments always carry deleted content.
  EGW_CHECK(options.include_deleted_content);
  EGW_CHECK(options.format_version == kFormatV2);
  const Graph& g = trace.graph;
  const OpLog& ops = trace.ops;
  EGW_CHECK(base_lv <= g.size());
  const Lv end_lv = g.size();
  const bool with_anchor =
      options.checkpoint_session_anchor && anchor.lv != kInvalidLv;
  EGW_CHECK(!with_anchor || anchor.lv < end_lv);
  const bool with_state =
      options.checkpoint_session_anchor && !anchor.session_state.empty();

  std::string out;
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  out.push_back(static_cast<char>(kFormatV2));
  uint8_t flags = kFlagContentComplete | kFlagXxh32;
  if (options.cache_final_doc) {
    flags |= kFlagCachedDoc;
  }
  if (with_anchor) {
    flags |= kFlagSessionAnchor;
  }
  if (with_state) {
    flags |= kFlagSessionState;
  }
  out.push_back(static_cast<char>(flags));
  AppendVarint(out, base_lv);
  AppendVarint(out, end_lv - base_lv);
  if (with_anchor) {
    AppendVarint(out, anchor.lv);
    AppendVarint(out, anchor.doc_len);
  }
  if (with_state) {
    AppendVarint(out, anchor.session_state.size());
    out += anchor.session_state;
  }

  // Segment-local agent table: only agents authoring events in the window.
  // (Parents are LV deltas and never name agents.) Each agent's seq extent
  // rides along — within any LV window an agent's events are
  // seq-contiguous, so (first_seq, count) per agent lets PeekSegment answer
  // "does this segment touch agent A's seqs [a, b)?" from the header.
  std::vector<AgentId> agent_table;
  std::vector<std::pair<uint64_t, uint64_t>> agent_extents;  // (first_seq, count)
  std::unordered_map<AgentId, uint32_t> agent_index;
  for (Lv lv = base_lv; lv < end_lv;) {
    const AgentSpan& as = g.agent_spans().FindChecked(lv);
    auto [it, inserted] = agent_index.emplace(as.agent, static_cast<uint32_t>(agent_table.size()));
    uint64_t seq = as.seq_start + (lv - as.span.start);
    uint64_t len = as.span.end - lv;
    if (inserted) {
      agent_table.push_back(as.agent);
      agent_extents.emplace_back(seq, len);
    } else {
      auto& ext = agent_extents[it->second];
      ext.first = std::min(ext.first, seq);
      ext.second += len;
    }
    lv = as.span.end;
  }
  AppendVarint(out, agent_table.size());
  for (size_t i = 0; i < agent_table.size(); ++i) {
    const std::string& name = g.AgentName(agent_table[i]);
    AppendVarint(out, name.size());
    out += name;
    AppendVarint(out, agent_extents[i].first);
    AppendVarint(out, agent_extents[i].second);
  }

  // Columns 1-3 (shared walkers, clipped to the window). A run straddling
  // base_lv chains its tail onto the predecessor event, which lives in the
  // chain prefix; the ops cursor restarts from 0 at the segment boundary.
  std::string ops_col;
  std::string content;
  WriteOpsColumn(ops, g, base_lv, end_lv, ops_col, &content);
  std::string parents_col;
  WriteParentsColumn(g, base_lv, end_lv, parents_col);
  std::string agents_col;
  WriteAgentsColumn(g, base_lv, end_lv, &agent_index, agents_col);

  std::string cached(final_doc);
  std::vector<ColumnSpec> cols = {{kColOps, &ops_col},
                                  {kColParents, &parents_col},
                                  {kColAgents, &agents_col},
                                  {kColContent, &content}};
  if (options.cache_final_doc) {
    cols.push_back({kColCachedDoc, &cached});
  }
  AppendColumnBlock(out, cols, options.compress_columns);
  return out;
}

std::optional<SegmentInfo> PeekSegment(std::string_view bytes) {
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::string magic;
  if (!reader.ReadBytes(4, magic) || magic != std::string(kSegmentMagic, 4)) {
    return std::nullopt;
  }
  auto version = reader.ReadByte();
  auto flags = reader.ReadByte();
  if (!version || (*version != kFormatV1 && *version != kFormatV2) || !flags ||
      (*flags & ~KnownFlags(/*segment=*/true, *version == kFormatV2)) != 0) {
    return std::nullopt;
  }
  auto base_lv = reader.ReadVarint();
  auto count = reader.ReadVarint();
  if (!base_lv || *base_lv > kMaxCount || !count || *count > kMaxCount) {
    return std::nullopt;
  }
  SegmentInfo info;
  info.format_version = *version;
  info.base_lv = *base_lv;
  info.event_count = *count;
  info.has_cached_doc = (*flags & kFlagCachedDoc) != 0;
  if ((*flags & kFlagSessionAnchor) != 0) {
    auto anchor_lv = reader.ReadVarint();
    auto anchor_len = reader.ReadVarint();
    if (!anchor_lv || !anchor_len || *anchor_lv >= *base_lv + *count) {
      return std::nullopt;
    }
    info.anchor.lv = *anchor_lv;
    info.anchor.doc_len = *anchor_len;
  }
  if ((*flags & kFlagSessionState) != 0) {
    auto state_len = reader.ReadVarint();
    if (!state_len || !reader.Skip(*state_len)) {
      return std::nullopt;
    }
    info.has_session_state = true;
  }
  if (*version == kFormatV1) {
    return info;
  }

  // v2: the agent extents and the column directory are header-adjacent —
  // range queries and lazy-decode sizing never touch column payloads.
  auto agent_count = reader.ReadVarint();
  if (!agent_count || *agent_count > 1u << 24) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *agent_count; ++i) {
    auto len = reader.ReadVarint();
    std::string name;
    if (!len || !reader.ReadBytes(*len, name)) {
      return std::nullopt;
    }
    auto first_seq = reader.ReadVarint();
    auto seq_count = reader.ReadVarint();
    if (!first_seq || *first_seq > kMaxCount || !seq_count || *seq_count == 0 ||
        *seq_count > kMaxCount) {
      return std::nullopt;
    }
    info.agents.push_back({std::move(name), *first_seq, *seq_count});
  }
  std::vector<ColumnMeta> metas;
  if (ReadColumnDirectory(reader, (*flags & kFlagXxh32) != 0, metas) != nullptr) {
    return std::nullopt;
  }
  uint64_t payload = 0;
  for (const ColumnMeta& m : metas) {
    info.columns.push_back({m.id, m.codec, m.raw_size, m.stored_size});
    payload += m.stored_size;
  }
  // The payload region must be exactly present: a truncated or padded
  // segment fails Peek, so chain pre-passes reject it before any decode.
  if (reader.remaining() != payload) {
    return std::nullopt;
  }
  return info;
}

bool DecodeSegmentInto(Trace& trace, std::string_view bytes,
                       std::optional<std::string>* cached_doc, std::string* error,
                       SegmentAnchor* anchor, const SegmentDecodeOptions& decode_options,
                       SegmentOpsPayload* skipped) {
  auto fail = [&](const char* msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  if (anchor != nullptr) {
    *anchor = SegmentAnchor{};  // Anchor-free until this segment proves one.
  }
  if (skipped != nullptr) {
    *skipped = SegmentOpsPayload{};  // Eager until the skip path fills it.
  }

  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::string magic;
  if (!reader.ReadBytes(4, magic) || magic != std::string(kSegmentMagic, 4)) {
    return fail("bad segment magic");
  }
  auto version = reader.ReadByte();
  if (!version || (*version != kFormatV1 && *version != kFormatV2)) {
    return fail("unsupported segment version");
  }
  const bool v2 = *version == kFormatV2;
  auto flags = reader.ReadByte();
  if (!flags) {
    return fail("truncated segment flags");
  }
  if ((*flags & ~KnownFlags(/*segment=*/true, v2)) != 0) {
    return fail("unknown flags");
  }
  bool compressed = (*flags & kFlagCompressed) != 0;
  bool has_cached = (*flags & kFlagCachedDoc) != 0;
  auto base_lv = reader.ReadVarint();
  auto event_count = reader.ReadVarint();
  if (!base_lv || *base_lv > kMaxCount || !event_count || *event_count > kMaxCount) {
    return fail("truncated segment header");
  }
  if (*base_lv != trace.graph.size()) {
    return fail("segment chain gap: base_lv does not continue the trace");
  }
  if ((*flags & kFlagSessionAnchor) != 0) {
    auto anchor_lv = reader.ReadVarint();
    auto anchor_len = reader.ReadVarint();
    if (!anchor_lv || !anchor_len) {
      return fail("truncated segment anchor");
    }
    if (*anchor_lv >= *base_lv + *event_count) {
      return fail("segment anchor past the segment end");
    }
    // Criticality and doc_len cannot be validated structurally here; they
    // share the cached-doc text's trust model — segment payloads are only
    // as trustworthy as the storage they came from (the registry owns its
    // chains; integrity of untrusted transports is a storage-layer job).
    if (anchor != nullptr) {
      anchor->lv = *anchor_lv;
      anchor->doc_len = *anchor_len;
    }
  }
  if ((*flags & kFlagSessionState) != 0) {
    auto state_len = reader.ReadVarint();
    std::string state;
    if (!state_len || !reader.ReadBytes(*state_len, state)) {
      return fail("truncated segment session state");
    }
    if (anchor != nullptr) {
      anchor->session_state = std::move(state);
    }
  }

  auto agent_count = reader.ReadVarint();
  if (!agent_count || *agent_count > 1u << 24) {
    return fail("bad segment agent count");
  }
  std::vector<AgentId> agents;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // v2: (first_seq, count)
  for (uint64_t i = 0; i < *agent_count; ++i) {
    auto len = reader.ReadVarint();
    std::string name;
    if (!len || !reader.ReadBytes(*len, name)) {
      return fail("bad segment agent name");
    }
    agents.push_back(trace.graph.GetOrCreateAgent(name));
    if (v2) {
      auto first_seq = reader.ReadVarint();
      auto seq_count = reader.ReadVarint();
      if (!first_seq || *first_seq > kMaxCount || !seq_count || *seq_count == 0 ||
          *seq_count > kMaxCount) {
        return fail("bad segment agent extent");
      }
      extents.emplace_back(*first_seq, *seq_count);
    }
  }

  const Lv seg_end = *base_lv + *event_count;
  std::string ops_col, parents_col, agents_col, content;
  bool skip_ops = false;

  if (v2) {
    std::vector<StoredColumn> cols;
    if (const char* err = ReadColumnBlock(reader, (*flags & kFlagXxh32) != 0, cols)) {
      return fail(err);
    }
    if (!reader.empty()) {
      return fail("trailing segment bytes");
    }
    if (!BlockHasColumn(cols, kColOps) || !BlockHasColumn(cols, kColParents) ||
        !BlockHasColumn(cols, kColAgents) || !BlockHasColumn(cols, kColContent) ||
        BlockHasColumn(cols, kColSurvival) ||
        BlockHasColumn(cols, kColCachedDoc) != has_cached) {
      return fail("segment column set does not match flags");
    }
    if (const char* err = TakeColumn(cols, kColParents, parents_col)) {
      return fail(err);
    }
    if (const char* err = TakeColumn(cols, kColAgents, agents_col)) {
      return fail(err);
    }
    skip_ops = decode_options.skip_ops && skipped != nullptr;
    if (skip_ops) {
      // Lazy path: hand the stored (still possibly compressed) ops/content
      // bytes back for on-demand hydration. Their checksums were verified
      // by ReadColumnBlock above, so corruption is already excluded.
      skipped->skipped = true;
      skipped->base_lv = *base_lv;
      skipped->end_lv = seg_end;
      for (StoredColumn& c : cols) {
        if (c.id == kColOps) {
          skipped->ops_codec = c.codec;
          skipped->ops_raw = c.raw_size;
          skipped->ops_stored = std::move(c.stored);
        } else if (c.id == kColContent) {
          skipped->content_codec = c.codec;
          skipped->content_raw = c.raw_size;
          skipped->content_stored = std::move(c.stored);
        }
      }
    } else {
      if (const char* err = TakeColumn(cols, kColOps, ops_col)) {
        return fail(err);
      }
      if (const char* err = TakeColumn(cols, kColContent, content)) {
        return fail(err);
      }
    }
    if (has_cached) {
      std::string doc;
      if (const char* err = TakeColumn(cols, kColCachedDoc, doc)) {
        return fail(err);
      }
      if (cached_doc != nullptr) {
        *cached_doc = std::move(doc);
      }
    } else if (cached_doc != nullptr && *event_count > 0) {
      cached_doc->reset();
    }
  } else {
    auto read_column = [&](std::string& col) {
      auto len = reader.ReadVarint();
      return len && reader.ReadBytes(*len, col);
    };
    if (!read_column(ops_col) || !read_column(parents_col) || !read_column(agents_col)) {
      return fail("truncated segment columns");
    }

    auto raw_content_len = reader.ReadVarint();
    if (!raw_content_len) {
      return fail("truncated segment content length");
    }
    if (compressed) {
      if (*raw_content_len > kMaxColumnLen) {
        return fail("segment content length too large");
      }
      auto comp_len = reader.ReadVarint();
      std::string comp;
      if (!comp_len || !reader.ReadBytes(*comp_len, comp)) {
        return fail("truncated compressed segment content");
      }
      if (*raw_content_len > lz4::MaxDecompressedSize(comp.size())) {
        return fail("compressed segment content length exceeds its expansion");
      }
      auto decompressed = lz4::Decompress(comp, *raw_content_len);
      if (!decompressed) {
        return fail("corrupt compressed segment content");
      }
      content = std::move(*decompressed);
    } else if (!reader.ReadBytes(*raw_content_len, content)) {
      return fail("truncated segment content");
    }

    if (has_cached) {
      auto len = reader.ReadVarint();
      std::string doc;
      if (!len || !reader.ReadBytes(*len, doc)) {
        return fail("truncated segment cached document");
      }
      if (cached_doc != nullptr) {
        *cached_doc = std::move(doc);
      }
    } else if (cached_doc != nullptr && *event_count > 0) {
      // Appending events invalidates the previous segment's cached document;
      // an empty refresh segment (a clean eviction checkpointing its session)
      // leaves it standing — the chain's end version is unchanged.
      cached_doc->reset();
    }
    if (!reader.empty()) {
      return fail("trailing segment bytes");
    }
  }

  // --- Rebuild via the shared column walkers, windowed at base_lv. ---
  if (const char* err =
          DecodeGraphColumns(trace.graph, parents_col, agents_col, agents, *base_lv, seg_end, v2)) {
    return fail(err);
  }
  // v2: cross-check the header's agent extents against the decoded graph —
  // the extents are index metadata outside the checksummed payloads, so a
  // lying header must not survive a successful decode.
  for (size_t i = 0; i < extents.size(); ++i) {
    const std::string& name = trace.graph.AgentName(agents[i]);
    Lv first = trace.graph.RawToLv(name, extents[i].first);
    Lv last = trace.graph.RawToLv(name, extents[i].first + extents[i].second - 1);
    if (first < *base_lv || first >= seg_end || last < *base_lv || last >= seg_end) {
      return fail("segment agent extent mismatch");
    }
  }
  if (!skip_ops) {
    if (const char* err =
            DecodeOpsColumn(trace.ops, ops_col, content, nullptr, *base_lv, seg_end,
                            v2 ? &trace.graph : nullptr)) {
      return fail(err);
    }
  }
  return true;
}

bool DecodeSegmentOps(OpLog& ops, const Graph& graph, const SegmentOpsPayload& payload,
                      std::string* error) {
  auto fail = [&](const char* msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  EGW_CHECK(payload.skipped);
  auto unpack = [&](uint8_t codec, uint64_t raw_size, const std::string& stored,
                    std::string& out) {
    if (codec == kCodecRaw) {
      out = stored;
      return true;
    }
    auto raw = DecompressColumn(codec, stored, raw_size);
    if (!raw) {
      return false;
    }
    out = std::move(*raw);
    return true;
  };
  std::string ops_col;
  std::string content;
  if (!unpack(payload.ops_codec, payload.ops_raw, payload.ops_stored, ops_col) ||
      !unpack(payload.content_codec, payload.content_raw, payload.content_stored, content)) {
    return fail("corrupt stored column payload");
  }
  if (const char* err =
          DecodeOpsColumn(ops, ops_col, content, nullptr, payload.base_lv, payload.end_lv, &graph)) {
    return fail(err);
  }
  return true;
}

std::optional<std::string> ReadCachedDoc(std::string_view bytes) {
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::string magic;
  if (!reader.ReadBytes(4, magic) || magic != std::string(kMagic, 4)) {
    return std::nullopt;
  }
  auto version = reader.ReadByte();
  auto flags = reader.ReadByte();
  if (!version || (*version != kFormatV1 && *version != kFormatV2) || !flags ||
      (*flags & ~KnownFlags(/*segment=*/false, *version == kFormatV2)) != 0 ||
      (*flags & kFlagCachedDoc) == 0) {
    return std::nullopt;
  }
  const bool xxh32 = (*flags & kFlagXxh32) != 0;
  if (!reader.ReadVarint()) {  // Event count.
    return std::nullopt;
  }
  auto agent_count = reader.ReadVarint();
  if (!agent_count || *agent_count > 1u << 24) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *agent_count; ++i) {
    auto len = reader.ReadVarint();
    if (!len || !reader.Skip(*len)) {
      return std::nullopt;
    }
  }
  if (*version == kFormatV2) {
    // Seek straight to the cached-doc column through the directory; other
    // payloads are skipped unread (this is the lazy load path, so only the
    // target column's checksum is verified).
    std::vector<ColumnMeta> metas;
    if (ReadColumnDirectory(reader, xxh32, metas) != nullptr) {
      return std::nullopt;
    }
    for (const ColumnMeta& m : metas) {
      if (m.id != kColCachedDoc) {
        continue;
      }
      std::string stored;
      if (!reader.Skip(m.offset) || !reader.ReadBytes(m.stored_size, stored) ||
          ColumnChecksum(xxh32, stored) != m.checksum) {
        return std::nullopt;
      }
      if (m.codec == kCodecRaw) {
        return stored;
      }
      return DecompressColumn(m.codec, stored, m.raw_size);
    }
    return std::nullopt;
  }
  int columns = 3 + (((*flags & kFlagContentComplete) == 0) ? 1 : 0);
  for (int c = 0; c < columns; ++c) {
    auto len = reader.ReadVarint();
    if (!len || !reader.Skip(*len)) {
      return std::nullopt;
    }
  }
  auto raw_len = reader.ReadVarint();
  if (!raw_len) {
    return std::nullopt;
  }
  if ((*flags & kFlagCompressed) != 0) {
    auto comp_len = reader.ReadVarint();
    if (!comp_len || !reader.Skip(*comp_len)) {
      return std::nullopt;
    }
  } else if (!reader.Skip(*raw_len)) {
    return std::nullopt;
  }
  auto doc_len = reader.ReadVarint();
  std::string doc;
  if (!doc_len || !reader.ReadBytes(*doc_len, doc)) {
    return std::nullopt;
  }
  return doc;
}

}  // namespace egwalker
