// The columnar event-graph file format (Section 3.8).
//
// Events are stored in LV order, with each property in its own column:
//
//   1. Operations: run-length encoded (type, direction, start position,
//      length) tuples with varint fields — "the first 23 events are
//      insertions at consecutive indexes starting from index 0, ...".
//   2. Content: the UTF-8 of all inserted characters, concatenated in event
//      order. Optionally the content of characters that were later deleted
//      is omitted (with a survival bitmap), which is the Figure 12
//      configuration.
//   3. Parents: one record per graph run; runs of the "parent = predecessor"
//      default cost two varints, explicit parent lists appear only at
//      branch/merge points.
//   4. Agents: the agent name table plus (agent, seq_start, length) runs.
//   5. Optionally, a cached copy of the final document text, so loading a
//      document for editing does not replay anything (Figure 8's "cached
//      load" rows and Figure 11's "+ cached final doc" bars).
//
// All varints are LEB128 (util/varint.h); positions within a run are
// implicit from the run encoding. The format round-trips Trace exactly
// (except omitted deleted content, which decodes as U+FFFD placeholders).
//
// Two container versions exist (docs/EGWS.md is the full spec). The
// encoders write v2 only; the decoders read both, forever:
//
//   v1 (legacy, read-only): columns are concatenated length-prefixed
//      blobs; only the content column may be LZ4-compressed. Golden v1
//      files under tests/fixtures/v1 keep the decoders honest.
//   v2 (indexed): after the header, a column DIRECTORY records, per column,
//      {column id, codec id (raw | LZ4 | LZ+Huffman | static LZ+Huffman),
//      raw size, stored size, byte offset, checksum of the stored bytes},
//      then a checksum of the header and directory, and payloads follow.
//      Header flag bit 5 selects XXH32 checksums; files without it carry
//      FNV-1a column checksums and no directory checksum, and still
//      verify. Unknown flag bits are rejected. The encoders pick raw or
//      one of the two LZ+Huffman codes per column; LZ4 columns are only
//      ever read. Segment
//      headers additionally carry per-agent seq extents,
//      the ops column splits its header/delta streams and delta-codes
//      positions per agent, and the agents column delta-codes seqs against
//      each agent's column-local continuation. The directory is what
//      enables per-column compression, cheap PeekSegment range answers,
//      and LAZY column decode: DecodeSegmentInto can skip decompressing +
//      parsing the ops/content columns of a segment (returning the stored
//      bytes for later hydration) while still decoding the graph columns
//      and verifying every checksum — see SegmentDecodeOptions below.
//
// Decoding is fail-closed at every layer: truncated, bit-flipped, or
// length-inflated input makes DecodeTrace/PeekSegment return std::nullopt
// and DecodeSegmentInto return false; sizes are capped before allocation,
// so corrupt bytes cannot OOM, crash, or silently misdecode.

#ifndef EGWALKER_ENCODING_COLUMNAR_H_
#define EGWALKER_ENCODING_COLUMNAR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace egwalker {

struct SaveOptions {
  // Store the content of characters that no longer appear in the final
  // document. Disabling this mirrors Yjs's storage model (Figure 12).
  bool include_deleted_content = true;
  // Append the final document text so loads need no replay.
  bool cache_final_doc = false;
  // Segments only: record the document's newest critical version (the
  // walker-session anchor) in the segment, so a chain reload can seed its
  // replay-base candidates and resume merge sessions instead of falling
  // back to a full-history rebuild on the first post-reload merge. Ignored
  // by the full file format.
  bool checkpoint_session_anchor = true;
  // Segments only, and only meaningful with checkpoint_session_anchor:
  // additionally serialize the live walker session into the segment
  // (Doc::SaveSegment -> Walker::SaveSession). Off by default — only the
  // FINAL segment's state is ever consumed on reload, so periodic flushes
  // carrying it would pay O(session) bytes for nothing; DocRegistry sets
  // it on eviction (retiring) flushes alone.
  bool checkpoint_session_state = false;
  // Container version to write. 2 (the indexed layout) is the only value
  // the encoders accept; they EGW_CHECK it. Kept only because the egbench
  // harness assigns it; delete it once the harness stops doing so.
  int format_version = 2;
  // Compress each column with LZ+Huffman (src/lzhuf) when that saves at
  // least 1/8 of its bytes; tiny columns stay raw (see the codec heuristic
  // in columnar.cc). The paper's like-for-like size comparison (Figures
  // 11/12 "event graph") turns this off.
  bool compress_columns = true;
};

// Ids (LV spans) of inserted characters that survive in the final document.
// Computed by a full replay; used when omitting deleted content.
std::vector<LvSpan> ComputeSurvivingChars(const Graph& graph, const OpLog& ops);

// Serialises the trace. `final_doc` must be provided when
// options.cache_final_doc is set; `surviving` must be provided when
// options.include_deleted_content is false.
std::string EncodeTrace(const Trace& trace, const SaveOptions& options,
                        std::string_view final_doc = {},
                        const std::vector<LvSpan>* surviving = nullptr);

struct DecodeResult {
  Trace trace;
  std::optional<std::string> cached_doc;
  bool content_complete = true;  // False if deleted content was omitted.
};

// Parses bytes produced by EncodeTrace. Returns std::nullopt (and sets
// *error) on malformed input.
std::optional<DecodeResult> DecodeTrace(std::string_view bytes, std::string* error = nullptr);

// Lazy load: extracts only the cached final document, skipping (not
// parsing) every other column. This is the Figure 8 "cached load" path —
// opening a document for viewing/editing reads just the text; the event
// graph stays on disk until a concurrent merge needs it. Returns
// std::nullopt if the file has no cached document or is malformed.
std::optional<std::string> ReadCachedDoc(std::string_view bytes);

// --- Incremental checkpoint segments ----------------------------------------
//
// Append-only chain format for server-side flushes: a segment encodes only
// the events [base_lv, graph.size()) appended since the previous checkpoint,
// in the same columnar layout as the full format (ops / parents / agents /
// content), plus an optional cached copy of the document text at the
// segment's end version. Because LV order is topological, any LV prefix is
// causally closed, so a chain of segments with contiguous base_lv values
// rebuilds the exact trace — and when the final segment carries a cached
// document, reloading replays nothing at all (the cached-final-doc fast
// path of the full format, extended to incremental flushes).
//
// Parent references may point below base_lv; they are encoded as the usual
// backward deltas, which resolve against the already-decoded chain prefix.
// Runs that straddle base_lv (a typing run continuing across a checkpoint)
// are clipped: the tail chains onto the predecessor event of the prefix.
//
// Segments always store deleted content (survival bitmaps do not compose
// across a chain): options.include_deleted_content must be left true.
//
// Segments may additionally carry a *session checkpoint*, in two tiers:
//
//   anchor:  the LV of the document's newest critical version at save time
//            plus the document length at that version. The writer's
//            contract is that the anchor is critical with respect to the
//            segment's end version — so a chain whose FINAL segment
//            carries one can trust it for the whole loaded graph (earlier
//            segments' anchors may have been invalidated by later
//            concurrent events and are ignored). Doc::LoadChain uses it to
//            seed its incremental-replay candidates, so the first merge
//            after a reload replays from the anchor, never the whole
//            history.
//   state:   the serialized walker session itself (Walker::SaveSession —
//            record spans, delete targets, prepare version), written on
//            eviction flushes. Concurrency-heavy histories can go long
//            stretches without any critical version at all; this tier is
//            what lets such documents resume their session after a reload
//            instead of rebuilding internal state from scratch. Opaque at
//            this layer; Doc::TryResumeSession validates and applies it.
//
// Both ride the segment header, flag-gated, so pre-checkpoint segments
// decode unchanged.

// The walker-session checkpoint carried by a segment (see above). lv is
// kInvalidLv and session_state empty when the segment has none.
struct SegmentAnchor {
  Lv lv = kInvalidLv;         // Newest critical version at save time.
  uint64_t doc_len = 0;       // Document character length at that version.
  std::string session_state;  // Walker::SaveSession bytes; empty = none.
};

// Serialises events [base_lv, trace.graph.size()) as one chain segment.
// `final_doc` must be the full document text at the trace's current version
// when options.cache_final_doc is set. base_lv == graph.size() is allowed
// (an empty refresh segment carrying only a cached document). The anchor
// is recorded when options.checkpoint_session_anchor is set and
// anchor.lv != kInvalidLv; the caller (Doc::SaveSegment) guarantees its
// criticality contract.
std::string EncodeSegment(const Trace& trace, Lv base_lv, const SaveOptions& options,
                          std::string_view final_doc = {},
                          const SegmentAnchor& anchor = {});

// Per-agent seq extent recorded in v2 segment headers: within any LV
// window an agent's events are seq-contiguous (LV order is arrival order),
// so one (first_seq, count) pair per agent answers "does this segment
// touch agent A's seqs [a, b)?" without decoding the agents column.
struct SegmentAgentExtent {
  std::string agent;
  uint64_t first_seq = 0;
  uint64_t count = 0;
};

// One column-directory entry of a v2 container (metadata only; payload
// bytes stay in the segment). Exposed by PeekSegment so callers can size
// lazy-decode savings without touching payloads.
struct SegmentColumn {
  uint8_t id = 0;           // kCol* in columnar.cc / docs/EGWS.md.
  uint8_t codec = 0;        // 0 = raw, 1 = LZ4 (read only), 2 = LZ+Huffman,
                            // 3 = static LZ+Huffman.
  uint64_t raw_size = 0;    // Decompressed byte length.
  uint64_t stored_size = 0; // Byte length inside the container.
};

// Chain position of a segment, readable without parsing column payloads.
struct SegmentInfo {
  Lv base_lv = 0;           // First event covered.
  uint64_t event_count = 0; // Events in this segment.
  bool has_cached_doc = false;
  bool has_session_state = false;  // Serialized walker session on board.
  SegmentAnchor anchor;     // anchor.lv == kInvalidLv when absent; the
                            // session_state bytes are NOT materialised by
                            // Peek (header metadata only).
  int format_version = 1;
  // v2 only (empty for v1 segments): the header's agent extents and the
  // column directory.
  std::vector<SegmentAgentExtent> agents;
  std::vector<SegmentColumn> columns;
};
std::optional<SegmentInfo> PeekSegment(std::string_view bytes);

// --- Lazy column decode (v2 segments) ---------------------------------------
//
// A chain reload that ends on a cached document + resumable session never
// reads the ops/content of already-covered segments: the graph columns are
// enough to answer version queries and extend the history, and the ops are
// only needed if some later operation walks back into the old window
// (a fresh merge below the chain end, MakePatch for a stale reader, a full
// Save/compaction). DecodeSegmentInto can therefore SKIP decoding those
// two columns and instead hand back their stored (possibly compressed)
// bytes for on-demand hydration. Checksums of skipped columns, and of the
// directory that records their codecs and raw sizes, are still verified at
// load, so bytes that changed at rest are detected up front, fail-closed.
// A post-load hydration failure means the writer recorded inconsistent
// bytes under matching checksums (or memory was corrupted), not that
// storage changed them. Files written before the directory checksum (flag
// bit 5 clear, docs/EGWS.md) leave a raw size that changed at rest to be
// found at hydration.

// The retained ops/content payloads of one lazily-decoded segment.
struct SegmentOpsPayload {
  bool skipped = false;  // False when the segment was decoded eagerly.
  Lv base_lv = 0;
  Lv end_lv = 0;
  uint8_t ops_codec = 0;
  uint64_t ops_raw = 0;
  std::string ops_stored;
  uint8_t content_codec = 0;
  uint64_t content_raw = 0;
  std::string content_stored;
  uint64_t stored_bytes() const { return ops_stored.size() + content_stored.size(); }
};

struct SegmentDecodeOptions {
  // Skip parsing the ops + content columns, returning their stored bytes
  // via the `skipped` out-param of DecodeSegmentInto instead of pushing
  // onto trace.ops. Only v2 segments can honour this (v1 has no directory
  // to skip over); a v1 segment decodes eagerly and leaves
  // skipped->skipped == false, which the caller must handle (Doc::LoadChain
  // only skips a contiguous all-v2 chain prefix for exactly this reason).
  bool skip_ops = false;
};

// Hydrates one lazily-skipped payload: decompresses (if needed) and parses
// the ops/content columns, appending onto `ops`, whose size() must equal
// payload.base_lv. Returns false (and sets *error) on malformed payload —
// unreachable for payloads whose directory and columns passed load-time
// checksums, unless their writer or the process memory was faulty.
bool DecodeSegmentOps(OpLog& ops, const Graph& graph, const SegmentOpsPayload& payload,
                      std::string* error = nullptr);

// Appends a segment's events onto `trace`, whose graph must currently end
// exactly at the segment's base_lv (chains decode strictly in order). When
// the segment carries a cached document it is stored into *cached_doc
// (pass nullptr to ignore); likewise the session checkpoint into *anchor
// (reset when the segment has none, so chain loops naturally keep only the
// final segment's). One asymmetry: a cached document is only *invalidated*
// by a segment that appends events — an empty refresh segment without its
// own cached doc leaves the previous one standing, since the document it
// reflects is still the chain's end version (eviction flushes of clean
// documents rely on this to checkpoint the session without re-writing the
// text). Returns false (and sets *error) on malformed input or a chain
// gap; `trace` may then hold a partially-appended suffix and should be
// discarded.
bool DecodeSegmentInto(Trace& trace, std::string_view bytes,
                       std::optional<std::string>* cached_doc, std::string* error = nullptr,
                       SegmentAnchor* anchor = nullptr,
                       const SegmentDecodeOptions& decode_options = {},
                       SegmentOpsPayload* skipped = nullptr);

}  // namespace egwalker

#endif  // EGWALKER_ENCODING_COLUMNAR_H_
