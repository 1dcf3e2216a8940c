#include "core/doc.h"

#include <algorithm>
#include <unordered_map>

#include "rope/utf8.h"
#include "util/assert.h"

namespace egwalker {
namespace {

// Cap on cached critical versions; older candidates are rarely useful since
// any newer valid candidate gives a smaller replay window.
constexpr size_t kMaxCandidates = 64;

// A merge session whose retained state grows past this many record spans +
// delete-target runs is dropped after the merge: an idle document then
// holds at most this much walker state, and the next merge rebuilds from
// the newest critical version as before. High-concurrency windows without
// critical versions are the only way to get here.
constexpr size_t kMaxSessionState = 8192;

}  // namespace

bool Doc::default_merge_sessions_ = true;

void Doc::SetMergeSessionsDefault(bool enabled) { default_merge_sessions_ = enabled; }

bool Doc::MergeSessionsDefault() { return default_merge_sessions_; }

void Doc::set_merge_sessions(bool enabled) {
  merge_sessions_ = enabled;
  if (!enabled) {
    DropSession();
  }
}

bool Doc::merge_session_active() const {
  return session_.walker != nullptr && session_.walker->has_session();
}

void Doc::DropSession() {
  session_.walker.reset();
  pending_session_state_.clear();
}

Doc::Doc(std::string_view agent_name) { agent_ = trace_.graph.GetOrCreateAgent(agent_name); }

void Doc::NoteLocalEvent(Lv tip) {
  // A locally generated event always extends the whole frontier, so the
  // version {tip} is critical at this moment (it may be invalidated later
  // by concurrent remote events; MergeFrom prunes such candidates).
  critical_candidates_.push_back(tip);
  if (critical_candidates_.size() > kMaxCandidates) {
    critical_candidates_.erase(critical_candidates_.begin(),
                               critical_candidates_.begin() + kMaxCandidates / 2);
  }
  critical_lens_.push_back(rope_.char_size());
  if (critical_lens_.size() > kMaxCandidates) {
    critical_lens_.erase(critical_lens_.begin(), critical_lens_.begin() + kMaxCandidates / 2);
  }
}

void Doc::Insert(uint64_t pos, std::string_view text) {
  EGW_CHECK(pos <= rope_.char_size());
  if (text.empty()) {
    return;
  }
  uint64_t chars = Utf8CountChars(text);
  Lv start = trace_.AppendInsert(agent_, trace_.graph.version(), pos, text);
  rope_.InsertAt(pos, text);
  NoteLocalEvent(start + chars - 1);
}

void Doc::Delete(uint64_t pos, uint64_t count) {
  EGW_CHECK(pos + count <= rope_.char_size());
  if (count == 0) {
    return;
  }
  Lv start = trace_.AppendDelete(agent_, trace_.graph.version(), pos, count, /*fwd=*/true);
  rope_.RemoveAt(pos, count);
  NoteLocalEvent(start + count - 1);
}

std::string Doc::TextAt(const Frontier& version) const {
  EnsureOpsFor(0);  // Replays from scratch: every op is read.
  Walker walker(trace_.graph, trace_.ops);
  Rope tmp;
  walker.ReplayRange(tmp, Frontier{}, version);
  return tmp.ToString();
}

Lv Doc::FindReplayBase(const std::vector<Lv>& new_chunk_starts) {
  // Walk candidates newest-first; the first one that dominates every newly
  // appended chunk wins (chunks are linear runs, so dominating the first
  // event dominates the chunk). Newer candidates that fail are invalid
  // forever (a concurrent event now exists), so drop them.
  for (size_t i = critical_candidates_.size(); i-- > 0;) {
    Lv c = critical_candidates_[i];
    bool dominates = true;
    for (Lv start : new_chunk_starts) {
      if (!trace_.graph.IsAncestor(c, start)) {
        dominates = false;
        break;
      }
    }
    if (dominates) {
      critical_candidates_.resize(i + 1);
      critical_lens_.resize(i + 1);
      return c;
    }
  }
  critical_candidates_.clear();
  critical_lens_.clear();
  return kInvalidLv;
}

uint64_t Doc::MergeFrom(const Doc& other) {
  // Express the other replica's whole history as remote chunks; the apply
  // path skips everything already known. (Real deployments exchange deltas
  // via src/sync instead of whole histories.)
  other.EnsureOpsFor(0);  // The chunk scan reads the other's whole op log.
  const Graph& og = other.trace_.graph;
  const OpLog& oops = other.trace_.ops;
  std::vector<RemoteChunk> chunks;
  Lv olv = 0;
  ChunkScanner scan(og, oops);
  while (olv < og.size()) {
    ChunkScanner::Chunk ck = scan.At(olv);
    const AgentSpan& as = *ck.agent;

    RemoteChunk chunk;
    chunk.agent = og.AgentName(as.agent);
    chunk.seq_start = as.seq_start + (olv - as.span.start);
    chunk.count = ck.end - olv;
    for (Lv p : og.ParentsOf(olv)) {
      chunk.parents.push_back(og.LvToRaw(p));
    }
    chunk.kind = ck.slice.kind;
    chunk.pos = ck.slice.pos_start;
    chunk.fwd = ck.slice.fwd;
    chunk.text = std::string(ck.slice.text);
    chunks.push_back(std::move(chunk));
    olv = ck.end;
  }
  auto merged = ApplyRemoteChunks(chunks);
  EGW_CHECK(merged.has_value());  // A full history is always causally closed.
  return *merged;
}

std::optional<uint64_t> Doc::ApplyRemoteChunks(const std::vector<RemoteChunk>& chunks,
                                               std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<uint64_t> {
    if (error != nullptr) {
      *error = msg;
    }
    return std::nullopt;
  };

  // --- Validation pass: nothing is appended unless every chunk resolves. ---
  // Tracks the seq ranges earlier chunks will add, per agent.
  std::unordered_map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> pending;
  auto resolvable = [&](const RawVersion& rv) {
    if (trace_.graph.RawToLv(rv.agent, rv.seq) != kInvalidLv) {
      return true;
    }
    auto it = pending.find(rv.agent);
    if (it == pending.end()) {
      return false;
    }
    for (const auto& [start, end] : it->second) {
      if (rv.seq >= start && rv.seq < end) {
        return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i < chunks.size(); ++i) {
    const RemoteChunk& chunk = chunks[i];
    if (chunk.count == 0) {
      return fail("empty chunk");
    }
    if (chunk.kind == OpKind::kInsert && Utf8CountChars(chunk.text) != chunk.count) {
      return fail("insert chunk text/count mismatch");
    }
    if (chunk.kind == OpKind::kDelete && !chunk.fwd && chunk.pos + 1 < chunk.count) {
      return fail("backspace chunk underflows position 0");
    }
    if (chunk.chain_previous) {
      if (i == 0) {
        return fail("first chunk cannot chain");
      }
    } else {
      for (const RawVersion& rv : chunk.parents) {
        if (!resolvable(rv)) {
          return fail("chunk references an unknown parent event");
        }
      }
    }
    pending[chunk.agent].emplace_back(chunk.seq_start, chunk.seq_start + chunk.count);
  }

  // --- Append pass. ---
  std::vector<Lv> new_chunk_starts;  // One per appended run, for domination checks.
  Lv first_new = kInvalidLv;
  uint64_t merged = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const RemoteChunk& chunk = chunks[i];
    uint64_t done = 0;  // Events of this chunk handled so far.
    while (done < chunk.count) {
      uint64_t seq = chunk.seq_start + done;
      uint64_t known = trace_.graph.KnownRunLen(chunk.agent, seq);
      if (known > 0) {
        done += std::min<uint64_t>(known, chunk.count - done);
        continue;
      }
      // Parents: explicit for the chunk's first event, otherwise the chain
      // predecessor within the chunk (or the previous chunk's tail).
      Frontier lparents;
      if (done > 0) {
        Lv lp = trace_.graph.RawToLv(chunk.agent, seq - 1);
        EGW_CHECK(lp != kInvalidLv);
        FrontierInsert(lparents, lp);
      } else if (chunk.chain_previous) {
        const RemoteChunk& prev = chunks[i - 1];
        Lv lp = trace_.graph.RawToLv(prev.agent, prev.seq_start + prev.count - 1);
        EGW_CHECK(lp != kInvalidLv);
        FrontierInsert(lparents, lp);
      } else {
        for (const RawVersion& rv : chunk.parents) {
          Lv lp = trace_.graph.RawToLv(rv.agent, rv.seq);
          EGW_CHECK(lp != kInvalidLv);
          FrontierInsert(lparents, lp);
        }
        lparents = trace_.graph.Reduce(lparents);
      }
      uint64_t take = chunk.count - done;
      AgentId local_agent = trace_.graph.GetOrCreateAgent(chunk.agent);
      Lv lstart = trace_.graph.Add(local_agent, seq, take, lparents);
      if (chunk.kind == OpKind::kInsert) {
        size_t from = Utf8ByteOfChar(chunk.text, done);
        trace_.ops.PushInsert(lstart, chunk.pos + done, std::string_view(chunk.text).substr(from));
      } else {
        uint64_t pos = chunk.fwd ? chunk.pos : chunk.pos - done;
        trace_.ops.PushDelete(lstart, take, pos, chunk.fwd);
      }
      new_chunk_starts.push_back(lstart);
      if (first_new == kInvalidLv) {
        first_new = lstart;
      }
      merged += take;
      done += take;
    }
  }
  if (merged == 0) {
    return 0;
  }

  // --- Replay: continue the persistent walker session when the appended
  // events stay ahead of its base, otherwise rebuild from the best cached
  // critical version (retaining the fresh walker as the next session). ---
  Lv base = FindReplayBase(new_chunk_starts);
  std::vector<CriticalPoint> criticals;
  std::vector<XfOp> xf_ops;
  ReplaySinks sinks;
  sinks.critical_points = &criticals;
  if (change_listener_ != nullptr) {
    sinks.xf_ops = &xf_ops;
  }
  bool full_rebuild = false;
  uint64_t old_len = rope_.char_size();

  auto fresh_replay = [&](Walker& walker) {
    if (base == kInvalidLv) {
      // No usable critical version: rebuild the document from scratch.
      full_rebuild = true;
      rope_.Clear();
      walker.ReplayRange(rope_, Frontier{}, trace_.graph.version(), Walker::Options{}, sinks);
      replayed_events_ += trace_.graph.size();
    } else {
      uint64_t base_len = critical_lens_.back();
      walker.MergeRange(rope_, Frontier{base}, base_len, trace_.graph.version(), first_new,
                        Walker::Options{}, sinks);
      // The window replayed is everything past the critical base (a
      // singleton critical version dominates the whole prefix [0, base]).
      replayed_events_ += trace_.graph.size() - base - 1;
    }
  };

  Walker* session = session_.walker.get();
  // Continuation is valid when the session's anchor dominates every
  // appended event: the chosen base `c` is critical (dominates [0, c]) and
  // in every new chunk's closure, so c >= anchor implies the anchor is too.
  bool continue_session = merge_sessions_ && session != nullptr && session->has_session() &&
                          (session->session_base().empty() ||
                           (base != kInvalidLv && base >= session->session_base()[0]));
  // A lazy chain load may have left a cold ops prefix; materialise the part
  // the upcoming replay can read. Every event at or below a critical `base`
  // is an ancestor of every new chunk's parent frontier, so the walker never
  // retreats/advances (or applies) it — ops reads stay strictly above base
  // on both the continued-session and fresh-rebuild paths. No base means no
  // bound: hydrate everything.
  EnsureOpsFor(base != kInvalidLv ? base + 1 : 0);
  if (continue_session) {
    Lv resume_from = session->session_seen_end();
    session->ContinueMerge(rope_, first_new, sinks);
    // Only the appended suffix (local catch-up + new chunks) was walked.
    replayed_events_ += trace_.graph.size() - resume_from;
  } else if (merge_sessions_) {
    if (session == nullptr) {
      session_.walker = std::make_unique<Walker>(trace_.graph, trace_.ops);
      session = session_.walker.get();
    }
    fresh_replay(*session);
  } else {
    Walker walker(trace_.graph, trace_.ops);
    fresh_replay(walker);
  }
  // Cap an over-grown session so idle documents stay small (see
  // kMaxSessionState); the next merge rebuilds incrementally as before.
  if (session_.walker != nullptr &&
      (!session_.walker->has_session() ||
       session_.walker->session_state_size() > kMaxSessionState)) {
    DropSession();
  }
  for (const CriticalPoint& cp : criticals) {
    if (critical_candidates_.empty() || cp.lv > critical_candidates_.back()) {
      critical_candidates_.push_back(cp.lv);
      critical_lens_.push_back(cp.doc_len);
    }
  }
  if (change_listener_ != nullptr) {
    if (full_rebuild) {
      // The replay re-applied the whole history; deliver it to the editor
      // as one delete-everything + insert-everything pair instead.
      XfOp clear;
      clear.kind = OpKind::kDelete;
      clear.pos = 0;
      clear.count = old_len;
      if (old_len > 0) {
        change_listener_(clear, change_ctx_);
      }
      XfOp fill;
      fill.kind = OpKind::kInsert;
      fill.pos = 0;
      fill.count = rope_.char_size();
      fill.text = rope_.ToString();
      if (fill.count > 0) {
        change_listener_(fill, change_ctx_);
      }
    } else {
      for (const XfOp& op : xf_ops) {
        if (!op.noop) {
          change_listener_(op, change_ctx_);
        }
      }
    }
  }
  return merged;
}

std::string Doc::Save(const SaveOptions& options) const {
  EnsureOpsFor(0);  // The full format always encodes every op.
  std::vector<LvSpan> surviving;
  const std::vector<LvSpan>* surviving_ptr = nullptr;
  if (!options.include_deleted_content) {
    surviving = ComputeSurvivingChars(trace_.graph, trace_.ops);
    surviving_ptr = &surviving;
  }
  std::string final_doc;
  if (options.cache_final_doc) {
    final_doc = rope_.ToString();
  }
  return EncodeTrace(trace_, options, final_doc, surviving_ptr);
}

std::optional<Doc> Doc::Load(std::string_view bytes, std::string_view agent_name,
                             std::string* error) {
  auto decoded = DecodeTrace(bytes, error);
  if (!decoded) {
    return std::nullopt;
  }
  Doc doc;
  doc.trace_ = std::move(decoded->trace);
  doc.agent_ = doc.trace_.graph.GetOrCreateAgent(agent_name);
  if (decoded->cached_doc.has_value()) {
    // Fast load: no replay at all (Figure 8's "cached load").
    doc.rope_ = Rope(*decoded->cached_doc);
  } else {
    Walker walker(doc.trace_.graph, doc.trace_.ops);
    walker.ReplayAll(doc.rope_);
    doc.replayed_events_ += doc.trace_.graph.size();
  }
  const Frontier& v = doc.trace_.graph.version();
  if (v.size() == 1) {
    // A singleton frontier dominates the whole graph: it is critical.
    doc.critical_candidates_.push_back(v[0]);
    doc.critical_lens_.push_back(doc.rope_.char_size());
  }
  return doc;
}

std::string Doc::SaveSegment(Lv base_lv, const SaveOptions& options) const {
  // Encodes ops for [base_lv, end): a checkpoint at the cold boundary (the
  // registry's steady-state flush) stays hydration-free; compaction from 0
  // re-materialises the whole log first.
  EnsureOpsFor(base_lv);
  std::string final_doc;
  if (options.cache_final_doc) {
    final_doc = rope_.ToString();
  }
  // Checkpoint the walker session: the anchor tier is the newest cached
  // critical version — critical w.r.t. the current graph (see
  // latest_critical), exactly the contract EncodeSegment's anchor field
  // requires — and the state tier is the live session itself, so a reload
  // can resume it even when the history has no critical versions at all.
  SegmentAnchor anchor;
  if (options.checkpoint_session_anchor) {
    if (!critical_candidates_.empty()) {
      anchor.lv = critical_candidates_.back();
      anchor.doc_len = critical_lens_.back();
    }
    // The state tier rides only on request (eviction flushes): only the
    // final segment's state is ever consumed, so periodic checkpoints skip
    // the O(session) serialization.
    if (options.checkpoint_session_state && merge_session_active()) {
      anchor.session_state = session_.walker->SaveSession();
    }
  }
  return EncodeSegment(trace_, base_lv, options, final_doc, anchor);
}

std::optional<Doc> Doc::LoadChain(const std::vector<std::string>& segments,
                                  std::string_view agent_name, std::string* error,
                                  const ChainLoadOptions& chain_options) {
  auto fail = [&](const char* msg) -> std::optional<Doc> {
    if (error != nullptr && error->empty()) {
      *error = msg;
    }
    return std::nullopt;
  };
  auto fail_at = [&](size_t index, const char* msg) -> std::optional<Doc> {
    if (error != nullptr) {
      std::string detail = msg != nullptr
                               ? std::string(msg)
                               : (error->empty() ? std::string("segment decode failed") : *error);
      *error = "segment " + std::to_string(index) + "/" + std::to_string(segments.size()) +
               ": " + detail;
    }
    return std::nullopt;
  };
  if (segments.empty()) {
    return fail("empty checkpoint chain");
  }

  // Header pre-pass: every segment must peek clean before anything is
  // decoded (a corrupt middle segment fails the whole load up front; no
  // partial prefix ever escapes), and the lazy-skip prefix is decided.
  // Skipping a segment's ops/content is sound only when the chain's end
  // state never reads them — it ends on an *effective* cached document
  // (an event-carrying segment without its own cached doc invalidates
  // earlier ones, mirroring DecodeSegmentInto's rule) — and only over a
  // contiguous prefix of v2 segments: a v1 segment has no directory to
  // skip over, so it and everything after it decode eagerly.
  bool effective_cached = false;
  size_t v2_prefix = 0;
  bool v2_prefix_open = true;
  Lv cold_end = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    auto info = PeekSegment(segments[i]);
    if (!info) {
      return fail_at(i, "corrupt segment header");
    }
    if (info->has_cached_doc) {
      effective_cached = true;
    } else if (info->event_count > 0) {
      effective_cached = false;
    }
    if (v2_prefix_open && info->format_version >= 2) {
      v2_prefix = i + 1;
      cold_end = info->base_lv + info->event_count;
    } else {
      v2_prefix_open = false;
    }
  }
  const size_t skip_count =
      (chain_options.lazy_ops && effective_cached) ? v2_prefix : 0;

  Doc doc;
  if (skip_count > 0) {
    doc.trace_.ops.SetColdPrefix(cold_end);
  }
  std::optional<std::string> cached;
  SegmentAnchor anchor;
  for (size_t i = 0; i < segments.size(); ++i) {
    // Only the final segment's cached document and session anchor reflect
    // the full chain (DecodeSegmentInto resets both per segment; an earlier
    // segment's anchor may have been invalidated by later events).
    SegmentDecodeOptions decode_options;
    decode_options.skip_ops = i < skip_count;
    SegmentOpsPayload payload;
    if (!DecodeSegmentInto(doc.trace_, segments[i], &cached, error, &anchor, decode_options,
                           decode_options.skip_ops ? &payload : nullptr)) {
      return fail_at(i, nullptr);
    }
    if (payload.skipped) {
      doc.lazy_segments_skipped_ += 1;
      doc.lazy_bytes_skipped_ += payload.stored_bytes();
      doc.cold_ops_.push_back(std::move(payload));
    }
  }
  doc.agent_ = doc.trace_.graph.GetOrCreateAgent(agent_name);
  if (cached.has_value()) {
    // Replay-free reload: the incremental-checkpoint analogue of the full
    // format's cached-final-doc fast path.
    doc.rope_ = Rope(*cached);
  } else {
    // The pre-pass only skips when the chain ends on a cached document, so
    // a replay here always has a fully materialised op log.
    EGW_CHECK(skip_count == 0);
    Walker walker(doc.trace_.graph, doc.trace_.ops);
    walker.ReplayAll(doc.rope_);
    doc.replayed_events_ += doc.trace_.graph.size();
  }
  // Re-seed the incremental-replay candidates: the final segment's anchor
  // first (critical w.r.t. the whole chain by the writer's contract), then
  // the frontier tip when it is a singleton (a singleton frontier dominates
  // the whole graph: it is critical). A tip candidate always takes the
  // freshly computed document length over the stored anchor length.
  const Frontier& v = doc.trace_.graph.version();
  if (anchor.lv != kInvalidLv && anchor.lv < doc.trace_.graph.size() &&
      !(v.size() == 1 && anchor.lv == v[0])) {
    doc.critical_candidates_.push_back(anchor.lv);
    doc.critical_lens_.push_back(anchor.doc_len);
  }
  if (v.size() == 1) {
    doc.critical_candidates_.push_back(v[0]);
    doc.critical_lens_.push_back(doc.rope_.char_size());
  }
  // Stash the serialized session (if any) for TryResumeSession: the walker
  // cannot be rebuilt here because it would reference this stack-local
  // Doc's trace and be dropped by the return move (see SessionSlot).
  doc.chain_session_checkpoint_ =
      anchor.lv != kInvalidLv || !anchor.session_state.empty();
  doc.pending_session_state_ = std::move(anchor.session_state);
  return doc;
}

void Doc::EnsureOpsFor(Lv lowest) const {
  if (cold_ops_.empty() || lowest >= trace_.ops.cold_end()) {
    return;
  }
  // Hydration mutates only caches (the op log's materialisation state and
  // the retained payloads), never the logical document — hence callable
  // from const accessors.
  const_cast<Doc*>(this)->HydrateOps(lowest);
}

void Doc::HydrateOps(Lv lowest) {
  // Decode only the suffix of cold payloads that covers [lowest, cold_end)
  // — segments entirely below `lowest` stay cold, so a merge that reaches a
  // little way back pays for a little decoding, not the whole history. The
  // warm runs pushed since the chain load are re-appended on top.
  // Move-assignment keeps the OpLog object's address stable, so a live
  // session walker's `const OpLog&` stays valid (its run-cursor hints are
  // stale-tolerant by design).
  size_t first = 0;
  while (first < cold_ops_.size() && cold_ops_[first].end_lv <= lowest) {
    ++first;
  }
  EGW_CHECK(first < cold_ops_.size());  // lowest < cold_end by the caller.
  OpLog log;
  if (cold_ops_[first].base_lv > 0) {
    log.SetColdPrefix(cold_ops_[first].base_lv);
  }
  std::string err;
  for (size_t i = first; i < cold_ops_.size(); ++i) {
    // The payload bytes were checksum-verified at load time, and so were
    // their directory entries in files with the XXH32 flag. A decode
    // failure here means a faulty writer, memory corruption, or a raw size
    // that changed at rest in an older file without a directory checksum.
    EGW_CHECK(DecodeSegmentOps(log, trace_.graph, cold_ops_[i], &err));
    hydrated_bytes_ += cold_ops_[i].stored_bytes();
    ++hydrated_segments_;
  }
  for (const OpRun& run : trace_.ops.runs()) {
    if (run.kind == OpKind::kInsert) {
      log.PushInsert(run.span.start, run.pos, run.text);
    } else {
      log.PushDelete(run.span.start, run.span.size(), run.pos, run.fwd);
    }
  }
  trace_.ops = std::move(log);
  cold_ops_.resize(first);
  ++hydrations_;
}

bool Doc::TryResumeSession() {
  // This lives on the settled Doc, not inside LoadChain: a session walker
  // holds references into this Doc's trace, and SessionSlot intentionally
  // drops it on copy/move — a session primed before the return move would
  // be discarded. Owners (DocRegistry::Open) call this once the Doc has
  // reached its resting address.
  if (!merge_sessions_ || merge_session_active()) {
    pending_session_state_.clear();
    return merge_session_active();
  }
  if (!chain_session_checkpoint_) {
    return false;  // Not a checkpoint-carrying chain load.
  }
  // Preferred path: rebuild the checkpointed session state outright — works
  // at any frontier, including concurrency-heavy histories with no critical
  // versions at all. Falls through on validation failure (mismatched or
  // malformed chains): sessions are a cache, so falling back is always
  // safe, never wrong.
  if (!pending_session_state_.empty()) {
    std::string state = std::move(pending_session_state_);
    pending_session_state_.clear();
    auto walker = std::make_unique<Walker>(trace_.graph, trace_.ops);
    if (walker->RestoreSession(state, rope_.char_size())) {
      session_.walker = std::move(walker);
      return true;
    }
  }
  // Fallback: a critical frontier tip with a known document length. The
  // post-clear walker state there is just a placeholder over the current
  // document, so reopening the session is an empty-window MergeRange — no
  // replay at all. A multi-tip frontier without checkpointed state cannot
  // resume; its next merge instead rebuilds from the newest critical
  // candidate (seeded from the chain's session anchor after a reload).
  const Frontier& v = trace_.graph.version();
  if (v.size() != 1 || critical_candidates_.empty() || critical_candidates_.back() != v[0]) {
    return false;
  }
  if (session_.walker == nullptr) {
    session_.walker = std::make_unique<Walker>(trace_.graph, trace_.ops);
  }
  session_.walker->MergeRange(rope_, v, rope_.char_size(), v,
                              /*apply_from=*/trace_.graph.size());
  return true;
}

}  // namespace egwalker
