// Cross-implementation fuzzer (standalone binary, also registered with
// ctest on a small default range).
//
// For each seed it builds a randomised multi-replica trace and requires
// byte-identical output from: the pseudocode oracle, the optimised walker
// under every sort order with and without clearing, both CRDT baselines
// (via the ID-based op stream), and the OT baseline. Each seed additionally
// drives (under the ASan/UBSan CI configuration):
//   - random frontier pairs through the cached Graph::Diff vs the uncached
//     reference walk, with interleaved Appends exercising invalidation;
//   - the run-carrying OpLog::SliceAt cursor vs the plain overload across
//     random jump patterns (stale-hint recovery included);
//   - randomized summary/patch exchange sequences through paired document
//     universes — persistent walker sessions vs fresh-walker-per-merge —
//     requiring identical patch bytes and byte-identical documents;
//   - the agent-indexed O(delta) MakePatch vs the whole-history
//     MakePatchReference oracle over perturbed summaries (absent agents,
//     inflated seqs, watermarks splitting RLE runs mid-chunk), requiring
//     byte-identical patches and scanned == encoded work counters;
//   - one hostile generator preset (storm/swarm/sparse-late/mass-return,
//     docs/TRACES.md) at seed-randomised size, replayed under every sort
//     order with and without clearing against the oracle — the sibling-group
//     fast path must never change a byte;
//   - the lzhuf decoders directly: seed-random column-like payloads
//     compressed under both codes, then the stream and its mutations decoded
//     by the library and by the bit-serial reference, requiring the same
//     accept/reject result and bytes. (Mutated segments above rarely reach a
//     decoder: the column checksum rejects them first.)
//   - the shared LZ parse: seed-random inputs, some past the 64 KiB window,
//     checked against the parse contract.
//
// Usage: fuzz_all [count] [start_seed]
//   ./build/tests/fuzz_all 100000       # long background hunt
//   ./build/tests/fuzz_all 60 9000      # quick slice from another seed base

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/doc.h"
#include "core/simple_walker.h"
#include "core/walker.h"
#include "encoding/columnar.h"
#include "lz4/lz4.h"
#include "lzhuf/lzhuf.h"
#include "crdt/naive_crdt.h"
#include "crdt/ref_crdt.h"
#include "ot/ot.h"
#include "sync/patch.h"
#include "testing/codec_inputs.h"
#include "testing/fixtures.h"
#include "testing/lz_reference.h"
#include "testing/lzhuf_reference.h"
#include "testing/random_trace.h"
#include "trace/generate.h"
#include "util/varint.h"

namespace egwalker {
namespace {

bool CheckDiffCacheAndCursor(uint64_t seed, const Trace& t);
bool CheckSessionPatchSequences(uint64_t seed);
bool CheckSegmentCorruption(uint64_t seed);
bool CheckHostilePreset(uint64_t seed);
bool CheckLzhufDifferential(uint64_t seed);
bool CheckLzParse(uint64_t seed);

bool CheckSeed(uint64_t seed) {
  testing::RandomTraceOptions opts;
  opts.seed = seed;
  opts.replicas = 2 + static_cast<int>(seed % 5);
  opts.actions = 40 + static_cast<int>(seed % 7) * 25;
  opts.sync_prob = 0.05 + 0.1 * static_cast<double>(seed % 5);
  opts.delete_prob = 0.15 + 0.1 * static_cast<double>(seed % 4);
  Trace t = testing::MakeRandomTrace(opts);

  SimpleWalker oracle(t.graph, t.ops);
  const std::string expected = oracle.ReplayAll();

  std::vector<CrdtOp> crdt_ops;
  for (SortMode mode : {SortMode::kHeuristic, SortMode::kLvOrder, SortMode::kAdversarial}) {
    for (bool clearing : {true, false}) {
      Walker walker(t.graph, t.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.sort_mode = mode;
      wopts.enable_clearing = clearing;
      ReplaySinks sinks;
      if (mode == SortMode::kLvOrder && !clearing) {
        sinks.crdt_ops = &crdt_ops;
      }
      walker.ReplayAll(doc, wopts, sinks);
      if (doc.ToString() != expected) {
        std::fprintf(stderr, "WALKER MISMATCH seed=%llu mode=%d clearing=%d\n",
                     static_cast<unsigned long long>(seed), static_cast<int>(mode), clearing);
        return false;
      }
    }
  }

  RefCrdt ref(t.graph);
  Rope ref_doc;
  NaiveCrdt naive(t.graph);
  for (const CrdtOp& op : crdt_ops) {
    ref.Apply(op, ref_doc);
    naive.Apply(op);
  }
  if (ref_doc.ToString() != expected || naive.ToText() != expected) {
    std::fprintf(stderr, "CRDT MISMATCH seed=%llu\n", static_cast<unsigned long long>(seed));
    return false;
  }

  OtReplayer ot(t.graph, t.ops);
  if (ot.ReplayAll() != expected) {
    std::fprintf(stderr, "OT MISMATCH seed=%llu\n", static_cast<unsigned long long>(seed));
    return false;
  }

  if (!CheckDiffCacheAndCursor(seed, t)) {
    return false;
  }
  return CheckSessionPatchSequences(seed) && CheckSegmentCorruption(seed) &&
         CheckHostilePreset(seed) && CheckLzhufDifferential(seed) && CheckLzParse(seed);
}

// The shared LZ parse against its contract (tests/testing/lz_reference.h)
// on seed-random inputs: structured bytes, prose, short periods and runs,
// and on one seed in eight an input past the 64 KiB window, where the
// match finder's tables wrap.
bool CheckLzParse(uint64_t seed) {
  Prng rng(seed ^ 0x1a9e);
  for (int input_no = 0; input_no < 3; ++input_no) {
    const size_t size = rng.Below(input_no == 0 && seed % 8 == 0 ? 150000 : 3000);
    std::string input;
    switch (rng.Below(4)) {
      case 0:
        input = testing::StructuredInput(rng, size);
        break;
      case 1:
        input = GenerateProse(rng, size);
        break;
      case 2: {
        const size_t period = 1 + rng.Below(12);
        for (size_t i = 0; i < size; ++i) {
          input.push_back(static_cast<char>('a' + (i % period)));
        }
        break;
      }
      default:
        while (input.size() < size) {
          input.append(1 + rng.Below(300), static_cast<char>(rng.Below(3)));
        }
        break;
    }
    const std::string err = lz_reference::CheckParse(input, lz4::Parse(input));
    if (!err.empty()) {
      std::fprintf(stderr, "LZ PARSE CONTRACT seed=%llu input=%d size=%zu: %s\n",
                   static_cast<unsigned long long>(seed), input_no, input.size(), err.c_str());
      return false;
    }
  }
  return true;
}

// Column-like payloads (varint runs, small deltas, prose, opaque bytes,
// one byte repeated) of seed-random shape and size, under both lzhuf codes:
// the library decoder against the reference on each stream and its
// mutations.
bool CheckLzhufDifferential(uint64_t seed) {
  Prng rng(seed ^ 0x17f5);
  for (int payload = 0; payload < 2; ++payload) {
    std::string raw;
    const size_t target = rng.Below(rng.Chance(0.3) ? 64 : 800);
    const uint64_t shape = rng.Below(5);
    while (raw.size() < target) {
      switch (shape) {
        case 0:  // Varints of mostly small values.
          AppendVarint(raw, rng.Below(rng.Chance(0.9) ? 200 : 1u << 20));
          break;
        case 1:  // Small zigzag deltas, mostly non-negative.
          raw.push_back(static_cast<char>(rng.Below(4) * 2 + (rng.Chance(0.1) ? 1 : 0)));
          break;
        case 2:
          raw += GenerateProse(rng, 1 + rng.Below(80));
          break;
        case 3:  // Opaque bytes with repeats.
          if (!raw.empty() && rng.Chance(0.4)) {
            const size_t from = rng.Below(raw.size());
            raw += raw.substr(from, 1 + rng.Below(std::min<size_t>(raw.size() - from, 300)));
          } else {
            raw.push_back(static_cast<char>(rng.Next() & 0xff));
          }
          break;
        default:
          raw.append(1 + rng.Below(600), static_cast<char>(rng.Below(3)));
          break;
      }
    }
    for (bool static_code : {false, true}) {
      const std::string stream =
          static_code ? lzhuf::CompressStatic(raw) : lzhuf::Compress(raw);
      const std::string err =
          lzhuf_reference::DifferentialSweep(static_code, stream, raw.size(), rng, 40);
      if (!err.empty()) {
        std::fprintf(stderr, "LZHUF DECODER MISMATCH seed=%llu payload=%d %s: %s\n",
                     static_cast<unsigned long long>(seed), payload,
                     static_code ? "static" : "dynamic", err.c_str());
        return false;
      }
    }
  }
  return true;
}

// Hostile generator presets (docs/TRACES.md) at seed-randomised sizes: the
// sibling-group fast path in the walker must stay byte-identical to the
// pseudocode oracle and the reference CRDT under every shape the
// storm/swarm/sparse-late/mass-return generators can produce — wide
// same-origin groups, thousands of one-shot agents, ancient anchors, and
// wide frontier merges all bend its invariants differently.
bool CheckHostilePreset(uint64_t seed) {
  Trace t;
  switch (seed % 4) {
    case 0: {
      StormConfig cfg;
      cfg.width = 16 + static_cast<uint32_t>(seed % 97);
      cfg.run_len = 1 + static_cast<uint32_t>(seed % 5);
      cfg.base_chars = 32;
      cfg.rounds = 1 + static_cast<uint32_t>(seed % 2);
      cfg.seed = seed * 0x9E37 + 1;
      cfg.shuffle_seed = seed ^ 0x570;
      t = GenerateStorm(cfg, "fuzz-storm");
      break;
    }
    case 1: {
      SwarmConfig cfg;
      cfg.agents = 2 * (8 + seed % 150);
      cfg.seed = seed * 31 + 7;
      t = GenerateSwarm(cfg, "fuzz-swarm");
      break;
    }
    case 2: {
      SparseLateConfig cfg;
      cfg.early_events = 500 + seed % 1500;
      cfg.late_edits = 4 + static_cast<uint32_t>(seed % 12);
      cfg.seed = seed * 131 + 3;
      t = GenerateSparseLate(cfg, "fuzz-sparse-late");
      break;
    }
    default: {
      MassReturnConfig cfg;
      cfg.replicas = 2 + static_cast<uint32_t>(seed % 8);
      cfg.events_per_replica = 16 + seed % 48;
      cfg.segment_chars = 8 + seed % 32;
      cfg.seed = seed * 17 + 11;
      t = GenerateMassReturn(cfg, "fuzz-mass-return");
      break;
    }
  }
  SimpleWalker oracle(t.graph, t.ops);
  const std::string expected = oracle.ReplayAll();
  std::vector<CrdtOp> crdt_ops;
  for (SortMode mode : {SortMode::kHeuristic, SortMode::kLvOrder, SortMode::kAdversarial}) {
    for (bool clearing : {true, false}) {
      Walker walker(t.graph, t.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.sort_mode = mode;
      wopts.enable_clearing = clearing;
      ReplaySinks sinks;
      if (mode == SortMode::kLvOrder && !clearing) {
        sinks.crdt_ops = &crdt_ops;
      }
      walker.ReplayAll(doc, wopts, sinks);
      if (doc.ToString() != expected) {
        std::fprintf(stderr, "HOSTILE WALKER MISMATCH seed=%llu mode=%d clearing=%d\n",
                     static_cast<unsigned long long>(seed), static_cast<int>(mode), clearing);
        return false;
      }
    }
  }
  RefCrdt ref(t.graph);
  Rope ref_doc;
  for (const CrdtOp& op : crdt_ops) {
    ref.Apply(op, ref_doc);
  }
  if (ref_doc.ToString() != expected) {
    std::fprintf(stderr, "HOSTILE CRDT MISMATCH seed=%llu\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  return true;
}

// Fail-closed decoder: a genuine multi-segment chain (codec and cached-doc
// choices per segment, real concurrent merges) must load byte-identically
// when pristine, and arbitrary corruption — truncation, bit flips,
// overwrites, length inflation — must never crash PeekSegment,
// DecodeSegmentInto, or Doc::LoadChain. Encoders write only v2, so v1
// segments come from the golden fixture chain (LZ4 content, session
// checkpoint): on 40% of the seeds the chain starts with a prefix of it,
// on 20% with the same chain behind a v2 head (a lazily skipped v2 prefix
// followed by eager v1 decoding), and both replicas load that prefix and
// keep editing before v2 segments follow. The other 40% stay all-v2. A
// mutated chain that still decodes (flips in v1 content bytes are not
// checksummed) only has to produce a well-formed document.
bool CheckSegmentCorruption(uint64_t seed) {
  static const std::vector<std::string> kV1Chain = testing::V1FixtureChain();
  static const std::vector<std::string> kV2HeadChain = testing::V2HeadV1TailChain();
  Prng rng(seed ^ 0xc0441);
  std::vector<std::string> chain;
  std::optional<Doc> a;
  std::optional<Doc> b;
  const uint64_t start = rng.Below(10);
  if (start < 6) {
    const std::vector<std::string>& fixture = start < 4 ? kV1Chain : kV2HeadChain;
    chain.assign(fixture.begin(), fixture.begin() + 1 + rng.Below(fixture.size()));
    a = Doc::LoadChain(chain, "fuzz-a");
    b = Doc::LoadChain(chain, "fuzz-b");
    if (!a.has_value() || !b.has_value()) {
      std::fprintf(stderr, "V1 FIXTURE CHAIN LOAD FAILED seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return false;
    }
  } else {
    a.emplace("fuzz-a");
    b.emplace("fuzz-b");
  }
  Lv checkpoint = a->end_lv();
  const int rounds = 6 + static_cast<int>(rng.Below(6));
  for (int round = 0; round < rounds; ++round) {
    for (Doc* d : {&*a, &*b}) {
      uint64_t len = d->size();
      if (len > 6 && rng.Chance(0.3)) {
        d->Delete(rng.Below(len - 2), 1 + rng.Below(2));
      } else {
        std::string burst(1 + rng.Below(5), static_cast<char>('a' + rng.Below(26)));
        d->Insert(rng.Below(len + 1), burst);
      }
    }
    if (rng.Chance(0.5)) {
      a->MergeFrom(*b);
      b->MergeFrom(*a);
    }
    if (rng.Chance(0.5) || round + 1 == rounds) {
      SaveOptions opts;
      opts.include_deleted_content = true;
      opts.compress_columns = rng.Chance(0.7);
      opts.cache_final_doc = round + 1 == rounds || rng.Chance(0.5);
      chain.push_back(a->SaveSegment(checkpoint, opts));
      checkpoint = a->end_lv();
    }
  }
  const std::string expected = a->Text();
  auto pristine = Doc::LoadChain(chain, "fuzz-a");
  if (!pristine.has_value() || pristine->Text() != expected) {
    std::fprintf(stderr, "SEGMENT CHAIN RELOAD MISMATCH seed=%llu\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  // Hydrating the lazily skipped prefix must reproduce the document.
  auto resaved = Doc::Load(pristine->Save(), "fuzz-check");
  if (pristine->hydrated_segments() != pristine->lazy_segments_skipped() ||
      !resaved.has_value() || resaved->Text() != expected) {
    std::fprintf(stderr, "SEGMENT CHAIN HYDRATION MISMATCH seed=%llu\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::string> mutated = chain;
    std::string& seg = mutated[rng.Below(mutated.size())];
    switch (rng.Below(4)) {
      case 0:
        seg.resize(rng.Below(seg.size()));
        break;
      case 1:
        seg[rng.Below(seg.size())] ^= static_cast<char>(1u << rng.Below(8));
        break;
      case 2:
        seg[rng.Below(seg.size())] = static_cast<char>(0xFF);
        break;
      default:
        seg.insert(rng.Below(seg.size() + 1), 1 + rng.Below(3), '\xAB');
        break;
    }
    (void)PeekSegment(seg);
    Trace scratch;
    std::optional<std::string> cached;
    std::string error;
    (void)DecodeSegmentInto(scratch, seg, &cached, &error);
    if (auto loaded = Doc::LoadChain(mutated, "fuzz-a", &error); loaded.has_value()) {
      (void)loaded->Text();
    }
  }
  return true;
}

// Frontier pairs through the diff cache vs the reference walk (with
// interleaved Appends), and the run-carrying SliceAt cursor vs the plain
// overload, on a copy of the trace's graph.
bool CheckDiffCacheAndCursor(uint64_t seed, const Trace& t) {
  Prng rng(seed ^ 0xd1ffc4c4e);
  Graph g = t.graph;  // Copy: the appends below must not affect the trace.
  AgentId extra = g.GetOrCreateAgent("fuzz-extra");
  uint64_t extra_seq = 0;
  std::vector<Frontier> pool;
  for (int i = 0; i < 5; ++i) {
    Frontier f;
    for (uint64_t j = 1 + rng.Below(3); j > 0; --j) {
      FrontierInsert(f, rng.Below(g.size()));
    }
    pool.push_back(g.Reduce(f));
  }
  pool.push_back(Frontier{});
  pool.push_back(g.version());
  for (int round = 0; round < 60; ++round) {
    const Frontier& a = pool[rng.Below(pool.size())];
    const Frontier& b = pool[rng.Below(pool.size())];
    DiffResult cached = g.Diff(a, b);
    DiffResult reference = g.DiffUncached(a, b);
    if (cached.only_a != reference.only_a || cached.only_b != reference.only_b) {
      std::fprintf(stderr, "DIFF CACHE MISMATCH seed=%llu round=%d\n",
                   static_cast<unsigned long long>(seed), round);
      return false;
    }
    // Pin the run-level walk to the event-level oracle, byte for byte.
    DiffResult oracle = g.DiffReference(a, b);
    if (reference.only_a != oracle.only_a || reference.only_b != oracle.only_b) {
      std::fprintf(stderr, "RUN-LEVEL DIFF MISMATCH seed=%llu round=%d\n",
                   static_cast<unsigned long long>(seed), round);
      return false;
    }
    if (round % 15 == 14) {
      Frontier parents = g.Reduce(Frontier{rng.Below(g.size())});
      uint64_t len = 1 + rng.Below(3);
      g.Add(extra, extra_seq, len, parents);
      extra_seq += len;
      pool.back() = g.version();
    }
  }

  // Cursor-carried slices against the plain overload: sequential scans,
  // random restarts (stale hints), and random clip points.
  OpLog::SliceCursor cursor;
  Lv v = 0;
  const Lv size = t.ops.size();
  while (v < size) {
    Lv clip = v + 1 + rng.Below(8);
    if (rng.Chance(0.1)) {
      v = rng.Below(size);  // Jump: the cursor hint goes stale.
      clip = v + 1 + rng.Below(8);
    }
    OpSlice with_cursor = t.ops.SliceAt(v, clip > size ? size : clip, cursor);
    OpSlice plain = t.ops.SliceAt(v, clip > size ? size : clip);
    if (with_cursor.kind != plain.kind || with_cursor.count != plain.count ||
        with_cursor.pos_start != plain.pos_start || with_cursor.fwd != plain.fwd ||
        with_cursor.text != plain.text) {
      std::fprintf(stderr, "SLICE CURSOR MISMATCH seed=%llu lv=%llu\n",
                   static_cast<unsigned long long>(seed), static_cast<unsigned long long>(v));
      return false;
    }
    v += with_cursor.count;
  }
  return true;
}

// The O(delta) MakePatch against the whole-history reference scan, over
// summaries perturbed to hit every edge: agents dropped entirely, counts
// inflated past what the sender holds, and watermarks landing mid-run so a
// known prefix splits an RLE chunk (the explicit-parent chain link).
bool CheckPatchDifferential(uint64_t seed, const Doc& doc, Prng& rng) {
  VersionSummary full = SummarizeDoc(doc);
  for (int round = 0; round < 8; ++round) {
    VersionSummary s;
    for (const auto& [agent, count] : full.agents) {
      if (rng.Chance(0.2)) {
        continue;  // Absent agent: everything of theirs is missing.
      }
      if (rng.Chance(0.15)) {
        s.agents[agent] = count + 1 + rng.Below(5);  // Inflated claim.
      } else {
        s.agents[agent] = rng.Below(count + 1);  // Any prefix, incl. mid-run.
      }
    }
    if (rng.Chance(0.25)) {
      s.agents["ghost-" + std::to_string(rng.Below(3))] = rng.Below(10);
    }
    MakePatchStats stats;
    std::string fast = MakePatch(doc, s, &stats);
    MakePatchStats ref_stats;
    std::string reference = MakePatchReference(doc, s, &ref_stats);
    if (fast != reference) {
      std::fprintf(stderr, "MAKEPATCH DIFFERENTIAL MISMATCH seed=%llu round=%d\n",
                   static_cast<unsigned long long>(seed), round);
      return false;
    }
    // The indexed scan visits exactly what it encodes; the reference visits
    // the whole history. Both encode the same missing set.
    if (stats.events_scanned != stats.events_encoded ||
        stats.events_encoded != ref_stats.events_encoded ||
        stats.chunks != ref_stats.chunks ||
        ref_stats.events_scanned != doc.end_lv()) {
      std::fprintf(stderr, "MAKEPATCH WORK-COUNTER DRIFT seed=%llu round=%d\n",
                   static_cast<unsigned long long>(seed), round);
      return false;
    }
  }
  return true;
}

// Paired universes of three replicas exchanging summary/patch messages: the
// session universe and the fresh-walker universe must generate identical
// patch bytes and converge to byte-identical documents.
bool CheckSessionPatchSequences(uint64_t seed) {
  Prng rng(seed ^ 0x5e5510);
  std::vector<Doc> on;
  std::vector<Doc> off;
  for (int i = 0; i < 3; ++i) {
    on.emplace_back("r" + std::to_string(i));
    off.emplace_back("r" + std::to_string(i));
    on.back().set_merge_sessions(true);
    off.back().set_merge_sessions(false);
  }
  auto sync = [&](size_t from, size_t to) -> bool {
    std::string patch_on = MakePatch(on[from], SummarizeDoc(on[to]));
    std::string patch_off = MakePatch(off[from], SummarizeDoc(off[to]));
    if (patch_on != patch_off) {
      std::fprintf(stderr, "SESSION PATCH BYTES MISMATCH seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return false;
    }
    // Every real exchange also pins the indexed scan to the reference scan.
    if (patch_on != MakePatchReference(on[from], SummarizeDoc(on[to]))) {
      std::fprintf(stderr, "MAKEPATCH REFERENCE MISMATCH seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return false;
    }
    auto merged_on = ApplyPatch(on[to], patch_on);
    auto merged_off = ApplyPatch(off[to], patch_off);
    if (!merged_on.has_value() || !merged_off.has_value() || *merged_on != *merged_off) {
      std::fprintf(stderr, "SESSION PATCH APPLY MISMATCH seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return false;
    }
    return true;
  };
  on[0].Insert(0, "seed ");
  off[0].Insert(0, "seed ");
  for (int step = 0; step < 50; ++step) {
    size_t i = rng.Below(3);
    uint64_t len = on[i].size();
    if (len != off[i].size()) {
      std::fprintf(stderr, "SESSION LENGTH DIVERGENCE seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return false;
    }
    if (len > 4 && rng.Chance(0.3)) {
      uint64_t pos = rng.Below(len - 1);
      uint64_t count = 1 + rng.Below(2);
      on[i].Delete(pos, count);
      off[i].Delete(pos, count);
    } else {
      std::string burst(1 + rng.Below(4), static_cast<char>('a' + rng.Below(26)));
      uint64_t pos = rng.Below(len + 1);
      on[i].Insert(pos, burst);
      off[i].Insert(pos, burst);
    }
    if (rng.Chance(0.35)) {
      size_t to = rng.Below(3);
      if (to != i && !sync(i, to)) {
        return false;
      }
    }
  }
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        if (i != j && !sync(i, j)) {
          return false;
        }
      }
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    if (on[i].Text() != off[i].Text() || on[0].Text() != on[i].Text()) {
      std::fprintf(stderr, "SESSION UNIVERSE MISMATCH seed=%llu replica=%zu\n",
                   static_cast<unsigned long long>(seed), i);
      return false;
    }
    if (!CheckPatchDifferential(seed, on[i], rng)) {
      return false;
    }
  }
  // The converged graph carries real exchange traffic — causally delivered
  // runs from linear agents, the shape where watermark pruning is actually
  // live (the synthetic DAGs above disable it). Random frontier pairs
  // through the run-level walk vs the event-level oracle, byte for byte.
  const Graph& g = on[0].graph();
  std::vector<Frontier> pool;
  for (int i = 0; i < 5; ++i) {
    Frontier f;
    for (uint64_t j = 1 + rng.Below(3); j > 0; --j) {
      FrontierInsert(f, rng.Below(g.size()));
    }
    pool.push_back(g.Reduce(f));
  }
  pool.push_back(Frontier{});
  pool.push_back(g.version());
  for (int round = 0; round < 30; ++round) {
    const Frontier& a = pool[rng.Below(pool.size())];
    const Frontier& b = pool[rng.Below(pool.size())];
    DiffResult fast = g.DiffUncached(a, b);
    DiffResult oracle = g.DiffReference(a, b);
    if (fast.only_a != oracle.only_a || fast.only_b != oracle.only_b) {
      std::fprintf(stderr, "EXCHANGE DIFF MISMATCH seed=%llu round=%d\n",
                   static_cast<unsigned long long>(seed), round);
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace egwalker

int main(int argc, char** argv) {
  uint64_t count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60;
  uint64_t start = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5000;
  for (uint64_t seed = start; seed < start + count; ++seed) {
    if (!egwalker::CheckSeed(seed)) {
      return 1;
    }
    if ((seed - start + 1) % 500 == 0) {
      std::fprintf(stderr, "... %llu traces ok\n",
                   static_cast<unsigned long long>(seed - start + 1));
    }
  }
  std::fprintf(stderr, "fuzz_all: %llu traces, all implementations agree\n",
               static_cast<unsigned long long>(count));
  return 0;
}
