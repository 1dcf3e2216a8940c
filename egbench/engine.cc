// The document phases every workload runs, the engine-layer probes of the
// traced run, and the two engine workloads (merge-concurrent and
// edit-save-open).

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/doc.h"
#include "core/walker.h"
#include "crdt/ref_crdt.h"
#include "encoding/columnar.h"
#include "graph/topo_sort.h"
#include "lz4/lz4.h"
#include "lzhuf/lzhuf.h"
#include "rope/rope.h"
#include "sync/patch.h"
#include "workloads.h"

namespace egbench {

using egwalker::Doc;

namespace {

// Types the keystroke script into a fresh document. When `per_call` is
// given, every Insert/Delete call is timed into it.
std::optional<Doc> TypeKeys(const DocInputs& in, Samples* per_call) {
  Doc doc("typist");
  for (const Keystroke& key : in.keys) {
    Clock::time_point t0;
    if (per_call != nullptr) {
      t0 = Clock::now();
    }
    if (key.text_len != 0) {
      doc.Insert(key.pos, std::string_view(in.key_text).substr(key.text_off, key.text_len));
    } else {
      doc.Delete(key.pos, 1);
    }
    if (per_call != nullptr) {
      per_call->Add(MsBetween(t0, Clock::now()) * 1000.0);
    }
  }
  return doc;
}

// Applies the history one causal run per call, as a live replica would
// receive it. Returns nullopt if any run is refused.
std::optional<Doc> ApplyLive(const std::vector<std::vector<egwalker::RemoteChunk>>& singles) {
  Doc doc("replica");
  for (const auto& single : singles) {
    if (!doc.ApplyRemoteChunks(single)) {
      return std::nullopt;
    }
  }
  return doc;
}

}  // namespace

DocPhases::DocPhases(const std::vector<DocInputs>& docs, const PhaseShare& share,
                     Report& report, SpanLog& log, PhasePass& pass)
    : docs_(docs), share_(share), report_(report), log_(log), pass_(pass) {
  for (const DocInputs& in : docs_) {
    chains_.push_back({in.segment});
    total_keys_ += in.keys.size();
    total_events_ += in.events();
  }
  if (share_.live > 0) {
    singles_.resize(docs_.size());
    for (size_t d = 0; d < docs_.size(); ++d) {
      for (const egwalker::RemoteChunk& chunk : docs_[d].chunks) {
        singles_[d].push_back({chunk});
      }
    }
  }
  if (share_.save > 0) {
    for (const DocInputs& in : docs_) {
      std::optional<Doc> doc = Doc::Load(in.file, "bench");
      report_.Check(doc.has_value(), in.name + ": whole-trace file does not load");
      loaded_.push_back(doc ? std::move(*doc) : Doc("bench"));
    }
  }
}

void DocPhases::AddTo(Scheduler& scheduler) {
  const int n = static_cast<int>(docs_.size());
  const int per_doc_min = std::max(20, 3 * n);

  // Merge: the Fig. 8 merge, decode plus the full eg-walker walk.
  scheduler.Add(share_.merge, n, per_doc_min, [this, n, i = 0](bool timed) mutable {
    const DocInputs& in = docs_[static_cast<size_t>(i++ % n)];
    std::optional<Doc> doc;
    Interval t =
        Timed(log_, "core.load", log_.NewOp(), [&] { doc = Doc::Load(in.file, "bench"); });
    report_.Check(doc && doc->Text() == in.reference, in.name + ": merged text differs");
    if (timed) {
      pass_.merge_ms.Add(t.t0, t.t1, t.ms());
    }
  });

  // Live: every causal run of the history through ApplyRemoteChunks.
  scheduler.Add(share_.live, 1, 5, [this](bool timed) {
    double ms = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t d = 0; d < docs_.size(); ++d) {
      std::optional<Doc> doc;
      ms += TimedMs(log_, "core.apply_remote_pass", log_.NewOp(),
                    [&] { doc = ApplyLive(singles_[d]); });
      report_.Check(doc && doc->Text() == docs_[d].reference,
                    docs_[d].name + ": live-applied text differs");
    }
    if (timed) {
      pass_.replay_events_per_s.Add(t0, Clock::now(),
                                    static_cast<double>(total_events_) / (ms / 1000.0));
    }
  });

  // Open: replay-free reopen of the cached checkpoint segments. One
  // operation opens every document once and records the time per document:
  // the server's documents open in about a quarter of a millisecond each,
  // and a median over single opens of eight sizes jumps with the seed
  // between the sizes nearest the middle.
  scheduler.Add(share_.open, 1, 20, [this](bool timed) {
    double ms = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t d = 0; d < docs_.size(); ++d) {
      std::optional<Doc> doc;
      ms += TimedMs(log_, "core.load_chain", log_.NewOp(),
                    [&] { doc = Doc::LoadChain(chains_[d], "bench"); });
      report_.Check(doc && doc->replayed_events() == 0 && doc->Text() == docs_[d].reference,
                    docs_[d].name + ": reopened text differs or the open replayed events");
    }
    if (timed) {
      pass_.open_ms.Add(t0, Clock::now(), ms / static_cast<double>(docs_.size()));
    }
  });

  // Save: the merged document written as a compressed checkpoint segment.
  scheduler.Add(share_.save, n, per_doc_min, [this, n, i = 0](bool timed) mutable {
    size_t d = static_cast<size_t>(i++ % n);
    std::string bytes;
    Interval t = Timed(log_, "core.save_segment", log_.NewOp(),
                       [&] { bytes = loaded_[d].SaveSegment(0, SegmentOptions(true)); });
    // Set-up reopened these exact bytes to the reference text.
    report_.Check(bytes == docs_[d].segment, docs_[d].name + ": saved segment differs");
    if (timed) {
      pass_.save_ms.Add(t.t0, t.t1, t.ms());
    }
  });

  // Edit: the keystroke script, one Insert/Delete call per key.
  scheduler.Add(share_.edit, 1, 5, [this](bool timed) {
    double ms = 0;
    Clock::time_point t0 = Clock::now();
    for (const DocInputs& in : docs_) {
      std::optional<Doc> doc;
      ms += TimedMs(log_, "core.edit_pass", log_.NewOp(), [&] { doc = TypeKeys(in, nullptr); });
      report_.Check(doc->Text() == in.reference, in.name + ": typed text differs");
    }
    if (timed) {
      pass_.edit_events_per_s.Add(t0, Clock::now(),
                                  static_cast<double>(total_keys_) / (ms / 1000.0));
    }
  });
}

void ReportAtRest(const std::vector<DocInputs>& docs, Report& report) {
  uint64_t file_bytes = 0;
  uint64_t heap_bytes = 0;
  bool reopened = true;
  // A fresh thread gets a fresh malloc arena and an empty per-thread cache,
  // so the heap delta does not depend on what the process did before. The
  // main thread only waits meanwhile.
  std::thread measure([&] {
    std::free(std::malloc(1));  // Creates the arena outside the deltas.
    std::vector<Doc> open;
    open.reserve(docs.size());
    for (const DocInputs& in : docs) {
      file_bytes += in.segment.size();
      uint64_t before = HeapInUse();
      std::optional<Doc> doc = Doc::LoadChain({in.segment}, "bench");
      uint64_t after = HeapInUse();
      heap_bytes += after - before;
      reopened = reopened && doc && doc->Text() == in.reference;
      if (doc) {
        open.push_back(std::move(*doc));
      }
    }
  });
  measure.join();
  report.Check(reopened, "a checkpoint segment does not reopen to its reference text");
  report.Set("file_bytes", static_cast<double>(file_bytes), "B");
  report.Set("steady_heap_bytes", static_cast<double>(heap_bytes), "B");
}

PhasePass RunDocPhases(const std::vector<DocInputs>& docs, double seconds,
                       const PhaseShare& share, Report& report, SpanLog& log) {
  PhasePass pass;
  DocPhases phases(docs, share, report, log, pass);
  Scheduler scheduler;
  phases.AddTo(scheduler);
  scheduler.Run(seconds);
  pass.calibration = scheduler.calibration();
  return pass;
}

namespace {

struct TimedMetric {
  const char* name;
  double value;
  const char* unit;
};

// The timed end-to-end metrics of a pass: at nominal machine speed, or as
// measured on the wall clock when `wall` is set.
std::vector<TimedMetric> TimedMetrics(const PhasePass& pass, bool wall) {
  const Calibration* calibration = wall ? nullptr : &pass.calibration;
  Samples merge = pass.merge_ms.Durations(calibration);
  Samples open = pass.open_ms.Durations(calibration);
  return {
      {"merge_ms_p50", merge.Percentile(0.5), "ms"},
      {"merge_ms_p90", merge.Percentile(0.9), "ms"},
      {"open_ms_p50", open.Percentile(0.5), "ms"},
      {"open_ms_p90", open.Percentile(0.9), "ms"},
      {"save_ms_p50", pass.save_ms.Durations(calibration).Median(), "ms"},
      {"replay_events_per_s", pass.replay_events_per_s.Rates(calibration).Median(), "events/s"},
  };
}

}  // namespace

void ReportTimed(const PhasePass& pass, Report& report) {
  for (const TimedMetric& m : TimedMetrics(pass, false)) {
    report.Set(m.name, m.value, m.unit);
  }
}

void ReportPassLayers(const PhasePass& untraced, const PhasePass& traced, Report& report) {
  std::vector<TimedMetric> off = TimedMetrics(untraced, false);
  std::vector<TimedMetric> on = TimedMetrics(traced, false);
  for (size_t i = 0; i < off.size(); ++i) {
    report.Set(std::string("trace.overhead.") + off[i].name, on[i].value - off[i].value,
               off[i].unit);
  }
  for (const TimedMetric& m : TimedMetrics(untraced, true)) {
    report.Set(std::string("wall.") + m.name, m.value, m.unit);
  }
  report.Set("core.edit_events_per_s",
             traced.edit_events_per_s.Rates(&traced.calibration).Median(), "events/s");
  report.Set("calibration.kernel_ms", traced.calibration.MedianKernelMs(), "ms");
}

// --- Per-layer probes ---------------------------------------------------------

namespace {

constexpr int kProbeReps = 5;

// The stored payloads of a v2 segment, in directory order (they are
// concatenated at the end of the segment; see docs/EGWS.md).
std::vector<std::string> SegmentPayloads(const std::string& segment,
                                         const egwalker::SegmentInfo& info) {
  uint64_t total = 0;
  for (const egwalker::SegmentColumn& column : info.columns) {
    total += column.stored_size;
  }
  std::vector<std::string> out;
  if (total > segment.size()) {
    return out;
  }
  size_t offset = segment.size() - total;
  for (const egwalker::SegmentColumn& column : info.columns) {
    out.push_back(segment.substr(offset, column.stored_size));
    offset += column.stored_size;
  }
  return out;
}

// Median over kProbeReps runs of `fn`, each one recorded as a span.
template <typename Fn>
double ProbeMs(SpanLog& log, const char* name, uint32_t op, Fn&& fn) {
  Samples ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ms.Add(TimedMs(log, name, op, fn));
  }
  return ms.Median();
}

}  // namespace

void ProbeDocLayers(const std::vector<DocInputs>& docs, Report& report, SpanLog& log) {
  std::map<std::string, double> sum;  // Summed over documents.
  Samples edit_us;
  std::optional<uint64_t> merge_allocs;
  std::optional<uint64_t> live_allocs;
  uint64_t total_events = 0;
  uint64_t open_replayed = 0;

  for (const DocInputs& in : docs) {
    uint32_t op = log.NewOp();
    SpanLog::Scope probe(log, "probe.doc", op);
    total_events += in.events();

    // Counting pass on a freshly decoded graph, so the diff cache and the
    // integration counters start cold exactly as in a Doc::Load.
    std::optional<egwalker::DecodeResult> decoded = egwalker::DecodeTrace(in.file);
    if (!report.Check(decoded.has_value(), in.name + ": file does not decode")) {
      continue;
    }
    const egwalker::Graph& graph = decoded->trace.graph;
    egwalker::WalkPlan plan = egwalker::PlanWalkAll(graph);
    sum["graph.plan_steps"] += static_cast<double>(plan.steps.size());
    egwalker::DiffStats diff0 = graph.diff_stats();
    egwalker::DiffCacheStats cache0 = graph.diff_cache_stats();
    std::vector<egwalker::XfOp> xf;
    {
      egwalker::Walker walker(graph, decoded->trace.ops);
      egwalker::Rope rope;
      egwalker::ReplaySinks sinks;
      sinks.xf_ops = &xf;
      walker.ReplayAll(rope, {}, sinks);
      report.Check(rope.ToString() == in.reference, in.name + ": probe replay differs");
      sum["core.peak_spans"] += static_cast<double>(walker.peak_span_count());
      sum["crdt.yata_scan_steps"] += static_cast<double>(walker.yata_stats().scan_steps);
      sum["crdt.yata_fast_inserts"] += static_cast<double>(walker.yata_stats().fast_inserts);
    }
    sum["graph.diff_calls"] += static_cast<double>(graph.diff_stats().calls - diff0.calls);
    sum["graph.diff_runs_visited"] +=
        static_cast<double>(graph.diff_stats().runs_visited - diff0.runs_visited);
    sum["graph.diff_cache_hits"] +=
        static_cast<double>(graph.diff_cache_stats().hits - cache0.hits);
    sum["graph.diff_cache_misses"] +=
        static_cast<double>(graph.diff_cache_stats().misses - cache0.misses);

    // Timed layers of the merge: decode, plan, the whole replay.
    sum["encoding.decode_ms"] +=
        ProbeMs(log, "encoding.decode", op, [&] { egwalker::DecodeTrace(in.file); });
    sum["graph.plan_ms"] +=
        ProbeMs(log, "graph.plan", op, [&] { egwalker::PlanWalkAll(graph); });
    sum["core.replay_ms"] += ProbeMs(log, "core.replay", op, [&] {
      egwalker::Walker walker(in.trace.graph, in.trace.ops);
      egwalker::Rope rope;
      walker.ReplayAll(rope);
    });
    sum["rope.apply_ms"] += ProbeMs(log, "rope.apply", op, [&] {
      egwalker::Rope rope;
      for (const egwalker::XfOp& x : xf) {
        if (x.noop) {
          continue;
        }
        if (x.kind == egwalker::OpKind::kInsert) {
          rope.InsertAt(x.pos, x.text);
        } else {
          rope.RemoveAt(x.pos, x.count);
        }
      }
    });

    // Control: the reference CRDT on the same op stream.
    std::vector<egwalker::CrdtOp> crdt_ops;
    {
      egwalker::Walker walker(in.trace.graph, in.trace.ops);
      egwalker::Rope rope;
      egwalker::Walker::Options no_clearing;
      no_clearing.enable_clearing = false;
      egwalker::ReplaySinks sinks;
      sinks.crdt_ops = &crdt_ops;
      walker.ReplayAll(rope, no_clearing, sinks);
    }
    std::string ref_text;
    sum["crdt.ref_merge_ms"] += ProbeMs(log, "crdt.ref_merge", op, [&] {
      egwalker::RefCrdt crdt(in.trace.graph);
      egwalker::Rope rope;
      for (const egwalker::CrdtOp& c : crdt_ops) {
        crdt.Apply(c, rope);
      }
      ref_text = rope.ToString();
    });
    report.Check(ref_text == in.reference, in.name + ": reference CRDT text differs");

    // Open side: rope build, the uncompressed segment, codec directory.
    sum["rope.build_ms"] += ProbeMs(log, "rope.build", op, [&] { egwalker::Rope rope(in.reference); });
    std::optional<Doc> loaded = Doc::Load(in.file, "bench");
    if (!report.Check(loaded.has_value(), in.name + ": file does not load")) {
      continue;
    }
    std::string raw;
    sum["encoding.encode_raw_ms"] += ProbeMs(log, "encoding.encode_raw", op, [&] {
      raw = loaded->SaveSegment(0, SegmentOptions(false));
    });
    std::optional<Doc> raw_open;
    sum["encoding.load_raw_ms"] += ProbeMs(log, "encoding.load_raw", op, [&] {
      raw_open = Doc::LoadChain({raw}, "bench");
    });
    report.Check(raw_open && raw_open->Text() == in.reference,
                 in.name + ": uncompressed segment reopens to other text");
    std::optional<Doc> reopened = Doc::LoadChain({in.segment}, "bench");
    if (report.Check(reopened.has_value(), in.name + ": segment does not reopen")) {
      open_replayed += reopened->replayed_events();
    }
    std::optional<egwalker::SegmentInfo> info = egwalker::PeekSegment(in.segment);
    if (report.Check(info.has_value(), in.name + ": segment header unreadable")) {
      static const char* kCodecNames[] = {"encoding.columns_raw", "encoding.columns_lz4",
                                          "encoding.columns_lzhuf", "encoding.columns_static"};
      for (const egwalker::SegmentColumn& column : info->columns) {
        if (column.codec < 4) {
          sum[kCodecNames[column.codec]] += 1;
        }
      }
    }

    // The codec race's inputs: every raw column of the uncompressed segment.
    std::optional<egwalker::SegmentInfo> raw_info = egwalker::PeekSegment(raw);
    std::vector<std::string> columns;
    if (raw_info) {
      columns = SegmentPayloads(raw, *raw_info);
    }
    report.Check(!columns.empty(), in.name + ": raw segment columns not found");
    std::vector<std::string> packed(columns.size());
    sum["lzhuf.compress_ms"] += ProbeMs(log, "lzhuf.compress", op, [&] {
      for (size_t c = 0; c < columns.size(); ++c) {
        packed[c] = egwalker::lzhuf::Compress(columns[c]);
      }
    });
    sum["lz4.compress_ms"] += ProbeMs(log, "lz4.compress", op, [&] {
      for (const std::string& column : columns) {
        egwalker::lz4::Compress(column);
      }
    });
    bool round_trip = true;
    sum["lzhuf.decompress_ms"] += ProbeMs(log, "lzhuf.decompress", op, [&] {
      for (size_t c = 0; c < columns.size(); ++c) {
        auto back = egwalker::lzhuf::Decompress(packed[c], columns[c].size());
        round_trip = round_trip && back && *back == columns[c];
      }
    });
    report.Check(round_trip, in.name + ": lzhuf round trip differs");

    // Sync: a bootstrap patch of the whole document into an empty replica.
    std::string patch;
    sum["sync.make_patch_ms"] += ProbeMs(log, "sync.make_patch", op,
                                         [&] { patch = egwalker::MakePatch(*loaded, {}); });
    sum["sync.patch_bytes"] += static_cast<double>(patch.size());
    bool applied = true;
    sum["sync.apply_patch_ms"] += ProbeMs(log, "sync.apply_patch", op, [&] {
      Doc peer("peer");
      applied = applied && egwalker::ApplyPatch(peer, patch).has_value() &&
                peer.size() == loaded->size();
    });
    report.Check(applied, in.name + ": bootstrap patch does not apply");

    // Allocations of one merge and of the live replay.
    if (std::optional<uint64_t> a0 = AllocationCount()) {
      std::optional<Doc> merged = Doc::Load(in.file, "bench");
      merge_allocs = merge_allocs.value_or(0) + (*AllocationCount() - *a0);
      uint64_t a1 = *AllocationCount();
      Doc replica("replica");
      for (const egwalker::RemoteChunk& chunk : in.chunks) {
        replica.ApplyRemoteChunks({chunk});
      }
      live_allocs = live_allocs.value_or(0) + (*AllocationCount() - a1);
    }

    // Per-call edit latency over one typing pass.
    SpanLog::Scope edit_span(log, "core.edit_pass", op);
    std::optional<Doc> typed = TypeKeys(in, &edit_us);
    report.Check(typed->Text() == in.reference, in.name + ": typed text differs");
  }

  sum["core.walk_ms"] = sum["core.replay_ms"] - sum["graph.plan_ms"] - sum["rope.apply_ms"];
  sum["crdt.eg_vs_ref"] = sum["core.replay_ms"] / sum["crdt.ref_merge_ms"];
  sum["core.edit_us"] = edit_us.Median();
  sum["core.open_replayed_events"] = static_cast<double>(open_replayed);
  report.Check(open_replayed == 0, "a cached open replayed events");

  static const std::pair<const char*, const char*> kUnits[] = {
      {"graph.plan_ms", "ms"},          {"graph.plan_steps", "count"},
      {"graph.diff_calls", "count"},    {"graph.diff_runs_visited", "count"},
      {"graph.diff_cache_hits", "count"}, {"graph.diff_cache_misses", "count"},
      {"core.replay_ms", "ms"},         {"core.walk_ms", "ms"},
      {"core.peak_spans", "count"},     {"core.edit_us", "us"},
      {"core.open_replayed_events", "count"},
      {"crdt.yata_scan_steps", "count"}, {"crdt.yata_fast_inserts", "count"},
      {"crdt.ref_merge_ms", "ms"},      {"crdt.eg_vs_ref", "ratio"},
      {"rope.apply_ms", "ms"},          {"rope.build_ms", "ms"},
      {"encoding.decode_ms", "ms"},     {"encoding.encode_raw_ms", "ms"},
      {"encoding.load_raw_ms", "ms"},   {"encoding.columns_raw", "count"},
      {"encoding.columns_lzhuf", "count"}, {"encoding.columns_lz4", "count"},
      {"encoding.columns_static", "count"},
      {"lzhuf.compress_ms", "ms"},      {"lzhuf.decompress_ms", "ms"},
      {"lz4.compress_ms", "ms"},
      {"sync.make_patch_ms", "ms"},     {"sync.apply_patch_ms", "ms"},
      {"sync.patch_bytes", "B"},
  };
  for (const auto& [name, unit] : kUnits) {
    report.Set(name, sum[name], unit);
  }
  // Absent, not 0, when no allocation tracker is linked into the library.
  if (merge_allocs) {
    report.Set("util.allocs_per_merge",
               static_cast<double>(*merge_allocs) / static_cast<double>(docs.size()), "count");
    report.Set("util.allocs_per_event",
               static_cast<double>(*live_allocs) / static_cast<double>(total_events), "count");
  }
}

void ReportSelfTimes(const SpanLog& log, Report& report) {
  std::map<std::string, double> self = log.SelfMsByLayer();
  for (const char* layer : {"graph", "core", "crdt", "rope", "encoding", "lzhuf", "lz4", "sync",
                            "server", "probe"}) {
    report.Set(std::string(layer) + ".self_ms", self[layer], "ms");
  }
}

// --- The engine workloads -----------------------------------------------------

namespace {

constexpr int kSetupReps = 5;

void RunEngineWorkload(const RunArgs& args, egwalker::Trace (*make_history)(uint64_t),
                       const char* doc_name, const PhaseShare& share, Report& report,
                       SpanLog& log) {
  std::vector<DocInputs> docs(1);
  double setup_s = MedianSetupSeconds(kSetupReps, report, [&](bool keep, const auto& step) {
    DocInputs in;
    std::string why;
    egwalker::Trace history = make_history(args.seed);
    step();
    bool ok = DeriveDocInputs(doc_name, std::move(history), &in, &why, step);
    if (!report.Check(ok, why)) {
      return uint64_t{0};
    }
    uint64_t fingerprint = Fingerprint(in);
    if (keep) {
      docs[0] = std::move(in);
    }
    return fingerprint;
  });

  if (!args.trace) {
    report.Set("setup_s", setup_s, "s");
    ReportAtRest(docs, report);
    ReportTimed(RunDocPhases(docs, args.seconds, share, report, log), report);
    return;
  }
  SpanLog off(false, args.workload);
  PhasePass untraced = RunDocPhases(docs, args.seconds / 2, share, report, off);
  PhasePass traced = RunDocPhases(docs, args.seconds / 2, share, report, log);
  ProbeDocLayers(docs, report, log);
  ReportPassLayers(untraced, traced, report);
}

}  // namespace

void RunMergeConcurrent(const RunArgs& args, Report& report, SpanLog& log) {
  PhaseShare share;
  share.merge = 0.45;
  share.live = 0.15;
  share.open = 0.20;
  share.save = 0.15;
  share.edit = 0.05;
  RunEngineWorkload(args, MakeConcurrentHistory, "C1", share, report, log);
}

void RunEditSaveOpen(const RunArgs& args, Report& report, SpanLog& log) {
  PhaseShare share;
  share.merge = 0.15;
  share.live = 0.15;
  share.open = 0.25;
  share.save = 0.35;
  share.edit = 0.10;
  RunEngineWorkload(args, MakeSequentialHistory, "S1", share, report, log);
}

}  // namespace egbench
