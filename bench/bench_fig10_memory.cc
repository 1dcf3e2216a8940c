// Figure 10: RAM used while merging an editing trace from a remote replica.
//
// Methodology: heap deltas via the tracking allocator (util/memtrack).
// For eg-walker and OT the measured scope decodes the event graph from its
// serialised form (the "disk" copy is allocated outside the scope), replays
// it, then frees everything except the document text — peak is measured
// inside the scope, steady state after it. For the CRDTs, the record state
// must stay alive (that is the point of Figure 10), so steady state is
// measured with the CRDT intact. The ID-based op stream fed to the CRDTs is
// preallocated outside the scope (it models the network stream).

#include "bench_common.h"

#include "crdt/naive_crdt.h"
#include "crdt/ref_crdt.h"
#include "encoding/columnar.h"
#include "ot/ot.h"
#include "util/memtrack.h"

namespace egwalker::bench {
namespace {

struct PaperFig10 {
  const char* name;
  double eg_peak_kib, eg_steady_kib, ot_peak_kib, ref_kib, yjs_kib, automerge_kib;
};
constexpr PaperFig10 kPaper[] = {
    {"S1", 4700, 597, 49000, 11700, 19500, 294000},
    {"S2", 7400, 324, 24800, 8500, 25700, 426000},
    {"S3", 14900, 233, 25300, 13000, 30300, 848000},
    {"C1", 68500, 1024, 337000, 30900, 27000, 462000},
    {"C2", 79500, 1024, 338000, 34000, 19800, 511000},
    {"A1", 7700, 72.9, 34900, 10300, 30200, 241000},
    {"A2", 8000, 432, 6920000, 6500, 24900, 271000},
};

using memtrack::CurrentBytes;
using memtrack::PeakBytes;
using memtrack::ResetPeak;

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv, kTraceSubset);
  PrintHeader("Figure 10: RAM while merging (heap deltas)", opts);
  std::printf("%-4s | %-22s %12s %12s | %12s %12s\n", "", "algorithm", "peak", "steady",
              "paper peak", "paper steady");

  // The "disk" copy: the v2 container, uncompressed.
  SaveOptions raw;
  raw.compress_columns = false;
  for (const PaperFig10& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    std::string file = EncodeTrace(bt.trace, raw);
    std::vector<CrdtOp> crdt_ops;
    {
      Walker walker(bt.trace.graph, bt.trace.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.enable_clearing = false;
      ReplaySinks sinks;
      sinks.crdt_ops = &crdt_ops;
      walker.ReplayAll(doc, wopts, sinks);
    }

    // --- eg-walker ---
    {
      Rope doc;
      size_t base = CurrentBytes();
      ResetPeak();
      size_t peak;
      {
        auto decoded = DecodeTrace(file);
        Walker walker(decoded->trace.graph, decoded->trace.ops);
        walker.ReplayAll(doc);
        peak = PeakBytes() - base;
      }
      size_t steady = CurrentBytes() - base;
      std::printf("%-4s | %-22s %12s %12s | %12s %12s\n", paper.name, "eg-walker",
                  FmtBytes(static_cast<double>(peak)).c_str(),
                  FmtBytes(static_cast<double>(steady)).c_str(),
                  FmtBytes(paper.eg_peak_kib * 1024).c_str(),
                  FmtBytes(paper.eg_steady_kib * 1024).c_str());
    }

    // --- OT (quadratic on the async traces: measure those at a capped
    // scale; the peak/steady *ratio* is what Figure 10 demonstrates) ---
    {
      bool is_async = paper.name[0] == 'A';
      double ot_scale = is_async ? std::min(opts.scale, 0.05) : opts.scale;
      std::string ot_file = file;
      if (ot_scale != opts.scale) {
        BenchTrace ot_bt = MakeBenchTrace(paper.name, ot_scale);
        ot_file = EncodeTrace(ot_bt.trace, raw);
      }
      std::string text;
      size_t base = CurrentBytes();
      ResetPeak();
      size_t peak;
      {
        auto decoded = DecodeTrace(ot_file);
        OtReplayer ot(decoded->trace.graph, decoded->trace.ops);
        text = ot.ReplayAll();
        peak = PeakBytes() - base;
      }
      size_t steady = CurrentBytes() - base;
      std::printf("%-4s | %-22s %12s %12s | %12s %12s%s\n", paper.name, "OT",
                  FmtBytes(static_cast<double>(peak)).c_str(),
                  FmtBytes(static_cast<double>(steady)).c_str(),
                  FmtBytes(paper.ot_peak_kib * 1024).c_str(),
                  FmtBytes(paper.eg_steady_kib * 1024).c_str(),
                  ot_scale != opts.scale ? "   (measured at capped scale)" : "");
    }

    // --- ref CRDT (state stays resident: steady == what it must keep) ---
    {
      size_t base = CurrentBytes();
      ResetPeak();
      RefCrdt crdt(bt.trace.graph);
      Rope doc;
      for (const CrdtOp& op : crdt_ops) {
        crdt.Apply(op, doc);
      }
      size_t peak = PeakBytes() - base;
      size_t steady = CurrentBytes() - base;
      std::printf("%-4s | %-22s %12s %12s | %12s %12s\n", paper.name, "ref CRDT",
                  FmtBytes(static_cast<double>(peak)).c_str(),
                  FmtBytes(static_cast<double>(steady)).c_str(), "-",
                  FmtBytes(paper.ref_kib * 1024).c_str());
    }

    // --- naive CRDT (per-character records) ---
    {
      size_t base = CurrentBytes();
      ResetPeak();
      NaiveCrdt crdt(bt.trace.graph);
      for (const CrdtOp& op : crdt_ops) {
        crdt.Apply(op);
      }
      size_t peak = PeakBytes() - base;
      size_t steady = CurrentBytes() - base;
      std::printf("%-4s | %-22s %12s %12s | %12s %12s   (paper: Yjs/Automerge)\n", paper.name,
                  "naive CRDT", FmtBytes(static_cast<double>(peak)).c_str(),
                  FmtBytes(static_cast<double>(steady)).c_str(),
                  FmtBytes(paper.yjs_kib * 1024).c_str(),
                  FmtBytes(paper.automerge_kib * 1024).c_str());
    }
    std::printf("-----+\n");
  }
  std::printf("\nNote: measured values scale with --scale; compare ratios between\n");
  std::printf("algorithms and the peak/steady split, not absolute KiB.\n");
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
