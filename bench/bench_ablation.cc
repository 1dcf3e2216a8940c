// Ablations for the design choices called out in DESIGN.md:
//
//   1. Topological-sort heuristic (Section 3.2/3.7): small-branch-first vs
//      plain LV order vs an adversarial branch-interleaving order. The
//      paper notes a poorly chosen order can make high-concurrency traces
//      ~8x slower.
//   2. B-tree vs linear internal state (Section 3.4): the optimised walker
//      against the pseudocode walker's O(n) scans, on sizes the latter can
//      still handle.
//   3. Run-length encoding: internal-state record spans vs per-character
//      records (the memory argument for RLE), using walker span counts vs
//      the naive CRDT's item count on the same trace.

#include "bench_common.h"

#include "core/simple_walker.h"
#include "crdt/naive_crdt.h"

namespace egwalker::bench {
namespace {

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv, kTraceSubset);
  PrintHeader("Ablations: sort heuristic, B-tree, run-length encoding", opts);

  // --- 1. Sort order on concurrency-heavy traces ---
  std::printf("\n[1] topological sort order (merge time)\n");
  std::printf("%-4s | %12s %12s %12s %10s\n", "", "heuristic", "lv order", "adversarial",
              "worst/best");
  for (const char* name : {"C1", "C2", "A2"}) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(name, opts.scale);
    double times[3];
    SortMode modes[3] = {SortMode::kHeuristic, SortMode::kLvOrder, SortMode::kAdversarial};
    for (int m = 0; m < 3; ++m) {
      Walker::Options wopts;
      wopts.sort_mode = modes[m];
      times[m] = TimeMs(
          [&] {
            Walker walker(bt.trace.graph, bt.trace.ops);
            Rope doc;
            walker.ReplayAll(doc, wopts);
          },
          opts.time_budget_s / 2);
    }
    double best = std::min({times[0], times[1], times[2]});
    double worst = std::max({times[0], times[1], times[2]});
    std::printf("%-4s | %12s %12s %12s %9.1fx\n", name, FmtMs(times[0]).c_str(),
                FmtMs(times[1]).c_str(), FmtMs(times[2]).c_str(), worst / best);
  }

  // --- 2. B-tree vs linear internal state ---
  std::printf("\n[2] internal state structure (replay time, clearing disabled for both)\n");
  std::printf("%-10s | %12s %12s %10s\n", "trace", "B-tree", "linear", "speedup");
  {
    // The linear oracle is O(n) per event; keep it to sizes it can handle.
    double small_scale = std::min(opts.scale, 0.01);
    for (const char* name : {"S2", "C2"}) {
      BenchTrace bt = MakeBenchTrace(name, small_scale);
      Walker::Options wopts;
      wopts.enable_clearing = false;
      double tree_ms = TimeMs(
          [&] {
            Walker walker(bt.trace.graph, bt.trace.ops);
            Rope doc;
            walker.ReplayAll(doc, wopts);
          },
          opts.time_budget_s / 2);
      double linear_ms = TimeMs(
          [&] {
            SimpleWalker walker(bt.trace.graph, bt.trace.ops);
            walker.ReplayAll();
          },
          opts.time_budget_s / 2);
      std::printf("%-6s@%.2f | %12s %12s %9.1fx\n", name, small_scale, FmtMs(tree_ms).c_str(),
                  FmtMs(linear_ms).c_str(), linear_ms / tree_ms);
    }
  }

  // --- 3. RLE: record spans vs per-character records ---
  std::printf("\n[3] run-length encoding (internal records at end of replay)\n");
  std::printf("%-4s | %14s %14s %10s\n", "", "walker spans", "per-char items", "ratio");
  for (const char* name : {"S2", "C2", "A2"}) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(name, opts.scale);
    Walker walker(bt.trace.graph, bt.trace.ops);
    Rope doc;
    Walker::Options wopts;
    wopts.enable_clearing = false;
    std::vector<CrdtOp> crdt_ops;
    ReplaySinks sinks;
    sinks.crdt_ops = &crdt_ops;
    walker.ReplayAll(doc, wopts, sinks);
    NaiveCrdt naive(bt.trace.graph);
    for (const CrdtOp& op : crdt_ops) {
      naive.Apply(op);
    }
    size_t spans = walker.tree().span_count();
    size_t items = naive.item_count();
    std::printf("%-4s | %14zu %14zu %9.1fx\n", name, spans, items,
                static_cast<double>(items) / static_cast<double>(spans));
  }
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
