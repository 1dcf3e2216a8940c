// Figure 9: effect of the internal-state clearing optimisation
// (Section 3.5): replay time with the optimisation enabled vs disabled.
//
// The paper's observation: the optimisation is a large win on traces with
// mostly-sequential histories (S1-S3, A1) and makes little difference on
// heavily concurrent traces (C1, C2, A2 — A2 contains no critical
// versions at all).

#include "bench_common.h"

namespace egwalker::bench {
namespace {

struct PaperFig9 {
  const char* name;
  double enabled_ms, disabled_ms;
};
constexpr PaperFig9 kPaper[] = {
    {"S1", 1.8, 9.8},  {"S2", 2.7, 17.1}, {"S3", 3.6, 24.4}, {"C1", 56.1, 69.8},
    {"C2", 82.6, 95.4}, {"A1", 8.9, 23.9}, {"A2", 23.5, 23.7},
};

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv, kTraceSubset);
  PrintHeader("Figure 9: state-clearing optimisation on/off", opts);
  std::printf("%-4s | %12s %12s %8s | %12s %12s %8s\n", "", "opt on", "opt off", "speedup",
              "paper on", "paper off", "speedup");
  for (const PaperFig9& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    Walker::Options on;
    Walker::Options off;
    off.enable_clearing = false;
    double on_ms = TimeMs(
        [&] {
          Walker walker(bt.trace.graph, bt.trace.ops);
          Rope doc;
          walker.ReplayAll(doc, on);
        },
        opts.time_budget_s);
    double off_ms = TimeMs(
        [&] {
          Walker walker(bt.trace.graph, bt.trace.ops);
          Rope doc;
          walker.ReplayAll(doc, off);
        },
        opts.time_budget_s);
    std::printf("%-4s | %12s %12s %7.1fx | %12s %12s %7.1fx\n", paper.name,
                FmtMs(on_ms).c_str(), FmtMs(off_ms).c_str(), off_ms / on_ms,
                FmtMs(paper.enabled_ms).c_str(), FmtMs(paper.disabled_ms).c_str(),
                paper.disabled_ms / paper.enabled_ms);
  }
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
