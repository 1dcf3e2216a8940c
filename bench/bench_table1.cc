// Table 1: statistics of the editing traces.
//
// Regenerates the paper's Table 1 for the synthetic traces, side by side
// with the published values (at scale 1.0 the Events column should match
// the paper's; other columns are scale-invariant shapes).

#include "bench_common.h"

namespace egwalker::bench {
namespace {

struct PaperRow {
  const char* name;
  const char* type;
  double events_k;
  double avg_conc;
  double runs;
  int authors;
  double remaining_pct;
  double final_kb;
};

constexpr PaperRow kPaper[] = {
    {"S1", "sequential", 779, 0.00, 1, 2, 57.5, 307.2},
    {"S2", "sequential", 1105, 0.00, 1, 1, 26.7, 166.3},
    {"S3", "sequential", 2339, 0.00, 1, 2, 9.9, 119.5},
    {"C1", "concurrent", 652, 0.43, 92101, 2, 90.1, 521.5},
    {"C2", "concurrent", 608, 0.44, 133626, 2, 93.0, 516.3},
    {"A1", "asynchronous", 947, 0.10, 101, 194, 7.8, 37.2},
    {"A2", "asynchronous", 698, 6.11, 2430, 299, 49.6, 222.0},
};

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv, kTraceSubset);
  PrintHeader("Table 1: editing trace statistics (ours vs paper)", opts);
  std::printf("%-4s %-13s | %10s %8s %9s %7s %7s %9s\n", "", "", "Events(k)", "AvgConc",
              "Runs", "Authors", "Rem(%)", "Final(kB)");
  for (const PaperRow& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    TraceStats s = ComputeStats(bt.trace, bt.final_chars, bt.final_text.size());
    std::printf("%-4s %-13s | %10.1f %8.2f %9llu %7llu %7.1f %9.1f   (ours)\n", paper.name,
                paper.type, static_cast<double>(s.events) / 1000.0, s.avg_concurrency,
                static_cast<unsigned long long>(s.graph_runs),
                static_cast<unsigned long long>(s.authors), s.chars_remaining_pct,
                static_cast<double>(s.final_size_bytes) / 1000.0);
    std::printf("%-4s %-13s | %10.1f %8.2f %9.0f %7d %7.1f %9.1f   (paper, scaled)\n", "", "",
                paper.events_k * opts.scale, paper.avg_conc,
                std::max(1.0, paper.runs * opts.scale), paper.authors, paper.remaining_pct,
                paper.final_kb * opts.scale);
  }
  std::printf("\nNote: Events and Runs scale with --scale; AvgConc, Authors, Rem%% and the\n");
  std::printf("Final/Events ratio are scale-invariant targets.\n");
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
