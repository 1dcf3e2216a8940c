// trace_inspect: generate, inspect, and convert benchmark editing traces.
//
// Usage:
//   trace_inspect <name> [scale]          print Table-1-style statistics
//   trace_inspect <name> [scale] --json   also dump the trace as JSON
//   trace_inspect <name> [scale] --sizes  also report storage format sizes
//
// <name> is one of S1 S2 S3 C1 C2 A1 A2 (the paper's Table 1 presets).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/walker.h"
#include "encoding/columnar.h"
#include "encoding/size_models.h"
#include "trace/generate.h"
#include "trace/trace_json.h"

using namespace egwalker;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <S1|S2|S3|C1|C2|A1|A2> [scale] [--json] [--sizes]\n",
                 argv[0]);
    return 2;
  }
  std::string name = argv[1];
  double scale = 0.05;
  bool dump_json = false;
  bool dump_sizes = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      dump_json = true;
    } else if (std::strcmp(argv[i], "--sizes") == 0) {
      dump_sizes = true;
    } else {
      scale = std::atof(argv[i]);
    }
  }

  std::printf("generating %s at scale %.3f...\n", name.c_str(), scale);
  Trace trace = GenerateNamedTrace(name, scale);

  Walker walker(trace.graph, trace.ops);
  Rope doc;
  walker.ReplayAll(doc);
  TraceStats stats = ComputeStats(trace, doc.char_size(), doc.byte_size());

  std::printf("\n%-22s %s\n", "trace", stats.name.c_str());
  std::printf("%-22s %llu\n", "events", static_cast<unsigned long long>(stats.events));
  std::printf("%-22s %.2f\n", "avg concurrency", stats.avg_concurrency);
  std::printf("%-22s %llu\n", "graph runs", static_cast<unsigned long long>(stats.graph_runs));
  std::printf("%-22s %llu\n", "authors", static_cast<unsigned long long>(stats.authors));
  std::printf("%-22s %llu\n", "inserted chars",
              static_cast<unsigned long long>(stats.inserted_chars));
  std::printf("%-22s %.1f%%\n", "chars remaining", stats.chars_remaining_pct);
  std::printf("%-22s %.1f kB\n", "final size",
              static_cast<double>(stats.final_size_bytes) / 1000.0);

  if (dump_sizes) {
    std::vector<LvSpan> surviving = ComputeSurvivingChars(trace.graph, trace.ops);
    SaveOptions full;
    full.compress_columns = false;
    SaveOptions smol = full;
    smol.include_deleted_content = false;
    SaveOptions cached = full;
    cached.cache_final_doc = true;
    std::string text = doc.ToString();
    std::printf("\nstorage sizes (uncompressed, see Figures 11/12):\n");
    std::printf("  %-28s %8zu bytes\n", "event graph (full)", EncodeTrace(trace, full).size());
    std::printf("  %-28s %8zu bytes\n", "event graph + cached doc",
                EncodeTrace(trace, cached, text).size());
    std::printf("  %-28s %8zu bytes\n", "event graph (no deleted)",
                EncodeTrace(trace, smol, {}, &surviving).size());
    std::printf("  %-28s %8llu bytes\n", "automerge-like (model)",
                static_cast<unsigned long long>(AutomergeLikeSize(trace.graph, trace.ops)));
    std::printf("  %-28s %8llu bytes\n", "yjs-like (model)",
                static_cast<unsigned long long>(YjsLikeSize(trace.graph, trace.ops)));
    std::printf("  %-28s %8zu bytes\n", "raw final text", text.size());
  }

  if (dump_json) {
    std::printf("\n%s\n", TraceToJson(trace, 1).c_str());
  }
  return 0;
}
