// Shared helpers for the benchmark binaries.
//
// The bench binaries accept these flags, each binary only those it
// honours (see Flag below):
//   --scale=<f>   trace scale relative to the paper's normalised sizes
//                 (1.0 = Table 1 sizes, roughly 0.6M-2.3M events per trace)
//   --quick       shorthand for a very small scale (smoke testing)
//   --trace=<n>   restrict to a comma-separated subset of the traces
//                 (S1 S2 S3 C1 C2 A1 A2) — OR, when the value ends in
//                 ".json", write a Chrome trace_event file there instead
//                 (obs/trace.h; open it in chrome://tracing or Perfetto;
//                 bench_server only). Editing-trace names never contain a
//                 dot, so the two uses cannot collide.
//   --metrics=<p> write the aggregated metrics registry (obs/metrics.h) as
//                 JSON to <p>: per-phase counters, convergence-latency
//                 histograms, backpressure counts (bench_server only)
//   --json=<p>    additionally write the measurements as structured JSON to
//                 <p>, so successive PRs can track the perf trajectory in
//                 committed BENCH_*.json files
//   --shards=<n>  bench_server only: force every scenario through n shards
//
// --scale and --quick apply everywhere; ParseArgs rejects any other flag a
// binary does not honour with exit status 2 — a flag either does what it
// says or errors, it is never silently ignored.
//
// Timing methodology mirrors the paper where practical: each measurement is
// repeated until a time budget is used (at least twice), reporting the mean.
// We run everything in one process, so heap measurements are deltas against
// the live baseline rather than RSS of a fresh process.

#ifndef EGWALKER_BENCH_BENCH_COMMON_H_
#define EGWALKER_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/walker.h"
#include "rope/rope.h"
#include "trace/generate.h"
#include "trace/trace.h"
#include "util/json.h"

namespace egwalker::bench {

struct Options {
  double scale = 0.25;
  std::vector<std::string> traces = {"S1", "S2", "S3", "C1", "C2", "A1", "A2"};
  double time_budget_s = 1.0;  // Per measurement.
  std::string json_path;       // Empty: no JSON output.
  std::string trace_path;      // --trace=<p>.json: Chrome trace output.
  std::string metrics_path;    // --metrics=<p>: metrics registry JSON.
  // bench_server only: force every scenario through N shard worker threads
  // (0 = the legacy directly-attached broker; -1 = per-scenario default).
  int shards = -1;
};

// The optional flags a bench binary honours (ParseArgs' `honoured` mask).
enum Flag : unsigned {
  kTraceSubset = 1u << 0,  // --trace=<names>
  kTraceOut = 1u << 1,     // --trace=<p>.json
  kMetricsOut = 1u << 2,   // --metrics=<p>
  kJsonOut = 1u << 3,      // --json=<p>
  kShards = 1u << 4,       // --shards=<n>
};

inline bool IsTraceOutArg(const char* arg) {
  // Editing-trace names never contain a dot (see the file comment).
  size_t n = std::strlen(arg);
  return std::strncmp(arg, "--trace=", 8) == 0 && n > 13 &&
         std::strcmp(arg + n - 5, ".json") == 0;
}

// The Flag bit `arg` needs, or 0 for the flags every binary takes.
inline unsigned FlagOf(const char* arg) {
  if (IsTraceOutArg(arg)) {
    return kTraceOut;
  }
  if (std::strncmp(arg, "--trace=", 8) == 0) {
    return kTraceSubset;
  }
  if (std::strncmp(arg, "--metrics=", 10) == 0) {
    return kMetricsOut;
  }
  if (std::strncmp(arg, "--json=", 7) == 0) {
    return kJsonOut;
  }
  if (std::strncmp(arg, "--shards=", 9) == 0) {
    return kShards;
  }
  return 0;
}

inline Options ParseArgs(int argc, char** argv, unsigned honoured) {
  // Line-buffer stdout even when piped, so `| tee` captures progress live.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if ((FlagOf(arg) & ~honoured) != 0) {
      std::fprintf(stderr, "%s: %s is not supported by this benchmark\n", argv[0], arg);
      std::exit(2);
    }
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opts.scale = std::atof(arg + 8);
    } else if (std::strcmp(arg, "--quick") == 0) {
      opts.scale = 0.02;
      opts.time_budget_s = 0.2;
    } else if (IsTraceOutArg(arg)) {
      opts.trace_path = std::string(arg + 8);  // Output path, not a subset.
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      std::string list(arg + 8);
      opts.traces.clear();
      size_t from = 0;
      while (from <= list.size()) {
        size_t comma = list.find(',', from);
        if (comma == std::string::npos) {
          comma = list.size();
        }
        if (comma > from) {
          opts.traces.push_back(list.substr(from, comma - from));
        }
        from = comma + 1;
      }
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = std::string(arg + 7);
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      opts.metrics_path = std::string(arg + 10);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opts.shards = std::atoi(arg + 9);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      std::exit(2);
    }
  }
  return opts;
}

// Collects one row per (trace, algorithm) measurement and, when the binary
// was given --json=<path>, writes them as a JSON document on destruction:
//
//   {"bench": "...", "scale": 0.25,
//    "rows": [{"trace": "S1", "algorithm": "...", "mean_ms": 1.23, ...}]}
//
// Annotate() attaches extra fields (e.g. peak_spans) to the last-added row.
#if defined(__GNUC__) && !defined(__clang__)
// gcc 12 flags the inlined moves of Json's variant-of-vector alternatives as
// maybe-uninitialized at -O2; a known false positive (gcc PR 105593 family).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
class JsonReport {
 public:
  JsonReport(std::string bench, const Options& opts)
      : bench_(std::move(bench)), scale_(opts.scale), path_(opts.json_path) {}

  ~JsonReport() {
    if (path_.empty()) {
      return;
    }
    JsonObject doc;
    doc.emplace_back("bench", Json(bench_));
    doc.emplace_back("scale", Json(scale_));
    doc.emplace_back("rows", Json(std::move(rows_)));
    std::string text = Json(std::move(doc)).Dump(2);
    text += '\n';
    if (FILE* f = std::fopen(path_.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    }
  }

  void Add(const std::string& trace, const std::string& algorithm, double mean_ms) {
    JsonObject row;
    row.emplace_back("trace", Json(trace));
    row.emplace_back("algorithm", Json(algorithm));
    row.emplace_back("mean_ms", Json(mean_ms));
    rows_.emplace_back(Json(std::move(row)));
  }

  void Annotate(const std::string& key, Json value) {
    if (!rows_.empty()) {
      rows_.back().as_object().emplace_back(key, std::move(value));
    }
  }

 private:
  std::string bench_;
  double scale_;
  std::string path_;
  JsonArray rows_;
};
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// Runs `fn` repeatedly until the budget is exhausted (at least twice unless
// a single run already exceeds it); returns the mean milliseconds.
inline double TimeMs(const std::function<void()>& fn, double budget_s = 1.0) {
  using Clock = std::chrono::steady_clock;
  double total_ms = 0;
  int iterations = 0;
  for (;;) {
    auto t0 = Clock::now();
    fn();
    total_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    ++iterations;
    if (total_ms / 1000.0 >= budget_s && iterations >= 2) {
      break;
    }
    if (total_ms / 1000.0 >= budget_s * 4) {
      break;  // A single very slow run: do not repeat.
    }
  }
  return total_ms / iterations;
}

inline std::string FmtMs(double ms) {
  char buf[48];
  if (ms >= 60000) {
    std::snprintf(buf, sizeof(buf), "%.1f min", ms / 60000.0);
  } else if (ms >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2f sec", ms / 1000.0);
  } else if (ms >= 1) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ms);
  }
  return buf;
}

inline std::string FmtBytes(double b) {
  char buf[48];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", b / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  }
  return buf;
}

// A generated trace plus its replay result (most benches need both).
struct BenchTrace {
  Trace trace;
  std::string final_text;
  uint64_t final_chars = 0;
};

inline BenchTrace MakeBenchTrace(const std::string& name, double scale) {
  BenchTrace bt;
  bt.trace = GenerateNamedTrace(name, scale);
  Walker walker(bt.trace.graph, bt.trace.ops);
  Rope doc;
  walker.ReplayAll(doc);
  bt.final_text = doc.ToString();
  bt.final_chars = doc.char_size();
  return bt;
}

inline void PrintHeader(const char* title, const Options& opts) {
  std::printf("==========================================================================\n");
  std::printf("%s\n", title);
  std::printf("trace scale: %.3f of the paper's normalised sizes (use --scale=1.0 for\n",
              opts.scale);
  std::printf("full-size traces); absolute numbers depend on this machine — compare the\n");
  std::printf("*relative* shape against the paper's figures (see EXPERIMENTS.md).\n");
  std::printf("==========================================================================\n");
}

}  // namespace egwalker::bench

#endif  // EGWALKER_BENCH_BENCH_COMMON_H_
