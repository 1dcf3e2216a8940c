// egbench: the seeded end-to-end benchmark of the eg-walker library.
//
//   egbench --workload <merge-concurrent|edit-save-open|server-replay>
//           --seed <n> --seconds <n> --trace <0|1>
//           [--spans-out <path>] [--git-sha <sha>]
//   egbench --check-inputs --seed <n> --held-out-seed <n>
//
// Prints an environment line, one line per metric, and, last, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (and writes its
// spans to --spans-out). --check-inputs verifies that a seed reproduces its
// inputs byte for byte and that another seed gives different inputs of the
// same shape. Every flag is required to do what it says: unknown flags,
// workloads, and flags that would have no effect are errors (exit 2).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace egbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "egbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: egbench --workload <merge-concurrent|edit-save-open|server-replay> "
               "--seed <n> --seconds <n> --trace <0|1> [--spans-out <path>] [--git-sha <sha>]\n"
               "       egbench --check-inputs --seed <n> --held-out-seed <n>\n");
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    Usage(std::string(flag) + " takes a whole number, not '" + text + "'");
  }
  return v;
}

// Shape of one seed's inputs, compared across seeds.
struct Shape {
  uint64_t events = 0;
  uint64_t agents = 0;
  uint64_t final_chars = 0;
  uint64_t messages = 0;
};

bool Near(uint64_t a, uint64_t b, double tolerance) {
  double hi = static_cast<double>(std::max(a, b));
  return hi == 0 || std::fabs(static_cast<double>(a) - static_cast<double>(b)) <= tolerance * hi;
}

int CheckInputs(uint64_t seed, uint64_t held_out) {
  Report report;
  std::string why;
  auto doc_shape = [](const DocInputs& in) {
    return Shape{in.events(), in.trace.graph.agent_count(),
                 static_cast<uint64_t>(in.reference.size()), 0};
  };
  auto engine = [&](const char* name, egwalker::Trace (*make)(uint64_t)) {
    DocInputs a, again, other;
    bool ok = DeriveDocInputs(name, make(seed), &a, &why) &&
              DeriveDocInputs(name, make(seed), &again, &why) &&
              DeriveDocInputs(name, make(held_out), &other, &why);
    if (!report.Check(ok, why)) {
      return;
    }
    Shape sa = doc_shape(a), so = doc_shape(other);
    std::printf("%s: seed %llu -> %llu events, %llu agents, %llu chars; seed %llu -> %llu, %llu, %llu\n",
                name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sa.events), static_cast<unsigned long long>(sa.agents),
                static_cast<unsigned long long>(sa.final_chars), static_cast<unsigned long long>(held_out),
                static_cast<unsigned long long>(so.events), static_cast<unsigned long long>(so.agents),
                static_cast<unsigned long long>(so.final_chars));
    report.Check(Fingerprint(a) == Fingerprint(again) && a.file == again.file,
                 std::string(name) + ": one seed gave two different inputs");
    report.Check(Fingerprint(a) != Fingerprint(other) && a.file != other.file,
                 std::string(name) + ": two seeds gave identical inputs");
    report.Check(Near(sa.events, so.events, 0.02) && sa.agents == so.agents &&
                     Near(sa.final_chars, so.final_chars, 0.25),
                 std::string(name) + ": two seeds gave inputs of different shape");
  };
  engine("merge-concurrent", MakeConcurrentHistory);
  engine("edit-save-open", MakeSequentialHistory);

  Recording a, again, other;
  bool ok = RecordServer(seed, ServerShape{}, &a, &why) &&
            RecordServer(seed, ServerShape{}, &again, &why) &&
            RecordServer(held_out, ServerShape{}, &other, &why);
  if (report.Check(ok, why)) {
    auto rec_shape = [](const Recording& rec) {
      Shape s;
      for (const DocInputs& doc : rec.docs) {
        s.events += doc.events();
        s.agents += doc.trace.graph.agent_count();
        s.final_chars += doc.reference.size();
      }
      s.messages = rec.msgs.size();
      return s;
    };
    Shape sa = rec_shape(a), so = rec_shape(other);
    std::printf("server-replay: seed %llu -> %llu events, %llu msgs, %llu chars; seed %llu -> %llu, %llu, %llu\n",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(sa.events),
                static_cast<unsigned long long>(sa.messages),
                static_cast<unsigned long long>(sa.final_chars),
                static_cast<unsigned long long>(held_out), static_cast<unsigned long long>(so.events),
                static_cast<unsigned long long>(so.messages),
                static_cast<unsigned long long>(so.final_chars));
    report.Check(Fingerprint(a) == Fingerprint(again),
                 "server-replay: one seed gave two different recordings");
    report.Check(Fingerprint(a) != Fingerprint(other),
                 "server-replay: two seeds gave identical recordings");
    report.Check(a.docs.size() == other.docs.size() && a.endpoints == other.endpoints &&
                     Near(sa.events, so.events, 0.1) && Near(sa.messages, so.messages, 0.1),
                 "server-replay: two seeds gave recordings of different shape");
  }
  std::printf("check-inputs: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  return report.failed() == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  RunArgs args;
  bool have_workload = false, have_seconds = false, have_trace = false, check_inputs = false;
  bool have_held_out = false;
  uint64_t held_out = 0;
  std::string spans_out, git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--check-inputs") {
      check_inputs = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned("--seed", value);
    } else if (flag == "--held-out-seed") {
      held_out = ParseUnsigned("--held-out-seed", value);
      have_held_out = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUnsigned("--seconds", value));
      if (args.seconds < 1) {
        Usage("--seconds must be at least 1");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }

  if (check_inputs) {
    if (have_workload || have_seconds || have_trace || !spans_out.empty() || !have_held_out) {
      Usage("--check-inputs takes only --seed and --held-out-seed");
    }
    return CheckInputs(args.seed, held_out);
  }
  if (have_held_out) {
    Usage("--held-out-seed only applies to --check-inputs");
  }
  if (!have_workload || !have_seconds || !have_trace) {
    Usage("--workload, --seconds and --trace are required");
  }
  if (!spans_out.empty() && !args.trace) {
    Usage("--spans-out needs --trace 1 (an untraced run records no spans)");
  }

  void (*run)(const RunArgs&, Report&, SpanLog&) = nullptr;
  int threads = 1;
  if (args.workload == "merge-concurrent") {
    run = RunMergeConcurrent;
  } else if (args.workload == "edit-save-open") {
    run = RunEditSaveOpen;
  } else if (args.workload == "server-replay") {
    run = RunServerReplay;
    threads = ServerThreads();
  } else {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (threads > CpuCount()) {
    std::fprintf(stderr, "egbench: %s needs %d threads but nproc is %d; refusing to start\n",
                 args.workload.c_str(), threads, CpuCount());
    return 3;
  }

  PinMallocThresholds();
  PrintEnvironment(args.workload, args.seed, threads, git_sha);
  Report report;
  SpanLog log(args.trace, args.workload);
  run(args, report, log);
  if (args.trace) {
    if (args.workload != "server-replay") {
      ReportServerAbsent(report);
    }
    ReportSelfTimes(log, report);
    if (!spans_out.empty()) {
      report.Check(log.WriteJson(spans_out), "cannot write spans to " + spans_out);
      std::printf("spans: %zu written to %s\n", log.size(), spans_out.c_str());
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace egbench

int main(int argc, char** argv) { return egbench::Main(argc, argv); }
