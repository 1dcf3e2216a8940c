// The three workloads and the measurement phases they share.

#ifndef EGBENCH_WORKLOADS_H_
#define EGBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace egbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// How a workload splits its --seconds between the document phases.
struct PhaseShare {
  double merge = 0;  // Doc::Load of the whole-trace file (eg-walker merge).
  double live = 0;   // The history applied one run per ApplyRemoteChunks.
  double open = 0;   // Doc::LoadChain of the cached checkpoint segment.
  double save = 0;   // Doc::SaveSegment, compressed, text cached.
  double edit = 0;   // The keystroke script through Doc::Insert/Delete.
};

// What one measuring pass recorded, with the calibration of that pass.
struct PhasePass {
  TimedSamples merge_ms, open_ms, save_ms;
  TimedSamples edit_events_per_s;
  // Events per second: of the live phase on the engine workloads, of the
  // router replays on server-replay.
  TimedSamples replay_events_per_s;
  Calibration calibration;
};

// The document phases over a set of documents, as Scheduler phases (so a
// workload can interleave its own phases with them). Every operation's
// output is checked into `report` and every sample goes to `pass`; a phase
// with share 0 is skipped.
class DocPhases {
 public:
  DocPhases(const std::vector<DocInputs>& docs, const PhaseShare& share, Report& report,
            SpanLog& log, PhasePass& pass);
  // The scheduled operations point at this object: it must not move.
  DocPhases(const DocPhases&) = delete;
  DocPhases& operator=(const DocPhases&) = delete;

  void AddTo(Scheduler& scheduler);

 private:
  const std::vector<DocInputs>& docs_;
  PhaseShare share_;
  Report& report_;
  SpanLog& log_;
  PhasePass& pass_;
  std::vector<std::vector<std::string>> chains_;  // Each doc's one-segment chain.
  std::vector<std::vector<std::vector<egwalker::RemoteChunk>>> singles_;  // Runs, one per call.
  std::vector<egwalker::Doc> loaded_;  // Merged documents, for saving.
  uint64_t total_keys_ = 0;
  uint64_t total_events_ = 0;
};

// The at-rest metrics: bytes of the saved segments, and the mallinfo2 heap
// delta of reopening them all (held at once), measured on a fresh thread.
void ReportAtRest(const std::vector<DocInputs>& docs, Report& report);

// Runs the document phases alone for `seconds`.
PhasePass RunDocPhases(const std::vector<DocInputs>& docs, double seconds,
                       const PhaseShare& share, Report& report, SpanLog& log);

// The timed end-to-end metrics of a pass, at nominal machine speed.
void ReportTimed(const PhasePass& pass, Report& report);

// Traced run only: times calls into each layer's public functions on the
// same documents and reports the per-layer metrics of the engine layers
// (graph, core, crdt, rope, encoding, lzhuf, lz4, sync, util).
void ProbeDocLayers(const std::vector<DocInputs>& docs, Report& report, SpanLog& log);

// Traced run only, from its untraced and traced halves: the traced minus
// the untraced value of every timed end-to-end metric
// (trace.overhead.<metric>), the untraced half's values as measured on the
// wall clock (wall.<metric>), and the traced half's edit throughput and
// median calibration-kernel time.
void ReportPassLayers(const PhasePass& untraced, const PhasePass& traced, Report& report);
// Traced run only: each layer's self time from the span log.
void ReportSelfTimes(const SpanLog& log, Report& report);

// Median over `reps` runs of a set-up function, in seconds at nominal
// machine speed. `setup(keep, step)` calls step() between its steps (see
// NominalTimer); every run's inputs must fingerprint the same (same seed,
// same bytes).
template <typename Setup>
double MedianSetupSeconds(int reps, Report& report, Setup&& setup) {
  Samples seconds;
  uint64_t first = 0;
  for (int i = 0; i < reps; ++i) {
    NominalTimer timer;
    uint64_t fingerprint = setup(i == reps - 1, [&timer] { timer.Step(); });
    seconds.Add(timer.StopSeconds());
    if (i == 0) {
      first = fingerprint;
    }
    report.Check(fingerprint == first, "set-up is not deterministic for one seed");
  }
  return seconds.Median();
}

void RunMergeConcurrent(const RunArgs& args, Report& report, SpanLog& log);
void RunEditSaveOpen(const RunArgs& args, Report& report, SpanLog& log);
void RunServerReplay(const RunArgs& args, Report& report, SpanLog& log);

// Traced run of an engine workload: the server layers report 0, since no
// server runs.
void ReportServerAbsent(Report& report);

// The server workload's thread count: the main thread plus its shards.
int ServerThreads();

}  // namespace egbench

#endif  // EGBENCH_WORKLOADS_H_
