// Seeded inputs of the three workloads. Everything here is set-up: it is
// built before measuring, and every byte of it is a function of --seed.

#ifndef EGBENCH_INPUTS_H_
#define EGBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/doc.h"
#include "encoding/columnar.h"
#include "server/netsim.h"
#include "server/protocol.h"
#include "trace/trace.h"

namespace egbench {

// One typed key: inserts key_text[text_off, text_off + text_len) at `pos`,
// or deletes the character at `pos` when text_len is 0.
struct Keystroke {
  uint64_t pos = 0;
  uint32_t text_off = 0;
  uint32_t text_len = 0;
};

// One document's history and everything derived from it.
struct DocInputs {
  std::string name;
  egwalker::Trace trace;
  // Final text computed by the OT replayer: an implementation that shares
  // no merge code with eg-walker, so a wrong merge cannot also produce it.
  std::string reference;
  // v2 whole-trace file without cached text (the Fig. 8 merge input).
  std::string file;
  // v2 checkpoint segment of the whole history, compressed, text cached.
  std::string segment;
  // The history's transformed-op stream split into single keystrokes: the
  // sequence of local edits that types the final text.
  std::string key_text;
  std::vector<Keystroke> keys;
  // The history as causal event runs with explicit parents, for applying
  // one run per call the way a live replica receives them.
  std::vector<egwalker::RemoteChunk> chunks;

  uint64_t events() const { return trace.graph.size(); }
};

// Save settings of the whole-trace file and of checkpoint segments: v2,
// per-column compression, as the server's registry writes them.
egwalker::SaveOptions FileOptions();
egwalker::SaveOptions SegmentOptions(bool compress);

// Called between the steps of a set-up task (it lets the set-up timer
// calibrate between them; see NominalTimer).
using StepFn = std::function<void()>;

// Derives a DocInputs from a history. Returns false when the derivation's
// own cross-checks fail (eg-walker disagreeing with the OT reference, or a
// saved file not reopening to the reference text).
bool DeriveDocInputs(std::string name, egwalker::Trace trace, DocInputs* out,
                     std::string* why, const StepFn& step = [] {});

// C1-shaped two-author concurrent history (Table 1 C1 parameters at 0.25
// scale, ~163k events) and S1-shaped sequential history (~195k events).
egwalker::Trace MakeConcurrentHistory(uint64_t seed);
egwalker::Trace MakeSequentialHistory(uint64_t seed);

// --- server-replay ----------------------------------------------------------

struct ServerShape {
  int docs = 8;
  int writers = 8;
  int readers = 16;
  double reader_sync_prob = 0.1;
  int ticks = 48;
  size_t resident_per_shard = 3;
  int shards = 2;
  uint64_t flush_every_events = 64;
};

struct RecordedMsg {
  uint64_t tick = 0;
  int from = -1;
  egwalker::Message msg;
};

// The inbound message stream of a seeded churn run through a plain Broker,
// plus the state of that recording universe at the end.
struct Recording {
  ServerShape shape;
  std::vector<RecordedMsg> msgs;  // In delivery order, ticks ascending.
  int endpoints = 0;              // Server + clients.
  std::vector<std::string> doc_names;
  // The recording server's final documents, reloaded from their chains.
  std::vector<DocInputs> docs;
  std::vector<egwalker::VersionSummary> summaries;  // Of each final doc.
  uint64_t convergence_p99 = 0;   // Simulated ticks, push to all replicas.
  uint64_t pending_edits = 0;     // Pushed edits never seen everywhere.
};

egwalker::NetSimConfig ServerNetConfig(uint64_t seed);
bool RecordServer(uint64_t seed, const ServerShape& shape, Recording* out, std::string* why,
                  const StepFn& step = [] {});

// Byte fingerprints of the inputs (the determinism checks compare these).
uint64_t Fingerprint(const DocInputs& doc);
uint64_t Fingerprint(const Recording& rec);

}  // namespace egbench

#endif  // EGBENCH_INPUTS_H_
