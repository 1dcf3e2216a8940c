// Canonical text form of a trace, for golden fixtures.
//
// One line per event:
//
//   <lv> <agent>:<seq> <- <parent lv> ... : ins <pos> U+<hex>
//   <lv> <agent>:<seq> <- <parent lv> ... : del <pos>
//
// Per-event lines make the dump independent of how the graph and the op
// log group events into runs, so two traces with the same events, parents
// and operations always dump identically, whichever encoder or decoder
// produced them.

#ifndef EGWALKER_TESTS_TESTING_TRACE_DUMP_H_
#define EGWALKER_TESTS_TESTING_TRACE_DUMP_H_

#include <cstdio>
#include <string>

#include "trace/trace.h"

namespace egwalker::testing {

inline std::string DumpTrace(const Trace& trace) {
  std::string out;
  char buf[32];
  for (Lv lv = 0; lv < trace.graph.size(); ++lv) {
    RawVersion raw = trace.graph.LvToRaw(lv);
    out += std::to_string(lv) + " " + raw.agent + ":" + std::to_string(raw.seq) + " <-";
    for (Lv p : trace.graph.ParentsOf(lv)) {
      out += " " + std::to_string(p);
    }
    Op op = trace.ops.OpAt(lv);
    if (op.kind == OpKind::kInsert) {
      std::snprintf(buf, sizeof(buf), " U+%04X", op.codepoint);
      out += " : ins " + std::to_string(op.pos) + buf + "\n";
    } else {
      out += " : del " + std::to_string(op.pos) + "\n";
    }
  }
  return out;
}

}  // namespace egwalker::testing

#endif  // EGWALKER_TESTS_TESTING_TRACE_DUMP_H_
