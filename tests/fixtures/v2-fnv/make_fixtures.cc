// Generator for the golden v2 fixtures in this directory: v2 files whose
// header leaves flag bit 5 clear, so their column checksums are FNV-1a-32
// and no directory checksum follows the directory (docs/EGWS.md,
// "Checksums").
//
// The library now writes every v2 file with bit 5 set, so this program is
// not part of the build: it compiles only against the last commit whose
// encoder left the bit clear (4308aef). It is kept so the fixtures can be
// checked and regenerated from that commit:
//
//   mkdir fnvsrc && git archive 4308aef | tar -x -C fnvsrc
//   cmake -B fnvsrc/build -S fnvsrc && cmake --build fnvsrc/build --target egwalker
//   g++ -std=c++20 -O2 -Ifnvsrc/src -Ifnvsrc/tests tests/fixtures/v2-fnv/make_fixtures.cc \
//       fnvsrc/build/libegwalker.a -lpthread -o make_fixtures
//   ./make_fixtures tests/fixtures/v2-fnv
//
// Outputs (every file v2, columns compressed as the encoder chose):
//   trace-cached.egwk     a whole-trace file with cache_final_doc = true
//   trace.dump            its expected trace (testing::DumpTrace)
//   trace.txt             its final text
//   chain-{0,1,2}.egws    a three-segment chain saved by a "!server" replica,
//                         every segment with cache_final_doc; segment 2 also
//                         with checkpoint_session_state
//   chain.dump, chain.txt the chain's expected trace and final text

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/doc.h"
#include "core/walker.h"
#include "encoding/columnar.h"
#include "testing/random_trace.h"
#include "testing/trace_dump.h"

namespace egwalker {
namespace {

std::string g_dir;

void Write(const std::string& name, const std::string& bytes) {
  std::ofstream(g_dir + "/" + name, std::ios::binary) << bytes;
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "check failed: %s\n", what);
    std::exit(1);
  }
}

// Bit 5 of the header's flags byte must be clear: that is what these
// fixtures stand for.
void RequireFnvFile(const std::string& bytes) {
  Require(bytes.size() > 5 && bytes[4] == 2, "v2 container");
  Require((static_cast<unsigned char>(bytes[5]) & (1 << 5)) == 0, "flag bit 5 clear");
}

std::string Replay(const Trace& t) {
  Walker walker(t.graph, t.ops);
  Rope doc;
  walker.ReplayAll(doc);
  return doc.ToString();
}

void WriteTraceFixtures() {
  testing::RandomTraceOptions ropts;
  ropts.seed = 82;
  Trace t = testing::MakeRandomTrace(ropts);
  // Multi-byte UTF-8, and repeats so the columns compress.
  AgentId u = t.graph.GetOrCreateAgent("unicode");
  t.AppendInsert(u, t.graph.version(), 0,
                 "héllo 世界 😀 héllo 世界 😀 héllo 世界 😀 héllo 世界 😀 héllo 世界 😀 ");
  const std::string text = Replay(t);

  SaveOptions cached;
  cached.cache_final_doc = true;
  const std::string bytes = EncodeTrace(t, cached, text);
  RequireFnvFile(bytes);
  auto decoded = DecodeTrace(bytes);
  Require(decoded && testing::DumpTrace(decoded->trace) == testing::DumpTrace(t), "trace");
  Require(decoded->cached_doc == text, "cached text");

  Write("trace-cached.egwk", bytes);
  Write("trace.dump", testing::DumpTrace(t));
  Write("trace.txt", text);
}

void WriteChainFixtures() {
  Doc server("!server");
  Doc alice("alice");
  Doc bob("bob");
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::vector<std::string> chain;
  Lv checkpoint = 0;
  auto save = [&](const SaveOptions& o) {
    chain.push_back(server.SaveSegment(checkpoint, o));
    checkpoint = server.end_lv();
  };

  for (int i = 0; i < 6; ++i) {
    alice.Insert(alice.size(), "a checksummed prefix, typed again. ");
  }
  server.MergeFrom(alice);
  save(opts);

  bob.MergeFrom(server);
  alice.Insert(alice.size(), "alice was here. alice was here. alice was here. ");
  bob.Insert(0, "bob: ");
  bob.Delete(5, 7);
  server.MergeFrom(alice);
  server.MergeFrom(bob);
  save(opts);

  alice.MergeFrom(server);
  alice.Insert(3, "ü€");
  bob.Insert(bob.size(), " 😀 end");
  server.Insert(0, "[srv] ");
  server.MergeFrom(alice);
  server.MergeFrom(bob);
  SaveOptions state = opts;
  state.checkpoint_session_state = true;
  save(state);

  bool compressed = false;
  for (const std::string& seg : chain) {
    RequireFnvFile(seg);
    auto info = PeekSegment(seg);
    Require(info.has_value(), "segment peeks");
    for (const SegmentColumn& col : info->columns) {
      compressed = compressed || col.codec != 0;
    }
  }
  Require(compressed, "some column is compressed");
  auto last = PeekSegment(chain.back());
  Require(last->anchor.lv != kInvalidLv && last->has_session_state,
          "final segment carries anchor and session state");
  auto loaded = Doc::LoadChain(chain, "!server");
  Require(loaded && loaded->Text() == server.Text(), "chain reload");
  loaded->EnsureOpsFor(0);  // The load skipped every segment's ops lazily.
  Require(testing::DumpTrace(loaded->trace()) == testing::DumpTrace(server.trace()), "chain trace");

  for (size_t i = 0; i < chain.size(); ++i) {
    Write("chain-" + std::to_string(i) + ".egws", chain[i]);
  }
  Write("chain.dump", testing::DumpTrace(server.trace()));
  Write("chain.txt", server.Text());
  std::printf("chain anchor lv=%llu doc_len=%llu events=%llu\n",
              static_cast<unsigned long long>(last->anchor.lv),
              static_cast<unsigned long long>(last->anchor.doc_len),
              static_cast<unsigned long long>(server.end_lv()));
}

}  // namespace
}  // namespace egwalker

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fixtures <output dir>\n");
    return 2;
  }
  egwalker::g_dir = argv[1];
  egwalker::WriteTraceFixtures();
  egwalker::WriteChainFixtures();
  return 0;
}
