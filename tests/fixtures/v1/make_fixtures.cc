// Generator for the golden v1 fixtures in this directory.
//
// The library writes only the v2 container, so this program is not part of
// the build: it compiles only against the last commit with a v1 writer
// (764a15a). It is kept so the fixtures can be checked
// and regenerated from that commit:
//
//   mkdir v1src && git archive 764a15a | tar -x -C v1src
//   cmake -B v1src/build -S v1src && cmake --build v1src/build --target egwalker
//   g++ -std=c++20 -O2 -Iv1src/src -Iv1src/tests tests/fixtures/v1/make_fixtures.cc \
//       v1src/build/libegwalker.a -lpthread -o make_fixtures
//   ./make_fixtures tests/fixtures/v1
//
// (tests/testing/trace_dump.h must be copied into v1src/tests/testing
// first: it postdates that commit.)
//
// Outputs (every file is v1; `SaveOptions` left at its defaults unless
// named):
//   trace.egwk            the trace below, raw
//   trace-lz4.egwk        compress_content = true (LZ4 content column)
//   trace-cached.egwk     cache_final_doc = true
//   trace-survival.egwk   include_deleted_content = false (survival column)
//   trace.dump            expected trace of the first three (testing::DumpTrace)
//   trace-survival.dump   expected trace of trace-survival.egwk: deleted
//                         characters come back as U+FFFD
//   trace.txt             the trace's final text
//   chain-{0,1,2}.egws    a three-segment chain saved by a "!server" replica,
//                         every segment with cache_final_doc; segment 1 also
//                         with compress_content, segment 2 also with
//                         checkpoint_session_state
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

std::string Replay(const Trace& t) {
  Walker walker(t.graph, t.ops);
  Rope doc;
  walker.ReplayAll(doc);
  return doc.ToString();
}

void WriteTraceFixtures() {
  testing::RandomTraceOptions ropts;
  ropts.seed = 81;
  Trace t = testing::MakeRandomTrace(ropts);
  // Multi-byte UTF-8, and repeats so the LZ4 content stream holds matches.
  AgentId u = t.graph.GetOrCreateAgent("unicode");
  t.AppendInsert(u, t.graph.version(), 0, "héllo 世界 😀 héllo 世界 😀 héllo 世界 😀 ");
  const std::string text = Replay(t);

  SaveOptions lz4;
  lz4.compress_content = true;
  SaveOptions cached;
  cached.cache_final_doc = true;
  SaveOptions survival;
  survival.include_deleted_content = false;
  std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);

  const std::string raw_bytes = EncodeTrace(t, SaveOptions{});
  const std::string lz4_bytes = EncodeTrace(t, lz4);
  const std::string cached_bytes = EncodeTrace(t, cached, text);
  const std::string survival_bytes = EncodeTrace(t, survival, {}, &surviving);
  for (const std::string* bytes : {&raw_bytes, &lz4_bytes, &cached_bytes}) {
    auto decoded = DecodeTrace(*bytes);
    Require(decoded && testing::DumpTrace(decoded->trace) == testing::DumpTrace(t), "trace");
  }
  Require(lz4_bytes.size() < raw_bytes.size(), "lz4 content is compressed");
  auto decoded_survival = DecodeTrace(survival_bytes);
  Require(decoded_survival && Replay(decoded_survival->trace) == text, "survival");

  Write("trace.egwk", raw_bytes);
  Write("trace-lz4.egwk", lz4_bytes);
  Write("trace-cached.egwk", cached_bytes);
  Write("trace-survival.egwk", survival_bytes);
  Write("trace.dump", testing::DumpTrace(t));
  Write("trace-survival.dump", testing::DumpTrace(decoded_survival->trace));
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

  alice.Insert(0, "legacy prefix. ");
  server.MergeFrom(alice);
  save(opts);

  bob.MergeFrom(server);
  alice.Insert(alice.size(), "alice was here. alice was here. ");
  bob.Insert(0, "bob: ");
  bob.Delete(5, 7);
  server.MergeFrom(alice);
  server.MergeFrom(bob);
  SaveOptions lz4 = opts;
  lz4.compress_content = true;
  save(lz4);

  alice.MergeFrom(server);
  alice.Insert(3, "ü€");
  bob.Insert(bob.size(), " 😀 end");
  server.Insert(0, "[srv] ");
  server.MergeFrom(alice);
  server.MergeFrom(bob);
  SaveOptions state = opts;
  state.checkpoint_session_state = true;
  save(state);

  auto last = PeekSegment(chain.back());
  Require(last && last->anchor.lv != kInvalidLv && last->has_session_state,
          "final segment carries anchor and session state");
  auto loaded = Doc::LoadChain(chain, "!server");
  Require(loaded && loaded->Text() == server.Text(), "chain reload");
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
