// Substrate microbenchmarks (google-benchmark): the hot paths under the
// algorithms — rope edits, internal-state tree operations, graph version
// diffs, varint coding, and the LZ4 codec.
//
// Accepts the shared bench flags alongside google-benchmark's own:
//   --quick        short per-benchmark time budget (smoke testing)
//   --json=<path>  structured output (maps to --benchmark_out=<path> JSON)

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/state_tree.h"
#include "core/walker.h"
#include "graph/graph.h"
#include "lz4/lz4.h"
#include "lzhuf/lzhuf.h"
#include "rope/rope.h"
#include "rope/utf8.h"
#include "sync/patch.h"
#include "trace/generate.h"
#include "util/prng.h"
#include "util/varint.h"

namespace egwalker {
namespace {

void BM_RopeAppend(benchmark::State& state) {
  for (auto _ : state) {
    Rope rope;
    for (int i = 0; i < state.range(0); ++i) {
      rope.InsertAt(rope.char_size(), "lorem ipsum ");
    }
    benchmark::DoNotOptimize(rope.char_size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RopeAppend)->Arg(1000)->Arg(10000);

void BM_RopeRandomEdits(benchmark::State& state) {
  Prng rng(1);
  Rope rope(std::string(100000, 'x'));
  for (auto _ : state) {
    uint64_t pos = rng.Below(rope.char_size() - 8);
    rope.InsertAt(pos, "abc");
    rope.RemoveAt(pos, 3);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RopeRandomEdits);

void BM_RopeAlternatingEditPoints(benchmark::State& state) {
  // A typing point and a distant delete point, interleaved — the workload
  // the two-entry edit cache serves (a single entry evicts every switch).
  Rope rope(std::string(100000, 'x'));
  size_t ins = 25000;
  size_t del = 75000;
  for (auto _ : state) {
    rope.InsertAt(ins, "ab");
    ins += 2;
    rope.RemoveAt(del + 2, 2);
    if (ins > 40000) {
      ins = 25000;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RopeAlternatingEditPoints);

void BM_RopeToString(benchmark::State& state) {
  Prng rng(2);
  Rope rope(GenerateProse(rng, 500000));
  for (auto _ : state) {
    std::string s = rope.ToString();
    benchmark::DoNotOptimize(s.data());
  }
  state.SetBytesProcessed(state.iterations() * 500000);
}
BENCHMARK(BM_RopeToString);

void BM_StateTreeInsertFindMark(benchmark::State& state) {
  for (auto _ : state) {
    StateTree tree;
    tree.Reset(0);
    uint64_t pos = 0;
    for (Lv id = 0; id < static_cast<Lv>(state.range(0)); ++id) {
      Lv origin;
      StateTree::Cursor c = tree.FindPrepInsert(pos, &origin);
      tree.InsertSpan(c, id * 8, 4, origin, kOriginEnd);
      pos += 4;
    }
    benchmark::DoNotOptimize(tree.span_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateTreeInsertFindMark)->Arg(1000)->Arg(10000);

void BM_StateTreeResetChurn(benchmark::State& state) {
  // The critical-version pattern: grow a window, Reset, grow again. With
  // node pooling the steady-state iteration allocates nothing.
  StateTree tree;
  Prng rng(9);
  for (auto _ : state) {
    tree.Reset(1000);
    uint64_t pos = 0;
    for (Lv id = 0; id < 256; ++id) {
      Lv origin;
      StateTree::Cursor c = tree.FindPrepInsert(pos % (1000 + id * 2), &origin);
      tree.InsertSpan(c, id * 8, 2, origin, kOriginEnd);
      pos += 37;
    }
    benchmark::DoNotOptimize(tree.span_count());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateTreeResetChurn);

void BM_Utf8CountChars(benchmark::State& state) {
  Prng rng(6);
  std::string prose = GenerateProse(rng, 1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Utf8CountChars(prose));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(prose.size()));
}
BENCHMARK(BM_Utf8CountChars);

void BM_Utf8ByteOfChar(benchmark::State& state) {
  Prng rng(7);
  std::string prose = GenerateProse(rng, 4096);
  size_t chars = Utf8CountChars(prose);
  size_t i = 0;
  for (auto _ : state) {
    i = (i + 997) % chars;
    benchmark::DoNotOptimize(Utf8ByteOfChar(prose, i));
  }
}
BENCHMARK(BM_Utf8ByteOfChar);

void BM_GraphDiff(benchmark::State& state) {
  // A braided graph: two users alternating merges.
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  Frontier tip_a{};
  Frontier tip_b{};
  std::vector<uint64_t> seq(2, 0);
  g.Add(a, seq[0], 10, {});
  seq[0] += 10;
  tip_a = {9};
  tip_b = {9};
  for (int i = 0; i < 2000; ++i) {
    Lv la = g.Add(a, seq[0], 5, tip_a);
    seq[0] += 5;
    tip_a = {la + 4};
    Lv lb = g.Add(b, seq[1], 5, tip_b);
    seq[1] += 5;
    tip_b = {lb + 4};
    if (i % 10 == 0) {
      Frontier merged = tip_a;
      FrontierInsert(merged, tip_b[0]);
      Lv lm = g.Add(a, seq[0], 1, g.Reduce(merged));
      seq[0] += 1;
      tip_a = {lm};
      tip_b = {lm};
    }
  }
  // The uncached reference walk: Diff() would serve every iteration after
  // the first from the frontier-keyed cache and measure nothing but the
  // lookup (see BM_GraphDiffCached).
  for (auto _ : state) {
    DiffResult d = g.DiffUncached(tip_a, tip_b);
    benchmark::DoNotOptimize(d.only_a.size());
  }
}
BENCHMARK(BM_GraphDiff);

void BM_GraphDiffWide(benchmark::State& state) {
  // A braided frontier of width W: every agent commits a short run on top
  // of the full previous round, so each round is W separate graph entries
  // and the frontier never narrows. The measured diff is the walker's
  // EnterSpan shape — two frontiers differing in a single member (one
  // agent one run behind) — which an all-writers soak issues once per
  // integrated event. The answer is one run regardless of W; the bench
  // shows how much graph a walk touches to prove the other W-1 branches
  // shared (events_per_diff should stay flat, not grow with W).
  const int width = static_cast<int>(state.range(0));
  const int rounds = 24;
  const uint64_t run_len = 4;
  Graph g;
  std::vector<AgentId> agents;
  std::vector<uint64_t> seq(static_cast<size_t>(width), 0);
  for (int w = 0; w < width; ++w) {
    agents.push_back(g.GetOrCreateAgent("agent-" + std::to_string(w)));
  }
  Frontier prev;
  Frontier curr;
  Lv agent0_prev_tip = 0;
  for (int r = 0; r < rounds; ++r) {
    curr.clear();
    for (int w = 0; w < width; ++w) {
      Lv lv = g.Add(agents[static_cast<size_t>(w)], seq[static_cast<size_t>(w)],
                    run_len, prev);
      seq[static_cast<size_t>(w)] += run_len;
      curr.push_back(lv + run_len - 1);
      if (w == 0 && r == rounds - 2) {
        agent0_prev_tip = lv + run_len - 1;
      }
    }
    prev = curr;
  }
  Frontier a = curr;
  Frontier b = curr;
  b[0] = agent0_prev_tip;  // Agent 0 one run behind; still the smallest LV.
  for (auto _ : state) {
    DiffResult d = g.DiffUncached(a, b);
    benchmark::DoNotOptimize(d.only_a.size());
  }
  const DiffStats& stats = g.diff_stats();
  state.counters["events_per_diff"] = benchmark::Counter(
      stats.calls > 0 ? static_cast<double>(stats.events_spanned) /
                            static_cast<double>(stats.calls)
                      : 0.0);
  state.counters["runs_per_diff"] = benchmark::Counter(
      stats.calls > 0 ? static_cast<double>(stats.runs_visited) /
                            static_cast<double>(stats.calls)
                      : 0.0);
}
BENCHMARK(BM_GraphDiffWide)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_WalkerStormMerge(benchmark::State& state) {
  // The YATA sibling-group wall: `width` clients insert at one position
  // concurrently, then merge. steps_per_insert is the walker's integration
  // work (naive scan + right-origin scan + fast-path comparisons) per
  // inserted run — sub-quadratic integration keeps it near log(width)
  // instead of width/2.
  const uint32_t width = static_cast<uint32_t>(state.range(0));
  StormConfig cfg;
  cfg.width = width;
  cfg.rounds = 1;
  Trace t = GenerateStorm(cfg, "storm-micro");
  YataStats stats;
  for (auto _ : state) {
    Walker w(t.graph, t.ops);
    Rope doc;
    w.ReplayAll(doc);
    stats = w.yata_stats();
    benchmark::DoNotOptimize(doc.char_size());
  }
  state.counters["steps_per_insert"] = benchmark::Counter(
      static_cast<double>(stats.scan_steps + stats.or_scan_steps + stats.cmp_steps) /
      static_cast<double>(width));
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WalkerStormMerge)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CompareRawManyAgents(benchmark::State& state) {
  // The tie-break under an agent swarm: random CompareRaw probes across
  // `width` single-event agents. The agent-order rank cache turns the
  // per-probe string compare into an integer compare.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Graph g;
  std::vector<Lv> heads;
  Frontier parents;
  for (uint64_t i = 0; i < n; ++i) {
    AgentId a = g.GetOrCreateAgent("agent-" + std::to_string(i));
    Lv lv = g.Add(a, 0, 1, parents);
    parents = Frontier{lv};
    heads.push_back(lv);
  }
  Prng rng(8);
  for (auto _ : state) {
    Lv x = heads[rng.Below(heads.size())];
    Lv y = heads[rng.Below(heads.size())];
    benchmark::DoNotOptimize(g.CompareRaw(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CompareRawManyAgents)->Arg(1000)->Arg(100000);

void BM_GraphDiffCached(benchmark::State& state) {
  // The cache-hit path on a recurring frontier pair (fan-out readers
  // re-diffing the same document frontier).
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 100, {});
  Lv la = g.Add(a, 100, 50, {99});
  Lv lb = g.Add(b, 0, 50, {99});
  Frontier tip_a{la + 49};
  Frontier tip_b{lb + 49};
  for (auto _ : state) {
    DiffResult d = g.Diff(tip_a, tip_b);
    benchmark::DoNotOptimize(d.only_a.size());
  }
}
BENCHMARK(BM_GraphDiffCached);

void BM_MakePatchColdVsWatermarked(benchmark::State& state) {
  // The O(delta) patch pipeline's two extremes on one long two-author
  // history. Arg 0 — cold: an empty summary, so the whole history is
  // encoded (the bootstrap cost, linear by necessity). Arg 1 — watermarked:
  // a subscriber missing exactly one event, which the agent-indexed scan
  // must serve in O(1) chunks regardless of history length (the steady
  // state of broker fan-out; the old implementation walked all ~8k events
  // here too).
  Doc alice("alice");
  Doc bob("bob");
  Prng rng(11);
  for (int i = 0; i < 500; ++i) {
    alice.Insert(rng.Below(alice.size() + 1), "alice typed this. ");
    bob.MergeFrom(alice);
    bob.Insert(rng.Below(bob.size() + 1), "bob answered! ");
    if (alice.size() > 40 && rng.Chance(0.4)) {
      bob.Delete(rng.Below(bob.size() - 8), 1 + rng.Below(6));
    }
    alice.MergeFrom(bob);
  }
  VersionSummary summary;
  if (state.range(0) == 1) {
    summary = SummarizeDoc(alice);
    --summary.agents["alice"];  // Caught up but one event.
  }
  uint64_t scanned = 0;
  for (auto _ : state) {
    MakePatchStats stats;
    std::string patch = MakePatch(alice, summary, &stats);
    scanned += stats.events_scanned;
    benchmark::DoNotOptimize(patch.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(scanned));
}
BENCHMARK(BM_MakePatchColdVsWatermarked)->Arg(0)->Arg(1);

void BM_VarintEncodeDecode(benchmark::State& state) {
  Prng rng(3);
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.Next() >> (rng.Next() % 60));
  }
  for (auto _ : state) {
    std::string buf;
    for (uint64_t v : values) {
      AppendVarint(buf, v);
    }
    ByteReader reader(buf);
    uint64_t sum = 0;
    while (!reader.empty()) {
      sum += *reader.ReadVarint();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_Lz4CompressProse(benchmark::State& state) {
  Prng rng(4);
  std::string prose = GenerateProse(rng, 1 << 20);
  for (auto _ : state) {
    std::string c = lz4::Compress(prose);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetBytesProcessed(state.iterations() * prose.size());
}
BENCHMARK(BM_Lz4CompressProse);

void BM_Lz4Decompress(benchmark::State& state) {
  Prng rng(5);
  std::string prose = GenerateProse(rng, 1 << 20);
  std::string compressed = lz4::Compress(prose);
  for (auto _ : state) {
    auto out = lz4::Decompress(compressed, prose.size());
    benchmark::DoNotOptimize(out->size());
  }
  state.SetBytesProcessed(state.iterations() * prose.size());
}
BENCHMARK(BM_Lz4Decompress);

// The column codec's two directions on 256 KiB of prose. Decompress is the
// cached-open path (every v2 load decodes its cached-text column).
void BM_LzhufCompress(benchmark::State& state) {
  Prng rng(6);
  std::string prose = GenerateProse(rng, 1 << 18);
  for (auto _ : state) {
    std::string c = lzhuf::Compress(prose);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetBytesProcessed(state.iterations() * prose.size());
}
BENCHMARK(BM_LzhufCompress);

void BM_LzhufDecompress(benchmark::State& state) {
  Prng rng(6);
  std::string prose = GenerateProse(rng, 1 << 18);
  std::string compressed = lzhuf::Compress(prose);
  for (auto _ : state) {
    auto out = lzhuf::Decompress(compressed, prose.size());
    benchmark::DoNotOptimize(out->size());
  }
  state.SetBytesProcessed(state.iterations() * prose.size());
}
BENCHMARK(BM_LzhufDecompress);

}  // namespace
}  // namespace egwalker

int main(int argc, char** argv) {
  // Translate the shared bench flags into google-benchmark equivalents
  // before handing the argument vector over.
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      args.emplace_back("--benchmark_min_time=0.02");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out=" + arg.substr(7));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.emplace_back(std::move(arg));
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (std::string& a : args) {
    cargv.push_back(a.data());
  }
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
