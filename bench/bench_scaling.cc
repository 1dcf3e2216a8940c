// Scaling: merge cost of two offline branches of n events each, as n grows
// (the Section 3.7 complexity claim: eg-walker O(n log n) vs OT O(n^2)).
//
// This is the asymptotic story behind Figure 8's async rows, isolated:
// both users fork from a common document, each types n characters, and the
// branches merge. We sweep n and fit the growth exponents; the crossover
// explains why OT is fine for online collaboration (tiny n) and impractical
// for long-lived branches.

#include <cmath>

#include "bench_common.h"

#include "crdt/ref_crdt.h"
#include "ot/ot.h"
#include "util/prng.h"

namespace egwalker::bench {
namespace {

// Two branches of n events each off a small common base.
Trace TwoBranchTrace(uint64_t n, uint64_t seed) {
  Trace t;
  Prng rng(seed);
  AgentId a = t.graph.GetOrCreateAgent("alice");
  AgentId b = t.graph.GetOrCreateAgent("bob");
  Lv base = t.AppendInsert(a, {}, 0, GenerateProse(rng, 64));
  Frontier tip_a{base + 63};
  Frontier tip_b{base + 63};
  uint64_t len_a = 32;  // Each edits its own half (positions stay valid).
  uint64_t len_b = 32;
  uint64_t done_a = 0;
  uint64_t done_b = 0;
  while (done_a < n) {
    uint64_t burst = std::min<uint64_t>(1 + rng.Below(8), n - done_a);
    uint64_t pos = rng.Below(len_a + 1);
    Lv lv = t.AppendInsert(a, tip_a, pos, GenerateProse(rng, burst));
    tip_a = Frontier{lv + burst - 1};
    len_a += burst;
    done_a += burst;
  }
  while (done_b < n) {
    uint64_t burst = std::min<uint64_t>(1 + rng.Below(8), n - done_b);
    uint64_t pos = 32 + rng.Below(len_b + 1);
    Lv lv = t.AppendInsert(b, tip_b, pos, GenerateProse(rng, burst));
    tip_b = Frontier{lv + burst - 1};
    len_b += burst;
    done_b += burst;
  }
  return t;
}

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv, 0);
  PrintHeader("Scaling: merging two branches of n events each", opts);
  std::printf("%10s | %12s %12s %12s\n", "n/branch", "eg-walker", "ref CRDT", "OT");

  std::vector<uint64_t> ns = {1000, 2000, 4000, 8000, 16000, 32000};
  if (opts.scale <= 0.05) {
    ns = {500, 1000, 2000};
  }
  std::vector<double> eg_times, ot_times;
  for (uint64_t n : ns) {
    Trace t = TwoBranchTrace(n, 99);

    double eg_ms = TimeMs(
        [&] {
          Walker walker(t.graph, t.ops);
          Rope doc;
          walker.ReplayAll(doc);
        },
        opts.time_budget_s / 2);

    std::vector<CrdtOp> crdt_ops;
    {
      Walker walker(t.graph, t.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.enable_clearing = false;
      ReplaySinks sinks;
      sinks.crdt_ops = &crdt_ops;
      walker.ReplayAll(doc, wopts, sinks);
    }
    double ref_ms = TimeMs(
        [&] {
          RefCrdt crdt(t.graph);
          Rope doc;
          for (const CrdtOp& op : crdt_ops) {
            crdt.Apply(op, doc);
          }
        },
        opts.time_budget_s / 2);

    double ot_ms = TimeMs(
        [&] {
          OtReplayer ot(t.graph, t.ops);
          ot.ReplayAll();
        },
        opts.time_budget_s / 2);

    std::printf("%10llu | %12s %12s %12s\n", static_cast<unsigned long long>(n),
                FmtMs(eg_ms).c_str(), FmtMs(ref_ms).c_str(), FmtMs(ot_ms).c_str());
    eg_times.push_back(eg_ms);
    ot_times.push_back(ot_ms);
  }

  // Growth exponents from the endpoints: t ~ n^k => k = log ratio.
  double span = std::log2(static_cast<double>(ns.back()) / static_cast<double>(ns.front()));
  double k_eg = std::log2(eg_times.back() / eg_times.front()) / span;
  double k_ot = std::log2(ot_times.back() / ot_times.front()) / span;
  std::printf("\nfitted growth: eg-walker ~ n^%.2f (paper: n log n), OT ~ n^%.2f (paper: n^2)\n",
              k_eg, k_ot);
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
