// Server throughput bench: documents x clients x churn.
//
// Drives the whole server stack — NetSim transport, Broker fan-out,
// DocRegistry LRU + incremental checkpoint flushes — with scripted client
// churn on a lossless network (losses measure the protocol, not the
// engine), and reports end-to-end throughput in applied events/second plus
// checkpoint flush/reload costs. This opens the multi-document workload
// axis the fig8 benches (single trace, single document) cannot see:
// registry pressure, fan-out amplification, and flush overhead.
//
//   ./build/bench_server [--quick] [--json=<path>] [--shards=<n>]
//
// Rows (the "trace" column is the scenario name):
//   soak <docs>x<clients>     ticks of edit/push churn through the broker
//   flush ...                 FlushAll of every resident document
//   reload ...                LoadChain of every document from its chain
//
// The legacy rows (no /sN suffix) time the full interactive simulation:
// server AND all simulated client replicas share the wall clock, which is
// the right end-to-end number but the wrong one for server scaling — in
// this process the clients are the majority of the work, and in a real
// deployment they are other machines.
//
// The /sN rows therefore measure *recorded-load replay*: the interactive
// script runs once untimed against a plain broker with a recording tap,
// capturing the exact inbound message stream (and its tick boundaries);
// the timed phase then replays that stream into a fresh sharded deployment
// (server/router.h: a Router fronting N worker threads) whose outbound
// traffic lands in discard endpoints. The timed wall clock is then almost
// purely server work — patch apply, fan-out encode, checkpointing — which
// is exactly what sharding scales. s1 exposes the router/queue overhead;
// s2/s4 the cross-core speedup (the s1/s4 ratio on 4x32w is gated at >= 2x
// by tools/check_bench.py whenever the measuring machine reports >= 4
// hardware threads; rows annotate shards and hw_threads so the gate can
// tell). --shards=<n> forces every scenario through an n-shard replay
// (0 = legacy interactive), which is how the TSan CI lane soaks the
// threaded path on the quick topologies.
//
// Scenario scale is fixed (not --scale driven): server throughput depends
// on topology, not trace length, and fixed shapes keep rows comparable
// across machines for the bench-gate's median normalisation.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "encoding/columnar.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "server/router.h"
#include "util/prng.h"

namespace egwalker {
namespace {

struct Scenario {
  int docs = 4;
  int clients_per_doc = 4;
  int ticks = 60;
  size_t max_resident = 0;  // 0 = no eviction pressure.
  // First `writers` clients of each doc edit; the rest only subscribe and
  // periodically sync (0 = everyone writes). The writer/reader split models
  // the many-followers documents of large collaborative-writing studies:
  // subscriber count drives fan-out and sync-request load, writer count
  // drives merge concurrency.
  int writers = 0;
  double reader_sync_prob = 0.0;  // Per-reader per-tick kSyncRequest chance.
  // Optional row-name override; by default the name is derived as
  // "<docs>x<clients>[/r<max_resident>][/w<writers>][/s<shards>]".
  const char* label = nullptr;
  // 0 = legacy interactive measurement; N >= 1 = recorded-load replay
  // through a router + N shard workers (see the file comment). Documents
  // are assigned round-robin so the split is exactly even.
  int shards = 0;
  // Flash crowd: every client joins inside the recorded churn window (one
  // bootstrap stampede) instead of during a warm-up.
  bool flash = false;
  // Insert storm: every writer inserts at position 0 every tick (no
  // deletes), so one YATA sibling group grows by the writer count per tick
  // — the adversarial-concurrency shape the group-cache fast path is gated
  // on (docs/TRACES.md "storm").
  bool same_pos = false;
};

struct SoakResult {
  uint64_t events_applied = 0;   // New events reaching the server.
  uint64_t messages = 0;
  uint64_t flush_segments = 0;
  uint64_t chain_bytes = 0;
  uint64_t reload_docs = 0;
  uint64_t blocked_pushes = 0;   // Router Posts stalled on a full inbox.
};

// --- Recorded load ----------------------------------------------------------

struct RecordedMsg {
  uint64_t tick = 0;  // net.now() at delivery.
  int from = -1;
  Message msg;
};

struct RecordedLoad {
  std::vector<RecordedMsg> msgs;  // In delivery order (ticks ascending).
  uint64_t ticks = 0;             // Last tick of the recording.
  int endpoints = 0;              // Total endpoint count (server + clients).
};

// Endpoint wrapping a Broker: forwards everything, logging the inbound
// stream. Only possible because the broker's handlers are sink-based — the
// tap owns the endpoint id and hands the broker a NetSimSink for it.
class RecordingTap final : public Endpoint {
 public:
  RecordingTap(Broker& broker, RecordedLoad& out) : broker_(broker), out_(out) {}

  int Attach(NetSim& net) {
    id_ = net.AddEndpoint(this);
    return id_;
  }

  void OnMessage(NetSim& net, int from, int self, const Message& msg) override {
    (void)self;
    out_.msgs.push_back(RecordedMsg{net.now(), from, msg});
    NetSimSink sink(net, id_);
    broker_.Handle(sink, from, msg);
  }

  void OnTick(NetSim& net, int self) override {
    (void)self;
    NetSimSink sink(net, id_);
    broker_.FlushBroadcasts(sink);
  }

 private:
  Broker& broker_;
  RecordedLoad& out_;
  int id_ = -1;
};

// Swallows replayed outbound traffic (stands in for the recorded clients).
class DiscardEndpoint final : public Endpoint {
 public:
  void OnMessage(NetSim&, int, int, const Message&) override {}
};

// --- The interactive client script ------------------------------------------

// Runs the scripted churn against `server_endpoint` (either a broker or a
// recording tap): join (before or inside the churn window, per `flash`),
// then `ticks` rounds of edits / pushes / reader syncs.
//
// When `conv` is non-null, every PushEdits records a convergence probe and
// every tick sweeps them: a pushed edit counts as converged once EVERY
// subscriber replica of its document contains it (checked via the
// non-mutating Graph::RawToLv — measuring never perturbs the replicas).
// Latency is in simulated ticks, so with the fixed seeds the distribution
// is deterministic and machine-independent (which is what lets
// tools/check_bench.py gate the p99 directly). The server necessarily held
// each edit before relaying it, so all-subscribers implies all-replicas.
void RunScript(const Scenario& scenario, NetSim& net, int server_endpoint,
               obs::ConvergenceTracker* conv = nullptr) {
  std::vector<std::string> names;
  for (int d = 0; d < scenario.docs; ++d) {
    names.push_back("doc-" + std::to_string(d));
  }
  std::vector<CollabClient> clients;
  clients.reserve(static_cast<size_t>(scenario.docs * scenario.clients_per_doc));
  for (int d = 0; d < scenario.docs; ++d) {
    for (int c = 0; c < scenario.clients_per_doc; ++c) {
      clients.emplace_back("a" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(net, server_endpoint);
  }
  auto join_all = [&] {
    for (int d = 0; d < scenario.docs; ++d) {
      for (int c = 0; c < scenario.clients_per_doc; ++c) {
        clients[static_cast<size_t>(d * scenario.clients_per_doc + c)].Join(net, names[static_cast<size_t>(d)]);
      }
    }
  };
  if (!scenario.flash) {
    join_all();
    net.Run(64);
  }

  // Convergence bookkeeping: one doc per client in this script, so a flat
  // per-client high-water mark of recorded sequence numbers suffices.
  std::vector<uint64_t> last_recorded(clients.size(), 0);
  auto record_push = [&](size_t client_index, const std::string& name) {
    if (conv == nullptr) {
      return;
    }
    const Doc& doc = clients[client_index].doc(name);
    uint64_t seq_end = doc.next_seq();
    if (seq_end > last_recorded[client_index]) {
      last_recorded[client_index] = seq_end;
      conv->Record(name, doc.agent_name(), seq_end, net.now());
    }
  };
  auto converged = [&](obs::ConvergenceTracker::Pending& p) {
    int d = std::atoi(p.doc.c_str() + 4);  // Names are "doc-<d>".
    // Resume at the first replica that was missing the event last tick —
    // containment is monotone, so the confirmed prefix stays confirmed.
    for (int c = static_cast<int>(p.probe_cursor);
         c < scenario.clients_per_doc; ++c) {
      CollabClient& peer =
          clients[static_cast<size_t>(d * scenario.clients_per_doc + c)];
      if (peer.doc(p.doc).graph().RawToLv(p.agent, p.seq_end - 1) == kInvalidLv) {
        p.probe_cursor = static_cast<uint32_t>(c);
        return false;
      }
    }
    return true;
  };

  Prng rng(41);
  if (scenario.flash) {
    // The flash crowd: every bootstrap sync request lands inside the churn
    // window, in one tick — the join stampede is the workload.
    join_all();
  }
  for (int tick = 0; tick < scenario.ticks; ++tick) {
    for (int d = 0; d < scenario.docs; ++d) {
      for (int c = 0; c < scenario.clients_per_doc; ++c) {
        CollabClient& client =
            clients[static_cast<size_t>(d * scenario.clients_per_doc + c)];
        const std::string& name = names[static_cast<size_t>(d)];
        if (scenario.writers != 0 && c >= scenario.writers) {
          // Reader: receives broadcasts; periodically runs the protocol's
          // repair heartbeat (a kSyncRequest carrying its true summary).
          if (scenario.reader_sync_prob > 0 && rng.Chance(scenario.reader_sync_prob)) {
            client.RequestSync(net, name);
          }
          continue;
        }
        Doc& doc = client.doc(name);
        if (scenario.same_pos) {
          std::string burst(1 + rng.Below(4), static_cast<char>('a' + (c % 26)));
          client.Insert(name, 0, burst);
        } else if (doc.size() > 16 && rng.Chance(0.25)) {
          client.Delete(name, rng.Below(doc.size() - 2), 1 + rng.Below(2));
        } else {
          std::string burst(1 + rng.Below(4), static_cast<char>('a' + (c % 26)));
          client.Insert(name, rng.Below(doc.size() + 1), burst);
        }
        if (rng.Chance(0.5)) {
          client.PushEdits(net, name);
          record_push(static_cast<size_t>(d * scenario.clients_per_doc + c), name);
        }
      }
    }
    net.Tick();
    if (conv != nullptr) {
      conv->Advance(net.now(), converged);
    }
  }
  // Drain tick by tick (exactly net.Run(1 << 12)'s tick-then-check loop)
  // so the convergence sweep sees every tick's deliveries as they land.
  for (int guard = 0; guard < (1 << 12); ++guard) {
    net.Tick();
    if (conv != nullptr) {
      conv->Advance(net.now(), converged);
    }
    if (net.in_flight() == 0) {
      break;
    }
  }
}

NetSimConfig BenchNetConfig() {
  NetSimConfig net_config;
  net_config.seed = 7;
  net_config.min_latency = 1;
  net_config.max_latency = 3;
  return net_config;
}

// --- Measurement helpers -----------------------------------------------------

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Reads events_applied from the flushed chains (the last segment's end LV),
// not via registry.Open: re-opening under LRU pressure would evict-flush
// documents between the timed phases and distort the measurements.
// `storage_of` maps a doc name to the backend holding its chain.
template <typename StorageOf>
void MeasureChains(const Scenario& scenario, StorageOf&& storage_of, SoakResult* result,
                   double* reload_ms) {
  for (int d = 0; d < scenario.docs; ++d) {
    std::string name = "doc-" + std::to_string(d);
    const std::vector<std::string>* chain = storage_of(name).Chain(name);
    if (chain == nullptr || chain->empty()) {
      continue;
    }
    if (auto info = PeekSegment(chain->back())) {
      result->events_applied += info->base_lv + info->event_count;
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int d = 0; d < scenario.docs; ++d) {
    std::string name = "doc-" + std::to_string(d);
    const std::vector<std::string>* chain = storage_of(name).Chain(name);
    if (chain == nullptr) {
      continue;
    }
    auto reloaded = Doc::LoadChain(*chain, "!server");
    if (reloaded.has_value()) {
      ++result->reload_docs;
    }
  }
  *reload_ms = MsSince(t0);
}

// Legacy interactive measurement: server and simulated clients share the
// timed wall clock (the end-to-end number; comparable with old baselines).
SoakResult RunInteractive(const Scenario& scenario, double* soak_ms, double* flush_ms,
                          double* reload_ms, obs::MetricsRegistry* reg,
                          obs::ConvergenceTracker* conv) {
  NetSim net(BenchNetConfig());
  MemStorage storage;
  DocRegistry::Config registry_config;
  registry_config.max_resident = scenario.max_resident;
  DocRegistry registry(storage, registry_config);
  Broker::Config broker_config;
  broker_config.flush_every_events = 64;
  Broker broker(registry, broker_config);
  broker.Attach(net);

  auto t0 = std::chrono::steady_clock::now();
  {
    EGW_TRACE_SPAN("bench.interactive");
    RunScript(scenario, net, broker.endpoint_id(), conv);
  }
  *soak_ms = MsSince(t0);

  SoakResult result;
  result.messages = net.stats().delivered;
  if (reg != nullptr) {
    obs::ExportStats(*reg, "broker", broker.stats());
    obs::ExportStats(*reg, "registry", registry.stats());
    obs::ExportStats(*reg, "net", net.stats());
  }
  t0 = std::chrono::steady_clock::now();
  registry.FlushAll();
  *flush_ms = MsSince(t0);
  result.chain_bytes = storage.total_bytes();
  result.flush_segments = registry.stats().flushes;
  MeasureChains(
      scenario, [&](const std::string&) -> MemStorage& { return storage; }, &result,
      reload_ms);
  return result;
}

// Sharded measurement: record the inbound stream once (untimed), then
// replay it into a router + N shard workers and time only that.
SoakResult RunShardedReplay(const Scenario& scenario, double* soak_ms, double* flush_ms,
                            double* reload_ms, obs::MetricsRegistry* reg,
                            obs::ConvergenceTracker* conv) {
  // Recording pass: plain broker behind a tap, same script. Convergence is
  // measured here — it is a protocol/topology property (client-visible
  // latency in ticks), identical by construction to what the interactive
  // simulation of the same scenario observes, and measuring it in the
  // untimed pass keeps the timed replay pure server work.
  RecordedLoad load;
  {
    NetSim net(BenchNetConfig());
    MemStorage storage;
    DocRegistry::Config registry_config;
    registry_config.max_resident = scenario.max_resident;
    DocRegistry registry(storage, registry_config);
    Broker::Config broker_config;
    broker_config.flush_every_events = 64;
    Broker broker(registry, broker_config);
    RecordingTap tap(broker, load);
    int tap_endpoint = tap.Attach(net);
    RunScript(scenario, net, tap_endpoint, conv);
    load.ticks = net.now();
    load.endpoints = 1 + scenario.docs * scenario.clients_per_doc;
  }

  // Replay pass. The router is endpoint 0 and the discards take the
  // recorded client ids, so replayed outbound sends resolve.
  NetSim net(BenchNetConfig());
  RouterConfig router_config;
  router_config.shards = scenario.shards;
  router_config.shard.registry.max_resident = scenario.max_resident;
  router_config.shard.broker.flush_every_events = 64;
  Router router(router_config);
  int self = router.Attach(net);
  std::vector<DiscardEndpoint> discards(static_cast<size_t>(load.endpoints - 1));
  for (auto& d : discards) {
    net.AddEndpoint(&d);
  }
  // Round-robin placement: an exactly even split, so the scaling rows
  // measure the architecture, not the luck of the hash.
  for (int d = 0; d < scenario.docs; ++d) {
    router.Assign("doc-" + std::to_string(d), d % scenario.shards);
  }

  auto t0 = std::chrono::steady_clock::now();
  {
    EGW_TRACE_SPAN("bench.replay");
    size_t i = 0;
    while (i < load.msgs.size()) {
      net.Tick();  // Advances the clock, drains outbound into the discards.
      EGW_TRACE_SPAN("router.route");  // This tick's recorded batch.
      while (i < load.msgs.size() && load.msgs[i].tick <= net.now()) {
        router.OnMessage(net, load.msgs[i].from, self, load.msgs[i].msg);
        ++i;
      }
    }
    net.Run(64);  // Final barriers: flush the last broadcasts through.
  }
  *soak_ms = MsSince(t0);

  SoakResult result;
  result.messages = load.msgs.size() + net.stats().delivered;
  result.blocked_pushes = router.TotalBlockedPushes();

  // Quiesce the workers before the single-threaded flush/reload phases
  // (shard registries are only reachable at quiesce, by design).
  router.Stop();
  if (reg != nullptr) {
    router.ExportMetrics(*reg);
    obs::ExportStats(*reg, "net", net.stats());
  }
  t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < router.shard_count(); ++s) {
    router.shard(s).registry().FlushAll();
  }
  *flush_ms = MsSince(t0);
  for (int s = 0; s < router.shard_count(); ++s) {
    result.chain_bytes += router.shard(s).storage().total_bytes();
    result.flush_segments += router.shard(s).registry().stats().flushes;
  }
  MeasureChains(
      scenario,
      [&](const std::string& name) -> MemStorage& {
        return router.shard(router.ShardOf(name)).storage();
      },
      &result, reload_ms);
  return result;
}

SoakResult RunScenario(const Scenario& scenario, double* soak_ms, double* flush_ms,
                       double* reload_ms, obs::MetricsRegistry* reg,
                       obs::ConvergenceTracker* conv) {
  if (scenario.shards == 0) {
    return RunInteractive(scenario, soak_ms, flush_ms, reload_ms, reg, conv);
  }
  return RunShardedReplay(scenario, soak_ms, flush_ms, reload_ms, reg, conv);
}

int Run(int argc, char** argv) {
  bench::Options opts = bench::ParseArgs(
      argc, argv, bench::kTraceOut | bench::kMetricsOut | bench::kJsonOut | bench::kShards);
  bool quick = opts.scale <= 0.05;  // --quick maps to a tiny scale.
  bench::JsonReport report("server", opts);

  std::vector<Scenario> scenarios;
  if (quick) {
    scenarios.push_back({2, 3, 12, 0});
    scenarios.push_back({4, 3, 8, 2});
    // Quick insert-storm soak: rides the sanitizer/TSan --quick lanes (and
    // their forced --shards runs) so the group-cache fast path is soaked
    // under ASan/UBSan and through the sharded deployment under TSan.
    scenarios.push_back({1, 8, 10, 0, 0, 0.0, "1x8st", 0, false, true});
  } else {
    scenarios.push_back({4, 4, 60, 0});    // Fan-out heavy, all resident.
    scenarios.push_back({8, 6, 40, 0});    // The soak-test topology.
    scenarios.push_back({16, 2, 40, 4});   // Registry pressure: LRU churn.
    // High subscriber count under LRU churn: 32 subscribers per doc (4
    // writers, 28 syncing readers) with capacity for half the docs. Fan-out
    // encodes, sync-request heartbeats, and evict/reload cycles are the
    // whole cost — the O(delta) patch pipeline + session-surviving-eviction
    // headline row.
    scenarios.push_back({4, 32, 180, 2, 4, 0.25});
    // Every client writes every tick, no readers: 32 concurrent writers
    // per doc braiding a frontier as wide as the client count. Retreat/
    // advance frontier diffs dominate this shape — it is the wide-frontier
    // row the run-level version algebra is gated on.
    scenarios.push_back({4, 32, 12, 0, 0, 0.0, "4x32w"});
    // Cross-core scaling rows: recorded-load replay through 1/2/4 shard
    // workers (see the file comment). s1 measures router+queue overhead;
    // the 4x32w s1/s4 ratio is the gated scaling headline.
    scenarios.push_back({8, 6, 40, 0, 0, 0.0, "8x6/s1", 1});
    scenarios.push_back({8, 6, 40, 0, 0, 0.0, "8x6/s2", 2});
    scenarios.push_back({8, 6, 40, 0, 0, 0.0, "8x6/s4", 4});
    scenarios.push_back({4, 32, 12, 0, 0, 0.0, "4x32w/s1", 1});
    scenarios.push_back({4, 32, 12, 0, 0, 0.0, "4x32w/s2", 2});
    scenarios.push_back({4, 32, 12, 0, 0, 0.0, "4x32w/s4", 4});
    // Flash crowd: 64 documents x 4 clients all joining in one tick inside
    // the recorded window — the bootstrap stampede a launch (or a failover
    // re-connect wave) produces. Embarrassingly parallel across docs, so
    // it is the shape sharding should eat whole.
    scenarios.push_back({64, 4, 10, 0, 0, 0.0, "64x4f/s1", 1, true});
    scenarios.push_back({64, 4, 10, 0, 0, 0.0, "64x4f/s4", 4, true});
    // Insert storm: 32 writers hammering position 0 of one document — the
    // sibling group grows by 32 every tick and every merge integrates into
    // it. The naive scan made this row quadratic in elapsed ticks.
    scenarios.push_back({1, 32, 24, 0, 0, 0.0, "1x32st", 0, false, true});
  }
  if (opts.shards >= 0) {
    // --shards=N forces every scenario through the same deployment (the
    // TSan lane soaks the quick topologies through the threaded path).
    for (Scenario& scenario : scenarios) {
      scenario.shards = opts.shards;
    }
  }

  // Trace session: span buffers must be live before any worker thread
  // starts (obs/trace.h's quiescence contract), so start before the rows.
  if (!opts.trace_path.empty()) {
    obs::TraceStart();
    obs::TraceSetThreadName("bench-main");
    if (!obs::TraceEnabled()) {
      std::fprintf(stderr, "--trace=%s ignored: built with EGW_TRACE=OFF\n",
                   opts.trace_path.c_str());
    }
  }
  JsonObject metrics_rows;  // Row name -> that row's metrics registry.

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("%-12s %7s %8s %10s %10s %10s %12s %9s\n", "scenario", "events", "msgs",
              "soak", "flush", "reload", "events/sec", "conv(t)");
  for (const Scenario& scenario : scenarios) {
    std::string name = scenario.label != nullptr && opts.shards < 0
                           ? scenario.label
                           : std::to_string(scenario.docs) + "x" +
                       std::to_string(scenario.clients_per_doc) +
                       (scenario.max_resident != 0
                            ? "/r" + std::to_string(scenario.max_resident)
                            : "") +
                       (scenario.writers != 0 ? "/w" + std::to_string(scenario.writers)
                                              : "") +
                       (scenario.same_pos ? "st" : "") +
                       (scenario.shards != 0 ? "/s" + std::to_string(scenario.shards)
                                             : "");
    double soak_ms = 0, flush_ms = 0, reload_ms = 0;
    obs::MetricsRegistry reg;
    obs::ConvergenceTracker conv;
    SoakResult result;
    {
      EGW_TRACE_SPAN(obs::TraceInternName("row." + name));
      result = RunScenario(scenario, &soak_ms, &flush_ms, &reload_ms, &reg, &conv);
    }
    const obs::Histogram& latency = conv.latency();
    reg.Histo("convergence.latency_ticks")->Merge(latency);
    *reg.Counter("convergence.pending") += conv.pending();
    double events_per_sec =
        soak_ms > 0 ? static_cast<double>(result.events_applied) / (soak_ms / 1000.0) : 0;
    std::printf("%-12s %7llu %8llu %10s %10s %10s %12.0f %4llu/%llu\n", name.c_str(),
                static_cast<unsigned long long>(result.events_applied),
                static_cast<unsigned long long>(result.messages),
                bench::FmtMs(soak_ms).c_str(), bench::FmtMs(flush_ms).c_str(),
                bench::FmtMs(reload_ms).c_str(), events_per_sec,
                static_cast<unsigned long long>(latency.Percentile(0.50)),
                static_cast<unsigned long long>(latency.Percentile(0.99)));
    report.Add(name, "server soak", soak_ms);
    report.Annotate("events_applied", Json(static_cast<double>(result.events_applied)));
    report.Annotate("messages", Json(static_cast<double>(result.messages)));
    report.Annotate("events_per_sec", Json(events_per_sec));
    report.Annotate("shards", Json(static_cast<double>(scenario.shards)));
    report.Annotate("hw_threads", Json(static_cast<double>(hw_threads)));
    report.Annotate("blocked_pushes", Json(static_cast<double>(result.blocked_pushes)));
    // Convergence latency is in deterministic simulated ticks (fixed
    // seeds), so the gate can compare these across machines directly.
    report.Annotate("convergence_count", Json(static_cast<double>(latency.count())));
    report.Annotate("convergence_pending", Json(static_cast<double>(conv.pending())));
    report.Annotate("convergence_p50", Json(static_cast<double>(latency.Percentile(0.50))));
    report.Annotate("convergence_p95", Json(static_cast<double>(latency.Percentile(0.95))));
    report.Annotate("convergence_p99", Json(static_cast<double>(latency.Percentile(0.99))));
    report.Add(name, "checkpoint flush", flush_ms);
    report.Annotate("chain_bytes", Json(static_cast<double>(result.chain_bytes)));
    report.Annotate("flush_segments", Json(static_cast<double>(result.flush_segments)));
    report.Add(name, "chain reload", reload_ms);
    report.Annotate("docs_reloaded", Json(static_cast<double>(result.reload_docs)));
    if (!opts.metrics_path.empty()) {
      metrics_rows.emplace_back(name, reg.ToJson());
    }
  }

  if (!opts.metrics_path.empty()) {
    JsonObject doc;
    doc.emplace_back("bench", Json("server"));
    doc.emplace_back("rows", Json(std::move(metrics_rows)));
    std::string text = Json(std::move(doc)).Dump(2);
    text += '\n';
    if (FILE* f = std::fopen(opts.metrics_path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("metrics: %s\n", opts.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opts.metrics_path.c_str());
    }
  }
  if (!opts.trace_path.empty()) {
    obs::TraceStop();
    if (obs::TraceWriteChrome(opts.trace_path)) {
      std::printf("trace:   %s  (open in chrome://tracing or ui.perfetto.dev)\n",
                  opts.trace_path.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace egwalker

int main(int argc, char** argv) { return egwalker::Run(argc, argv); }
