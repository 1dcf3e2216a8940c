// server-replay: a seeded churn recording replayed closed-loop, one tick at
// a time, through a Router with two shard threads.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/doc.h"
#include "server/broker.h"
#include "server/registry.h"
#include "server/router.h"
#include "sync/patch.h"
#include "workloads.h"

namespace egbench {

using egwalker::Doc;

namespace {

constexpr int kSetupReps = 3;

// Stands in for the recorded clients: swallows the replayed outbound sends.
class DiscardEndpoint final : public egwalker::Endpoint {
 public:
  void OnMessage(egwalker::NetSim&, int, int, const egwalker::Message&) override {}
};

class DiscardSink final : public egwalker::MessageSink {
 public:
  void Send(int, egwalker::Message) override {}
  uint64_t now() const override { return now_; }
  uint64_t now_ = 0;
};

struct ReplayResult {
  Interval replay;  // Route + barrier of every tick, drain included.
  Samples tick_ms, route_ms, barrier_ms;
  uint64_t blocked_pushes = 0;
  egwalker::Broker::Stats broker;
  egwalker::DocRegistry::Stats registry;
  double flush_ms = 0;
  double reload_ms = 0;
};

uint64_t TotalEvents(const Recording& rec) {
  uint64_t events = 0;
  for (const DocInputs& doc : rec.docs) {
    events += doc.events();
  }
  return events;
}

// One closed-loop replay: each tick runs the barrier (NetSim::Tick drives
// Router::OnTick, which waits for every shard) and then routes that tick's
// recorded messages. Afterwards every document's flushed chain is reloaded
// and compared byte for byte with the recording universe's document.
ReplayResult ReplayOnce(const Recording& rec, uint64_t seed, int shards, size_t resident,
                        Report& report, SpanLog& log) {
  ReplayResult r;
  egwalker::NetSim net(ServerNetConfig(seed));
  egwalker::RouterConfig config;
  config.shards = shards;
  config.shard.registry.max_resident = resident;
  config.shard.broker.flush_every_events = rec.shape.flush_every_events;
  egwalker::Router router(config);
  int self = router.Attach(net);
  std::vector<DiscardEndpoint> discards(static_cast<size_t>(rec.endpoints - 1));
  for (auto& d : discards) {
    net.AddEndpoint(&d);
  }
  // Round-robin placement: an exactly even split across shards.
  for (size_t d = 0; d < rec.doc_names.size(); ++d) {
    router.Assign(rec.doc_names[d], static_cast<int>(d) % shards);
  }

  r.replay.t0 = Clock::now();
  size_t i = 0;
  bool draining = false;
  while (!draining || net.in_flight() > 0) {
    uint32_t op = log.NewOp();
    Clock::time_point t0 = Clock::now();
    net.Tick();
    Clock::time_point t1 = Clock::now();
    while (i < rec.msgs.size() && rec.msgs[i].tick <= net.now()) {
      router.OnMessage(net, rec.msgs[i].from, self, rec.msgs[i].msg);
      ++i;
    }
    Clock::time_point t2 = Clock::now();
    if (log.enabled()) {
      log.Record("server.barrier", op, t0, t1);
      log.Record("server.route", op, t1, t2);
    }
    r.barrier_ms.Add(MsBetween(t0, t1));
    r.route_ms.Add(MsBetween(t1, t2));
    r.tick_ms.Add(MsBetween(t0, t2));
    // One more barrier after the last message flushes its broadcasts.
    draining = i == rec.msgs.size();
  }
  r.replay.t1 = Clock::now();

  router.Stop();  // Quiesce: shard state is only readable when stopped.
  r.blocked_pushes = router.TotalBlockedPushes();
  r.broker = router.AggregateBrokerStats();
  for (int s = 0; s < router.shard_count(); ++s) {
    r.registry.Merge(router.shard(s).registry().stats());
  }
  Clock::time_point t0 = Clock::now();
  for (int s = 0; s < router.shard_count(); ++s) {
    router.shard(s).registry().FlushAll();
  }
  r.flush_ms = MsBetween(t0, Clock::now());

  egwalker::ChainLoadOptions eager;
  eager.lazy_ops = false;
  for (size_t d = 0; d < rec.doc_names.size(); ++d) {
    const std::string& name = rec.doc_names[d];
    const std::vector<std::string>* chain =
        router.shard(router.ShardOf(name)).storage().Chain(name);
    std::optional<Doc> doc;
    if (chain != nullptr) {
      t0 = Clock::now();
      doc = Doc::LoadChain(*chain, "!server");
      r.reload_ms += MsBetween(t0, Clock::now());
    }
    bool ok = doc && doc->Text() == rec.docs[d].reference &&
              egwalker::SummarizeDoc(*doc) == rec.summaries[d];
    if (ok) {
      std::optional<Doc> full = Doc::LoadChain(*chain, "!server", nullptr, eager);
      ok = full && egwalker::EncodeTrace(full->trace(), FileOptions()) == rec.docs[d].file;
    }
    report.Check(ok, name + ": replayed document differs from the recording's");
  }
  return r;
}

// A single-threaded pass of the same recording through a plain Broker,
// timing its three entry points by message type.
void BrokerPass(const Recording& rec, Report& report, SpanLog& log) {
  egwalker::MemStorage storage;
  egwalker::DocRegistry::Config registry_config;
  registry_config.max_resident =
      rec.shape.resident_per_shard * static_cast<size_t>(rec.shape.shards);
  egwalker::DocRegistry registry(storage, registry_config);
  egwalker::Broker::Config broker_config;
  broker_config.flush_every_events = rec.shape.flush_every_events;
  egwalker::Broker broker(registry, broker_config);
  DiscardSink sink;

  Samples sync_us, patch_us, fanout_ms;
  std::optional<uint64_t> a0 = AllocationCount();
  size_t i = 0;
  while (i < rec.msgs.size()) {
    uint32_t op = log.NewOp();
    sink.now_ = rec.msgs[i].tick;
    for (; i < rec.msgs.size() && rec.msgs[i].tick == sink.now_; ++i) {
      const RecordedMsg& m = rec.msgs[i];
      bool sync = m.msg.type == egwalker::MsgType::kSyncRequest;
      double ms = TimedMs(log, sync ? "server.handle_sync" : "server.handle_patch", op,
                          [&] { broker.Handle(sink, m.from, m.msg); });
      (sync ? sync_us : patch_us).Add(ms * 1000.0);
    }
    fanout_ms.Add(TimedMs(log, "server.fanout", op, [&] { broker.FlushBroadcasts(sink); }));
  }
  std::optional<uint64_t> a1 = AllocationCount();

  registry.FlushAll();
  for (size_t d = 0; d < rec.doc_names.size(); ++d) {
    const std::vector<std::string>* chain = storage.Chain(rec.doc_names[d]);
    std::optional<Doc> doc;
    if (chain != nullptr) {
      doc = Doc::LoadChain(*chain, "!server");
    }
    report.Check(doc && doc->Text() == rec.docs[d].reference,
                 rec.doc_names[d] + ": broker-pass document differs from the recording's");
  }
  report.Set("server.handle_sync_us", sync_us.Median(), "us");
  report.Set("server.handle_patch_us", patch_us.Median(), "us");
  report.Set("server.fanout_ms", fanout_ms.Median(), "ms");
  if (a0) {
    report.Set("util.allocs_per_event",
               static_cast<double>(*a1 - *a0) / static_cast<double>(TotalEvents(rec)), "count");
  }
}

void ReportReplayLayers(const ReplayResult& r, Report& report) {
  report.Set("server.tick_ms_p50", r.tick_ms.Percentile(0.5), "ms");
  report.Set("server.tick_ms_p90", r.tick_ms.Percentile(0.9), "ms");
  report.Set("server.route_ms", r.route_ms.Median(), "ms");
  report.Set("server.barrier_ms", r.barrier_ms.Median(), "ms");
  report.Set("server.blocked_pushes", static_cast<double>(r.blocked_pushes), "count");
  const auto& b = r.broker;
  report.Set("server.patch_encodes", static_cast<double>(b.patch_encodes), "count");
  report.Set("server.patch_encodes_shared", static_cast<double>(b.patch_encodes_shared), "count");
  report.Set("server.patch_encodes_reused", static_cast<double>(b.patch_encodes_reused), "count");
  report.Set("server.patch_events_scanned", static_cast<double>(b.patch_events_scanned), "count");
  report.Set("server.patch_events_encoded", static_cast<double>(b.patch_events_encoded), "count");
  const auto& g = r.registry;
  report.Set("server.flushes", static_cast<double>(g.flushes), "count");
  report.Set("server.evictions", static_cast<double>(g.evictions), "count");
  report.Set("server.loads", static_cast<double>(g.loads), "count");
  report.Set("server.session_resumes", static_cast<double>(g.session_resumes), "count");
  report.Set("server.chain_load_failures", static_cast<double>(g.chain_load_failures), "count");
  report.Set("server.flush_ms", r.flush_ms, "ms");
  report.Set("server.reload_ms", r.reload_ms, "ms");
}

}  // namespace

int ServerThreads() { return 1 + ServerShape{}.shards; }

void ReportServerAbsent(Report& report) {
  ReportReplayLayers(ReplayResult{}, report);
  for (const char* name : {"server.handle_sync_us", "server.handle_patch_us"}) {
    report.Set(name, 0, "us");
  }
  report.Set("server.fanout_ms", 0, "ms");
  report.Set("server.scaling_s2_s1", 0, "ratio");
  report.Set("server.convergence_ticks_p99", 0, "ticks");
}

void RunServerReplay(const RunArgs& args, Report& report, SpanLog& log) {
  const ServerShape shape;
  Recording rec;
  double setup_s = MedianSetupSeconds(kSetupReps, report, [&](bool keep, const auto& step) {
    Recording fresh;
    std::string why;
    bool ok = RecordServer(args.seed, shape, &fresh, &why, step);
    if (!report.Check(ok, why)) {
      return uint64_t{0};
    }
    uint64_t fingerprint = Fingerprint(fresh);
    if (keep) {
      rec = std::move(fresh);
    }
    return fingerprint;
  });
  report.Check(rec.pending_edits == 0, "recorded edits still pending convergence at the end");
  const uint64_t events = TotalEvents(rec);
  const size_t resident = shape.resident_per_shard;

  PhaseShare share;
  share.merge = 0.05;
  share.open = 0.05;
  share.save = 0.05;
  share.edit = 0.05;
  const double replay_share = 0.8;

  // One measuring pass: timed replays at the deployed shape, interleaved
  // with the document phases over the recording's final documents. When
  // `layers` is given it collects every timed replay's tick samples and the
  // first one's counters.
  auto measure = [&](double seconds, SpanLog& phase_log, ReplayResult* layers) {
    PhasePass pass;
    DocPhases phases(rec.docs, share, report, phase_log, pass);
    Scheduler scheduler;
    phases.AddTo(scheduler);
    scheduler.Add(replay_share, /*warmup=*/1, /*min_ops=*/3, [&](bool timed) {
      ReplayResult r = ReplayOnce(rec, args.seed, shape.shards, resident, report, phase_log);
      if (!timed) {
        return;
      }
      pass.replay_events_per_s.Add(r.replay.t0, r.replay.t1,
                                   static_cast<double>(events) / (r.replay.ms() / 1000.0));
      if (layers != nullptr && layers->tick_ms.size() == 0) {
        *layers = std::move(r);
      } else if (layers != nullptr) {
        layers->tick_ms.Append(r.tick_ms);
        layers->route_ms.Append(r.route_ms);
        layers->barrier_ms.Append(r.barrier_ms);
      }
    });
    scheduler.Run(seconds);
    pass.calibration = scheduler.calibration();
    return pass;
  };

  if (!args.trace) {
    report.Set("setup_s", setup_s, "s");
    ReportAtRest(rec.docs, report);  // Before any shard thread exists.
    ReportTimed(measure(args.seconds, log, nullptr), report);
    return;
  }

  SpanLog off(false, args.workload);
  PhasePass untraced = measure(args.seconds / 2, off, nullptr);
  ReplayResult first;
  PhasePass traced = measure(args.seconds / 2, log, &first);

  ReportReplayLayers(first, report);
  report.Set("server.convergence_ticks_p99", static_cast<double>(rec.convergence_p99), "ticks");

  // Scaling: the same recording at one shard holding the whole capacity.
  SpanLog off_scaling(false, args.workload);
  Samples s1_ms, s2_ms;
  for (int rep = 0; rep < 3; ++rep) {
    s2_ms.Add(ReplayOnce(rec, args.seed, shape.shards, resident, report, off_scaling).replay.ms());
    s1_ms.Add(ReplayOnce(rec, args.seed, 1, resident * static_cast<size_t>(shape.shards), report,
                         off_scaling)
                  .replay.ms());
  }
  report.Set("server.scaling_s2_s1", s1_ms.Median() / s2_ms.Median(), "ratio");

  ProbeDocLayers(rec.docs, report, log);
  // After the probes: the broker pass's util.allocs_per_event, not the
  // documents' live replay, is this workload's per-event allocation figure.
  BrokerPass(rec, report, log);
  ReportPassLayers(untraced, traced, report);
}

}  // namespace egbench
