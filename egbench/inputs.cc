#include "inputs.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "common.h"
#include "core/walker.h"
#include "encoding/columnar.h"
#include "obs/convergence.h"
#include "ot/ot.h"
#include "rope/rope.h"
#include "rope/utf8.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/registry.h"
#include "sync/patch.h"
#include "trace/generate.h"
#include "util/prng.h"

namespace egbench {

using egwalker::Doc;
using egwalker::SaveOptions;

SaveOptions FileOptions() {
  SaveOptions options;
  options.format_version = 2;
  options.compress_columns = true;
  options.cache_final_doc = false;
  return options;
}

SaveOptions SegmentOptions(bool compress) {
  SaveOptions options;
  options.format_version = 2;
  options.compress_columns = compress;
  options.cache_final_doc = true;
  return options;
}

bool DeriveDocInputs(std::string name, egwalker::Trace trace, DocInputs* out,
                     std::string* why, const StepFn& step) {
  DocInputs& in = *out;
  in.name = std::move(name);
  in.trace = std::move(trace);
  in.reference = egwalker::OtReplayer(in.trace.graph, in.trace.ops).ReplayAll();
  step();

  std::vector<egwalker::XfOp> xf;
  {
    egwalker::Walker walker(in.trace.graph, in.trace.ops);
    egwalker::Rope rope;
    egwalker::ReplaySinks sinks;
    sinks.xf_ops = &xf;
    walker.ReplayAll(rope, {}, sinks);
    if (rope.ToString() != in.reference) {
      *why = in.name + ": eg-walker replay differs from the OT reference";
      return false;
    }
  }
  step();
  in.keys.clear();
  in.key_text.clear();
  for (const egwalker::XfOp& op : xf) {
    if (op.noop) {
      continue;
    }
    if (op.kind == egwalker::OpKind::kDelete) {
      for (uint64_t i = 0; i < op.count; ++i) {
        in.keys.push_back(Keystroke{op.pos, 0, 0});
      }
      continue;
    }
    size_t byte = 0;
    for (uint64_t i = 0; i < op.count; ++i) {
      size_t len = 0;
      egwalker::Utf8DecodeAt(op.text, byte, &len);
      in.keys.push_back(Keystroke{op.pos + i, static_cast<uint32_t>(in.key_text.size()),
                                  static_cast<uint32_t>(len)});
      in.key_text.append(op.text, byte, len);
      byte += len;
    }
  }

  step();
  in.file = egwalker::EncodeTrace(in.trace, FileOptions());
  step();
  std::optional<Doc> loaded = Doc::Load(in.file, "bench");
  if (!loaded || loaded->Text() != in.reference) {
    *why = in.name + ": whole-trace file does not load to the reference text";
    return false;
  }
  step();
  in.segment = loaded->SaveSegment(0, SegmentOptions(true));
  step();
  std::optional<Doc> reopened = Doc::LoadChain({in.segment}, "bench");
  if (!reopened || reopened->Text() != in.reference) {
    *why = in.name + ": checkpoint segment does not reopen to the reference text";
    return false;
  }

  step();
  auto chunks = egwalker::DecodePatch(egwalker::MakePatch(*loaded, {}));
  if (!chunks) {
    *why = in.name + ": bootstrap patch does not decode";
    return false;
  }
  in.chunks = std::move(*chunks);
  // Resolve run chaining into explicit parents, so each run can be applied
  // on its own.
  for (size_t i = 1; i < in.chunks.size(); ++i) {
    egwalker::RemoteChunk& chunk = in.chunks[i];
    if (chunk.chain_previous) {
      const egwalker::RemoteChunk& prev = in.chunks[i - 1];
      chunk.chain_previous = false;
      chunk.parents = {egwalker::RawVersion{prev.agent, prev.seq_start + prev.count - 1}};
    }
  }
  return true;
}

egwalker::Trace MakeConcurrentHistory(uint64_t seed) {
  // C1's Table 1 parameters (trace/generate.cc) at 0.25 scale, seed swapped.
  egwalker::ConcurrentConfig config{163000, 0.901, 3, 3.65, 20.6, MixSeed(seed, 1)};
  return egwalker::GenerateConcurrent(config, "C1");
}

egwalker::Trace MakeSequentialHistory(uint64_t seed) {
  // S1's Table 1 parameters at 0.25 scale, seed swapped.
  egwalker::SequentialConfig config{194750, 0.575, 2, MixSeed(seed, 2)};
  return egwalker::GenerateSequential(config, "S1");
}

// --- server-replay ----------------------------------------------------------

namespace {

// Endpoint wrapping the recording broker: logs the inbound stream, then
// forwards it (the broker's handlers are sink-based, so the tap owns the
// endpoint id and hands the broker a sink for it).
class RecordingTap final : public egwalker::Endpoint {
 public:
  RecordingTap(egwalker::Broker& broker, std::vector<RecordedMsg>& out)
      : broker_(broker), out_(out) {}
  int Attach(egwalker::NetSim& net) {
    id_ = net.AddEndpoint(this);
    return id_;
  }
  void OnMessage(egwalker::NetSim& net, int from, int, const egwalker::Message& msg) override {
    out_.push_back(RecordedMsg{net.now(), from, msg});
    egwalker::NetSimSink sink(net, id_);
    broker_.Handle(sink, from, msg);
  }
  void OnTick(egwalker::NetSim& net, int) override {
    egwalker::NetSimSink sink(net, id_);
    broker_.FlushBroadcasts(sink);
  }

 private:
  egwalker::Broker& broker_;
  std::vector<RecordedMsg>& out_;
  int id_ = -1;
};

}  // namespace

egwalker::NetSimConfig ServerNetConfig(uint64_t seed) {
  egwalker::NetSimConfig config;
  config.seed = MixSeed(seed, 4);
  config.min_latency = 1;
  config.max_latency = 3;
  return config;
}

bool RecordServer(uint64_t seed, const ServerShape& shape, Recording* out, std::string* why,
                  const StepFn& step) {
  Recording& rec = *out;
  rec = Recording{};
  rec.shape = shape;
  const int per_doc = shape.writers + shape.readers;
  for (int d = 0; d < shape.docs; ++d) {
    rec.doc_names.push_back("doc-" + std::to_string(d));
  }
  rec.endpoints = 1 + shape.docs * per_doc;

  egwalker::NetSim net(ServerNetConfig(seed));
  egwalker::MemStorage storage;
  egwalker::DocRegistry::Config registry_config;
  // The whole deployment's capacity: the sharded replay splits it evenly.
  registry_config.max_resident = shape.resident_per_shard * static_cast<size_t>(shape.shards);
  egwalker::DocRegistry registry(storage, registry_config);
  egwalker::Broker::Config broker_config;
  broker_config.flush_every_events = shape.flush_every_events;
  egwalker::Broker broker(registry, broker_config);
  RecordingTap tap(broker, rec.msgs);
  int server = tap.Attach(net);

  std::vector<egwalker::CollabClient> clients;
  clients.reserve(static_cast<size_t>(shape.docs * per_doc));
  for (int d = 0; d < shape.docs; ++d) {
    for (int c = 0; c < per_doc; ++c) {
      clients.emplace_back("a" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(net, server);
  }
  for (int d = 0; d < shape.docs; ++d) {
    for (int c = 0; c < per_doc; ++c) {
      clients[static_cast<size_t>(d * per_doc + c)].Join(net, rec.doc_names[static_cast<size_t>(d)]);
    }
  }
  net.Run(64);
  step();

  // Convergence: a pushed edit converges once every replica of its
  // document holds it; latency is in simulated ticks.
  egwalker::obs::ConvergenceTracker conv;
  std::vector<uint64_t> last_recorded(clients.size(), 0);
  auto converged = [&](egwalker::obs::ConvergenceTracker::Pending& p) {
    int d = std::atoi(p.doc.c_str() + 4);  // "doc-<d>".
    for (int c = static_cast<int>(p.probe_cursor); c < per_doc; ++c) {
      egwalker::CollabClient& peer = clients[static_cast<size_t>(d * per_doc + c)];
      if (peer.doc(p.doc).graph().RawToLv(p.agent, p.seq_end - 1) == egwalker::kInvalidLv) {
        p.probe_cursor = static_cast<uint32_t>(c);
        return false;
      }
    }
    return true;
  };

  egwalker::Prng rng(MixSeed(seed, 3));
  for (int tick = 0; tick < shape.ticks; ++tick) {
    for (int d = 0; d < shape.docs; ++d) {
      const std::string& name = rec.doc_names[static_cast<size_t>(d)];
      for (int c = 0; c < per_doc; ++c) {
        size_t index = static_cast<size_t>(d * per_doc + c);
        egwalker::CollabClient& client = clients[index];
        if (c >= shape.writers) {
          if (rng.Chance(shape.reader_sync_prob)) {
            client.RequestSync(net, name);
          }
          continue;
        }
        Doc& doc = client.doc(name);
        if (doc.size() > 16 && rng.Chance(0.25)) {
          client.Delete(name, rng.Below(doc.size() - 2), 1 + rng.Below(2));
        } else {
          std::string burst(1 + rng.Below(4), static_cast<char>('a' + (c % 26)));
          client.Insert(name, rng.Below(doc.size() + 1), burst);
        }
        if (rng.Chance(0.5)) {
          client.PushEdits(net, name);
          uint64_t seq_end = doc.next_seq();
          if (seq_end > last_recorded[index]) {
            last_recorded[index] = seq_end;
            conv.Record(name, doc.agent_name(), seq_end, net.now());
          }
        }
      }
    }
    net.Tick();
    conv.Advance(net.now(), converged);
    step();
  }
  for (int guard = 0; guard < (1 << 12) && net.in_flight() > 0; ++guard) {
    net.Tick();
    conv.Advance(net.now(), converged);
  }
  rec.convergence_p99 = conv.latency().Percentile(0.99);
  rec.pending_edits = conv.pending();

  registry.FlushAll();
  egwalker::ChainLoadOptions eager;
  eager.lazy_ops = false;  // The derived files need every op materialised.
  for (const std::string& name : rec.doc_names) {
    const std::vector<std::string>* chain = storage.Chain(name);
    std::optional<Doc> doc;
    if (chain != nullptr) {
      doc = Doc::LoadChain(*chain, "!server", why, eager);
    }
    if (!doc) {
      *why = name + ": recording chain does not load: " + *why;
      return false;
    }
    step();
    DocInputs inputs;
    if (!DeriveDocInputs(name, doc->trace(), &inputs, why, step)) {
      return false;
    }
    if (inputs.reference != doc->Text()) {
      *why = name + ": recording server doc differs from its OT reference";
      return false;
    }
    rec.docs.push_back(std::move(inputs));
    rec.summaries.push_back(egwalker::SummarizeDoc(*doc));
  }
  return true;
}

uint64_t Fingerprint(const DocInputs& doc) {
  uint64_t h = Fnv64(doc.reference);
  h = Fnv64(doc.file, h);
  h = Fnv64(doc.segment, h);
  h = Fnv64(doc.key_text, h);
  for (const Keystroke& key : doc.keys) {
    h = Fnv64(std::string_view(reinterpret_cast<const char*>(&key.pos), sizeof(key.pos)), h);
  }
  return h;
}

uint64_t Fingerprint(const Recording& rec) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const RecordedMsg& m : rec.msgs) {
    std::string head = std::to_string(m.tick) + "/" + std::to_string(m.from) + "/" +
                       std::to_string(static_cast<int>(m.msg.type)) + "/" + m.msg.doc;
    h = Fnv64(head, h);
    h = Fnv64(m.msg.summary, h);
    h = Fnv64(m.msg.patch, h);
  }
  for (const DocInputs& doc : rec.docs) {
    h ^= Fingerprint(doc);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace egbench
