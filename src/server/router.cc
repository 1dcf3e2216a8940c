#include "server/router.h"

#include <utility>

#include "obs/trace.h"
#include "util/assert.h"

namespace egwalker {

Router::Router(const Config& config) : config_(config) {
  EGW_CHECK(config_.shards >= 1);
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    ShardConfig shard_config = config_.shard;
    shard_config.name = "shard-" + std::to_string(i);
    shards_.push_back(std::make_unique<Shard>(shard_config));
  }
}

Router::~Router() { Stop(); }

int Router::Attach(NetSim& net) {
  endpoint_id_ = net.AddEndpoint(this);
  for (auto& shard : shards_) {
    shard->Start();
  }
  return endpoint_id_;
}

void Router::Stop() {
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

uint64_t Router::HashDocName(const std::string& name) {
  // FNV-1a 64. Part of the deployment contract (see the header).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

int Router::ShardOf(const std::string& doc) const {
  auto it = placement_.find(doc);
  if (it != placement_.end()) {
    return it->second;
  }
  return static_cast<int>(HashDocName(doc) % shards_.size());
}

void Router::Assign(const std::string& doc, int shard) {
  EGW_CHECK(shard >= 0 && shard < shard_count());
  placement_[doc] = shard;
}

void Router::OnMessage(NetSim& net, int from, int self, const Message& msg) {
  EGW_CHECK(self == endpoint_id_);
  ShardRequest req;
  req.kind = ShardRequest::Kind::kClient;
  req.from = from;
  req.now = net.now();
  req.msg = msg;
  bool posted = shards_[static_cast<size_t>(ShardOf(msg.doc))]->Post(std::move(req));
  EGW_CHECK(posted);  // Shards outlive the network they are attached to.
  posted_since_barrier_ = true;
}

void Router::OnTick(NetSim& net, int self) {
  EGW_TRACE_SPAN("router.barrier");
  EGW_CHECK(self == endpoint_id_);
  in_tick_ = true;
  // Fan the barrier out first so every shard drains its inbox and flushes
  // concurrently; only then start collecting. Collection (and therefore
  // network forwarding) is in shard order — deterministic regardless of
  // which worker finishes first.
  ShardRequest tick;
  tick.kind = ShardRequest::Kind::kTick;
  tick.now = net.now();
  for (auto& shard : shards_) {
    bool posted = shard->Post(tick);
    EGW_CHECK(posted);
  }
  for (auto& shard : shards_) {
    ShardReply reply = shard->WaitReply();
    for (ShardSend& send : reply.sends) {
      net.Send(endpoint_id_, send.to, std::move(send.msg));
    }
  }
  posted_since_barrier_ = false;
  in_tick_ = false;
}

void Router::Rebalance(const std::string& doc, int to) {
  EGW_TRACE_SPAN("router.rebalance");
  // Queues are only provably quiet between ticks, and only once a barrier
  // has followed every client message: shards defer messages to the
  // barrier (see shard.h).
  EGW_CHECK(!in_tick_);
  EGW_CHECK(!posted_since_barrier_);
  EGW_CHECK(to >= 0 && to < shard_count());
  int from = ShardOf(doc);
  // A self-handoff still runs both legs: the differential soak forces the
  // same rebalance schedule on 1-shard and N-shard universes, so the
  // evict/resume work must be identical in both.
  ShardRequest drain;
  drain.kind = ShardRequest::Kind::kDrain;
  drain.doc = doc;
  bool posted = shards_[static_cast<size_t>(from)]->Post(std::move(drain));
  EGW_CHECK(posted);
  ShardReply drained = shards_[static_cast<size_t>(from)]->WaitReply();

  ShardRequest adopt;
  adopt.kind = ShardRequest::Kind::kAdopt;
  adopt.doc = doc;
  adopt.chain = std::move(drained.chain);
  adopt.handoff = std::move(drained.handoff);
  posted = shards_[static_cast<size_t>(to)]->Post(std::move(adopt));
  EGW_CHECK(posted);
  shards_[static_cast<size_t>(to)]->WaitReply();  // Ack.

  placement_[doc] = to;
  ++rebalances_;
}

Shard& Router::shard(int i) {
  EGW_CHECK(i >= 0 && i < shard_count());
  return *shards_[static_cast<size_t>(i)];
}

Broker::Stats Router::AggregateBrokerStats() {
  Broker::Stats out;
  for (auto& shard : shards_) {
    EGW_CHECK(!shard->running());
    out.Merge(shard->broker().stats());
  }
  return out;
}

uint64_t Router::TotalReplayedEvents() {
  uint64_t out = 0;
  for (auto& shard : shards_) {
    EGW_CHECK(!shard->running());
    out += shard->registry().TotalReplayedEvents();
  }
  return out;
}

size_t Router::TotalSessions() {
  size_t out = 0;
  for (auto& shard : shards_) {
    EGW_CHECK(!shard->running());
    out += shard->broker().session_count();
  }
  return out;
}

uint64_t Router::TotalBlockedPushes() const {
  uint64_t out = 0;
  for (const auto& shard : shards_) {
    out += shard->inbox_blocked_pushes();
  }
  return out;
}

void Router::ExportMetrics(obs::MetricsRegistry& reg) {
  for (int i = 0; i < shard_count(); ++i) {
    Shard& s = shard(i);  // EGW_CHECKs quiesce.
    obs::ExportStats(reg, "broker", s.broker().stats());
    obs::ExportStats(reg, "registry", s.registry().stats());
    *reg.Counter("shard." + std::to_string(i) + ".inbox_blocked_pushes") +=
        s.inbox_blocked_pushes();
  }
  *reg.Counter("router.rebalances") += rebalances_;
  *reg.Counter("server.blocked_pushes") += TotalBlockedPushes();
  *reg.Counter("server.sessions") += TotalSessions();
  *reg.Counter("server.replayed_events") += TotalReplayedEvents();
}

}  // namespace egwalker
