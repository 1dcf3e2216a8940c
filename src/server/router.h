// Router: the NetSim-facing front of the sharded server.
//
// One Router endpoint stands where the single Broker used to: clients talk
// to it and never learn that N shard worker threads (server/shard.h) serve
// the documents behind it. Routing is by document name — a stable FNV-1a
// hash modulo the shard count, overridable per document by an explicit
// placement map (Assign), which is also how rebalancing re-homes a live
// document (Rebalance: drain from the old shard, adopt on the new one,
// repoint the map; see shard.h for the handoff protocol).
//
// The router is deliberately thin: it owns no document state, only the
// placement map and the queue handles. During NetSim delivery it forwards
// each message into the owning shard's inbox; at OnTick it barriers — posts
// a tick request to every shard, then collects each shard's outbound batch
// in shard order and sends it into the network. Shards therefore crunch
// concurrently between barriers while the network-visible schedule stays
// deterministic (batch forwarding order is fixed, and every send obeys the
// one-tick minimum latency exactly as a directly-attached broker's OnTick
// sends would).
//
// Aggregated stats and the per-shard registries are reachable only after
// Stop() (quiesce) — per-shard counters are never read across a live
// thread, which the TSan CI lane checks.

#ifndef EGWALKER_SERVER_ROUTER_H_
#define EGWALKER_SERVER_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/netsim.h"
#include "server/shard.h"

namespace egwalker {

struct RouterConfig {
  int shards = 1;
  ShardConfig shard;  // Applied to every shard.
};

class Router : public Endpoint {
 public:
  using Config = RouterConfig;

  explicit Router(const Config& config = {});
  ~Router() override;

  // Registers with the network and starts the shard workers; returns (and
  // remembers) the endpoint id.
  int Attach(NetSim& net);
  int endpoint_id() const { return endpoint_id_; }

  void OnMessage(NetSim& net, int from, int self, const Message& msg) override;
  // The barrier: every shard flushes its broadcasts and hands its batch
  // back; the router forwards the batches in shard order.
  void OnTick(NetSim& net, int self) override;

  // The shard serving `doc`: the placement override if one exists, the
  // name hash otherwise.
  int ShardOf(const std::string& doc) const;
  // Pins `doc` to `shard` before traffic flows (initial placement). For a
  // live document use Rebalance, which moves its state along.
  void Assign(const std::string& doc, int shard);
  // Re-homes a live document onto shard `to` (no-op state-wise when `to`
  // already serves it is still exercised as a full drain+adopt round trip,
  // so 1-shard and N-shard deployments stay symmetric under forced
  // rebalance schedules). Must be called after a barrier (OnTick) and
  // before the next OnMessage — never from inside OnMessage/OnTick — when
  // the queues are quiet: a shard may still hold client messages posted
  // since the barrier for the next one. EGW_CHECKs both.
  void Rebalance(const std::string& doc, int to);

  // Stops every shard worker (idempotent). Implicit in the destructor;
  // call it explicitly before using the quiesce accessors.
  void Stop();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  uint64_t rebalances() const { return rebalances_; }

  // Quiesce-only (Stop() first; the shard accessors EGW_CHECK it).
  Shard& shard(int i);
  Broker::Stats AggregateBrokerStats();
  // Summed walker replay work across all shards — the handoff differential
  // asserts parity of this between 1-shard and N-shard universes.
  uint64_t TotalReplayedEvents();
  size_t TotalSessions();
  // Summed Post()s that blocked on a full shard inbox (backpressure).
  // Safe from any thread (the counters live behind the queue mutexes).
  uint64_t TotalBlockedPushes() const;
  // Quiesce-only: adds the whole deployment's view into `reg` — the
  // aggregate broker/registry stats as "broker.*"/"registry.*" counters,
  // per-shard "shard.<i>.inbox_blocked_pushes", and the router's own
  // totals ("router.rebalances", "server.sessions", ...).
  void ExportMetrics(obs::MetricsRegistry& reg);

  // Stable FNV-1a 64 over the name; exposed so tests can pin golden values
  // (the hash is part of the deployment contract — changing it reshuffles
  // every document on restart).
  static uint64_t HashDocName(const std::string& name);

 private:
  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, int> placement_;  // Overrides; hash elsewhere.
  int endpoint_id_ = -1;
  bool in_tick_ = false;
  bool posted_since_barrier_ = false;  // A kClient went out after OnTick.
  uint64_t rebalances_ = 0;
};

}  // namespace egwalker

#endif  // EGWALKER_SERVER_ROUTER_H_
