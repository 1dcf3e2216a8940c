// Tests for the sharded server (server/shard.h, server/router.h):
//
//   - router hashing: golden FNV-1a values (the hash is a deployment
//     contract), shard spread, and placement overrides;
//   - the 1-shard vs 4-shard differential soak: the same adversarial
//     NetSim script (drop / duplication / reordering, per-route RNG) with
//     the same forced mid-run rebalance schedule must converge to
//     byte-identical documents with identical server-side replay work in
//     both deployments — sharding and handoff are invisible semantically;
//   - a backpressure stress: tiny inboxes force the router to block on
//     full queues mid-soak, and everything still converges (this is the
//     test the ThreadSanitizer CI lane leans on hardest);
//   - the handoff contract: a rebalance needs a barrier after the last
//     client message, and Stop() applies messages no barrier followed.
//
// Why the differential can demand *byte* equality: with per_route_rng every
// (from, to) route draws latency/drop/duplicate fates from its own stream,
// so a message's fate depends only on its route's send count, not on global
// interleaving. Each client subscribes to exactly one document, so each
// route carries one document's traffic, and per-document send sequences are
// the same in both universes (the driver script is fixed; shard batches are
// forwarded in deterministic shard order, which only interleaves *across*
// documents). Rebalances are forced on both universes alike — the 1-shard
// run performs them as self-handoffs (full drain + adopt round trips), so
// eviction/resume work stays symmetric and TotalReplayedEvents can be
// compared exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/doc.h"
#include "obs/stats.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/router.h"
#include "server/shard.h"
#include "sync/patch.h"
#include "util/prng.h"

namespace egwalker {
namespace {

// --- Router hashing ----------------------------------------------------------

TEST(RouterHashing, GoldenValues) {
  // FNV-1a 64 with the standard offset basis and prime. These values are a
  // deployment contract: a changed hash reshuffles every document across
  // shards on restart, so a change here must be deliberate and migrated.
  EXPECT_EQ(Router::HashDocName(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Router::HashDocName("doc-0"), 0x42d4e4ab72fc88e8ULL);
  EXPECT_EQ(Router::HashDocName("doc-1"), 0x42d4e5ab72fc8a9bULL);
  EXPECT_EQ(Router::HashDocName("shard-test"), 0x1309f2e5f78dcf72ULL);
}

TEST(RouterHashing, SpreadsAndHonorsPlacementOverrides) {
  RouterConfig config;
  config.shards = 4;
  Router router(config);
  // The default placement must actually use all four shards on a natural
  // name population (doc-0..doc-15 is what the soaks use).
  std::vector<bool> hit(4, false);
  for (int d = 0; d < 16; ++d) {
    int s = router.ShardOf("doc-" + std::to_string(d));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    hit[static_cast<size_t>(s)] = true;
  }
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);
  // Hash placement is pure: same name, same shard.
  EXPECT_EQ(router.ShardOf("doc-3"), router.ShardOf("doc-3"));
  // An explicit assignment overrides the hash and sticks.
  int hashed = router.ShardOf("doc-3");
  int target = (hashed + 1) % 4;
  router.Assign("doc-3", target);
  EXPECT_EQ(router.ShardOf("doc-3"), target);
  // Other names are untouched by the override.
  EXPECT_EQ(router.ShardOf("doc-4"),
            static_cast<int>(Router::HashDocName("doc-4") % 4));
}

// --- The sharded differential soak -------------------------------------------

struct ShardedOutcome {
  std::vector<std::string> server_texts;               // Per document.
  std::vector<std::vector<std::string>> client_texts;  // Per (doc, client).
  uint64_t server_replayed = 0;   // Router::TotalReplayedEvents().
  uint64_t rebalances = 0;
  uint64_t evictions = 0;         // Summed over shards (drain evictions).
  Broker::Stats broker;           // Merged per-shard stats.
  uint64_t blocked_pushes = 0;    // Summed inbox backpressure events.
};

// The same soak script for any shard count. Every client subscribes to
// exactly one document (the byte-equality precondition, see file comment).
// By default the registries are unbounded, so forced rebalances are the
// only source of eviction; `max_resident` > 0 adds LRU churn on top.
void RunShardedSoak(int shards, uint64_t seed, ShardedOutcome* out,
                    size_t queue_capacity = 256, size_t max_resident = 0) {
  constexpr int kDocs = 8;
  constexpr int kClientsPerDoc = 3;
  constexpr int kTicks = 90;
  constexpr int kRebalanceEvery = 15;

  NetSimConfig net_config;
  net_config.seed = seed;
  net_config.min_latency = 1;
  net_config.max_latency = 8;  // Unequal delays: reordering.
  net_config.drop = 0.10;
  net_config.duplicate = 0.07;
  net_config.per_route_rng = true;
  NetSim net(net_config);

  RouterConfig router_config;
  router_config.shards = shards;
  router_config.shard.registry.max_resident = max_resident;
  router_config.shard.broker.flush_every_events = 24;
  router_config.shard.broker.session_idle_timeout = 0;  // Sessions persist.
  router_config.shard.queue_capacity = queue_capacity;
  Router router(router_config);
  router.Attach(net);

  std::vector<std::string> doc_names;
  for (int d = 0; d < kDocs; ++d) {
    doc_names.push_back("doc-" + std::to_string(d));
  }
  std::vector<CollabClient> clients;
  clients.reserve(kDocs * kClientsPerDoc);
  for (int d = 0; d < kDocs; ++d) {
    for (int c = 0; c < kClientsPerDoc; ++c) {
      clients.emplace_back("agent-" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(net, router.endpoint_id());
  }
  for (int d = 0; d < kDocs; ++d) {
    for (int c = 0; c < kClientsPerDoc; ++c) {
      clients[static_cast<size_t>(d * kClientsPerDoc + c)].Join(
          net, doc_names[static_cast<size_t>(d)]);
    }
  }

  // Two independent streams: the edit script and the rebalance schedule.
  // Both draw identically in every universe — the only universe-dependent
  // input to a rebalance is ShardOf, used to pick the *target*, never to
  // decide whether or what to move.
  Prng rng(seed * 7 + 1);
  Prng rebalance_rng(seed * 13 + 5);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int d = 0; d < kDocs; ++d) {
      for (int c = 0; c < kClientsPerDoc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * kClientsPerDoc + c)];
        const std::string& name = doc_names[static_cast<size_t>(d)];
        if (rng.Chance(0.3)) {
          Doc& doc = client.doc(name);
          if (doc.size() > 12 && rng.Chance(0.3)) {
            uint64_t pos = rng.Below(doc.size() - 2);
            client.Delete(name, pos, 1 + rng.Below(2));
          } else {
            std::string burst(1 + rng.Below(3), static_cast<char>('a' + (c % 26)));
            client.Insert(name, rng.Below(doc.size() + 1), burst);
          }
        }
        if (rng.Chance(0.25)) {
          client.PushEdits(net, name);
        }
        if (rng.Chance(0.08)) {
          client.RequestSync(net, name);
        }
      }
    }
    net.Tick();
    // Forced mid-run rebalance, strictly between ticks: move a random
    // document one shard over (a self-handoff when shards == 1).
    if (tick % kRebalanceEvery == kRebalanceEvery - 1) {
      const std::string& doc =
          doc_names[static_cast<size_t>(rebalance_rng.Below(kDocs))];
      router.Rebalance(doc, (router.ShardOf(doc) + 1) % shards);
    }
  }

  EXPECT_GT(net.stats().dropped, 0u);
  EXPECT_GT(net.stats().duplicated, 0u);

  // Drain: lossless network, repeated repair rounds until quiet. Keep
  // per_route_rng on — the stream choice must stay universe-invariant.
  NetSimConfig lossless;
  lossless.min_latency = 1;
  lossless.max_latency = 2;
  lossless.per_route_rng = true;
  net.set_config(lossless);
  for (int round = 0; round < 5; ++round) {
    for (int d = 0; d < kDocs; ++d) {
      for (int c = 0; c < kClientsPerDoc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * kClientsPerDoc + c)];
        client.PushEdits(net, doc_names[static_cast<size_t>(d)]);
        client.RequestSync(net, doc_names[static_cast<size_t>(d)]);
      }
    }
    ASSERT_TRUE(net.Run(400)) << "network failed to drain in round " << round;
  }

  // Quiesce, then inspect: all shard state is safe to touch after Stop().
  for (int s = 0; s < shards; ++s) {
    out->blocked_pushes += router.shard(s).inbox_blocked_pushes();
  }
  router.Stop();
  out->rebalances = router.rebalances();
  out->broker = router.AggregateBrokerStats();
  out->server_replayed = router.TotalReplayedEvents();
  for (int s = 0; s < shards; ++s) {
    out->evictions += router.shard(s).registry().stats().evictions;
  }
  EXPECT_EQ(router.TotalSessions(),
            static_cast<size_t>(kDocs * kClientsPerDoc));

  for (int d = 0; d < kDocs; ++d) {
    const std::string& name = doc_names[static_cast<size_t>(d)];
    int owner = router.ShardOf(name);
    std::string server_text = router.shard(owner).registry().Open(name).Text();
    EXPECT_GT(server_text.size(), 0u) << name;
    out->server_texts.push_back(server_text);
    out->client_texts.emplace_back();
    for (int c = 0; c < kClientsPerDoc; ++c) {
      Doc& replica = clients[static_cast<size_t>(d * kClientsPerDoc + c)].doc(name);
      EXPECT_EQ(replica.Text(), server_text) << name << " client " << c;
      out->client_texts.back().push_back(replica.Text());
    }
    // The owning shard holds the doc; no other shard may still know it.
    for (int s = 0; s < shards; ++s) {
      if (s != owner) {
        EXPECT_FALSE(router.shard(s).registry().resident(name))
            << name << " leaked onto shard " << s;
      }
    }
  }
  EXPECT_GT(out->broker.patches_applied, 0u);
  // Every forced rebalance drained (evicted) its document exactly once;
  // with unbounded registries nothing else evicts.
  if (max_resident == 0) {
    EXPECT_EQ(out->evictions, out->rebalances);
  } else {
    EXPECT_GT(out->evictions, out->rebalances);
  }
}

// What a client can observe must be the same in both universes: the
// documents, and the protocol-level work — the shards together did what the
// single broker did, just on more threads.
void ExpectSameUniverse(const ShardedOutcome& one, const ShardedOutcome& four) {
  EXPECT_EQ(one.server_texts, four.server_texts);
  EXPECT_EQ(one.client_texts, four.client_texts);
  EXPECT_EQ(one.rebalances, four.rebalances);
  EXPECT_TRUE(obs::StatsEqual(one.broker, four.broker));
}

TEST(ShardedSoak, FourShardsConvergeUnderAdversarialDeliveryWithRebalances) {
  ShardedOutcome outcome;
  RunShardedSoak(/*shards=*/4, /*seed=*/42, &outcome);
  EXPECT_GT(outcome.rebalances, 0u);
}

// The acceptance differential: >= 5 seeds, 1-shard vs 4-shard, byte-equal
// documents and replay-work parity.
TEST(ShardedSoak, OneShardAndFourShardsAreByteIdenticalAcrossSeeds) {
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardedOutcome one;
    RunShardedSoak(/*shards=*/1, seed, &one);
    ShardedOutcome four;
    RunShardedSoak(/*shards=*/4, seed, &four);
    ExpectSameUniverse(one, four);
    // Handoff work is symmetric (self-handoffs on 1 shard), so the total
    // server-side walker replay must match exactly — sessions survived the
    // drains identically in both universes.
    EXPECT_EQ(one.server_replayed, four.server_replayed);
  }
}

// The same differential under LRU churn: one resident slot per shard, so
// the single shard cycles all eight documents through one slot while each
// of the four cycles its own two. Residency — and with it the order in
// which a shard's tick handles its documents — differs between the
// universes; what a client can observe must not. Registry counters
// (flushes, loads) depend on capacity and are deliberately not compared,
// and neither is server-side replay work: a chain reload re-seeds only the
// newest critical version (the segment's anchor), so a merge whose events
// are concurrent with it rebuilds from scratch where the never-evicted doc
// would have replayed from an older cached critical version.
TEST(ShardedSoak, OneShardAndFourShardsAreByteIdenticalUnderLruChurn) {
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardedOutcome one;
    RunShardedSoak(/*shards=*/1, seed, &one, /*queue_capacity=*/256, /*max_resident=*/1);
    ShardedOutcome four;
    RunShardedSoak(/*shards=*/4, seed, &four, /*queue_capacity=*/256, /*max_resident=*/1);
    ExpectSameUniverse(one, four);
    EXPECT_GT(one.evictions, four.evictions);  // Residency really differed.
  }
}

// Tiny inboxes: the router must hit the blocking-push backpressure path
// mid-delivery and the system must still converge. Run under TSan this is
// the heaviest cross-thread contention the server can produce.
TEST(ShardedSoak, SurvivesQueueBackpressureWithTinyInboxes) {
  ShardedOutcome outcome;
  RunShardedSoak(/*shards=*/4, /*seed=*/7, &outcome, /*queue_capacity=*/2);
  EXPECT_GT(outcome.blocked_pushes, 0u);
}

// The same with one resident slot per shard, so the workers defer most
// messages to the barrier while the router blocks on their full inboxes.
TEST(ShardedSoak, SurvivesQueueBackpressureWithTinyInboxesUnderLruChurn) {
  ShardedOutcome outcome;
  RunShardedSoak(/*shards=*/4, /*seed=*/7, &outcome, /*queue_capacity=*/2, /*max_resident=*/1);
  EXPECT_GT(outcome.blocked_pushes, 0u);
}

// --- Handoff contract ----------------------------------------------------------

// A client endpoint that ignores what it is sent.
class Deaf final : public Endpoint {
 public:
  void OnMessage(NetSim&, int, int, const Message&) override {}
};

Message SyncRequest(const std::string& doc) {
  Message msg;
  msg.type = MsgType::kSyncRequest;
  msg.doc = doc;
  msg.summary = EncodeSummary(VersionSummary{});
  return msg;
}

// A shard holds client messages for the next barrier, so a rebalance is
// legal only once a barrier has followed every posted message. After one it
// moves the document and its session; before one it dies on the caller's
// thread, not on a shard worker's.
TEST(RouterDeathTest, RebalanceNeedsABarrierAfterTheLastClientMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  {
    NetSim net;
    RouterConfig config;
    config.shards = 2;
    Router router(config);
    int self = router.Attach(net);
    Deaf client;
    int from = net.AddEndpoint(&client);
    router.Assign("doc", 0);
    router.OnMessage(net, from, self, SyncRequest("doc"));
    net.Tick();  // The barrier.
    router.Rebalance("doc", 1);
    router.Stop();
    EXPECT_EQ(router.ShardOf("doc"), 1);
    EXPECT_EQ(router.shard(0).broker().session_count(), 0u);
    EXPECT_EQ(router.shard(1).broker().session_count(), 1u);
  }
  EXPECT_DEATH(
      {
        NetSim net;
        RouterConfig config;
        config.shards = 2;
        Router router(config);
        int self = router.Attach(net);
        Deaf client;
        router.OnMessage(net, net.AddEndpoint(&client), self, SyncRequest("doc"));
        router.Rebalance("doc", 1);
      },
      "posted_since_barrier_");
}

// --- Shard lifecycle -----------------------------------------------------------

ShardRequest ClientPatch(const std::string& doc, const Doc& author, const VersionSummary& base,
                         uint64_t now) {
  ShardRequest req;
  req.kind = ShardRequest::Kind::kClient;
  req.from = 1;
  req.now = now;
  req.msg.type = MsgType::kPatch;
  req.msg.doc = doc;
  req.msg.summary = EncodeSummary(SummarizeDoc(author));
  req.msg.patch = MakePatch(author, base);
  return req;
}

// Client messages posted after the last barrier are still applied when the
// shard stops — both the resident document's, applied on arrival, and the
// new document's, which Stop() finds deferred.
TEST(ShardLifecycle, StopAppliesMessagesPostedAfterTheLastBarrier) {
  Shard shard;
  shard.Start();
  Doc alice("alice");
  alice.Insert(0, "hello");
  ASSERT_TRUE(shard.Post(ClientPatch("doc", alice, VersionSummary{}, /*now=*/1)));
  ShardRequest tick;
  tick.kind = ShardRequest::Kind::kTick;
  tick.now = 1;
  ASSERT_TRUE(shard.Post(tick));
  shard.WaitReply();
  // No barrier after these: two patches for the now-resident "doc", one
  // for a document the shard has never seen.
  VersionSummary seen = SummarizeDoc(alice);
  alice.Insert(5, " world");
  ASSERT_TRUE(shard.Post(ClientPatch("doc", alice, seen, /*now=*/2)));
  seen = SummarizeDoc(alice);
  alice.Insert(11, "!");
  ASSERT_TRUE(shard.Post(ClientPatch("doc", alice, seen, /*now=*/2)));
  Doc bob("bob");
  bob.Insert(0, "fresh");
  ASSERT_TRUE(shard.Post(ClientPatch("doc-2", bob, VersionSummary{}, /*now=*/2)));
  shard.Stop();

  EXPECT_EQ(shard.registry().Open("doc").Text(), "hello world!");
  EXPECT_TRUE(SummarizeDoc(shard.registry().Open("doc")) == SummarizeDoc(alice));
  EXPECT_EQ(shard.registry().Open("doc-2").Text(), "fresh");
  EXPECT_EQ(shard.broker().stats().patches_applied, 4u);
}

}  // namespace
}  // namespace egwalker
