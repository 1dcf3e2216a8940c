// Shard: one worker thread owning one partition of the document space.
//
// The sharded server (ROADMAP: scale-out) splits document names across N
// shards. Each shard is a complete single-threaded server in miniature — its
// own MemStorage, DocRegistry (LRU + checkpoint chains), Broker (sessions,
// pending broadcasts, patch-encode cache) — owned exclusively by one worker
// thread. No document state is shared between shards, and nothing here is
// protected by a lock around data: the only synchronization in the whole
// design is the pair of bounded queues (util/mpsc.h) each shard exposes.
//
// Threading model — what runs on which thread:
//
//   router thread (the NetSim event loop, server/router.h)
//     - owns the Router, the NetSim, and every queue *handle*
//     - during message delivery: Post()s kClient requests into shard
//       inboxes (blocking push = backpressure when a shard lags)
//     - at the tick barrier: Post()s kTick to every shard, then
//       WaitReply()s from each in shard order and forwards the outbound
//       batches into the network
//     - between ticks (both queues provably empty — see the barrier
//       argument below): drives handoff with kDrain / kAdopt round trips
//
//   shard worker thread (one per shard, Run() below)
//     - owns this shard's storage/registry/broker outright; no other
//       thread touches them while the worker runs
//     - drains the inbox in FIFO order and handles the tick grouped by
//       document (Broker::Receive per kClient, Broker::EndTick at kTick):
//       a message whose document is resident is applied on arrival, any
//       other is deferred to the barrier, along with its document's later
//       messages. At kTick the worker fans out the broadcasts owed by the
//       documents with nothing deferred (applied on arrival, or adopted
//       with a broadcast owed), then handles the deferred documents one at
//       a time in first-arrival order (each document's messages in arrival
//       order, its broadcast right after its last one), and replies with
//       the accumulated send batch. Sends go to a buffering
//       MessageSink — they accumulate locally, nothing crosses a thread
//       mid-tick. A document is therefore opened about once per tick, not
//       once per message: a shard serving more documents than its LRU
//       holds no longer evicts and reloads them in the arrival
//       interleaving, and a tick loads at most the documents that were not
//       resident when it began
//     - services drain/adopt handoff requests, which EGW_CHECK that no
//       message is deferred: handoff runs only between a barrier and the
//       next client message, which Router::Rebalance checks on its side
//     - pushes exactly one ShardReply per kTick/kDrain/kAdopt request and
//       none for kClient, so the router's WaitReply pairing is static
//     - on Stop(), messages posted after the last barrier and still
//       deferred are applied too, their broadcasts left pending as for the
//       ones applied on arrival; nobody waits for a reply, so their sends
//       are dropped
//
// The deferred messages are at most one tick's client messages, the same
// bound as the outbound send batch the worker already accumulates until
// the barrier. Inbox backpressure is unchanged: the inbox stays bounded,
// the worker keeps popping it, and the router blocks on a full one as
// before. Applying resident documents on arrival keeps the worker busy
// while the router is still routing the tick; only the deferred documents
// wait for the barrier, where the router waits for the reply anyway.
//
// Queue ownership: the inbox is MPSC in shape but single-producer in
// practice (only the router posts); the reply queue's single producer is
// the worker and single consumer the router. The worker never pushes to
// its own inbox and the router always consumes the reply it is owed before
// posting the next barrier request, so neither side can deadlock on a full
// queue; Stop() closes both queues before joining, so even a mis-paired
// caller unblocks with a failure rather than hanging.
//
// Why determinism survives the threads: NetSim delivers a tick's messages
// in a deterministic order, so each shard's inbox receives a deterministic
// subsequence of that order (FIFO per producer); within a shard, handling
// is sequential, so all registry/broker behaviour — including every PRNG-
// free decision — is a function of the per-shard message sequence alone.
// Outbound traffic is buffered until the kTick barrier and forwarded to the
// network in *shard order*, which is deterministic too. Threads change only
// wall-clock overlap, never the observable schedule. (Whether the N-shard
// schedule equals the 1-shard schedule is a separate, stronger property;
// NetSimConfig::per_route_rng plus one-doc-per-client workloads deliver it
// for the differential soak.)
//
// Why grouping by document changes nothing observable: a document's
// messages, sessions, patch cache and broadcast depend on no other
// document, so handling each document's messages in their arrival order,
// then its broadcast, yields per document exactly the replies, broadcasts,
// stats and bytes that per-message handling followed by one tick-end flush
// would — however the documents interleave. A deferred message is handled
// at the tick it arrived at, so it stamps the same session times. The one
// cross-document effect, the idle-session sweep, runs where per-message
// handling runs it: the message due to sweep first has everything deferred
// before it handled, then itself and the sweep (see Broker::Receive). On a
// tick's first message, where sweeps normally fall, nothing is deferred
// yet. Which documents are deferred, and in what order, is a function of
// the message sequence and of residency, itself a function of the
// per-shard history, so it is deterministic; it moves only the
// interleaving of sends *across* documents — invisible to a client
// subscribed to one document — and the registry's load/evict/flush
// traffic. Every shard send is held until the barrier either way.
//
// Handoff protocol (rebalancing a document from shard A to shard B), run
// by the router strictly between ticks:
//
//   1. kDrain -> A: evict the doc (retiring flush writes a session-carrying
//      segment — PR 5's session checkpoints make the later re-open a
//      *resume*, not a replay), lift its whole chain out of A's storage,
//      and extract its broker state (subscriber sessions + pending-
//      broadcast flag; the patch cache is dropped, encodes re-derive
//      deterministically). A replies with the chain + handoff.
//   2. kAdopt -> B: install the chain into B's storage and the sessions
//      into B's broker. B acks.
//   3. The router repoints its placement map; the next message for the doc
//      routes to B, which re-opens it from the adopted chain on demand.
//
// Because both legs are synchronous round trips on an otherwise idle
// queue pair, a handoff is atomic from every other actor's point of view:
// no message for the doc can be in either shard's inbox while it moves.
// Subscribers notice nothing — their sessions (and any broadcast owed to
// them) travel with the document.
//
// Stats: each shard's Broker::Stats / DocRegistry::Stats are plain
// non-atomic counters owned by the worker. They are read only through the
// quiesce-gated accessors below, after Stop() has joined the thread (the
// join is the happens-before edge), and merged by the router's aggregate
// helpers — there are no cross-thread counters anywhere, which is exactly
// what the ThreadSanitizer CI lane asserts.

#ifndef EGWALKER_SERVER_SHARD_H_
#define EGWALKER_SERVER_SHARD_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/broker.h"
#include "server/registry.h"
#include "util/mpsc.h"

namespace egwalker {

struct ShardConfig {
  DocRegistryConfig registry;
  BrokerConfig broker;
  // Inbox capacity: how many client messages the router may buffer into a
  // shard before backpressure blocks the event loop. Small values force the
  // backpressure path (the TSan stress test does this on purpose).
  size_t queue_capacity = 256;
  // Worker-thread label for the trace timeline (obs/trace.h). The router
  // stamps "shard-<i>" here; standalone shards keep the default.
  std::string name = "shard";
};

// One unit of work posted to a shard's inbox.
struct ShardRequest {
  enum class Kind : uint8_t {
    kClient,  // One inbound protocol message: (from, msg) at tick `now`.
    kTick,    // Barrier: end the tick, reply with the send batch.
    kDrain,   // Handoff step 1: give up `doc` (chain + broker state).
    kAdopt,   // Handoff step 2: take ownership of `doc`.
  };
  Kind kind = Kind::kClient;
  int from = -1;      // kClient: sending endpoint id.
  uint64_t now = 0;   // Network tick at post time (kClient/kTick).
  Message msg;        // kClient payload.
  std::string doc;    // kDrain / kAdopt target.
  std::vector<std::string> chain;  // kAdopt: the doc's persisted chain.
  Broker::DocHandoff handoff;      // kAdopt: the doc's broker state.
};

// One outbound message of a shard's per-tick batch.
struct ShardSend {
  int to = -1;
  Message msg;
};

// Reply to a kTick (sends), kDrain (chain + handoff) or kAdopt (empty ack).
struct ShardReply {
  std::vector<ShardSend> sends;
  std::vector<std::string> chain;
  Broker::DocHandoff handoff;
};

class Shard {
 public:
  explicit Shard(const ShardConfig& config = {});
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Spawns the worker thread. Post/WaitReply are valid only while running.
  void Start();
  // Closes both queues and joins the worker. Idempotent. After Stop() the
  // quiesce accessors below are safe (join = happens-before).
  void Stop();
  bool running() const { return running_; }

  // Enqueues a request (blocking when the inbox is full — backpressure).
  // False only if the shard is stopped.
  bool Post(ShardRequest req);
  // Blocks for the next reply. The caller must have posted a kTick, kDrain
  // or kAdopt it has not yet collected the reply for.
  ShardReply WaitReply();

  // Times a Post blocked on a full inbox. Safe from any thread at any time
  // (the counter lives behind the queue's mutex); the backpressure stress
  // test asserts it moved.
  uint64_t inbox_blocked_pushes() const { return inbox_.blocked_pushes(); }

  // Quiesce-only: the worker must be stopped (these EGW_CHECK that).
  MemStorage& storage();
  DocRegistry& registry();
  Broker& broker();

 private:
  void Run();  // Worker loop; the only code that touches the members below.

  ShardConfig config_;
  MemStorage storage_;
  DocRegistry registry_;
  Broker broker_;
  MpscQueue<ShardRequest> inbox_;
  MpscQueue<ShardReply> replies_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace egwalker

#endif  // EGWALKER_SERVER_SHARD_H_
