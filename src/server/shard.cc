#include "server/shard.h"

#include <utility>

#include "obs/trace.h"
#include "util/assert.h"

namespace egwalker {

namespace {

// MessageSink that parks sends in a local vector instead of a transport.
// Lives on the worker thread's stack for the lifetime of the loop: kClient
// handling appends to it, the kTick barrier takes the accumulated batch.
// now() reports the network tick the current request was posted at — the
// worker's only notion of time is what the router tells it.
class BufferSink final : public MessageSink {
 public:
  void Send(int to, Message msg) override {
    sends_.push_back(ShardSend{to, std::move(msg)});
  }
  uint64_t now() const override { return now_; }

  void set_now(uint64_t now) { now_ = now; }
  std::vector<ShardSend> Take() {
    std::vector<ShardSend> out;
    out.swap(sends_);
    return out;
  }

 private:
  std::vector<ShardSend> sends_;
  uint64_t now_ = 0;
};

}  // namespace

Shard::Shard(const ShardConfig& config)
    : config_(config),
      registry_(storage_, config.registry),
      broker_(registry_, config.broker),
      inbox_(config.queue_capacity),
      replies_(config.queue_capacity) {}

Shard::~Shard() { Stop(); }

void Shard::Start() {
  EGW_CHECK(!running_);
  running_ = true;
  thread_ = std::thread([this] { Run(); });
}

void Shard::Stop() {
  if (!running_) {
    return;
  }
  // Close both directions first: the worker's next Pop returns nullopt once
  // the inbox drains, and any straggling WaitReply/Post on either side
  // fails instead of blocking forever.
  inbox_.Close();
  replies_.Close();
  thread_.join();
  running_ = false;
}

bool Shard::Post(ShardRequest req) { return inbox_.Push(std::move(req)); }

ShardReply Shard::WaitReply() {
  auto reply = replies_.Pop();
  EGW_CHECK(reply.has_value());  // Protocol pairing: a reply is always owed.
  return std::move(*reply);
}

MemStorage& Shard::storage() {
  EGW_CHECK(!running_);
  return storage_;
}

DocRegistry& Shard::registry() {
  EGW_CHECK(!running_);
  return registry_;
}

Broker& Shard::broker() {
  EGW_CHECK(!running_);
  return broker_;
}

void Shard::Run() {
  obs::TraceSetThreadName(config_.name);
  BufferSink sink;
  while (auto req = inbox_.Pop()) {
    switch (req->kind) {
      case ShardRequest::Kind::kClient: {
        EGW_TRACE_SPAN("shard.client");
        sink.set_now(req->now);
        broker_.Receive(sink, req->from, std::move(req->msg));
        break;
      }
      case ShardRequest::Kind::kTick: {
        EGW_TRACE_SPAN("shard.tick");
        sink.set_now(req->now);
        broker_.EndTick(sink);
        ShardReply reply;
        reply.sends = sink.Take();
        replies_.Push(std::move(reply));
        break;
      }
      case ShardRequest::Kind::kDrain: {
        EGW_TRACE_SPAN("shard.drain");
        // Handoff runs only between a barrier and the next client message
        // (Router::Rebalance checks the same on its side).
        EGW_CHECK(!broker_.has_deferred());
        ShardReply reply;
        // Retiring flush: the segment carries the live walker session, so
        // the adopting shard's first Open resumes instead of replaying.
        registry_.Evict(req->doc);
        if (const std::vector<std::string>* chain = storage_.Chain(req->doc)) {
          reply.chain = *chain;
        }
        // Lift the chain out: an empty Replace erases the entry, so a
        // later Open here (the doc routing back) starts from scratch
        // rather than decoding a ghost chain.
        storage_.Replace(req->doc, {});
        reply.handoff = broker_.ExtractDoc(req->doc);
        replies_.Push(std::move(reply));
        break;
      }
      case ShardRequest::Kind::kAdopt: {
        EGW_TRACE_SPAN("shard.adopt");
        EGW_CHECK(!broker_.has_deferred());
        if (!req->chain.empty()) {
          storage_.Replace(req->doc, std::move(req->chain));
        }
        broker_.AdoptDoc(req->doc, std::move(req->handoff));
        replies_.Push(ShardReply{});  // Bare ack.
        break;
      }
    }
  }
  // Stopped with messages posted after the last barrier: apply the deferred
  // ones too, as per-message handling would have on arrival. Nobody waits
  // for a reply, so their sends are dropped, and their broadcasts stay
  // pending like those of the messages applied on arrival.
  broker_.HandleDeferred(sink);
}

}  // namespace egwalker
