#include "server/broker.h"

#include <climits>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/assert.h"

namespace egwalker {

Broker::Broker(DocRegistry& registry, const Config& config)
    : registry_(registry), config_(config) {}

int Broker::Attach(NetSim& net) {
  endpoint_id_ = net.AddEndpoint(this);
  return endpoint_id_;
}

void Broker::OnMessage(NetSim& net, int from, int self, const Message& msg) {
  EGW_CHECK(self == endpoint_id_);
  NetSimSink sink(net, endpoint_id_);
  Handle(sink, from, msg);
}

void Broker::Handle(MessageSink& sink, int from, const Message& msg) {
  Dispatch(sink, from, msg);
  // Sweep after handling: the message just processed counts as liveness,
  // so a client resurfacing exactly at its timeout is not reaped by its
  // own message.
  SweepIdleSessions(sink.now());
}

void Broker::Receive(MessageSink& sink, int from, Message msg) {
  if (SweepDue(sink.now())) {
    // The sweep crosses documents, so everything before it is handled
    // first. On a tick's first message nothing is deferred yet.
    HandleDeferred(sink);
    Handle(sink, from, msg);
    return;
  }
  if (!registry_.resident(msg.doc)) {
    deferred_.push_back(Inbound{from, sink.now(), std::move(msg)});
    return;
  }
  Dispatch(sink, from, msg);
}

void Broker::EndTick(MessageSink& sink) { HandleGroups(sink, /*fan_out=*/true); }

void Broker::HandleDeferred(MessageSink& sink) { HandleGroups(sink, /*fan_out=*/false); }

namespace {

// Forwards sends to `sink` but reports the tick a deferred message arrived
// at, so handling it late stamps the session times it would have on
// arrival.
class ArrivalSink final : public MessageSink {
 public:
  ArrivalSink(MessageSink& sink, uint64_t now) : sink_(sink), now_(now) {}
  void Send(int to, Message msg) override { sink_.Send(to, std::move(msg)); }
  uint64_t now() const override { return now_; }

 private:
  MessageSink& sink_;
  uint64_t now_;
};

}  // namespace

void Broker::HandleGroups(MessageSink& sink, bool fan_out) {
  std::vector<Inbound> deferred;
  deferred.swap(deferred_);
  std::vector<std::vector<size_t>> groups;  // Indices into `deferred`.
  std::map<std::string_view, size_t> group_of;
  for (size_t i = 0; i < deferred.size(); ++i) {
    auto [it, fresh] = group_of.try_emplace(deferred[i].msg.doc, groups.size());
    if (fresh) {
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  if (fan_out) {
    // Broadcasts owed by documents with nothing deferred go first, while
    // they are still resident: the deferred documents' loads may evict them.
    std::vector<std::string> ready;
    for (const std::string& doc_name : pending_broadcasts_) {
      if (group_of.count(doc_name) == 0) {
        ready.push_back(doc_name);
      }
    }
    for (const std::string& doc_name : ready) {
      FlushBroadcast(sink, doc_name);
    }
  }
  for (const std::vector<size_t>& group : groups) {
    for (size_t i : group) {
      ArrivalSink arrival(sink, deferred[i].now);
      Dispatch(arrival, deferred[i].from, deferred[i].msg);
    }
    if (fan_out) {
      FlushBroadcast(sink, deferred[group[0]].msg.doc);
    }
  }
}

void Broker::Dispatch(MessageSink& sink, int from, const Message& msg) {
  switch (msg.type) {
    case MsgType::kSyncRequest:
      HandleSyncRequest(sink, from, msg);
      break;
    case MsgType::kPatch:
      HandlePatch(sink, from, msg);
      break;
    case MsgType::kLeave:
      ++stats_.leaves;
      sessions_.erase(SessionKey{msg.doc, from});
      MaybeDropPatchCache(msg.doc);
      break;
  }
}

void Broker::HandleSyncRequest(MessageSink& sink, int from, const Message& msg) {
  EGW_TRACE_SPAN("broker.sync_request");
  ++stats_.sync_requests;
  auto theirs = DecodeSummary(msg.summary);
  if (!theirs) {
    return;  // Malformed summaries are dropped like lost packets.
  }
  Session& session = sessions_[SessionKey{msg.doc, from}];
  session.last_active = sink.now();
  // A corrupt checkpoint chain must not take the whole broker down: the
  // request is dropped (like a lost packet) and the failure is visible in
  // the registry's chain_load_failures stat.
  Doc* doc_ptr = registry_.TryOpen(msg.doc);
  if (doc_ptr == nullptr) {
    return;
  }
  Doc& doc = *doc_ptr;
  VersionSummary mine = SummarizeDoc(doc);
  std::string my_summary = EncodeSummary(mine);
  Message reply;
  reply.type = MsgType::kPatch;
  reply.doc = msg.doc;
  reply.summary = my_summary;
  // Periodic sync requests are the protocol's heartbeat; serving them from
  // the watermarked cache keeps an idle document's repair traffic free.
  reply.patch = CachedPatch(doc, msg.doc, *theirs, ++patch_epoch_);
  sink.Send(from, std::move(reply));

  // The summary may also reveal events the server lacks (the client edited
  // while its patches were lost): pull them.
  if (SummaryAhead(*theirs, mine)) {
    Message pull;
    pull.type = MsgType::kSyncRequest;
    pull.doc = msg.doc;
    pull.summary = std::move(my_summary);
    sink.Send(from, std::move(pull));
  }
  // Optimistic: the client will hold its own events plus the in-flight
  // reply, so the estimate is the pointwise max of the two summaries.
  session.known = std::move(mine);
  SummaryMerge(session.known, *theirs);
}

void Broker::HandlePatch(MessageSink& sink, int from, const Message& msg) {
  EGW_TRACE_SPAN("broker.apply_patch");
  ++stats_.patches_in;
  // A patch may arrive without a session (the client left and the patch
  // was still in flight, possibly reordered after its kLeave). The events
  // are still applied — a departing client's last edits must not be lost —
  // but no session is created: resurrecting one would leak a ghost
  // subscriber the broker broadcasts to forever.
  auto it = sessions_.find(SessionKey{msg.doc, from});
  Session* session = it != sessions_.end() ? &it->second : nullptr;
  if (session != nullptr) {
    session->last_active = sink.now();
  }

  // Same fail-soft contract as HandleSyncRequest: an unloadable chain drops
  // the patch rather than aborting the server.
  Doc* doc_ptr = registry_.TryOpen(msg.doc);
  if (doc_ptr == nullptr) {
    return;
  }
  Doc& doc = *doc_ptr;
  std::string error;
  auto merged = ApplyPatch(doc, msg.patch, &error);
  if (!merged.has_value()) {
    // Causally premature (an earlier client patch was dropped or is still
    // in flight): ask the client for everything we lack.
    ++stats_.patches_rejected;
    Message repair;
    repair.type = MsgType::kSyncRequest;
    repair.doc = msg.doc;
    repair.summary = EncodeSummary(SummarizeDoc(doc));
    sink.Send(from, std::move(repair));
    return;
  }
  if (session != nullptr) {
    if (auto theirs = DecodeSummary(msg.summary)) {
      session->known = *theirs;
    }
  }
  if (*merged == 0) {
    return;  // Duplicate delivery: nothing new, nothing to fan out.
  }
  ++stats_.patches_applied;
  MaybeCheckpoint(msg.doc);
  // Batched fan-out: every patch applied to this document within the
  // current tick shares the broadcast round OnTick flushes.
  pending_broadcasts_.insert(msg.doc);
}

void Broker::OnTick(NetSim& net, int self) {
  EGW_CHECK(self == endpoint_id_);
  NetSimSink sink(net, endpoint_id_);
  FlushBroadcasts(sink);
}

void Broker::FlushBroadcasts(MessageSink& sink) {
  if (pending_broadcasts_.empty()) {
    return;  // Span only when there is work: idle ticks stay off the trace.
  }
  EGW_TRACE_SPAN("broker.flush");
  // Swap out first: Broadcast sends nothing that could re-mark a document
  // within this flush, but keep the loop reentrancy-proof anyway.
  std::set<std::string> pending;
  pending.swap(pending_broadcasts_);
  for (const std::string& doc_name : pending) {
    Broadcast(sink, doc_name);
  }
}

void Broker::FlushBroadcast(MessageSink& sink, const std::string& doc_name) {
  auto node = pending_broadcasts_.extract(doc_name);
  if (node.empty()) {
    return;
  }
  EGW_TRACE_SPAN("broker.flush");
  Broadcast(sink, node.value());
}

void Broker::Broadcast(MessageSink& sink, const std::string& doc_name) {
  // A doc marked for broadcast is normally resident, but an eviction may
  // have intervened; if its chain then fails to load, skip the round.
  Doc* doc_ptr = registry_.TryOpen(doc_name);
  if (doc_ptr == nullptr) {
    return;
  }
  Doc& doc = *doc_ptr;
  ++stats_.broadcast_rounds;
  VersionSummary mine = SummarizeDoc(doc);
  std::string my_summary = EncodeSummary(mine);
  // One encoded patch per distinct subscriber summary, served through the
  // watermarked cross-tick cache: after a batched round the subscribers'
  // estimates are mostly in lockstep, so the whole fan-out usually costs a
  // single O(delta) MakePatch — or none, when a previous tick's encode is
  // still watermark-valid.
  uint64_t epoch = ++patch_epoch_;
  // Doc-first session keys: scan exactly this document's subscribers.
  for (auto it = sessions_.lower_bound(SessionKey{doc_name, INT_MIN});
       it != sessions_.end() && it->first.first == doc_name; ++it) {
    Session& session = it->second;
    const std::string& patch = CachedPatch(doc, doc_name, session.known, epoch);
    if (patch.empty()) {
      continue;  // Estimated fully caught up (e.g. the patch's own sender).
    }
    Message out;
    out.type = MsgType::kPatch;
    out.doc = doc_name;
    out.summary = my_summary;
    out.patch = patch;
    sink.Send(it->first.second, std::move(out));
    // Optimistic union of what it had and what is in flight; repaired by
    // the client's next sync request if the broadcast is lost.
    SummaryMerge(session.known, mine);
    ++stats_.broadcasts;
  }
}

const std::string& Broker::CachedPatch(Doc& doc, const std::string& doc_name,
                                       const VersionSummary& summary, uint64_t epoch) {
  const Lv end = doc.end_lv();
  std::vector<CachedEncode>& entries = patch_cache_[doc_name];
  auto encode_into = [&](CachedEncode& entry) -> const std::string& {
    EGW_TRACE_SPAN("broker.encode_patch");
    MakePatchStats patch_stats;
    entry.patch = MakePatch(doc, summary, &patch_stats);
    entry.summary = summary;
    entry.end_lv = end;
    entry.stamp = ++patch_cache_clock_;
    entry.epoch = epoch;
    ++stats_.patch_encodes;
    stats_.patch_events_scanned += patch_stats.events_scanned;
    stats_.patch_events_encoded += patch_stats.events_encoded;
    return entry.patch;
  };
  for (CachedEncode& entry : entries) {
    if (entry.summary != summary) {
      continue;
    }
    // Watermark check: the bytes stay valid while every event appended
    // past the entry's encode point is already known to this receiver —
    // the missing set (and the deterministic encoding of it) is unchanged.
    if (entry.end_lv == end ||
        (entry.end_lv < end && SummaryCoversRange(doc.graph(), summary, entry.end_lv, end))) {
      entry.end_lv = end;  // Advance the watermark past the covered gap.
      entry.stamp = ++patch_cache_clock_;
      if (entry.epoch == epoch) {
        ++stats_.patch_encodes_shared;
      } else {
        ++stats_.patch_encodes_reused;
        entry.epoch = epoch;
      }
      return entry.patch;
    }
    return encode_into(entry);  // Stale: new events this receiver lacks.
  }
  if (entries.size() < kPatchCacheEntriesPerDoc) {
    entries.emplace_back();
    return encode_into(entries.back());
  }
  // Evict the LRU entry — but never one already served in THIS fan-out
  // round, or a doc with more distinct subscriber summaries than cache
  // slots would thrash within the round (degrading encodes-per-round from
  // 'distinct summaries' to 'subscribers'). With every slot hot, the
  // overflow summary is encoded into an uncached scratch instead.
  size_t victim = entries.size();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].epoch == epoch) {
      continue;
    }
    if (victim == entries.size() || entries[i].stamp < entries[victim].stamp) {
      victim = i;
    }
  }
  if (victim == entries.size()) {
    CachedEncode& scratch = overflow_encode_;
    return encode_into(scratch);
  }
  return encode_into(entries[victim]);
}

Broker::DocHandoff Broker::ExtractDoc(const std::string& doc_name) {
  DocHandoff out;
  auto it = sessions_.lower_bound(SessionKey{doc_name, INT_MIN});
  while (it != sessions_.end() && it->first.first == doc_name) {
    out.sessions.emplace(it->first.second, std::move(it->second));
    it = sessions_.erase(it);
  }
  out.broadcast_pending = pending_broadcasts_.erase(doc_name) > 0;
  // Encodes are deterministic; the adopting broker re-derives them. Not
  // carrying the cache keeps the handoff payload session-sized.
  patch_cache_.erase(doc_name);
  return out;
}

void Broker::AdoptDoc(const std::string& doc_name, DocHandoff handoff) {
  for (auto& [endpoint, session] : handoff.sessions) {
    sessions_[SessionKey{doc_name, endpoint}] = std::move(session);
  }
  if (handoff.broadcast_pending) {
    pending_broadcasts_.insert(doc_name);
  }
}

bool Broker::SweepDue(uint64_t now) const {
  return config_.session_idle_timeout != 0 &&
         now >= last_sweep_ + config_.session_idle_timeout / 2;
}

void Broker::SweepIdleSessions(uint64_t now) {
  if (!SweepDue(now)) {
    return;
  }
  last_sweep_ = now;
  std::vector<std::string> swept_docs;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now >= it->second.last_active + config_.session_idle_timeout) {
      if (swept_docs.empty() || swept_docs.back() != it->first.first) {
        swept_docs.push_back(it->first.first);
      }
      it = sessions_.erase(it);
      ++stats_.expired;
    } else {
      ++it;
    }
  }
  for (const std::string& doc_name : swept_docs) {
    MaybeDropPatchCache(doc_name);
  }
}

void Broker::MaybeDropPatchCache(const std::string& doc_name) {
  auto it = sessions_.lower_bound(SessionKey{doc_name, INT_MIN});
  if (it == sessions_.end() || it->first.first != doc_name) {
    patch_cache_.erase(doc_name);
  }
}

void Broker::MaybeCheckpoint(const std::string& doc_name) {
  uint64_t threshold = config_.flush_every_events == 0 ? 1 : config_.flush_every_events;
  registry_.FlushIfDirty(doc_name, threshold);
}

}  // namespace egwalker
