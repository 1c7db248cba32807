#include "net/network.h"

namespace bcfl::net {

SimulatedNetwork::SimulatedNetwork(NetworkConfig config)
    : config_(config), rng_(config.seed) {}

Status SimulatedNetwork::RegisterNode(NodeId id, Handler handler) {
  if (handlers_.count(id) > 0) {
    return Status::AlreadyExists("node already registered: " +
                                 std::to_string(id));
  }
  if (!handler) {
    return Status::InvalidArgument("null handler");
  }
  handlers_[id] = std::move(handler);
  return Status::OK();
}

std::vector<NodeId> SimulatedNetwork::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(handlers_.size());
  for (const auto& [id, _] : handlers_) ids.push_back(id);
  return ids;
}

uint64_t SimulatedNetwork::SampleLatency() {
  if (config_.max_latency_us <= config_.min_latency_us) {
    return config_.min_latency_us;
  }
  uint64_t span = config_.max_latency_us - config_.min_latency_us;
  return config_.min_latency_us + rng_.NextBounded(span + 1);
}

bool SimulatedNetwork::SampleDrop(NodeId from, NodeId to) {
  if (config_.drop_probability <= 0.0) return false;
  auto key = std::make_pair(from, to);
  auto it = drop_rngs_.find(key);
  if (it == drop_rngs_.end()) {
    // Golden-ratio mixing of the pair keeps nearby (from, to) seeds far
    // apart before SplitMix64 scrambles them further.
    uint64_t pair_seed = config_.seed ^
                         (static_cast<uint64_t>(from) * 0x9E3779B97F4A7C15ULL) ^
                         (static_cast<uint64_t>(to) * 0xC2B2AE3D27D4EB4FULL);
    it = drop_rngs_.emplace(key, SplitMix64(pair_seed)).first;
  }
  return it->second.NextDouble() < config_.drop_probability;
}

void SimulatedNetwork::Enqueue(Message msg) {
  msg.seq = next_seq_++;
  queue_.push(std::move(msg));
}

Status SimulatedNetwork::Send(NodeId from, NodeId to, Bytes payload) {
  return Send(from, to, std::move(payload), clock_.NowMicros());
}

Status SimulatedNetwork::Send(NodeId from, NodeId to, Bytes payload,
                              uint64_t sent_at_us) {
  if (handlers_.count(to) == 0) {
    return Status::NotFound("unknown destination node: " + std::to_string(to));
  }
  stats_.messages_sent++;
  stats_.bytes_sent += payload.size();
  if (SampleDrop(from, to)) {
    stats_.messages_dropped++;
    return Status::OK();  // Silently lost, like a real datagram.
  }
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  msg.deliver_at_us = sent_at_us + SampleLatency();

  FaultDecision decision;
  if (fault_filter_) decision = fault_filter_(msg);
  if (decision.drop) {
    stats_.messages_dropped++;
    return Status::OK();
  }
  msg.deliver_at_us += decision.extra_delay_us;
  for (uint32_t copy = 0; copy < decision.duplicates; ++copy) {
    Message dup = msg;
    dup.deliver_at_us = sent_at_us + SampleLatency() + decision.extra_delay_us;
    stats_.messages_duplicated++;
    Enqueue(std::move(dup));
  }
  Enqueue(std::move(msg));
  return Status::OK();
}

Status SimulatedNetwork::Broadcast(NodeId from, const Bytes& payload) {
  for (const auto& [id, _] : handlers_) {
    if (id == from) continue;
    BCFL_RETURN_IF_ERROR(Send(from, id, payload));
  }
  return Status::OK();
}

SimulatedNetwork::ResumeState SimulatedNetwork::SaveResumeState() const {
  ResumeState state;
  state.rng = rng_.SaveState();
  state.next_seq = next_seq_;
  state.clock_us = clock_.NowMicros();
  state.drop_streams.reserve(drop_rngs_.size());
  for (const auto& [pair, stream] : drop_rngs_) {
    state.drop_streams.emplace_back(pair.first, pair.second,
                                    stream.SaveState());
  }
  return state;
}

Status SimulatedNetwork::RestoreResumeState(const ResumeState& state) {
  if (!queue_.empty()) {
    return Status::FailedPrecondition(
        "cannot restore network state with messages in flight");
  }
  rng_.RestoreState(state.rng);
  next_seq_ = state.next_seq;
  // The replayed setup consumed strictly less simulated time than the
  // checkpointed session, so AdvanceTo (never backwards) is safe.
  clock_.AdvanceTo(state.clock_us);
  drop_rngs_.clear();
  for (const auto& [from, to, stream_state] : state.drop_streams) {
    SplitMix64 stream(0);
    stream.RestoreState(stream_state);
    drop_rngs_.emplace(std::make_pair(from, to), stream);
  }
  return Status::OK();
}

size_t SimulatedNetwork::DeliverAll() {
  size_t delivered = 0;
  while (!queue_.empty()) {
    Message msg = queue_.top();
    queue_.pop();
    clock_.AdvanceTo(msg.deliver_at_us);
    auto it = handlers_.find(msg.to);
    if (it != handlers_.end()) {
      auto [seq_it, first] = last_delivered_seq_.emplace(msg.to, msg.seq);
      if (!first) {
        if (msg.seq < seq_it->second) {
          stats_.messages_reordered++;
        } else {
          seq_it->second = msg.seq;
        }
      }
      it->second(msg);
      ++delivered;
      stats_.messages_delivered++;
      stats_.delivered_per_node[msg.to]++;
    }
  }
  return delivered;
}

}  // namespace bcfl::net
