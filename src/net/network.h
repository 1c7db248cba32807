#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"

namespace bcfl::net {

/// Node identifier on the simulated P2P network.
using NodeId = uint32_t;

/// A message in flight.
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  Bytes payload;
  uint64_t deliver_at_us = 0;
  uint64_t seq = 0;  ///< Tie-breaker for deterministic ordering.
};

/// Latency / loss model of the simulated network.
struct NetworkConfig {
  uint64_t min_latency_us = 500;
  uint64_t max_latency_us = 5000;
  double drop_probability = 0.0;
  uint64_t seed = 99;
};

/// Statistics accumulated by the network.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_duplicated = 0;  ///< Extra copies injected by faults.
  /// Messages delivered after a later-sent message already reached the
  /// same destination (program-order inversion).
  uint64_t messages_reordered = 0;
  uint64_t bytes_sent = 0;
  std::map<NodeId, uint64_t> delivered_per_node;
};

/// Verdict of the fault filter for one outbound message. The filter runs
/// after the config-level loss model, so injected faults compose with
/// background packet loss.
struct FaultDecision {
  bool drop = false;           ///< Lose the message entirely.
  uint32_t duplicates = 0;     ///< Extra copies to enqueue.
  uint64_t extra_delay_us = 0; ///< Added to the sampled latency.
};

/// Deterministic in-process P2P message bus.
///
/// The miners' P2P network "conceptually replaces the traditional
/// centralized server in FL" (Sect. III). This simulator delivers
/// messages in (deliver_time, seq) order with seedable random latency
/// and optional loss, driven by a simulated clock — so every consensus
/// run is exactly reproducible, and the chain-throughput benchmarks can
/// vary latency/loss without wall-clock noise. A fault filter installed
/// by the chaos harness (src/fault) can additionally drop, duplicate or
/// delay individual messages.
class SimulatedNetwork {
 public:
  using Handler = std::function<void(const Message&)>;
  using FaultFilter = std::function<FaultDecision(const Message&)>;

  explicit SimulatedNetwork(NetworkConfig config = {});

  /// Registers a node; its handler runs at message delivery. Handlers may
  /// send further messages (delivered in the same DeliverAll drain).
  Status RegisterNode(NodeId id, Handler handler);

  bool HasNode(NodeId id) const { return handlers_.count(id) > 0; }
  std::vector<NodeId> node_ids() const;

  /// Queues a unicast message. Unknown destinations are an error.
  Status Send(NodeId from, NodeId to, Bytes payload);
  /// Queues a unicast message sent at simulated time `sent_at_us`, which
  /// may lie behind the clock: a reply computed after the drain that
  /// delivered its request, stamped at that delivery, gets the latency,
  /// faults and sequence number it would have had if sent from the
  /// handler.
  Status Send(NodeId from, NodeId to, Bytes payload, uint64_t sent_at_us);

  /// Queues the payload to every node except the sender. Per-destination
  /// drop decisions come from independently seeded streams, so loss
  /// patterns do not correlate with roster iteration order.
  Status Broadcast(NodeId from, const Bytes& payload);

  /// Delivers all queued messages (including ones sent by handlers during
  /// the drain) in timestamp order; advances the simulated clock to the
  /// last delivery. Returns the number delivered.
  size_t DeliverAll();

  /// Installs (or clears, with nullptr) the per-message fault filter.
  void set_fault_filter(FaultFilter filter) {
    fault_filter_ = std::move(filter);
  }

  /// Advances the simulated clock without traffic — timeouts and retry
  /// backoff burn simulated, never wall-clock, time.
  void AdvanceClock(uint64_t delta_us) { clock_.AdvanceMicros(delta_us); }

  const NetworkStats& stats() const { return stats_; }
  const SimClock& clock() const { return clock_; }

  /// Everything that makes future deliveries bit-identical: the latency
  /// RNG, the per-pair loss streams, the message sequence counter and the
  /// simulated clock. Captured at a round boundary (empty queue) by the
  /// session checkpoint and restored on `--resume`; the stats counters
  /// are diagnostic and deliberately not part of it.
  struct ResumeState {
    Xoshiro256::State rng;
    uint64_t next_seq = 0;
    uint64_t clock_us = 0;
    /// (from, to, SplitMix64 state) of every lazily-created loss stream.
    std::vector<std::tuple<NodeId, NodeId, uint64_t>> drop_streams;
  };
  ResumeState SaveResumeState() const;
  /// Fails with FailedPrecondition while messages are in flight — resume
  /// state is only meaningful at a quiescent round boundary.
  Status RestoreResumeState(const ResumeState& state);

 private:
  uint64_t SampleLatency();
  /// Per-(from, to) loss stream, lazily seeded from the config seed and
  /// the pair — independent of every other pair's stream.
  bool SampleDrop(NodeId from, NodeId to);
  void Enqueue(Message msg);

  struct Ordering {
    bool operator()(const Message& a, const Message& b) const {
      if (a.deliver_at_us != b.deliver_at_us) {
        return a.deliver_at_us > b.deliver_at_us;  // min-heap.
      }
      return a.seq > b.seq;
    }
  };

  NetworkConfig config_;
  Xoshiro256 rng_;
  SimClock clock_;
  std::map<NodeId, Handler> handlers_;
  std::map<std::pair<NodeId, NodeId>, SplitMix64> drop_rngs_;
  std::priority_queue<Message, std::vector<Message>, Ordering> queue_;
  NetworkStats stats_;
  FaultFilter fault_filter_;
  /// Highest seq delivered per node, for reorder detection.
  std::map<NodeId, uint64_t> last_delivered_seq_;
  uint64_t next_seq_ = 0;
};

}  // namespace bcfl::net
