// Tests for the synchronous LOCAL-model engine.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "node_set.h"
#include "sim/fault.h"
#include "sim/sync_engine.h"
#include "sim/trace.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

/// Floods the maximum node id seen so far; a node finishes when it has been
/// stable for `quiet_needed` rounds. Classic leader-election-by-flooding.
struct MaxFlood {
  NodeId best;
  std::size_t quiet_needed;
  std::size_t quiet = 0;

  void on_round(SyncContext& ctx, const SyncInbox& inbox) {
    NodeId before = best;
    for (const Message& message : inbox)
      best = std::max(best, static_cast<NodeId>(message.data[0]));
    if (ctx.round() == 0 || best != before) {
      Message message;
      message.tag = 1;
      message.data = {static_cast<std::int64_t>(best)};
      ctx.broadcast(std::move(message));
      quiet = 0;
    } else {
      ++quiet;
    }
  }
  bool ready_for_phase_advance() const { return true; }
  void on_phase(std::size_t) {}
  bool finished() const { return quiet >= quiet_needed; }
};

TEST(SyncEngine, FloodingConvergesToGlobalMax) {
  const Graph path = generate_path(8);
  std::vector<MaxFlood> nodes;
  for (NodeId v = 0; v < 8; ++v) nodes.push_back({v, 10});
  NodeSet<MaxFlood> set(std::move(nodes));
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run();
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(set[v].best, 7u);
  // The max id (node 7) must travel 7 hops: at least 7 rounds.
  EXPECT_GE(metrics.rounds, 7u);
  EXPECT_GT(metrics.messages, 0u);
}

/// Counts rounds between phase advances; finishes after two phases.
struct PhaseCounter {
  std::size_t phase = 0;
  std::size_t rounds_seen = 0;

  void on_round(SyncContext&, const SyncInbox&) { ++rounds_seen; }
  bool ready_for_phase_advance() const { return true; }
  void on_phase(std::size_t new_phase) { phase = new_phase; }
  bool finished() const { return phase >= 2; }
};

TEST(SyncEngine, BarrierAdvancesPhases) {
  const Graph path = generate_path(3);
  NodeSet<PhaseCounter> set(3, PhaseCounter{});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(100);
  EXPECT_TRUE(metrics.completed);
  EXPECT_GE(metrics.phases, 2u);
}

/// Never votes, never finishes; with `illegal` set it also sends one
/// message per round to node 2 (two hops from node 0 on a path).
struct Idler {
  bool illegal = false;

  void on_round(SyncContext& ctx, const SyncInbox&) {
    if (!illegal) return;
    Message message;
    message.tag = 1;
    ctx.send(2, std::move(message));
  }
  bool ready_for_phase_advance() const { return false; }
  void on_phase(std::size_t) {}
  bool finished() const { return false; }
};

TEST(SyncEngine, RejectsNonNeighborSend) {
  const Graph path = generate_path(3);
  NodeSet<Idler> set({Idler{true}, Idler{}, Idler{}});
  SyncEngine engine(path, set);
  EXPECT_THROW(engine.run(10), contract_error);
}

TEST(SyncEngine, RoundCapStopsRunaway) {
  const Graph path = generate_path(2);
  NodeSet<Idler> set(2, Idler{});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(25);
  EXPECT_FALSE(metrics.completed);
  EXPECT_EQ(metrics.rounds, 25u);
}

/// A TTL'd flood along a chain: the sender sends once then finishes,
/// relays finish immediately but echo every received message, and the
/// waiter finishes once it hears the flood.
struct RelayChain {
  enum class Role { kSender, kRelay, kWaiter };
  Role role;
  bool sent = false;
  bool got_it = false;

  void on_round(SyncContext& ctx, const SyncInbox& inbox) {
    switch (role) {
      case Role::kSender:
        if (sent) return;
        sent = true;
        ctx.broadcast(Message{0, 1, {3}});
        return;
      case Role::kRelay:
        for (const Message& message : inbox)
          if (message.data[0] > 0)
            ctx.broadcast(Message{0, message.tag, {message.data[0] - 1}});
        return;
      case Role::kWaiter:
        if (!inbox.empty()) got_it = true;
        return;
    }
  }
  bool ready_for_phase_advance() const { return role != Role::kWaiter; }
  void on_phase(std::size_t) {}
  bool finished() const {
    switch (role) {
      case Role::kSender:
        return sent;
      case Role::kRelay:
        return true;
      case Role::kWaiter:
        return got_it;
    }
    return false;
  }
};

TEST(SyncEngine, FinishedNodesStillRelayMessages) {
  // Retired DistMIS nodes must keep forwarding floods; the engine calls
  // finished programs whenever their inbox is non-empty. Node 3 waits for
  // the flood, nodes 1-2 are finished relays.
  using Role = RelayChain::Role;
  const Graph path = generate_path(4);
  NodeSet<RelayChain> set({{Role::kSender},
                           {Role::kRelay},
                           {Role::kRelay},
                           {Role::kWaiter}});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(50);
  EXPECT_TRUE(metrics.completed);
  // The TTL'd flood crossed two *finished* relays to reach node 3.
  EXPECT_TRUE(set[3].got_it);
}

TEST(SyncEngine, BarrierWaitsForInFlightMessages) {
  // A message sent right before everyone votes ready must be delivered in
  // the old phase, not swallowed by the barrier.
  struct SendThenReady {
    std::size_t received = 0;
    std::size_t phase = 0;
    bool done = false;

    void on_round(SyncContext& ctx, const SyncInbox& inbox) {
      received += inbox.size();
      if (ctx.round() == 0) ctx.broadcast(Message{0, 1, {0}});
      if (received >= 1 && phase >= 1) done = true;
    }
    bool ready_for_phase_advance() const { return true; }
    void on_phase(std::size_t new_phase) { phase = new_phase; }
    bool finished() const { return done; }
  };
  const Graph path = generate_path(2);
  NodeSet<SendThenReady> set(2, SendThenReady{});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(20);
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 2; ++v) EXPECT_EQ(set[v].received, 1u);
}

TEST(SyncEngine, RequiresOneProgramPerNode) {
  const Graph path = generate_path(3);
  NodeSet<Idler> set(1, Idler{});
  EXPECT_THROW(SyncEngine(path, set), contract_error);
}

// ---------------------------------------------------------------------------
// SyncInbox contract: pull delivery must hand every node exactly what the
// model says it hears, in (sender ascending, send order).
// ---------------------------------------------------------------------------

/// One received message as a receiver logs it: (from, tag, first word,
/// payload size).
using Received = std::tuple<NodeId, std::int32_t, std::int64_t, std::size_t>;

/// One scripted send: to == kBroadcast for a broadcast.
struct ScriptedSend {
  NodeId to;
  std::int32_t tag;
  std::size_t words;  // payload size; > 4 spills
};

/// Round 0 traffic of node v with at least one neighbor: a unicast to its
/// largest neighbor, a broadcast with a spilled payload, a unicast to its
/// smallest neighbor, and a short broadcast.
std::vector<ScriptedSend> script(const Graph& graph, NodeId v) {
  const auto row = graph.neighbors(v);
  if (row.empty()) return {};
  return {{row.back().to, 1, 2},
          {kBroadcast, 2, 7},
          {row.front().to, 3, 1},
          {kBroadcast, 4, 0}};
}

Message scripted_message(NodeId v, const ScriptedSend& send) {
  Message message;
  message.tag = send.tag;
  for (std::size_t w = 0; w < send.words; ++w)
    message.data.push_back(static_cast<std::int64_t>(v) * 100 +
                           static_cast<std::int64_t>(w));
  return message;
}

/// The model's inbox of v: neighbors ascending, each one's script in order,
/// broadcasts plus the unicasts addressed to v.
std::vector<Received> expected_inbox(const Graph& graph, NodeId v) {
  std::vector<Received> inbox;
  for (const NeighborEntry& neighbor : graph.neighbors(v)) {
    for (const ScriptedSend& send : script(graph, neighbor.to)) {
      if (send.to != kBroadcast && send.to != v) continue;
      const Message message = scripted_message(neighbor.to, send);
      inbox.emplace_back(neighbor.to, send.tag,
                         message.data.empty() ? -1 : message.data[0],
                         message.data.size());
    }
  }
  return inbox;
}

/// Sends the script in round 0 (the two broadcasts by move and by copy),
/// logs its inbox in round 1, then finishes.
class ScriptedTraffic final : public SyncProgramSet {
 public:
  explicit ScriptedTraffic(const Graph& graph)
      : graph_(&graph), log_(graph.num_nodes()), rounds_(graph.num_nodes()) {}

  std::size_t size() const override { return log_.size(); }
  void on_round(NodeId v, SyncContext& ctx, const SyncInbox& inbox) override {
    for (const Message& message : inbox)
      log_[v].emplace_back(message.from, message.tag,
                           message.data.empty() ? -1 : message.data[0],
                           message.data.size());
    if (ctx.round() == 0) {
      for (const ScriptedSend& send : script(*graph_, v)) {
        Message message = scripted_message(v, send);
        if (send.to != kBroadcast) {
          ctx.send(send.to, std::move(message));
        } else if (send.tag == 2) {
          ctx.broadcast(message);  // the copying path
        } else {
          ctx.broadcast(std::move(message));
        }
      }
    }
    ++rounds_[v];
  }
  bool ready_for_phase_advance(NodeId) const override { return false; }
  void on_phase(NodeId, std::size_t) override {}
  bool finished(NodeId v) const override { return rounds_[v] >= 2; }

  const std::vector<Received>& log(NodeId v) const { return log_[v]; }

 private:
  const Graph* graph_;
  std::vector<std::vector<Received>> log_;
  std::vector<std::size_t> rounds_;
};

/// Counts events; attaching it forces the serial path, where every send
/// fires one on_send per receiver.
class CountingTrace final : public SimTrace {
 public:
  void on_local_step(NodeId) override {}
  void on_send(NodeId, NodeId) override { ++sends; }
  void on_deliver(NodeId, NodeId) override { ++delivers; }
  void on_state_read(NodeId, NodeId) override {}
  std::size_t sends = 0;
  std::size_t delivers = 0;
};

Graph scripted_graph() {
  Rng rng(2024);
  return generate_gnm(40, 150, rng);  // mixed degrees, isolated nodes likely
}

void expect_scripted_inboxes(const Graph& graph, const ScriptedTraffic& set,
                             const SyncMetrics& metrics,
                             const std::string& path) {
  SCOPED_TRACE(path);
  EXPECT_TRUE(metrics.completed);
  EXPECT_EQ(metrics.rounds, 2u);
  std::size_t delivered = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(set.log(v), expected_inbox(graph, v)) << "node " << v;
    delivered += set.log(v).size();
  }
  EXPECT_EQ(metrics.messages, delivered);
}

TEST(SyncInbox, MixedTrafficArrivesInSenderThenSendOrder) {
  const Graph graph = scripted_graph();
  ScriptedTraffic set(graph);
  SyncEngine engine(graph, set);
  expect_scripted_inboxes(graph, set, engine.run(10), "serial");
}

TEST(SyncInbox, PooledRunsMatchSerialForEveryShardCount) {
  const Graph graph = scripted_graph();
  ThreadPool pool(2);
  for (const std::size_t shards : {1u, 3u, 16u}) {
    ScriptedTraffic set(graph);
    SyncEngine engine(graph, set);
    engine.set_thread_pool(&pool);
    engine.set_shards(shards);
    ASSERT_EQ(engine.planned_shards(), shards);
    expect_scripted_inboxes(graph, set, engine.run(10),
                            "pooled/" + std::to_string(shards));
  }
}

TEST(SyncInbox, TracedRunsTraceEveryCopyWithoutChangingInboxes) {
  const Graph graph = scripted_graph();
  ScriptedTraffic set(graph);
  CountingTrace trace;
  SyncEngine engine(graph, set);
  engine.set_trace(&trace);
  const SyncMetrics metrics = engine.run(10);
  expect_scripted_inboxes(graph, set, metrics, "traced");
  EXPECT_EQ(trace.sends, metrics.messages);
  EXPECT_EQ(trace.delivers, metrics.messages);
}

TEST(SyncInbox, FaultPathExpandsBroadcastsWithoutChangingInboxes) {
  // A plan that injects nothing still routes every send through the fault
  // path: broadcasts expand into one unicast entry per receiver, so every
  // range is indexed, and the inboxes must not change.
  const Graph graph = scripted_graph();
  FaultSpec spec;
  spec.seed = 3;
  FaultPlan plan(spec, graph);
  ScriptedTraffic set(graph);
  SyncEngine engine(graph, set);
  engine.set_fault_plan(&plan);
  expect_scripted_inboxes(graph, set, engine.run(10), "fault path");
}

TEST(SyncInbox, UnicastsToOtherNeighborsAreFilteredOut) {
  // Star: the center (node 0) addresses one unicast to leaf 2 only. Every
  // leaf pulls the center's outbox; only leaf 2 may hear it.
  struct CenterUnicast {
    std::size_t received = 0;
    std::size_t rounds = 0;

    void on_round(SyncContext& ctx, const SyncInbox& inbox) {
      received += inbox.size();
      if (ctx.round() == 0 && ctx.self() == 0) ctx.send(2, Message{0, 7, {}});
      ++rounds;
    }
    bool ready_for_phase_advance() const { return false; }
    void on_phase(std::size_t) {}
    bool finished() const { return rounds >= 2; }
  };
  const Graph star = generate_star(5);
  NodeSet<CenterUnicast> set(5, CenterUnicast{});
  SyncEngine engine(star, set);
  const SyncMetrics metrics = engine.run(10);
  EXPECT_EQ(metrics.messages, 1u);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(set[v].received, v == 2 ? 1u : 0u) << "node " << v;
}

TEST(SyncInbox, FinishedNodeRunsOnlyWhenMailArrives) {
  // Node 1 is finished from the start; node 0 messages it in rounds 2 and
  // 5 only, so node 1 must run exactly in rounds 3 and 6.
  struct PingSleep {
    bool pinger;
    std::vector<std::size_t> ran_in;

    void on_round(SyncContext& ctx, const SyncInbox& inbox) {
      if (pinger) {
        if (ctx.round() == 2 || ctx.round() == 5)
          ctx.broadcast(Message{0, 1, {}});
        return;
      }
      EXPECT_FALSE(inbox.empty());
      ran_in.push_back(ctx.round());
    }
    bool ready_for_phase_advance() const { return !pinger; }
    void on_phase(std::size_t) {}
    bool finished() const { return !pinger; }
  };
  const Graph path = generate_path(2);
  NodeSet<PingSleep> set({{true, {}}, {false, {}}});
  SyncEngine engine(path, set);
  engine.run(8);
  EXPECT_EQ(set[1].ran_in, (std::vector<std::size_t>{3, 6}));
}

TEST(SyncInbox, CrashedReceiverDropsExactlyItsPulledInbox) {
  // Every node sends its script in round 0; crashed nodes go down inside
  // (0, 1), so no send is dropped at send time and each crashed node's
  // round-1 inbox — exactly its model inbox — is what crash_drops counts.
  const Graph graph = scripted_graph();
  FaultSpec spec;
  spec.seed = 5;
  spec.crash_fraction = 0.3;
  spec.crash_horizon = 1.0;
  FaultPlan plan(spec, graph);
  ScriptedTraffic set(graph);
  SyncEngine engine(graph, set);
  engine.set_fault_plan(&plan);
  const SyncMetrics metrics = engine.run(10);
  std::uint64_t expected = 0;
  std::size_t crashed = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!plan.node_crashes(v)) {
      EXPECT_EQ(set.log(v), expected_inbox(graph, v)) << "node " << v;
      continue;
    }
    ASSERT_GT(plan.crash_time(v), 0.0);
    ASSERT_LT(plan.crash_time(v), 1.0);
    EXPECT_TRUE(set.log(v).empty()) << "crashed node " << v << " ran";
    expected += expected_inbox(graph, v).size();
    ++crashed;
  }
  ASSERT_GT(crashed, 0u);
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(metrics.faults.crash_drops, expected);
}

TEST(SyncInbox, FlatInboxYieldsEntriesInOrder) {
  std::vector<Message> entries(3);
  for (std::size_t i = 0; i < entries.size(); ++i)
    entries[i].from = static_cast<NodeId>(10 + i);
  const SyncInbox inbox(entries);
  EXPECT_EQ(inbox.size(), 3u);
  std::vector<NodeId> from;
  for (const Message& message : inbox) from.push_back(message.from);
  EXPECT_EQ(from, (std::vector<NodeId>{10, 11, 12}));
  const SyncInbox none(std::span<const Message>{});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
}

}  // namespace
}  // namespace fdlsp
