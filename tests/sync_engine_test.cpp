// Tests for the synchronous LOCAL-model engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/sync_engine.h"
#include "sim/trace.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

/// Floods the maximum node id seen so far; node v finishes when it has been
/// stable for `diameter` rounds. Classic leader-election-by-flooding.
class MaxFloodProgram final : public SyncProgram {
 public:
  MaxFloodProgram(NodeId self, std::size_t quiet_rounds_needed)
      : best_(self), quiet_needed_(quiet_rounds_needed) {}

  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    NodeId before = best_;
    for (const Message& message : inbox)
      best_ = std::max(best_, static_cast<NodeId>(message.data[0]));
    if (ctx.round() == 0 || best_ != before) {
      Message message;
      message.tag = 1;
      message.data = {static_cast<std::int64_t>(best_)};
      ctx.broadcast(std::move(message));
      quiet_ = 0;
    } else {
      ++quiet_;
    }
  }

  bool ready_for_phase_advance() const override { return true; }
  void on_phase(std::size_t) override {}
  bool finished() const override { return quiet_ >= quiet_needed_; }

  NodeId best() const { return best_; }

 private:
  NodeId best_;
  std::size_t quiet_ = 0;
  std::size_t quiet_needed_;
};

TEST(SyncEngine, FloodingConvergesToGlobalMax) {
  const Graph path = generate_path(8);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  for (NodeId v = 0; v < 8; ++v)
    programs.push_back(std::make_unique<MaxFloodProgram>(v, 10));
  SyncEngine engine(path, std::move(programs));
  const SyncMetrics metrics = engine.run();
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 8; ++v)
    EXPECT_EQ(static_cast<MaxFloodProgram&>(engine.program(v)).best(), 7u);
  // The max id (node 7) must travel 7 hops: at least 7 rounds.
  EXPECT_GE(metrics.rounds, 7u);
  EXPECT_GT(metrics.messages, 0u);
}

/// Counts rounds between phase advances; finishes after two phases.
class PhaseProgram final : public SyncProgram {
 public:
  void on_round(SyncContext&, const SyncInbox&) override {
    ++rounds_seen_;
  }
  bool ready_for_phase_advance() const override { return true; }
  void on_phase(std::size_t new_phase) override { phase_ = new_phase; }
  bool finished() const override { return phase_ >= 2; }

  std::size_t phase() const { return phase_; }
  std::size_t rounds_seen() const { return rounds_seen_; }

 private:
  std::size_t phase_ = 0;
  std::size_t rounds_seen_ = 0;
};

TEST(SyncEngine, BarrierAdvancesPhases) {
  const Graph path = generate_path(3);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  for (int i = 0; i < 3; ++i)
    programs.push_back(std::make_unique<PhaseProgram>());
  SyncEngine engine(path, std::move(programs));
  const SyncMetrics metrics = engine.run(100);
  EXPECT_TRUE(metrics.completed);
  EXPECT_GE(metrics.phases, 2u);
}

/// Sends one message to an illegal (non-neighbor) target.
class IllegalSendProgram final : public SyncProgram {
 public:
  void on_round(SyncContext& ctx, const SyncInbox&) override {
    Message message;
    message.tag = 1;
    ctx.send(2, std::move(message));  // node 2 is two hops away on a path
  }
  bool ready_for_phase_advance() const override { return false; }
  void on_phase(std::size_t) override {}
  bool finished() const override { return false; }
};

class IdleProgram final : public SyncProgram {
 public:
  void on_round(SyncContext&, const SyncInbox&) override {}
  bool ready_for_phase_advance() const override { return false; }
  void on_phase(std::size_t) override {}
  bool finished() const override { return false; }
};

TEST(SyncEngine, RejectsNonNeighborSend) {
  const Graph path = generate_path(3);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<IllegalSendProgram>());  // node 0
  programs.push_back(std::make_unique<IdleProgram>());
  programs.push_back(std::make_unique<IdleProgram>());
  SyncEngine engine(path, std::move(programs));
  EXPECT_THROW(engine.run(10), contract_error);
}

TEST(SyncEngine, RoundCapStopsRunaway) {
  const Graph path = generate_path(2);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<IdleProgram>());
  programs.push_back(std::make_unique<IdleProgram>());
  SyncEngine engine(path, std::move(programs));
  const SyncMetrics metrics = engine.run(25);
  EXPECT_FALSE(metrics.completed);
  EXPECT_EQ(metrics.rounds, 25u);
}

/// Finishes immediately but echoes every received message once — models a
/// retired relay node.
class RelayWhileFinished final : public SyncProgram {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    for (const Message& message : inbox) {
      if (message.data[0] > 0) {
        Message copy;
        copy.tag = message.tag;
        copy.data = {message.data[0] - 1};
        ctx.broadcast(std::move(copy));
      }
      ++relayed_;
    }
  }
  bool ready_for_phase_advance() const override { return true; }
  void on_phase(std::size_t) override {}
  bool finished() const override { return true; }
  std::size_t relayed() const { return relayed_; }

 private:
  std::size_t relayed_ = 0;
};

/// Sends one TTL'd message then finishes.
class OneShotSender final : public SyncProgram {
 public:
  void on_round(SyncContext& ctx, const SyncInbox&) override {
    if (sent_) return;
    sent_ = true;
    Message message;
    message.tag = 1;
    message.data = {3};
    ctx.broadcast(std::move(message));
  }
  bool ready_for_phase_advance() const override { return true; }
  void on_phase(std::size_t) override {}
  bool finished() const override { return sent_; }

 private:
  bool sent_ = false;
};

TEST(SyncEngine, FinishedNodesStillRelayMessages) {
  // Retired DistMIS nodes must keep forwarding floods; the engine calls
  // finished programs whenever their inbox is non-empty. Node 3 waits for
  // the flood, nodes 1-2 are finished relays.
  class WaitForMessage final : public SyncProgram {
   public:
    void on_round(SyncContext&, const SyncInbox& inbox) override {
      if (!inbox.empty()) got_it_ = true;
    }
    bool ready_for_phase_advance() const override { return false; }
    void on_phase(std::size_t) override {}
    bool finished() const override { return got_it_; }
    bool got_it_ = false;
  };
  const Graph path = generate_path(4);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<OneShotSender>());
  programs.push_back(std::make_unique<RelayWhileFinished>());
  programs.push_back(std::make_unique<RelayWhileFinished>());
  programs.push_back(std::make_unique<WaitForMessage>());
  SyncEngine engine(path, std::move(programs));
  const SyncMetrics metrics = engine.run(50);
  EXPECT_TRUE(metrics.completed);
  // The TTL'd flood crossed two *finished* relays to reach node 3.
  EXPECT_TRUE(static_cast<WaitForMessage&>(engine.program(3)).got_it_);
}

TEST(SyncEngine, BarrierWaitsForInFlightMessages) {
  // A message sent right before everyone votes ready must be delivered in
  // the old phase, not swallowed by the barrier.
  class SendThenReady final : public SyncProgram {
   public:
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      received_ += inbox.size();
      if (ctx.round() == 0) {
        Message message;
        message.tag = 1;
        message.data = {0};
        ctx.broadcast(std::move(message));
      }
      if (received_ >= 1 && phase_ >= 1) done_ = true;
    }
    bool ready_for_phase_advance() const override { return true; }
    void on_phase(std::size_t new_phase) override { phase_ = new_phase; }
    bool finished() const override { return done_; }
    std::size_t received_ = 0;
    std::size_t phase_ = 0;
    bool done_ = false;
  };
  const Graph path = generate_path(2);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<SendThenReady>());
  programs.push_back(std::make_unique<SendThenReady>());
  SyncEngine engine(path, std::move(programs));
  const SyncMetrics metrics = engine.run(20);
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 2; ++v)
    EXPECT_EQ(static_cast<SendThenReady&>(engine.program(v)).received_, 1u);
}

TEST(SyncEngine, RequiresOneProgramPerNode) {
  const Graph path = generate_path(3);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<IdleProgram>());
  EXPECT_THROW(SyncEngine(path, std::move(programs)), contract_error);
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
  class CenterUnicast final : public SyncProgram {
   public:
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      received_ += inbox.size();
      if (ctx.round() == 0 && ctx.self() == 0) {
        Message message;
        message.tag = 7;
        ctx.send(2, std::move(message));
      }
      ++rounds_;
    }
    bool ready_for_phase_advance() const override { return false; }
    void on_phase(std::size_t) override {}
    bool finished() const override { return rounds_ >= 2; }
    std::size_t received_ = 0;
    std::size_t rounds_ = 0;
  };
  const Graph star = generate_star(5);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  for (NodeId v = 0; v < 5; ++v)
    programs.push_back(std::make_unique<CenterUnicast>());
  SyncEngine engine(star, std::move(programs));
  const SyncMetrics metrics = engine.run(10);
  EXPECT_EQ(metrics.messages, 1u);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(static_cast<CenterUnicast&>(engine.program(v)).received_,
              v == 2 ? 1u : 0u)
        << "node " << v;
}

TEST(SyncInbox, FinishedNodeRunsOnlyWhenMailArrives) {
  // Node 1 is finished from the start; node 0 messages it in rounds 2 and
  // 5 only, so node 1 must run exactly in rounds 3 and 6.
  class Pinger final : public SyncProgram {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      if (ctx.round() == 2 || ctx.round() == 5) {
        Message message;
        message.tag = 1;
        ctx.broadcast(std::move(message));
      }
    }
    bool ready_for_phase_advance() const override { return false; }
    void on_phase(std::size_t) override {}
    bool finished() const override { return false; }
  };
  class Sleeper final : public SyncProgram {
   public:
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      EXPECT_FALSE(inbox.empty());
      ran_in_.push_back(ctx.round());
    }
    bool ready_for_phase_advance() const override { return true; }
    void on_phase(std::size_t) override {}
    bool finished() const override { return true; }
    std::vector<std::size_t> ran_in_;
  };
  const Graph path = generate_path(2);
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.push_back(std::make_unique<Pinger>());
  programs.push_back(std::make_unique<Sleeper>());
  SyncEngine engine(path, std::move(programs));
  engine.run(8);
  EXPECT_EQ(static_cast<Sleeper&>(engine.program(1)).ran_in_,
            (std::vector<std::size_t>{3, 6}));
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
