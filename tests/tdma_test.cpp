// Tests for the TDMA layer: schedule, radio replay, energy, convergecast.
#include <gtest/gtest.h>

#include "algos/scheduler.h"
#include "coloring/conflict.h"
#include "coloring/greedy.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "tdma/convergecast.h"
#include "tdma/energy.h"
#include "tdma/radio_sim.h"
#include "tdma/schedule.h"

namespace fdlsp {
namespace {

TdmaSchedule make_schedule(const ArcView& view) {
  return TdmaSchedule(view, greedy_coloring(view));
}

TEST(TdmaSchedule, SingleEdgeTwoSlots) {
  const Graph graph = generate_path(2);
  const ArcView view(graph);
  const TdmaSchedule schedule = make_schedule(view);
  EXPECT_EQ(schedule.frame_length(), 2u);
  EXPECT_EQ(schedule.arcs_in_slot(0).size(), 1u);
  EXPECT_EQ(schedule.arcs_in_slot(1).size(), 1u);
  EXPECT_NE(schedule.slot_of(0), schedule.slot_of(1));
}

TEST(TdmaSchedule, CompactsColorGaps) {
  const Graph graph = generate_path(2);
  const ArcView view(graph);
  ArcColoring coloring(view.num_arcs());
  coloring.set(0, 3);
  coloring.set(1, 7);  // gap-y colors must compact to 2 slots
  const TdmaSchedule schedule(view, coloring);
  EXPECT_EQ(schedule.frame_length(), 2u);
}

TEST(TdmaSchedule, RolesConsistent) {
  Rng rng(601);
  const Graph graph = generate_gnm(20, 40, rng);
  const ArcView view(graph);
  const TdmaSchedule schedule = make_schedule(view);
  for (std::size_t s = 0; s < schedule.frame_length(); ++s) {
    for (ArcId a : schedule.arcs_in_slot(s)) {
      EXPECT_EQ(schedule.role(view.tail(a), s), SlotRole::kTransmit);
      EXPECT_EQ(schedule.role(view.head(a), s), SlotRole::kReceive);
    }
  }
  // transmit_slots/receive_slots agree with role().
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (std::size_t s : schedule.transmit_slots(v))
      EXPECT_EQ(schedule.role(v, s), SlotRole::kTransmit);
    for (std::size_t s : schedule.receive_slots(v))
      EXPECT_EQ(schedule.role(v, s), SlotRole::kReceive);
    EXPECT_EQ(schedule.transmit_slots(v).size(), graph.degree(v));
    EXPECT_EQ(schedule.receive_slots(v).size(), graph.degree(v));
  }
}

TEST(TdmaSchedule, RejectsIncompleteColoring) {
  const Graph graph = generate_path(3);
  const ArcView view(graph);
  ArcColoring partial(view.num_arcs());
  partial.set(0, 0);
  EXPECT_THROW(TdmaSchedule(view, partial), contract_error);
}

TEST(RadioSim, FeasibleSchedulesAreCollisionFree) {
  Rng rng(607);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph graph = generate_gnm(25, 55, rng);
    const ArcView view(graph);
    const TdmaSchedule schedule = make_schedule(view);
    const RadioReport report = replay_frame(schedule);
    EXPECT_TRUE(report.collision_free());
    EXPECT_EQ(report.scheduled, view.num_arcs());
    EXPECT_EQ(report.delivered, view.num_arcs());
  }
}

TEST(RadioSim, DetectsHiddenTerminalPhysically) {
  // Force the classic violation on a path 0-1-2-3: (0->1) and (2->3) share
  // a slot; node 1 hears 0 and 2 simultaneously.
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring bad(view.num_arcs());
  Color next = 0;
  for (ArcId a = 0; a < view.num_arcs(); ++a) bad.set(a, next++);
  bad.set(view.find_arc(0, 1), 100);
  bad.set(view.find_arc(2, 3), 100);
  const TdmaSchedule schedule(view, bad);
  const RadioReport report = replay_frame(schedule);
  EXPECT_FALSE(report.collision_free());
  bool found = false;
  for (const RadioFailure& failure : report.failures) {
    if (failure.arc == view.find_arc(0, 1)) {
      found = true;
      EXPECT_EQ(failure.interferers, 2u);  // hears 0 and 2
    }
  }
  EXPECT_TRUE(found);
}

TEST(RadioSim, DetectsTxRxSameNode) {
  // (0->1) and (1->2) in one slot: node 1 transmits while receiving — the
  // schedule constructor itself must reject this role clash.
  const Graph path = generate_path(3);
  const ArcView view(path);
  ArcColoring bad(view.num_arcs());
  Color next = 0;
  for (ArcId a = 0; a < view.num_arcs(); ++a) bad.set(a, next++);
  bad.set(view.find_arc(0, 1), 50);
  bad.set(view.find_arc(1, 2), 50);
  EXPECT_THROW(TdmaSchedule(view, bad), contract_error);
}

TEST(RadioSim, AgreesWithConflictPredicateOnAllPairSlots) {
  // Oracle cross-check: for every arc pair of a small graph, putting the two
  // arcs alone in a shared slot collides iff arcs_conflict says so.
  Rng rng(611);
  const Graph graph = generate_gnm(8, 12, rng);
  const ArcView view(graph);
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    for (ArcId b = a + 1; b < view.num_arcs(); ++b) {
      // Color everything distinct except the pair.
      ArcColoring coloring(view.num_arcs());
      Color next = 1;
      for (ArcId arc = 0; arc < view.num_arcs(); ++arc) {
        if (arc == a || arc == b)
          coloring.set(arc, 0);
        else
          coloring.set(arc, ++next);
      }
      const NodeId heads[2] = {view.head(a), view.head(b)};
      const NodeId tails[2] = {view.tail(a), view.tail(b)};
      if (heads[0] == tails[1] || heads[1] == tails[0]) {
        // A node transmitting and receiving in one slot is a role clash the
        // schedule constructor itself rejects.
        EXPECT_TRUE(arcs_conflict(view, a, b));
        EXPECT_THROW(TdmaSchedule(view, coloring), contract_error);
        continue;
      }
      if (tails[0] == tails[1]) {
        // Same transmitter: physically a broadcast (each receiver hears one
        // signal), but FDLSP forbids it — a sensor sends one link's payload
        // per slot (constraint 4). Semantic, not physical, so the radio
        // replay is allowed to deliver here.
        EXPECT_TRUE(arcs_conflict(view, a, b));
        continue;
      }
      const TdmaSchedule schedule(view, coloring);
      RadioReport report = replay_frame(schedule);
      bool pair_failed = false;
      for (const RadioFailure& failure : report.failures)
        pair_failed |= (failure.arc == a || failure.arc == b);
      EXPECT_EQ(pair_failed, arcs_conflict(view, a, b))
          << "arcs " << a << "," << b;
    }
  }
}

TEST(Energy, IdleNodesSleep) {
  const Graph star = generate_star(5);
  const ArcView view(star);
  const TdmaSchedule schedule = make_schedule(view);
  const EnergyReport report = account_energy(schedule);
  // The hub is busy in every slot (every arc touches it): duty cycle 1.
  EXPECT_DOUBLE_EQ(report.per_node[0].duty_cycle(), 1.0);
  // A leaf is busy in exactly 2 slots of the frame.
  const NodeEnergy& leaf = report.per_node[1];
  EXPECT_EQ(leaf.transmit_slots, 1u);
  EXPECT_EQ(leaf.receive_slots, 1u);
  EXPECT_EQ(leaf.sleep_slots, schedule.frame_length() - 2);
  EXPECT_GT(report.total_energy, 0.0);
  EXPECT_LE(report.max_duty_cycle, 1.0);
}

TEST(Energy, CustomModelScales) {
  const Graph graph = generate_path(2);
  const ArcView view(graph);
  const TdmaSchedule schedule = make_schedule(view);
  EnergyModel expensive;
  expensive.transmit_cost = 10.0;
  expensive.receive_cost = 5.0;
  expensive.sleep_cost = 0.0;
  const EnergyReport report = account_energy(schedule, expensive);
  // Each node transmits once and receives once: 15 energy each.
  EXPECT_DOUBLE_EQ(report.per_node[0].energy, 15.0);
  EXPECT_DOUBLE_EQ(report.per_node[1].energy, 15.0);
  EXPECT_DOUBLE_EQ(report.total_energy, 30.0);
}

TEST(Convergecast, LineDeliversEverything) {
  const Graph path = generate_path(5);
  const ArcView view(path);
  const TdmaSchedule schedule = make_schedule(view);
  const ConvergecastReport report = run_convergecast(schedule, 0);
  EXPECT_EQ(report.packets_delivered, 4u);
  EXPECT_GT(report.frames, 0u);
  EXPECT_GT(report.slot_utilization, 0.0);
  EXPECT_LE(report.slot_utilization, 1.0);
}

TEST(Convergecast, StarDrainsInLeafCountFrames) {
  // Hub sink: leaves each deliver directly; one uplink per leaf per frame,
  // all leaf slots distinct, so a single frame drains everything.
  const Graph star = generate_star(6);
  const ArcView view(star);
  const TdmaSchedule schedule = make_schedule(view);
  const ConvergecastReport report = run_convergecast(schedule, 0);
  EXPECT_EQ(report.packets_delivered, 5u);
  EXPECT_EQ(report.frames, 1u);
}

TEST(Convergecast, RandomConnectedGraphs) {
  Rng rng(613);
  int done = 0;
  while (done < 5) {
    const Graph graph = generate_gnm(30, 70, rng);
    if (!is_connected(graph)) continue;
    ++done;
    const ArcView view(graph);
    const TdmaSchedule schedule = make_schedule(view);
    const ConvergecastReport report = run_convergecast(schedule, 0);
    EXPECT_EQ(report.packets_delivered, graph.num_nodes() - 1);
    EXPECT_LE(report.frames, 2 * graph.num_nodes());
  }
}

TEST(Convergecast, SchedulerOutputsDriveTraffic) {
  // End-to-end: a DistMIS schedule carries a convergecast epoch.
  Rng rng(617);
  Graph graph = generate_gnm(25, 60, rng);
  while (!is_connected(graph)) graph = generate_gnm(25, 60, rng);
  const auto result =
      run_scheduler(SchedulerKind::kDistMisGbg, graph, {.seed = 3});
  const ArcView view(graph);
  const TdmaSchedule schedule(view, result.coloring);
  EXPECT_TRUE(replay_frame(schedule).collision_free());
  const ConvergecastReport report = run_convergecast(schedule, 0);
  EXPECT_EQ(report.packets_delivered, graph.num_nodes() - 1);
}

TEST(Energy, TransmitSlotsSumToArcCount) {
  // Same-tail arcs conflict, so every out-arc of a node occupies its own
  // transmit slot: per node tx slots == degree, summing to 2m.
  Rng rng(619);
  const Graph graph = generate_gnm(30, 70, rng);
  const ArcView view(graph);
  const TdmaSchedule schedule(view, greedy_coloring(view));
  const EnergyReport report = account_energy(schedule);
  std::size_t total_tx = 0, total_rx = 0;
  for (const NodeEnergy& node : report.per_node) {
    total_tx += node.transmit_slots;
    total_rx += node.receive_slots;
  }
  EXPECT_EQ(total_tx, view.num_arcs());
  EXPECT_EQ(total_rx, view.num_arcs());
}

TEST(Convergecast, AnySinkWorks) {
  Rng rng(621);
  Graph graph = generate_gnm(20, 45, rng);
  while (!is_connected(graph)) graph = generate_gnm(20, 45, rng);
  const ArcView view(graph);
  const TdmaSchedule schedule(view, greedy_coloring(view));
  for (NodeId sink : {NodeId{0}, NodeId{7}, NodeId{19}}) {
    const ConvergecastReport report = run_convergecast(schedule, sink);
    EXPECT_EQ(report.packets_delivered, graph.num_nodes() - 1)
        << "sink " << sink;
  }
}

TEST(Convergecast, RejectsDisconnected) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const Graph graph = builder.build();
  const ArcView view(graph);
  const TdmaSchedule schedule = make_schedule(view);
  EXPECT_THROW(run_convergecast(schedule, 0), contract_error);
}

}  // namespace
}  // namespace fdlsp
