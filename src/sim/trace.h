// Simulation trace hook: the engines' seam for protocol-level dynamic
// analysis.
//
// Both engines optionally report their primitive events — a node starting a
// local computation step, a message send, a message delivery, and any
// mid-run access to another node's program object — to a SimTrace observer.
// The hook exists so analyses (the vector-clock happens-before checker in
// src/analysis/happens_before.h, future schedule recorders) can be woven
// into a run without touching the hot path: with no trace attached every
// instrumentation point is a single null check.
//
// Event semantics the engines guarantee:
//   * on_deliver events for one directed (from, to) channel occur in the
//     same order as the matching on_send events (both engines are FIFO per
//     channel), so an observer may pair them with a queue.
//   * on_local_step(v) fires immediately before v's program callback runs
//     (round execution, message handler, start hook, phase notification),
//     after any on_deliver events for the messages that callback consumes.
//   * on_state_read(reader, owner) fires when the program of `reader`,
//     while executing, obtains the program object of a different node
//     `owner` through AsyncEngine::program() — the only sanctioned way
//     simulated nodes share an address space. Reads performed outside any
//     program callback (the drivers collecting results after run()) are
//     not reported. SyncEngine hands out no per-node program objects (its
//     programs are one SyncProgramSet), so it never fires this event.
#pragma once

#include "graph/types.h"

namespace fdlsp {

/// Observer for engine-level events; see the header comment for semantics.
class SimTrace {
 public:
  virtual ~SimTrace() = default;

  /// Node `node` begins a local computation step.
  virtual void on_local_step(NodeId node) = 0;

  /// Node `from` sent a message to its direct neighbor `to`. Under a
  /// FaultPlan (sim/fault.h) this fires once per enqueued copy — zero for a
  /// dropped message, twice for a duplicated one — so every on_deliver
  /// still pairs with exactly one on_send and happens-before checking
  /// stays exact on faulted runs.
  virtual void on_send(NodeId from, NodeId to) = 0;

  /// The message `from` -> `to` is being delivered (receiver consumes it in
  /// the local step that follows).
  virtual void on_deliver(NodeId from, NodeId to) = 0;

  /// Node `reader`, mid-step, directly accessed the program state of node
  /// `owner` (shared-memory escape from the message API).
  virtual void on_state_read(NodeId reader, NodeId owner) = 0;
};

}  // namespace fdlsp
