// Test-only program set: one plain struct per node behind SyncProgramSet.
//
// Toy protocols in the tests write each node's program as a struct P with
//   void on_round(SyncContext&, const SyncInbox&);
//   bool ready_for_phase_advance() const;
//   void on_phase(std::size_t new_phase);
//   bool finished() const;
// and NodeSet<P> forwards the engine's callbacks for node v to the v-th
// struct. A struct that needs its node id reads ctx.self().
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/sync_engine.h"

namespace fdlsp {

template <class P>
class NodeSet final : public SyncProgramSet {
 public:
  explicit NodeSet(std::vector<P> nodes) : nodes_(std::move(nodes)) {}

  /// `count` copies of `node`.
  NodeSet(std::size_t count, const P& node) : nodes_(count, node) {}

  std::size_t size() const override { return nodes_.size(); }
  void on_round(NodeId v, SyncContext& ctx, const SyncInbox& inbox) override {
    nodes_[v].on_round(ctx, inbox);
  }
  bool ready_for_phase_advance(NodeId v) const override {
    return nodes_[v].ready_for_phase_advance();
  }
  void on_phase(NodeId v, std::size_t new_phase) override {
    nodes_[v].on_phase(new_phase);
  }
  bool finished(NodeId v) const override { return nodes_[v].finished(); }

  P& operator[](NodeId v) { return nodes_[v]; }
  const P& operator[](NodeId v) const { return nodes_[v]; }

 private:
  std::vector<P> nodes_;
};

}  // namespace fdlsp
