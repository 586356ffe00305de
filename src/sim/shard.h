// Contiguous node partition used by the sharded synchronous engine.
//
// The engine splits the node id space [0, n) into `count` contiguous
// shards (s * n / count boundaries). Shard s owns [lo(s), hi(s)): it runs
// those nodes' callbacks and stores their sends in its own outbox. Inboxes
// pull senders by ascending id whatever shard holds them, which keeps every
// partition byte-identical to the serial run — the determinism contract of
// tests/engine_parallel_test.cpp.
#pragma once

#include <cstddef>

namespace fdlsp {

/// Partition of [0, n) into `count` contiguous ranges.
struct ShardPlan {
  std::size_t n = 0;
  std::size_t count = 1;

  /// First node of shard s.
  std::size_t lo(std::size_t s) const noexcept { return s * n / count; }

  /// One past the last node of shard s.
  std::size_t hi(std::size_t s) const noexcept {
    return (s + 1) * n / count;
  }
};

}  // namespace fdlsp
