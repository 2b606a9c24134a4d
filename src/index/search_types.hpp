// Shared vocabulary of the search operations (paper §2.2, §3.3):
// strategies, per-query cost accounting, and results.
#pragma once

#include <cstddef>
#include <vector>

#include "index/index_table.hpp"

namespace hkws::index {

/// How the subhypercube of a superset search is explored.
enum class SearchStrategy {
  /// The paper's main algorithm: root-coordinated breadth-first descent of
  /// the spanning binomial tree, one node at a time, general objects first.
  kTopDownSequential,
  /// The §3.3 variant preferring specific objects: deepest tree levels
  /// first, root-coordinated, one node at a time.
  kBottomUpSequential,
  /// The §3.5 speed-up: all nodes of an SBT level are queried in parallel;
  /// latency drops to r - |One(F_h(K))| rounds at the same message cost.
  /// With co-host coalescing on (OverlayIndex's default), an exhaustive
  /// search (threshold 0) queries every level in one round, one message
  /// per peer; a thresholded one keeps a round per level for its early
  /// stop.
  kLevelParallel,
};

/// Cost accounting for one search operation, in the paper's units.
struct SearchStats {
  /// Hypercube nodes that received the query (including the root).
  std::size_t nodes_contacted = 0;
  /// Messages: T_QUERY per contacted node, T_CONT/T_STOP coordination
  /// replies, and one result delivery per contributing node.
  std::size_t messages = 0;
  /// Dispatch rounds, the time proxy: one per node visited after the root
  /// for the sequential strategies, one per dispatched level for
  /// kLevelParallel, and 1 when OverlayIndex runs an exhaustive
  /// kLevelParallel search's whole subcube in one coalesced round.
  std::size_t rounds = 0;
  /// SBT levels the search covered, the root's included; a level-parallel
  /// search that stops early covers fewer.
  std::size_t levels = 0;
  /// Whether the root answered the traversal plan from its query cache.
  bool cache_hit = false;
  /// Whether the search left nothing unvisited: no level (level-parallel)
  /// or queued node (sequential) was cut off by the result limit. A
  /// limited search that reaches its limit on its last level or node is
  /// still complete, so this does not mean the results are exhaustive.
  bool complete = false;
  /// Protocol-message retransmissions triggered by loss timeouts (always 0
  /// on a lossless network or with retransmission disabled).
  std::size_t retransmits = 0;
  /// Co-host coalescing (level-parallel only): merged VisitBatch wire
  /// messages sent, and logical node visits that rode one. Each batch of n
  /// visits replaces n T_QUERYs, up to n result messages, and n control
  /// replies with at most three messages.
  std::size_t coalesced_batches = 0;
  std::size_t coalesced_visits = 0;
  /// The protocol gave up: some step exhausted its retransmission budget.
  /// Hits hold whatever had arrived; `complete` is false.
  bool failed = false;
  /// Mid-query failovers: protocol steps re-aimed at a surrogate owner (or
  /// served by only one cube of a mirrored pair) because the original
  /// serving peer died. 0 on a stable membership.
  std::size_t failovers = 0;
  /// The search was served but crossed a failover: some serving peer died
  /// mid-query and a surrogate/mirror answered instead, so the result may
  /// silently miss entries that were lost with the peer and not yet
  /// repaired. Completeness verdict: failed > degraded > complete.
  bool degraded = false;
};

/// Result of a pin or superset search.
struct SearchResult {
  std::vector<Hit> hits;
  SearchStats stats;
};

}  // namespace hkws::index
