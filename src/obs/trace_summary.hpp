// Turns a parsed trace back into per-query timelines: phase latency
// breakdowns (backlog wait vs root lookup vs level-k scanning), hop trees,
// and a top-N slowest-query table. This is the analysis core of
// tools/traceview, kept in the library so tests can golden-check the
// rendered output and harnesses can post-process traces programmatically.
//
// The phase model matches the spans the query engine emits (see
// docs/OBSERVABILITY.md): a "query" span enclosing an optional "backlog"
// span, a "root_lookup" span, and one "level" span per dispatch round, with
// "scan" / "retransmit" instants inside and a terminal outcome instant
// ("complete", "timeout", "failed", or "shed").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hkws::obs {

/// One query's reconstructed life, in ticks.
struct QueryTimeline {
  std::uint64_t id = 0;
  sim::Time start = 0;
  sim::Time finish = 0;
  sim::Time backlog = 0;  ///< time queued before admission
  sim::Time root = 0;     ///< root-lookup phase (admit -> root resolved)
  sim::Time scan = 0;     ///< summed "level" span durations
  std::size_t levels = 0;
  std::size_t scans = 0;
  std::size_t retransmits = 0;
  std::uint64_t hits = 0;
  std::string outcome;  ///< terminal instant name; "" if the trace is open

  sim::Time latency() const noexcept { return finish - start; }
};

struct TraceSummary {
  std::size_t events = 0;
  bool balanced = true;  ///< span begin/end balance across all tracks
  std::vector<QueryTimeline> queries;           ///< sorted by id
  std::map<std::string, std::size_t> outcomes;  ///< outcome -> count
};

TraceSummary summarize(const std::vector<TraceEvent>& events);

/// Event counts, outcome tally, per-phase latency breakdown over completed
/// queries, and the top_n slowest-query table, as printable text.
std::string render_summary(const TraceSummary& summary, std::size_t top_n = 5);

/// The hop tree of one query: its events in order, indented by span depth.
/// Empty string if the trace holds no events for `query_id`.
std::string render_hop_tree(const std::vector<TraceEvent>& events,
                            std::uint64_t query_id);

}  // namespace hkws::obs
