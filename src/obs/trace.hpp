// Structured span tracing on sim-time. A Tracer collects begin/end/instant
// events — each carrying a sim-time timestamp, a track id (tid; the engine
// uses the query id, 0 is the global track), a name, a category, and two
// point-specific integer args — and exports them as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. With tid = query id, each query
// renders as its own "thread", so a superset query's SBT hop tree is visible
// level by level: the "query" span encloses "backlog" / "root_lookup" /
// per-"level" child spans (one per dispatch round) with "scan" and
// "retransmit" instants inside.
//
// Balance guarantee: the Tracer tracks open spans per tid. end() closes the
// innermost open span and close_open() closes all of them, so a producer
// that calls close_open() on every terminal transition exports a trace in
// which 'B' and 'E' events balance per tid — which is what trace_reader's
// span_imbalance() verifies and tools/traceview --check enforces.
//
// Bounded capture: with max_events != 0 the Tracer stops *opening* new
// spans and recording instants once the cap is reached, but still records
// the 'E' events of spans it already opened (so the capped trace stays
// balanced). Dropped events are counted and exported in the JSON metadata —
// a truncated trace never silently poses as a complete one.
//
// Feeding a Tracer: engine::EngineConfig::tracer instruments the query
// engine, attach_network() instruments every wire send, and
// torture::ScenarioRunner::set_tracer instruments scenario rounds. All
// timestamps are passed in explicitly, so one Tracer can serve components
// on different clocks (ticks are exported as-is; one tick ~ 1 ms).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"

namespace hkws::net {
class Transport;
}

namespace hkws::obs {

/// One Chrome trace-event. `ph` is the trace-event phase: 'B' span begin,
/// 'E' span end, 'i' instant.
struct TraceEvent {
  sim::Time ts = 0;
  std::uint64_t tid = 0;  ///< track: engine query id; 0 = global track
  char ph = 'i';
  std::string name;
  std::string cat;
  std::uint64_t a = 0;  ///< exported as args.a (point-specific)
  std::uint64_t b = 0;  ///< exported as args.b (point-specific)
};

class Tracer {
 public:
  /// @param max_events  0 = unbounded; otherwise new spans/instants beyond
  ///                    the cap are dropped (and counted in dropped()).
  explicit Tracer(std::size_t max_events = 0) : max_events_(max_events) {}

  /// Opens a span on track `tid`.
  void begin(sim::Time ts, std::uint64_t tid, std::string name,
             std::string cat = "", std::uint64_t a = 0, std::uint64_t b = 0);

  /// Closes the innermost open span on track `tid` (no-op if none).
  void end(sim::Time ts, std::uint64_t tid);

  /// Records a point event on track `tid`.
  void instant(sim::Time ts, std::uint64_t tid, std::string name,
               std::string cat = "", std::uint64_t a = 0, std::uint64_t b = 0);

  /// Closes every open span on track `tid`, innermost first. Producers call
  /// this on terminal transitions so exported traces balance per track.
  void close_open(sim::Time ts, std::uint64_t tid);

  /// Name of the innermost open span on `tid` ("" if none).
  const std::string& open_top(std::uint64_t tid) const;
  std::size_t open_spans(std::uint64_t tid) const;

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// The whole trace as one Chrome trace-event JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms","otherData":{...}}.
  std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  /// True if a new event may be recorded (cap not reached).
  bool admit();

  std::size_t max_events_ = 0;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  /// Names of currently-open spans per track, outermost first.
  std::unordered_map<std::uint64_t, std::vector<std::string>> open_;
};

/// Instruments every wire send of `net` as an instant event on the global
/// track: name = message kind, cat = "net" ("net.lost" for messages the
/// drop/fault model lost), args a/b = from/to endpoints. Works on any
/// Transport backend — the simulator and the TCP runtime report through the
/// same per-send observer, so hop traces stay truthful on both. The tracer
/// must outlive the transport (or the observer must be removed first).
void attach_network(Tracer& tracer, net::Transport& net);

}  // namespace hkws::obs
