#include "torture/fault_plan.hpp"

#include <array>
#include <sstream>

#include "common/hash.hpp"

namespace hkws::torture {

namespace {
/// Stream salt keeping plan randomness independent of workload randomness
/// derived from the same scenario seed.
constexpr std::uint64_t kPlanSalt = 0xfa017a9bc4e1d2f3ULL;
}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kFailPeer: return "fail-peer";
    case FaultKind::kPartition: return "partition";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream out;
  out << torture::to_string(kind);
  switch (kind) {
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
      out << " @wire " << target;
      break;
    case FaultKind::kDelay:
      out << " @wire " << target << " +" << arg << " ticks";
      break;
    case FaultKind::kFailPeer:
      out << " @round " << target << " victim#" << arg;
      break;
    case FaultKind::kPartition:
      out << " @wire " << target << " span " << partition_span(arg)
          << " bit " << partition_bit(arg);
      break;
  }
  return out.str();
}

namespace {
constexpr std::uint64_t kSpanMask = (1ULL << 48) - 1;
constexpr unsigned kBitShift = 48;
constexpr unsigned kBitMask = 0x3f;
}  // namespace

std::uint64_t FaultEvent::pack_partition(std::uint64_t span, unsigned bit) {
  return (span & kSpanMask) |
         (static_cast<std::uint64_t>(bit & kBitMask) << kBitShift);
}

std::uint64_t FaultEvent::partition_span(std::uint64_t arg) {
  return arg & kSpanMask;
}

unsigned FaultEvent::partition_bit(std::uint64_t arg) {
  return static_cast<unsigned>((arg >> kBitShift) & kBitMask);
}

bool partition_side(sim::EndpointId ep, unsigned bit) {
  return ((mix64(static_cast<std::uint64_t>(ep)) >> (bit & kBitMask)) & 1) !=
         0;
}

FaultPlan FaultPlan::from_seed(std::uint64_t seed,
                               const FaultPlanConfig& cfg) {
  FaultPlan plan;
  Rng rng(mix64(seed ^ kPlanSalt));

  std::vector<FaultKind> menu;
  if (cfg.allow_drops) menu.push_back(FaultKind::kDrop);
  if (cfg.allow_dups) menu.push_back(FaultKind::kDuplicate);
  if (cfg.allow_delays) menu.push_back(FaultKind::kDelay);
  if (!menu.empty()) {
    const std::size_t n = cfg.max_events == 0
                              ? 0
                              : 1 + rng.next_below(cfg.max_events);
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = menu[rng.next_below(menu.size())];
      ev.target = rng.next_below(cfg.horizon);
      if (ev.kind == FaultKind::kDelay)
        ev.arg = 1 + rng.next_below(cfg.max_delay);
      plan.events.push_back(ev);
    }
  }
  for (std::size_t i = 0; i < cfg.peer_failures; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kFailPeer;
    ev.target = rng.next_below(cfg.rounds == 0 ? 1 : cfg.rounds);
    ev.arg = rng.next_below(64);
    plan.events.push_back(ev);
  }
  for (std::size_t i = 0; i < cfg.partitions; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kPartition;
    ev.target = rng.next_below(cfg.horizon);
    const std::uint64_t span =
        1 + rng.next_below(cfg.max_partition_span == 0
                               ? 1
                               : cfg.max_partition_span);
    const unsigned bit = static_cast<unsigned>(rng.next_below(8));
    ev.arg = FaultEvent::pack_partition(span, bit);
    plan.events.push_back(ev);
  }
  return plan;
}

std::size_t FaultPlan::count(FaultKind kind) const {
  std::size_t n = 0;
  for (const FaultEvent& ev : events)
    if (ev.kind == kind) ++n;
  return n;
}

std::string FaultPlan::to_string() const {
  if (events.empty()) return "(no faults)\n";
  std::ostringstream out;
  for (const FaultEvent& ev : events) out << ev.to_string() << "\n";
  return out.str();
}

bool lossable(const std::string& kind) {
  // Exactly the steps the OverlayIndex retransmission layer guards — the
  // routed/direct T_QUERY, the coalesced VisitBatch round (its merged
  // results and control reply included: per-node step timers cover every
  // node of a lost batch, and the retransmit path replays each memoized
  // scan individually), the T_CONT/T_STOP control replies, result-batch
  // delivery, and the final done notification — plus the maintenance
  // plane's heartbeats, which tolerate loss by design (a dropped ping or
  // ack costs one suspicion round; confirmation needs consecutive misses).
  // Everything else (DHT routing and maintenance, publish/withdraw, pin,
  // cumulative sessions, HyperCuP tree forwarding) has no retransmission
  // and must not be dropped.
  static const std::array<const char*, 10> kinds = {
      "kws.t_query", "kws.t_cont", "kws.t_stop",
      "kws.results", "kws.done",   "kws.visit_batch",
      "kws.batch_results", "kws.batch_reply",
      "maint.ping",  "maint.ack"};
  for (const char* k : kinds)
    if (kind == k) return true;
  return false;
}

FaultInjector::FaultInjector(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) {
    switch (ev.kind) {
      case FaultKind::kDrop:
        by_seq_[ev.target].drop = true;
        break;
      case FaultKind::kDuplicate:
        ++by_seq_[ev.target].duplicates;
        break;
      case FaultKind::kDelay:
        by_seq_[ev.target].extra_delay += static_cast<sim::Time>(ev.arg);
        break;
      case FaultKind::kFailPeer:
        break;  // executed by the ScenarioRunner, not on the wire
      case FaultKind::kPartition:
        partitions_.push_back(
            {ev.target, ev.target + FaultEvent::partition_span(ev.arg),
             FaultEvent::partition_bit(ev.arg)});
        break;
    }
  }
}

net::FaultActions FaultInjector::inspect(sim::EndpointId from,
                                         sim::EndpointId to,
                                         const std::string& kind,
                                         std::uint64_t seq, Rng&) {
  net::FaultActions actions;
  const bool tolerant = lossable(kind);
  // Partition windows: while `seq` sits inside an active cut, every
  // loss-tolerant message crossing the bisection is dropped, in both
  // directions. Non-tolerant kinds pass: the protocol's availability
  // claim is that loss-tolerant steps survive partitions, not that
  // un-guarded traffic does.
  if (tolerant) {
    for (const Partition& p : partitions_) {
      if (seq < p.start || seq >= p.end) continue;
      if (partition_side(from, p.bit) == partition_side(to, p.bit)) continue;
      actions.drop = true;
      ++partition_cuts_;
      ++applied_;
      break;
    }
  }
  const auto it = by_seq_.find(seq);
  if (it == by_seq_.end()) return actions;
  const Planned& p = it->second;
  if (p.drop && tolerant) actions.drop = true;
  if (p.duplicates != 0 && tolerant) actions.duplicates = p.duplicates;
  actions.extra_delay = p.extra_delay;
  if (actions.drop || actions.duplicates != 0 || actions.extra_delay != 0)
    ++applied_;
  return actions;
}

}  // namespace hkws::torture
