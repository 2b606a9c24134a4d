// Fault injection at the Transport narrow waist: one interface every
// backend consults from inside its own send path.
//
// A backend with a FaultModel installed numbers its wire sends 0, 1, 2, ...
// from the install — local sends (from == to) and sends to unregistered
// endpoints are not wire traffic, so they are neither numbered nor
// inspected — and asks the model what to do with each one:
//
//  * drop       — the message is never delivered (nor, on the socket
//                 backends, written). It still counts as sent (net.messages,
//                 net.bytes, msg.<kind>) and as lost: net.lost,
//                 net.lost.<kind>, net.dropped.fault, and a send-observer
//                 record with lost = true.
//  * duplicate  — N extra copies, each a full wire message of its own,
//                 counted net.dup per extra copy.
//  * delay      — extra one-way latency (net.delayed). The socket backends
//                 defer the send through schedule_in(), so wait_idle()
//                 covers a delayed message until it lands.
//
// sim::Network (set_fault_model(model)) draws from the network's own RNG;
// net::SocketTransport (set_fault_model(model, seed)) hands the model an Rng
// seeded at the install. With no model installed a send is inspected by
// nothing: the simulator checks a pointer, the socket backends one relaxed
// atomic load.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "net/transport.hpp"

namespace hkws::net {

/// What a FaultModel decided to do to one wire message. Defaults = deliver
/// untouched.
struct FaultActions {
  bool drop = false;             ///< lose the message entirely
  std::uint32_t duplicates = 0;  ///< extra copies, each delivered separately
  Time extra_delay = 0;          ///< added one-way latency (reorders traffic)

  /// True if the message is delivered exactly as sent.
  bool clean() const noexcept {
    return !drop && duplicates == 0 && extra_delay == 0;
  }
};

/// Pluggable deterministic fault scheduler. `seq` is the 0-based number of
/// the wire message since the model was installed, so a seeded schedule of
/// faults replays identically.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  virtual FaultActions inspect(EndpointId from, EndpointId to,
                               const std::string& kind, std::uint64_t seq,
                               Rng& rng) = 0;
};

/// Drops every wire message independently with probability `p`.
class BernoulliDrop final : public FaultModel {
 public:
  explicit BernoulliDrop(double p) : p_(p) {}
  FaultActions inspect(EndpointId, EndpointId, const std::string&,
                       std::uint64_t, Rng& rng) override {
    return FaultActions{.drop = rng.next_bool(p_)};
  }

 private:
  double p_;
};

}  // namespace hkws::net
