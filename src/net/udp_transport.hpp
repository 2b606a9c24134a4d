// The UDP Transport backend: every envelope is one datagram, and the
// medium genuinely loses packets — which is the point. The loss machinery
// the protocol layers grew against the simulator's fault models (step
// timeouts, retransmission, exponential backoff, failover) runs here
// against a wire where loss is the transport's native failure mode.
//
// Architecture (per instance): one loopback UDP socket, bound ephemeral.
// Self-wire frames (parked-handler sends) and cross-process payload frames
// (peer-address table) both go out as single datagrams via sendto(), one
// per frame of each run the base writes; the io thread recvfrom()s whole
// envelopes — no stream reassembly, datagram boundaries are frame
// boundaries — and feeds everything one drain of the socket received to
// the SocketTransport base at once, exactly like the TCP backend.
//
// Loss semantics (docs/ROBUSTNESS.md):
//  * seeded loss is the SocketTransport fault hook's (set_fault_model with
//    a net::BernoulliDrop, say): a dropped send is never written, and
//    counts net.dropped.fault + net.lost, like a sim drop, with no
//    peer-down report (packet loss is not peer death);
//  * a frame the kernel or the read side swallows (buffer overrun,
//    drop_inbound) leaks no state: the parked-handler sweep releases the
//    sender's slot as net.dropped.conn after parked_ttl;
//  * frames larger than one datagram (kMaxDatagram) cannot be carried and
//    are counted net.dropped.conn when their run is written.
// Either way the conservation identity net.messages == net.delivered +
// net.lost closes per process; retransmission above (OverlayIndex /
// PeerSlice step timers) is what masks the loss from the application.
//
// Unlike TCP there is no per-destination ordering guarantee; protocol
// layers that need publish-before-query ordering must settle between
// phases (index::PeerSlice::publish does).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/socket_transport.hpp"

namespace hkws::net {

class UdpTransport final : public SocketTransport {
 public:
  /// Largest envelope frame one datagram carries (conservative loopback
  /// UDP payload bound).
  static constexpr std::size_t kMaxDatagram = 60 * 1024;
  /// Cap on per-frame padding bytes: harder than TCP's, so a padded
  /// envelope always fits one datagram.
  static constexpr auto kMaxPad = static_cast<std::uint32_t>(kMaxDatagram / 2);

  struct Config {
    /// Deadline for parked delivery handlers (see CommonConfig::parked_ttl).
    std::chrono::milliseconds parked_ttl{3000};
  };

  explicit UdpTransport(Config cfg);
  UdpTransport() : UdpTransport(Config{}) {}
  ~UdpTransport() override;

  /// The loopback port this instance's socket is bound to.
  std::uint16_t port() const noexcept { return port_; }

  void stop() override;

 private:
  void wire_write(const Run& run, std::vector<WireResult>& fate) override;
  void io_loop();

  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  sockaddr_in self_addr_{};

  std::mutex send_mu_;  ///< serializes sendto against close

  std::thread io_thread_;
};

}  // namespace hkws::net
