#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace hkws::net {

UdpTransport::UdpTransport(Config cfg)
    : SocketTransport(CommonConfig{cfg.tick, cfg.parked_ttl}, kMaxPad) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket failed");
  // Generous buffers: a burst of envelopes must not turn into silent
  // kernel-side loss beyond what fault injection drops deliberately.
  const int bufsz = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("UdpTransport: bind failed");
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  self_addr_ = addr;

  if (::pipe(wake_pipe_) != 0) {
    ::close(fd_);
    throw std::runtime_error("UdpTransport: pipe failed");
  }

  io_thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "hk-io");
    io_loop();
  });
  start_dispatch();
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::stop() {
  if (!begin_stop()) return;
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  join_dispatch();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lk(send_mu_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void UdpTransport::wire_write(const Run& run, std::vector<WireResult>& fate) {
  if (stopping()) return;
  const sockaddr_in dest = run.remote.value_or(self_addr_);

  std::lock_guard<std::mutex> lk(send_mu_);
  if (fd_ < 0) return;
  // One datagram per frame, each with its own fate.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < run.frames.size(); ++i) {
    const std::uint8_t* data = run.bytes.data() + begin;
    const std::size_t len = run.frames[i].end - begin;
    begin = run.frames[i].end;
    if (len > kMaxDatagram) continue;  // cannot be carried: kConnDead
    const ssize_t n =
        ::sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&dest),
                 sizeof(dest));
    if (n == static_cast<ssize_t>(len)) fate[i] = WireResult::kOk;
  }
}

void UdpTransport::io_loop() {
  std::vector<std::uint8_t> buf(64 * 1024);
  std::vector<EnvelopeMsg> batch;  // the envelopes one drain received
  while (true) {
    if (stopping()) break;
    sweep_parked();
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, 100) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const ssize_t n =
          ::recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT, nullptr,
                     nullptr);
      if (n <= 0) break;
      // One datagram, one frame: no reassembly. A malformed or truncated
      // datagram is counted and dropped; the socket lives on.
      std::optional<DecodedFrame> frame =
          decode_frame(buf.data(), static_cast<std::size_t>(n));
      if (!frame.has_value() || frame->kind != MsgKind::kEnvelope) {
        note_decode_error();
        continue;
      }
      batch.push_back(std::get<EnvelopeMsg>(std::move(frame->msg)));
    }
    on_envelopes(batch);
    batch.clear();
  }
}

}  // namespace hkws::net
