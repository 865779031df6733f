#include "relay.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <array>
#include <chrono>
#include <stdexcept>

namespace fedbench {

namespace fn = fedguard::net;

CountingRelay::CountingRelay(std::uint16_t upstream_port)
    : listener_{std::make_unique<fn::TcpListener>(0)},
      port_{listener_->port()},
      upstream_port_{upstream_port},
      thread_{[this] { run(); }} {}

CountingRelay::~CountingRelay() {
  if (thread_.joinable()) thread_.join();
}

LinkBytes CountingRelay::finish() {
  if (thread_.joinable()) thread_.join();
  if (!error_.empty()) throw std::runtime_error{"relay: " + error_};
  return {to_server_.load(), to_clients_.load()};
}

void CountingRelay::run() noexcept {
  try {
    std::optional<fn::TcpStream> client = listener_->accept_within(std::chrono::seconds{30});
    listener_.reset();
    if (!client) {
      error_ = "no client connected";
      return;
    }
    fn::TcpStream server = fn::TcpStream::connect("127.0.0.1", upstream_port_);
    // One thread pumps both directions. Blocking forwards cannot deadlock
    // here: a peer only writes after it has read the whole message it
    // answers, so the side being written to is always draining.
    struct Direction {
      fn::TcpStream* from;
      fn::TcpStream* to;
      std::atomic<std::uint64_t>* counter;
      bool open = true;
    };
    std::array<Direction, 2> directions{{{&*client, &server, &to_server_},
                                         {&server, &*client, &to_clients_}}};
    std::array<std::byte, 1 << 16> buffer{};
    const auto idle_limit = std::chrono::seconds{60};
    auto last_traffic = std::chrono::steady_clock::now();
    while (directions[0].open || directions[1].open) {
      std::array<pollfd, 2> fds{};
      for (std::size_t i = 0; i < 2; ++i) {
        fds[i] = {directions[i].open ? directions[i].from->fd() : -1, POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
        error_ = "poll failed";
        return;
      }
      for (std::size_t i = 0; i < 2; ++i) {
        Direction& dir = directions[i];
        if (!dir.open || fds[i].revents == 0) continue;
        std::size_t got = 0;
        const fn::IoStatus status = dir.from->read_some(buffer, got);
        if (status == fn::IoStatus::Ready) {
          dir.to->send_all({buffer.data(), got});
          dir.counter->fetch_add(got);
          last_traffic = std::chrono::steady_clock::now();
        } else if (status == fn::IoStatus::Closed) {
          dir.open = false;
          ::shutdown(dir.to->fd(), SHUT_WR);
        }
      }
      if (std::chrono::steady_clock::now() - last_traffic > idle_limit) {
        error_ = "idle for 60 s";
        return;
      }
    }
  } catch (const std::exception& e) {
    error_ = e.what();
  }
}

}  // namespace fedbench
