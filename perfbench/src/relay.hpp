#pragma once
// A loopback TCP relay between one client and its shard that counts the
// framed bytes crossing it in each direction: the socket workload's traffic
// is measured on the wire, not taken from the program's own accounting.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "checks.hpp"
#include "net/socket.hpp"

namespace fedbench {

class CountingRelay {
 public:
  /// Listens on an ephemeral loopback port; the first connection accepted
  /// is joined to 127.0.0.1:`upstream_port`.
  explicit CountingRelay(std::uint16_t upstream_port);
  ~CountingRelay();
  CountingRelay(const CountingRelay&) = delete;
  CountingRelay& operator=(const CountingRelay&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Waits until both directions have closed; returns what was relayed.
  /// Throws std::runtime_error if the relay failed.
  LinkBytes finish();

 private:
  void run() noexcept;

  // Closed once the client is accepted, so a client that loses its link
  // finds the port refused and gives up instead of rejoining a dead relay.
  std::unique_ptr<fedguard::net::TcpListener> listener_;
  std::uint16_t port_;
  std::uint16_t upstream_port_;
  std::atomic<std::uint64_t> to_server_{0};
  std::atomic<std::uint64_t> to_clients_{0};
  std::string error_;  // written by the relay thread, read after join
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace fedbench
