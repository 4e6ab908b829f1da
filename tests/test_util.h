// Shared helpers for the test suite.
#pragma once

#include <chrono>
#include <thread>

#include "vm/exceptions.h"
#include "vm/socket_api.h"

namespace djvu::testutil {

/// Connects with retry-on-refused, the idiom a real client uses when the
/// server may not be listening yet.  Failed attempts are genuine recorded
/// events, replayed from the log.
inline std::unique_ptr<vm::Socket> connect_retry(vm::Vm& v,
                                                 net::SocketAddress addr,
                                                 int max_attempts = 2000) {
  for (int i = 0;; ++i) {
    try {
      return std::make_unique<vm::Socket>(v, addr);
    } catch (const vm::ConnectException&) {
      if (i >= max_attempts) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Reads exactly n bytes from a socket's input stream (looping over the
/// partial reads the network produces); throws on premature EOF.
inline Bytes read_exactly(vm::Socket& s, std::size_t n) {
  Bytes out;
  while (out.size() < n) {
    Bytes part = s.input_stream().read(n - out.size());
    if (part.empty()) {
      throw Error("unexpected EOF after " + std::to_string(out.size()) +
                  " bytes");
    }
    append(out, part);
  }
  return out;
}

/// Waits, outside the runtime's view (no recorded event), until a UDP port
/// is bound at `addr` or `limit` passes.  A datagram sent to an unbound
/// port vanishes, so a sender whose receiver consumes a fixed count waits
/// for the bind first: otherwise a receiver that starts late loses the
/// early datagrams and blocks forever in receive().  The limit only stops a
/// sender from outliving a peer that failed before binding.
inline void await_udp_bound(
    vm::Vm& v, net::SocketAddress addr,
    std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!v.network().udp_bound(addr) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// The multicast form of await_udp_bound: waits until `group` has at least
/// `members` members, or `limit` passes.
inline void await_group_members(
    vm::Vm& v, net::SocketAddress group, std::size_t members,
    std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (v.network().group_members(group).size() < members &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace djvu::testutil
