// Identity types shared across the DejaVu record/replay system.
//
// These mirror the identifiers defined in Sections 2 and 4 of the paper:
//   - DjvmId           : unique identity assigned to each DJVM in record mode,
//                        logged and reused during replay.
//   - ThreadNum        : creation-order thread number within one DJVM.  The
//                        paper guarantees a thread has the same ThreadNum in
//                        record and replay because threads are created in the
//                        same order.
//   - EventNum         : per-thread sequence number of *network* events; used
//                        to order network events within a thread.
//   - GlobalCount      : value of the per-DJVM global counter (time stamp)
//                        that uniquely identifies each critical event.
//   - NetworkEventId   : <threadNum, eventNum> — identifies a network event
//                        within a DJVM.
//   - ConnectionId     : <dJVMId, threadNum> (+ our eventNum extension, see
//                        DESIGN.md §5) — identifies a stream connection
//                        request made at a connect event.
//   - DgNetworkEventId : <dJVMId, dJVMgc> — identifies a UDP datagram by its
//                        sender and the sender's global counter at the send.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace djvu {

/// Identity of one DJVM instance (one "virtual machine" in the simulated
/// distributed system).  Assigned during record, persisted in the log
/// and reused verbatim during replay.
using DjvmId = std::uint32_t;

/// Creation-order thread number within a single DJVM.  Thread 0 is the main
/// thread of the VM.
using ThreadNum = std::uint32_t;

/// Per-thread sequence number of network events.
using EventNum = std::uint64_t;

/// Global-counter value (per-DJVM logical time stamp of a critical event).
using GlobalCount = std::uint64_t;

/// Sentinel for "no global count assigned yet".
inline constexpr GlobalCount kNoGlobalCount = ~GlobalCount{0};

/// <threadNum, eventNum>: identifies one network event inside one DJVM
/// (paper §4.1.3).
struct NetworkEventId {
  ThreadNum thread_num = 0;
  EventNum event_num = 0;

  friend auto operator<=>(const NetworkEventId&,
                          const NetworkEventId&) = default;
};

/// Identifies a stream-socket connection request (paper §4.1.3).
///
/// The paper defines ConnectionId = <dJVMId, threadNum>.  Because one thread
/// may issue many connects, we also carry the connect's per-thread eventNum
/// and match on the full triple; this is strictly stronger and costs the same
/// (see DESIGN.md §5).
struct ConnectionId {
  DjvmId djvm_id = 0;
  ThreadNum thread_num = 0;
  EventNum event_num = 0;

  friend auto operator<=>(const ConnectionId&, const ConnectionId&) = default;
};

/// Identifies a UDP datagram: sender DJVM and the sender-side global counter
/// value of the send event (paper §4.2.2).
struct DgNetworkEventId {
  DjvmId djvm_id = 0;
  GlobalCount sender_gc = 0;

  friend auto operator<=>(const DgNetworkEventId&,
                          const DgNetworkEventId&) = default;
};

/// Human-readable renderings used by the text log exporter and diagnostics.
std::string to_string(const NetworkEventId& id);
std::string to_string(const ConnectionId& id);
std::string to_string(const DgNetworkEventId& id);

}  // namespace djvu

template <>
struct std::hash<djvu::NetworkEventId> {
  std::size_t operator()(const djvu::NetworkEventId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{id.thread_num} << 48) ^ id.event_num);
  }
};

template <>
struct std::hash<djvu::ConnectionId> {
  std::size_t operator()(const djvu::ConnectionId& id) const noexcept {
    std::uint64_t a = (std::uint64_t{id.djvm_id} << 32) | id.thread_num;
    return std::hash<std::uint64_t>{}(a * 0x9e3779b97f4a7c15ULL ^
                                      id.event_num);
  }
};

template <>
struct std::hash<djvu::DgNetworkEventId> {
  std::size_t operator()(const djvu::DgNetworkEventId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{id.djvm_id} * 0x9e3779b97f4a7c15ULL) ^ id.sender_gc);
  }
};
