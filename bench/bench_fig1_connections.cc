// Reproduces Figures 1 and 2: connection-pairing nondeterminism and its
// deterministic replay.
//
// Fig. 1: a server with three accepting threads and three connecting
// clients — "The solid and dashed arrows indicate the connections between
// the server threads and the clients during two different executions."
// Phase 1 runs the scenario natively many times and reports the
// distribution of observed pairings (the nondeterminism exists).
//
// Fig. 2: the connectionId / ServerSocketEntry mechanism.  Phase 2 records
// one execution, dumps the L1/L2/L3 ServerSocketEntries from the
// NetworkLogFile, replays under many different network seeds, and checks
// the pairing is identical every time.

#include <cstdio>
#include <array>
#include <map>
#include <string>

#include "core/session.h"
#include "record/text_export.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

core::SessionConfig racy_net() {
  core::SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(3000)};
  return cfg;
}

/// Builds the Fig. 1 session.  `pairing_out` (indexed by server thread)
/// receives which client each thread served.
core::Session fig1_session(std::array<char, 3>* pairing_out) {
  core::Session s(racy_net());
  s.add_vm("server", 1, true, [pairing_out](vm::Vm& v) {
    vm::ServerSocket listener(v, 6000);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&v, &listener, pairing_out, t] {
        auto sock = listener.accept();
        Bytes who = testutil::read_exactly(*sock, 1);
        (*pairing_out)[static_cast<std::size_t>(t)] =
            static_cast<char>(who[0]);
        sock->output_stream().write(to_bytes("k"));
        sock->close();
      });
    }
    for (auto& t : threads) t.join();
    listener.close();
  });
  for (int c = 0; c < 3; ++c) {
    s.add_vm("client" + std::to_string(c + 1), 2 + c, true, [c](vm::Vm& v) {
      auto sock = testutil::connect_retry(v, {1, 6000});
      sock->output_stream().write(to_bytes(std::string(1, '1' + c)));
      testutil::read_exactly(*sock, 1);
      sock->close();
    });
  }
  return s;
}

}  // namespace
}  // namespace djvu

int main() {
  using namespace djvu;

  std::printf("Figure 1: nondeterministic connect/accept pairing\n");
  std::printf("(server threads t1..t3, clients 1..3; pairing = which client "
              "each thread served)\n\n");

  std::map<std::string, int> histogram;
  constexpr int kNativeRuns = 40;
  for (int run = 0; run < kNativeRuns; ++run) {
    std::array<char, 3> pairing{};
    auto s = fig1_session(&pairing);
    (void)s.record(static_cast<std::uint64_t>(run) * 7 + 1);
    histogram[std::string(pairing.begin(), pairing.end())]++;
  }
  std::printf("pairing distribution over %d executions:\n", kNativeRuns);
  for (const auto& [pairing, count] : histogram) {
    std::printf("  t1->client%c t2->client%c t3->client%c : %2d runs\n",
                pairing[0], pairing[1], pairing[2], count);
  }
  std::printf("distinct pairings observed: %zu (nondeterminism %s)\n\n",
              histogram.size(),
              histogram.size() > 1 ? "present" : "NOT OBSERVED");

  std::printf("Figure 2: ServerSocketEntry log and deterministic replay\n\n");
  std::array<char, 3> recorded_pairing{};
  auto s = fig1_session(&recorded_pairing);
  auto rec = s.record(4242);
  std::printf("recorded pairing: t1->client%c t2->client%c t3->client%c\n",
              recorded_pairing[0], recorded_pairing[1], recorded_pairing[2]);
  std::printf("server NetworkLogFile (L1/L2/L3 ServerSocketEntries):\n");
  for (ThreadNum t : rec.vm("server").log->network.threads()) {
    for (const auto& e : rec.vm("server").log->network.thread_entries(t)) {
      if (e.kind != sched::EventKind::kSockAccept) continue;
      std::printf("  L<t%u>: serverId=<t%u,e%llu> clientId=%s\n", t, t,
                  static_cast<unsigned long long>(e.event_num),
                  e.conn_id ? to_string(*e.conn_id).c_str() : "-");
    }
  }

  int reproduced = 0;
  constexpr int kReplays = 10;
  for (int i = 0; i < kReplays; ++i) {
    std::array<char, 3> replayed_pairing{};
    auto rs = fig1_session(&replayed_pairing);
    auto rep = rs.replay_logs(
        [&] {
          std::vector<record::VmLog> logs;
          for (const auto& info : rec.vms) {
            if (info.log) logs.push_back(*info.log);
          }
          return logs;
        }(),
        static_cast<std::uint64_t>(i) * 997 + 13);
    core::verify(rec, rep);
    if (replayed_pairing == recorded_pairing) ++reproduced;
  }
  std::printf("\nreplays reproducing the recorded pairing: %d/%d\n",
              reproduced, kReplays);
  return reproduced == kReplays ? 0 : 1;
}
