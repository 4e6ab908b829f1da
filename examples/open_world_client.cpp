// Open-world replay: debugging a DJVM client whose server cannot be
// re-run (§5).
//
// The "weather service" server is a plain VM (think: a third-party service
// you do not control).  The client runs on a DJVM.  During record, every
// byte the client receives is content-logged.  During replay the server
// does not run at all — the client's reads are served from the log and its
// writes are dropped, yet the client executes identically.
//
// The example also saves the log to disk as a spool file (Session::save_logs)
// and replays from it (Session::replay_from), the full offline-debugging
// workflow.

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/session.h"
#include "record/log_spool.h"
#include "record/text_export.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"

namespace {

constexpr djvu::net::Port kPort = 8500;
using namespace djvu;

std::uint64_t g_client_checksum = 0;

core::Session make_session() {
  core::Session s;

  // The third-party service: a plain VM (djvm=false), not replayable.
  s.add_vm("weather-service", 1, /*djvm=*/false, [](vm::Vm& v) {
    vm::ServerSocket listener(v, kPort);
    for (int day = 0; day < 5; ++day) {
      auto sock = listener.accept();
      Bytes query = testutil::read_exactly(*sock, 4);
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(query[0] * 7 + day * 3 + 15));
      sock->output_stream().write(w.view());
      sock->close();
    }
    listener.close();
  });

  // Our application: a DJVM client.
  s.add_vm("client", 2, /*djvm=*/true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> checksum(v, 0);
    for (int day = 0; day < 5; ++day) {
      auto sock = testutil::connect_retry(v, {1, kPort});
      Bytes query{static_cast<std::uint8_t>(day), 'W', 'X', '?'};
      sock->output_stream().write(query);
      Bytes forecast = testutil::read_exactly(*sock, 4);
      ByteReader r(forecast);
      checksum.set(checksum.get() * 131 + r.u32());
      sock->close();
    }
    g_client_checksum = checksum.unsafe_peek();
  });
  return s;
}

}  // namespace

int main() {
  const std::string dir = []{
    const char* t = std::getenv("TMPDIR");
    return std::string(t ? t : "/tmp") + "/djvu_open_world_client";
  }();
  std::filesystem::create_directories(dir);

  // Record: both components run; the client content-logs its inputs.
  auto s = make_session();
  auto rec = s.record(5);
  std::printf("record : client checksum %llu\n",
              static_cast<unsigned long long>(g_client_checksum));
  std::uint64_t recorded = g_client_checksum;
  std::printf("         open-world log: %zu bytes of recorded content, "
              "%ju spool item bytes total\n",
              rec.vm("client").log->network.content_bytes(),
              static_cast<std::uintmax_t>(
                  record::spool_item_bytes(*rec.vm("client").log)));

  core::Session::save_logs(rec, dir);
  std::printf("         saved to %s/client.djvuspool\n\n", dir.c_str());

  // Replay from the file — the weather service does NOT run.
  auto s2 = make_session();
  auto rep = s2.replay_from(dir);
  core::verify(rec, rep);
  std::printf("replay : client checksum %llu (service offline) — %s\n",
              static_cast<unsigned long long>(g_client_checksum),
              g_client_checksum == recorded ? "perfect replay" : "MISMATCH");

  std::filesystem::remove_all(dir);
  return g_client_checksum == recorded ? 0 : 1;
}
