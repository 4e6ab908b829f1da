// Replay inspector: a log-forensics tool built on the public API.
//
//   ./examples/replay_inspector                  # demo: record, save, inspect
//   ./examples/replay_inspector FILE.djvuspool   # inspect a spool file
//
// Dumps a recorded log (a DJVUSPL1 spool file, as a spooled record run or
// Session::save_logs writes it) in human-readable form: the per-thread
// logical schedule intervals (§2.2), every network log entry (§4.1.3), and
// summary statistics — what a developer reads when deciding where a replay
// diverged or which connection carried the bad bytes.

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/session.h"
#include "record/log_spool.h"
#include "record/text_export.h"
#include "sched/sched_stats.h"
#include "tests/test_util.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

/// A small three-VM app so the demo logs have interesting contents.
core::Session demo_session() {
  core::Session s;
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 4400);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(v, [&v, &listener] {
        auto sock = listener.accept();
        Bytes msg = testutil::read_exactly(*sock, 5);
        sock->output_stream().write(msg);
        sock->close();
      });
    }
    for (auto& t : threads) t.join();
    listener.close();
  });
  for (int c = 0; c < 2; ++c) {
    s.add_vm("client" + std::to_string(c), 2 + c, true, [c](vm::Vm& v) {
      auto sock = testutil::connect_retry(v, {1, 4400});
      sock->output_stream().write(to_bytes("msg#" + std::to_string(c)));
      testutil::read_exactly(*sock, 5);
      sock->close();
    });
  }
  return s;
}

void inspect(const std::string& path) {
  const record::VmLog log = record::load_spooled_log(path);
  std::printf("%s", record::to_text(log).c_str());
  std::printf("file size: %ju bytes (spool item bytes %ju)\n\n",
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)),
              static_cast<std::uintmax_t>(record::spool_item_bytes(log)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    inspect(argv[1]);
    return 0;
  }

  const char* t = std::getenv("TMPDIR");
  const std::string dir =
      std::string(t ? t : "/tmp") + "/djvu_replay_inspector";
  std::filesystem::create_directories(dir);
  std::printf("no file given — recording a demo execution first\n\n");
  auto s = demo_session();
  auto rec = s.record(3);
  core::Session::save_logs(rec, dir);
  for (const char* name : {"server", "client0", "client1"}) {
    std::string path = dir + "/" + name + ".djvuspool";
    std::printf("===== %s =====\n", path.c_str());
    inspect(path);
  }

  // Sanity: the saved spools replay.
  auto s2 = demo_session();
  auto rep = s2.replay_from(dir, 99);
  core::verify(rec, rep);
  std::filesystem::remove_all(dir);
  std::printf("(spools verified: replay reproduces the recorded traces)\n");
  std::printf("\nserver replay scheduler counters:\n%s",
              sched::to_text(rep.vm("server").sched).c_str());
  return 0;
}
