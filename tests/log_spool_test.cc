// Streaming log spooler: bounded-memory record runs with crash-consistent
// chunked persistence.
//
// Covers the whole tentpole surface:
//   * item/chunk codec roundtrips (schedule, network, trace, finish; the
//     LZ-style compression codec);
//   * LogSpooler → LogSource roundtrips through a real file, including the
//     compressed variant;
//   * record→spool→replay digest equivalence across threads × sockets ×
//     seeds, through both Session::replay (in-process) and
//     Session::replay_from (straight from disk);
//   * torn-tail recovery: truncating the file mid-chunk replays the valid
//     prefix instead of rejecting the recording, while CRC-valid corruption
//     still throws LogFormatError;
//   * the bounded-memory acceptance criterion: the spooler's
//     queue_high_water_bytes never exceeds the configured buffer even when
//     the run streams many times that much log data;
//   * saved logs (Session::save_logs): for closed-world TCP, open-world,
//     multicast and causal recordings the spool loads back to exactly the
//     recorded VmLog and replay_from the directory verifies (the
//     checkpointed case is in checkpoint_test);
//   * the corruption sweep: every truncation and 512 seeded bit flips of a
//     small saved spool (with and without its index footer) load a prefix
//     of the log or throw LogFormatError, within a memory bound set by the
//     file size.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/spool_codec.h"
#include "record/trace_io.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

/// Largest single allocation request made while g_track_alloc is set (the
/// replaced global operator new at the end of this file feeds it).
std::atomic<bool> g_track_alloc{false};
std::atomic<std::size_t> g_max_alloc{0};

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "log_spool_test_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

void truncate_file(const std::string& path, std::uint64_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

// --- codec unit tests -------------------------------------------------------

TEST(SpoolCodec, ScheduleItemRoundtrip) {
  sched::IntervalList list = {{0, 4}, {9, 9}, {17, 40}};
  auto [thread, decoded] =
      record::decode_schedule_item(record::encode_schedule_item(7, list));
  EXPECT_EQ(thread, 7u);
  EXPECT_EQ(decoded, list);
}

TEST(SpoolCodec, TraceItemRoundtrip) {
  std::vector<sched::TraceRecord> records = {
      {0, 0, sched::EventKind::kThreadStart, 1},
      {3, 2, sched::EventKind::kSharedRead, 0xdeadbeefULL},
      {4, 2, sched::EventKind::kSharedWrite, 1},
  };
  EXPECT_EQ(record::decode_trace_item(record::encode_trace_item(records)),
            records);
}

TEST(SpoolCodec, FinishItemRoundtrip) {
  record::SpoolFinish finish;
  finish.stats.critical_events = 123456;
  finish.stats.network_events = 789;
  finish.thread_count = 5;
  record::SpoolFinish out =
      record::decode_finish_item(record::encode_finish_item(finish));
  EXPECT_EQ(out.stats, finish.stats);
  EXPECT_EQ(out.thread_count, finish.thread_count);
}

TEST(SpoolCodec, CompressionRoundtripAndRatio) {
  // Repetitive payload: must roundtrip exactly and actually shrink.
  Bytes repetitive;
  for (int i = 0; i < 500; ++i) {
    const char* chunk = "abcdefgh01234567";
    repetitive.insert(repetitive.end(), chunk, chunk + 16);
  }
  Bytes packed = record::spool_compress(repetitive);
  EXPECT_LT(packed.size(), repetitive.size() / 2);
  EXPECT_EQ(record::spool_decompress(packed), repetitive);

  // Incompressible-ish payload: still exact, never corrupted.
  Bytes noisy;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    noisy.push_back(static_cast<std::uint8_t>(x));
  }
  EXPECT_EQ(record::spool_decompress(record::spool_compress(noisy)), noisy);

  // Tiny payloads (shorter than one match) work too.
  for (std::size_t n = 0; n <= 4; ++n) {
    Bytes tiny(n, 0x42);
    EXPECT_EQ(record::spool_decompress(record::spool_compress(tiny)), tiny);
  }
}

// --- spooler → source file roundtrips ---------------------------------------

class SpoolFileRoundtrip : public ::testing::TestWithParam<bool> {};

TEST_P(SpoolFileRoundtrip, WritesAndReadsBack) {
  const bool compress = GetParam();
  const std::string dir = fresh_dir(compress ? "rt_lz" : "rt_raw");
  const std::string path = dir + "/vm.djvuspool";

  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 256;  // force multiple chunks
  opts.compress = compress;

  sched::IntervalList t0a = {{0, 3}, {8, 8}};
  sched::IntervalList t0b = {{12, 20}};
  sched::IntervalList t1 = {{4, 7}, {9, 11}};
  std::vector<sched::TraceRecord> trace;
  for (GlobalCount g = 0; g < 300; ++g) {
    trace.push_back({g, static_cast<ThreadNum>(g % 2),
                     sched::EventKind::kSharedRead, g * 3});
  }
  record::NetworkLogEntry entry;
  entry.kind = sched::EventKind::kSockRead;
  entry.event_num = 4;
  entry.value = 11;
  entry.data = to_bytes("payload");

  record::RecordStats stats;
  stats.critical_events = 300;
  stats.network_events = 1;

  {
    record::LogSpooler spooler(42, opts);
    spooler.schedule_batch(0, t0a);
    spooler.schedule_batch(1, t1);
    spooler.network_entry(1, entry);
    spooler.trace_batch(trace);
    spooler.schedule_batch(0, t0b);  // later batch of an earlier thread
    spooler.finish(stats, 2);
    spooler.close();

    record::SpoolStats s = spooler.stats();
    EXPECT_EQ(s.items_enqueued, 6u);
    EXPECT_GT(s.chunks_written, 1u);  // trace alone overflows one 256B chunk
    EXPECT_GT(s.raw_bytes, 0u);
    if (compress) EXPECT_LT(s.written_bytes, s.raw_bytes);
  }

  record::SpoolContents contents = record::load_spool(path);
  EXPECT_TRUE(contents.clean_end);
  EXPECT_EQ(contents.truncated_bytes, 0u);
  EXPECT_EQ(contents.log.vm_id, 42u);
  EXPECT_EQ(contents.log.stats, stats);
  ASSERT_EQ(contents.log.schedule.per_thread.size(), 2u);
  // Batches of one thread concatenate in emission order.
  sched::IntervalList t0_all = t0a;
  t0_all.insert(t0_all.end(), t0b.begin(), t0b.end());
  EXPECT_EQ(contents.log.schedule.per_thread[0], t0_all);
  EXPECT_EQ(contents.log.schedule.per_thread[1], t1);
  ASSERT_EQ(contents.log.network.thread_entries(1).size(), 1u);
  EXPECT_EQ(contents.log.network.thread_entries(1)[0], entry);
  EXPECT_EQ(contents.trace.records, trace);  // already gc-sorted

  // The replay loader skips trace bodies but folds the same log.
  bool clean = false;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_TRUE(clean);
  EXPECT_EQ(log.schedule.per_thread, contents.log.schedule.per_thread);
  EXPECT_EQ(log.stats, stats);
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, SpoolFileRoundtrip,
                         ::testing::Bool());

// --- record→spool→replay equivalence ---------------------------------------

constexpr int kThreads = 3;
constexpr int kVars = 4;
constexpr int kIters = 60;
constexpr int kMessages = 6;

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4700);
  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }
  vm::Monitor mon(v);
  vm::SharedVar<std::uint64_t> tally(v, 0);

  std::vector<vm::VmThread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(v, [&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto& var = *vars[(t + i) % kVars];
        var.set(var.get() + 1);  // racy on purpose
        if (i % 5 == 0) {
          vm::Monitor::Synchronized sync(mon);
          tally.set(tally.get() + 1);
        }
      }
    });
  }

  auto conn = listener.accept();
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();
  for (auto& th : threads) th.join();
}

void client_main(vm::Vm& v) {
  vm::SharedVar<std::uint64_t> local(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kIters; ++i) local.set(local.get() + 1);
    });
  }
  auto sock = testutil::connect_retry(v, {1, 4700});
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = to_bytes("m" + std::to_string(m) + "x");
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

core::Session make_stress(const core::SessionConfig& cfg) {
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  return s;
}

// The acceptance grid: threads × sockets × seeds, spooled record replayed
// both from the in-process RunResult and straight from the on-disk files.
TEST(LogSpool, RecordSpoolReplayDigestEquivalence) {
  for (std::uint64_t seed : {901u, 902u, 903u}) {
    const std::string dir = fresh_dir("grid_" + std::to_string(seed));
    core::SessionConfig cfg;
    cfg.tuning.spool_dir = dir;
    cfg.tuning.spool_chunk_bytes = 512;  // many chunks even in a small run
    cfg.tuning.spool_buffer_bytes = 2048;  // small queue: exercise backpressure
    core::Session s = make_stress(cfg);

    auto rec = s.record(seed);
    EXPECT_EQ(rec.spool_dir, dir);
    for (const char* name : {"server", "client"}) {
      const auto& info = rec.vm(name);
      // Spooled: the log lives on disk, not in the result.
      EXPECT_FALSE(info.log.has_value()) << name;
      EXPECT_FALSE(info.spool_path.empty()) << name;
      EXPECT_NE(info.trace_digest, 0u) << name;
      EXPECT_GT(info.spool.chunks_written, 1u) << name;
      EXPECT_EQ(file_size(info.spool_path), info.spool.written_bytes) << name;
      // Every batch rode the one queue.
      EXPECT_GT(info.spool.items_enqueued, 1u) << name;
      EXPECT_EQ(info.spool.ring_records, 0u) << name;
    }

    auto rep = s.replay(rec, seed + 50);
    core::verify(rec, rep);
    auto rep_disk = s.replay_from(rec.recording(), seed + 60);
    core::verify(rec, rep_disk);
    for (const char* name : {"server", "client"}) {
      EXPECT_EQ(rec.vm(name).trace_digest, rep.vm(name).trace_digest) << name;
      EXPECT_EQ(rec.vm(name).trace_digest, rep_disk.vm(name).trace_digest)
          << name;
      EXPECT_EQ(rec.vm(name).critical_events, rep.vm(name).critical_events)
          << name;
    }
  }
}

// Spooled and in-memory replays of the SAME recording agree bit-for-bit:
// replay the logs loaded back from the spool files, then a compressed
// recording of the same run.
TEST(LogSpool, SpooledLogMatchesBundlePath) {
  const std::string dir = fresh_dir("bundle");
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  core::Session s = make_stress(cfg);

  auto rec = s.record(911);
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    logs.push_back(record::load_spooled_log(info.spool_path));
  }
  auto rep = s.replay_logs(logs, 912);
  core::verify(rec, rep);

  // Compression changes the file, never the decoded log.
  const std::string zdir = fresh_dir("bundle_z");
  core::SessionConfig zcfg;
  zcfg.tuning.spool_dir = zdir;
  zcfg.tuning.spool_compress = true;
  core::Session zs = make_stress(zcfg);
  auto zrec = zs.record(911);
  auto zrep = zs.replay(zrec, 913);
  core::verify(zrec, zrep);
  for (const auto& info : zrec.vms) {
    EXPECT_LE(info.spool.written_bytes,
              info.spool.raw_bytes +
                  info.spool.chunks_written * 9 + 15 + info.spool.index_bytes)
        << info.name;
    EXPECT_GT(info.spool.index_bytes, 0u) << info.name;
  }
}

// --- torn-tail recovery -----------------------------------------------------

// A single-VM app so the recording is self-contained (no network entries
// whose loss would change replay semantics across VMs).
core::Session make_solo(const std::string& spool_dir) {
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = spool_dir;
  cfg.tuning.spool_chunk_bytes = 256;  // many small chunks to truncate into
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 200; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& th : threads) th.join();
  });
  return s;
}

TEST(LogSpool, TornFinishChunkReplaysCompletely) {
  const std::string dir = fresh_dir("torn_finish");
  core::Session s = make_solo(dir);
  auto rec = s.record(921);
  const std::string path = rec.vm("app").spool_path;

  // Shaving the index footer plus one byte tears the final chunk — which
  // holds only the finish marker, so the whole schedule and trace survive.
  // (Shaving less than the footer only tears the footer itself, which
  // costs nothing but the index: see spool_index_test.)
  truncate_file(path,
                file_size(path) - rec.vm("app").spool.index_bytes - 1);
  record::SpoolContents torn = record::load_spool(path);
  EXPECT_FALSE(torn.clean_end);
  EXPECT_GT(torn.truncated_bytes, 0u);
  EXPECT_EQ(torn.trace.records.size(), rec.vm("app").trace.size());
  EXPECT_EQ(sched::trace_digest(torn.trace.records),
            rec.vm("app").trace_digest);
  // Reconstructed stats: the intervals encode every critical event.
  EXPECT_EQ(torn.log.stats.critical_events, rec.vm("app").critical_events);

  // And the torn recording replays end to end.
  auto rep = s.replay_from(dir, 922);
  core::verify(rec, rep);
  EXPECT_EQ(rep.vm("app").trace_digest, rec.vm("app").trace_digest);
}

TEST(LogSpool, DeepTruncationRecoversPrefix) {
  const std::string dir = fresh_dir("torn_deep");
  core::Session s = make_solo(dir);
  auto rec = s.record(931);
  const std::string path = rec.vm("app").spool_path;
  const std::uint64_t full = file_size(path);

  // Cut to 60% of the file: mid-chunk with overwhelming probability.  The
  // loader must recover the longest valid chunk prefix, never throw.
  truncate_file(path, full * 6 / 10);
  bool clean = true;
  record::VmLog prefix = record::load_spooled_log(path, &clean);
  EXPECT_FALSE(clean);
  EXPECT_GT(prefix.stats.critical_events, 0u);
  EXPECT_LT(prefix.stats.critical_events, rec.vm("app").critical_events);

  // Replaying the prefix executes exactly the recovered schedule, then the
  // application's surplus events surface as divergence — an application
  // signal, not a file-format rejection.
  try {
    s.replay_from(dir, 932);
    FAIL() << "the app runs past the recovered prefix and must diverge";
  } catch (const ReplayDivergenceError&) {
  }
}

TEST(LogSpool, TornHeaderRejected) {
  const std::string dir = fresh_dir("torn_header");
  core::Session s = make_solo(dir);
  auto rec = s.record(941);
  const std::string path = rec.vm("app").spool_path;

  // The 15-byte header is the one part with no recover-to-prefix story: a
  // recording with no identity is not a recording.
  truncate_file(path, 10);
  EXPECT_THROW(record::load_spool(path), LogFormatError);
}

TEST(LogSpool, CrcValidCorruptionStillRejected) {
  const std::string dir = fresh_dir("corrupt");
  core::Session s = make_solo(dir);
  auto rec = s.record(951);
  const std::string path = rec.vm("app").spool_path;

  // Flip a payload byte mid-file WITHOUT fixing the CRC: the chunk fails
  // its checksum, so everything from it on is dropped as a torn tail —
  // prefix recovery, not rejection.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(file_size(path) / 2), SEEK_SET);
    std::uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    std::fseek(f, -1, SEEK_CUR);
    b ^= 0xff;
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);
  }
  bool clean = true;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_FALSE(clean);
  EXPECT_LT(log.stats.critical_events, rec.vm("app").critical_events);
}

// --- bounded memory ---------------------------------------------------------

// The acceptance criterion: however much log data the run produces, the
// bytes queued between recording threads and the writer never exceed the
// configured buffer.  queue_high_water_bytes is the witness.
TEST(LogSpool, QueueHighWaterStaysWithinBuffer) {
  const std::string dir = fresh_dir("bounded");
  constexpr std::size_t kBuffer = 4096;
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_buffer_bytes = kBuffer;
  cfg.tuning.spool_chunk_bytes = 512;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 2000; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& th : threads) th.join();
  });

  auto rec = s.record(961);
  const auto& spool = rec.vm("app").spool;
  // The run streamed far more log data than the buffer could ever hold...
  EXPECT_GT(spool.raw_bytes, 10 * kBuffer);
  // ...yet the producer/writer queue never outgrew it.  (Per-thread flush
  // batches are far smaller than the buffer, so not even the oversized-item
  // escape hatch can exceed it here.)
  EXPECT_LE(spool.queue_high_water_bytes, kBuffer);
  EXPECT_GT(spool.queue_high_water_bytes, 0u);
  EXPECT_GT(spool.chunks_written, 10u);

  // And the recording is a real recording.
  auto rep = s.replay_from(dir, 962);
  core::verify(rec, rep);
}

// --- direct producer API ----------------------------------------------------

// Oversized-item admission: a network entry larger than the whole queue
// buffer is admitted alone into an empty queue (backpressure must never
// deadlock) without losing its FIFO position among the thread's other
// items.
TEST(LogSpool, OversizedNetworkEntryKeepsFifoOrder) {
  const std::string dir = fresh_dir("oversized");
  const std::string path = dir + "/vm.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.buffer_bytes = 4096;
  record::LogSpooler spooler(7, opts);

  auto make_entry = [](std::uint64_t num, std::size_t data_bytes) {
    record::NetworkLogEntry e;
    e.kind = sched::EventKind::kSockRead;
    e.event_num = num;
    e.value = static_cast<std::int64_t>(data_bytes);
    e.data = Bytes(data_bytes, static_cast<std::uint8_t>(num));
    return e;
  };
  const record::NetworkLogEntry small_before = make_entry(1, 16);
  const record::NetworkLogEntry huge = make_entry(2, 64 << 10);  // 16x buffer
  const record::NetworkLogEntry small_after = make_entry(3, 16);

  sched::IntervalList intervals = {{0, 5}};
  spooler.schedule_batch(0, intervals);
  spooler.network_entry(0, small_before);
  spooler.network_entry(0, huge);
  spooler.network_entry(0, small_after);
  record::RecordStats stats;
  stats.critical_events = 6;
  stats.network_events = 3;
  spooler.finish(stats, 1);
  spooler.close();
  // The escape hatch was taken: one item outgrew the buffer on its own.
  EXPECT_GT(spooler.stats().queue_high_water_bytes, opts.buffer_bytes);

  record::SpoolContents contents = record::load_spool(path);
  EXPECT_TRUE(contents.clean_end);
  EXPECT_EQ(contents.log.schedule.per_thread.at(0), intervals);
  const auto& entries = contents.log.network.thread_entries(0);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], small_before);
  EXPECT_EQ(entries[1], huge);
  EXPECT_EQ(entries[2], small_after);
}

// --- saved logs -------------------------------------------------------------

/// Records `s` in memory, saves its logs with Session::save_logs, and
/// checks that every spool loads back to exactly the recorded VmLog and
/// that replay_from the directory verifies.
void expect_saved_logs_round_trip(core::Session& s, const std::string& tag) {
  const std::string dir = fresh_dir("saved_" + tag);
  auto rec = s.record(971);
  core::Session::save_logs(rec, dir);
  int saved = 0;
  for (const auto& info : rec.vms) {
    if (!info.log) continue;
    ++saved;
    EXPECT_EQ(record::load_spooled_log(dir + "/" + info.name + ".djvuspool"),
              *info.log)
        << tag << " " << info.name;
  }
  EXPECT_GT(saved, 0) << tag;
  auto rep = s.replay_from(dir, 972);
  core::verify(rec, rep);
}

TEST(SavedLogs, ClosedWorldTcpRoundTrips) {
  core::Session s = make_stress({});
  expect_saved_logs_round_trip(s, "tcp");
}

TEST(SavedLogs, OpenWorldRoundTrips) {
  core::Session s;
  s.add_vm("feeder", 1, /*djvm=*/false, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 4720);
    auto sock = listener.accept();
    for (int m = 0; m < 4; ++m) {
      sock->output_stream().write(Bytes(300, static_cast<std::uint8_t>(m)));
    }
    sock->close();
    listener.close();
  });
  s.add_vm("reader", 2, /*djvm=*/true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> sum(v, 0);
    auto sock = testutil::connect_retry(v, {1, 4720});
    for (int m = 0; m < 4; ++m) {
      const Bytes msg = testutil::read_exactly(*sock, 300);
      sum.set(sum.get() + msg[0]);
    }
    sock->close();
  });
  expect_saved_logs_round_trip(s, "open");
}

TEST(SavedLogs, MulticastRoundTrips) {
  constexpr net::HostId kGroupHost = net::kMulticastHostBase + 9;
  core::Session s;
  for (int m = 0; m < 2; ++m) {
    s.add_vm("member" + std::to_string(m), 1 + m, true, [](vm::Vm& v) {
      vm::MulticastSocket sock(v, 4730);
      sock.join_group({kGroupHost, 4730});
      for (int i = 0; i < 4; ++i) sock.receive();
      sock.leave_group({kGroupHost, 4730});
      sock.close();
    });
  }
  s.add_vm("sender", 9, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4731);
    testutil::await_group_members(v, {kGroupHost, 4730}, 2);
    for (int i = 0; i < 4; ++i) {
      vm::DatagramPacket p;
      p.address = {kGroupHost, 4730};
      p.data = {static_cast<std::uint8_t>(i)};
      sock.send(p);
    }
    sock.close();
  });
  expect_saved_logs_round_trip(s, "multicast");
}

TEST(SavedLogs, CausalRoundTrips) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = OrderMode::kCausal;
  core::Session s = make_stress(cfg);
  expect_saved_logs_round_trip(s, "causal");
}

// --- corruption sweep -------------------------------------------------------

void write_bytes(const std::string& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

Bytes read_bytes(const std::string& path) {
  Bytes data(file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

/// Loads `data` (written to `path`) and checks the sweep's contract: the
/// load yields a prefix of `original` — every per-thread interval list and
/// network list a prefix of the recorded one — or throws LogFormatError,
/// and no single allocation outgrows a bound set by the file size.
void expect_prefix_or_format_error(const std::string& path, BytesView data,
                                   const record::VmLog& original,
                                   const std::string& what) {
  write_bytes(path, data);
  g_max_alloc.store(0);
  g_track_alloc.store(true);
  std::optional<record::VmLog> got;
  try {
    got = record::load_spool(path).log;
  } catch (const LogFormatError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-format error: " << e.what();
  }
  g_track_alloc.store(false);
  // Chunk buffers and decoded items never exceed the file; per-thread
  // vectors are capped at one slot per file byte (24 bytes a slot).
  EXPECT_LE(g_max_alloc.load(), 32 * data.size() + (64u << 10)) << what;
  if (!got) return;
  const auto& lists = got->schedule.per_thread;
  ASSERT_LE(lists.size(), original.schedule.per_thread.size()) << what;
  for (std::size_t t = 0; t < lists.size(); ++t) {
    const auto& want = original.schedule.per_thread[t];
    ASSERT_LE(lists[t].size(), want.size()) << what << " thread " << t;
    EXPECT_TRUE(std::equal(lists[t].begin(), lists[t].end(), want.begin()))
        << what << " thread " << t;
  }
  for (ThreadNum t : got->network.threads()) {
    const auto entries = got->network.thread_entries(t);
    const auto want = original.network.thread_entries(t);
    ASSERT_LE(entries.size(), want.size()) << what << " thread " << t;
    EXPECT_TRUE(std::equal(entries.begin(), entries.end(), want.begin()))
        << what << " thread " << t;
  }
}

TEST(LogSpool, CorruptionSweepLoadsPrefixOrThrows) {
  core::Session s = make_stress({});
  auto rec = s.record(981);
  const std::string dir = fresh_dir("sweep");
  core::Session::save_logs(rec, dir);
  const record::VmLog& original = *rec.vm("server").log;
  const std::string saved = dir + "/server.djvuspool";
  const Bytes footered = read_bytes(saved);
  ASSERT_LT(footered.size(), 8u << 10);
  ASSERT_GT(original.network.size(), 0u);
  std::uint64_t data_end = 0;
  {
    record::LogSource source(saved);
    ASSERT_NE(source.index(), nullptr);
    data_end = source.index()->data_end;
  }
  const Bytes footerless(footered.begin(),
                         footered.begin() + static_cast<std::ptrdiff_t>(data_end));

  const std::string path = dir + "/mutant.djvuspool";
  Xoshiro256 rng(8675309);
  for (const auto& [name, file] :
       {std::pair<const char*, const Bytes&>{"footered", footered},
        std::pair<const char*, const Bytes&>{"footerless", footerless}}) {
    for (std::size_t keep = 0; keep <= file.size(); ++keep) {
      expect_prefix_or_format_error(
          path, BytesView(file.data(), keep), original,
          std::string(name) + " cut to " + std::to_string(keep));
    }
    for (int i = 0; i < 512; ++i) {
      Bytes mutant = file;
      const std::uint64_t bit = rng.next_below(mutant.size() * 8);
      mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_prefix_or_format_error(
          path, mutant, original,
          std::string(name) + " bit " + std::to_string(bit) + " flipped");
    }
  }
}

}  // namespace
}  // namespace djvu

// Counting replacement of the global allocation functions for the
// corruption sweep's memory bound.  Every plain form is replaced, so each
// allocation and its release go through malloc/free as a pair.
namespace {

void* counted_alloc(std::size_t n) noexcept {
  if (djvu::g_track_alloc.load(std::memory_order_relaxed)) {
    std::size_t seen = djvu::g_max_alloc.load(std::memory_order_relaxed);
    while (n > seen && !djvu::g_max_alloc.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so the compiler never sees free() applied to what a
// replaced operator new returned.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
