// Unit tests for src/record: network log, spooled-log round trips, the
// log-size metric, text export.

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "record/log_spool.h"
#include "record/text_export.h"

namespace djvu::record {
namespace {

using sched::EventKind;

NetworkLogEntry accept_entry(EventNum en, ConnectionId id) {
  NetworkLogEntry e;
  e.kind = EventKind::kSockAccept;
  e.event_num = en;
  e.conn_id = id;
  return e;
}

NetworkLogEntry read_entry(EventNum en, std::uint64_t n) {
  NetworkLogEntry e;
  e.kind = EventKind::kSockRead;
  e.event_num = en;
  e.value = n;
  return e;
}

TEST(NetworkLog, AppendAndFind) {
  NetworkLog log;
  log.append(1, accept_entry(0, {9, 2, 0}));
  log.append(1, read_entry(1, 42));
  log.append(3, read_entry(0, 7));

  ASSERT_NE(log.find(1, 0), nullptr);
  EXPECT_EQ(log.find(1, 0)->conn_id->djvm_id, 9u);
  EXPECT_EQ(*log.find(1, 1)->value, 42u);
  EXPECT_EQ(*log.find(3, 0)->value, 7u);
  EXPECT_EQ(log.find(1, 2), nullptr);
  EXPECT_EQ(log.find(2, 0), nullptr);
  EXPECT_EQ(log.size(), 3u);
}

TEST(NetworkLog, DuplicateAppendThrows) {
  NetworkLog log;
  log.append(1, read_entry(0, 1));
  EXPECT_THROW(log.append(1, read_entry(0, 2)), UsageError);
}

TEST(NetworkLog, ContentBytes) {
  NetworkLog log;
  NetworkLogEntry e = read_entry(0, 5);
  e.data = to_bytes("12345");
  log.append(0, std::move(e));
  EXPECT_EQ(log.content_bytes(), 5u);
}

VmLog sample_log() {
  VmLog log;
  log.vm_id = 7;
  log.stats.critical_events = 1234;
  log.stats.network_events = 56;
  log.schedule.per_thread = {
      {{0, 10}, {15, 15}, {20, 99}},
      {{11, 14}, {16, 19}},
      {},
  };
  log.network.append(0, accept_entry(0, {3, 1, 2}));
  NetworkLogEntry r = read_entry(1, 77);
  r.data = to_bytes("payload");
  log.network.append(0, std::move(r));
  NetworkLogEntry err;
  err.kind = EventKind::kSockConnect;
  err.event_num = 0;
  err.error = NetErrorCode::kConnectionRefused;
  log.network.append(1, std::move(err));
  NetworkLogEntry dg;
  dg.kind = EventKind::kUdpReceive;
  dg.event_num = 1;
  dg.dg_id = DgNetworkEventId{2, 9999};
  dg.value = 12345;
  log.network.append(1, std::move(dg));
  return log;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name + ".djvuspool";
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  Bytes out;
  std::uint8_t buf[4096];
  std::size_t n;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

TEST(SpooledLog, RoundTripIdentity) {
  VmLog log = sample_log();
  const std::string path = temp_path("djvu_record_roundtrip");
  save_spooled_log(log, path);
  VmLog back = load_spooled_log(path);

  EXPECT_EQ(back.vm_id, log.vm_id);
  EXPECT_EQ(back.stats, log.stats);
  EXPECT_EQ(back.schedule, log.schedule);
  EXPECT_TRUE(back.network == log.network);
  EXPECT_EQ(back, log);
  // Re-saving the loaded log is byte-identical (canonical form).
  const std::string again = temp_path("djvu_record_roundtrip_again");
  save_spooled_log(back, again);
  EXPECT_EQ(read_file(again), read_file(path));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(SpooledLog, MissingFileThrows) {
  EXPECT_THROW(load_spooled_log("/nonexistent/dir/x.djvuspool"), Error);
}

TEST(SpooledLog, IntervalEncodingIsCompact) {
  // The paper: "a schedule interval [typically consists] of thousands of
  // critical events, all of which can be efficiently encoded by two ...
  // counter values."  A giant interval costs the same as a tiny one.
  VmLog small;
  small.vm_id = 1;
  small.schedule.per_thread = {{{0, 9}}};
  VmLog huge;
  huge.vm_id = 1;
  huge.schedule.per_thread = {{{0, 1000000}}};
  // The delta encoding makes the huge interval (and its finish stats) at
  // most a few bytes larger.
  EXPECT_LE(spool_item_bytes(huge), spool_item_bytes(small) + 4);
}

TEST(SpooledLog, ManyThreadsManyIntervals) {
  Xoshiro256 rng(5);
  VmLog log;
  log.vm_id = 3;
  GlobalCount g = 0;
  log.schedule.per_thread.resize(32);
  for (int i = 0; i < 2000; ++i) {
    auto t = static_cast<std::size_t>(rng.next_below(32));
    GlobalCount len = rng.next_below(50) + 1;
    log.schedule.per_thread[t].push_back({g, g + len - 1});
    g += len + rng.next_below(3) + 1;
  }
  const std::string path = temp_path("djvu_record_many_threads");
  save_spooled_log(log, path);
  VmLog back = load_spooled_log(path);
  EXPECT_EQ(back.schedule, log.schedule);
  std::remove(path.c_str());
}

TEST(SpoolItemBytes, EqualsTheItemBytesSaved) {
  VmLog log = sample_log();
  log.causal.per_thread = {{1, 2, 1}, {1, 3}, {}};
  const std::string path = temp_path("djvu_record_item_bytes");
  const SpoolStats stats = save_spooled_log(log, path);
  EXPECT_EQ(spool_item_bytes(log), stats.raw_bytes);
  EXPECT_EQ(load_spooled_log(path), log);
  std::remove(path.c_str());
}

TEST(TextExport, MentionsKeyFields) {
  std::string text = to_text(sample_log());
  EXPECT_NE(text.find("vm=7"), std::string::npos);
  EXPECT_NE(text.find("sock-accept"), std::string::npos);
  EXPECT_NE(text.find("client=<vm3,t1,e2>"), std::string::npos);
  EXPECT_NE(text.find("error=refused"), std::string::npos);
  EXPECT_NE(text.find("dg=<vm2,gc9999>"), std::string::npos);
  EXPECT_NE(text.find("[0,10]"), std::string::npos);
}

}  // namespace
}  // namespace djvu::record
