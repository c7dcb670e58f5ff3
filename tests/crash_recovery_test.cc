// Crash recovery: kill -9 fault injection against the WAL + checkpoint
// subsystem. Each crash test forks a child that opens the database and
// commits a concurrent write workload, appending one oracle line per
// ACKNOWLEDGED commit (written with O_APPEND write(2), so the line itself
// survives the kill exactly when the ack did). The parent SIGKILLs the
// child at a random point, reopens the database in-process, and checks
// the durability contract: every acknowledged commit is fully present at
// its commit timestamp, every batch is all-or-nothing, and the tree
// passes structural verification. Satellite coverage rides along: torn
// MANIFEST.tmp resolution and corrupted verified.tsb sidecars.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "db/multiversion_db.h"
#include "tsb/tree_check.h"

namespace tsb {
namespace db {
namespace {

std::string Key(int writer, int seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "w%02d-key-%06d", writer, seq);
  return buf;
}

std::string Value(int writer, int seq) {
  char buf[64];
  snprintf(buf, sizeof(buf), "value-%02d-%06d-", writer, seq);
  std::string v = buf;
  v.append(48, 'x');  // some bulk so the WAL sees real volume
  return v;
}

DbOptions SmallPageOptions() {
  DbOptions opts;
  opts.tree.page_size = 512;  // small pages force splits + hist migration
  opts.tree.buffer_pool_frames = 4096;
  return opts;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/tsb_crash_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter_++);
    MultiVersionDB::Destroy(path_);
  }
  void TearDown() override { MultiVersionDB::Destroy(path_); }

  std::string OraclePath() const { return path_ + ".oracle"; }

  /// Child body: commits batches forever (until killed), acking each
  /// durable commit to the oracle file. Never returns normally.
  [[noreturn]] void ChildWorkload(const DbOptions& opts, int writers,
                                  int batch_size) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    const int fd =
        ::open(OraclePath().c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) ::_exit(3);
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (int seq = 0;; ++seq) {
          WriteBatch batch;
          for (int i = 0; i < batch_size; ++i) {
            batch.Put(Key(w, seq * batch_size + i),
                      Value(w, seq * batch_size + i));
          }
          Timestamp cts = 0;
          if (!db->Write(batch, &cts).ok()) ::_exit(4);
          char line[64];
          const int n = snprintf(line, sizeof(line), "%d %d %llu\n", w, seq,
                                 (unsigned long long)cts);
          // One O_APPEND write per ack: the oracle can claim a commit
          // only after Write() returned, mirroring a client's view.
          if (::write(fd, line, n) != n) ::_exit(5);
        }
      });
    }
    for (auto& t : threads) t.join();
    ::_exit(0);
  }

  /// Forks the workload, kills it after `run_ms`, reaps it. Returns false
  /// if the child exited on its own (setup error) instead of being killed.
  bool RunAndKill(const DbOptions& opts, int writers, int batch_size,
                  int run_ms) {
    const pid_t pid = ::fork();
    if (pid == 0) ChildWorkload(opts, writers, batch_size);
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    return WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  }

  struct Ack {
    int writer;
    int seq;
    Timestamp ts;
  };

  std::vector<Ack> ReadOracle() {
    std::vector<Ack> acks;
    FILE* f = fopen(OraclePath().c_str(), "r");
    if (f == nullptr) return acks;
    char line[64];
    while (fgets(line, sizeof(line), f) != nullptr) {
      Ack a;
      unsigned long long ts = 0;
      if (sscanf(line, "%d %d %llu", &a.writer, &a.seq, &ts) == 3) {
        a.ts = ts;
        acks.push_back(a);
      }
      // A torn last line (kill mid-write) parses short and is skipped:
      // its commit was never acknowledged.
    }
    fclose(f);
    return acks;
  }

  /// The contract: every acked commit fully present at its timestamp;
  /// every batch all-or-nothing; structure clean.
  void VerifyRecovered(MultiVersionDB* db, const std::vector<Ack>& acks,
                       int batch_size) {
    for (const Ack& a : acks) {
      for (int i = 0; i < batch_size; ++i) {
        const int n = a.seq * batch_size + i;
        std::string value;
        Timestamp version_ts = 0;
        Status s = db->Get(ReadOptions{.as_of = a.ts}, Key(a.writer, n),
                           &value, &version_ts);
        ASSERT_TRUE(s.ok()) << "acked commit lost: writer " << a.writer
                            << " seq " << a.seq << " key " << n << ": "
                            << s.ToString();
        EXPECT_EQ(value, Value(a.writer, n));
        EXPECT_EQ(version_ts, a.ts) << "wrong version for acked key";
      }
    }
    // Unacked commits may or may not have survived, but never partially:
    // the first missing key of a batch means the whole batch is absent.
    std::map<int, int> max_seq;  // writer -> highest acked seq
    for (const Ack& a : acks) {
      auto [it, inserted] = max_seq.emplace(a.writer, a.seq);
      if (!inserted && it->second < a.seq) it->second = a.seq;
    }
    for (const auto& [writer, seq] : max_seq) {
      for (int probe = seq + 1; probe < seq + 3; ++probe) {
        std::string first;
        const bool have_first =
            db->Get(ReadOptions(), Key(writer, probe * batch_size), &first)
                .ok();
        for (int i = 1; i < batch_size; ++i) {
          std::string value;
          const bool have = db->Get(ReadOptions(),
                                    Key(writer, probe * batch_size + i), &value)
                                .ok();
          EXPECT_EQ(have, have_first)
              << "torn batch: writer " << writer << " seq " << probe;
        }
      }
    }
    tsb_tree::TreeChecker checker(db->primary());
    EXPECT_TRUE(checker.Check().ok());
  }

  std::string path_;
  static int counter_;
};

int CrashRecoveryTest::counter_ = 0;

TEST_F(CrashRecoveryTest, KillDuringConcurrentWritesLosesNoAckedCommit) {
  DbOptions opts = SmallPageOptions();
  std::mt19937 rng(20260808);
  for (int cycle = 0; cycle < 6; ++cycle) {
    std::uniform_int_distribution<int> run_ms(20, 160);
    ASSERT_TRUE(RunAndKill(opts, /*writers=*/4, /*batch_size=*/3,
                           run_ms(rng)));
    const std::vector<Ack> acks = ReadOracle();
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok())
        << "reopen failed on cycle " << cycle;
    VerifyRecovered(db.get(), acks, /*batch_size=*/3);
    // Leave the DB dirty again for the next cycle (recovery-on-recovery).
  }
}

TEST_F(CrashRecoveryTest, RecoveryIsIdempotentAcrossRepeatedOpens) {
  DbOptions opts = SmallPageOptions();
  ASSERT_TRUE(RunAndKill(opts, /*writers=*/2, /*batch_size=*/2, 120));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_FALSE(acks.empty());
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    VerifyRecovered(db.get(), acks, /*batch_size=*/2);
    if (round == 0) {
      // First reopen after the crash replays (or finds checkpointed) the
      // acked suffix; later DESTRUCTOR-closed opens must replay nothing.
    } else {
      EXPECT_EQ(db->recovery_stats().frames_replayed, 0u);
      EXPECT_EQ(db->recovery_stats().purged_uncommitted, 0u);
    }
  }
}

TEST_F(CrashRecoveryTest, CleanShutdownReplaysNothing) {
  DbOptions opts = SmallPageOptions();
  Timestamp last_ts = 0;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Put(Key(0, i), Value(0, i), &last_ts).ok());
    }
  }  // clean close: checkpoint + clean_shutdown=1
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_EQ(db->recovery_stats().frames_replayed, 0u);
  EXPECT_EQ(db->recovery_stats().purged_uncommitted, 0u);
  EXPECT_FALSE(db->recovery_stats().journal_applied);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(0, 199), &value).ok());
  EXPECT_EQ(value, Value(0, 199));
  EXPECT_EQ(db->Now(), last_ts);
}

TEST_F(CrashRecoveryTest, TornWalTailIsTruncatedNotFatal) {
  DbOptions opts = SmallPageOptions();
  // Large checkpoint threshold so commits stay in the live log, then kill
  // so the close-time checkpoint never folds them into the base.
  ASSERT_TRUE(RunAndKill(opts, /*writers=*/1, /*batch_size=*/2, 100));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_FALSE(acks.empty());
  // Append garbage to the live WAL: a torn in-flight frame.
  {
    struct stat st;
    std::string wal_file;
    for (int seq = 0; seq < 10; ++seq) {
      char name[32];
      snprintf(name, sizeof(name), "/wal-%06d.tsb", seq);
      if (::stat((path_ + name).c_str(), &st) == 0) {
        wal_file = path_ + name;
        break;
      }
    }
    ASSERT_FALSE(wal_file.empty());
    FILE* f = fopen(wal_file.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x37\x13\x00\x00\xff\xff\xff\x7ftorn-frame";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().tail_truncated);
  VerifyRecovered(db.get(), acks, /*batch_size=*/2);
}

TEST_F(CrashRecoveryTest, UncommittedGhostsArePurged) {
  DbOptions opts = SmallPageOptions();
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    if (!db->Put("committed", "yes").ok()) ::_exit(3);
    std::unique_ptr<txn::Transaction> txn;
    if (!db->Begin(&txn).ok()) ::_exit(4);
    if (!txn->Put("ghost", "uncommitted").ok()) ::_exit(5);
    // Force the uncommitted record into the device files the way a real
    // crash can: a checkpoint runs while the transaction is open.
    if (!db->Checkpoint().ok()) ::_exit(6);
    ::kill(::getpid(), SIGKILL);  // die with the txn still open
    ::_exit(7);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_GE(db->recovery_stats().purged_uncommitted, 1u);
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "committed", &value).ok());
  std::unique_ptr<txn::Transaction> probe;
  ASSERT_TRUE(db->Begin(&probe).ok());
  EXPECT_TRUE(probe->Get("ghost", &value).IsNotFound());
  probe->Abort();
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

// A crash image whose log holds many versions of ONE key. Time splits cap
// their boundary at the published watermark, so replay has to advance the
// watermark as frames apply; otherwise no replayed version could migrate
// and the key's versions would overflow its page, failing Open.
TEST_F(CrashRecoveryTest, ManyVersionsOfOneKeyReplayAfterCrash) {
  DbOptions opts = SmallPageOptions();
  constexpr int kVersions = 60;
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    for (int i = 0; i < kVersions; ++i) {
      if (!db->Put("hot", Value(0, i)).ok()) ::_exit(3);
    }
    ::_exit(0);  // no close: only the log holds the versions
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) << wstatus;
  std::unique_ptr<MultiVersionDB> db;
  Status s = MultiVersionDB::Open(path_, opts, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(uint64_t{kVersions}, db->recovery_stats().frames_replayed);
  // Autocommit timestamps start at 1: version i committed at i + 1.
  for (int i = 0; i < kVersions; ++i) {
    ReadOptions at;
    at.as_of = static_cast<Timestamp>(i + 1);
    std::string value;
    ASSERT_TRUE(db->Get(at, "hot", &value).ok()) << i;
    EXPECT_EQ(Value(0, i), value);
  }
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, SecondaryIndexRecoversWithPrimary) {
  DbOptions opts = SmallPageOptions();
  auto extract = [](const Slice& value) -> std::optional<std::string> {
    const std::string s = value.ToString();
    const size_t pos = s.find("owner=");
    if (pos == std::string::npos) return std::nullopt;
    return s.substr(pos + 6, 1);
  };
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    if (!db->CreateSecondaryIndex("owner", extract).ok()) ::_exit(3);
    for (int i = 0; i < 60; ++i) {
      const std::string owner(1, static_cast<char>('a' + i % 3));
      if (!db->Put(Key(0, i), "owner=" + owner + ";n=" + std::to_string(i))
               .ok()) {
        ::_exit(4);
      }
    }
    ::kill(::getpid(), SIGKILL);
    ::_exit(5);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  DbOptions reopen = opts;
  reopen.index_extractors["owner"] = extract;
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, reopen, &db).ok());
  // Index answers must agree with a primary scan for every owner.
  std::map<std::string, int> expect;
  for (int i = 0; i < 60; ++i) {
    std::string value;
    if (db->Get(ReadOptions(), Key(0, i), &value).ok()) {
      expect[value.substr(value.find("owner=") + 6, 1)]++;
    }
  }
  ASSERT_FALSE(expect.empty());
  for (const auto& [owner, count] : expect) {
    std::vector<std::pair<std::string, std::string>> kvs;
    ASSERT_TRUE(
        db->FindBySecondary(ReadOptions(), "owner", owner, &kvs).ok());
    EXPECT_EQ(static_cast<int>(kvs.size()), count) << "owner " << owner;
  }
  tsb_tree::TreeChecker checker(db->index("owner")->tree());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, CheckpointRotationSurvivesCrash) {
  DbOptions opts = SmallPageOptions();
  opts.wal_checkpoint_bytes = 16 << 10;  // rotate every ~16 KiB of log
  // A fixed commit count (not a timed kill) so the test is deterministic
  // under load: ~600 commits x ~80 B of frame is several rotations past
  // the 16 KiB threshold before the child dies.
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    const int fd =
        ::open(OraclePath().c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) ::_exit(3);
    for (int seq = 0; seq < 600; ++seq) {
      WriteBatch batch;
      batch.Put(Key(0, seq), Value(0, seq));
      Timestamp cts = 0;
      if (!db->Write(batch, &cts).ok()) ::_exit(4);
      char line[64];
      const int n = snprintf(line, sizeof(line), "0 %d %llu\n", seq,
                             (unsigned long long)cts);
      if (::write(fd, line, n) != n) ::_exit(5);
    }
    ::kill(::getpid(), SIGKILL);  // die with rotations behind us
    ::_exit(6);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_EQ(acks.size(), 600u);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  VerifyRecovered(db.get(), acks, /*batch_size=*/1);
  // The log must have rotated at least once: the seq-0 file is gone.
  struct stat st;
  EXPECT_NE(::stat((path_ + "/wal-000000.tsb").c_str(), &st), 0);
}

// ---- satellite: MANIFEST torn-write resolution -----------------------

TEST_F(CrashRecoveryTest, LeftoverManifestTmpBesideManifestIsDiscarded) {
  DbOptions opts = SmallPageOptions();
  Timestamp ts = 0;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v", &ts).ok());
  }
  // Crash shape 1: tmp written, rename never ran — MANIFEST (with the
  // real WAL position) stays authoritative, the tmp must go away.
  const std::string tmp = path_ + "/MANIFEST.tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("tsb-manifest v1\npage_size=9999\n", f);  // stale/garbage contents
  fclose(f);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "v");
  struct stat st;
  EXPECT_NE(::stat(tmp.c_str(), &st), 0) << "leftover tmp not cleaned up";
}

TEST_F(CrashRecoveryTest, OrphanManifestTmpIsPromotedWhenComplete) {
  DbOptions opts = SmallPageOptions();
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v").ok());
  }
  // Crash shape 2: the MANIFEST vanished mid-rewrite, only a complete
  // tmp remains. Promote it instead of re-creating a blank manifest that
  // would forget the WAL position.
  ASSERT_EQ(::rename((path_ + "/MANIFEST").c_str(),
                     (path_ + "/MANIFEST.tmp").c_str()),
            0);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(db->recovery_stats().frames_replayed, 0u) << "clean flag lost";
  struct stat st;
  EXPECT_EQ(::stat((path_ + "/MANIFEST").c_str(), &st), 0);
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

TEST_F(CrashRecoveryTest, TornOrphanManifestTmpIsDiscarded) {
  DbOptions opts = SmallPageOptions();
  ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
  FILE* f = fopen((path_ + "/MANIFEST.tmp").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("garbage, not a manifest header", f);
  fclose(f);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  ASSERT_TRUE(db->Put("k", "v").ok());
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

/// Body of a manifest that parses cleanly for SmallPageOptions (matching
/// the geometry a built DB records) and catalogs one index — everything
/// but the crc terminator line.
std::string GhostManifestBody() {
  return
      "tsb-manifest v1\n"
      "page_size=512\n"
      "worm_historical=0\n"
      "worm_sector_size=1024\n"
      "enable_mmap=1\n"
      "wal_seq=0\n"
      "checkpoint_lsn=0\n"
      "clean_shutdown=1\n"
      "index=ghost\n";
}

/// Builds a DB (so current.tsb exists and the manifest is authoritative),
/// then replaces MANIFEST with a MANIFEST.tmp-only crash shape whose
/// contents are `body`.
void StageOrphanTmp(const std::string& path, const DbOptions& opts,
                    const std::string& body) {
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v").ok());
  }
  ASSERT_EQ(::unlink((path + "/MANIFEST").c_str()), 0);
  FILE* f = fopen((path + "/MANIFEST.tmp").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(body.c_str(), f);
  fclose(f);
}

TEST_F(CrashRecoveryTest, IncompleteOrphanManifestTmpIsNotPromoted) {
  // A tmp flushed halfway can parse line-by-line yet be missing its tail.
  // Promotion must demand the crc terminator; this tmp has none, so it is
  // discarded — the ghost index entry it carries must never attach.
  DbOptions opts = SmallPageOptions();
  StageOrphanTmp(path_, opts, GhostManifestBody());
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_EQ(db->index("ghost"), nullptr) << "incomplete tmp was promoted";
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

TEST_F(CrashRecoveryTest, TerminatedOrphanManifestTmpIsPromoted) {
  // Control for the test above: the same tmp WITH a valid terminator is
  // whole, so promotion must install it — observable through the ghost
  // index the catalog re-attaches.
  DbOptions opts = SmallPageOptions();
  std::string body = GhostManifestBody();
  char trailer[24];
  snprintf(trailer, sizeof(trailer), "crc=%08x\n",
           crc32c::Mask(crc32c::Value(body.data(), body.size())));
  body += trailer;
  StageOrphanTmp(path_, opts, body);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_NE(db->index("ghost"), nullptr) << "complete tmp was not promoted";
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

// ---- satellite: verified.tsb sidecar corruption ----------------------

class SidecarCorruptionTest : public CrashRecoveryTest {
 protected:
  /// Builds a DB with enough churn that blobs reach the historical store,
  /// then reopens it cold and walks history: blobs verify their CRC on
  /// first mapped pin, so only this second pass populates the verified
  /// set (the writer itself served them warm) and makes the close write a
  /// non-trivial sidecar.
  void BuildDb(const DbOptions& opts) {
    {
      std::unique_ptr<MultiVersionDB> db;
      ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
      for (int round = 0; round < 20; ++round) {
        for (int k = 0; k < 24; ++k) {
          ASSERT_TRUE(db->Put(Key(0, k), Value(0, round * 100 + k)).ok());
        }
      }
    }
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int k = 0; k < 24; ++k) {
      auto it = db->NewCursor();
      ASSERT_TRUE(it->Seek(Key(0, k)).ok());
      while (it->Valid()) ASSERT_TRUE(it->NextVersion().ok());
    }
  }

  void ReopenAndVerify(const DbOptions& opts) {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok())
        << "sidecar damage must never fail Open";
    // History reads fall back to lazy re-verification and still succeed.
    for (int k = 0; k < 24; ++k) {
      auto it = db->NewCursor();
      ASSERT_TRUE(it->Seek(Key(0, k)).ok());
      int versions = 0;
      while (it->Valid() && it->key() == Slice(Key(0, k)) && versions < 50) {
        ++versions;
        ASSERT_TRUE(it->NextVersion().ok());
      }
      EXPECT_GT(versions, 0) << "history lost for key " << k;
    }
    tsb_tree::TreeChecker checker(db->primary());
    EXPECT_TRUE(checker.Check().ok());
  }
};

TEST_F(SidecarCorruptionTest, FlippedBytesFallBackToReverification) {
  DbOptions opts = SmallPageOptions();
  BuildDb(opts);
  const std::string sidecar = path_ + "/verified.tsb";
  FILE* f = fopen(sidecar.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  ASSERT_GT(size, 28);
  // Flip bytes in the offset table: CRC check must reject the whole file.
  fseek(f, size / 2, SEEK_SET);
  const char junk[4] = {'\xde', '\xad', '\xbe', '\xef'};
  fwrite(junk, 1, sizeof(junk), f);
  fclose(f);
  ReopenAndVerify(opts);
}

TEST_F(SidecarCorruptionTest, TruncatedMidRecordFallsBackToReverification) {
  DbOptions opts = SmallPageOptions();
  BuildDb(opts);
  const std::string sidecar = path_ + "/verified.tsb";
  struct stat st;
  ASSERT_EQ(::stat(sidecar.c_str(), &st), 0);
  ASSERT_GT(st.st_size, 29);
  // Cut mid-record: neither the count check nor the CRC can pass.
  ASSERT_EQ(::truncate(sidecar.c_str(), st.st_size - 5), 0);
  ReopenAndVerify(opts);
}

TEST_F(SidecarCorruptionTest, EmptySidecarFallsBackToReverification) {
  DbOptions opts = SmallPageOptions();
  BuildDb(opts);
  ASSERT_EQ(::truncate((path_ + "/verified.tsb").c_str(), 0), 0);
  ReopenAndVerify(opts);
}

}  // namespace
}  // namespace db
}  // namespace tsb
