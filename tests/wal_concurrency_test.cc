// Thread-safety of the WAL append/sync path — the TSan target for the
// durability subsystem. Pure threads, no forks: group-commit rendezvous
// from many committers, checkpoints racing writers, and replay ordering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "tsb/tree_check.h"
#include "wal/wal.h"

namespace tsb {
namespace wal {
namespace {

TEST(WalConcurrencyTest, ConcurrentAppendAndGroupSync) {
  const std::string file =
      "/tmp/tsb_wal_conc." + std::to_string(::getpid()) + ".tsb";
  ::unlink(file.c_str());
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(file, WalSyncMode::kGroup, 0, &wal).ok());
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 50;
  std::atomic<uint64_t> next_ts{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        std::map<std::string, std::string> ops;
        ops["t" + std::to_string(t) + "-" + std::to_string(i)] = "v";
        uint64_t end_lsn = 0;
        const Timestamp ts = next_ts.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(wal->AppendCommit(ts, ops, &end_lsn).ok());
        ASSERT_TRUE(wal->Sync(end_lsn).ok());
        ASSERT_GE(wal->synced_lsn(), end_lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.frames_appended, kThreads * kCommitsPerThread);
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.sync_piggybacks);
  wal.reset();
  // Replay delivers every frame exactly once.
  uint64_t frames = 0;
  WalReplayResult rr;
  ASSERT_TRUE(Wal::Replay(
                  file, 0,
                  [&](const WalCommit& c) {
                    ++frames;
                    EXPECT_EQ(c.ops.size(), 1u);
                    return Status::OK();
                  },
                  &rr)
                  .ok());
  EXPECT_EQ(frames, kThreads * kCommitsPerThread);
  EXPECT_FALSE(rr.tail_truncated);
  ::unlink(file.c_str());
}

TEST(WalConcurrencyTest, BackgroundSyncModeAppends) {
  const std::string file =
      "/tmp/tsb_wal_bg." + std::to_string(::getpid()) + ".tsb";
  ::unlink(file.c_str());
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(file, WalSyncMode::kBackground, 1, &wal).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        std::map<std::string, std::string> ops;
        ops["k" + std::to_string(t * 1000 + i)] = "v";
        uint64_t end_lsn = 0;
        ASSERT_TRUE(
            wal->AppendCommit(t * 1000 + i + 1, ops, &end_lsn).ok());
        ASSERT_TRUE(wal->Sync(end_lsn).ok());  // returns immediately
      }
    });
  }
  for (auto& th : threads) th.join();
  wal.reset();  // joins the flusher
  ::unlink(file.c_str());
}

TEST(WalConcurrencyTest, DbWritersRaceCheckpoints) {
  const std::string path =
      "/tmp/tsb_wal_db_conc." + std::to_string(::getpid());
  db::MultiVersionDB::Destroy(path);
  db::DbOptions opts;
  opts.tree.page_size = 1024;
  opts.tree.buffer_pool_frames = 4096;
  // Background sync keeps the test fast under TSan while still running
  // the full append path; the checkpoint thread forces real fsyncs.
  opts.wal_sync = wal::WalSyncMode::kBackground;
  constexpr int kWriters = 4;
  constexpr int kCommits = 120;
  {
    std::unique_ptr<db::MultiVersionDB> db;
    ASSERT_TRUE(db::MultiVersionDB::Open(path, opts, &db).ok());
    std::atomic<bool> done{false};
    std::thread checkpointer([&] {
      while (!done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(db->Checkpoint().ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kCommits; ++i) {
          db::WriteBatch batch;
          batch.Put("w" + std::to_string(w) + "-" + std::to_string(i),
                    "value-" + std::to_string(i));
          ASSERT_TRUE(db->Write(batch).ok());
        }
      });
    }
    for (auto& th : writers) th.join();
    done.store(true, std::memory_order_release);
    checkpointer.join();
  }
  // Reopen: everything survives the close/reopen boundary.
  std::unique_ptr<db::MultiVersionDB> db;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, opts, &db).ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kCommits; ++i) {
      std::string value;
      ASSERT_TRUE(
          db->Get(db::ReadOptions(),
                  "w" + std::to_string(w) + "-" + std::to_string(i), &value)
              .ok())
          << "lost w" << w << " i" << i;
      EXPECT_EQ(value, "value-" + std::to_string(i));
    }
  }
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
  db.reset();
  db::MultiVersionDB::Destroy(path);
}

TEST(WalConcurrencyTest, SizeTriggeredRotationRacesWriters) {
  // Regression: the size trigger in MultiVersionDB::Write used to read
  // wal_->appended_lsn() bare, racing the rotation that destroys the old
  // Wal object (use-after-free under TSan). A tiny rotation threshold
  // makes every writer hit the trigger while rotations are in flight.
  const std::string path =
      "/tmp/tsb_wal_rot_conc." + std::to_string(::getpid());
  db::MultiVersionDB::Destroy(path);
  db::DbOptions opts;
  opts.tree.page_size = 1024;
  opts.tree.buffer_pool_frames = 4096;
  opts.wal_sync = wal::WalSyncMode::kOff;  // rotation pressure, not fsyncs
  opts.wal_checkpoint_bytes = 4 << 10;     // rotate every ~4 KiB of log
  constexpr int kWriters = 4;
  constexpr int kCommits = 150;
  {
    std::unique_ptr<db::MultiVersionDB> db;
    ASSERT_TRUE(db::MultiVersionDB::Open(path, opts, &db).ok());
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kCommits; ++i) {
          db::WriteBatch batch;
          batch.Put("r" + std::to_string(w) + "-" + std::to_string(i),
                    std::string(64, 'x'));
          ASSERT_TRUE(db->Write(batch).ok());
        }
      });
    }
    for (auto& th : writers) th.join();
    EXPECT_TRUE(db->LastCheckpointError().ok());
  }
  std::unique_ptr<db::MultiVersionDB> db;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, opts, &db).ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kCommits; ++i) {
      std::string value;
      ASSERT_TRUE(
          db->Get(db::ReadOptions(),
                  "r" + std::to_string(w) + "-" + std::to_string(i), &value)
              .ok())
          << "lost r" << w << " i" << i;
    }
  }
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
  db.reset();
  db::MultiVersionDB::Destroy(path);
}

}  // namespace
}  // namespace wal
}  // namespace tsb
