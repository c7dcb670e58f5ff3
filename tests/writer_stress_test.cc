// N-writer stress for the optimistic-latch-coupling write path: parallel
// committing writers against the full stack — MultiVersionDB → TxnManager → TsbTree — with pages small
// enough that key splits and time splits fire constantly under the
// descents. A ThreadSanitizer target alongside concurrency_test.
//
// Invariants checked:
//  - disjoint writers: every commit lands, the final state of each key is
//    its owner's last write, commit timestamps are globally distinct, and
//    the tree's puts counter equals the number of committed versions;
//  - overlapping writers: every attempt either commits or fails
//    TxnConflict (first-writer-wins), never anything else;
//  - commit-log oracle: a multi-key transaction is all-or-nothing at every
//    timestamp — as of its commit time every key carries its tag, one tick
//    earlier none do;
//  - indexed commits: a commit hook makes every commit hold the commit
//    mutex through stamping, and the fallback counter says so.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/mem_device.h"
#include "txn/txn_manager.h"
#include "txn/write_batch.h"

namespace tsb {
namespace {

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

std::string ValueOf(int writer, uint64_t seq) {
  return "w" + std::to_string(writer) + ":" + std::to_string(seq) +
         ":padding-payload-that-forces-frequent-page-splits";
}

struct Fixture {
  MemDevice magnetic;
  MemDevice optical{DeviceKind::kOpticalErasable, CostParams::OpticalWorm()};
  std::unique_ptr<db::MultiVersionDB> db;

  explicit Fixture(uint32_t page_size = 1024, size_t frames = 128) {
    db::DbOptions options;
    options.tree.page_size = page_size;
    options.tree.buffer_pool_frames = frames;
    Status s = db::MultiVersionDB::Open(&magnetic, &optical, options, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(WriterStressTest, DisjointWritersScaleUnderForcedSplits) {
  Fixture f;
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 20;
  constexpr int kOpsPerWriter = 250;

  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> reader_ops{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x2545F4914F6CDD1Dull * (r + 1);
      while (!stop_readers.load(std::memory_order_acquire)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int ki =
            static_cast<int>((rng >> 33) % (kWriters * kKeysPerWriter));
        std::string value;
        Status s = f.db->Get(db::ReadOptions(), KeyOf(ki), &value);
        // NotFound before the owner's first commit is fine; any payload we
        // do see must be whole (a torn read would fail this format check).
        if (s.ok()) {
          EXPECT_EQ(value[0], 'w') << value;
          EXPECT_NE(value.find(":padding"), std::string::npos) << value;
        } else {
          EXPECT_TRUE(s.IsNotFound()) << s.ToString();
        }
        reader_ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::mutex ts_mu;
  std::set<Timestamp> commit_times;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::vector<Timestamp> local_ts;
      local_ts.reserve(kOpsPerWriter);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const int ki = w * kKeysPerWriter + (op % kKeysPerWriter);
        Timestamp ts = 0;
        Status s = f.db->Put(KeyOf(ki), ValueOf(w, op), &ts);
        if (!s.ok()) {
          ADD_FAILURE() << "writer " << w << ": " << s.ToString();
          failures.fetch_add(1);
          return;
        }
        local_ts.push_back(ts);
      }
      std::lock_guard<std::mutex> lock(ts_mu);
      for (const Timestamp ts : local_ts) {
        EXPECT_TRUE(commit_times.insert(ts).second)
            << "duplicate commit timestamp " << ts;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every commit got its own timestamp.
  EXPECT_EQ(commit_times.size(), size_t{kWriters * kOpsPerWriter});
  // The committed-version counter saw exactly one version per commit
  // (single-key transactions), with no lost or double-applied stamps.
  const auto& counters = f.db->primary()->counters();
  EXPECT_EQ(uint64_t{counters.stamps},
            uint64_t{kWriters} * uint64_t{kOpsPerWriter});
  // Final state: each key holds its owner's LAST write.
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const int last_op =
          kOpsPerWriter - kKeysPerWriter + (kOpsPerWriter % kKeysPerWriter) +
          k;
      const int expect_seq =
          last_op < kOpsPerWriter ? last_op : last_op - kKeysPerWriter;
      std::string value;
      ASSERT_TRUE(
          f.db->Get(db::ReadOptions(), KeyOf(w * kKeysPerWriter + k), &value)
              .ok());
      EXPECT_EQ(value, ValueOf(w, expect_seq));
    }
  }
  // Splits really fired underneath the writers (the point of the stress).
  EXPECT_GT(uint64_t{counters.data_time_splits} +
                uint64_t{counters.data_key_splits},
            0u);
}

TEST(WriterStressTest, OverlappingWritersConflictCleanly) {
  Fixture f;
  constexpr int kWriters = 4;
  constexpr int kKeys = 16;  // small: heavy overlap
  constexpr int kOpsPerWriter = 200;

  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (w + 1);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int ki = static_cast<int>((rng >> 33) % kKeys);
        Status s = f.db->Put(KeyOf(ki), ValueOf(w, op));
        if (s.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else if (s.IsTxnConflict()) {
          // First-writer-wins: losing the race is the expected outcome,
          // anything else is a bug.
          conflicts.fetch_add(1, std::memory_order_relaxed);
        } else {
          ADD_FAILURE() << "writer " << w << ": " << s.ToString();
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(commits.load() + conflicts.load(),
            uint64_t{kWriters} * uint64_t{kOpsPerWriter});
  EXPECT_GT(commits.load(), 0u);
  // Committed versions match the commit count exactly: no conflict left a
  // stamped record behind, no commit lost its stamp.
  EXPECT_EQ(uint64_t{f.db->primary()->counters().stamps}, commits.load());
  // The database stays fully readable afterwards.
  for (int i = 0; i < kKeys; ++i) {
    std::string value;
    Status s = f.db->Get(db::ReadOptions(), KeyOf(i), &value);
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  }
}

TEST(WriterStressTest, MultiKeyCommitsAreAllOrNothingAtEveryTimestamp) {
  Fixture f;
  constexpr int kWriters = 4;
  constexpr int kKeys = 60;
  constexpr int kTxnsPerWriter = 60;
  constexpr int kKeysPerTxn = 3;

  struct CommitRecord {
    Timestamp ts;
    int writer;
    int seq;
    int first_key;
  };
  std::mutex log_mu;
  std::vector<CommitRecord> commit_log;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0xDEADBEEFCAFEF00Dull * (w + 1);
      for (int seq = 0; seq < kTxnsPerWriter; ++seq) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int first = static_cast<int>((rng >> 33) % kKeys);
        txn::WriteBatch batch;
        for (int j = 0; j < kKeysPerTxn; ++j) {
          batch.Put(KeyOf((first + j) % kKeys), ValueOf(w, seq));
        }
        Timestamp ts = 0;
        Status s = f.db->Write(batch, &ts);
        if (s.IsTxnConflict()) continue;  // whole batch rejected: fine
        if (!s.ok()) {
          ADD_FAILURE() << "writer " << w << ": " << s.ToString();
          failures.fetch_add(1);
          return;
        }
        std::lock_guard<std::mutex> lock(log_mu);
        commit_log.push_back({ts, w, seq, first});
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_FALSE(commit_log.empty());

  // Oracle replay: at a transaction's commit time every one of its keys
  // carries its value (no later commit can shadow it at that timestamp —
  // timestamps are distinct); one tick earlier, none of them do.
  for (const CommitRecord& rec : commit_log) {
    const std::string tag = ValueOf(rec.writer, rec.seq);
    for (int j = 0; j < kKeysPerTxn; ++j) {
      const std::string key = KeyOf((rec.first_key + j) % kKeys);
      std::string value;
      Timestamp version_ts = 0;
      ASSERT_TRUE(
          f.db->Get(db::ReadOptions{.as_of = rec.ts}, key, &value, &version_ts)
              .ok());
      EXPECT_EQ(value, tag) << key << " at t=" << rec.ts;
      EXPECT_EQ(version_ts, rec.ts);
      Status before =
          f.db->Get(db::ReadOptions{.as_of = rec.ts - 1}, key, &value);
      if (before.ok()) {
        EXPECT_NE(value, tag) << key << " visible before its commit";
      } else {
        EXPECT_TRUE(before.IsNotFound()) << before.ToString();
      }
    }
  }
}

TEST(WriterStressTest, IndexedCommitsTakeTheObservableSerialFallback) {
  // Plain concurrent workload: no commit hook, so commits stamp in
  // parallel and the fallback counter stays cold.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 100;
  {
    Fixture f;
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&, w] {
        for (int op = 0; op < kOpsPerThread; ++op) {
          const int ki = w * kOpsPerThread + op;  // disjoint
          ASSERT_TRUE(f.db->Put(KeyOf(ki), ValueOf(w, op)).ok());
        }
      });
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(0u, f.db->txn_manager()->serial_fallback_commits());
  }

  // The same workload with a secondary index: maintenance requires
  // timestamp-ordered application, so EVERY commit holds the commit mutex
  // through stamping and the hook — and the counter says so, one tick per
  // commit. This is the observable cost of indexing (the write-scaling
  // bottleneck the ROADMAP tracks).
  {
    Fixture f;
    ASSERT_TRUE(f.db->CreateSecondaryIndex(
                        "by_writer",
                        [](const Slice& value) -> std::optional<std::string> {
                          const std::string s = value.ToString();
                          const size_t colon = s.find(':');
                          if (colon == std::string::npos) return std::nullopt;
                          return s.substr(0, colon);
                        })
                    .ok());
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&, w] {
        for (int op = 0; op < kOpsPerThread; ++op) {
          const int ki = w * kOpsPerThread + op;  // disjoint
          ASSERT_TRUE(f.db->Put(KeyOf(ki), ValueOf(w, op)).ok());
        }
      });
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(uint64_t{kThreads * kOpsPerThread},
              f.db->txn_manager()->serial_fallback_commits());
    // The ordered commits kept the index coherent: every record is
    // reachable through its writer's index key.
    for (int w = 0; w < kThreads; ++w) {
      std::vector<std::pair<std::string, std::string>> hits;
      ASSERT_TRUE(f.db
                      ->FindBySecondary(db::ReadOptions(), "by_writer",
                                        "w" + std::to_string(w), &hits)
                      .ok());
      EXPECT_EQ(size_t{kOpsPerThread}, hits.size()) << "writer " << w;
    }
  }
}

}  // namespace
}  // namespace tsb
