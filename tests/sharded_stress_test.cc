// Sharded concurrency stress (run under TSan in CI): multi-shard
// WriteBatches race BeginReadOnly readers and merged-cursor scans, and
// no reader — point or scan, forward or reverse — may ever observe a
// torn batch: every key of a writer's batch carries the same generation
// or the batch is wholly absent.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_db.h"

namespace tsb {
namespace shard {
namespace {

constexpr int kWriters = 4;
constexpr int kKeysPerWriter = 8;
constexpr int kRounds = 60;

std::string GroupKey(int writer, int k) {
  char buf[24];
  snprintf(buf, sizeof(buf), "w%02d-k%02d", writer, k);
  return buf;
}

class ShardedStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/tsb_sharded_stress." + std::to_string(::getpid()) + "." +
            std::to_string(counter.fetch_add(1));
    ShardedDB::Destroy(path_);
    ShardedOptions o;
    o.num_shards = 4;
    o.base.tree.page_size = 512;
    o.base.tree.buffer_pool_frames = 4096;
    Status s = ShardedDB::Open(path_, o, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    // Every writer's key group must span shards, or the test silently
    // stops exercising the coordinator protocol.
    for (int w = 0; w < kWriters; ++w) {
      std::set<uint32_t> touched;
      for (int k = 0; k < kKeysPerWriter; ++k) {
        touched.insert(db_->ShardOf(GroupKey(w, k)));
      }
      ASSERT_GT(touched.size(), 1u) << "writer " << w;
    }
  }
  void TearDown() override {
    db_.reset();
    ShardedDB::Destroy(path_);
  }

  std::string path_;
  std::unique_ptr<ShardedDB> db_;
};

TEST_F(ShardedStressTest, RacingMultiShardBatchesAreNeverTorn) {
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> snapshots{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w]() {
      for (int round = 1; round <= kRounds; ++round) {
        WriteBatch batch;
        const std::string gen =
            "g" + std::to_string(round) + "-w" + std::to_string(w);
        for (int k = 0; k < kKeysPerWriter; ++k) {
          batch.Put(GroupKey(w, k), gen);
        }
        Status s = db_->Write(batch);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }

  // Point readers: one snapshot, then every key of every group — all
  // keys of a group must agree on the generation.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([this, &done, &torn, &snapshots]() {
      Timestamp last_ts = 0;
      while (!done.load(std::memory_order_acquire)) {
        ShardedReadTransaction snap = db_->BeginReadOnly();
        // Watermark never moves backward.
        EXPECT_GE(snap.timestamp(), last_ts);
        last_ts = snap.timestamp();
        for (int w = 0; w < kWriters; ++w) {
          std::string first;
          bool have = false;
          for (int k = 0; k < kKeysPerWriter; ++k) {
            std::string v;
            Status s = snap.Get(GroupKey(w, k), &v);
            if (s.IsNotFound()) {
              // Before the group's first batch: ALL its keys must miss.
              if (have) torn.fetch_add(1);
              continue;
            }
            ASSERT_TRUE(s.ok()) << s.ToString();
            if (!have) {
              first = v;
              have = true;
            } else if (v != first) {
              torn.fetch_add(1);
            }
          }
        }
        snapshots.fetch_add(1);
      }
    });
  }

  // Scan readers: full merged scans, alternating forward and reverse,
  // re-checking group agreement from the cursor's view.
  std::vector<std::thread> scanners;
  for (int r = 0; r < 2; ++r) {
    const bool forward = (r % 2) == 0;
    scanners.emplace_back([this, forward, &done, &torn]() {
      while (!done.load(std::memory_order_acquire)) {
        auto c = db_->NewCursor();
        std::map<std::string, std::string> rows;
        Status s = forward ? c->SeekToFirst() : c->SeekToLast();
        ASSERT_TRUE(s.ok()) << s.ToString();
        std::string prev;
        while (c->Valid()) {
          const std::string k = c->key().ToString();
          if (!prev.empty()) {
            // The merge must stay strictly ordered even while shards
            // split pages underneath it.
            EXPECT_TRUE(forward ? prev < k : prev > k)
                << prev << " vs " << k;
          }
          prev = k;
          rows[k] = c->value().ToString();
          s = forward ? c->Next() : c->Prev();
          ASSERT_TRUE(s.ok()) << s.ToString();
        }
        for (int w = 0; w < kWriters; ++w) {
          std::string first;
          bool have = false;
          for (int k = 0; k < kKeysPerWriter; ++k) {
            auto it = rows.find(GroupKey(w, k));
            if (it == rows.end()) {
              if (have) torn.fetch_add(1);
              continue;
            }
            if (!have) {
              first = it->second;
              have = true;
            } else if (it->second != first) {
              torn.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (auto& t : scanners) t.join();

  EXPECT_EQ(0, torn.load());
  EXPECT_GT(snapshots.load(), 0u);

  // Quiesced: the final generation of every group is visible whole.
  ShardedReadTransaction final_snap = db_->BeginReadOnly();
  for (int w = 0; w < kWriters; ++w) {
    const std::string want = "g" + std::to_string(kRounds) + "-w" +
                             std::to_string(w);
    for (int k = 0; k < kKeysPerWriter; ++k) {
      std::string v;
      ASSERT_TRUE(final_snap.Get(GroupKey(w, k), &v).ok());
      EXPECT_EQ(want, v);
    }
  }
}

TEST_F(ShardedStressTest, MergedScanMatchesOracleWhileQuiescedBetweenBursts) {
  // Burst writes, then compare a merged scan against reading every key
  // point-wise at the same snapshot — the cursor and the router must
  // tell the same story after every burst.
  for (int round = 1; round <= 5; ++round) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([this, w, round]() {
        WriteBatch batch;
        for (int k = 0; k < kKeysPerWriter; ++k) {
          batch.Put(GroupKey(w, k),
                    "r" + std::to_string(round) + "w" + std::to_string(w));
        }
        ASSERT_TRUE(db_->Write(batch).ok());
      });
    }
    for (auto& t : writers) t.join();

    ShardedReadTransaction snap = db_->BeginReadOnly();
    auto c = snap.NewCursor();
    ASSERT_TRUE(c->SeekToFirst().ok());
    int rows = 0;
    while (c->Valid()) {
      std::string v;
      Timestamp vts = 0;
      ASSERT_TRUE(snap.Get(c->key(), &v, &vts).ok());
      EXPECT_EQ(v, c->value().ToString());
      EXPECT_EQ(vts, c->ts());
      ++rows;
      ASSERT_TRUE(c->Next().ok());
    }
    EXPECT_EQ(kWriters * kKeysPerWriter, rows);
  }
}

}  // namespace
}  // namespace shard
}  // namespace tsb
