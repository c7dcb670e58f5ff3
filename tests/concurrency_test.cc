// Engine-level concurrency: one updater + N lock-free timestamped readers
// (paper section 4.1) running against the full stack — MultiVersionDB →
// TxnManager → TsbTree → BufferPool → Pager → MemDevice. These tests are
// the ThreadSanitizer targets for the latching protocol.
//
// Invariants checked while the writer runs:
//  - a reader pinned at timestamp T sees, for every key, a version with
//    commit time <= T whose payload decodes to a consistent (key, seq)
//    pair;
//  - per key, the sequence a reader observes across successive read
//    transactions never goes backwards (commit order = timestamp order);
//  - snapshot iteration at T yields strictly increasing keys, each with
//    version timestamp <= T, even when splits restructure the tree mid
//    scan;
//  - a history-range scan over a window below the watermark returns the
//    same records no matter what concurrent writers split meanwhile;
//  - a writer that overfills a single-key leaf while an in-flight commit
//    holds the watermark back waits for the watermark instead of failing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/append_store.h"
#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "tsb/cursor.h"
#include "tsb/tree_check.h"
#include "txn/commit_ledger.h"

namespace tsb {
namespace {

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

std::string ValueOf(const std::string& key, uint64_t seq) {
  return key + ":" + std::to_string(seq) + ":payload-padding-to-split-pages";
}

// Decodes "key:seq:..." back into (key, seq); false on malformed payloads
// (which would indicate a torn read).
bool DecodeValue(const std::string& v, std::string* key, uint64_t* seq) {
  const size_t c1 = v.find(':');
  if (c1 == std::string::npos) return false;
  const size_t c2 = v.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  *key = v.substr(0, c1);
  errno = 0;
  *seq = strtoull(v.c_str() + c1 + 1, nullptr, 10);
  return errno == 0;
}

struct Fixture {
  MemDevice magnetic;
  MemDevice optical{DeviceKind::kOpticalErasable, CostParams::OpticalWorm()};
  std::unique_ptr<db::MultiVersionDB> db;

  explicit Fixture(uint32_t page_size = 1024, size_t frames = 64) {
    db::DbOptions options;
    options.tree.page_size = page_size;
    options.tree.buffer_pool_frames = frames;
    Status s = db::MultiVersionDB::Open(&magnetic, &optical, options, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(ConcurrencyTest, ReadersNeverBlockAndSeeCommittedStateOnly) {
  Fixture f;
  constexpr int kKeys = 120;
  constexpr int kRounds = 40;
  constexpr int kReaders = 4;

  // Seed every key once so readers always find something.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x853C49E6748FEA9Bull * (r + 1);
      // Last sequence observed per key: must never go backwards.
      std::vector<uint64_t> last_seq(kKeys, 0);
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        for (int probe = 0; probe < 8; ++probe) {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          const int ki = static_cast<int>((rng >> 33) % kKeys);
          std::string value;
          Timestamp version_ts = 0;
          Status s = snap.Get(KeyOf(ki), &value, &version_ts);
          if (!s.ok()) {
            failed.store(true);
            break;
          }
          std::string key;
          uint64_t seq = 0;
          if (!DecodeValue(value, &key, &seq) || key != KeyOf(ki) ||
              version_ts > snap.timestamp() || seq < last_seq[ki]) {
            failed.store(true);
            break;
          }
          last_seq[ki] = seq;
          reads_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The single updater: rewrites every key each round through autocommit
  // transactions, driving leaf time splits and key splits underneath the
  // readers.
  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads_done.load(), 0u);
  // Splits really happened under the readers (the interesting case).
  EXPECT_GT(f.db->primary()->counters().data_time_splits +
                f.db->primary()->counters().data_key_splits,
            0u);
}

TEST(ConcurrencyTest, SnapshotScansStayExactUnderConcurrentSplits) {
  Fixture f;
  constexpr int kKeys = 150;
  constexpr int kRounds = 25;
  constexpr int kScanners = 3;

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> scans_done{0};

  std::vector<std::thread> scanners;
  for (int r = 0; r < kScanners; ++r) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        auto it = snap.NewCursor();
        Status s = it->SeekToFirst();
        int count = 0;
        std::string prev_key;
        while (s.ok() && it->Valid()) {
          if (!prev_key.empty() && it->key().ToString() <= prev_key) {
            failed.store(true);  // out of order or duplicate
            break;
          }
          if (it->ts() > snap.timestamp()) {
            failed.store(true);  // future version leaked into the snapshot
            break;
          }
          prev_key = it->key().ToString();
          count++;
          s = it->Next();
        }
        if (!s.ok() || count != kKeys) {
          // Every key was seeded before any snapshot began, so every
          // snapshot must contain all of them exactly once.
          failed.store(true);
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(scans_done.load(), 0u);
}

using VersionRecords = std::vector<tsb_tree::TsbTree::VersionRecord>;

bool SameRecords(const VersionRecords& a, const VersionRecords& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tie(a[i].key, a[i].ts, a[i].value) !=
        std::tie(b[i].key, b[i].ts, b[i].value)) {
      return false;
    }
  }
  return true;
}

// History-range scans over windows that lie entirely below the watermark
// sampled before any writer starts: while three concurrent writers
// key-split and time-split the pages underneath (updating old keys and
// inserting new ones between them), every scan must equal the oracle
// built from the commit log before the writers began.
TEST(ConcurrencyTest, HistoryRangeScansStayExactUnderConcurrentWriters) {
  Fixture f(/*page_size=*/512, /*frames=*/64);
  constexpr int kKeys = 60;
  constexpr int kSeedRounds = 6;
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 300;
  constexpr int kMaxOpsPerWriter = 20 * kOpsPerWriter;
  constexpr uint64_t kMinScans = 40;
  constexpr int kScanners = 2;
  tsb_tree::TsbTree* tree = f.db->primary();

  // (key, ts, value) commit log of the seed phase, in (key, ts) order.
  std::vector<std::tuple<std::string, Timestamp, std::string>> log;
  for (int round = 0; round < kSeedRounds; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Timestamp ts = 0;
      const std::string value = ValueOf(KeyOf(i), round);
      ASSERT_TRUE(f.db->Put(KeyOf(i), value, &ts).ok());
      log.emplace_back(KeyOf(i), ts, value);
    }
  }
  std::sort(log.begin(), log.end());
  const Timestamp watermark = tree->VisibleNow();

  struct Window {
    std::string key_lo, key_hi;  // key_hi empty = unbounded
    Timestamp t_lo, t_hi;
  };
  const std::vector<Window> windows = {
      {"", "", 0, watermark + 1},
      {KeyOf(10), KeyOf(40), watermark / 3, 2 * watermark / 3},
      {KeyOf(45), "", watermark / 2, watermark + 1},
  };
  std::vector<VersionRecords> oracle(windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    const Window& win = windows[w];
    for (const auto& [key, ts, value] : log) {
      if (key < win.key_lo || (!win.key_hi.empty() && key >= win.key_hi) ||
          ts < win.t_lo || ts >= win.t_hi) {
        continue;
      }
      oracle[w].push_back({key, ts, value});
    }
    ASSERT_FALSE(oracle[w].empty());
    VersionRecords quiet;
    ASSERT_TRUE(tree->ScanHistoryRange(win.key_lo, win.key_hi, win.t_lo,
                                       win.t_hi, &quiet)
                    .ok());
    ASSERT_TRUE(SameRecords(oracle[w], quiet)) << "window " << w;
  }
  const uint64_t key_splits_before = tree->counters().data_key_splits;
  const uint64_t time_splits_before = tree->counters().data_time_splits;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> scans_done{0};
  // Writers start first and keep writing until the scanners have finished
  // kMinScans scans, so every counted scan runs beside them.
  std::vector<std::thread> writers;
  for (int wid = 0; wid < kWriters; ++wid) {
    writers.emplace_back([&, wid] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (wid + 1);
      for (int i = 0; i < kMaxOpsPerWriter && !failed.load(); ++i) {
        if (i >= kOpsPerWriter &&
            scans_done.load(std::memory_order_relaxed) >= kMinScans) {
          break;
        }
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        // Even ops add a version to a seeded key (time splits); odd ops
        // insert a new key between seeded ones (key splits). Each writer
        // owns every kWriters-th seeded key, so writers never conflict.
        const int k = wid + kWriters * static_cast<int>((rng >> 33) %
                                                        (kKeys / kWriters));
        std::string key = KeyOf(k);
        if (i % 2 == 1) {
          key += "+" + std::to_string(wid) + "." + std::to_string(i);
        }
        Status s = f.db->Put(key, ValueOf(key, 100 + i));
        if (!s.ok()) {
          ADD_FAILURE() << "writer Put failed: " << s.ToString();
          failed.store(true);
          return;
        }
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int r = 0; r < kScanners; ++r) {
    scanners.emplace_back([&, r] {
      size_t w = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        const Window& win = windows[w % windows.size()];
        VersionRecords got;
        Status s = tree->ScanHistoryRange(win.key_lo, win.key_hi, win.t_lo,
                                          win.t_hi, &got);
        if (!s.ok() || !SameRecords(oracle[w % windows.size()], got)) {
          failed.store(true);
          break;
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
        ++w;
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GE(scans_done.load(), kMinScans);
  EXPECT_GT(tree->counters().data_key_splits, key_splits_before);
  EXPECT_GT(tree->counters().data_time_splits, time_splits_before);
}

// Reverse scans ride the same pinned-frame machinery as forward ones:
// current-page frames revalidate a per-page mutation counter and re-seek
// on invalidation. Under a splitting writer, a backward walk taken inside
// one read snapshot must equal the reversed forward walk of the SAME
// snapshot — exact count, exact order, no version from the future.
// Watermark-lag regression. While a commit is in flight the published
// watermark stays below it, and a time split never picks a boundary above
// the published watermark. A writer that overfills a single-key leaf
// meanwhile (no key split possible, no version old enough to migrate)
// must wait for the watermark, then finish once the in-flight commit
// publishes — not fail with OutOfSpace.
TEST(ConcurrencyTest, HotKeyWriterWaitsForLaggingWatermark) {
  Fixture f(/*page_size=*/512, /*frames=*/64);
  tsb_tree::TsbTree* tree = f.db->primary();
  txn::CommitLedger ledger(&tree->clock());
  f.db->txn_manager()->SetLedger(&ledger);
  const Timestamp held = ledger.TickCommit();  // in flight until EndCommit

  constexpr int kVersions = 40;
  std::atomic<int> done{0};
  Status failure;
  std::thread writer([&] {
    for (int i = 0; i < kVersions; ++i) {
      Status s = f.db->Put("hot", ValueOf("hot", i));
      if (!s.ok()) {
        failure = s;
        return;
      }
      done.fetch_add(1, std::memory_order_release);
    }
  });

  // Wait until the writer stops making progress: it is parked on the
  // watermark (or has failed, which the checks below report).
  int last = -1;
  auto unchanged_since = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int now = done.load(std::memory_order_acquire);
    if (now != last) {
      last = now;
      unchanged_since = std::chrono::steady_clock::now();
    } else if (now == kVersions || std::chrono::steady_clock::now() -
                                           unchanged_since >
                                       std::chrono::milliseconds(200)) {
      break;
    }
  }
  EXPECT_LT(done.load(), kVersions) << "the full leaf never waited";
  EXPECT_LT(tree->VisibleNow(), held);

  ledger.EndCommit(held);
  writer.join();
  ASSERT_TRUE(failure.ok()) << failure.ToString();
  EXPECT_EQ(kVersions, done.load());
  EXPECT_GT(uint64_t{tree->counters().data_time_splits}, 0u);
  std::string value;
  ASSERT_TRUE(f.db->Get(db::ReadOptions(), "hot", &value).ok());
  EXPECT_EQ(ValueOf("hot", kVersions - 1), value);
  tsb_tree::TreeChecker checker(tree);
  EXPECT_TRUE(checker.Check().ok());
  f.db->txn_manager()->SetLedger(nullptr);
}

TEST(ConcurrencyTest, ReverseScansMatchReversedForwardUnderSplits) {
  Fixture f;
  constexpr int kKeys = 150;
  constexpr int kRounds = 25;
  constexpr int kScanners = 3;

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> scans_done{0};

  std::vector<std::thread> scanners;
  for (int r = 0; r < kScanners; ++r) {
    scanners.emplace_back([&] {
      std::vector<std::pair<std::string, Timestamp>> forward, backward;
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        auto c = snap.NewCursor();
        forward.clear();
        backward.clear();
        Status s = c->SeekToFirst();
        while (s.ok() && c->Valid()) {
          forward.emplace_back(c->key().ToString(), c->ts());
          s = c->Next();
        }
        if (!s.ok() || forward.size() != static_cast<size_t>(kKeys)) {
          failed.store(true);
          break;
        }
        // Same snapshot, walked backward from the last key.
        s = c->Seek(Slice(forward.back().first));
        while (s.ok() && c->Valid()) {
          if (c->ts() > snap.timestamp()) {
            failed.store(true);  // future version leaked into the snapshot
            break;
          }
          backward.emplace_back(c->key().ToString(), c->ts());
          s = c->Prev();
        }
        std::reverse(backward.begin(), backward.end());
        if (!s.ok() || backward != forward) {
          failed.store(true);
          break;
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(scans_done.load(), 0u);
  EXPECT_GT(f.db->primary()->counters().data_time_splits +
                f.db->primary()->counters().data_key_splits,
            0u);
}

// A multi-key transaction must be all-or-nothing to lock-free readers:
// the commit timestamp is published to the reader watermark only after
// every key is stamped, so a snapshot can never see key A from a commit
// without key B (paper 4.1: no updater commits at or before an issued
// read timestamp).
TEST(ConcurrencyTest, MultiKeyCommitsAreAtomicToReaders) {
  Fixture f;
  constexpr int kPairs = 30;
  constexpr int kRounds = 60;

  auto a_key = [](int i) { return "a-" + KeyOf(i); };
  auto b_key = [](int i) { return "b-" + KeyOf(i); };
  for (int i = 0; i < kPairs; ++i) {
    std::unique_ptr<txn::Transaction> t;
    ASSERT_TRUE(f.db->Begin(&t).ok());
    ASSERT_TRUE(t->Put(a_key(i), ValueOf(a_key(i), 0)).ok());
    ASSERT_TRUE(t->Put(b_key(i), ValueOf(b_key(i), 0)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0xD1B54A32D192ED03ull * (r + 1);
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int i = static_cast<int>((rng >> 33) % kPairs);
        std::string va, vb, ka, kb;
        uint64_t sa = 0, sb = 0;
        if (!snap.Get(a_key(i), &va).ok() || !snap.Get(b_key(i), &vb).ok() ||
            !DecodeValue(va, &ka, &sa) || !DecodeValue(vb, &kb, &sb) ||
            sa != sb) {
          failed.store(true);  // torn commit: pair out of sync at snapshot
          break;
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Each round rewrites every pair in ONE transaction with a new seq.
  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kPairs; ++i) {
      std::unique_ptr<txn::Transaction> t;
      ASSERT_TRUE(f.db->Begin(&t).ok());
      Status s = t->Put(a_key(i), ValueOf(a_key(i), round));
      if (s.ok()) s = t->Put(b_key(i), ValueOf(b_key(i), round));
      if (s.ok()) s = t->Commit();
      if (!s.ok()) {
        ADD_FAILURE() << "pair commit failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(checks.load(), 0u);
}

// Two updater threads racing on overlapping key ranges: first-writer-wins
// conflicts surface as TxnConflict, never as corruption, and committed
// state stays decodable.
TEST(ConcurrencyTest, ConcurrentUpdatersConflictCleanly) {
  Fixture f;
  constexpr int kKeys = 40;
  constexpr int kOpsPerWriter = 300;

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};

  auto writer = [&](int wid) {
    uint64_t rng = 0xA0761D64ull * (wid + 3);
    for (int i = 0; i < kOpsPerWriter && !failed.load(); ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const int ki = static_cast<int>((rng >> 33) % kKeys);
      std::unique_ptr<txn::Transaction> t;
      if (!f.db->Begin(&t).ok()) {
        failed.store(true);
        return;
      }
      Status s = t->Put(KeyOf(ki), ValueOf(KeyOf(ki), i));
      if (s.IsTxnConflict()) {
        conflicts.fetch_add(1);
        t->Abort();
        continue;
      }
      if (!s.ok() || !t->Commit().ok()) {
        failed.store(true);
        return;
      }
      commits.fetch_add(1);
    }
  };
  std::thread w1(writer, 1), w2(writer, 2);
  w1.join();
  w2.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(commits.load(), 0u);
  // All keys that were committed decode cleanly.
  for (int i = 0; i < kKeys; ++i) {
    std::string value, key;
    uint64_t seq = 0;
    Status s = f.db->Get(db::ReadOptions(), KeyOf(i), &value);
    if (s.IsNotFound()) continue;
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(DecodeValue(value, &key, &seq));
    EXPECT_EQ(KeyOf(i), key);
  }
}

// The shared-blob read path under TSan: N readers pin and walk the SAME
// cached blob through ReadView while a writer keeps appending (rotating
// the LRU cache underneath them). Exercises the pin-vs-evict and
// publish-once races in AppendStore.
TEST(ConcurrencyTest, AppendStoreSharedBlobReadersWhileWriterAppends) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/2);

  constexpr int kSharedBlobs = 4;
  std::vector<HistAddr> addrs(kSharedBlobs);
  std::vector<std::string> payloads(kSharedBlobs);
  for (int i = 0; i < kSharedBlobs; ++i) {
    payloads[i] = "blob-" + std::to_string(i) + "-" +
                  std::string(200 + i * 37, static_cast<char>('a' + i));
    ASSERT_TRUE(store.Append(payloads[i], &addrs[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};

  std::thread writer([&] {
    HistAddr scratch;
    for (int i = 0; i < 500 && !stop.load(std::memory_order_acquire); ++i) {
      if (!store.Append(Slice("writer-era-" + std::to_string(i)), &scratch)
               .ok()) {
        failed.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 400; ++i) {
        const int b = (r + i) % kSharedBlobs;
        BlobHandle h;
        if (!store.ReadView(addrs[b], &h).ok() ||
            h.data() != Slice(payloads[b])) {
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(4u * 400u, reads.load());
  const HistReadStats s = store.hist_stats();
  EXPECT_GT(s.cache_hits + s.cache_misses, 0u);
}

// The mmap read path under TSan: N readers pin blobs straight out of the
// file mapping (cache disabled, so every read takes the mapped cold path)
// while a writer keeps appending — forcing remaps whose old mappings must
// stay valid for outstanding pins. Exercises the mapping-refcount,
// verified-set and size/high-water races in FileDevice + AppendStore.
TEST(ConcurrencyTest, AppendStoreMappedReadersWhileWriterAppends) {
  char tmpl[] = "/tmp/tsb_concurrency_mmap_XXXXXX";
  const int tmp_fd = ::mkstemp(tmpl);
  ASSERT_GE(tmp_fd, 0);
  ::close(tmp_fd);
  const std::string path = tmpl;

  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path, &raw, DeviceKind::kOpticalErasable,
                               CostParams::OpticalWorm(),
                               /*enable_mmap=*/true)
                  .ok());
  std::unique_ptr<FileDevice> dev(raw);
  AppendStore store(dev.get(), /*cache_blobs=*/0);

  constexpr int kSharedBlobs = 4;
  std::vector<HistAddr> addrs(kSharedBlobs);
  std::vector<std::string> payloads(kSharedBlobs);
  for (int i = 0; i < kSharedBlobs; ++i) {
    payloads[i] = "mapped-blob-" + std::to_string(i) + "-" +
                  std::string(300 + i * 53, static_cast<char>('a' + i));
    ASSERT_TRUE(store.Append(payloads[i], &addrs[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};

  std::thread writer([&] {
    // Each append grows the file; crossing page boundaries forces readers
    // of later blobs to remap while earlier pins are still live.
    HistAddr scratch;
    for (int i = 0; i < 500 && !stop.load(std::memory_order_acquire); ++i) {
      if (!store.Append(Slice(std::string(600, 'w')), &scratch).ok()) {
        failed.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      BlobHandle held;  // keep one pin across iterations (old mappings)
      for (int i = 0; i < 400; ++i) {
        const int b = (r + i) % kSharedBlobs;
        BlobHandle h;
        if (!store.ReadView(addrs[b], &h).ok() ||
            h.data() != Slice(payloads[b])) {
          failed.store(true);
          return;
        }
        if (i % 16 == 0) held = h;
        if (held.valid() && held.data().empty()) {
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(4u * 400u, reads.load());
  const HistReadStats s = store.hist_stats();
  EXPECT_GT(s.mapped_bytes, 0u);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace tsb
