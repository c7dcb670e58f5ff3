// Concurrency experiment (paper section 4.1): one updater advancing the
// logical clock while N read-only transactions run lock-free against
// timestamped snapshots. Reports aggregate reader throughput as the reader
// count grows — with per-frame shared latches and a sharded buffer pool,
// point reads should scale nearly linearly until the memory bus saturates.
//
// Second phase: N committing WRITERS (optimistic latch coupling) on
// disjoint key ranges and on one contended key space. Emits
// BENCH_concurrency.json (BENCH_CONCURRENCY_JSON overrides the path) with
// the scaling ratio CI gates on.
//
// The deterministic tables are the acceptance artifacts: reader scaling at
// 4 threads vs 1, and 4-writer throughput vs 1-writer on disjoint ranges.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "tsb/cursor.h"
#include "txn/txn_manager.h"
#include "txn/write_batch.h"

namespace tsb {
namespace bench {
namespace {

constexpr int kKeys = 4000;
constexpr int kMeasureMs = 400;

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

tsb_tree::TsbOptions Options() {
  tsb_tree::TsbOptions options;
  options.page_size = 4096;
  options.buffer_pool_frames = 512;
  options.hist_cache_blobs = 32;
  return options;
}

struct ConcurrencyFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<MemDevice> optical;
  std::unique_ptr<tsb_tree::TsbTree> tree;

  static ConcurrencyFixture Build() {
    ConcurrencyFixture f;
    f.magnetic = std::make_unique<MemDevice>();
    f.optical = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                            CostParams::OpticalWorm());
    Status s = tsb_tree::TsbTree::Open(f.magnetic.get(), f.optical.get(),
                                       Options(), &f.tree);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      abort();
    }
    for (int i = 0; i < kKeys; ++i) {
      const Timestamp ts = f.tree->clock().Tick();
      s = f.tree->Put(KeyOf(i), "v0-initial-payload-for-key-" + KeyOf(i), ts);
      if (!s.ok()) {
        fprintf(stderr, "seed put failed: %s\n", s.ToString().c_str());
        abort();
      }
    }
    return f;
  }
};

struct RunResult {
  double reader_ops_per_sec = 0;
  double writer_ops_per_sec = 0;
};

// Runs 1 writer + `n_readers` reader threads for kMeasureMs and returns
// the aggregate throughputs.
RunResult RunMix(tsb_tree::TsbTree* tree, int n_readers) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_ops{0};
  std::atomic<uint64_t> writer_ops{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string key = KeyOf(static_cast<int>(seq % kKeys));
      const Timestamp ts = tree->clock().Tick();
      Status s = tree->Put(key, "v" + std::to_string(ts) + "-updated", ts);
      if (!s.ok()) {
        failed.store(true);
        break;
      }
      writer_ops.fetch_add(1, std::memory_order_relaxed);
      seq++;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // A read-only transaction: capture the committed watermark, read
        // as of it.
        const Timestamp t = tree->VisibleNow();
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int ki = static_cast<int>((rng >> 33) % kKeys);
        std::string value;
        Status s =
            tree->Get(tsb_tree::ReadOptions{.as_of = t}, KeyOf(ki), &value);
        if (!s.ok()) {
          failed.store(true);
          break;
        }
        local++;
      }
      reader_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  if (failed.load()) {
    fprintf(stderr, "concurrent run failed\n");
    abort();
  }

  RunResult res;
  res.reader_ops_per_sec =
      static_cast<double>(reader_ops.load()) * 1000.0 / kMeasureMs;
  res.writer_ops_per_sec =
      static_cast<double>(writer_ops.load()) * 1000.0 / kMeasureMs;
  return res;
}

void PrintTable() {
  printf("# E9 concurrency: 1 writer + N lock-free timestamped readers\n");
  printf("# keys=%d page=4096 frames=512 measure=%dms cores=%u\n", kKeys,
         kMeasureMs, std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 4) {
    printf(
        "# NOTE: <4 cores — reader threads time-share; the scaling column\n"
        "# is capped by the scheduler, not by the latching protocol\n"
        "# (single-core ceiling for 1 writer + N readers is ~(N/(N+1))/0.5).\n");
  }
  printf("%-10s %16s %16s %10s\n", "readers", "reads/s", "writes/s",
         "scaling");
  ConcurrencyFixture f = ConcurrencyFixture::Build();
  double base = 0;
  for (int n : {1, 2, 4, 8}) {
    const RunResult r = RunMix(f.tree.get(), n);
    if (n == 1) base = r.reader_ops_per_sec;
    printf("%-10d %16.0f %16.0f %9.2fx\n", n, r.reader_ops_per_sec,
           r.writer_ops_per_sec,
           base > 0 ? r.reader_ops_per_sec / base : 0.0);
  }
  printf("\n");
}

// ---- writer scaling (optimistic latch coupling) ------------------------

struct WriterFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<MemDevice> optical;
  std::unique_ptr<tsb_tree::TsbTree> tree;
  std::unique_ptr<txn::TxnManager> txns;

  static WriterFixture Build() {
    WriterFixture f;
    f.magnetic = std::make_unique<MemDevice>();
    f.optical = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                            CostParams::OpticalWorm());
    Status s = tsb_tree::TsbTree::Open(f.magnetic.get(), f.optical.get(),
                                       Options(), &f.tree);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      abort();
    }
    f.txns = std::make_unique<txn::TxnManager>(f.tree.get());
    for (int i = 0; i < kKeys; ++i) {
      const Timestamp ts = f.tree->clock().Tick();
      s = f.tree->Put(KeyOf(i), "v0-initial-payload-for-key-" + KeyOf(i), ts);
      if (!s.ok()) {
        fprintf(stderr, "seed put failed: %s\n", s.ToString().c_str());
        abort();
      }
    }
    f.tree->clock().Publish(f.tree->clock().Now());
    return f;
  }
};

struct WriterRun {
  double commits_per_sec = 0;
  uint64_t conflicts = 0;
  uint64_t olc_restarts = 0;
  uint64_t olc_sidesteps = 0;
};

// Runs `n_writers` threads committing single-key transactions for
// kMeasureMs. Disjoint = each writer owns kKeys/n_writers keys (the
// scaling case); contended = every writer draws from the whole key space
// (first-writer-wins conflicts are counted, not fatal).
WriterRun RunWriters(WriterFixture* f, int n_writers, bool disjoint) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};
  std::atomic<bool> failed{false};
  const uint64_t restarts0 = f->tree->counters().olc_restarts.load();
  const uint64_t sidesteps0 = f->tree->counters().olc_sidesteps.load();

  std::vector<std::thread> writers;
  for (int w = 0; w < n_writers; ++w) {
    writers.emplace_back([&, w] {
      const int shard = kKeys / n_writers;
      const int lo = w * shard;
      uint64_t rng = 0x9E3779B97F4A7C15ull * (w + 1);
      uint64_t seq = 0;
      uint64_t local_commits = 0;
      uint64_t local_conflicts = 0;
      while (!stop.load(std::memory_order_acquire)) {
        int ki;
        if (disjoint) {
          ki = lo + static_cast<int>(seq % shard);
        } else {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          ki = static_cast<int>((rng >> 33) % kKeys);
        }
        txn::WriteBatch batch;
        batch.Put(KeyOf(ki),
                  "w" + std::to_string(w) + "-v" + std::to_string(seq));
        Status s = f->txns->Write(batch);
        seq++;
        if (s.IsTxnConflict()) {
          local_conflicts++;
          continue;
        }
        if (!s.ok()) {
          fprintf(stderr, "writer commit failed: %s\n", s.ToString().c_str());
          failed.store(true);
          break;
        }
        local_commits++;
      }
      commits.fetch_add(local_commits, std::memory_order_relaxed);
      conflicts.fetch_add(local_conflicts, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  if (failed.load()) {
    fprintf(stderr, "writer run failed\n");
    abort();
  }

  WriterRun res;
  res.commits_per_sec =
      static_cast<double>(commits.load()) * 1000.0 / kMeasureMs;
  res.conflicts = conflicts.load();
  res.olc_restarts = f->tree->counters().olc_restarts.load() - restarts0;
  res.olc_sidesteps = f->tree->counters().olc_sidesteps.load() - sidesteps0;
  return res;
}

void PrintWriterTableAndJson() {
  printf("# E10 writer scaling: N single-key committing writers\n");
  printf("# keys=%d page=4096 frames=512 measure=%dms cores=%u\n", kKeys,
         kMeasureMs, std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 4) {
    printf(
        "# NOTE: <4 cores — writer threads time-share; scaling is capped\n"
        "# by the scheduler, not by the latching protocol.\n");
  }
  printf("%-10s %-8s %14s %10s %10s %10s\n", "pattern", "writers",
         "commits/s", "conflicts", "restarts", "sidesteps");

  struct Row {
    bool disjoint;
    int n;
    WriterRun r;
  };
  std::vector<Row> rows;
  for (const bool disjoint : {true, false}) {
    for (const int n : {1, 2, 4, 8}) {
      // Fresh tree per run: every configuration pays the same seed state
      // instead of inheriting the previous run's versions/splits.
      WriterFixture f = WriterFixture::Build();
      Row row{disjoint, n, RunWriters(&f, n, disjoint)};
      printf("%-10s %-8d %14.0f %10llu %10llu %10llu\n",
             disjoint ? "disjoint" : "contended", n, row.r.commits_per_sec,
             (unsigned long long)row.r.conflicts,
             (unsigned long long)row.r.olc_restarts,
             (unsigned long long)row.r.olc_sidesteps);
      rows.push_back(std::move(row));
    }
  }
  printf("\n");

  auto find = [&](bool disjoint, int n) -> const WriterRun& {
    for (const Row& row : rows) {
      if (row.disjoint == disjoint && row.n == n) return row.r;
    }
    abort();
  };
  const double w1 = find(true, 1).commits_per_sec;
  const double w4 = find(true, 4).commits_per_sec;
  const double speedup_4w = w1 > 0 ? w4 / w1 : 0.0;
  printf("4-writer vs 1-writer (disjoint): %.2fx\n\n", speedup_4w);

  const char* path = std::getenv("BENCH_CONCURRENCY_JSON");
  if (path == nullptr) path = "BENCH_concurrency.json";
  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(out,
          "{\n"
          "  \"hardware_concurrency\": %u,\n"
          "  \"keys\": %d,\n"
          "  \"measure_ms\": %d,\n"
          "  \"runs\": [\n",
          std::thread::hardware_concurrency(), kKeys, kMeasureMs);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    fprintf(out,
            "    {\"pattern\": \"%s\", \"writers\": %d, "
            "\"commits_per_sec\": %.1f, \"conflicts\": %llu, "
            "\"olc_restarts\": %llu, \"olc_sidesteps\": %llu}%s\n",
            row.disjoint ? "disjoint" : "contended", row.n,
            row.r.commits_per_sec, (unsigned long long)row.r.conflicts,
            (unsigned long long)row.r.olc_restarts,
            (unsigned long long)row.r.olc_sidesteps,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(out,
          "  ],\n"
          "  \"speedup_4w_disjoint_vs_1w\": %.3f\n"
          "}\n",
          speedup_4w);
  fclose(out);
  printf("wrote %s\n\n", path);
}

void BM_ConcurrentWriters(benchmark::State& state) {
  const int n_writers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WriterFixture f = WriterFixture::Build();
    const WriterRun r = RunWriters(&f, n_writers, /*disjoint=*/true);
    state.counters["commits_per_sec"] = r.commits_per_sec;
    state.counters["olc_restarts"] = static_cast<double>(r.olc_restarts);
  }
}
BENCHMARK(BM_ConcurrentWriters)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ConcurrentReaders(benchmark::State& state) {
  static ConcurrencyFixture* f = [] {
    auto* fix = new ConcurrencyFixture(ConcurrencyFixture::Build());
    return fix;
  }();
  const int n_readers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const RunResult r = RunMix(f->tree.get(), n_readers);
    state.counters["reads_per_sec"] = r.reader_ops_per_sec;
    state.counters["writes_per_sec"] = r.writer_ops_per_sec;
  }
}
BENCHMARK(BM_ConcurrentReaders)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintTable();
  tsb::bench::PrintWriterTableAndJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
