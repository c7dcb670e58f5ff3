// Sharded write scaling: a fixed pool of writer threads committing
// WriteBatches against a ShardedDB as the shard count grows 1 -> 8.
//
// Two key patterns:
//   disjoint — each writer's keys are pre-filtered to one home shard, so
//              every batch takes the single-shard fast path and the
//              shards' commit pipelines (latch, stamp, WAL) run fully in
//              parallel. This is the scaling headline.
//   uniform  — each batch draws random keys from the whole keyspace, so
//              almost every batch spans shards and pays the coordinator
//              protocol (prepare on every touched shard, one decision-log
//              append, ts-barrier release). This measures the cost of
//              cross-shard atomicity, and CI gates only that it makes
//              progress.
//
// WAL sync is off for both patterns: the question here is whether the
// commit path scales with shards on CPU, not how fast fdatasync is
// (bench_durability owns that axis). Emits BENCH_sharded.json
// (BENCH_SHARDED_JSON overrides the path) with the ratio CI gates on:
// 4-shard disjoint throughput vs 1-shard, same 4 writers.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_db.h"

namespace tsb {
namespace bench {
namespace {

using db::WriteBatch;
using shard::ShardedDB;
using shard::ShardedOptions;

constexpr int kWriters = 4;
constexpr int kBatch = 4;
constexpr int kMeasureMs = 400;
constexpr int kKeysPerWriter = 512;

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

struct ShardedFixture {
  std::string path;
  std::unique_ptr<ShardedDB> db;
  // [writer][n] — for disjoint, writer w's keys all live on shard
  // (w % num_shards); for uniform they are a plain slice of the keyspace.
  std::vector<std::vector<std::string>> keys;

  static ShardedFixture Build(uint32_t shards, bool disjoint) {
    static std::atomic<int> counter{0};
    ShardedFixture f;
    f.path = "/tmp/tsb_bench_sharded." + std::to_string(::getpid()) + "." +
             std::to_string(counter.fetch_add(1));
    ShardedDB::Destroy(f.path);
    ShardedOptions o;
    o.num_shards = shards;
    o.base.tree.page_size = 4096;
    o.base.tree.buffer_pool_frames = 4096;
    o.base.wal_sync = wal::WalSyncMode::kOff;
    Status s = ShardedDB::Open(f.path, o, &f.db);
    if (!s.ok()) {
      fprintf(stderr, "sharded open failed: %s\n", s.ToString().c_str());
      abort();
    }
    f.keys.resize(kWriters);
    if (disjoint) {
      // Walk the keyspace and deal each key to the writer owning its home
      // shard, until every writer has its quota of single-shard keys.
      int filled = 0;
      for (int i = 0; filled < kWriters; ++i) {
        const std::string key = KeyOf(i);
        const uint32_t home = f.db->ShardOf(key);
        for (int w = 0; w < kWriters; ++w) {
          if (home == static_cast<uint32_t>(w) % shards &&
              f.keys[w].size() < kKeysPerWriter) {
            f.keys[w].push_back(key);
            if (f.keys[w].size() == kKeysPerWriter) ++filled;
            break;
          }
        }
      }
    } else {
      for (int w = 0; w < kWriters; ++w) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          f.keys[w].push_back(KeyOf(w * kKeysPerWriter + k));
        }
      }
    }
    return f;
  }

  ShardedFixture() = default;
  ShardedFixture(ShardedFixture&& o) noexcept
      : path(std::move(o.path)), db(std::move(o.db)),
        keys(std::move(o.keys)) {
    o.path.clear();
  }

  ~ShardedFixture() {
    db.reset();
    if (!path.empty()) ShardedDB::Destroy(path);
  }
};

struct ShardedRun {
  double commits_per_sec = 0;
  uint64_t multi_shard_commits = 0;
};

ShardedRun RunShardedWriters(ShardedFixture* f, bool disjoint) {
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> multi{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([f, w, disjoint, &stop, &failed, &commits, &multi] {
      const std::vector<std::string>& pool = f->keys[w];
      uint64_t rng = 0x9e3779b97f4a7c15ull * (w + 1);
      uint64_t local_commits = 0;
      uint64_t local_multi = 0;
      uint64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        WriteBatch batch;
        uint32_t first_shard = 0;
        bool spans = false;
        for (int i = 0; i < kBatch; ++i) {
          size_t ki;
          if (disjoint) {
            ki = (seq * kBatch + i) % pool.size();
          } else {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            ki = static_cast<size_t>(rng >> 33) % pool.size();
          }
          const std::string& key = pool[ki];
          const uint32_t home = f->db->ShardOf(key);
          if (i == 0) {
            first_shard = home;
          } else if (home != first_shard) {
            spans = true;
          }
          batch.Put(key, "w" + std::to_string(w) + "-v" +
                             std::to_string(seq));
        }
        Status s = f->db->Write(batch);
        seq++;
        if (!s.ok()) {
          fprintf(stderr, "sharded commit failed: %s\n",
                  s.ToString().c_str());
          failed.store(true);
          break;
        }
        local_commits++;
        if (spans) local_multi++;
      }
      commits.fetch_add(local_commits, std::memory_order_relaxed);
      multi.fetch_add(local_multi, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  if (failed.load()) {
    fprintf(stderr, "sharded writer run failed\n");
    abort();
  }

  ShardedRun res;
  res.commits_per_sec =
      static_cast<double>(commits.load()) * 1000.0 / kMeasureMs;
  res.multi_shard_commits = multi.load();
  return res;
}

void PrintShardTableAndJson() {
  printf("# Sharded write scaling: %d writers, batch=%d, wal_sync=off\n",
         kWriters, kBatch);
  printf("# page=4096 frames=4096 measure=%dms cores=%u\n", kMeasureMs,
         std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 4) {
    printf(
        "# NOTE: <4 cores — shard pipelines time-share; scaling is capped\n"
        "# by the scheduler, not by the partitioning.\n");
  }
  printf("%-10s %-8s %14s %18s\n", "pattern", "shards", "commits/s",
         "multi-shard");

  struct Row {
    bool disjoint;
    uint32_t shards;
    ShardedRun r;
  };
  std::vector<Row> rows;
  for (const bool disjoint : {true, false}) {
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      // Fresh DB per run so every configuration starts from the same
      // empty state instead of inheriting versions from the last sweep.
      ShardedFixture f = ShardedFixture::Build(shards, disjoint);
      Row row{disjoint, shards, RunShardedWriters(&f, disjoint)};
      printf("%-10s %-8u %14.0f %18llu\n",
             disjoint ? "disjoint" : "uniform", shards,
             row.r.commits_per_sec,
             (unsigned long long)row.r.multi_shard_commits);
      rows.push_back(row);
    }
  }
  printf("\n");

  auto find = [&](bool disjoint, uint32_t shards) -> const ShardedRun& {
    for (const Row& row : rows) {
      if (row.disjoint == disjoint && row.shards == shards) return row.r;
    }
    abort();
  };
  const double one = find(true, 1).commits_per_sec;
  const double four = find(true, 4).commits_per_sec;
  const double speedup_4s = one > 0 ? four / one : 0.0;
  const double uniform_4s = find(false, 4).commits_per_sec;
  const double coord_cost =
      four > 0 ? uniform_4s / four : 0.0;
  printf("4-shard vs 1-shard (disjoint, %d writers): %.2fx\n", kWriters,
         speedup_4s);
  printf("uniform vs disjoint at 4 shards (coordinator cost): %.2fx\n\n",
         coord_cost);

  const char* path = std::getenv("BENCH_SHARDED_JSON");
  if (path == nullptr) path = "BENCH_sharded.json";
  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(out,
          "{\n"
          "  \"hardware_concurrency\": %u,\n"
          "  \"writers\": %d,\n"
          "  \"batch\": %d,\n"
          "  \"measure_ms\": %d,\n"
          "  \"runs\": [\n",
          std::thread::hardware_concurrency(), kWriters, kBatch, kMeasureMs);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    fprintf(out,
            "    {\"pattern\": \"%s\", \"shards\": %u, "
            "\"commits_per_sec\": %.1f, \"multi_shard_commits\": %llu}%s\n",
            row.disjoint ? "disjoint" : "uniform", row.shards,
            row.r.commits_per_sec,
            (unsigned long long)row.r.multi_shard_commits,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(out,
          "  ],\n"
          "  \"speedup_4s_disjoint_vs_1s\": %.3f,\n"
          "  \"uniform_over_disjoint_4s\": %.3f\n"
          "}\n",
          speedup_4s, coord_cost);
  fclose(out);
  printf("wrote %s\n", path);
}

// Google-benchmark registrations for ad-hoc timing runs; the CI artifact
// comes from the deterministic table above.
void BM_ShardedWriters(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  const bool disjoint = state.range(1) != 0;
  for (auto _ : state) {
    ShardedFixture f = ShardedFixture::Build(shards, disjoint);
    ShardedRun r = RunShardedWriters(&f, disjoint);
    state.counters["commits_per_sec"] = r.commits_per_sec;
  }
}
BENCHMARK(BM_ShardedWriters)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintShardTableAndJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
