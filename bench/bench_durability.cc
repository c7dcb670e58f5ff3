// Durability experiment: what the write-ahead log costs and what group
// commit buys back, plus recovery speed after a kill.
//
// Phase 1 (sync modes): single-writer commit throughput with the WAL off,
// unsynced (kOff), background-synced, and per-commit-group fsync'd — the
// full price ladder from "memory speed" to "survives power loss".
//
// Phase 2 (group commit): N concurrent committers in kGroup mode on
// disjoint key ranges. Every commit must be fsync'd before it returns,
// but committers rendezvous on one shared fdatasync; throughput should
// grow well past 1-writer fsync throughput (CI gates 8w >= 3x 1w, with
// an escape hatch when fdatasync itself is near-free, e.g. tmpfs).
//
// Phase 3 (recovery): a forked child writes a known volume of WAL and
// SIGKILLs itself; the parent times MultiVersionDB::Open and reports
// recovery throughput in MB of log replayed per second.
//
// Emits BENCH_durability.json (BENCH_DURABILITY_JSON overrides the path).
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/fault_device.h"
#include "wal/wal.h"

namespace tsb {
namespace bench {
namespace {

constexpr int kMeasureMs = 300;
constexpr int kValueBytes = 100;

std::string KeyOf(int writer, int n) {
  char buf[24];
  snprintf(buf, sizeof(buf), "w%02d-%07d", writer, n);
  return buf;
}

std::string Root() {
  return "/tmp/tsb_bench_durability." + std::to_string(::getpid());
}

db::DbOptions Options(bool enable_wal, wal::WalSyncMode mode) {
  db::DbOptions opts;
  opts.tree.page_size = 4096;
  opts.tree.buffer_pool_frames = 1 << 14;
  opts.enable_wal = enable_wal;
  opts.wal_sync = mode;
  // Large threshold: checkpoints (and their freeze) stay out of the
  // measured window; the bench measures the append+sync path itself.
  opts.wal_checkpoint_bytes = 1ull << 40;
  return opts;
}

struct Run {
  double commits_per_sec = 0;
  double piggyback_ratio = 0;  // sync_requests / syncs (kGroup only)
};

/// N writers commit one-key batches on disjoint ranges for kMeasureMs.
Run RunWriters(const db::DbOptions& opts, int n_writers) {
  const std::string path = Root() + ".run";
  db::MultiVersionDB::Destroy(path);
  std::unique_ptr<db::MultiVersionDB> db;
  Status s = db::MultiVersionDB::Open(path, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    abort();
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  const std::string value(kValueBytes, 'v');
  for (int w = 0; w < n_writers; ++w) {
    writers.emplace_back([&, w] {
      for (int n = 0; !stop.load(std::memory_order_acquire); ++n) {
        db::WriteBatch batch;
        batch.Put(KeyOf(w, n), value);
        if (!db->Write(batch).ok()) {
          failed.store(true);
          break;
        }
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  if (failed.load()) {
    fprintf(stderr, "writer failed\n");
    abort();
  }
  Run r;
  r.commits_per_sec = commits.load() * 1000.0 / kMeasureMs;
  if (db->wal() != nullptr) {
    const wal::WalStats ws = db->wal()->stats();
    r.piggyback_ratio =
        ws.syncs > 0 ? static_cast<double>(ws.sync_requests) / ws.syncs : 0;
  }
  db.reset();
  db::MultiVersionDB::Destroy(path);
  return r;
}

/// One raw fdatasync on a freshly-appended file, in microseconds — the
/// floor group commit amortizes. Near zero (tmpfs, fast NVMe with write
/// cache) there is nothing to amortize and the scaling gate is vacuous.
double ProbeFdatasyncUs() {
  const std::string file = Root() + ".syncprobe";
  const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  double best = 1e12;
  for (int i = 0; i < 5; ++i) {
    char buf[512];
    memset(buf, i, sizeof(buf));
    (void)!::write(fd, buf, sizeof(buf));
    const auto t0 = std::chrono::steady_clock::now();
    ::fdatasync(fd);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (us < best) best = us;
  }
  ::close(fd);
  ::unlink(file.c_str());
  return best;
}

struct RecoveryRun {
  double open_ms = 0;
  double wal_mb = 0;
  double mb_per_sec = 0;
  double ms_per_mb = 0;
  uint64_t frames = 0;
};

/// Child writes `commits` one-key commits (kOff: volume, not fsyncs, is
/// what recovery replays) then SIGKILLs itself; parent times the reopen.
RecoveryRun MeasureRecovery(int commits) {
  const std::string path = Root() + ".recovery";
  db::MultiVersionDB::Destroy(path);
  const db::DbOptions opts = Options(true, wal::WalSyncMode::kOff);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<db::MultiVersionDB> db;
    if (!db::MultiVersionDB::Open(path, opts, &db).ok()) ::_exit(2);
    const std::string value(kValueBytes, 'v');
    for (int n = 0; n < commits; ++n) {
      if (!db->Put(KeyOf(n % 8, n), value).ok()) ::_exit(3);
    }
    ::kill(::getpid(), SIGKILL);
    ::_exit(4);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  RecoveryRun r;
  if (!WIFSIGNALED(wstatus)) {
    fprintf(stderr, "recovery child exited early (%d)\n", wstatus);
    abort();
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<db::MultiVersionDB> db;
  Status s = db::MultiVersionDB::Open(path, opts, &db);
  r.open_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  if (!s.ok()) {
    fprintf(stderr, "recovery open failed: %s\n", s.ToString().c_str());
    abort();
  }
  r.frames = db->recovery_stats().frames_replayed;
  r.wal_mb = db->recovery_stats().wal_bytes_scanned / (1024.0 * 1024.0);
  r.mb_per_sec = r.open_ms > 0 ? r.wal_mb / (r.open_ms / 1000.0) : 0;
  r.ms_per_mb = r.wal_mb > 0 ? r.open_ms / r.wal_mb : 0;
  db.reset();
  db::MultiVersionDB::Destroy(path);
  return r;
}

struct FaultRun {
  db::ErrorHandlerStats stats;
  double resume_ms = 0;  // wall time of the degraded-mode Resume()
  bool acked_survived = false;
  bool doomed_absent = false;
};

/// Degrade-and-resume exercise: commit a baseline, trip a one-shot WAL
/// fdatasync failure, verify the doomed commit is rejected, then time
/// Resume() and re-check the contract. The JSON "fault" section is what
/// CI diffs: degradations/resumes must both be 1 and the contract bools
/// true on every run.
FaultRun MeasureFault() {
  const std::string path = Root() + ".fault";
  db::MultiVersionDB::Destroy(path);
  db::DbOptions opts = Options(true, wal::WalSyncMode::kGroup);
  auto plan = std::make_shared<FaultPlan>();
  opts.wal_fault_plan = plan;
  std::unique_ptr<db::MultiVersionDB> db;
  Status s = db::MultiVersionDB::Open(path, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "fault open failed: %s\n", s.ToString().c_str());
    abort();
  }
  const std::string value(kValueBytes, 'v');
  for (int n = 0; n < 64; ++n) {
    if (!db->Put(KeyOf(0, n), value).ok()) abort();
  }
  plan->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  const bool doomed_rejected = !db->Put("doomed", value).ok();
  plan->Clear();
  FaultRun r;
  const auto t0 = std::chrono::steady_clock::now();
  const bool resumed = db->Resume().ok();
  r.resume_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  r.stats = db->error_stats();
  std::string got;
  r.acked_survived =
      resumed && db->Get(db::ReadOptions(), KeyOf(0, 63), &got).ok();
  r.doomed_absent =
      doomed_rejected &&
      db->Get(db::ReadOptions(), "doomed", &got).IsNotFound();
  db.reset();
  db::MultiVersionDB::Destroy(path);
  return r;
}

struct ScrubRun {
  uint64_t injected_cycles = 0;   // cycles where a silent fault fired
  uint64_t detected_cycles = 0;   // cycles where scrub caught it
  uint64_t injected = 0;          // silent write faults fired
  uint64_t detected = 0;          // scrub corruption detections
  uint64_t false_positives = 0;   // detections on clean control passes
  uint64_t pages_repaired = 0;
  uint64_t bytes_scanned = 0;
  double scrub_ms = 0;
  double mb_per_sec = 0;
};

/// Silent-corruption exercise: cycle through the silent fault kinds (bit
/// flip, lost write, misdirected write), push each through a checkpoint
/// the device acks cleanly, and let Scrub() find it. The JSON "scrub"
/// section is what CI gates: every injected cycle detected, zero
/// detections on the clean control passes, every quarantined page
/// repaired by Resume().
ScrubRun MeasureScrub() {
  const std::string path = Root() + ".scrub";
  db::MultiVersionDB::Destroy(path);
  auto plan = std::make_shared<FaultPlan>();
  db::DbOptions opts = Options(true, wal::WalSyncMode::kGroup);
  opts.wrap_device = [&plan](const std::string& role,
                             std::unique_ptr<Device> dev)
      -> std::unique_ptr<Device> {
    if (role != "magnetic") return dev;
    return std::make_unique<FaultInjectingDevice>(std::move(dev), plan);
  };
  std::unique_ptr<db::MultiVersionDB> db;
  Status s = db::MultiVersionDB::Open(path, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "scrub open failed: %s\n", s.ToString().c_str());
    abort();
  }
  const std::string value(kValueBytes, 'v');
  for (int n = 0; n < 256; ++n) {
    if (!db->Put(KeyOf(0, n), value).ok()) abort();
  }
  if (!db->Checkpoint().ok()) abort();

  ScrubRun r;
  auto scrub = [&](db::ScrubStats* stats) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!db->Scrub(stats).ok()) abort();
    r.scrub_ms += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    r.bytes_scanned += stats->bytes_scanned;
  };
  db::ScrubStats control;
  scrub(&control);  // clean control pass: must stay silent
  r.false_positives += control.corruptions_detected;

  const FaultKind kinds[] = {FaultKind::kBitFlip, FaultKind::kLostWrite,
                             FaultKind::kMisdirectedWrite,
                             FaultKind::kBitFlip, FaultKind::kLostWrite,
                             FaultKind::kMisdirectedWrite};
  uint64_t fired_before = plan->fired(FaultOp::kWrite);
  for (const FaultKind kind : kinds) {
    for (int n = 0; n < 256; n += 3) {
      if (!db->Put(KeyOf(0, n), value).ok()) abort();
    }
    plan->FailNth(FaultOp::kWrite, 2, kind, /*sticky=*/false);
    if (!db->Checkpoint().ok()) abort();  // silent: the device acks it
    const uint64_t fired = plan->fired(FaultOp::kWrite) - fired_before;
    fired_before = plan->fired(FaultOp::kWrite);
    plan->Clear();
    db::ScrubStats pass;
    scrub(&pass);
    r.injected += fired;
    r.detected += pass.corruptions_detected;
    if (fired > 0) {
      r.injected_cycles++;
      if (pass.corruptions_detected > 0) r.detected_cycles++;
    } else if (pass.corruptions_detected > 0) {
      r.false_positives += pass.corruptions_detected;
    }
    if (!db->Resume().ok()) abort();  // repair before the next cycle
  }
  db::ScrubStats final_control;
  scrub(&final_control);  // everything repaired: silent again
  r.false_positives += final_control.corruptions_detected;
  r.pages_repaired = db->error_stats().pages_repaired;
  r.mb_per_sec = r.scrub_ms > 0
                     ? (r.bytes_scanned / (1024.0 * 1024.0)) /
                           (r.scrub_ms / 1000.0)
                     : 0;
  db.reset();
  db::MultiVersionDB::Destroy(path);
  return r;
}

void PrintTablesAndJson() {
  printf("=== Durability: sync-mode ladder (1 writer, %d ms) ===\n",
         kMeasureMs);
  printf("%-14s %16s\n", "mode", "commits/sec");
  const Run no_wal = RunWriters(Options(false, wal::WalSyncMode::kOff), 1);
  printf("%-14s %16.0f\n", "wal-disabled", no_wal.commits_per_sec);
  const Run off = RunWriters(Options(true, wal::WalSyncMode::kOff), 1);
  printf("%-14s %16.0f\n", "off", off.commits_per_sec);
  const Run background =
      RunWriters(Options(true, wal::WalSyncMode::kBackground), 1);
  printf("%-14s %16.0f\n", "background", background.commits_per_sec);
  const Run group1 = RunWriters(Options(true, wal::WalSyncMode::kGroup), 1);
  printf("%-14s %16.0f\n\n", "group", group1.commits_per_sec);

  printf("=== Group commit: N fsync'd committers (kGroup) ===\n");
  printf("%-8s %16s %18s\n", "writers", "commits/sec", "piggyback ratio");
  struct GroupRow {
    int n;
    Run r;
  };
  std::vector<GroupRow> group_rows;
  for (const int n : {1, 2, 4, 8}) {
    GroupRow row{n, RunWriters(Options(true, wal::WalSyncMode::kGroup), n)};
    printf("%-8d %16.0f %18.2f\n", n, row.r.commits_per_sec,
           row.r.piggyback_ratio);
    group_rows.push_back(row);
  }
  const double group8 = group_rows.back().r.commits_per_sec;
  const double amortization =
      group1.commits_per_sec > 0 ? group8 / group1.commits_per_sec : 0;
  const double fdatasync_us = ProbeFdatasyncUs();
  printf("8-writer / 1-writer fsync'd throughput: %.2fx "
         "(raw fdatasync %.1f us)\n\n",
         amortization, fdatasync_us);

  printf("=== Recovery: replay a killed process's log ===\n");
  printf("%-10s %10s %10s %12s %10s\n", "commits", "wal MB", "open ms",
         "MB/sec", "ms/MB");
  std::vector<RecoveryRun> recovery_rows;
  for (const int commits : {2000, 10000, 40000}) {
    const RecoveryRun r = MeasureRecovery(commits);
    printf("%-10d %10.2f %10.1f %12.1f %10.2f\n", commits, r.wal_mb,
           r.open_ms, r.mb_per_sec, r.ms_per_mb);
    recovery_rows.push_back(r);
  }
  const RecoveryRun& big = recovery_rows.back();
  printf("\n");

  printf("=== Degraded mode: trip, reject, Resume() ===\n");
  const FaultRun fault = MeasureFault();
  printf("degradations=%llu resumes=%llu resume_ms=%.2f "
         "acked_survived=%d doomed_absent=%d\n\n",
         (unsigned long long)fault.stats.degradations,
         (unsigned long long)fault.stats.resumes, fault.resume_ms,
         fault.acked_survived ? 1 : 0, fault.doomed_absent ? 1 : 0);

  printf("=== Scrub: silent-fault detection (bit flip / lost write / "
         "misdirected write) ===\n");
  const ScrubRun scrub = MeasureScrub();
  printf("injected_cycles=%llu detected_cycles=%llu false_positives=%llu "
         "pages_repaired=%llu scan %.1f MB/s\n\n",
         (unsigned long long)scrub.injected_cycles,
         (unsigned long long)scrub.detected_cycles,
         (unsigned long long)scrub.false_positives,
         (unsigned long long)scrub.pages_repaired, scrub.mb_per_sec);

  const char* path = std::getenv("BENCH_DURABILITY_JSON");
  if (path == nullptr) path = "BENCH_durability.json";
  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(out,
          "{\n"
          "  \"hardware_concurrency\": %u,\n"
          "  \"measure_ms\": %d,\n"
          "  \"value_bytes\": %d,\n"
          "  \"fdatasync_us\": %.2f,\n"
          "  \"sync_modes\": {\n"
          "    \"wal_disabled\": %.1f,\n"
          "    \"off\": %.1f,\n"
          "    \"background\": %.1f,\n"
          "    \"group\": %.1f\n"
          "  },\n",
          std::thread::hardware_concurrency(), kMeasureMs, kValueBytes,
          fdatasync_us, no_wal.commits_per_sec, off.commits_per_sec,
          background.commits_per_sec, group1.commits_per_sec);
  fprintf(out, "  \"group_commit\": [\n");
  for (size_t i = 0; i < group_rows.size(); ++i) {
    fprintf(out,
            "    {\"writers\": %d, \"commits_per_sec\": %.1f, "
            "\"piggyback_ratio\": %.3f}%s\n",
            group_rows[i].n, group_rows[i].r.commits_per_sec,
            group_rows[i].r.piggyback_ratio,
            i + 1 < group_rows.size() ? "," : "");
  }
  fprintf(out,
          "  ],\n"
          "  \"group_8w_over_1w\": %.3f,\n"
          "  \"recovery\": {\"wal_mb\": %.3f, \"open_ms\": %.2f, "
          "\"mb_per_sec\": %.2f, \"ms_per_mb\": %.3f, \"frames\": %llu},\n",
          amortization, big.wal_mb, big.open_ms, big.mb_per_sec,
          big.ms_per_mb, (unsigned long long)big.frames);
  fprintf(out,
          "  \"fault\": {\"errors_reported\": %llu, \"degradations\": %llu, "
          "\"resumes\": %llu, \"auto_resumes\": %llu, "
          "\"failed_resumes\": %llu, \"last_class\": \"%s\", "
          "\"last_error\": \"%s\", \"resume_ms\": %.2f, "
          "\"acked_survived\": %s, \"doomed_absent\": %s},\n",
          (unsigned long long)fault.stats.errors_reported,
          (unsigned long long)fault.stats.degradations,
          (unsigned long long)fault.stats.resumes,
          (unsigned long long)fault.stats.auto_resumes,
          (unsigned long long)fault.stats.failed_resumes,
          db::ErrorClassName(fault.stats.last_class),
          fault.stats.last_error.c_str(),
          fault.resume_ms, fault.acked_survived ? "true" : "false",
          fault.doomed_absent ? "true" : "false");
  fprintf(out,
          "  \"scrub\": {\"injected_cycles\": %llu, "
          "\"detected_cycles\": %llu, \"injected\": %llu, "
          "\"detected\": %llu, \"false_positives\": %llu, "
          "\"pages_repaired\": %llu, \"bytes_scanned\": %llu, "
          "\"mb_per_sec\": %.2f}\n"
          "}\n",
          (unsigned long long)scrub.injected_cycles,
          (unsigned long long)scrub.detected_cycles,
          (unsigned long long)scrub.injected,
          (unsigned long long)scrub.detected,
          (unsigned long long)scrub.false_positives,
          (unsigned long long)scrub.pages_repaired,
          (unsigned long long)scrub.bytes_scanned, scrub.mb_per_sec);
  fclose(out);
  printf("wrote %s\n\n", path);
}

void BM_GroupCommit(benchmark::State& state) {
  const int n_writers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Run r = RunWriters(Options(true, wal::WalSyncMode::kGroup),
                             n_writers);
    state.counters["commits_per_sec"] = r.commits_per_sec;
    state.counters["piggyback_ratio"] = r.piggyback_ratio;
  }
}
BENCHMARK(BM_GroupCommit)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_Recovery(benchmark::State& state) {
  const int commits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const RecoveryRun r = MeasureRecovery(commits);
    state.counters["mb_per_sec"] = r.mb_per_sec;
    state.counters["open_ms"] = r.open_ms;
  }
}
BENCHMARK(BM_Recovery)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintTablesAndJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
