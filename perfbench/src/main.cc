// tsb_perfbench: runs one named workload against the TSB engine from a
// seed, checks every result, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See perfbench/NOTES.md for the workloads, the metrics and
// what each should move.
//
// Usage: tsb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --work-dir DIR [--spans-out FILE]
//                      [--git-sha SHA] [--src-digest HEX]
#include <fcntl.h>
#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "engine.h"
#include "fixture.h"
#include "stats.h"
#include "trace.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tsb::Slice;
using tsb::Status;
using tsb::Timestamp;

// ---------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  uint32_t shards;       ///< 0 = one MultiVersionDB
  uint32_t keys;
  uint32_t rounds;       ///< versions per key in the fixture
  size_t pool_frames;    ///< buffer_pool_frames (per shard)
  size_t hist_cache;     ///< hist_cache_blobs (per shard)
  int writers;           ///< writers in the measured window (0 = reads only)
  /// Writers of the concurrency probe that follows the window (0 = none).
  int probe_writers;
  bool warm;             ///< read the whole fixture once during set-up
};

// Sizes: see NOTES.md. hot_reads fits its caches; cold_reads has 5x the
// keys over the default 256-frame pool and 8-blob cache. No checkpoint
// fires inside the measured window (engine.cc): a checkpoint's device
// syncs made commit tails swing 2x with the shared disk. Checkpoint cost
// is measured on the post-window checkpoint and on the crash images
// instead. cross_shard's window has one writer: concurrent cross-shard
// writers convoy on the ledger and log locks and made commits/s swing 3x
// between runs; three writers then run a one-second probe that is
// checked, not timed.
constexpr Spec kSpecs[] = {
    {"hot_reads", 0, 20000, 5, 4096, 4096, 0, 0, true},
    {"cold_reads", 0, 50000, 5, 256, 8, 0, 0, false},
    {"durable_mix", 0, 20000, 3, 256, 8, 3, 0, false},
    {"cross_shard", 4, 20000, 2, 256, 8, 1, 3, false},
};
constexpr double kProbeSeconds = 1.0;

// Commits during the measured run append to the log without waiting for
// fdatasync: on a disk whose sync latency swings by 10x between seconds,
// per-commit syncs make no number repeatable (NOTES.md). The crash images
// are reopened with group commit, where the sync path is measured.
constexpr auto kRunWalSync = tsb::wal::WalSyncMode::kOff;
constexpr auto kImageWalSync = tsb::wal::WalSyncMode::kGroup;

// Read mix: 30% current Gets, 60% as-of Gets, 10% short old-snapshot
// scans. p50 of the mixed op then falls inside the as-of mode instead
// of on the boundary between two modes.
constexpr double kCurrentShare = 0.30;
constexpr double kAsOfShare = 0.60;
constexpr uint32_t kScanKeys = 16;
constexpr int kBatchKeys = 4;

constexpr int kSetupReps = 5;
// The loader's caches hold the whole fixture, so loading never thrashes
// the run's (possibly tiny) pool.
constexpr size_t kLoadPoolFrames = 65536;
constexpr int kRecoveryReps = 5;
constexpr int kTailCommitsPerWriter = 100;
constexpr size_t kVerifySample = 2000;
constexpr int kFixtureProbe = 2000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

std::atomic<uint64_t> g_wrong_reported{0};

void ReportWrong(const char* what, uint32_t k, const std::string& detail) {
  if (g_wrong_reported.fetch_add(1) < 10) {
    std::fprintf(stderr, "WRONG RESULT: %s key=%u %s\n", what, k,
                 detail.c_str());
  }
}

uint64_t ElapsedNs(uint64_t t0) { return NowNs() - t0; }

// The last kCommitRing commits of each key as (round << kTsBits | ts),
// in slot round % kCommitRing: enough to check a current read that
// returned an older round than the one acknowledged before it began.
constexpr uint32_t kCommitRing = 8;
constexpr int kTsBits = 40;

uint64_t PackCommit(uint32_t round, Timestamp ts) {
  return (uint64_t{round} << kTsBits) | ts;
}

/// Everything the client threads share.
struct Shared {
  Engine* engine = nullptr;
  const History* hist = nullptr;
  /// Latest acknowledged round per key (write workloads only).
  std::unique_ptr<std::atomic<uint32_t>[]> acked;
  /// keys x kCommitRing recent commits (beside `acked`; may be null).
  std::unique_ptr<std::atomic<uint64_t>[]> ring;
  std::atomic<bool> stop{false};
  uint64_t phase_start_ns = 0;

  /// The one-second window of the phase that `now` falls in.
  uint16_t WindowOf(uint64_t now) const {
    const uint64_t w = (now - phase_start_ns) / 1000000000ull;
    return static_cast<uint16_t>(w < UINT16_MAX ? w : UINT16_MAX);
  }

  void RecordCommit(uint32_t k, uint32_t round, Timestamp ts) {
    ring[size_t{k} * kCommitRing + round % kCommitRing].store(
        PackCommit(round, ts));
  }
  /// The commit timestamp of `round` of key `k`, if still in the ring.
  bool CommitTs(uint32_t k, uint32_t round, Timestamp* ts) const {
    const uint64_t v =
        ring[size_t{k} * kCommitRing + round % kCommitRing].load();
    if ((v >> kTsBits) != round) return false;
    *ts = v & ((uint64_t{1} << kTsBits) - 1);
    return true;
  }
};

/// A writer's disjoint, interleaved key stripe; for sharded engines split
/// by shard so every batch takes one key from each shard.
struct WriterState {
  std::vector<uint32_t> stripe;
  std::vector<std::vector<uint32_t>> by_shard;
  Rng rng{0};
};

void FailStatus(OpStats* st, const char* what, const Status& s) {
  st->failed++;
  if (s.IsTxnConflict()) st->conflicts++;
  if (st->failed <= 3) {
    std::fprintf(stderr, "op failed: %s: %s\n", what, s.ToString().c_str());
  }
}

void Wrong(OpStats* st, const char* what, uint32_t k,
           const std::string& detail) {
  st->failed++;
  st->wrong++;
  ReportWrong(what, k, detail);
}

/// Checks one as-of read of the fixture history.
void CheckAsOf(const Shared& sh, uint32_t k, Timestamp t, const Status& s,
               const tsb::db::PinnableValue& pv, OpStats* st) {
  const int r = sh.hist->RoundAsOf(k, t);
  if (r < 0) {
    if (!s.IsNotFound()) Wrong(st, "as-of get (absent)", k, s.ToString());
    return;
  }
  if (!s.ok()) return FailStatus(st, "as-of get", s);
  if (!ValueIs(pv.data(), k, static_cast<uint32_t>(r)) ||
      pv.timestamp() != sh.hist->At(k, static_cast<uint32_t>(r))) {
    Wrong(st, "as-of get", k, "t=" + std::to_string(t));
    return;
  }
  if (pv.pinned()) st->asof_pinned++;
}

/// One client thread running the read mix until `sh.stop`.
void ReadLoop(Shared* sh, uint64_t seed, OpStats* st) {
  Rng rng(seed);
  const History& h = *sh->hist;
  const uint32_t n = h.keys();
  const uint32_t last = h.rounds() - 1;
  std::string key, lo, hi;
  tsb::db::PinnableValue pv;
  while (!sh->stop.load(std::memory_order_relaxed)) {
    const double u = rng.Unit();
    st->attempted++;
    if (u < kCurrentShare) {
      const uint32_t k = static_cast<uint32_t>(rng.Uniform(n));
      KeyInto(k, &key);
      const uint32_t floor = sh->acked ? sh->acked[k].load() : last;
      const Timestamp seen = sh->acked ? sh->engine->Visible() : 0;
      const uint64_t t0 = NowNs();
      Status s = sh->acked ? sh->engine->GetSnapshot(key, &pv)
                           : sh->engine->GetCurrent(key, &pv);
      const uint64_t t1 = NowNs();
      st->current.Add(ClampNs(t1 - t0), sh->WindowOf(t1));
      if (!s.ok()) {
        FailStatus(st, "current get", s);
        continue;
      }
      if (sh->acked) {
        // Writers run: the value must be the key's, at most one round
        // newer than the last acked after the read (a commit in flight),
        // and carry its round's commit timestamp when that is known.
        // It may be older than the round acked before the read began
        // only by the bounded-staleness rule below.
        uint32_t kk = 0, r = 0;
        Timestamp tr = 0, tnext = 0;
        const bool parsed = ParseValue(pv.data(), &kk, &r);
        const uint32_t ceiling = sh->acked[k].load() + 1;
        const bool known = parsed && sh->CommitTs(k, r, &tr);
        bool ok = parsed && kk == k && r <= ceiling &&
                  (!known || tr == pv.timestamp());
        if (ok && r < floor) {
          // An acknowledged commit the read did not see. The watermark
          // publishes an ordered prefix, so Write can return while an
          // earlier commit still holds the watermark below its own
          // timestamp. Allowed only when the returned round is the
          // key's newest at or below the watermark sampled before the
          // read, and the next round committed above it.
          ok = known && tr <= seen && sh->CommitTs(k, r + 1, &tnext) &&
               tnext > seen;
          if (ok) st->stale_reads++;
        }
        if (!ok) {
          Wrong(st, "current get", k,
                "round=" + std::to_string(r) + " acked before=" +
                    std::to_string(floor) + " after+1=" +
                    std::to_string(ceiling) + " ts=" +
                    std::to_string(pv.timestamp()) + " watermark=" +
                    std::to_string(seen));
        }
      } else if (!ValueIs(pv.data(), k, last) ||
                 pv.timestamp() != h.At(k, last)) {
        Wrong(st, "current get", k, "");
      }
    } else if (u < kCurrentShare + kAsOfShare) {
      const uint32_t k = static_cast<uint32_t>(rng.Uniform(n));
      const Timestamp t = h.PastTs(&rng);
      KeyInto(k, &key);
      const uint64_t t0 = NowNs();
      Status s = sh->engine->GetAsOf(key, t, &pv);
      const uint64_t t1 = NowNs();
      st->asof.Add(ClampNs(t1 - t0), sh->WindowOf(t1));
      CheckAsOf(*sh, k, t, s, pv, st);
    } else {
      const uint32_t k0 = static_cast<uint32_t>(rng.Uniform(n - kScanKeys + 1));
      const Timestamp t = h.PastTs(&rng);
      KeyInto(k0, &lo);
      KeyInto(k0 + kScanKeys, &hi);
      uint32_t next = k0;  // first key not yet accounted for
      bool ok = true;
      auto fn = [&](const Slice& ekey, const Slice& value, Timestamp ts) {
        uint32_t kk = 0;
        if (!ParseKey(ekey, &kk) || kk < next || kk >= k0 + kScanKeys) {
          ok = false;
          return;
        }
        for (; next < kk; ++next) {
          if (h.RoundAsOf(next, t) >= 0) ok = false;  // skipped a live key
        }
        const int r = h.RoundAsOf(kk, t);
        if (r < 0 || !ValueIs(value, kk, static_cast<uint32_t>(r)) ||
            ts != h.At(kk, static_cast<uint32_t>(r))) {
          ok = false;
        }
        next = kk + 1;
      };
      uint64_t entries = 0;
      const uint64_t t0 = NowNs();
      Status s = sh->engine->Scan(lo, hi, t, fn, &entries);
      const uint64_t t1 = NowNs();
      const uint16_t w = sh->WindowOf(t1);
      st->scan.Add(ClampNs(t1 - t0), w);
      st->scan_entries += entries;
      if (st->scan_entries_by_window.size() <= w) {
        st->scan_entries_by_window.resize(w + 1);
      }
      st->scan_entries_by_window[w] += entries;
      if (!s.ok()) {
        FailStatus(st, "scan", s);
        continue;
      }
      for (; next < k0 + kScanKeys; ++next) {
        if (h.RoundAsOf(next, t) >= 0) ok = false;
      }
      if (!ok) Wrong(st, "scan", k0, "t=" + std::to_string(t));
    }
  }
}

/// One writer: 4-key update batches on its own stripe, until `sh.stop`
/// or `max_commits` attempts when nonzero.
void WriteLoop(Shared* sh, WriterState* w, uint64_t max_commits,
               OpStats* st) {
  tsb::db::WriteBatch batch;
  std::string key, value;
  CommitRec rec;
  uint64_t done = 0;
  while (max_commits > 0 ? done < max_commits
                         : !sh->stop.load(std::memory_order_relaxed)) {
    ++done;
    batch.Clear();
    rec = CommitRec();
    if (!w->by_shard.empty()) {
      for (const auto& keys : w->by_shard) {
        rec.keys[rec.n++] = keys[w->rng.Uniform(keys.size())];
      }
    } else {
      while (rec.n < kBatchKeys) {
        const uint32_t k = w->stripe[w->rng.Uniform(w->stripe.size())];
        bool dup = false;
        for (uint32_t i = 0; i < rec.n; ++i) dup |= rec.keys[i] == k;
        if (!dup) rec.keys[rec.n++] = k;
      }
    }
    for (uint32_t i = 0; i < rec.n; ++i) {
      rec.rounds[i] = sh->acked[rec.keys[i]].load() + 1;
      KeyInto(rec.keys[i], &key);
      ValueInto(rec.keys[i], rec.rounds[i], &value);
      batch.Put(key, value);
    }
    st->attempted++;
    const uint64_t t0 = NowNs();
    Status s = sh->engine->Write(batch, &rec.ts);
    const uint64_t t1 = NowNs();
    st->commit.Add(ClampNs(t1 - t0), sh->WindowOf(t1));
    if (!s.ok()) {
      FailStatus(st, "commit", s);
      continue;
    }
    for (uint32_t i = 0; i < rec.n; ++i) {
      if (sh->ring) sh->RecordCommit(rec.keys[i], rec.rounds[i], rec.ts);
      sh->acked[rec.keys[i]].store(rec.rounds[i]);
    }
    st->commits.push_back(rec);
  }
}

struct PhaseResult {
  OpStats ops;
  double seconds = 0;
  double lag_sum = 0;
  uint64_t lag_samples = 0;
};

/// Runs the workload's client threads (closed loop) for `seconds`.
PhaseResult RunPhase(Shared* sh, WriterState* writers, size_t n,
                     double seconds, uint64_t seed, bool sample_lag) {
  PhaseResult res;
  std::vector<OpStats> per(n + 1);
  sh->stop.store(false);
  const uint64_t t0 = NowNs();
  sh->phase_start_ns = t0;
  std::vector<std::thread> threads;
  threads.emplace_back(ReadLoop, sh, seed, &per[0]);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back(WriteLoop, sh, &writers[i], 0, &per[i + 1]);
  }
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  // The lag sampler wakes every millisecond; otherwise the main thread
  // stays out of the clients' way.
  const auto tick = std::chrono::milliseconds(sample_lag ? 1 : 20);
  while (NowNs() < deadline) {
    std::this_thread::sleep_for(tick);
    if (sample_lag) {
      res.lag_sum += static_cast<double>(sh->engine->WatermarkLag());
      res.lag_samples++;
    }
  }
  sh->stop.store(true);
  for (auto& t : threads) t.join();
  res.seconds = ElapsedNs(t0) / 1e9;
  for (const OpStats& p : per) res.ops.Merge(p);
  return res;
}

// ---------------------------------------------------------------- set-up

EngineConfig RunConfig(const Spec& spec, bool timed_devices) {
  EngineConfig cfg;
  cfg.shards = spec.shards;
  cfg.pool_frames = spec.pool_frames;
  cfg.hist_cache_blobs = spec.hist_cache;
  cfg.timed_devices = timed_devices;
  cfg.wal_sync = kRunWalSync;
  cfg.concurrent_writers = spec.writers > 0 || spec.probe_writers > 0;
  return cfg;
}

/// Loads the fixture with single-key commits in round-major order (each
/// round visits the keys in a seed-chosen order), with the WAL off and
/// caches that hold everything, then reopens it with the run's options
/// (and reads every version once when the workload warms its caches,
/// checking each into `checks`). Single-key commits give each version its
/// own timestamp, so time splits move most past versions into historical
/// nodes; `*time_splits` receives the loader's count.
Status BuildFixture(const Spec& spec, const std::string& path,
                    const EngineConfig& run_cfg, uint64_t seed, History* h,
                    uint64_t* time_splits, OpStats* checks,
                    std::unique_ptr<Engine>* out) {
  {
    EngineConfig load_cfg = run_cfg;
    load_cfg.timed_devices = false;
    load_cfg.enable_wal = false;
    load_cfg.concurrent_writers = false;  // one loader thread
    load_cfg.pool_frames = kLoadPoolFrames;
    load_cfg.hist_cache_blobs = kLoadPoolFrames;
    std::unique_ptr<Engine> e;
    Status s = Engine::Open(path, load_cfg, &e);
    if (!s.ok()) return s;
    Rng rng(seed ^ 0x10adull);
    std::vector<uint32_t> order(spec.keys);
    for (uint32_t i = 0; i < spec.keys; ++i) order[i] = i;
    std::string key, value;
    Timestamp first = 0, ts = 0;
    for (uint32_t r = 0; r < spec.rounds; ++r) {
      for (uint32_t i = spec.keys - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
      for (uint32_t k : order) {
        KeyInto(k, &key);
        ValueInto(k, r, &value);
        s = e->Put(key, value, &ts);
        if (!s.ok()) return s;
        if (first == 0) first = ts;
        h->Set(k, r, ts);
      }
    }
    h->SetSpan(first, ts);
    *time_splits = e->Counters().data_time_splits;
  }
  Status s = Engine::Open(path, run_cfg, out);
  if (!s.ok() || !spec.warm) return s;
  // Fill the caches: every version of every key (the last is current).
  Shared sh;
  sh.engine = out->get();
  sh.hist = h;
  tsb::db::PinnableValue pv;
  std::string key;
  for (uint32_t k = 0; k < spec.keys; ++k) {
    KeyInto(k, &key);
    for (uint32_t r = 0; r < spec.rounds; ++r) {
      const Timestamp t = h->At(k, r);
      checks->attempted++;
      CheckAsOf(sh, k, t, (*out)->GetAsOf(key, t, &pv), pv, checks);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- recovery

struct RecoveryResult {
  double open_ms = 0;  ///< median over kRecoveryReps crash images
  double mb_per_s = 0;
  uint64_t wal_bytes = 0;
  uint64_t frames_replayed = 0;
  uint64_t replay_frames = 0;  ///< frames seen by Wal::Replay on the image
  uint64_t replay_ns = 0;
  /// Group-commit tail on the first recovered image (write workloads):
  /// its commits and the WalStats around them.
  OpStats group;
  tsb::wal::WalStats wal_before, wal_after;
  OpStats verify;
};

/// Re-reads a sample of acknowledged commits (all of them when there are
/// at most kVerifySample) as of their timestamps.
void VerifyCommits(Engine* e, const std::vector<CommitRec>& commits,
                   OpStats* st) {
  if (commits.empty()) return;
  const size_t step = std::max<size_t>(1, commits.size() / kVerifySample);
  std::string key;
  tsb::db::PinnableValue pv;
  for (size_t i = 0; i < commits.size(); i += step) {
    const CommitRec& c = commits[i];
    for (uint32_t j = 0; j < c.n; ++j) {
      KeyInto(c.keys[j], &key);
      st->attempted++;
      Status s = e->GetAsOf(key, c.ts, &pv);
      if (!s.ok()) {
        FailStatus(st, "acked commit re-read", s);
      } else if (!ValueIs(pv.data(), c.keys[j], c.rounds[j]) ||
                 pv.timestamp() != c.ts) {
        Wrong(st, "acked commit re-read", c.keys[j],
              "ts=" + std::to_string(c.ts));
      }
    }
  }
}

/// Every writer commits exactly `per_writer` batches, concurrently.
OpStats RunWriters(Shared* sh, std::vector<WriterState>* writers,
                   uint64_t per_writer) {
  std::vector<OpStats> per(writers->size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers->size(); ++w) {
    threads.emplace_back(WriteLoop, sh, &(*writers)[w], per_writer, &per[w]);
  }
  for (auto& t : threads) t.join();
  OpStats all;
  for (const OpStats& p : per) all.Merge(p);
  return all;
}

/// fsyncs every file of a copied image, so the timed Open finds what a
/// restarted process finds: the files' older bytes already on disk, not
/// a whole directory of dirty page-cache pages for its first checkpoint
/// to write back.
void SyncTree(const std::string& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
}

/// Replays every log file of a crash image through the public
/// Wal::Replay (decode + CRC only, nothing applied).
void ReplayLogs(const std::string& dir, RecoveryResult* res) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool log = (name.rfind("wal-", 0) == 0 || name == "coord.tsb") &&
                     entry.path().extension() == ".tsb";
    if (!log || !entry.is_regular_file()) continue;
    tsb::wal::WalReplayResult rr;
    uint64_t frames = 0;
    const uint64_t t0 = NowNs();
    Status s;
    {
      Span span("wal.Replay");
      s = tsb::wal::Wal::Replay(
          entry.path().string(), 0,
          [&frames](const tsb::wal::WalCommit&) {
            ++frames;
            return Status::OK();
          },
          &rr);
    }
    res->replay_ns += ElapsedNs(t0);
    if (!s.ok()) {
      FailStatus(&res->verify, "wal replay", s);
      continue;
    }
    res->replay_frames += frames;
  }
}

/// Copies the quiesced live directory (a crash image: the process never
/// closed it) and times Open of each copy with group commit on. The
/// first copy must hold every commit in `must_hold` and the sampled
/// fixture history; write workloads then run a fixed tail of commits on
/// it — the run's only group-commit (kGroup) measurement, read from
/// WalStats inside that post-recovery window.
RecoveryResult MeasureRecovery(const Args& args, const Spec& spec,
                               const std::string& live, EngineConfig cfg,
                               const Shared& live_sh,
                               std::vector<WriterState>* writers,
                               const std::vector<CommitRec>& must_hold) {
  cfg.wal_sync = kImageWalSync;
  RecoveryResult res;
  std::vector<double> open_ms;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const std::string copy = args.work_dir + "/image-" + std::to_string(rep);
    fs::remove_all(copy);
    fs::copy(live, copy, fs::copy_options::recursive);
    SyncTree(copy);
    if (rep == 0) ReplayLogs(copy, &res);
    std::unique_ptr<Engine> e;
    const uint64_t t0 = NowNs();
    Status s = Engine::Open(copy, cfg, &e);
    open_ms.push_back(ElapsedNs(t0) / 1e6);
    res.verify.attempted++;
    if (!s.ok()) {
      FailStatus(&res.verify, "recovery open", s);
      fs::remove_all(copy);
      continue;
    }
    if (rep == 0) {
      const auto r = e->Recovery();
      res.wal_bytes = r.wal_bytes_scanned;
      res.frames_replayed = r.frames_replayed;
      VerifyCommits(e.get(), must_hold, &res.verify);
      Shared sh;
      sh.engine = e.get();
      sh.hist = live_sh.hist;
      Rng rng(args.seed ^ 0xbadcafeull);
      std::string key;
      tsb::db::PinnableValue pv;
      for (int i = 0; i < 200; ++i) {
        const uint32_t k = static_cast<uint32_t>(rng.Uniform(spec.keys));
        const Timestamp t = sh.hist->PastTs(&rng);
        KeyInto(k, &key);
        res.verify.attempted++;
        CheckAsOf(sh, k, t, e->GetAsOf(key, t, &pv), pv, &res.verify);
      }
      if (!writers->empty()) {
        sh.acked = std::make_unique<std::atomic<uint32_t>[]>(spec.keys);
        for (uint32_t k = 0; k < spec.keys; ++k) {
          sh.acked[k].store(live_sh.acked[k].load());
        }
        res.wal_before = e->Wal();
        res.group = RunWriters(&sh, writers, kTailCommitsPerWriter);
        res.wal_after = e->Wal();
        res.verify.attempted += res.group.attempted;
        res.verify.failed += res.group.failed;
        res.verify.conflicts += res.group.conflicts;
        VerifyCommits(e.get(), res.group.commits, &res.verify);
      }
    }
    e.reset();
    fs::remove_all(copy);
  }
  res.open_ms = Median(open_ms);
  res.mb_per_s = Ratio(res.wal_bytes / 1e6, res.open_ms / 1e3);
  return res;
}

// ---------------------------------------------------------------- calibration

struct Calibration {
  double crc_us = 0;
  double pread_us = 0;
  double fdatasync_us = 0;
};

/// One 4 KB page through crc32c::Value, a pread of one page of the
/// database file, and a 4 KB write + fdatasync on the database's
/// filesystem. Each is the median of several timed batches.
Calibration Calibrate(const std::string& db_file, const std::string& dir,
                      uint64_t seed) {
  Calibration c;
  constexpr size_t kPage = 4096;
  std::vector<char> buf(kPage);
  Rng rng(seed);
  for (char& ch : buf) ch = static_cast<char>(rng.Next());
  std::vector<double> v;
  uint32_t sink = 0;
  for (int b = 0; b < 9; ++b) {
    Span span("common.crc32c.Value");
    const uint64_t t0 = NowNs();
    for (int i = 0; i < 200; ++i) {
      buf[i] ^= static_cast<char>(sink);
      sink += tsb::crc32c::Value(buf.data(), kPage);
    }
    v.push_back(ElapsedNs(t0) / 1e3 / 200);
  }
  c.crc_us = Median(v);
  if (sink == 42) std::fprintf(stderr, " ");  // keep the CRCs live

  v.clear();
  const int fd = ::open(db_file.c_str(), O_RDONLY);
  if (fd >= 0) {
    const off_t size = ::lseek(fd, 0, SEEK_END);
    const uint64_t pages = size > 0 ? static_cast<uint64_t>(size) / kPage : 0;
    for (int b = 0; pages > 0 && b < 9; ++b) {
      Span span("calib.pread");
      const uint64_t t0 = NowNs();
      for (int i = 0; i < 200; ++i) {
        const off_t off = static_cast<off_t>(rng.Uniform(pages) * kPage);
        if (::pread(fd, buf.data(), kPage, off) < 0) break;
      }
      v.push_back(ElapsedNs(t0) / 1e3 / 200);
    }
    ::close(fd);
  }
  c.pread_us = Median(v);

  v.clear();
  const std::string probe = dir + "/fdatasync-probe";
  const int wfd = ::open(probe.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (wfd >= 0) {
    for (int i = 0; i < 31; ++i) {
      Span span("calib.fdatasync");
      const uint64_t t0 = NowNs();
      if (::pwrite(wfd, buf.data(), kPage, static_cast<off_t>(i) * kPage) < 0 ||
          ::fdatasync(wfd) != 0) {
        break;
      }
      v.push_back(ElapsedNs(t0) / 1e3);
    }
    ::close(wfd);
    ::unlink(probe.c_str());
  }
  c.fdatasync_us = Median(v);
  return c;
}

// ---------------------------------------------------------------- output

std::string FsType(const std::string& dir) {
  struct statfs sfs;
  if (::statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    default: {
      char b[32];
      std::snprintf(b, sizeof(b), "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return b;
    }
  }
}

const char* SyncName(tsb::wal::WalSyncMode m) {
  switch (m) {
    case tsb::wal::WalSyncMode::kOff: return "kOff";
    case tsb::wal::WalSyncMode::kGroup: return "kGroup";
    case tsb::wal::WalSyncMode::kBackground: return "kBackground";
  }
  return "unknown";
}

std::string Provenance(const Args& args, const EngineConfig& cfg) {
  char host[256] = {};
  ::gethostname(host, sizeof(host) - 1);
  std::string out = "{\"host\":\"" + std::string(host) + "\"";
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"git_sha\":\"" + args.git_sha + "\"";
  out += ",\"src_digest\":\"" + args.src_digest + "\"";
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  out += ",\"compiler\":\"" PERFBENCH_COMPILER "\"";
  out += ",\"db_filesystem\":\"" + FsType(args.work_dir) + "\"";
  out += ",\"workload\":\"" + args.workload + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + std::to_string(args.seconds);
  out += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  out += ",\"wal_sync\":\"" + std::string(SyncName(cfg.wal_sync)) + "\"";
  out += ",\"crash_image_wal_sync\":\"" +
         std::string(SyncName(kImageWalSync)) + "\"";
  out += ",\"concurrent_writers\":" +
         std::string(cfg.concurrent_writers ? "true" : "false");
  out += ",\"paranoid_checks\":true}";
  return out;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char b[64];
  std::snprintf(b, sizeof(b), "%.10g", v);
  return b;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m) {
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16s %s\n", name.c_str(), Num(metric.value).c_str(),
                metric.unit);
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + m[i].first + "\": {\"value\": " + Num(m[i].second.value) +
            ", \"unit\": \"" + m[i].second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Median over windows [0, windows) of each window's percentile `p`.
double WindowedPercentileUs(const Samples& s, uint16_t windows, double p) {
  std::vector<double> v;
  for (uint16_t w = 0; w < windows; ++w) {
    std::vector<uint32_t> in = s.In(w);
    if (!in.empty()) v.push_back(PercentileUs(std::move(in), p));
  }
  return Median(v);
}

/// Median over windows of the operations completed per second.
double WindowedRate(const Samples& s, uint16_t windows) {
  std::vector<double> count(windows, 0.0);
  for (uint16_t w : s.window) {
    if (w < windows) count[w] += 1;
  }
  return Median(count);
}

/// Median over windows of scan entries per second of scan time.
double WindowedScanRate(const OpStats& ops, uint16_t windows) {
  std::vector<double> v;
  for (uint16_t w = 0; w < windows; ++w) {
    const double secs = SumNs(ops.scan.In(w)) / 1e9;
    if (secs > 0 && w < ops.scan_entries_by_window.size()) {
      v.push_back(ops.scan_entries_by_window[w] / secs);
    }
  }
  return Median(v);
}

/// Starts a new resident-memory high-water mark: returns the heap the
/// set-up freed to the kernel, then resets VmHWM to the current RSS.
/// False where /proc/self/clear_refs cannot be written; VmHWM then still
/// holds the set-up's peak.
bool ResetPeakRss() {
  ::malloc_trim(0);
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

/// VmHWM in MB: the peak RSS since the last ResetPeakRss().
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---------------------------------------------------------------- per-layer

struct LayerInputs {
  const Spec* spec;
  Calibration calib;
  uint64_t fixture_time_splits = 0;
  double fixture_asof_hist_frac = 0;
  PhaseResult untraced;
  PhaseResult traced;
  EngineCounters before, after;
  std::map<std::string, SpanAgg> spans;      // traced phase only
  std::map<std::string, SpanAgg> all_spans;  // the whole traced run
  RecoveryResult recovery;
  tsb::tsb_tree::SpaceStats space;
  uint64_t probe_stale_reads = 0;
};

/// Sum of the device spans `storage.<role>.<op>` over every device whose
/// role ends with `role` ("magnetic" covers "shard-002/magnetic").
SpanAgg DeviceSpans(const std::map<std::string, SpanAgg>& spans,
                    const std::string& role, const std::string& op) {
  const std::string suffix = role + "." + op;
  SpanAgg total;
  for (const auto& [name, agg] : spans) {
    if (name.rfind("storage.", 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total.Add(agg);
    }
  }
  return total;
}

SpanAgg SumSpans(const std::map<std::string, SpanAgg>& spans,
                 std::initializer_list<const char*> names) {
  SpanAgg total;
  for (const char* n : names) {
    auto it = spans.find(n);
    if (it != spans.end()) total.Add(it->second);
  }
  return total;
}

double Ops(const PhaseResult& p, bool writes) {
  return writes ? static_cast<double>(p.ops.commit.size())
                : static_cast<double>(p.ops.reads());
}

Metrics LayerMetrics(const LayerInputs& in) {
  Metrics m;
  auto add = [&m](const std::string& name, double v, const char* unit) {
    m.emplace_back(name, Metric{v, unit});
  };
  const OpStats& b = in.traced.ops;
  const bool writes = in.spec->writers > 0;
  const double reads = static_cast<double>(b.reads());
  const double commits = static_cast<double>(b.commit.size());
  const double ops = reads + commits;

  add("common.crc32c_us_per_page", in.calib.crc_us, "us");
  add("storage.pread_us_per_page", in.calib.pread_us, "us");
  add("wal.fdatasync_us", in.calib.fdatasync_us, "us");

  const auto& p0 = in.before.pool;
  const auto& p1 = in.after.pool;
  const double hits = static_cast<double>(p1.hits - p0.hits);
  const double misses = static_cast<double>(p1.misses - p0.misses);
  add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("storage.pool_misses_per_op", Ratio(misses, ops), "count");
  add("storage.pool_evictions",
      static_cast<double>(p1.evictions - p0.evictions), "count");
  add("storage.dirty_writebacks",
      static_cast<double>(p1.dirty_writebacks - p0.dirty_writebacks),
      "count");

  double written = 0;
  for (const char* role : {"magnetic", "historical"}) {
    const SpanAgg read = DeviceSpans(in.spans, role, "Read");
    const SpanAgg mapped = DeviceSpans(in.spans, role, "ReadMapped");
    const SpanAgg write = DeviceSpans(in.spans, role, "Write");
    const SpanAgg sync = DeviceSpans(in.spans, role, "Sync");
    const double calls = static_cast<double>(read.count + mapped.count);
    const std::string p = std::string("storage.") + role + ".";
    add(p + "dev_read_calls", calls, "count");
    add(p + "dev_read_us",
        Ratio((read.total_ns + mapped.total_ns) / 1e3, calls), "us");
    add(p + "dev_read_bytes", static_cast<double>(read.bytes + mapped.bytes),
        "bytes");
    add(p + "dev_mapped_reads", static_cast<double>(mapped.count), "count");
    add(p + "dev_write_bytes", static_cast<double>(write.bytes), "bytes");
    add(p + "dev_sync_calls", static_cast<double>(sync.count), "count");
    add(p + "dev_sync_us",
        Ratio(sync.total_ns / 1e3, static_cast<double>(sync.count)), "us");
    written += static_cast<double>(write.bytes);
  }
  const double user_bytes =
      commits * kBatchKeys * (KeyOf(0).size() + kValueSize);
  add("storage.write_amp", Ratio(written, user_bytes), "ratio");

  const auto& h0 = in.before.hist;
  const auto& h1 = in.after.hist;
  const double ch = static_cast<double>(h1.cache_hits - h0.cache_hits);
  const double cm = static_cast<double>(h1.cache_misses - h0.cache_misses);
  add("storage.hist_cache_hit_ratio", Ratio(ch, ch + cm), "ratio");
  add("storage.hist_blob_reads_per_op",
      Ratio(static_cast<double>(h1.blob_reads - h0.blob_reads), reads),
      "count");
  add("storage.hist_mapped_bytes",
      static_cast<double>(h1.mapped_bytes - h0.mapped_bytes), "bytes");
  add("storage.hist_copied_bytes",
      static_cast<double>(h1.copied_bytes - h0.copied_bytes), "bytes");

  const SpanAgg get_cur = SumSpans(
      in.spans, {"db.Get.current", "txn.ReadTransaction.Get",
                 "shard.Get.current"});
  const SpanAgg get_asof =
      SumSpans(in.spans, {"db.Get.asof", "shard.Get.asof"});
  SpanAgg get_all = get_cur;
  get_all.Add(get_asof);
  add("tsb.get_self_us", get_all.self_us(), "us");
  add("tsb.get_current_self_us", get_cur.self_us(), "us");
  add("tsb.get_asof_self_us", get_asof.self_us(), "us");
  add("tsb.asof_hist_frac",
      Ratio(static_cast<double>(b.asof_pinned),
            static_cast<double>(b.asof.size())),
      "ratio");
  add("tsb.view_decodes_per_op",
      Ratio(static_cast<double>(h1.view_decodes - h0.view_decodes), reads),
      "count");
  add("tsb.owned_decodes",
      static_cast<double>(h1.owned_decodes - h0.owned_decodes), "count");
  const SpanAgg scan = SumSpans(
      in.spans, {"tsb.VersionCursor.SeekRange", "tsb.VersionCursor.Next",
                 "shard.ShardedCursor.SeekRange", "shard.ShardedCursor.Next"});
  add("tsb.scan_ns_per_entry",
      Ratio(static_cast<double>(scan.total_ns),
            static_cast<double>(b.scan_entries)),
      "ns");
  add("tsb.data_key_splits",
      static_cast<double>(in.after.data_key_splits - in.before.data_key_splits),
      "count");
  add("tsb.data_time_splits",
      static_cast<double>(in.after.data_time_splits -
                          in.before.data_time_splits),
      "count");
  add("tsb.index_time_splits",
      static_cast<double>(in.after.index_time_splits -
                          in.before.index_time_splits),
      "count");
  add("tsb.records_migrated",
      static_cast<double>(in.after.records_migrated -
                          in.before.records_migrated),
      "count");
  add("tsb.redundancy", in.space.redundancy(), "ratio");
  add("tsb.stamp_descents_per_commit",
      Ratio(static_cast<double>(in.after.stamp_descents -
                                in.before.stamp_descents),
            commits),
      "count");
  add("tsb.olc_restarts",
      static_cast<double>(in.after.olc_restarts - in.before.olc_restarts),
      "count");
  add("tsb.fixture_data_time_splits",
      static_cast<double>(in.fixture_time_splits), "count");
  add("tsb.fixture_asof_hist_frac", in.fixture_asof_hist_frac, "ratio");

  add("txn.conflicts", static_cast<double>(b.conflicts), "count");
  add("txn.serial_fallback_commits",
      static_cast<double>(in.after.serial_fallback_commits -
                          in.before.serial_fallback_commits),
      "count");

  const SpanAgg dbw = SumSpans(in.spans, {"db.Write"});
  const SpanAgg shw = SumSpans(in.spans, {"shard.Write"});
  SpanAgg anyw = dbw;
  anyw.Add(shw);
  add("db.write_self_us", dbw.self_us(), "us");
  // The explicit checkpoint after the window (none fires inside it).
  const SpanAgg ckpt =
      SumSpans(in.all_spans, {"db.Checkpoint", "shard.Checkpoint"});
  add("db.checkpoint_ms", ckpt.count == 0 ? 0 : ckpt.mean_us() / 1e3, "ms");
  add("db.checkpoint_bytes",
      Ratio(static_cast<double>(ckpt.desc_write_bytes),
            static_cast<double>(ckpt.count)),
      "bytes");

  const double tail = static_cast<double>(in.recovery.group.commits.size());
  const auto& w0 = in.recovery.wal_before;
  const auto& w1 = in.recovery.wal_after;
  // WalStats restart with every rotated log object; a window that saw a
  // rotation reads backwards and is reported as 0.
  const bool wal_ok = w1.syncs >= w0.syncs &&
                      w1.sync_requests >= w0.sync_requests &&
                      w1.bytes_appended >= w0.bytes_appended;
  add("wal.syncs_per_commit",
      wal_ok ? Ratio(static_cast<double>(w1.syncs - w0.syncs), tail) : 0,
      "count");
  add("wal.bytes_per_commit",
      wal_ok ? Ratio(static_cast<double>(w1.bytes_appended - w0.bytes_appended),
                     tail)
             : 0,
      "bytes");
  add("wal.piggyback_ratio",
      wal_ok ? Ratio(static_cast<double>(w1.sync_piggybacks -
                                         w0.sync_piggybacks),
                     static_cast<double>(w1.sync_requests - w0.sync_requests))
             : 0,
      "ratio");
  add("wal.group_commit_p50_us",
      PercentileUs(in.recovery.group.commit.ns, 0.50), "us");
  add("wal.replay_frames", static_cast<double>(in.recovery.replay_frames),
      "count");
  add("wal.replay_us_per_frame",
      Ratio(in.recovery.replay_ns / 1e3,
            static_cast<double>(in.recovery.replay_frames)),
      "us");
  add("wal.recovery_mb_per_s", in.recovery.mb_per_s, "MB/s");

  add("txn.stale_current_reads",
      static_cast<double>(b.stale_reads + in.probe_stale_reads), "count");
  add("shard.commit_self_us", shw.self_us(), "us");
  add("shard.watermark_lag", Ratio(in.traced.lag_sum, in.traced.lag_samples),
      "count");

  const double cur_misses =
      Ratio(static_cast<double>(get_cur.desc_reads),
            static_cast<double>(get_cur.count));
  add("budget.get_current_us", get_cur.mean_us(), "us");
  add("budget.get_current_misses", cur_misses, "count");
  add("budget.get_current_model_us",
      cur_misses * (in.calib.crc_us + in.calib.pread_us), "us");
  add("budget.get_current_dev_us",
      Ratio(get_cur.desc_read_ns / 1e3, static_cast<double>(get_cur.count)),
      "us");
  add("budget.commit_us", anyw.mean_us(), "us");
  const double syncs_per_commit =
      wal_ok ? Ratio(static_cast<double>(w1.syncs - w0.syncs), tail) : 0;
  add("budget.commit_sync_model_us",
      syncs_per_commit * in.calib.fdatasync_us, "us");

  const double rate_a = Ratio(Ops(in.untraced, writes), in.untraced.seconds);
  const double rate_b = Ratio(Ops(in.traced, writes), in.traced.seconds);
  add("trace.overhead_frac", rate_b > 0 ? rate_a / rate_b - 1 : 0, "ratio");
  uint64_t spans = 0;
  for (const auto& [name, agg] : in.spans) spans += agg.count;
  add("trace.spans", static_cast<double>(spans), "count");
  return m;
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--spans-out") a->spans_out = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--src-digest") a->src_digest = v;
    else return false;
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0;
}

int Run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.work_dir);
  const EngineConfig cfg = RunConfig(*spec, args.trace);
  const std::string provenance = Provenance(args, cfg);
  std::printf("provenance %s\n", provenance.c_str());

  const std::string live = args.work_dir + "/db";

  // ---- set-up, several times; the last fixture is the one measured.
  History hist(spec->keys, spec->rounds);
  uint64_t fixture_time_splits = 0;
  OpStats checks;  // set-up, post-run and recovery verification
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string path =
        rep + 1 == kSetupReps
            ? live
            : args.work_dir + "/setup-" + std::to_string(rep);
    fs::remove_all(path);
    const uint64_t t0 = NowNs();
    Status s = BuildFixture(*spec, path, cfg, args.seed, &hist,
                            &fixture_time_splits, &checks, &engine);
    setup_s.push_back(ElapsedNs(t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (rep + 1 < kSetupReps) {
      engine.reset();
      fs::remove_all(path);
    }
  }

  Shared sh;
  sh.engine = engine.get();
  sh.hist = &hist;

  // How much of the history as-of reads find in historical nodes.
  double fixture_hist_frac = 0;
  {
    Rng rng(args.seed ^ 0xf1f1ull);
    OpStats probe;
    tsb::db::PinnableValue pv;
    std::string key;
    for (int i = 0; i < kFixtureProbe; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.Uniform(spec->keys));
      const Timestamp t = hist.PastTs(&rng);
      KeyInto(k, &key);
      probe.attempted++;
      CheckAsOf(sh, k, t, engine->GetAsOf(key, t, &pv), pv, &probe);
    }
    fixture_hist_frac = Ratio(static_cast<double>(probe.asof_pinned),
                              static_cast<double>(kFixtureProbe));
    checks.Merge(probe);
  }

  std::vector<WriterState> writers(
      std::max(spec->writers, spec->probe_writers));
  if (!writers.empty()) {
    sh.acked = std::make_unique<std::atomic<uint32_t>[]>(spec->keys);
    sh.ring = std::make_unique<std::atomic<uint64_t>[]>(size_t{spec->keys} *
                                                        kCommitRing);
    for (uint32_t k = 0; k < spec->keys; ++k) {
      sh.acked[k].store(spec->rounds - 1);
      for (uint32_t r = 0; r < spec->rounds; ++r) {
        sh.RecordCommit(k, r, hist.At(k, r));
      }
    }
    const uint32_t stripes = static_cast<uint32_t>(writers.size());
    for (uint32_t w = 0; w < stripes; ++w) {
      WriterState& ws = writers[w];
      ws.rng = Rng(args.seed * 31 + w + 1);
      // Interleaved: neighbouring keys belong to different writers, so
      // concurrent stamping descents meet on shared leaves.
      for (uint32_t k = w; k < spec->keys; k += stripes) {
        ws.stripe.push_back(k);
      }
      if (spec->shards > 0) {
        ws.by_shard.resize(spec->shards);
        for (uint32_t k : ws.stripe) {
          ws.by_shard[engine->ShardOf(KeyOf(k))].push_back(k);
        }
      }
    }
  }

  // ---- measurement
  LayerInputs li;
  li.spec = spec;
  li.fixture_time_splits = fixture_time_splits;
  li.fixture_asof_hist_frac = fixture_hist_frac;
  PhaseResult main_phase;
  // peak_rss_mb is the measured window's own high-water mark, not the
  // loader's (whose caches hold the whole fixture).
  const bool rss_reset = ResetPeakRss();
  if (!args.trace) {
    main_phase = RunPhase(&sh, writers.data(), spec->writers, args.seconds,
                          args.seed, false);
  } else {
    li.untraced = RunPhase(&sh, writers.data(), spec->writers,
                           args.seconds / 2, args.seed, false);
    li.before = engine->Counters();
    Tracer::Reset();
    Tracer::SetEnabled(true);
    li.traced = RunPhase(&sh, writers.data(), spec->writers,
                         args.seconds / 2, args.seed + 7, true);
    li.spans = Tracer::Aggregate();
    li.after = engine->Counters();
    main_phase = li.untraced;
    main_phase.ops.Merge(li.traced.ops);
    main_phase.seconds += li.traced.seconds;
  }
  const OpStats& ops = main_phase.ops;
  const double peak_rss_mb = PeakRssMb();

  // ---- after the run: re-read acked commits, then a checkpoint, a
  // fixed tail of commits, and crash images of the quiesced directory.
  if (spec->probe_writers > 0) {
    // Concurrent writers beside the reader, for its checks only.
    const PhaseResult probe =
        RunPhase(&sh, writers.data(), spec->probe_writers, kProbeSeconds,
                 args.seed + 13, false);
    checks.Merge(probe.ops);
    VerifyCommits(engine.get(), probe.ops.commits, &checks);
    li.probe_stale_reads = probe.ops.stale_reads;
  }
  VerifyCommits(engine.get(), ops.commits, &checks);
  std::vector<CommitRec> tail;
  {
    Status s = engine->Checkpoint();
    if (!s.ok()) FailStatus(&checks, "checkpoint", s);
    if (!writers.empty()) {
      OpStats t = RunWriters(&sh, &writers, kTailCommitsPerWriter);
      checks.attempted += t.attempted;
      checks.failed += t.failed;
      checks.conflicts += t.conflicts;
      tail = std::move(t.commits);
    }
  }
  tsb::tsb_tree::SpaceStats space;
  {
    Status s = engine->Space(&space);
    if (!s.ok()) FailStatus(&checks, "space stats", s);
  }
  li.space = space;
  RecoveryResult rec =
      MeasureRecovery(args, *spec, live, cfg, sh, &writers, tail);
  checks.Merge(rec.verify);
  li.recovery = rec;
  if (args.trace) {
    const std::string db_file =
        live + (spec->shards > 0 ? "/shard-000/current.tsb" : "/current.tsb");
    li.calib = Calibrate(db_file, args.work_dir, args.seed);
  }

  // Stored bytes per user byte: every version ever committed.
  // checks.commits holds the probe's commits.
  const uint64_t versions =
      uint64_t{spec->keys} * spec->rounds +
      (ops.commits.size() + checks.commits.size() + tail.size()) * kBatchKeys;
  const double user_bytes =
      static_cast<double>(versions) * (KeyOf(0).size() + kValueSize);
  const double space_amp =
      Ratio(static_cast<double>(space.total_bytes()), user_bytes);

  engine.reset();

  // ---- report
  const uint64_t attempted = ops.attempted + checks.attempted;
  const uint64_t failed = ops.failed + checks.failed;
  const uint64_t wrong = ops.wrong + checks.wrong;
  const bool correct = wrong == 0 && failed == 0;
  const bool writes = spec->writers > 0;

  Samples op = ops.commit;
  if (!writes) {
    op.Merge(ops.current);
    op.Merge(ops.asof);
    op.Merge(ops.scan);
  }
  const std::vector<uint32_t>& op_ns = op.ns;

  std::printf("workload %s: %zu reads (%zu current, %zu as-of, %zu scans), "
              "%zu commits, %zu tail commits, %.2f s measured\n",
              spec->name, static_cast<size_t>(ops.reads()),
              ops.current.size(), ops.asof.size(), ops.scan.size(),
              ops.commit.size(), tail.size(), main_phase.seconds);
  std::printf("fixture: %u keys x %u versions x %zu B values, "
              "tsb.data_time_splits=%llu, tsb.asof_hist_frac=%.3f, "
              "magnetic_pages=%llu, stored_bytes=%llu\n",
              spec->keys, spec->rounds, kValueSize,
              static_cast<unsigned long long>(fixture_time_splits),
              fixture_hist_frac,
              static_cast<unsigned long long>(space.magnetic_pages),
              static_cast<unsigned long long>(space.total_bytes()));
  // SpaceStats' historical counters are per session (NOTES.md, defect 2):
  // after the reopen they count only blobs appended since.
  std::printf("space: magnetic_bytes=%llu historical_device_bytes=%llu "
              "hist_nodes=%llu historical_payload_bytes=%llu "
              "redundancy=%.3f\n",
              static_cast<unsigned long long>(space.magnetic_bytes),
              static_cast<unsigned long long>(space.optical_device_bytes),
              static_cast<unsigned long long>(space.hist_nodes),
              static_cast<unsigned long long>(space.optical_payload_bytes),
              space.redundancy());
  std::printf("recovery: %llu WAL bytes, %llu frames replayed at Open, "
              "%.2f MB/s; txn conflicts %llu\n",
              static_cast<unsigned long long>(rec.wal_bytes),
              static_cast<unsigned long long>(rec.frames_replayed),
              rec.mb_per_s, static_cast<unsigned long long>(ops.conflicts));
  if (ops.stale_reads + checks.stale_reads > 0) {
    std::printf("stale current reads: %llu missed a commit acknowledged "
                "before the read began, still above the watermark "
                "(ordered-prefix publication; see NOTES.md)\n",
                static_cast<unsigned long long>(ops.stale_reads +
                                                checks.stale_reads));
  }
  {
    std::string per;
    for (uint16_t w = 0; w < static_cast<uint16_t>(main_phase.seconds); ++w) {
      per.append(" ").append(std::to_string(op.In(w).size()));
    }
    std::printf("ops per one-second window:%s\n", per.c_str());
  }
  std::printf("op latency (us): p50 %.1f p90 %.1f p95 %.1f p99 %.1f "
              "p99.9 %.1f over %zu ops\n",
              PercentileUs(op_ns, 0.50), PercentileUs(op_ns, 0.90),
              PercentileUs(op_ns, 0.95), PercentileUs(op_ns, 0.99),
              PercentileUs(op_ns, 0.999), op_ns.size());
  std::printf("peak RSS of the measured window: %.1f MB (%s)\n", peak_rss_mb,
              rss_reset ? "set-up excluded" : "set-up included: clear_refs "
                                              "not writable");
  std::printf("failed_op_frac %s (%llu failed, %llu wrong of %llu attempted)\n",
              Num(Ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(attempted));

  Metrics m;
  if (!args.trace) {
    // Rates and percentiles are medians over the run's full one-second
    // windows, so a slow spell of the shared box in part of a run does not
    // move them. Tails are p95: p99 of the 3-us hot reads moved by up to
    // 30% between runs of one build (NOTES.md).
    const uint16_t windows = static_cast<uint16_t>(
        std::clamp(std::floor(args.seconds), 1.0, 3600.0));
    m.emplace_back("setup_s", Metric{Median(setup_s), "s"});
    m.emplace_back("peak_rss_mb", Metric{peak_rss_mb, "MB"});
    m.emplace_back("space_amp", Metric{space_amp, "x"});
    m.emplace_back("ops_per_s", Metric{WindowedRate(op, windows), "1/s"});
    m.emplace_back("op_p50_us",
                   Metric{WindowedPercentileUs(op, windows, 0.50), "us"});
    m.emplace_back("op_p95_us",
                   Metric{WindowedPercentileUs(op, windows, 0.95), "us"});
    m.emplace_back(
        "get_current_p50_us",
        Metric{WindowedPercentileUs(ops.current, windows, 0.50), "us"});
    m.emplace_back(
        "get_current_p95_us",
        Metric{WindowedPercentileUs(ops.current, windows, 0.95), "us"});
    m.emplace_back("get_asof_p50_us",
                   Metric{WindowedPercentileUs(ops.asof, windows, 0.50), "us"});
    m.emplace_back("get_asof_p95_us",
                   Metric{WindowedPercentileUs(ops.asof, windows, 0.95), "us"});
    m.emplace_back("scan_entries_per_s",
                   Metric{WindowedScanRate(ops, windows), "1/s"});
    m.emplace_back("recovery_ms", Metric{rec.open_ms, "ms"});
  } else {
    li.all_spans = Tracer::Aggregate();
    m = LayerMetrics(li);
    std::printf("spans (whole traced run): name count mean_us self_us\n");
    for (const auto& [name, agg] : Tracer::Aggregate()) {
      std::printf("  span %-44s %10llu %10.3f %10.3f\n", name.c_str(),
                  static_cast<unsigned long long>(agg.count), agg.mean_us(),
                  agg.self_us());
    }
    if (!args.spans_out.empty() &&
        !Tracer::WriteSpans(args.spans_out, provenance)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
    }
  }
  fs::remove_all(args.work_dir);
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tsb_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--spans-out FILE] "
                 "[--git-sha SHA] [--src-digest HEX]\n");
    return 2;
  }
  return perfbench::Run(args);
}
