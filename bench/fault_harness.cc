// Sick-disk harness: run a concurrent commit workload while a randomized
// fault schedule breaks the storage stack out from under it — failed WAL
// fdatasyncs, ENOSPC/EIO/short-write on frame appends, EIO and ENOSPC on
// page writes during checkpoints — then heal the disk and check the
// degraded-mode contract against an in-process oracle:
//   1. every ACKNOWLEDGED commit is readable (right value, right ts)
//      after Resume(), and again after a clean close + reopen;
//   2. every commit whose Write() returned an error is ABSENT — rejected
//      commits never leak half-stamped state past Resume();
//   3. Resume() succeeds once the fault is cleared (every injected class
//      is transient), and reopen ALWAYS succeeds;
//   4. the tree passes full structural verification after every cycle.
//
// Unlike crash_harness (SIGKILL, fork-based), faults here are injected
// in-process through FaultPlan, so the harness can also assert the
// negative space: what the DB said failed must stay failed.
//
// Plain executable, no benchmark-library dependency:
//   fault_harness [--cycles N] [--writers N] [--attempts N] [--batch N]
//                 [--path DIR] [--seed N]
// Exit code 0 = every cycle upheld the contract.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/fault_device.h"
#include "tsb/tree_check.h"

namespace {

using tsb::Fault;
using tsb::FaultInjectingDevice;
using tsb::FaultKind;
using tsb::FaultOp;
using tsb::FaultPlan;
using tsb::Status;
using tsb::Timestamp;
using tsb::db::DbOptions;
using tsb::db::MultiVersionDB;
using tsb::db::ReadOptions;
using tsb::db::WriteBatch;

struct Config {
  int cycles = 50;
  int writers = 4;
  int attempts = 24;  // commit attempts per writer per cycle
  int batch = 3;
  int checksums = 1;  // post-cycle TreeChecker also audits device CRCs
  uint32_t seed = 0xd15c;
  std::string path;
};

std::string Key(int writer, int attempt, int i) {
  char buf[40];
  snprintf(buf, sizeof(buf), "w%02d-a%04d-k%d", writer, attempt, i);
  return buf;
}

std::string Value(int writer, int attempt, int i) {
  char buf[64];
  snprintf(buf, sizeof(buf), "value-%02d-%04d-%d-", writer, attempt, i);
  std::string v = buf;
  v.append(32, 'x');
  return v;
}

/// One acknowledged commit: Write() returned OK with this timestamp.
struct Ack {
  int writer;
  int attempt;
  Timestamp ts;
};

/// The randomized fault schedules. Every one maps to a TRANSIENT status
/// class (IOError / OutOfSpace), so Resume() after Clear() must succeed.
enum class Scenario {
  kWalSyncEio = 0,       // fdatasync fails mid-workload
  kWalSyncEnospc,        // fdatasync hits a full disk
  kWalAppendEnospc,      // frame append rejected outright
  kWalAppendShortWrite,  // frame torn mid-append (truncate-back path)
  kCheckpointWriteEio,   // page write fails during a checkpoint
  kCheckpointEnospc,     // checkpoint hits a full disk
  kNoFault,              // control: the contract holds trivially
  kCount
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kWalSyncEio: return "wal-sync-eio";
    case Scenario::kWalSyncEnospc: return "wal-sync-enospc";
    case Scenario::kWalAppendEnospc: return "wal-append-enospc";
    case Scenario::kWalAppendShortWrite: return "wal-append-short-write";
    case Scenario::kCheckpointWriteEio: return "ckpt-write-eio";
    case Scenario::kCheckpointEnospc: return "ckpt-write-enospc";
    case Scenario::kNoFault: return "no-fault";
    default: return "?";
  }
}

struct CycleState {
  std::mutex mu;
  std::vector<Ack> acked;
  std::vector<std::pair<int, int>> rejected;  // (writer, attempt)
};

int VerifyDb(MultiVersionDB* db, const CycleState& st, const Config& cfg,
             int cycle, const char* when) {
  int failures = 0;
  for (const Ack& a : st.acked) {
    for (int i = 0; i < cfg.batch; ++i) {
      std::string value;
      Timestamp version_ts = 0;
      Status s = db->Get(ReadOptions{.as_of = a.ts},
                         Key(a.writer, a.attempt, i), &value, &version_ts);
      if (!s.ok()) {
        fprintf(stderr,
                "FAIL cycle %d (%s): acked commit lost: writer %d attempt "
                "%d key %d (%s)\n",
                cycle, when, a.writer, a.attempt, i, s.ToString().c_str());
        ++failures;
        continue;
      }
      if (value != Value(a.writer, a.attempt, i) || version_ts != a.ts) {
        fprintf(stderr,
                "FAIL cycle %d (%s): acked commit mangled: writer %d "
                "attempt %d key %d (ts %llu vs %llu)\n",
                cycle, when, a.writer, a.attempt, i,
                (unsigned long long)version_ts, (unsigned long long)a.ts);
        ++failures;
      }
    }
  }
  for (const auto& [writer, attempt] : st.rejected) {
    for (int i = 0; i < cfg.batch; ++i) {
      std::string value;
      Status s = db->Get(ReadOptions(), Key(writer, attempt, i), &value);
      if (!s.IsNotFound()) {
        fprintf(stderr,
                "FAIL cycle %d (%s): rejected commit leaked: writer %d "
                "attempt %d key %d (%s)\n",
                cycle, when, writer, attempt, i, s.ToString().c_str());
        ++failures;
      }
    }
  }
  tsb::tsb_tree::TreeChecker checker(db->primary());
  checker.set_verify_checksums(cfg.checksums != 0);
  Status s = checker.Check();
  if (!s.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): tree check: %s\n", cycle, when,
            s.ToString().c_str());
    ++failures;
  }
  return failures;
}

int RunCycle(const Config& cfg, int cycle, std::mt19937* rng,
             int* degradations) {
  const std::string dir = cfg.path + "." + std::to_string(cycle);
  MultiVersionDB::Destroy(dir);

  auto dev_plan = std::make_shared<FaultPlan>();
  auto wal_plan = std::make_shared<FaultPlan>();
  DbOptions opts;
  opts.tree.page_size = 1024;
  opts.tree.buffer_pool_frames = 1 << 14;
  opts.wal_fault_plan = wal_plan;
  opts.wrap_device = [dev_plan](const std::string&,
                                 std::unique_ptr<tsb::Device> dev)
      -> std::unique_ptr<tsb::Device> {
    return std::make_unique<FaultInjectingDevice>(std::move(dev), dev_plan);
  };

  std::unique_ptr<MultiVersionDB> db;
  Status s = MultiVersionDB::Open(dir, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "FAIL cycle %d: open: %s\n", cycle, s.ToString().c_str());
    return 1;
  }

  const auto scenario =
      static_cast<Scenario>((*rng)() % static_cast<uint32_t>(Scenario::kCount));
  const bool sticky = ((*rng)() & 1) != 0;
  const uint64_t nth = 1 + (*rng)() % 8;

  CycleState st;
  std::vector<std::thread> writers;
  for (int w = 0; w < cfg.writers; ++w) {
    writers.emplace_back([&, w] {
      for (int attempt = 0; attempt < cfg.attempts; ++attempt) {
        WriteBatch batch;
        for (int i = 0; i < cfg.batch; ++i) {
          batch.Put(Key(w, attempt, i), Value(w, attempt, i));
        }
        Timestamp cts = 0;
        Status ws = db->Write(batch, &cts);
        std::lock_guard<std::mutex> lock(st.mu);
        if (ws.ok()) {
          st.acked.push_back({w, attempt, cts});
        } else {
          st.rejected.emplace_back(w, attempt);
        }
      }
    });
  }

  // Arm the WAL-path faults while the workload is in flight; the nth-op
  // countdown lands the trip at a random point in the commit stream.
  switch (scenario) {
    case Scenario::kWalSyncEio:
      wal_plan->FailNth(FaultOp::kSync, nth, FaultKind::kEIO, sticky);
      break;
    case Scenario::kWalSyncEnospc:
      wal_plan->FailNth(FaultOp::kSync, nth, FaultKind::kENOSPC, sticky);
      break;
    case Scenario::kWalAppendEnospc:
      wal_plan->FailNth(FaultOp::kAppend, nth, FaultKind::kENOSPC, sticky);
      break;
    case Scenario::kWalAppendShortWrite: {
      Fault f;
      f.op = FaultOp::kAppend;
      f.kind = FaultKind::kShortWrite;
      f.nth = nth;
      f.sticky = sticky;
      f.short_bytes = 1 + (*rng)() % 24;
      wal_plan->Arm(f);
      break;
    }
    default:
      break;  // device faults arm after the writers quiesce
  }
  for (auto& t : writers) t.join();

  // Checkpoint-path faults: break the devices under a forced checkpoint.
  if (scenario == Scenario::kCheckpointWriteEio ||
      scenario == Scenario::kCheckpointEnospc) {
    dev_plan->FailNth(FaultOp::kWrite, nth,
                      scenario == Scenario::kCheckpointWriteEio
                          ? FaultKind::kEIO
                          : FaultKind::kENOSPC,
                      sticky);
    Status cs = db->Checkpoint();
    if (cs.ok() && dev_plan->fired(FaultOp::kWrite) > 0) {
      fprintf(stderr, "FAIL cycle %d: checkpoint swallowed a device fault\n",
              cycle);
      return 1;
    }
  }

  int failures = 0;
  const bool degraded = db->degraded();
  if (degraded) ++*degradations;

  // Heal the disk. Every scheduled fault is transient, so Resume() must
  // bring the DB back — and must purge exactly the rejected commits.
  dev_plan->Clear();
  wal_plan->Clear();
  if (degraded) {
    Status rs = db->Resume();
    if (!rs.ok()) {
      fprintf(stderr, "FAIL cycle %d (%s): resume: %s\n", cycle,
              ScenarioName(scenario), rs.ToString().c_str());
      return failures + 1;  // cannot meaningfully verify a degraded DB
    }
  }
  if (db->degraded()) {
    fprintf(stderr, "FAIL cycle %d: still degraded after Resume()\n", cycle);
    return failures + 1;
  }

  // Post-resume service check: the healed DB accepts writes again.
  for (int i = 0; i < 4; ++i) {
    Timestamp cts = 0;
    WriteBatch batch;
    for (int k = 0; k < cfg.batch; ++k) {
      batch.Put(Key(90 + i, 0, k), Value(90 + i, 0, k));
    }
    Status ws = db->Write(batch, &cts);
    if (!ws.ok()) {
      fprintf(stderr, "FAIL cycle %d: post-resume write: %s\n", cycle,
              ws.ToString().c_str());
      ++failures;
      break;
    }
    std::lock_guard<std::mutex> lock(st.mu);
    st.acked.push_back({90 + i, 0, cts});
  }

  failures += VerifyDb(db.get(), st, cfg, cycle, "after-resume");

  // Clean close + reopen: reopen must ALWAYS succeed, and the oracle must
  // hold against the recovered state too.
  db.reset();
  s = MultiVersionDB::Open(dir, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): reopen: %s\n", cycle,
            ScenarioName(scenario), s.ToString().c_str());
    return failures + 1;
  }
  failures += VerifyDb(db.get(), st, cfg, cycle, "after-reopen");

  size_t acked = st.acked.size(), rejected = st.rejected.size();
  db.reset();
  MultiVersionDB::Destroy(dir);
  printf("cycle %3d %-22s nth=%llu sticky=%d acked=%zu rejected=%zu "
         "degraded=%d%s\n",
         cycle, ScenarioName(scenario), (unsigned long long)nth,
         sticky ? 1 : 0, acked, rejected, degraded ? 1 : 0,
         failures == 0 ? "" : "  ** FAILURES **");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.path = "/tmp/tsb_fault_harness." + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name, int* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = atoi(argv[++i]);
        return true;
      }
      return false;
    };
    int seed = 0;
    if (arg("--cycles", &cfg.cycles) || arg("--writers", &cfg.writers) ||
        arg("--attempts", &cfg.attempts) || arg("--batch", &cfg.batch) ||
        arg("--checksums", &cfg.checksums)) {
      continue;
    }
    if (arg("--seed", &seed)) {
      cfg.seed = static_cast<uint32_t>(seed);
      continue;
    }
    if (strcmp(argv[i], "--path") == 0 && i + 1 < argc) {
      cfg.path = argv[++i];
      continue;
    }
    fprintf(stderr,
            "usage: %s [--cycles N] [--writers N] [--attempts N] "
            "[--batch N] [--path DIR] [--seed N]\n",
            argv[0]);
    return 2;
  }

  std::mt19937 rng(cfg.seed);
  int total_failures = 0;
  int degradations = 0;
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    total_failures += RunCycle(cfg, cycle, &rng, &degradations);
  }
  printf("fault_harness: %d cycles, %d degradations, %d failures\n",
         cfg.cycles, degradations, total_failures);
  return total_failures == 0 ? 0 : 1;
}
