// MultiVersionDB: the library's top-level facade — a versioned,
// timestamped database with a non-deletion policy (the paper's target
// applications: financial transactions, transcripts, engineering design
// histories, legal and medical records).
//
// Composes the TSB-tree primary index, the transaction layer (commit-time
// stamping, abort erase, lock-free readers) and secondary TSB-tree indexes
// maintained through a commit hook.
//
// The public surface in one breath:
//   Open(path, options)          — file-backed DB that OWNS its devices
//   Write(batch) / Put           — atomic writes under one commit time
//   Get(ReadOptions, key, ...)   — point reads; PinnableValue = zero-copy
//   NewCursor(ReadOptions)       — key-axis + time-axis traversal
//   Begin() / BeginReadOnly()    — explicit transactions
#ifndef TSBTREE_DB_MULTIVERSION_DB_H_
#define TSBTREE_DB_MULTIVERSION_DB_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/error_handler.h"
#include "db/scrubber.h"
#include "db/secondary_index.h"
#include "storage/fault_device.h"
#include "storage/mem_device.h"
#include "tsb/pinnable_value.h"
#include "tsb/tsb_tree.h"
#include "txn/txn_manager.h"
#include "txn/write_batch.h"
#include "wal/wal.h"

namespace tsb {
namespace db {

/// Per-read options (the read timestamp is the explicit choice point of
/// every multiversion query; see tsb_tree::ReadOptions for the fields).
using ReadOptions = tsb_tree::ReadOptions;
/// Zero-copy point-read result slot (see tsb/pinnable_value.h).
using PinnableValue = tsb_tree::PinnableValue;
/// Atomic multi-key write (see txn/write_batch.h).
using WriteBatch = txn::WriteBatch;
/// Unified key x time cursor (see tsb/cursor.h).
using VersionCursor = tsb_tree::VersionCursor;

/// Extracts the secondary key from a record value; return std::nullopt if
/// the record is not indexed.
using KeyExtractor =
    std::function<std::optional<std::string>(const Slice& value)>;

struct DbOptions {
  tsb_tree::TsbOptions tree;

  /// Commit clock shared with other databases (the sharded facade gives
  /// every shard one clock so a timestamp allocated on any shard is
  /// meaningful on all of them). When set it overrides
  /// tree.external_clock for the PRIMARY tree; secondary-index trees
  /// keep private clocks either way (index replay publishes its own
  /// clock, which must never advance the shared watermark past in-flight
  /// cross-shard commits). The DB holds the shared_ptr, so the clock
  /// outlives every tree that points at it. nullptr = private clock.
  std::shared_ptr<LogicalClock> shared_clock;

  // ---- path-based Open only (ignored by the raw-device overload) ----

  /// Create the database directory when absent; when false, opening a
  /// missing path fails.
  bool create_if_missing = true;
  /// Serve reads zero-copy out of file mappings (madvise-hinted). Off =
  /// every device read goes through pread (measurable baseline).
  bool enable_mmap = true;
  /// Enforce write-once sector semantics on the historical file — the
  /// paper's optical archive, with real durability. Off = plain erasable
  /// file carrying optical cost parameters.
  bool worm_historical = false;
  /// Sector grid for worm_historical.
  uint32_t worm_sector_size = 1024;
  /// Write-ahead log + crash recovery. Every commit appends its batch to
  /// `wal-NNNNNN.tsb` before stamping; Open replays the committed tail
  /// past the last checkpoint. Disabling trades kill -9 safety for commit
  /// latency (the buffer pool then steals dirty pages freely).
  bool enable_wal = true;
  /// When the log becomes durable. kGroup (default): every commit returns
  /// only after an fdatasync covers it; concurrent committers share one
  /// sync (group commit). kBackground: a flusher thread syncs every
  /// wal_background_sync_ms. kOff: the OS decides (still survives process
  /// kill — page cache — but not power loss).
  wal::WalSyncMode wal_sync = wal::WalSyncMode::kGroup;
  /// Flush cadence for WalSyncMode::kBackground.
  uint32_t wal_background_sync_ms = 10;
  /// Checkpoint (and rotate the log) once the live WAL file exceeds this
  /// many bytes — bounds recovery work. A checkpoint also runs at clean
  /// close.
  uint64_t wal_checkpoint_bytes = 8u << 20;
  /// Decorates every device a path-based Open creates internally (the
  /// primary magnetic/historical pair and per-index devices) before the
  /// trees see it. `role` names the device ("magnetic", "historical",
  /// "index-<name>.magnetic", ...). Fault-injection tests wrap in a
  /// FaultInjectingDevice here; empty = no wrapping. The raw-device Open
  /// overload ignores this (the caller already controls its devices).
  std::function<std::unique_ptr<Device>(const std::string& role,
                                        std::unique_ptr<Device> device)>
      wrap_device;
  /// Fault plan the WAL consults on every frame append (FaultOp::kAppend)
  /// and fdatasync (FaultOp::kSync) — including rotated log files.
  /// nullptr = no injection.
  std::shared_ptr<FaultPlan> wal_fault_plan;
  /// Verify page checksums (and the lost-write trailer LSN) on every
  /// buffer-pool miss read. Off trades inline detection for read latency:
  /// corruption is then caught only by the scrubber / TreeChecker. The
  /// historical axis is unaffected (blob CRCs have their own policy via
  /// ReadOptions::verify_checksums and the verified memo).
  bool paranoid_checks = true;
  /// Run Scrub() periodically on a background thread (path-based DBs).
  bool scrub_background = false;
  /// Cadence for scrub_background.
  uint32_t scrub_interval_ms = 60000;
  /// Scrub read-rate cap in MB/s shared by background and explicit
  /// Scrub() calls; 0 = unthrottled.
  uint64_t scrub_rate_mb_per_sec = 0;
  /// Retry Resume() in the background after a TRANSIENT background error
  /// (ENOSPC, EIO), with bounded exponential backoff. Hard errors
  /// (corruption, WORM violations) never auto-resume.
  bool auto_resume = false;
  uint32_t auto_resume_backoff_initial_ms = 100;
  uint32_t auto_resume_backoff_max_ms = 5000;
  /// 0 = keep retrying until the error heals or the DB closes.
  uint32_t auto_resume_max_retries = 0;
  /// Extractors for secondary indexes the MANIFEST catalogs, keyed by
  /// index name. Open re-registers every cataloged index automatically;
  /// an index found here is immediately queryable AND maintained. An
  /// index absent from this registry is attached extractor-less: reads
  /// (FindBySecondary) work, but a commit touching the primary fails
  /// until CreateSecondaryIndex installs its extractor — silently
  /// letting the index go stale would corrupt it.
  std::map<std::string, KeyExtractor> index_extractors;
};

/// A multiversion database over one primary TSB-tree.
///
/// Thread model (paper section 4.1):
///  - Reads (Get, cursors, BeginReadOnly, FindBySecondary) are safe from
///    any number of threads and never block on updaters: read-only
///    transactions capture a timestamp with one atomic load and descend
///    the tree under shared page latches only.
///  - Writes (Put, Write(batch), transactions) are safe from multiple
///    threads; the lock table resolves write-write conflicts
///    first-writer-wins. The tree runs writer descents in parallel under
///    optimistic latch coupling. A DB with secondary indexes commits one
///    transaction at a time — index maintenance must apply in timestamp
///    order.
///  - CreateSecondaryIndex must complete before concurrent writes begin
///    (index registration is not latched — it is a schema operation).
class MultiVersionDB {
 public:
  /// Opens (creating, per options) the database directory `path`. The DB
  /// creates and OWNS its devices: a file-backed magnetic device for the
  /// current database and a file-backed historical device (WORM sector
  /// semantics when options.worm_historical), both honoring
  /// options.enable_mmap. State persists across reopen. A MANIFEST file
  /// in the directory records the device geometry (page size, WORM mode +
  /// sector grid, mmap flag); reopening with mismatched geometry fails
  /// with InvalidArgument instead of corrupting the stored files
  /// (enable_mmap is a read-path choice and may change freely). The
  /// MANIFEST also catalogs secondary indexes: Open re-registers each one
  /// automatically (see DbOptions::index_extractors), so index data is
  /// never silently orphaned by a reopen. A `verified.tsb` sidecar
  /// persists the historical store's CRC-verified blob set across
  /// restarts, so a reopened DB serves cold mapped reads at memory speed
  /// instead of re-checksumming every blob on first touch.
  static Status Open(const std::string& path, const DbOptions& options,
                     std::unique_ptr<MultiVersionDB>* out);

  /// Raw-device overload (tests, simulations): `magnetic` and
  /// `historical` back the PRIMARY index and must outlive the DB.
  static Status Open(Device* magnetic, Device* historical,
                     const DbOptions& options,
                     std::unique_ptr<MultiVersionDB>* out);

  /// Deletes a path-based database: every device file the DB layout owns
  /// (`*.tsb` — primary and secondary-index devices) and then the
  /// directory itself. Refuses to touch unrecognized files (the rmdir
  /// then fails, surfacing them). The DB must be closed first.
  static Status Destroy(const std::string& path);

  ~MultiVersionDB();

  // ---- writes ----

  /// Applies `batch` atomically: one commit timestamp stamps every
  /// record, secondary indexes update with it, readers see all of it or
  /// none. A write-write conflict with an open transaction fails the
  /// whole batch with nothing applied.
  Status Write(const WriteBatch& batch, Timestamp* commit_ts = nullptr);

  /// Writes one record in its own atomic commit (a one-entry batch).
  Status Put(const Slice& key, const Slice& value,
             Timestamp* commit_ts = nullptr);

  // ---- reads ----

  /// Point read at options.as_of (default: latest committed state),
  /// copying the value.
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value, Timestamp* ts = nullptr);

  /// Zero-copy point read: when the version lives in the historical
  /// store, the PinnableValue pins the node blob (shared-blob cache or
  /// file mapping) and the value is a view into it — no value memcpy.
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableValue* value);

  /// The unified traversal surface: Seek/Next/Prev over keys as of
  /// options.as_of, NextVersion/SeekTimestamp along the current key's
  /// time axis.
  std::unique_ptr<VersionCursor> NewCursor(
      const ReadOptions& options = ReadOptions());

  // ---- transactions ----

  /// Starts an updater transaction (commit stamps all its writes with one
  /// timestamp and maintains secondary indexes).
  Status Begin(std::unique_ptr<txn::Transaction>* out) {
    return txns_->Begin(out);
  }

  /// Lock-free read-only transaction at the current time (section 4.1).
  txn::ReadTransaction BeginReadOnly() { return txns_->BeginReadOnly(); }

  // ---- secondary indexes (section 3.6) ----

  /// Registers a secondary index maintained from `extract`. If devices
  /// are null the DB creates (and owns) devices for the index: files
  /// under the database directory for a path-opened DB (so the index
  /// persists with the primary and is cataloged in the MANIFEST),
  /// in-memory devices otherwise.
  /// Must be called before any writes touch indexed records.
  /// Calling it for an index the MANIFEST re-attached at Open installs
  /// `extract` on the existing index and returns OK (extractors are code,
  /// not data — they cannot persist, so reopen re-binds them here or via
  /// DbOptions::index_extractors).
  Status CreateSecondaryIndex(const std::string& name, KeyExtractor extract,
                              Device* magnetic = nullptr,
                              Device* historical = nullptr);

  /// Returns the named index (nullptr if absent).
  SecondaryIndex* index(const std::string& name);

  /// Records whose secondary key under `index_name` was `secondary` at
  /// options.as_of, with their primary values fetched as of the same
  /// time.
  Status FindBySecondary(const ReadOptions& options,
                         const std::string& index_name,
                         const Slice& secondary,
                         std::vector<std::pair<std::string, std::string>>*
                             key_values);

  // ---- maintenance ----

  /// What Open's recovery pass did (path-based WAL-enabled DBs; zeros
  /// after a clean shutdown).
  struct RecoveryStats {
    /// A crashed checkpoint's double-write journal was re-applied.
    bool journal_applied = false;
    /// The WAL ended in a torn (partially written) frame that was
    /// truncated away.
    bool tail_truncated = false;
    /// Uncommitted (never-stamped) records erased before replay.
    uint64_t purged_uncommitted = 0;
    /// Commit frames re-applied from the WAL (frames already present in
    /// the checkpointed base are detected and skipped).
    uint64_t frames_replayed = 0;
    uint64_t ops_replayed = 0;
    /// Bytes of WAL scanned by replay.
    uint64_t wal_bytes_scanned = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Forces a checkpoint: freezes commits, makes the WAL durable, writes
  /// every tree's dirty pages + metadata crash-atomically (double-write
  /// journal), then truncates or rotates the log. Runs automatically when
  /// the WAL exceeds DbOptions::wal_checkpoint_bytes and at clean close.
  /// No-op for DBs without a WAL.
  Status Checkpoint();

  /// The write-ahead log (nullptr when disabled / raw-device DB). Exposed
  /// for stats; appending to it directly voids the warranty. Rotation
  /// replaces the object, so do not cache or call this concurrently with
  /// writes — quiesced inspection only.
  wal::Wal* wal() { return wal_.get(); }

  /// The most recent failure of an automatic (size-triggered) checkpoint,
  /// OK if none. Write() does NOT surface that failure — the commit it
  /// rode on already landed durably in the log, and returning an error
  /// for a committed write invites a double-apply retry. Health checks
  /// poll here instead; the next checkpoint (automatic or explicit)
  /// clears it on success.
  Status LastCheckpointError() const;

  // ---- degraded read-only mode (see db/error_handler.h) ----

  /// The sticky background error, OK when healthy. Any failed page write,
  /// WAL append/sync, checkpoint, or manifest rename lands here and flips
  /// the DB into degraded read-only mode: reads/cursors/snapshots keep
  /// serving, Write/Checkpoint/Flush fail fast with this cause.
  Status BackgroundError() const;
  bool degraded() const;

  /// Manual recovery from a TRANSIENT background error: purges the
  /// half-stamped records of every failed commit, re-establishes
  /// durability from the in-memory pages with a recovery-grade checkpoint
  /// onto a FRESH log file (the poisoned one is abandoned, never re-
  /// synced — a failed fsync may have dropped its tail with the error
  /// consumed), then lifts the read watermark. Refuses hard errors with
  /// the original cause. See also DbOptions::auto_resume.
  Status Resume();

  /// Degradation/resume counters plus the last reported error.
  ErrorHandlerStats error_stats() const;
  ErrorHandler* error_handler() { return errors_.get(); }

  // ---- scrub & quarantine (see db/scrubber.h) ----

  /// One full scrub pass, synchronously: every page slot of every base
  /// device (primary + secondary indexes), every historical blob
  /// (bypassing and, on mismatch, invalidating the verified memo), the
  /// durable prefix of the live WAL, the MANIFEST, and the retired
  /// checkpoint journal. Serializes against checkpoints (commits keep
  /// flowing). Corrupt pages are quarantined per page; WAL-tail hits
  /// degrade the DB transiently (Resume repairs by checkpointing onto a
  /// fresh log); MANIFEST hits degrade hard. Returns non-OK only for I/O
  /// errors running the scrub itself — detected corruption is reported
  /// through stats + the ErrorHandler, not the return status.
  Status Scrub(ScrubStats* stats = nullptr);

  /// Cumulative totals over every completed scrub pass.
  ScrubStats scrub_stats() const;

  /// One quarantined page: reads touching it fail with its cause;
  /// everything else keeps serving. Resume() repairs quarantined pages
  /// from the retired checkpoint journal when the image is present.
  struct QuarantinedPage {
    std::string tree;  ///< "primary" or the secondary index name
    uint32_t page_id;
    std::string cause;
  };
  std::vector<QuarantinedPage> quarantined_pages() const;
  uint64_t quarantined_count() const;

  // ---- sharded-facade hooks (see src/shard/sharded_db.h) ----

  /// Re-applies one externally logged commit (a sharded coordinator's
  /// decision record) to this DB: primary records plus secondary-index
  /// maintenance. Nothing is appended to this DB's own WAL — the slice
  /// stays durable through the COORDINATOR's record, which the facade
  /// keeps until every shard has checkpointed past it. Idempotent: a
  /// slice already present (stamped before the crash, or carried by the
  /// checkpointed base) is detected and skipped. Must not race other
  /// writes to the same keys.
  Status ReplayExternalCommit(const wal::WalCommit& commit);

  /// Purges every record stamped `ts` from the primary and all secondary
  /// indexes — the repair hook for a cross-shard commit that failed
  /// mid-stamp on some shard. Call only while `ts` is above the
  /// published watermark (no reader has seen the records).
  Status PurgeCommittedAt(Timestamp ts, uint64_t* purged = nullptr);

  Status Flush();
  Status ComputeSpaceStats(tsb_tree::SpaceStats* out) {
    return tree_->ComputeSpaceStats(out);
  }

  /// Historical read-path counters for the primary index plus every
  /// secondary index: blob reads/bytes, shared-blob cache hit ratio,
  /// mapped vs copied miss bytes, and view vs. owned node decodes. Safe
  /// to call concurrently with readers.
  HistReadStats HistStats() const;

  /// Buffer-pool counters (magnetic axis) aggregated over the primary and
  /// every secondary index — together with HistStats this makes mixed
  /// current/historical workloads diagnosable end to end.
  BufferPoolStats PoolStats() const;

  tsb_tree::TsbTree* primary() { return tree_.get(); }
  txn::TxnManager* txn_manager() { return txns_.get(); }
  /// Committed watermark — the time at which as-of queries see every
  /// finished transaction and no in-flight one.
  Timestamp Now() const { return tree_->VisibleNow(); }
  /// Directory backing a path-opened DB; empty for raw-device DBs.
  const std::string& path() const { return path_; }

 private:
  explicit MultiVersionDB(const DbOptions& options) : options_(options) {}

  Status OnCommit(const std::string& key, const std::string* old_value,
                  const std::string& new_value, Timestamp ts);

  struct IndexEntryDef {
    KeyExtractor extract;
    // True while the index was re-attached from the MANIFEST catalog and
    // no explicit CreateSecondaryIndex call has claimed it yet.
    bool from_catalog = false;
    // Devices owned iff created internally. Declared BEFORE the index so
    // they outlive the tree's destructor (which flushes to them).
    std::unique_ptr<Device> owned_magnetic;
    std::unique_ptr<Device> owned_historical;
    std::unique_ptr<SecondaryIndex> index;
  };

  /// Shared body of CreateSecondaryIndex and the Open-time catalog
  /// re-attachment.
  Status RegisterIndex(const std::string& name, KeyExtractor extract,
                       bool from_catalog, Device* magnetic,
                       Device* historical);

  /// Rewrites the MANIFEST with the current geometry + index catalog +
  /// WAL position (path-backed DBs only).
  Status PersistManifest();

  /// Installs the TxnManager commit hook once the first index exists.
  /// Deliberately lazy: with a hook every commit holds the commit mutex
  /// through stamping, so an index-less DB keeps stamping in parallel.
  void InstallCommitHook();

  // ---- durability (path-based, WAL-enabled DBs) ----

  /// Open-time recovery: no-steal the pools, purge uncommitted ghosts
  /// after an unclean shutdown, replay the committed WAL tail past the
  /// checkpoint, then open the log for appending and mark the MANIFEST
  /// dirty. `journal_applied` = CheckpointJournal::Recover re-applied a
  /// crashed checkpoint before the devices were opened.
  Status RecoverWal(bool manifest_clean, bool journal_applied);

  /// Publishes `ts` (capped at each clock's issued time) on the primary
  /// clock and every index tree's clock during WAL replay.
  void PublishReplayed(Timestamp ts);

  /// Applies one replayed commit frame: primary records via
  /// ReplayCommitted plus secondary-index maintenance re-derived from the
  /// pre-image. Skips frames already present in the checkpointed base.
  Status ApplyWalCommit(const wal::WalCommit& commit);

  /// Checkpoint body; caller holds checkpoint_mu_. Freezes commits around
  /// CheckpointFrozen.
  Status CheckpointLocked();

  /// Checkpoint with commits already frozen (caller holds checkpoint_mu_
  /// AND the freeze). `for_resume` is the degraded-mode repair variant:
  /// skips Wal::SyncAll (the poisoned log must not be retry-and-trusted;
  /// the in-memory pages being checkpointed are the trusted copy) and
  /// force-rotates to a fresh log file regardless of size.
  Status CheckpointFrozen(bool for_resume);

  /// The ErrorHandler's resume_fn: the actual degraded-mode repair.
  /// Serialized by the handler; see Resume() for the steps.
  Status ResumeImpl();

  /// Creates errors_ and plumbs the commit gate / error reporters into
  /// the TxnManager. Both Open overloads call it.
  void SetupErrorHandler();

  /// Installs the pager corruption reporter (quarantine routing) and the
  /// paranoid_checks verify-on-read toggle on one tree. Both Open
  /// overloads call it for the primary; RegisterIndex for each index.
  void InstallCorruptionReporter(const std::string& tree_name,
                                 tsb_tree::TsbTree* tree);

  /// Records a corrupt page in the quarantine map (idempotent per page)
  /// and notifies the ErrorHandler. Does NOT degrade the DB.
  void AddQuarantine(const std::string& tree_name, uint32_t page_id,
                     const Status& cause);

  /// Rewrites every quarantined page from the retired checkpoint
  /// journal's image (under no-steal that image IS the page's current
  /// content when the corruption was detected on a buffer-pool miss).
  /// Pages without a retained image stay quarantined.
  Status RepairQuarantined(uint64_t* repaired);

  /// Scrub body; caller holds checkpoint_mu_.
  Status ScrubLocked(ScrubStats* stats);

  void StartScrubThread();
  void StopScrubThread();

  /// Installs the sync-failure escalation hook on a (fresh) log object.
  void InstallWalReporter(wal::Wal* wal);

  DbOptions options_;
  bool hook_installed_ = false;
  std::string path_;  // set by path-based Open
  // Primary devices owned by path-based Open. Declared BEFORE tree_ /
  // indexes_: destruction runs in reverse, so the trees flush to live
  // devices.
  std::unique_ptr<Device> owned_magnetic_;
  std::unique_ptr<Device> owned_historical_;
  std::unique_ptr<tsb_tree::TsbTree> tree_;
  std::unique_ptr<txn::TxnManager> txns_;
  std::map<std::string, IndexEntryDef> indexes_;

  // WAL state (null / zero for raw-device or WAL-disabled DBs). wal_ is
  // declared after tree_/txns_ but torn down explicitly in ~MultiVersionDB
  // (after the final checkpoint, before the trees destruct).
  // CONCURRENCY: wal_ itself is swapped at rotation under checkpoint_mu_
  // (with commits frozen); hot paths must never read it bare. Write()'s
  // checkpoint trigger goes through wal_enabled_ (immutable after Open)
  // and TxnManager::wal_appended_lsn() instead.
  std::unique_ptr<wal::Wal> wal_;
  bool wal_enabled_ = false;        // set once in RecoverWal, never cleared
  uint32_t wal_seq_ = 0;            // live log file: wal-<seq>.tsb
  uint64_t wal_checkpoint_lsn_ = 0; // replay starts here (MANIFEST copy)
  bool clean_shutdown_ = true;      // MANIFEST flag mirrored in memory
  RecoveryStats recovery_stats_;
  std::mutex checkpoint_mu_;        // serializes Checkpoint()
  std::atomic<bool> checkpoint_pending_{false};  // auto-trigger claim
  mutable std::mutex ckpt_err_mu_;  // guards last_checkpoint_error_
  Status last_checkpoint_error_;    // see LastCheckpointError()

  // Quarantine + scrub state. quarantine_mu_ is a leaf lock (never held
  // while calling into trees/pager); the pager corruption reporter fires
  // outside pager locks, so AddQuarantine may be called from any reader
  // thread.
  mutable std::mutex quarantine_mu_;
  std::map<std::pair<std::string, uint32_t>, Status> quarantined_;
  mutable std::mutex scrub_stats_mu_;
  ScrubStats scrub_totals_;
  // Background scrubber (DbOptions::scrub_background). Stopped in the
  // destructor BEFORE any teardown — it walks live devices.
  std::thread scrub_thread_;
  std::mutex scrub_thread_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;

  // Background-error state machine. Declared LAST so it is destroyed
  // first, but the destructor additionally calls Shutdown() up front: the
  // auto-resume thread must be quiescent before the trees/WAL it repairs
  // start tearing down.
  std::unique_ptr<ErrorHandler> errors_;
};

}  // namespace db
}  // namespace tsb

#endif  // TSBTREE_DB_MULTIVERSION_DB_H_
