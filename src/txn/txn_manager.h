// Transaction support for the TSB-tree, paper section 4.
//
// Updaters write uncommitted records (no timestamp) through the tree; at
// commit every written key is stamped with one commit timestamp issued by
// the tree's logical clock; on abort the uncommitted records are erased —
// possible precisely because the current database is erasable.
//
// Read-only transactions (section 4.1) take a start timestamp and read
// versions as of that time WITHOUT any locks: they never see uncommitted
// data (it has no timestamp) and never wait for updaters, because no
// updater can commit at or before an already-issued timestamp.
//
// Write-write conflicts between concurrent transactions are rejected
// eagerly (first-writer-wins lock table).
#ifndef TSBTREE_TXN_TXN_MANAGER_H_
#define TSBTREE_TXN_TXN_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "tsb/cursor.h"
#include "tsb/pinnable_value.h"
#include "tsb/tsb_tree.h"
#include "txn/write_batch.h"
#include "wal/wal.h"

namespace tsb {
namespace txn {

class CommitLedger;
class TxnManager;

/// An updater transaction. Obtain via TxnManager::Begin; finish with
/// Commit or Abort (destruction aborts a still-active transaction).
/// A Transaction object belongs to one thread; different transactions may
/// run on different threads concurrently (first-writer-wins key locks
/// resolve conflicts, the tree latches page mutations internally).
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  bool active() const { return active_; }

  /// Buffers an uncommitted version of `key`. Fails with TxnConflict if
  /// another active transaction wrote the key first.
  Status Put(const Slice& key, const Slice& value);

  /// Reads through the transaction: own uncommitted write first, then the
  /// latest committed version.
  Status Get(const Slice& key, std::string* value);

  /// Stamps every written key with one new commit timestamp.
  Status Commit(Timestamp* commit_ts = nullptr);

  /// Erases every uncommitted record this transaction wrote.
  Status Abort();

  size_t write_count() const { return writes_.size(); }

 private:
  friend class TxnManager;
  Transaction(TxnManager* mgr, TxnId id) : mgr_(mgr), id_(id) {}

  TxnManager* mgr_;
  TxnId id_;
  bool active_ = true;
  std::map<std::string, std::string> writes_;  // key -> newest value
};

/// A lock-free read-only transaction: a captured timestamp (section 4.1).
class ReadTransaction {
 public:
  ReadTransaction(tsb_tree::TsbTree* tree, Timestamp ts)
      : tree_(tree), ts_(ts) {}

  Timestamp timestamp() const { return ts_; }

  /// Reads the version of `key` valid at the transaction's timestamp.
  Status Get(const Slice& key, std::string* value,
             Timestamp* version_ts = nullptr) {
    return tree_->Get(options(), key, value, version_ts);
  }

  /// Zero-copy read at the transaction's timestamp (see
  /// TsbTree::Get(ReadOptions, key, PinnableValue*)).
  Status Get(const Slice& key, tsb_tree::PinnableValue* value) {
    return tree_->Get(options(), key, value);
  }

  /// Cursor over the key x time rectangle pinned at the transaction's
  /// timestamp — key order gives the paper's lock-free backup/unload scan.
  std::unique_ptr<tsb_tree::VersionCursor> NewCursor() {
    return tree_->NewCursor(options());
  }

 private:
  tsb_tree::ReadOptions options() const {
    tsb_tree::ReadOptions options;
    options.as_of = ts_;
    return options;
  }

  tsb_tree::TsbTree* tree_;
  Timestamp ts_;
};

/// Issues transactions over one TsbTree. Thread-safe: the lock table is
/// mutex-guarded, transaction ids and the active count are atomic, and
/// BeginReadOnly is genuinely lock-free (one atomic clock load — paper
/// section 4.1: readers never wait for updaters).
class TxnManager {
 public:
  /// Called once per committed key, after stamping, with the previous
  /// committed value (nullptr if the key is new). Used by the DB layer to
  /// maintain secondary indexes.
  using CommitHook = std::function<Status(
      const std::string& key, const std::string* old_value,
      const std::string& new_value, Timestamp commit_ts)>;

  explicit TxnManager(tsb_tree::TsbTree* tree) : tree_(tree) {}

  /// Starts an updater transaction.
  Status Begin(std::unique_ptr<Transaction>* out);

  /// Applies `batch` atomically under one commit timestamp: every key is
  /// locked (first-writer-wins; a conflict fails the WHOLE batch with
  /// nothing applied), written uncommitted, then stamped and published as
  /// one transaction — secondary indexes update with the same timestamp
  /// through the commit hook.
  Status Write(const WriteBatch& batch, Timestamp* commit_ts = nullptr);

  /// Starts a lock-free reader pinned at the committed watermark (one
  /// atomic load; never blocks, never takes a mutex). The watermark only
  /// covers fully-stamped commits, so the reader can never observe a torn
  /// multi-key transaction — the paper's 4.1 guarantee that no updater
  /// commits at or before an already-issued read timestamp.
  ReadTransaction BeginReadOnly() {
    return ReadTransaction(tree_, tree_->VisibleNow());
  }

  /// Not thread-safe relative to in-flight commits; install before
  /// concurrent use (the DB layer does this when the first secondary
  /// index is registered). With a hook every commit holds the commit
  /// mutex through stamping and the hook, so commits apply one at a time:
  /// index maintenance must apply in timestamp order.
  void SetCommitHook(CommitHook hook) { hook_ = std::move(hook); }

  /// Installs the write-ahead log every commit appends to before
  /// stamping. Not thread-safe relative to in-flight commits; the DB
  /// layer installs it during Open (before handing the manager out) and
  /// swaps it at log rotation with commits frozen.
  /// nullptr = no logging (raw-device databases).
  void SetWal(wal::Wal* wal) {
    wal_ = wal;
    wal_appended_lsn_.store(wal != nullptr ? wal->appended_lsn() : 0,
                            std::memory_order_release);
  }
  wal::Wal* wal() const { return wal_; }

  /// End offset of the last commit frame this manager appended to the
  /// CURRENT log (resets on SetWal at rotation). This — not
  /// Wal::appended_lsn() — is what the DB layer's size-triggered
  /// checkpoint must poll: it is updated under commit_mu_ while the Wal
  /// object is pinned by the in-flight commit, so reading it never
  /// touches a Wal that a concurrent rotation is destroying.
  uint64_t wal_appended_lsn() const {
    return wal_appended_lsn_.load(std::memory_order_acquire);
  }

  /// Degraded-mode gate, checked at every commit start (after any freeze
  /// wait, before the commit timestamp is issued). Returns the sticky
  /// background error when the DB is degraded so commits fail fast with
  /// the original cause instead of wedging further. Install before
  /// concurrent use (the DB layer does, during Open).
  using CommitGate = std::function<Status()>;
  void SetCommitGate(CommitGate gate) { gate_ = std::move(gate); }

  /// Called (outside internal locks) when a commit fails in a way that
  /// sickens the database: a WAL append failure, or ANY failure after the
  /// commit timestamp entered the stamping pipeline (mid-stamp, sync,
  /// index hook) — those poison the read watermark until repaired. The DB
  /// layer escalates into its ErrorHandler. Install before concurrent use.
  using ErrorReporter =
      std::function<void(const std::string& context, const Status& s)>;
  void SetErrorReporter(ErrorReporter fn) { reporter_ = std::move(fn); }

  /// Attaches the cross-shard commit ledger (sharded databases share one
  /// clock across N trees; see txn/commit_ledger.h). With a ledger,
  /// commit-timestamp allocation and watermark publication route through
  /// it — this manager never publishes on its own — so one watermark
  /// spans every shard. Install before concurrent use (the sharded
  /// facade does, during Open). nullptr = standalone database.
  void SetLedger(CommitLedger* ledger) { ledger_ = ledger; }
  CommitLedger* ledger() const { return ledger_; }

  /// Commits `txn` at an EXTERNALLY allocated timestamp — the shard-side
  /// half of a cross-shard commit. The caller has already allocated `ts`
  /// on the shared clock, registered it in the ledger (pinning the
  /// watermark below it) and made the cross-shard decision durable in its
  /// coordinator log; this call appends the shard's slice to the shard
  /// WAL, stamps it, and rides the group-commit sync — but does NOT
  /// publish or retire the ledger entry: the caller does, once every
  /// touched shard has finished. On failure the half-stamped records are
  /// tracked for purge by this shard's Resume, while the ledger
  /// poison/unpoison lifecycle for `ts` stays with the caller (the slice
  /// is re-applied from the coordinator log before the pin lifts).
  Status CommitPrepared(Transaction* txn, Timestamp ts);

  /// Commits that held the commit mutex through stamping because a
  /// commit hook (secondary-index maintenance) was installed: the hook
  /// requires timestamp-ordered application, so these commits did not
  /// stamp in parallel. A growing counter on an indexed workload is the
  /// signal that indexed commits are the write-scaling bottleneck.
  uint64_t serial_fallback_commits() const {
    return serial_fallback_commits_.load(std::memory_order_relaxed);
  }

  /// Commit timestamps that ticked and then failed mid-commit: whatever
  /// records they half-stamped are invisible (the poisoned watermark caps
  /// below every one of them) and must be purged from every tree before
  /// degraded mode can lift. Snapshot, in tick order.
  std::vector<Timestamp> failed_commits();

  /// Post-repair reset, called by the DB's Resume with commits frozen and
  /// the failed timestamps already purged: clears the failed list, lifts
  /// the poisoned watermark, and publishes the completed maximum — acked
  /// commits that finished AFTER the poisoning (durable but invisible
  /// until now) become readable again.
  void ResetAfterRepair();

  /// Blocks NEW commits and waits until every in-flight commit finishes
  /// (stamped, synced, bookkept). While frozen, the WAL end is exactly
  /// the committed state of the tree — the checkpoint invariant. Commits
  /// resume on UnfreezeCommits. One freezer at a time; reentrant freezing
  /// deadlocks (the DB layer serializes checkpoints).
  void FreezeCommits();
  void UnfreezeCommits();

  size_t active_txns() const {
    return active_count_.load(std::memory_order_acquire);
  }
  tsb_tree::TsbTree* tree() { return tree_; }

 private:
  friend class Transaction;

  Status LockKey(const std::string& key, TxnId txn);
  void UnlockKeys(const Transaction& txn);
  Status CommitTxn(Transaction* txn, Timestamp* commit_ts);
  /// Shared body of CommitTxn and CommitPrepared. `external_ts` == 0
  /// means "allocate one here" (ledger or tree clock); nonzero means the
  /// caller allocated, pins the watermark, and publishes.
  Status CommitInternal(Transaction* txn, Timestamp* commit_ts,
                        Timestamp external_ts);
  Status AbortTxn(Transaction* txn);

  tsb_tree::TsbTree* tree_;
  CommitHook hook_;
  CommitGate gate_;        // may be empty (no degraded-mode plumbing)
  ErrorReporter reporter_; // may be empty
  CommitLedger* ledger_ = nullptr;  // may be null (standalone DB)
  std::atomic<uint64_t> serial_fallback_commits_{0};
  wal::Wal* wal_ = nullptr;
  /// Mirror of the live log's append offset, written only under
  /// commit_mu_ (appends and SetWal both hold it, directly or via the
  /// rotation freeze); see wal_appended_lsn().
  std::atomic<uint64_t> wal_appended_lsn_{0};
  std::atomic<TxnId> next_txn_{1};
  std::atomic<size_t> active_count_{0};
  std::mutex lock_mu_;  // guards lock_table_
  std::map<std::string, TxnId> lock_table_;
  // Serializes the tick and the log append, and guards publish_cap_,
  // inflight_ and completed_max_; the stamping phase runs unlocked unless
  // a commit hook is installed (see CommitInternal).
  std::mutex commit_mu_;
  /// Signals commit starts blocked by a freeze and the freezer's drain
  /// wait; guarded by commit_mu_.
  std::condition_variable commit_cv_;
  bool frozen_ = false;
  Timestamp publish_cap_ = kMaxCommittedTs;
  // Commit timestamps ticked but not yet fully stamped. The publishable
  // watermark is the largest timestamp below every member: publishing an
  // ordered prefix keeps the 4.1 guarantee (readers never see a torn or
  // skipped commit) without serializing the stamping work itself.
  std::set<Timestamp> inflight_;
  Timestamp completed_max_ = 0;
  /// Ticked-then-failed commit timestamps awaiting purge; see
  /// failed_commits(). Guarded by commit_mu_.
  std::vector<Timestamp> failed_commits_;
  /// Subset of failed_commits_ whose timestamps were EXTERNALLY allocated
  /// (CommitPrepared): this shard's Resume purges their records, but must
  /// NOT lift their ledger pins — the cross-shard coordinator re-applies
  /// the decided slices first and unpoisons afterwards. Guarded by
  /// commit_mu_.
  std::set<Timestamp> failed_external_;
};

}  // namespace txn
}  // namespace tsb

#endif  // TSBTREE_TXN_TXN_MANAGER_H_
