// The Time-Split B-tree (paper section 3): a single integrated index over
// a current database on an erasable device and a historical database on an
// append-only device, with key splits, time splits at a chooseable time,
// and incremental one-node-at-a-time migration.
#ifndef TSBTREE_TSB_TSB_TREE_H_
#define TSBTREE_TSB_TSB_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/append_store.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tsb/data_page.h"
#include "tsb/index_page.h"
#include "tsb/pinnable_value.h"
#include "tsb/split_policy.h"
#include "tsb/tsb_stats.h"

namespace tsb {
namespace tsb_tree {

class VersionCursor;

/// Sentinel for ReadOptions::as_of: read at the committed watermark (the
/// newest time at which every finished transaction is visible and no
/// in-flight one is).
inline constexpr Timestamp kAsOfLatest = kInfiniteTs;

/// Per-read options, threaded through every read entry point. The read
/// timestamp is the explicit choice point every multiversion query has;
/// making it an option (instead of method variants) keeps one read
/// surface for "now", "as of t" and snapshot-handle reads.
struct ReadOptions {
  /// Timestamp the read observes (stepwise-constant semantics, Fig 1).
  /// kAsOfLatest = the committed watermark.
  Timestamp as_of = kAsOfLatest;
  /// Re-verify blob checksums even when a previous pin already did.
  bool verify_checksums = false;
  /// Publish cold historical blobs into the shared read cache.
  bool fill_cache = true;
};

struct TsbOptions {
  uint32_t page_size = kDefaultPageSize;
  size_t buffer_pool_frames = 256;
  /// Shared-blob read cache for the historical store (0 = none). Cache
  /// hits pin the cached blob — no copy, no decode — so sizing this to the
  /// historical working set makes as-of reads allocation-free.
  size_t hist_cache_blobs = 8;
  /// Cells per restart block in newly written historical nodes (always
  /// the v3 prefix-compressed format; v1/v2 nodes stay readable). Smaller
  /// blocks decode fewer cells per lookup (long-key workloads); larger
  /// blocks compress better (many short versions per key).
  /// Read-compatible in every direction — the interval is stored per
  /// node.
  uint32_t hist_restart_interval = kHistRestartInterval;
  /// Has no effect. Every tree runs the one write path described in the
  /// TsbTree thread model (optimistic latch coupling); the field remains
  /// only so existing callers that assign it still compile.
  bool concurrent_writers = false;
  /// Commit clock shared with other trees (must outlive this one).
  /// nullptr = the tree owns a private clock, the historical default.
  /// One injected clock spanning N trees is what gives a sharded database
  /// a single timestamp axis: a commit ts allocated on any shard is
  /// meaningful on every shard, and one published watermark covers them
  /// all. The clock's Visible() watermark then moves only through
  /// whoever coordinates the sharing (see txn::CommitLedger).
  LogicalClock* external_clock = nullptr;
  SplitPolicyConfig policy;
};

/// Converts public read options into the blob-read hints the node layer
/// consumes. `sequential` marks range scans (mapped reads then advise
/// kernel readahead over the scanned range).
inline BlobReadHints MakeBlobReadHints(const ReadOptions& options,
                                       bool sequential = false) {
  BlobReadHints h;
  h.verify_checksums = options.verify_checksums;
  h.fill_cache = options.fill_cache;
  h.sequential = sequential;
  return h;
}

/// A fully decoded node, for iterators, the checker and tools. Either
/// `data` (level == 0) or `index` (level > 0) is populated.
struct DecodedNode {
  uint8_t level = 0;
  bool historical = false;
  std::vector<DataEntry> data;
  std::vector<IndexEntry> index;
  bool is_data() const { return level == 0; }
};

/// The Time-Split B-tree.
///
/// Writes:
///  - Put(key, value, ts)            committed version, ts non-decreasing
///  - PutUncommitted(key, value, txn) version without timestamp (section 4)
///  - StampCommitted(key, txn, ts)   commit an uncommitted version in place
///  - EraseUncommitted(key, txn)     abort cleanup (erasable current DB)
/// Reads:
///  - Get(ReadOptions{.as_of = T}, key)  version valid at T
///  - GetCurrent / GetUncommitted        internal read-past-watermark probes
///  - NewCursor(ReadOptions)             key-ordered state as of T plus each
///                                       key's versions, newest first
///  - ScanHistoryRange                   versions written in a time window
///
/// Thread model (paper section 4.1 extended with optimistic latch
/// coupling on the write path):
///  - Mutators hold the writer mutex SHARED, so N writer threads proceed
///    in parallel, and descend with optimistic latch coupling: a brief
///    shared latch per internal page, PageHandle::version validation
///    after each child latch, an exclusive latch only on the target leaf.
///    A descent that loses a race side-steps along the leaf's B-link
///    sibling pointer (concurrent key split) or restarts from the root.
///    Structural changes (splits, root growth) additionally serialize on
///    an internal structure mutex, so index pages mutate one split at a
///    time. Quiescing maintenance (Flush, checkpoints, ComputeSpaceStats,
///    bounded cursor fallbacks) takes the writer mutex exclusively and
///    thus excludes every mutator.
///  - A time split never picks a boundary above the published watermark
///    (clock().Visible()): every in-flight commit stamps above it. When
///    that cap is all that keeps a single-key leaf from splitting, the
///    inserting writer waits (bounded) for in-flight commits to publish.
///    Route committed writes through ONE discipline: either direct Put
///    calls or TxnManager commits, not both interleaved from different
///    threads (the commit watermark assumes it allocates the timestamps
///    it publishes).
///  - Read entry points never take the writer mutex. Point reads descend
///    the current pages with latch coupling: the child's shared frame
///    latch is acquired before the parent's is dropped, and every
///    structural change holds the parent and child exclusive latches
///    simultaneously, so a reader can never observe a parent entry and a
///    child page from different structural states. Historical nodes are
///    immutable blobs and need no latches.
///  - Scans (VersionCursor, and ScanHistoryRange on top of it) keep
///    pinned frames and revalidate per-page mutation counters,
///    transparently re-seeking when a split rewrote a page underneath
///    them; as-of-T results are stable because commit timestamps only
///    grow (section 4.1).
class TsbTree {
 public:
  /// Opens a tree. `magnetic` (erasable) holds the current database,
  /// `historical` (append-only; may be a WormDevice) holds migrated nodes.
  /// Both must outlive the tree.
  static Status Open(Device* magnetic, Device* historical,
                     const TsbOptions& options, std::unique_ptr<TsbTree>* out);

  ~TsbTree();

  // ---- writes ----

  /// Inserts a committed version. `ts` must be >= every previously written
  /// timestamp (commit order; the tree advances its clock to ts).
  Status Put(const Slice& key, const Slice& value, Timestamp ts);

  /// Inserts an uncommitted version for transaction `txn`. At most one
  /// uncommitted version per (key, txn); a second Put replaces it.
  Status PutUncommitted(const Slice& key, const Slice& value, TxnId txn);

  /// Stamps the uncommitted version of (key, txn) with commit time `ts`.
  Status StampCommitted(const Slice& key, TxnId txn, Timestamp ts);

  /// Stamps every (key, txn) pair in `keys` with the same commit time.
  /// `keys` must be sorted ascending and distinct (a WriteBatch commit);
  /// all keys landing on the same leaf are stamped in ONE descent, so a
  /// large batch costs O(leaves touched) descents instead of O(keys) —
  /// see counters().stamp_descents. Equivalent to per-key StampCommitted
  /// calls, including the mid-batch failure behavior (the caller poisons
  /// the watermark on error, so partial stamps never become visible).
  Status StampCommittedBatch(const std::vector<Slice>& keys, TxnId txn,
                             Timestamp ts);

  /// Erases the uncommitted version of (key, txn) — abort path.
  Status EraseUncommitted(const Slice& key, TxnId txn);

  // ---- reads ----

  /// Point lookup at options.as_of, copying the value into `*value`.
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value, Timestamp* ts = nullptr);

  /// Zero-copy point lookup at options.as_of: when the version resolves
  /// in the historical store the PinnableValue pins the node blob and the
  /// value is a view into it — no value memcpy on blob-cache/mmap hits.
  /// Values in mutable current pages are copied under the page latch.
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableValue* value);

  /// Latest committed version (including any not yet published by an
  /// in-flight multi-key commit — internal callers rely on this; user
  /// code should prefer Get with default ReadOptions).
  Status GetCurrent(const Slice& key, std::string* value,
                    Timestamp* ts = nullptr);

  /// Reads a transaction's own uncommitted version.
  Status GetUncommitted(const Slice& key, TxnId txn, std::string* value);

  /// The unified traversal surface: key-ordered Seek/Next/Prev at
  /// options.as_of plus NextVersion/SeekTimestamp along the current key's
  /// time axis. Safe to use while an updater runs (per-page revalidation
  /// re-seeks; the as-of state is immutable).
  std::unique_ptr<VersionCursor> NewCursor(const ReadOptions& options);

  /// Resolves a ReadOptions::as_of value (kAsOfLatest = the committed
  /// watermark) into a concrete timestamp.
  Timestamp ResolveAsOf(Timestamp as_of) const {
    return as_of == kAsOfLatest ? VisibleNow() : as_of;
  }

  /// One record of a range-history scan.
  struct VersionRecord {
    std::string key;
    Timestamp ts;
    std::string value;
  };

  /// Every committed version WRITTEN during [t_lo, t_hi) whose key lies in
  /// [key_lo, key_hi) (key_hi empty = unbounded), in (key, ts) order —
  /// the audit-trail query over a key range and time window. Duplicated
  /// copies (TIME-SPLIT RULE redundancy, straddler references) are emitted
  /// once. Runs on a VersionCursor at t_hi - 1: one key-axis step per
  /// key, one point probe per emitted version.
  Status ScanHistoryRange(const Slice& key_lo, const Slice& key_hi,
                          Timestamp t_lo, Timestamp t_hi,
                          std::vector<VersionRecord>* out);

  // ---- maintenance / stats ----

  /// Persists tree meta and flushes dirty pages.
  Status Flush();

  // ---- durability (WAL checkpoint + recovery; see src/wal/) ----

  /// Quiesced image of this tree's dirty state, captured by
  /// BeginCheckpoint. Holds the exclusive writer lock until
  /// FinishCheckpoint (or destruction), so no mutator runs between the
  /// journal snapshot and the in-place flush.
  struct CheckpointScope {
    std::unique_lock<std::shared_mutex> quiesce;
    std::string meta_image;  ///< page-0 image (unsealed)
    std::vector<std::pair<uint32_t, std::string>> dirty_pages;  ///< unsealed
  };

  /// Phase 1 of a crash-atomic checkpoint: takes the exclusive writer
  /// lock, syncs the historical device (journaled pages may reference
  /// freshly appended blobs), and snapshots the meta image + every dirty
  /// buffer-pool frame into `scope`. The caller journals the images, then
  /// calls FinishCheckpoint.
  Status BeginCheckpoint(CheckpointScope* scope);

  /// Phase 2: writes the snapshotted images in place (meta + FlushAll),
  /// syncs the current device, and releases the writer lock.
  Status FinishCheckpoint(CheckpointScope* scope);

  /// WAL recovery insert: like Put but exempt from the monotone-clock
  /// check (replay re-inserts timestamps the persisted clock already
  /// advanced past) and without publishing: the caller decides what is
  /// visible. It must still advance the watermark as replay proceeds, or
  /// no replayed version can time-split (see MultiVersionDB::RecoverWal).
  Status ReplayCommitted(const Slice& key, const Slice& value, Timestamp ts);

  /// Removes every uncommitted (ghost) version left behind by a crash
  /// mid-transaction. Recovery runs this before WAL replay; `*purged`
  /// counts removed versions.
  Status PurgeUncommitted(uint64_t* purged);

  /// Removes every version stamped exactly `ts` — the repair step for a
  /// commit that FAILED mid-stamp: its timestamp never published (the
  /// poisoned watermark caps below it), so the records were never reader-
  /// visible, and a time split can never have migrated them to historical
  /// nodes (split boundaries cap at the published watermark). Degraded-
  /// mode Resume runs this, with commits frozen, for each failed commit
  /// timestamp before lifting the watermark. `*purged` counts removals.
  Status PurgeCommittedAt(Timestamp ts, uint64_t* purged);

  /// Walks the whole DAG and computes the section-5 space metrics.
  Status ComputeSpaceStats(SpaceStats* out);

  const TsbCounters& counters() const { return counters_; }
  /// Historical read-path counters: blob reads/bytes, cache hit ratio,
  /// mapped vs copied miss bytes, view vs. owned node decodes and the
  /// written-node compression ratio. Safe to call concurrently with
  /// readers.
  HistReadStats HistStats() const;
  /// Buffer-pool counters for the magnetic (current-page) axis — the
  /// companion of HistStats so mixed workloads are diagnosable end to end.
  BufferPoolStats PoolStats() const { return pool_->stats(); }
  const TsbOptions& options() const { return options_; }
  /// The commit clock — the tree's own unless TsbOptions::external_clock
  /// injected a shared one.
  LogicalClock& clock() { return *clock_; }
  /// Latest issued timestamp (allocator; may lead the committed state
  /// while a transaction commit is in flight).
  Timestamp Now() const { return clock_->Now(); }
  /// Committed watermark: the correct start timestamp for lock-free
  /// readers — everything at or before it is fully stamped.
  Timestamp VisibleNow() const { return clock_->Visible(); }

  Pager* pager() { return pager_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  AppendStore* hist_store() { return hist_.get(); }

  // ---- introspection (iterators, checker, tests) ----

  NodeRef root() const {
    return NodeRef::Current(root_.load(std::memory_order_acquire));
  }
  uint32_t height() const { return height_.load(std::memory_order_acquire); }

  /// Decodes any node (current page or historical blob).
  Status ReadNode(const NodeRef& ref, DecodedNode* out);

 private:
  TsbTree(Device* magnetic, Device* historical, const TsbOptions& options);

  Status Load();

  struct PathElem {
    uint32_t page_id;
    int entry_idx;  // entry followed in THIS page to reach the child (-1 leaf)
  };

  /// Descends the current axis (T = kUncommittedTs) to the leaf for `key`,
  /// reading every page under a brief shared latch. Split code only: the
  /// caller holds structure_mu_, so index pages are stable, but leaves
  /// may still change under other writers' latches.
  Status DescendCurrent(const Slice& key, std::vector<PathElem>* path);

  /// The writer descent (optimistic latch coupling): descends
  /// to the leaf for `key` under brief shared latches with per-page
  /// version validation, and returns the leaf EXCLUSIVELY latched plus the
  /// parent entry (`pe`, identity rectangle when the leaf is the root)
  /// captured consistently with the leaf. Lost races side-step via the
  /// B-link sibling or restart from the root (bounded).
  Status LatchLeafOLC(const Slice& key, PageHandle* leaf, IndexEntry* pe);

  /// Where a point lookup delivers its result: exactly one of `value`
  /// (copying) or `pinned` (zero-copy blob view) is non-null.
  struct PointSink {
    std::string* value = nullptr;
    PinnableValue* pinned = nullptr;
    Timestamp* ts = nullptr;
  };

  /// Point lookup for (key, t); t <= kUncommittedTs. Fills the sink.
  /// Lock-free for callers: descends with shared latch coupling.
  Status SearchPoint(const Slice& key, Timestamp t, TxnId txn,
                     const BlobReadHints& hints, const PointSink& sink);

  /// Phase 2 of SearchPoint: continues a point lookup inside the
  /// historical store from `addr`, zero-copy (pinned blobs + view refs,
  /// binary-search descent).
  Status SearchHistPoint(HistAddr addr, const Slice& key, Timestamp t,
                         const BlobReadHints& hints, const PointSink& sink);

  /// Appends one serialized historical node and maintains the
  /// compression counters.
  Status AppendHistNode(const std::string& blob, uint64_t raw_bytes,
                        HistAddr* addr);

  /// Inserts `e` (committed or uncommitted), splitting as needed.
  Status InsertEntry(const DataEntry& e);

  /// Applies the content_floor_hints knob at every hint-stamping split
  /// site: disabled reproduces legacy cells (stored min_ts = 0), which
  /// TreeChecker::RepairContentFloors can later backfill.
  Timestamp ContentFloorHint(Timestamp floor) const {
    return policy_.config().content_floor_hints ? floor : 0;
  }

  /// Recursive walk for PurgeUncommitted (current axis only; historical
  /// nodes are immutable and never hold uncommitted versions).
  Status PurgeUncommittedRec(uint32_t page_id, uint64_t* purged);

  /// Recursive walk for PurgeCommittedAt (current axis only; see the
  /// public doc for why historical nodes cannot hold the timestamp).
  Status PurgeCommittedAtRec(uint32_t page_id, Timestamp ts,
                             uint64_t* purged);

  /// The split slow path of InsertEntry: re-descends under structure_mu_
  /// and splits the target leaf unless another writer already made room.
  /// `*wait_for` as in SplitDataPage.
  Status SplitForInsert(const DataEntry& e, Timestamp* wait_for);

  /// Splits the full leaf at path.back(); posts to parents; the caller
  /// re-descends afterwards. When only the watermark cap keeps a
  /// single-key leaf from time-splitting, returns OutOfSpace with
  /// `*wait_for` set to the watermark that unblocks the split (left
  /// untouched otherwise).
  Status SplitDataPage(const std::vector<PathElem>& path,
                       Timestamp* wait_for);

  /// Ensures the index page at path[idx] can absorb `need` more bytes,
  /// splitting it (and ancestors) if necessary. May grow the root. Sets
  /// *changed when the structure was altered (the caller must re-descend).
  Status EnsureIndexRoom(const std::vector<PathElem>& path, size_t idx,
                         uint32_t need, bool* changed);

  /// Splits the index page at path[idx] (key split or local time split).
  Status SplitIndexPage(const std::vector<PathElem>& path, size_t idx);

  /// Performs the local time split of an index page at `split_t` (Fig 8):
  /// migrates entries with t_hi <= split_t plus straddlers to the append
  /// store, keeps entries with t_hi > split_t, updates the parent.
  Status TimeSplitIndexPage(const std::vector<PathElem>& path, size_t idx,
                            const IndexEntry& pe, int pe_pos, uint8_t level,
                            const std::vector<IndexEntry>& entries,
                            Timestamp split_t);

  /// Creates a new root above the current one (entry covering everything).
  Status GrowRoot();

  /// Returns the parent entry bounds for the child at path position idx
  /// (identity rectangle for the root).
  Status ParentEntryFor(const std::vector<PathElem>& path, size_t idx,
                        IndexEntry* entry, int* pos_in_parent);

  /// Applies a time split to decoded data entries: partitions into
  /// historical and current sets per the TIME-SPLIT RULE.
  static void PartitionByTime(const std::vector<DataEntry>& all, Timestamp t,
                              std::vector<DataEntry>* hist,
                              std::vector<DataEntry>* current,
                              size_t* redundant);

  Status WalkStats(const NodeRef& ref, SpaceStats* stats,
                   std::vector<std::pair<std::string, Timestamp>>* versions,
                   std::vector<HistAddr>* seen_hist);

  TsbOptions options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<AppendStore> hist_;
  SplitPolicy policy_;
  /// Private clock, used only when no external clock was injected.
  LogicalClock own_clock_;
  /// The clock every timestamp decision goes through: &own_clock_ or
  /// TsbOptions::external_clock.
  LogicalClock* clock_;

  /// The writer lock. Mutators hold it SHARED — parallelism comes from
  /// per-page latches — while quiescing maintenance (Flush, checkpoints,
  /// ComputeSpaceStats, cursor fallbacks) takes it exclusively to stop
  /// all mutation.
  std::shared_mutex writer_mu_;
  /// Serializes structural changes (data/index splits, root growth).
  /// Lock order: writer_mu_ -> structure_mu_ -> page latches top-down
  /// (parent before child); never acquired while holding a page latch.
  /// Index pages mutate ONLY under this mutex, so split code may read
  /// them unlatched while holding it.
  std::mutex structure_mu_;

  /// RAII mutator lock: writer_mu_ held shared (see writer_mu_).
  using WriterGuard = std::shared_lock<std::shared_mutex>;

  std::atomic<uint32_t> root_{kInvalidPageId};
  std::atomic<uint32_t> height_{1};
  TsbCounters counters_;  // atomic fields; see tsb_stats.h
  mutable HistDecodeCounters hist_decodes_;  // bumped by lock-free readers
  // Written-node compression accounting (writer-only stores, but read by
  // HistStats concurrently, hence atomic).
  std::atomic<uint64_t> hist_node_raw_bytes_{0};
  std::atomic<uint64_t> hist_node_stored_bytes_{0};

  friend class VersionCursor;
  friend class TreeChecker;
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_TSB_TREE_H_
