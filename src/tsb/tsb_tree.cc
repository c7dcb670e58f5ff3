#include "tsb/tsb_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/logger.h"
#include "storage/page.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"

namespace tsb {
namespace tsb_tree {

namespace {

constexpr uint32_t kMetaMagic = 0x54534231;  // "TSB1"
constexpr int kMaxInsertRetries = 64;
// How long a writer waits for in-flight commits to publish so that a
// watermark-capped time split can migrate history. Commits publish within
// microseconds to milliseconds; a watermark pinned this long is poisoned
// (a failed commit awaiting repair), and waiting longer would not help.
constexpr std::chrono::milliseconds kWatermarkWait{2000};

// Waits until `clock` publishes `t`, up to kWatermarkWait. Yields first
// (a descheduled committer usually finishes within a few time slices),
// then sleeps in short steps.
bool WaitForVisible(const LogicalClock& clock, Timestamp t) {
  const auto deadline = std::chrono::steady_clock::now() + kWatermarkWait;
  for (int spin = 0; clock.Visible() < t; ++spin) {
    if (spin < 64) {
      std::this_thread::yield();
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// The earliest split time at which a time split of a single-key leaf sheds
// a version: the key's second-oldest committed version (it stays in the
// leaf, the oldest moves out), and never at or below the region's lower
// bound `t_lo`. 0 when fewer than two versions are committed — then no
// split time makes progress.
Timestamp EarliestSheddingSplitTime(const std::vector<DataEntry>& entries,
                                    Timestamp t_lo) {
  Timestamp oldest = kInfiniteTs;
  Timestamp second = kInfiniteTs;
  for (const DataEntry& e : entries) {
    if (e.uncommitted()) continue;
    if (e.ts < oldest) {
      second = oldest;
      oldest = e.ts;
    } else if (e.ts < second) {
      second = e.ts;
    }
  }
  if (second == kInfiniteTs) return 0;
  return std::max(second, t_lo + 1);
}

// Upper bound on the encoded size of an index entry we are about to create
// whose historical address and content-floor hint are not yet known
// (varints at their widest).
size_t IndexEntrySizeBound(const IndexEntry& prototype) {
  IndexEntry e = prototype;
  e.child = NodeRef::Historical(HistAddr{UINT64_MAX / 2, UINT32_MAX / 2});
  e.min_ts = UINT64_MAX / 2;
  return e.EncodedSize() + 8;
}

// Content-floor hint for an entry about to reference a data node holding
// exactly `entries`: the smallest committed timestamp present, or
// `fallback` when nothing is committed yet (uncommitted records stamp
// with a later timestamp than every commit so far, so any floor at or
// below the current clock is sound).
Timestamp DataContentFloor(const std::vector<DataEntry>& entries,
                           Timestamp fallback) {
  Timestamp min_ts = kInfiniteTs;
  for (const DataEntry& e : entries) {
    if (!e.uncommitted() && e.ts < min_ts) min_ts = e.ts;
  }
  return min_ts == kInfiniteTs ? fallback : min_ts;
}

// Content-floor hint for an entry about to reference an index node holding
// exactly `entries`: the subtree floor is the weakest child claim — and a
// single unknown child (0) makes the whole claim unknown.
Timestamp IndexContentFloor(const std::vector<IndexEntry>& entries) {
  Timestamp min_ts = kInfiniteTs;
  for (const IndexEntry& e : entries) {
    if (e.min_ts < min_ts) min_ts = e.min_ts;
  }
  return min_ts == kInfiniteTs ? 0 : min_ts;
}

// Slot + length-prefix overhead of one slotted cell.
constexpr uint32_t kCellOverhead = 4;

// Node-shape inputs (distinct keys, total key bytes) for the per-node
// restart-interval choice; `entries` are sorted, so runs are adjacent.
void DataNodeShape(const std::vector<DataEntry>& entries, size_t* distinct,
                   size_t* key_bytes) {
  *distinct = 0;
  *key_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    *key_bytes += entries[i].key.size();
    if (i == 0 || entries[i].key != entries[i - 1].key) ++*distinct;
  }
}

void IndexNodeShape(const std::vector<IndexEntry>& entries, size_t* distinct,
                    size_t* key_bytes) {
  *distinct = 0;
  *key_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    *key_bytes += entries[i].key_lo.size();
    if (i == 0 || entries[i].key_lo != entries[i - 1].key_lo) ++*distinct;
  }
}

}  // namespace

TsbTree::TsbTree(Device* magnetic, Device* historical,
                 const TsbOptions& options)
    : options_(options),
      pager_(std::make_unique<Pager>(magnetic, options.page_size)),
      pool_(std::make_unique<BufferPool>(pager_.get(),
                                         options.buffer_pool_frames)),
      hist_(std::make_unique<AppendStore>(historical,
                                          options.hist_cache_blobs)),
      policy_(options.policy),
      clock_(options.external_clock != nullptr ? options.external_clock
                                               : &own_clock_) {}

TsbTree::~TsbTree() {
  if (pool_->no_steal()) {
    // WAL-protected tree: the on-disk base only advances through crash-
    // atomic checkpoints (the DB layer runs one at clean close). Flushing
    // meta + dirty pages here would overwrite the checkpointed base with
    // un-journaled state — on a degraded close, possibly half a commit.
    return;
  }
  Status s = Flush();
  if (!s.ok()) {
    TSB_LOG_ERROR("tree close flush failed: %s", s.ToString().c_str());
  }
}

Status TsbTree::Open(Device* magnetic, Device* historical,
                     const TsbOptions& options,
                     std::unique_ptr<TsbTree>* out) {
  if (options.page_size < 512) {
    return Status::InvalidArgument("page_size must be >= 512");
  }
  std::unique_ptr<TsbTree> tree(new TsbTree(magnetic, historical, options));
  TSB_RETURN_IF_ERROR(tree->Load());
  *out = std::move(tree);
  return Status::OK();
}

Status TsbTree::Load() {
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  const char* p = meta.data() + kPageHeaderSize;
  if (DecodeFixed32(p) == kMetaMagic) {
    root_ = DecodeFixed32(p + 4);
    height_ = DecodeFixed32(p + 8);
    clock_->AdvanceTo(DecodeFixed64(p + 12));
    clock_->Publish(DecodeFixed64(p + 12));  // persisted state is committed
    // Restore the free list persisted after the fixed fields.
    const size_t fixed = 20;
    Slice rest(p + fixed, PageUsableSize(meta.data(), options_.page_size) -
                              kPageHeaderSize - fixed);
    Status s = pager_->DecodeFreeList(rest);
    if (!s.ok()) {
      TSB_LOG_WARN("free list not restored: %s", s.ToString().c_str());
    }
    return Status::OK();
  }
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbData, &h));
  DataPageRef::Format(h.data(), options_.page_size);
  h.MarkDirty();
  root_ = h.id();
  height_ = 1;
  return Status::OK();
}

Status TsbTree::Flush() {
  // Exclusive writer lock: quiesces every mutator in both writer modes so
  // the meta snapshot and the page flush are mutually consistent.
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  char* p = meta.data() + kPageHeaderSize;
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_.load(std::memory_order_acquire));
  EncodeFixed32(p + 8, height_.load(std::memory_order_acquire));
  EncodeFixed64(p + 12, clock_->Now());
  const size_t fixed = 20;
  std::string free_list;
  pager_->EncodeFreeList(&free_list,
                         PageUsableSize(meta.data(), options_.page_size) -
                             kPageHeaderSize - fixed - 8);
  memcpy(p + fixed, free_list.data(), free_list.size());
  TSB_RETURN_IF_ERROR(pager_->WriteMeta(meta.data()));
  return pool_->FlushAll();
}

// ---------------------------------------------------- durability (WAL)

Status TsbTree::BeginCheckpoint(CheckpointScope* scope) {
  // Exclusive writer lock, held until FinishCheckpoint: the journal
  // snapshot and the in-place flush must see the same tree state.
  scope->quiesce = std::unique_lock<std::shared_mutex>(writer_mu_);
  // Historical blobs referenced by the snapshotted pages must be durable
  // BEFORE the journal commits — recovery re-applies pages verbatim, and
  // a page pointing at a never-synced blob would dangle.
  TSB_RETURN_IF_ERROR(hist_->device()->Sync());
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  char* p = meta.data() + kPageHeaderSize;
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_.load(std::memory_order_acquire));
  EncodeFixed32(p + 8, height_.load(std::memory_order_acquire));
  EncodeFixed64(p + 12, clock_->Now());
  const size_t fixed = 20;
  std::string free_list;
  pager_->EncodeFreeList(&free_list,
                         PageUsableSize(meta.data(), options_.page_size) -
                             kPageHeaderSize - fixed - 8);
  memcpy(p + fixed, free_list.data(), free_list.size());
  scope->meta_image.assign(meta.data(), options_.page_size);
  scope->dirty_pages.clear();
  pool_->SnapshotDirty(&scope->dirty_pages);
  return Status::OK();
}

Status TsbTree::FinishCheckpoint(CheckpointScope* scope) {
  std::vector<char> meta(scope->meta_image.begin(), scope->meta_image.end());
  TSB_RETURN_IF_ERROR(pager_->WriteMeta(meta.data()));
  TSB_RETURN_IF_ERROR(pool_->FlushAll());
  TSB_RETURN_IF_ERROR(pager_->device()->Sync());
  scope->quiesce.unlock();
  return Status::OK();
}

Status TsbTree::ReplayCommitted(const Slice& key, const Slice& value,
                                Timestamp ts) {
  WriterGuard wl(writer_mu_);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  // No monotone-clock check: the persisted clock already advanced past
  // the timestamps the log re-inserts. Same-(key, ts) inserts replace in
  // place, so replaying an already-applied frame is idempotent.
  DataEntry e;
  e.key = key.ToString();
  e.ts = ts;
  e.txn = kNoTxn;
  e.value = value.ToString();
  TSB_RETURN_IF_ERROR(InsertEntry(e));
  clock_->AdvanceTo(ts);
  counters_.puts++;
  return Status::OK();
}

Status TsbTree::PurgeUncommitted(uint64_t* purged) {
  *purged = 0;
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  return PurgeUncommittedRec(root_.load(std::memory_order_acquire), purged);
}

Status TsbTree::PurgeUncommittedRec(uint32_t page_id, uint64_t* purged) {
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  if (TsbPageLevel(h.data()) == 0) {
    DataPageRef page(h.data(), options_.page_size);
    bool removed = false;
    for (int i = page.Count() - 1; i >= 0; --i) {
      DataEntryView v;
      TSB_RETURN_IF_ERROR(page.At(i, &v));
      if (v.uncommitted()) {
        page.Remove(i);
        ++*purged;
        removed = true;
      }
    }
    if (removed) h.MarkDirty();
    return Status::OK();
  }
  IndexPageRef page(h.data(), options_.page_size);
  std::vector<IndexEntry> entries;
  TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
  h.Release();
  for (const IndexEntry& e : entries) {
    // Historical nodes are immutable and never hold uncommitted versions.
    if (!e.child.historical) {
      TSB_RETURN_IF_ERROR(PurgeUncommittedRec(e.child.page_id, purged));
    }
  }
  return Status::OK();
}

Status TsbTree::PurgeCommittedAt(Timestamp ts, uint64_t* purged) {
  *purged = 0;
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("purge timestamp out of committed range");
  }
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  return PurgeCommittedAtRec(root_.load(std::memory_order_acquire), ts,
                             purged);
}

Status TsbTree::PurgeCommittedAtRec(uint32_t page_id, Timestamp ts,
                                    uint64_t* purged) {
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  if (TsbPageLevel(h.data()) == 0) {
    DataPageRef page(h.data(), options_.page_size);
    bool removed = false;
    for (int i = page.Count() - 1; i >= 0; --i) {
      DataEntryView v;
      TSB_RETURN_IF_ERROR(page.At(i, &v));
      if (v.ts == ts) {
        page.Remove(i);
        ++*purged;
        removed = true;
      }
    }
    if (removed) h.MarkDirty();
    return Status::OK();
  }
  IndexPageRef page(h.data(), options_.page_size);
  std::vector<IndexEntry> entries;
  TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
  h.Release();
  for (const IndexEntry& e : entries) {
    // A failed commit's timestamp sits above the published watermark, and
    // time splits cap their boundary at that watermark: nothing stamped
    // `ts` can live under a historical child.
    if (!e.child.historical) {
      TSB_RETURN_IF_ERROR(PurgeCommittedAtRec(e.child.page_id, ts, purged));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- descent

Status TsbTree::DescendCurrent(const Slice& key,
                               std::vector<PathElem>* path) {
  path->clear();
  uint32_t id = root_.load(std::memory_order_acquire);
  for (;;) {
    PageHandle h;
    // Shared latch: index pages are stable under structure_mu_, but other
    // writers may be mutating the leaf (its level byte included).
    TSB_RETURN_IF_ERROR(pool_->FetchShared(id, &h));
    if (TsbPageLevel(h.data()) == 0) {
      path->push_back(PathElem{id, -1});
      return Status::OK();
    }
    IndexPageRef page(h.data(), options_.page_size);
    const int idx = page.FindContaining(key, kUncommittedTs);
    if (idx < 0) {
      return Status::Corruption("current axis not covered",
                                "page " + std::to_string(id));
    }
    IndexEntry e;
    TSB_RETURN_IF_ERROR(page.At(idx, &e));
    if (e.child.historical) {
      return Status::Corruption("current axis routed to historical node");
    }
    path->push_back(PathElem{id, idx});
    id = e.child.page_id;
  }
}

// Optimistic latch-coupled writer descent, shared by every mutator. At
// most ONE page latch is held at any moment: internal pages are read under
// a brief shared latch, their routing entry copied out, and only the pin
// (not the latch) carried to the next level; after latching the child, the
// parent's mutation counter is revalidated — a change means the routing
// entry may be stale, so the descent restarts from the root
// (counters_.olc_restarts). The target leaf is latched exclusively
// (TryUpgrade, falling back to a blocking exclusive fetch). If the parent
// changed while the leaf latch was being acquired, the descent first tries
// to resolve locally: a concurrent key split leaves the shed upper range
// reachable through the leaf's B-link right sibling, so the parent entry
// is re-read and a lateral step (counters_.olc_sidesteps) replaces a full
// restart. The leaf latch is always RELEASED before relatching the parent
// — a splitter holds parent-exclusive while waiting for leaf-exclusive,
// so holding the leaf while waiting on the parent would deadlock.
// On success `*leaf` holds the exclusive latch and `*pe` the parent's
// routing entry (identity rectangle when the root is the leaf), valid as
// of a moment at which the leaf latch was already held.
Status TsbTree::LatchLeafOLC(const Slice& key, PageHandle* leaf,
                             IndexEntry* pe) {
  constexpr int kMaxOlcRestarts = 64;
  constexpr int kMaxSideSteps = 4;
  for (int restart = 0; restart < kMaxOlcRestarts; ++restart) {
    if (restart > 0) counters_.olc_restarts++;
    PageHandle parent_h;  // pinned, UNLATCHED between levels
    uint64_t parent_ver = 0;
    bool have_parent = false;
    pe->key_lo.clear();
    pe->key_hi.clear();
    pe->key_hi_inf = true;
    pe->t_lo = kMinTimestamp;
    pe->t_hi = kInfiniteTs;
    pe->child = NodeRef::Current(root_.load(std::memory_order_acquire));

    uint32_t id = pe->child.page_id;
    bool at_root = true;
    bool restart_descent = false;
    while (!restart_descent) {
      PageHandle h;
      TSB_RETURN_IF_ERROR(pool_->FetchShared(id, &h));
      if (at_root) {
        // Post-latch root validation, same as the reader descent.
        const uint32_t cur_root = root_.load(std::memory_order_acquire);
        if (cur_root != id) {
          h.Release();
          id = cur_root;
          pe->child = NodeRef::Current(id);
          continue;
        }
        at_root = false;
      } else if (parent_h.version() != parent_ver) {
        // Parent mutated between copying its entry and latching the child:
        // the child id itself may be stale. Start over.
        h.Release();
        restart_descent = true;
        break;
      }
      if (TsbPageLevel(h.data()) != 0) {
        // Internal page: copy the routing entry and the mutation counter
        // under the shared latch, then carry only the pin downward.
        IndexPageRef page(h.data(), options_.page_size);
        const int idx = page.FindContaining(key, kUncommittedTs);
        if (idx < 0) {
          // Transiently possible mid-restructure; never permanent.
          h.Release();
          restart_descent = true;
          break;
        }
        IndexEntry e;
        TSB_RETURN_IF_ERROR(page.At(idx, &e));
        if (e.child.historical) {
          return Status::Corruption("current axis routed to historical node");
        }
        const uint64_t ver = h.version();
        h.Unlatch();  // the pin survives; eviction stays blocked
        parent_h = std::move(h);
        parent_ver = ver;
        have_parent = true;
        *pe = e;
        id = e.child.page_id;
        continue;
      }
      // Leaf: upgrade to exclusive without blocking; on contention fall
      // back to a blocking exclusive fetch (we hold no other latch, so
      // blocking here cannot deadlock).
      if (!h.TryUpgrade()) {
        h.Release();
        TSB_RETURN_IF_ERROR(pool_->FetchExclusive(id, &h));
      }
      if (!have_parent) {
        // Root leaf: valid iff still the root (a concurrent split moves
        // keys to a sibling reachable only through a new root).
        if (root_.load(std::memory_order_acquire) != id) {
          h.Release();
          restart_descent = true;
          break;
        }
        *leaf = std::move(h);
        return Status::OK();
      }
      if (parent_h.version() == parent_ver) {
        *leaf = std::move(h);
        return Status::OK();
      }
      // The parent changed while the leaf latch was being acquired.
      // Resolve locally: re-read the parent's routing entry; if it now
      // points at this leaf's right sibling, the key moved in a concurrent
      // key split — step laterally instead of restarting.
      for (int step = 0; step < kMaxSideSteps; ++step) {
        const uint32_t sibling = PageSibling(h.data());
        h.Release();  // ALWAYS before relatching the parent (lock order)
        parent_h.LatchShared();
        IndexPageRef parent(parent_h.data(), options_.page_size);
        const int idx = parent.FindContaining(key, kUncommittedTs);
        IndexEntry cand;
        Status ps = idx >= 0 ? parent.At(idx, &cand) : Status::OK();
        parent_ver = parent_h.version();
        parent_h.Unlatch();
        TSB_RETURN_IF_ERROR(ps);
        if (idx < 0 || cand.child.historical) break;  // parent restructured
        const uint32_t target = cand.child.page_id;
        if (target != id && target != sibling) break;  // non-local change
        if (target == sibling) counters_.olc_sidesteps++;
        id = target;
        *pe = cand;
        TSB_RETURN_IF_ERROR(pool_->FetchExclusive(id, &h));
        if (parent_h.version() == parent_ver) {
          *leaf = std::move(h);
          return Status::OK();
        }
      }
      h.Release();
      restart_descent = true;
    }
  }
  return Status::Busy("writer descent did not converge");
}

Status TsbTree::SearchPoint(const Slice& key, Timestamp t, TxnId txn,
                            const BlobReadHints& hints,
                            const PointSink& sink) {
  // Phase 1: walk current pages until the point leaves the magnetic disk.
  // Latch coupling: each child's shared latch is acquired before the
  // parent's is released, so the (parent entry, child content) pair is
  // always from one structural state — the writer holds both exclusive
  // latches while it restructures.
  PageHandle parent_h;
  uint32_t id = root_.load(std::memory_order_acquire);
  bool at_root = true;
  for (;;) {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(id, &h));
    if (at_root) {
      // Validate the root AFTER latching it: any restructure of the old
      // root goes through GrowRoot first, so a stale root pointer always
      // shows up as root_ having moved. Once the check passes the page is
      // the live root and latch coupling covers the rest of the descent.
      const uint32_t cur_root = root_.load(std::memory_order_acquire);
      if (cur_root != id) {
        h.Release();
        id = cur_root;
        continue;
      }
      at_root = false;
    }
    parent_h.Release();
    if (TsbPageLevel(h.data()) == 0) {
      DataPageRef page(h.data(), options_.page_size);
      int pos;
      if (txn != kNoTxn) {
        pos = page.FindUncommitted(key, txn);
      } else {
        pos = page.FindVersion(key, t);
      }
      if (pos < 0) return Status::NotFound("no version at time");
      DataEntryView v;
      TSB_RETURN_IF_ERROR(page.At(pos, &v));
      // Current pages are mutable: the value must leave the page before
      // the latch drops. A pinned sink copies into its reused buffer (no
      // allocation once the capacity is warm), never into a pin.
      if (sink.pinned != nullptr) {
        sink.pinned->SetCopied(v.value, v.ts);
      } else {
        sink.value->assign(v.value.data(), v.value.size());
      }
      if (sink.ts != nullptr) *sink.ts = v.ts;
      return Status::OK();
    }
    IndexPageRef page(h.data(), options_.page_size);
    const int idx = page.FindContaining(key, t);
    if (idx < 0) return Status::NotFound("time precedes database");
    // View decode: only the POD child ref is copied out of the latched
    // page, so the whole descent performs no per-level heap allocation.
    IndexEntryView e;
    TSB_RETURN_IF_ERROR(page.AtView(idx, &e));
    if (!e.child.historical) {
      id = e.child.page_id;
      parent_h = std::move(h);  // hold the latch until the child is latched
      continue;
    }
    // Phase 2: continue inside the historical store; historical index
    // nodes reference only historical children. Blobs are immutable, so
    // no latches are needed past this point.
    const HistAddr addr = e.child.addr;
    h.Release();
    return SearchHistPoint(addr, key, t, hints, sink);
  }
}

Status TsbTree::SearchHistPoint(HistAddr addr, const Slice& key, Timestamp t,
                                const BlobReadHints& hints,
                                const PointSink& sink) {
  // Zero-copy descent through the shared dispatch: every visited node
  // stays a pinned blob; data nodes are binary-searched through the slot
  // (or restart) directory, index nodes binary-search key_lo. On the
  // cache-hit path no per-entry heap allocation happens — and with a
  // pinned sink not even a value copy: the blob pin moves into the
  // PinnableValue and the value stays a view.
  for (;;) {
    bool done = false;
    HistAddr next_addr{};
    TSB_RETURN_IF_ERROR(DispatchHistNode(
        hist_.get(), &hist_decodes_, addr,
        [&](BlobHandle& blob, HistDataNodeRef& node) -> Status {
          int pos = -1;
          TSB_RETURN_IF_ERROR(node.FindVersion(key, t, &pos));
          if (pos < 0) return Status::NotFound("no version at time");
          DataEntryView v;
          if (sink.pinned != nullptr) {
            // Decode into the sink's own scratch so the view outlives
            // this dispatch (v3 delta cells reassemble there; v1/v2
            // cells stay views into the pinned blob).
            TSB_RETURN_IF_ERROR(node.At(pos, &v, sink.pinned->scratch()));
            if (sink.ts != nullptr) *sink.ts = v.ts;
            sink.pinned->SetPinned(std::move(blob), v.value, v.ts);
          } else {
            TSB_RETURN_IF_ERROR(node.At(pos, &v));
            sink.value->assign(v.value.data(), v.value.size());
            if (sink.ts != nullptr) *sink.ts = v.ts;
          }
          done = true;
          return Status::OK();
        },
        [&](BlobHandle&, HistIndexNodeRef& node) -> Status {
          int pos = -1;
          TSB_RETURN_IF_ERROR(node.FindContaining(key, t, &pos));
          if (pos < 0) return Status::NotFound("time precedes database");
          IndexEntryView next;
          TSB_RETURN_IF_ERROR(node.AtView(pos, &next));
          if (!next.child.historical) {
            return Status::Corruption(
                "historical index references current node");
          }
          next_addr = next.child.addr;
          return Status::OK();
        },
        hints));
    if (done) return Status::OK();
    addr = next_addr;
  }
}

// ---------------------------------------------------------------- reads

Status TsbTree::Get(const ReadOptions& options, const Slice& key,
                    std::string* value, Timestamp* ts) {
  const Timestamp t = ResolveAsOf(options.as_of);
  if (t > kMaxCommittedTs) {
    return Status::InvalidArgument("as-of time out of range");
  }
  PointSink sink;
  sink.value = value;
  sink.ts = ts;
  return SearchPoint(key, t, kNoTxn, MakeBlobReadHints(options), sink);
}

Status TsbTree::Get(const ReadOptions& options, const Slice& key,
                    PinnableValue* value) {
  // Clear the slot up front: a failed lookup must not leave the PREVIOUS
  // result readable through it — nor keep that result's blob (and,
  // transitively, a whole file mapping) pinned.
  value->Reset();
  const Timestamp t = ResolveAsOf(options.as_of);
  if (t > kMaxCommittedTs) {
    return Status::InvalidArgument("as-of time out of range");
  }
  PointSink sink;
  sink.pinned = value;
  return SearchPoint(key, t, kNoTxn, MakeBlobReadHints(options), sink);
}

Status TsbTree::GetCurrent(const Slice& key, std::string* value,
                           Timestamp* ts) {
  // kMaxCommittedTs, not the watermark: internal callers (commit-time
  // old-value capture, transaction reads) must observe versions stamped
  // by a commit that has not published yet.
  ReadOptions options;
  options.as_of = kMaxCommittedTs;
  return Get(options, key, value, ts);
}

Status TsbTree::GetUncommitted(const Slice& key, TxnId txn,
                               std::string* value) {
  if (txn == kNoTxn) return Status::InvalidArgument("txn id required");
  PointSink sink;
  sink.value = value;
  return SearchPoint(key, kUncommittedTs, txn, BlobReadHints(), sink);
}

// ---------------------------------------------------------------- writes

Status TsbTree::Put(const Slice& key, const Slice& value, Timestamp ts) {
  WriterGuard wl(writer_mu_);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  if (ts < clock_->Now()) {
    return Status::InvalidArgument("timestamps must be non-decreasing");
  }
  DataEntry e;
  e.key = key.ToString();
  e.ts = ts;
  e.txn = kNoTxn;
  e.value = value.ToString();
  TSB_RETURN_IF_ERROR(InsertEntry(e));
  clock_->AdvanceTo(ts);
  // A direct Put is a complete single-record commit: publish immediately.
  clock_->Publish(ts);
  counters_.puts++;
  return Status::OK();
}

Status TsbTree::PutUncommitted(const Slice& key, const Slice& value,
                               TxnId txn) {
  WriterGuard wl(writer_mu_);
  if (txn == kNoTxn) return Status::InvalidArgument("txn id required");
  DataEntry e;
  e.key = key.ToString();
  e.ts = kUncommittedTs;
  e.txn = txn;
  e.value = value.ToString();
  TSB_RETURN_IF_ERROR(InsertEntry(e));
  counters_.uncommitted_puts++;
  return Status::OK();
}

Status TsbTree::InsertEntry(const DataEntry& e) {
  // Sized against v2 pages (trailer reserved) — the tighter of the two
  // formats, so a record accepted here fits on every page.
  const uint32_t capacity =
      options_.page_size - kTsbSlotBase - kPageTrailerSize;
  if (e.EncodedSize() + kCellOverhead > capacity / 3) {
    return Status::InvalidArgument("record too large for page size");
  }
  for (int attempt = 0; attempt < kMaxInsertRetries; ++attempt) {
    // Optimistic descent: exclusive latch on the target leaf only; the
    // routing entry is captured during the descent (index pages may not
    // be read unlatched while other writers split).
    PageHandle h;
    IndexEntry pe;
    TSB_RETURN_IF_ERROR(LatchLeafOLC(Slice(e.key), &h, &pe));
    DataPageRef page(h.data(), options_.page_size);

    // Region lower time bound: committed inserts must not predate it.
    if (!e.uncommitted() && e.ts < pe.t_lo) {
      return Status::InvalidArgument(
          "timestamp predates the node's time-split boundary");
    }

    // Same-position overwrite: own uncommitted version or same (key, ts).
    int existing = -1;
    if (e.uncommitted()) {
      existing = page.FindUncommitted(Slice(e.key), e.txn);
    } else {
      const int pos = page.LowerBound(Slice(e.key), e.ts);
      if (pos < page.Count()) {
        DataEntryView v;
        TSB_RETURN_IF_ERROR(page.At(pos, &v));
        if (v.key == Slice(e.key) && v.ts == e.ts && !v.uncommitted()) {
          existing = pos;
        }
      }
    }
    bool ok;
    if (existing >= 0) {
      ok = page.Replace(existing, e);
    } else {
      ok = page.Insert(e);
    }
    if (ok) {
      h.MarkDirty();
      return Status::OK();
    }
    h.Release();
    Timestamp wait_for = 0;
    Status split = SplitForInsert(e, &wait_for);
    if (split.IsOutOfSpace() && wait_for != 0 &&
        WaitForVisible(*clock_, wait_for)) {
      // The leaf was wedged only because in-flight commits held the
      // watermark below the split time it needs; they finish without our
      // help (we hold no latch and only a shared writer lock), and the
      // retry can now migrate history.
      continue;
    }
    TSB_RETURN_IF_ERROR(split);
  }
  return Status::Corruption("insert did not converge after splits");
}

Status TsbTree::SplitForInsert(const DataEntry& e, Timestamp* wait_for) {
  // Structural changes are serialized on structure_mu_. Index pages are
  // mutated ONLY by the split/grow code running under this mutex, so the
  // unlatched index reads below it (ParentEntryFor, EnsureIndexRoom) are
  // safe; LEAVES still change under other writers' latches, so the
  // re-descent latches pages and SplitDataPage revalidates the leaf's
  // mutation counter before installing its rewrite.
  std::lock_guard<std::mutex> sl(structure_mu_);
  std::vector<PathElem> path;
  TSB_RETURN_IF_ERROR(DescendCurrent(Slice(e.key), &path));
  {
    // Another writer may have split this leaf while we waited on the
    // mutex: skip when the entry now fits (the caller retries the insert
    // with a fresh descent either way).
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(path.back().page_id, &h));
    DataPageRef page(h.data(), options_.page_size);
    if (page.HasRoomFor(e)) return Status::OK();
  }
  return SplitDataPage(path, wait_for);
}

Status TsbTree::StampCommitted(const Slice& key, TxnId txn, Timestamp ts) {
  WriterGuard wl(writer_mu_);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  PageHandle h;
  IndexEntry pe;
  TSB_RETURN_IF_ERROR(LatchLeafOLC(key, &h, &pe));
  // Defense in depth: stamping below the region's time-split boundary
  // would make the version unreachable for as-of reads (the region
  // [t_lo, inf) no longer covers it). Commits can never legally hit this
  // — splits cap the boundary at the published watermark, which trails
  // every in-flight commit — so treat it as corruption, not data loss.
  if (ts < pe.t_lo) {
    return Status::Corruption(
        "commit timestamp predates the node's time-split boundary");
  }
  DataPageRef page(h.data(), options_.page_size);
  const int pos = page.FindUncommitted(key, txn);
  if (pos < 0) return Status::NotFound("no uncommitted version for txn");
  DataEntryView v;
  TSB_RETURN_IF_ERROR(page.At(pos, &v));
  DataEntry committed;
  committed.key = v.key.ToString();
  committed.ts = ts;
  committed.txn = kNoTxn;
  committed.value = v.value.ToString();
  page.Remove(pos);
  if (!page.Insert(committed)) {
    return Status::Corruption("stamp lost space on rewrite");
  }
  h.MarkDirty();
  clock_->AdvanceTo(ts);
  counters_.stamps++;
  counters_.stamp_descents++;
  return Status::OK();
}

Status TsbTree::StampCommittedBatch(const std::vector<Slice>& keys,
                                    TxnId txn, Timestamp ts) {
  WriterGuard wl(writer_mu_);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  size_t i = 0;
  while (i < keys.size()) {
    assert(i == 0 || keys[i - 1] < keys[i]);  // sorted + distinct
    PageHandle h;
    // The region boundary check of StampCommitted, hoisted per leaf: every
    // key stamped below shares this leaf's region.
    IndexEntry pe;
    TSB_RETURN_IF_ERROR(LatchLeafOLC(keys[i], &h, &pe));
    if (ts < pe.t_lo) {
      return Status::Corruption(
          "commit timestamp predates the node's time-split boundary");
    }
    // Dirty (and version-bump) the leaf BEFORE mutating it: an error
    // return mid-leaf must leave the already-applied stamps flagged for
    // write-back, exactly like per-key stamping would (the caller
    // poisons the watermark, so they stay invisible either way). A
    // spurious mark when the very first lookup fails costs one rewrite.
    h.MarkDirty();
    DataPageRef page(h.data(), options_.page_size);
    // One descent stamps this key and every following key whose point
    // falls inside the same leaf's key region.
    do {
      const int pos = page.FindUncommitted(keys[i], txn);
      if (pos < 0) return Status::NotFound("no uncommitted version for txn");
      DataEntryView v;
      TSB_RETURN_IF_ERROR(page.At(pos, &v));
      DataEntry committed;
      committed.key = v.key.ToString();
      committed.ts = ts;
      committed.txn = kNoTxn;
      committed.value = v.value.ToString();
      page.Remove(pos);
      if (!page.Insert(committed)) {
        return Status::Corruption("stamp lost space on rewrite");
      }
      counters_.stamps++;
      ++i;
    } while (i < keys.size() && pe.ContainsKey(keys[i]));
    counters_.stamp_descents++;
  }
  clock_->AdvanceTo(ts);
  return Status::OK();
}

Status TsbTree::EraseUncommitted(const Slice& key, TxnId txn) {
  WriterGuard wl(writer_mu_);
  PageHandle h;
  IndexEntry pe;
  TSB_RETURN_IF_ERROR(LatchLeafOLC(key, &h, &pe));
  DataPageRef page(h.data(), options_.page_size);
  const int pos = page.FindUncommitted(key, txn);
  if (pos < 0) return Status::NotFound("no uncommitted version for txn");
  page.Remove(pos);
  h.MarkDirty();
  counters_.erases++;
  return Status::OK();
}

// ---------------------------------------------------------------- splits

Status TsbTree::ParentEntryFor(const std::vector<PathElem>& path, size_t idx,
                               IndexEntry* entry, int* pos_in_parent) {
  if (idx == 0) {
    entry->key_lo.clear();
    entry->key_hi_inf = true;
    entry->t_lo = kMinTimestamp;
    entry->t_hi = kInfiniteTs;
    entry->child = NodeRef::Current(path[0].page_id);
    *pos_in_parent = -1;
    return Status::OK();
  }
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(path[idx - 1].page_id, &h));
  IndexPageRef parent(h.data(), options_.page_size);
  const int pos = path[idx - 1].entry_idx;
  if (pos < 0 || pos >= parent.Count()) {
    return Status::Corruption("stale parent entry index");
  }
  TSB_RETURN_IF_ERROR(parent.At(pos, entry));
  if (entry->child.historical ||
      entry->child.page_id != path[idx].page_id) {
    return Status::Corruption("parent entry does not reference child");
  }
  *pos_in_parent = pos;
  return Status::OK();
}

void TsbTree::PartitionByTime(const std::vector<DataEntry>& all, Timestamp t,
                              std::vector<DataEntry>* hist,
                              std::vector<DataEntry>* current,
                              size_t* redundant) {
  hist->clear();
  current->clear();
  *redundant = 0;
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    const DataEntry* latest_lt = nullptr;  // largest committed ts < t
    bool has_at_or_after = false;          // committed version with ts in [t, ...]
    bool has_exact_le = false;             // committed version with ts == t? no:
    // We need: the largest committed ts <= t. Versions with ts == t fall in
    // the "ts >= t" bucket (rule 2) and satisfy rule 3 with no duplication.
    (void)has_at_or_after;
    for (; j < all.size() && all[j].key == all[i].key; ++j) {
      const DataEntry& e = all[j];
      if (e.uncommitted()) {
        current->push_back(e);  // never migrated (section 4)
        continue;
      }
      if (e.ts < t) {
        hist->push_back(e);  // rule 1
        latest_lt = &e;
      } else {
        current->push_back(e);  // rule 2
        if (e.ts == t) has_exact_le = true;
      }
    }
    // Rule 3: the version valid at the split time must be in the new node.
    if (latest_lt != nullptr && !has_exact_le) {
      current->push_back(*latest_lt);
      (*redundant)++;
    }
    i = j;
  }
  std::sort(current->begin(), current->end());
}

Status TsbTree::SplitDataPage(const std::vector<PathElem>& path,
                              Timestamp* wait_for) {
  const size_t leaf_idx = path.size() - 1;
  if (leaf_idx == 0) {
    // Root is still a data page: grow first, split on the retry.
    return GrowRoot();
  }

  IndexEntry pe;
  int pe_pos;
  TSB_RETURN_IF_ERROR(ParentEntryFor(path, leaf_idx, &pe, &pe_pos));

  std::vector<DataEntry> entries;
  uint64_t leaf_ver = 0;
  {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(path[leaf_idx].page_id, &h));
    DataPageRef page(h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
    // Mutation counter baseline: the installs below re-check it under the
    // exclusive leaf latch and abandon the split if a concurrent writer
    // mutated the leaf after this decode (rewriting from the stale
    // snapshot would lose that write).
    leaf_ver = h.version();
  }
  const DataNodeStats stats = ComputeDataNodeStats(entries);
  const uint32_t capacity =
      options_.page_size - kTsbSlotBase - kPageTrailerSize;
  SplitKind kind = policy_.DecideDataSplit(stats, capacity);

  if (kind == SplitKind::kTimeSplit) {
    // The split time is capped at the PUBLISHED watermark, not the raw
    // clock: Now() may already exceed an in-flight commit's timestamp,
    // and a boundary above it would later make that commit's stamp land
    // below t_lo (unreachable for as-of reads).
    const Timestamp visible = clock_->Visible();
    Timestamp split_t = policy_.ChooseSplitTime(entries, pe.t_lo, visible);
    std::vector<DataEntry> hist_set, cur_set;
    size_t redundant = 0;
    PartitionByTime(entries, split_t, &hist_set, &cur_set, &redundant);
    // Progress = the current page sheds entries.
    bool progress = !hist_set.empty() && cur_set.size() < entries.size();
    if (!progress && stats.distinct_keys < 2) {
      // A single-key leaf cannot key-split, so it must shed history here.
      // Split at the earliest time that sheds a version if the watermark
      // already covers it; otherwise report how far the watermark has to
      // advance (the caller waits for in-flight commits and retries).
      const Timestamp needed = EarliestSheddingSplitTime(entries, pe.t_lo);
      if (needed == 0) {
        return Status::OutOfSpace(
            "versions of a single key overflow the page");
      }
      if (needed > visible) {
        *wait_for = needed;
        return Status::OutOfSpace(
            "time split blocked by the commit watermark");
      }
      split_t = needed;
      PartitionByTime(entries, split_t, &hist_set, &cur_set, &redundant);
      progress = !hist_set.empty() && cur_set.size() < entries.size();
    }
    if (progress) {
      // Ensure the parent can take one more (historical) entry BEFORE any
      // irreversible work; if the structure changed, retry from the top.
      IndexEntry he = pe;
      he.t_hi = split_t;
      he.min_ts = ContentFloorHint(DataContentFloor(hist_set, pe.min_ts));
      const uint32_t need =
          static_cast<uint32_t>(IndexEntrySizeBound(he)) + kCellOverhead;
      bool changed = false;
      TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, leaf_idx - 1, need, &changed));
      if (changed) return Status::OK();

      // Migrate: consolidate and append one node (section 3.1). The v3
      // restart interval is chosen per node from its key shape.
      size_t distinct = 0, key_bytes = 0;
      DataNodeShape(hist_set, &distinct, &key_bytes);
      const uint32_t interval = policy_.ChooseRestartInterval(
          options_.hist_restart_interval, hist_set.size(), distinct,
          key_bytes);
      std::string blob;
      uint64_t raw_bytes = 0;
      SerializeHistDataNode(hist_set, &blob, HistNodeFormat::kV3,
                            &raw_bytes, interval);
      HistAddr addr;
      TSB_RETURN_IF_ERROR(AppendHistNode(blob, raw_bytes, &addr));

      // Rewrite the leaf and repoint the parent while holding BOTH
      // exclusive latches (top-down order, same as reader coupling), so a
      // latch-coupled reader never pairs a stale parent entry with the
      // rewritten leaf.
      {
        PageHandle parent_h;
        TSB_RETURN_IF_ERROR(
            pool_->FetchExclusive(path[leaf_idx - 1].page_id, &parent_h));
        PageHandle leaf_h;
        TSB_RETURN_IF_ERROR(
            pool_->FetchExclusive(path[leaf_idx].page_id, &leaf_h));
        if (leaf_h.version() != leaf_ver) {
          // Stale decode (concurrent writer): abandon; the caller retries
          // with a fresh descent. The appended blob stays unreferenced in
          // the append-only store — bounded garbage, the same state a
          // crash between append and install leaves behind.
          return Status::OK();
        }
        // Leaf keeps only the TIME-SPLIT RULE survivors.
        DataPageRef page(leaf_h.data(), options_.page_size);
        TSB_RETURN_IF_ERROR(page.Load(cur_set));
        leaf_h.MarkDirty();
        // Parent: the child's region now starts at split_t; the prefix of
        // its old region points at the migrated node.
        IndexPageRef parent(parent_h.data(), options_.page_size);
        IndexEntry cur_e = pe;
        cur_e.t_lo = split_t;
        // Retained-alive records can predate split_t; with nothing
        // committed, split_t is sound — the watermark cap keeps every
        // in-flight stamp above it.
        cur_e.min_ts = ContentFloorHint(DataContentFloor(cur_set, split_t));
        if (!parent.Replace(pe_pos, cur_e)) {
          return Status::Corruption("parent entry replace failed");
        }
        he.child = NodeRef::Historical(addr);
        if (!parent.Insert(he)) {
          return Status::Corruption("parent lost reserved space");
        }
        parent_h.MarkDirty();
      }
      counters_.data_time_splits++;
      counters_.hist_data_nodes++;
      counters_.records_migrated += hist_set.size();
      counters_.redundant_record_copies += redundant;
      return Status::OK();
    }
    // No migratable history: fall through to a key split if possible.
    kind = SplitKind::kKeySplit;
  }

  // ---- key split (B+-tree style, erasable medium; Fig 5) ----
  if (stats.distinct_keys < 2) {
    return Status::OutOfSpace("cannot key-split a single-key node");
  }
  // Choose a distinct-key boundary near the byte midpoint.
  size_t total_bytes = 0;
  for (const DataEntry& e : entries) total_bytes += e.EncodedSize();
  size_t acc = 0;
  size_t split_at = 0;  // first index of the right node
  for (size_t i = 0; i < entries.size(); ++i) {
    acc += entries[i].EncodedSize();
    if (acc * 2 >= total_bytes) {
      // Advance to the next key boundary.
      size_t j = i + 1;
      while (j < entries.size() && entries[j].key == entries[i].key) ++j;
      split_at = j;
      break;
    }
  }
  if (split_at == 0 || split_at >= entries.size()) {
    // Degenerate byte distribution: put the last key run on the right.
    size_t j = entries.size() - 1;
    while (j > 0 && entries[j - 1].key == entries.back().key) --j;
    split_at = j;
  }
  if (split_at == 0 || split_at >= entries.size()) {
    return Status::OutOfSpace("no key boundary available for split");
  }
  const std::string split_key = entries[split_at].key;

  IndexEntry ne = pe;  // prototype for size estimation
  ne.key_lo = split_key;
  const uint32_t need =
      static_cast<uint32_t>(IndexEntrySizeBound(ne)) + kCellOverhead;
  bool changed = false;
  TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, leaf_idx - 1, need, &changed));
  if (changed) return Status::OK();

  std::vector<DataEntry> left(entries.begin(), entries.begin() + split_at);
  std::vector<DataEntry> right(entries.begin() + split_at, entries.end());
  // The right sibling is private until the parent publishes it: no latch.
  PageHandle right_h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbData, &right_h));
  DataPageRef::Format(right_h.data(), options_.page_size);
  {
    DataPageRef rp(right_h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(rp.Load(right));
    right_h.MarkDirty();
  }
  // Shrink the leaf and publish the sibling under both exclusive latches.
  {
    PageHandle parent_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[leaf_idx - 1].page_id, &parent_h));
    PageHandle leaf_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[leaf_idx].page_id, &leaf_h));
    if (leaf_h.version() != leaf_ver) {
      // Stale decode (see the time-split bail-out): drop the unpublished
      // sibling and let the caller retry.
      leaf_h.Release();
      parent_h.Release();
      const uint32_t right_id = right_h.id();
      right_h.Release();
      return pool_->Drop(right_id);
    }
    // B-link chain: the sibling inherits the leaf's old right link, then
    // the leaf links to the sibling — both set before the parent entry
    // makes the sibling reachable, so a concurrent OLC descent that finds
    // its routing stale can step laterally instead of restarting.
    SetPageSibling(right_h.data(), PageSibling(leaf_h.data()));
    DataPageRef page(leaf_h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.Load(left));
    SetPageSibling(leaf_h.data(), right_h.id());
    leaf_h.MarkDirty();
    IndexPageRef parent(parent_h.data(), options_.page_size);
    IndexEntry left_e = pe;
    left_e.key_hi = split_key;
    left_e.key_hi_inf = false;
    left_e.min_ts = ContentFloorHint(DataContentFloor(left, pe.min_ts));
    if (!parent.Replace(pe_pos, left_e)) {
      return Status::Corruption("parent entry replace failed");
    }
    IndexEntry right_e = pe;  // the new entry inherits the predecessor's
    right_e.key_lo = split_key;  // timestamp (Fig 5): t_lo stays pe.t_lo
    right_e.child = NodeRef::Current(right_h.id());
    // The rectangle keeps the predecessor's loose time floor, but the
    // content floor is tight: old-snapshot readers skip siblings whose
    // records are all younger than their as-of time.
    right_e.min_ts = ContentFloorHint(DataContentFloor(right, pe.min_ts));
    if (!parent.Insert(right_e)) {
      return Status::Corruption("parent lost reserved space (key split)");
    }
    parent_h.MarkDirty();
  }
  counters_.data_key_splits++;
  return Status::OK();
}

Status TsbTree::GrowRoot() {
  // The new root is fully built before root_ publishes it; readers that
  // loaded the old root id keep descending a still-valid subtree.
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbIndex, &h));
  IndexPageRef::Format(h.data(), options_.page_size,
                       static_cast<uint8_t>(height_.load()));
  IndexPageRef page(h.data(), options_.page_size);
  IndexEntry e;
  e.key_lo.clear();
  e.key_hi_inf = true;
  e.t_lo = kMinTimestamp;
  e.t_hi = kInfiniteTs;
  e.child = NodeRef::Current(root_.load(std::memory_order_acquire));
  if (!page.Insert(e)) {
    return Status::Corruption("fresh root cannot hold one entry");
  }
  h.MarkDirty();
  root_.store(h.id(), std::memory_order_release);
  height_.fetch_add(1, std::memory_order_acq_rel);
  counters_.root_grows++;
  return Status::OK();
}

Status TsbTree::EnsureIndexRoom(const std::vector<PathElem>& path, size_t idx,
                                uint32_t need, bool* changed) {
  {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->Fetch(path[idx].page_id, &h));
    IndexPageRef page(h.data(), options_.page_size);
    if (page.FreeBytes() >= need) return Status::OK();
  }
  *changed = true;
  if (idx == 0) {
    // Full root: give it a parent; the retry path will then split it.
    return GrowRoot();
  }
  return SplitIndexPage(path, idx);
}

Status TsbTree::SplitIndexPage(const std::vector<PathElem>& path, size_t idx) {
  if (idx == 0) {
    return GrowRoot();
  }
  IndexEntry pe;
  int pe_pos;
  TSB_RETURN_IF_ERROR(ParentEntryFor(path, idx, &pe, &pe_pos));

  std::vector<IndexEntry> entries;
  uint8_t level = 0;
  {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->Fetch(path[idx].page_id, &h));
    IndexPageRef page(h.data(), options_.page_size);
    level = page.Level();
    TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
  }

  // ---- try a local time split (Figs 8-9): find the time before which all
  // references are historical. Entries referencing current children pin
  // the split time at their minimal t_lo.
  Timestamp split_t = kInfiniteTs;
  for (const IndexEntry& e : entries) {
    if (e.current_child()) split_t = std::min(split_t, e.t_lo);
  }
  std::vector<const IndexEntry*> hist_set, straddlers;
  size_t hist_bytes = 0, used_bytes = 0;
  for (const IndexEntry& e : entries) {
    used_bytes += e.EncodedSize();
    if (e.t_hi <= split_t) {
      hist_set.push_back(&e);
      hist_bytes += e.EncodedSize();
    } else if (e.t_lo < split_t) {
      straddlers.push_back(&e);  // guaranteed historical (t_hi finite > T)
    }
  }
  const bool time_split_useful =
      split_t > pe.t_lo && split_t != kInfiniteTs && !hist_set.empty() &&
      hist_bytes * 4 >= used_bytes;  // gain check: migrate >= 25% of bytes

  if (time_split_useful) {
    return TimeSplitIndexPage(path, idx, pe, pe_pos, level, entries, split_t);
  }

  // ---- keyspace split (section 3.5 rule). The split value must be a key
  // value actually used in an index entry AND strictly inside the node's
  // own key region: straddler entries carry key_lo values at or below the
  // region's lower bound, which would produce an empty sibling.
  std::vector<std::string> key_los;
  for (const IndexEntry& e : entries) {
    if (Slice(e.key_lo) <= Slice(pe.key_lo)) continue;
    if (!pe.key_hi_inf && Slice(e.key_lo) >= Slice(pe.key_hi)) continue;
    key_los.push_back(e.key_lo);
  }
  std::sort(key_los.begin(), key_los.end());
  key_los.erase(std::unique(key_los.begin(), key_los.end()), key_los.end());
  if (key_los.empty()) {
    // No key boundary: force a time split if one is at all possible (the
    // gain check above was advisory), else the node cannot shed anything.
    if (split_t > pe.t_lo && split_t != kInfiniteTs && !hist_set.empty()) {
      return TimeSplitIndexPage(path, idx, pe, pe_pos, level, entries,
                                split_t);
    }
    return Status::OutOfSpace("index node has no key boundary to split at");
  }
  const std::string split_key = key_los[key_los.size() / 2];

  IndexEntry ne = pe;
  ne.key_lo = split_key;
  const uint32_t need =
      static_cast<uint32_t>(IndexEntrySizeBound(ne)) + kCellOverhead;
  bool changed = false;
  TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, idx - 1, need, &changed));
  if (changed) return Status::OK();

  std::vector<IndexEntry> left, right;
  size_t dupes = 0;
  for (const IndexEntry& e : entries) {
    const bool hi_le = !e.key_hi_inf && Slice(e.key_hi) <= Slice(split_key);
    const bool lo_ge = Slice(e.key_lo) >= Slice(split_key);
    if (hi_le) {
      left.push_back(e);  // rule 2
    } else if (lo_ge) {
      right.push_back(e);  // rule 3
    } else {
      // Rule 4: the key range strictly contains the split value; such
      // references are guaranteed historical and are copied to BOTH nodes.
      if (!e.child.historical) {
        return Status::Corruption(
            "straddling index entry references a current node");
      }
      left.push_back(e);
      right.push_back(e);
      dupes++;
    }
  }
  if (left.empty() || right.empty()) {
    return Status::OutOfSpace("index keyspace split produced an empty side");
  }

  // The right sibling is private until the parent publishes it: no latch.
  PageHandle right_h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbIndex, &right_h));
  IndexPageRef::Format(right_h.data(), options_.page_size, level);
  {
    IndexPageRef rp(right_h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(rp.Load(right));
    right_h.MarkDirty();
  }
  // Shrink the node and publish the sibling under both exclusive latches.
  {
    PageHandle parent_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[idx - 1].page_id, &parent_h));
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchExclusive(path[idx].page_id, &h));
    // Keep the B-link chain at the index level too (uniform invariant;
    // only leaf links are consulted by the OLC side-step today).
    SetPageSibling(right_h.data(), PageSibling(h.data()));
    IndexPageRef page(h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.Load(left));
    SetPageSibling(h.data(), right_h.id());
    h.MarkDirty();
    IndexPageRef parent(parent_h.data(), options_.page_size);
    IndexEntry left_e = pe;
    left_e.key_hi = split_key;
    left_e.key_hi_inf = false;
    left_e.min_ts = ContentFloorHint(IndexContentFloor(left));
    if (!parent.Replace(pe_pos, left_e)) {
      return Status::Corruption("index key split: parent replace failed");
    }
    IndexEntry right_e = pe;  // rule 1: a copy of the time used for the
    right_e.key_lo = split_key;  // previous reference is posted
    right_e.child = NodeRef::Current(right_h.id());
    right_e.min_ts = ContentFloorHint(IndexContentFloor(right));
    if (!parent.Insert(right_e)) {
      return Status::Corruption("index key split: parent lost space");
    }
    parent_h.MarkDirty();
  }
  counters_.index_key_splits++;
  counters_.redundant_index_copies += dupes;
  return Status::OK();
}


Status TsbTree::TimeSplitIndexPage(const std::vector<PathElem>& path,
                                   size_t idx, const IndexEntry& pe,
                                   int pe_pos, uint8_t level,
                                   const std::vector<IndexEntry>& entries,
                                   Timestamp split_t) {
  IndexEntry he = pe;
  he.t_hi = split_t;
  const uint32_t need =
      static_cast<uint32_t>(IndexEntrySizeBound(he)) + kCellOverhead;
  bool changed = false;
  TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, idx - 1, need, &changed));
  if (changed) return Status::OK();  // structure moved; caller retries

  std::vector<IndexEntry> hist_entries;
  size_t straddler_count = 0;
  for (const IndexEntry& e : entries) {
    if (e.t_hi <= split_t) {
      hist_entries.push_back(e);
    } else if (e.t_lo < split_t) {
      hist_entries.push_back(e);  // straddler: copied to BOTH nodes
      straddler_count++;
    }
  }
  std::sort(hist_entries.begin(), hist_entries.end());
  he.min_ts = ContentFloorHint(IndexContentFloor(hist_entries));
  size_t distinct = 0, key_bytes = 0;
  IndexNodeShape(hist_entries, &distinct, &key_bytes);
  const uint32_t interval = policy_.ChooseRestartInterval(
      options_.hist_restart_interval, hist_entries.size(), distinct,
      key_bytes);
  std::string blob;
  uint64_t raw_bytes = 0;
  SerializeHistIndexNode(level, hist_entries, &blob, HistNodeFormat::kV3,
                         &raw_bytes, interval);
  HistAddr addr;
  TSB_RETURN_IF_ERROR(AppendHistNode(blob, raw_bytes, &addr));

  std::vector<IndexEntry> keep;
  for (const IndexEntry& e : entries) {
    if (e.t_hi > split_t) keep.push_back(e);
  }
  // Rewrite the node and repoint the parent under both exclusive latches
  // (top-down order, matching reader latch coupling).
  {
    PageHandle parent_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[idx - 1].page_id, &parent_h));
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchExclusive(path[idx].page_id, &h));
    IndexPageRef page(h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.Load(keep));
    h.MarkDirty();
    IndexPageRef parent(parent_h.data(), options_.page_size);
    IndexEntry cur_e = pe;
    cur_e.t_lo = split_t;
    cur_e.min_ts = ContentFloorHint(IndexContentFloor(keep));
    if (!parent.Replace(pe_pos, cur_e)) {
      return Status::Corruption("index time split: parent replace failed");
    }
    he.child = NodeRef::Historical(addr);
    if (!parent.Insert(he)) {
      return Status::Corruption("index time split: parent lost space");
    }
    parent_h.MarkDirty();
  }
  counters_.index_time_splits++;
  counters_.hist_index_nodes++;
  counters_.index_entries_migrated += hist_entries.size();
  counters_.redundant_index_copies += straddler_count;
  return Status::OK();
}

// ---------------------------------------------------------------- tools

Status TsbTree::AppendHistNode(const std::string& blob, uint64_t raw_bytes,
                               HistAddr* addr) {
  TSB_RETURN_IF_ERROR(hist_->Append(blob, addr));
  hist_node_raw_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  hist_node_stored_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status TsbTree::ReadNode(const NodeRef& ref, DecodedNode* out) {
  out->data.clear();
  out->index.clear();
  out->historical = ref.historical;
  if (!ref.historical) {
    // Shared latch for the duration of the decode: the node is copied out
    // as one consistent snapshot.
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(ref.page_id, &h));
    out->level = TsbPageLevel(h.data());
    if (out->level == 0) {
      DataPageRef page(h.data(), options_.page_size);
      return page.DecodeAll(&out->data);
    }
    IndexPageRef page(h.data(), options_.page_size);
    return page.DecodeAll(&out->index);
  }
  BlobHandle blob;
  TSB_RETURN_IF_ERROR(hist_->ReadView(ref.addr, &blob));
  hist_decodes_.owned_decodes.fetch_add(1, std::memory_order_relaxed);
  TSB_RETURN_IF_ERROR(HistNodeLevel(blob.data(), &out->level));
  if (out->level == 0) {
    return DecodeHistDataNode(blob.data(), &out->data);
  }
  uint8_t level = 0;
  return DecodeHistIndexNode(blob.data(), &level, &out->index);
}

HistReadStats TsbTree::HistStats() const {
  HistReadStats s = hist_->hist_stats();
  s.view_decodes = hist_decodes_.view_decodes.load(std::memory_order_relaxed);
  s.owned_decodes =
      hist_decodes_.owned_decodes.load(std::memory_order_relaxed);
  s.node_raw_bytes = hist_node_raw_bytes_.load(std::memory_order_relaxed);
  s.node_stored_bytes =
      hist_node_stored_bytes_.load(std::memory_order_relaxed);
  return s;
}

Status TsbTree::WalkStats(
    const NodeRef& ref, SpaceStats* stats,
    std::vector<std::pair<std::string, Timestamp>>* versions,
    std::vector<HistAddr>* seen_hist) {
  if (ref.historical) {
    // A historical node can have several parents (the structure is a DAG);
    // count each stored node once.
    for (const HistAddr& a : *seen_hist) {
      if (a == ref.addr) return Status::OK();
    }
    seen_hist->push_back(ref.addr);
  }
  DecodedNode node;
  TSB_RETURN_IF_ERROR(ReadNode(ref, &node));
  if (node.is_data()) {
    for (const DataEntry& e : node.data) {
      if (e.uncommitted()) continue;
      stats->physical_record_copies++;
      versions->emplace_back(e.key, e.ts);
    }
    return Status::OK();
  }
  for (const IndexEntry& e : node.index) {
    TSB_RETURN_IF_ERROR(WalkStats(e.child, stats, versions, seen_hist));
  }
  return Status::OK();
}

Status TsbTree::ComputeSpaceStats(SpaceStats* out) {
  // Maintenance walk: quiesce every mutator (exclusive writer lock, both
  // writer modes) for a consistent DAG traversal; readers may continue
  // concurrently.
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  *out = SpaceStats{};
  out->magnetic_pages = pager_->live_pages();
  out->magnetic_bytes = pager_->live_bytes();
  out->leaked_free_pages = pager_->leaked_free_pages();
  auto* worm = dynamic_cast<WormDevice*>(hist_->device());
  out->optical_device_bytes =
      (worm != nullptr) ? worm->sectors_burned() * worm->sector_size()
                        : hist_->device_bytes();

  std::vector<std::pair<std::string, Timestamp>> versions;
  std::vector<HistAddr> seen_hist;
  TSB_RETURN_IF_ERROR(WalkStats(root(), out, &versions, &seen_hist));
  // Historical totals come from the walk, not the store's append
  // counters: those restart at zero with every reopen.
  out->hist_nodes = seen_hist.size();
  for (const HistAddr& a : seen_hist) out->optical_payload_bytes += a.length;
  std::sort(versions.begin(), versions.end());
  versions.erase(std::unique(versions.begin(), versions.end()),
                 versions.end());
  out->logical_versions = versions.size();

  // Used bytes inside live current pages: walk current pages only.
  // (Re-walk is cheap relative to the full DAG walk above.)
  std::vector<uint32_t> stack = {root_.load(std::memory_order_acquire)};
  std::set<uint32_t> seen_pages;
  uint64_t used = 0;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (!seen_pages.insert(id).second) continue;
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->Fetch(id, &h));
    if (TsbPageLevel(h.data()) == 0) {
      DataPageRef page(h.data(), options_.page_size);
      used += page.UsedBytes();
    } else {
      IndexPageRef page(h.data(), options_.page_size);
      used += page.UsedBytes();
      for (int i = 0; i < page.Count(); ++i) {
        IndexEntry e;
        TSB_RETURN_IF_ERROR(page.At(i, &e));
        if (!e.child.historical) stack.push_back(e.child.page_id);
      }
    }
  }
  out->magnetic_used_bytes = used;
  return Status::OK();
}

Status TsbTree::ScanHistoryRange(const Slice& key_lo, const Slice& key_hi,
                                 Timestamp t_lo, Timestamp t_hi,
                                 std::vector<VersionRecord>* out) {
  out->clear();
  if (t_lo >= t_hi) return Status::OK();
  // A cursor pinned at the window's last instant visits every key written
  // in the window (versions are never removed, so each such key has a
  // version then); NextVersion walks each key's past down to t_lo. The
  // as-of state is immutable, so concurrent splits cost only the cursor's
  // own revalidation re-seeks.
  ReadOptions options;
  options.as_of = std::min(t_hi - 1, kMaxCommittedTs);
  VersionCursor c(this, options);
  TSB_RETURN_IF_ERROR(key_hi.empty() ? c.Seek(key_lo)
                                     : c.SeekRange(key_lo, key_hi));
  while (c.Valid()) {
    // The time axis runs newest first; reverse each key's run so the
    // output stays in (key, ts) order.
    const size_t run = out->size();
    while (c.Valid() && c.ts() >= t_lo) {
      out->push_back(
          VersionRecord{c.key().ToString(), c.ts(), c.value().ToString()});
      TSB_RETURN_IF_ERROR(c.NextVersion());
    }
    std::reverse(out->begin() + run, out->end());
    TSB_RETURN_IF_ERROR(c.Next());
  }
  return Status::OK();
}

std::unique_ptr<VersionCursor> TsbTree::NewCursor(const ReadOptions& options) {
  return std::make_unique<VersionCursor>(this, options);
}

}  // namespace tsb_tree
}  // namespace tsb
