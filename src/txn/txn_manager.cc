#include "txn/txn_manager.h"

#include <utility>
#include <vector>

#include "common/logger.h"
#include "txn/commit_ledger.h"

namespace tsb {
namespace txn {

Transaction::~Transaction() {
  if (active_) {
    Abort();  // best effort; destruction must not lose locks
  }
}

Status Transaction::Put(const Slice& key, const Slice& value) {
  if (!active_) return Status::TxnNotActive("Put on finished transaction");
  TSB_RETURN_IF_ERROR(mgr_->LockKey(key.ToString(), id_));
  TSB_RETURN_IF_ERROR(mgr_->tree_->PutUncommitted(key, value, id_));
  writes_[key.ToString()] = value.ToString();
  return Status::OK();
}

Status Transaction::Get(const Slice& key, std::string* value) {
  if (!active_) return Status::TxnNotActive("Get on finished transaction");
  auto it = writes_.find(key.ToString());
  if (it != writes_.end()) {
    *value = it->second;
    return Status::OK();
  }
  return mgr_->tree_->GetCurrent(key, value);
}

Status Transaction::Commit(Timestamp* commit_ts) {
  if (!active_) return Status::TxnNotActive("Commit on finished transaction");
  return mgr_->CommitTxn(this, commit_ts);
}

Status Transaction::Abort() {
  if (!active_) return Status::TxnNotActive("Abort on finished transaction");
  return mgr_->AbortTxn(this);
}

Status TxnManager::Begin(std::unique_ptr<Transaction>* out) {
  out->reset(
      new Transaction(this, next_txn_.fetch_add(1, std::memory_order_acq_rel)));
  active_count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status TxnManager::Write(const WriteBatch& batch, Timestamp* commit_ts) {
  if (batch.empty()) {
    // Nothing to stamp; report the current watermark as "when".
    if (commit_ts != nullptr) *commit_ts = tree_->VisibleNow();
    return Status::OK();
  }
  std::unique_ptr<Transaction> txn;
  TSB_RETURN_IF_ERROR(Begin(&txn));
  for (const auto& [key, value] : batch.ops()) {
    Status s = txn->Put(key, value);
    if (!s.ok()) {
      txn->Abort();  // all-or-nothing: a conflict undoes the whole batch
      return s;
    }
  }
  return txn->Commit(commit_ts);
}

Status TxnManager::LockKey(const std::string& key, TxnId txn) {
  std::lock_guard<std::mutex> lock(lock_mu_);
  auto [it, inserted] = lock_table_.emplace(key, txn);
  if (!inserted && it->second != txn) {
    return Status::TxnConflict("key locked by txn " +
                               std::to_string(it->second), key);
  }
  return Status::OK();
}

void TxnManager::UnlockKeys(const Transaction& txn) {
  std::lock_guard<std::mutex> lock(lock_mu_);
  for (const auto& [key, value] : txn.writes_) {
    auto it = lock_table_.find(key);
    if (it != lock_table_.end() && it->second == txn.id_) {
      lock_table_.erase(it);
    }
  }
}

Status TxnManager::CommitTxn(Transaction* txn, Timestamp* commit_ts) {
  return CommitInternal(txn, commit_ts, /*external_ts=*/0);
}

Status TxnManager::CommitPrepared(Transaction* txn, Timestamp ts) {
  if (!txn->active_) {
    return Status::TxnNotActive("CommitPrepared on finished transaction");
  }
  return CommitInternal(txn, nullptr, ts);
}

Status TxnManager::CommitInternal(Transaction* txn, Timestamp* commit_ts,
                                  Timestamp external_ts) {
  // Only the tick, the log append and the watermark bookkeeping serialize
  // on commit_mu_; the stamping descents run in parallel (optimistic latch
  // coupling inside the tree). Publication advances to the largest
  // timestamp with no smaller commit still in flight — an ordered prefix —
  // so a reader at the watermark sees whole transactions or nothing, and a
  // time split (which caps its boundary at the PUBLISHED watermark) can
  // never out-run an in-flight stamp.
  //
  // A commit hook (secondary-index maintenance) must apply in timestamp
  // order, so with one installed the commit keeps commit_mu_ through
  // stamping, sync and hook: commits then run one at a time, the paper's
  // single-updater model (section 4.1).
  const bool ordered = static_cast<bool>(hook_);
  std::unique_lock<std::mutex> commit_lock(commit_mu_);
  commit_cv_.wait(commit_lock, [&] { return !frozen_; });
  if (gate_) TSB_RETURN_IF_ERROR(gate_());
  if (ordered) serial_fallback_commits_.fetch_add(1, std::memory_order_relaxed);
  // One commit timestamp for the whole transaction (rollback-database
  // semantics: records are stamped with transaction commit time). With a
  // ledger, allocation goes through it so registration in the GLOBAL
  // in-flight set is atomic with the tick; an externally allocated
  // timestamp is already registered by the caller.
  const Timestamp ts = external_ts != 0 ? external_ts
                       : ledger_ != nullptr ? ledger_->TickCommit()
                                            : tree_->clock().Tick();
  uint64_t wal_end_lsn = 0;
  if (wal_ != nullptr) {
    // Log BEFORE entering inflight_: append order under commit_mu_ ==
    // timestamp order, so replay reproduces the one serialization the
    // watermark could have published. (Cross-shard slices may land out of
    // global ts order in a SHARD's log, but per key the lock table
    // serializes writers, so per-key order — all replay depends on — still
    // holds.) An append failure aborts the commit before any stamp — the
    // transaction stays active and abortable, nothing is torn — but the
    // log itself is sick: escalate.
    Status append_status = wal_->AppendCommit(ts, txn->writes_, &wal_end_lsn);
    if (!append_status.ok()) {
      commit_lock.unlock();
      if (external_ts == 0 && ledger_ != nullptr) ledger_->AbortCommit(ts);
      if (reporter_) reporter_("wal append", append_status);
      return append_status;
    }
    wal_appended_lsn_.store(wal_end_lsn, std::memory_order_release);
  }
  inflight_.insert(ts);
  // Capture the previous committed versions for the hook BEFORE any
  // stamping — and only when a hook is installed (no secondary indexes =
  // no pre-commit read descents at all).
  std::vector<std::pair<bool, std::string>> old_values;
  if (ordered) {
    old_values.reserve(txn->writes_.size());
    for (const auto& [key, value] : txn->writes_) {
      std::string old_value;
      const bool had_old = tree_->GetCurrent(key, &old_value).ok();
      old_values.emplace_back(had_old, std::move(old_value));
    }
  } else {
    commit_lock.unlock();
  }
  // Batched stamping: writes_ is a std::map, so the keys arrive sorted
  // and every key landing on the same leaf is stamped in one descent
  // (see TsbTree::StampCommittedBatch).
  std::vector<Slice> keys;
  keys.reserve(txn->writes_.size());
  for (const auto& [key, value] : txn->writes_) keys.emplace_back(key);
  Status status = tree_->StampCommittedBatch(keys, txn->id_, ts);
  if (status.ok() && wal_ != nullptr) {
    // Group-commit rendezvous, while this commit is STILL in inflight_:
    // the watermark cannot publish past a commit whose durability is
    // unresolved, so an fdatasync failure can poison before any reader
    // observed the stamp.
    status = wal_->Sync(wal_end_lsn);
  }
  if (status.ok() && ordered) {
    size_t i = 0;
    for (const auto& [key, value] : txn->writes_) {
      status = hook_(key, old_values[i].first ? &old_values[i].second : nullptr,
                     value, ts);
      if (!status.ok()) break;
      ++i;
    }
  }
  if (!ordered) commit_lock.lock();
  inflight_.erase(ts);
  if (frozen_ && inflight_.empty()) commit_cv_.notify_all();
  if (!status.ok()) {
    // A storage/hook error mid-commit may leave partial stamps behind.
    // Those must never become reader-visible: poison the watermark so no
    // later commit can publish past this torn timestamp. The database
    // needs recovery (degraded-mode Resume purges the failed timestamp)
    // at this point; readers keep a consistent (older) view, writers keep
    // getting this commit's error surfaced.
    if (publish_cap_ > ts - 1) publish_cap_ = ts - 1;
    failed_commits_.push_back(ts);
    if (external_ts != 0) failed_external_.insert(ts);
    TSB_LOG_ERROR("commit at t=%llu failed mid-stamp (%s); freezing the "
                  "read watermark at t=%llu",
                  (unsigned long long)ts, status.ToString().c_str(),
                  (unsigned long long)publish_cap_);
    commit_lock.unlock();
    if (external_ts == 0 && ledger_ != nullptr) ledger_->PoisonCommit(ts);
    if (reporter_) reporter_("commit", status);
    return status;
  }
  if (completed_max_ < ts) completed_max_ = ts;
  Timestamp publish =
      inflight_.empty() ? completed_max_ : *inflight_.begin() - 1;
  if (publish > publish_cap_) publish = publish_cap_;
  commit_lock.unlock();
  // Publish only once every key is stamped AND every secondary index is
  // maintained: readers at the watermark see whole transactions or
  // nothing (paper section 4.1).
  if (external_ts == 0) {
    if (ledger_ != nullptr) {
      ledger_->EndCommit(ts);  // global ordered prefix; publishes inside
    } else {
      tree_->clock().Publish(publish);  // monotone CAS-max inside
    }
  }
  UnlockKeys(*txn);
  txn->active_ = false;
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  if (commit_ts != nullptr) *commit_ts = ts;
  return Status::OK();
}

std::vector<Timestamp> TxnManager::failed_commits() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return failed_commits_;
}

void TxnManager::ResetAfterRepair() {
  Timestamp publish;
  std::vector<Timestamp> own_failed;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    own_failed.reserve(failed_commits_.size());
    for (const Timestamp ts : failed_commits_) {
      if (failed_external_.find(ts) == failed_external_.end()) {
        own_failed.push_back(ts);
      }
    }
    failed_commits_.clear();
    failed_external_.clear();
    publish_cap_ = kMaxCommittedTs;
    publish = completed_max_;
  }
  if (ledger_ != nullptr) {
    // The ledger owns the watermark. Lift only the pins THIS shard's own
    // commits set; externally-coordinated failures stay pinned until the
    // sharded facade has re-applied their decided slices (it unpoisons
    // them itself afterwards).
    for (const Timestamp ts : own_failed) ledger_->Unpoison(ts);
    return;
  }
  // Monotone CAS-max inside: commits that completed after the poisoning
  // (acked, durable, invisible under the cap) become readable here.
  tree_->clock().Publish(publish);
}

void TxnManager::FreezeCommits() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // Block new commit starts first, then drain the in-flight set with
  // commit_mu_ RELEASED inside the wait: finishing committers need the
  // mutex for their bookkeeping, so holding it through the drain would
  // deadlock.
  frozen_ = true;
  commit_cv_.wait(lock, [&] { return inflight_.empty(); });
}

void TxnManager::UnfreezeCommits() {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    frozen_ = false;
  }
  commit_cv_.notify_all();
}

Status TxnManager::AbortTxn(Transaction* txn) {
  for (const auto& [key, value] : txn->writes_) {
    Status s = tree_->EraseUncommitted(key, txn->id_);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  UnlockKeys(*txn);
  txn->active_ = false;
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

}  // namespace txn
}  // namespace tsb
