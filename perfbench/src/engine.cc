#include "engine.h"

#include "timed_device.h"
#include "trace.h"

namespace perfbench {

namespace {

using tsb::Slice;
using tsb::Status;
using tsb::Timestamp;
using tsb::db::PinnableValue;

// WAL and coordinator-log size that triggers a checkpoint: more than any
// run writes, so checkpoints happen only where the benchmark calls
// Checkpoint() (NOTES.md).
constexpr uint64_t kCheckpointBytes = uint64_t{4} << 30;

tsb::db::DbOptions BaseOptions(const EngineConfig& cfg) {
  tsb::db::DbOptions o;
  o.tree.buffer_pool_frames = cfg.pool_frames;
  o.tree.hist_cache_blobs = cfg.hist_cache_blobs;
  o.tree.concurrent_writers = cfg.concurrent_writers;
  o.wal_sync = cfg.wal_sync;
  o.enable_wal = cfg.enable_wal;
  o.wal_checkpoint_bytes = kCheckpointBytes;
  if (cfg.timed_devices) {
    o.wrap_device = [](const std::string& role,
                       std::unique_ptr<tsb::Device> dev)
        -> std::unique_ptr<tsb::Device> {
      return std::make_unique<TimedDevice>(role, std::move(dev));
    };
  }
  return o;
}

void AddCounters(tsb::db::MultiVersionDB* db, EngineCounters* c) {
  c->pool.Add(db->PoolStats());
  c->hist.Add(db->HistStats());
  const tsb::tsb_tree::TsbCounters& t = db->primary()->counters();
  c->data_key_splits += t.data_key_splits;
  c->data_time_splits += t.data_time_splits;
  c->index_time_splits += t.index_time_splits;
  c->records_migrated += t.records_migrated;
  c->stamp_descents += t.stamp_descents;
  c->olc_restarts += t.olc_restarts;
  c->serial_fallback_commits += db->txn_manager()->serial_fallback_commits();
}

void AddSpace(const tsb::tsb_tree::SpaceStats& s,
              tsb::tsb_tree::SpaceStats* out) {
  out->magnetic_pages += s.magnetic_pages;
  out->magnetic_bytes += s.magnetic_bytes;
  out->magnetic_used_bytes += s.magnetic_used_bytes;
  out->optical_payload_bytes += s.optical_payload_bytes;
  out->optical_device_bytes += s.optical_device_bytes;
  out->hist_nodes += s.hist_nodes;
  out->leaked_free_pages += s.leaked_free_pages;
  out->logical_versions += s.logical_versions;
  out->physical_record_copies += s.physical_record_copies;
}

void AddWal(tsb::db::MultiVersionDB* db, tsb::wal::WalStats* out) {
  if (db->wal() == nullptr) return;
  const tsb::wal::WalStats w = db->wal()->stats();
  out->frames_appended += w.frames_appended;
  out->bytes_appended += w.bytes_appended;
  out->syncs += w.syncs;
  out->sync_requests += w.sync_requests;
  out->sync_piggybacks += w.sync_piggybacks;
}

void AddRecovery(const tsb::db::MultiVersionDB::RecoveryStats& r,
                 tsb::db::MultiVersionDB::RecoveryStats* out) {
  out->purged_uncommitted += r.purged_uncommitted;
  out->frames_replayed += r.frames_replayed;
  out->ops_replayed += r.ops_replayed;
  out->wal_bytes_scanned += r.wal_bytes_scanned;
}

/// Timestamps issued but not yet published. The watermark is read first:
/// it never passes the issued clock, which only grows.
uint64_t Lag(Timestamp visible, const tsb::LogicalClock& clock) {
  const Timestamp issued = clock.Now();
  return issued > visible ? issued - visible : 0;
}

template <typename Cursor>
Status ScanCursor(Cursor* c, const Slice& lo, const Slice& hi,
                  const Engine::ScanFn& fn, uint64_t* entries,
                  const char* seek_name, const char* next_name) {
  Status s;
  {
    Span span(seek_name);
    s = c->SeekRange(lo, hi);
  }
  uint64_t n = 0;
  while (s.ok() && c->Valid()) {
    fn(c->key(), c->value(), c->ts());
    ++n;
    Span span(next_name);
    s = c->Next();
  }
  *entries = n;
  return s;
}

class SingleEngine : public Engine {
 public:
  explicit SingleEngine(std::unique_ptr<tsb::db::MultiVersionDB> db)
      : db_(std::move(db)) {}

  Status Put(const Slice& key, const Slice& value, Timestamp* ts) override {
    Span span("db.Put");
    return db_->Put(key, value, ts);
  }
  Status Write(const tsb::db::WriteBatch& batch, Timestamp* ts) override {
    Span span("db.Write");
    return db_->Write(batch, ts);
  }
  Status GetCurrent(const Slice& key, PinnableValue* value) override {
    Span span("db.Get.current");
    return db_->Get(tsb::db::ReadOptions(), key, value);
  }
  Status GetSnapshot(const Slice& key, PinnableValue* value) override {
    Span span("txn.ReadTransaction.Get");
    return db_->BeginReadOnly().Get(key, value);
  }
  Status GetAsOf(const Slice& key, Timestamp t,
                 PinnableValue* value) override {
    Span span("db.Get.asof");
    tsb::db::ReadOptions ro;
    ro.as_of = t;
    return db_->Get(ro, key, value);
  }
  Status Scan(const Slice& lo, const Slice& hi, Timestamp t, const ScanFn& fn,
              uint64_t* entries) override {
    tsb::db::ReadOptions ro;
    ro.as_of = t;
    std::unique_ptr<tsb::db::VersionCursor> c;
    {
      Span span("db.NewCursor");
      c = db_->NewCursor(ro);
    }
    return ScanCursor(c.get(), lo, hi, fn, entries,
                      "tsb.VersionCursor.SeekRange", "tsb.VersionCursor.Next");
  }
  Status Checkpoint() override {
    Span span("db.Checkpoint");
    return db_->Checkpoint();
  }
  Timestamp Visible() override { return db_->Now(); }
  uint64_t WatermarkLag() override {
    return Lag(db_->Now(), db_->primary()->clock());
  }
  uint32_t ShardOf(const Slice&) override { return 0; }
  EngineCounters Counters() override {
    EngineCounters c;
    AddCounters(db_.get(), &c);
    return c;
  }
  Status Space(tsb::tsb_tree::SpaceStats* out) override {
    *out = tsb::tsb_tree::SpaceStats();
    return db_->ComputeSpaceStats(out);
  }
  tsb::wal::WalStats Wal() override {
    tsb::wal::WalStats w;
    AddWal(db_.get(), &w);
    return w;
  }
  tsb::db::MultiVersionDB::RecoveryStats Recovery() override {
    return db_->recovery_stats();
  }

 private:
  std::unique_ptr<tsb::db::MultiVersionDB> db_;
};

class ShardedEngine : public Engine {
 public:
  explicit ShardedEngine(std::unique_ptr<tsb::shard::ShardedDB> db)
      : db_(std::move(db)) {}

  Status Put(const Slice& key, const Slice& value, Timestamp* ts) override {
    Span span("shard.Put");
    return db_->Put(key, value, ts);
  }
  Status Write(const tsb::db::WriteBatch& batch, Timestamp* ts) override {
    Span span("shard.Write");
    return db_->Write(batch, ts);
  }
  Status GetCurrent(const Slice& key, PinnableValue* value) override {
    Span span("shard.Get.current");
    return db_->Get(tsb::db::ReadOptions(), key, value);
  }
  Status GetSnapshot(const Slice& key, PinnableValue* value) override {
    return GetCurrent(key, value);
  }
  Status GetAsOf(const Slice& key, Timestamp t,
                 PinnableValue* value) override {
    Span span("shard.Get.asof");
    tsb::db::ReadOptions ro;
    ro.as_of = t;
    return db_->Get(ro, key, value);
  }
  Status Scan(const Slice& lo, const Slice& hi, Timestamp t, const ScanFn& fn,
              uint64_t* entries) override {
    tsb::db::ReadOptions ro;
    ro.as_of = t;
    std::unique_ptr<tsb::shard::ShardedCursor> c;
    {
      Span span("shard.NewCursor");
      c = db_->NewCursor(ro);
    }
    return ScanCursor(c.get(), lo, hi, fn, entries,
                      "shard.ShardedCursor.SeekRange",
                      "shard.ShardedCursor.Next");
  }
  Status Checkpoint() override {
    Span span("shard.Checkpoint");
    return db_->Checkpoint();
  }
  Timestamp Visible() override { return db_->Now(); }
  uint64_t WatermarkLag() override {
    return Lag(db_->Now(), *db_->clock());
  }
  uint32_t ShardOf(const Slice& key) override { return db_->ShardOf(key); }
  EngineCounters Counters() override {
    EngineCounters c;
    for (uint32_t i = 0; i < db_->num_shards(); ++i) {
      AddCounters(db_->shard(i), &c);
    }
    return c;
  }
  Status Space(tsb::tsb_tree::SpaceStats* out) override {
    *out = tsb::tsb_tree::SpaceStats();
    for (uint32_t i = 0; i < db_->num_shards(); ++i) {
      tsb::tsb_tree::SpaceStats s;
      Status st = db_->shard(i)->ComputeSpaceStats(&s);
      if (!st.ok()) return st;
      AddSpace(s, out);
    }
    return Status::OK();
  }
  tsb::wal::WalStats Wal() override {
    tsb::wal::WalStats w;
    for (uint32_t i = 0; i < db_->num_shards(); ++i) {
      AddWal(db_->shard(i), &w);
    }
    return w;
  }
  tsb::db::MultiVersionDB::RecoveryStats Recovery() override {
    tsb::db::MultiVersionDB::RecoveryStats r;
    for (uint32_t i = 0; i < db_->num_shards(); ++i) {
      AddRecovery(db_->shard(i)->recovery_stats(), &r);
    }
    return r;
  }

 private:
  std::unique_ptr<tsb::shard::ShardedDB> db_;
};

}  // namespace

Status Engine::Open(const std::string& path, const EngineConfig& cfg,
                    std::unique_ptr<Engine>* out) {
  if (cfg.shards == 0) {
    std::unique_ptr<tsb::db::MultiVersionDB> db;
    Status s;
    {
      Span span("db.Open");
      s = tsb::db::MultiVersionDB::Open(path, BaseOptions(cfg), &db);
    }
    if (!s.ok()) return s;
    *out = std::make_unique<SingleEngine>(std::move(db));
    return Status::OK();
  }
  tsb::shard::ShardedOptions so;
  so.base = BaseOptions(cfg);
  so.num_shards = cfg.shards;
  so.coord_checkpoint_bytes = kCheckpointBytes;
  std::unique_ptr<tsb::shard::ShardedDB> db;
  Status s;
  {
    Span span("shard.Open");
    s = tsb::shard::ShardedDB::Open(path, so, &db);
  }
  if (!s.ok()) return s;
  *out = std::make_unique<ShardedEngine>(std::move(db));
  return Status::OK();
}

}  // namespace perfbench
