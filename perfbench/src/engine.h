// One surface over the two ways the benchmark drives the engine: a
// single MultiVersionDB or a ShardedDB. Each method is one public call
// (or a short fixed sequence of them) wrapped in a span named after the
// module that owns the call: "db.*" for MultiVersionDB, "txn.*" for the
// read-only transaction, "tsb.*" for VersionCursor, "shard.*" for
// ShardedDB and its cursor.
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "db/multiversion_db.h"
#include "shard/sharded_db.h"

namespace perfbench {

struct EngineConfig {
  uint32_t shards = 0;  ///< 0 = one MultiVersionDB; N = ShardedDB(N)
  size_t pool_frames = 256;
  size_t hist_cache_blobs = 8;
  tsb::wal::WalSyncMode wal_sync = tsb::wal::WalSyncMode::kGroup;
  bool enable_wal = true;
  /// TsbOptions::concurrent_writers: commits stamp in parallel and the
  /// watermark publishes an ordered prefix (the multi-writer setting).
  bool concurrent_writers = false;
  /// Wrap every device in a TimedDevice (traced runs).
  bool timed_devices = false;
};

/// Engine-wide counters, summed over shards.
struct EngineCounters {
  tsb::BufferPoolStats pool;
  tsb::HistReadStats hist;
  uint64_t data_key_splits = 0;
  uint64_t data_time_splits = 0;
  uint64_t index_time_splits = 0;
  uint64_t records_migrated = 0;
  uint64_t stamp_descents = 0;
  uint64_t olc_restarts = 0;
  uint64_t serial_fallback_commits = 0;
};

class Engine {
 public:
  /// Opens (creating) the database at `path`.
  static tsb::Status Open(const std::string& path, const EngineConfig& cfg,
                          std::unique_ptr<Engine>* out);
  virtual ~Engine() = default;

  virtual tsb::Status Put(const tsb::Slice& key, const tsb::Slice& value,
                          tsb::Timestamp* ts) = 0;
  virtual tsb::Status Write(const tsb::db::WriteBatch& batch,
                            tsb::Timestamp* ts) = 0;
  /// Read at the committed watermark.
  virtual tsb::Status GetCurrent(const tsb::Slice& key,
                                 tsb::db::PinnableValue* value) = 0;
  /// Read at the watermark through a lock-free read-only transaction
  /// (the reader that runs beside writers); sharded engines read through
  /// GetCurrent.
  virtual tsb::Status GetSnapshot(const tsb::Slice& key,
                                  tsb::db::PinnableValue* value) = 0;
  virtual tsb::Status GetAsOf(const tsb::Slice& key, tsb::Timestamp t,
                              tsb::db::PinnableValue* value) = 0;
  /// Keys in [lo, hi) as of `t`; `fn` sees each entry.
  using ScanFn = std::function<void(const tsb::Slice& key,
                                    const tsb::Slice& value,
                                    tsb::Timestamp ts)>;
  virtual tsb::Status Scan(const tsb::Slice& lo, const tsb::Slice& hi,
                           tsb::Timestamp t, const ScanFn& fn,
                           uint64_t* entries) = 0;
  virtual tsb::Status Checkpoint() = 0;

  /// The published watermark: what a current read sees at least.
  virtual tsb::Timestamp Visible() = 0;
  /// Issued-but-unpublished timestamps: clock Now() minus watermark.
  virtual uint64_t WatermarkLag() = 0;
  virtual uint32_t ShardOf(const tsb::Slice& key) = 0;

  virtual EngineCounters Counters() = 0;
  /// Sum of every shard's section-5 space walk.
  virtual tsb::Status Space(tsb::tsb_tree::SpaceStats* out) = 0;
  /// Sum of every shard's live WAL counters. Quiesced use only: the
  /// counters restart with each rotated log object.
  virtual tsb::wal::WalStats Wal() = 0;
  /// Sum of what every shard's Open-time recovery replayed.
  virtual tsb::db::MultiVersionDB::RecoveryStats Recovery() = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
