// Counters and space statistics for the TSB-tree: exactly the quantities
// the paper's section 5 says the authors were measuring — total space,
// current-database space, and amount of redundancy — under different
// splitting policies and update:insert mixes.
#ifndef TSBTREE_TSB_TSB_STATS_H_
#define TSBTREE_TSB_TSB_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace tsb {
namespace tsb_tree {

/// How historical nodes were parsed on the read paths. Atomic because the
/// lock-free readers bump these concurrently. Snapshot through
/// TsbTree::HistStats.
struct HistDecodeCounters {
  std::atomic<uint64_t> view_decodes{0};   ///< zero-copy ref parses
  std::atomic<uint64_t> owned_decodes{0};  ///< materializing decodes
};

/// Running operation counters (cheap, maintained inline). Atomic fields:
/// multiple writer threads bump them in parallel; fields convert
/// implicitly to uint64_t for reading.
struct TsbCounters {
  std::atomic<uint64_t> puts{0};   ///< committed record versions inserted
  std::atomic<uint64_t> uncommitted_puts{0};
  std::atomic<uint64_t> stamps{0}; ///< uncommitted records committed in place
  /// Leaf descents performed to stamp them: batched commits stamp every
  /// key landing on one leaf in a single descent, so for large batches
  /// this grows with leaves touched, not keys stamped.
  std::atomic<uint64_t> stamp_descents{0};
  std::atomic<uint64_t> erases{0}; ///< uncommitted records erased (aborts)

  std::atomic<uint64_t> data_key_splits{0};
  std::atomic<uint64_t> data_time_splits{0};
  std::atomic<uint64_t> index_key_splits{0};
  std::atomic<uint64_t> index_time_splits{0};
  std::atomic<uint64_t> root_grows{0};

  std::atomic<uint64_t> hist_data_nodes{0};   ///< data nodes migrated
  std::atomic<uint64_t> hist_index_nodes{0};  ///< index nodes migrated
  /// Record versions written historically.
  std::atomic<uint64_t> records_migrated{0};
  std::atomic<uint64_t> index_entries_migrated{0};

  /// Record versions kept in BOTH nodes by TIME-SPLIT RULE clause 3.
  std::atomic<uint64_t> redundant_record_copies{0};
  /// Index entries duplicated into both siblings (keyspace-split clause 4
  /// and local-time-split straddlers).
  std::atomic<uint64_t> redundant_index_copies{0};

  /// Optimistic-latch-coupling writer descents that restarted from the
  /// root because the structure changed underneath them.
  std::atomic<uint64_t> olc_restarts{0};
  /// Descents that resolved a concurrent key split by stepping laterally
  /// to the just-split page's right sibling instead of restarting.
  std::atomic<uint64_t> olc_sidesteps{0};
};

/// Space snapshot computed by walking the tree (see
/// TsbTree::ComputeSpaceStats). Magnetic numbers come from the pager, the
/// optical device size from the append store, historical node counts and
/// payload bytes plus logical/physical version counts from a DAG walk.
struct SpaceStats {
  uint64_t magnetic_pages = 0;
  uint64_t magnetic_bytes = 0;       ///< pages * page_size (allocated)
  uint64_t magnetic_used_bytes = 0;  ///< live cell bytes within pages
  uint64_t optical_payload_bytes = 0;
  uint64_t optical_device_bytes = 0;  ///< incl. framing + sector residue
  uint64_t hist_nodes = 0;
  /// Free pages dropped by the last free-list persist because they did not
  /// fit in the bounded meta space (see Pager::EncodeFreeList).
  uint64_t leaked_free_pages = 0;

  uint64_t logical_versions = 0;        ///< distinct committed (key, ts)
  uint64_t physical_record_copies = 0;  ///< record cells, all nodes

  uint64_t total_bytes() const { return magnetic_bytes + optical_device_bytes; }

  /// Physical copies per logical version (1.0 = no redundancy).
  double redundancy() const {
    return logical_versions == 0
               ? 1.0
               : static_cast<double>(physical_record_copies) /
                     static_cast<double>(logical_versions);
  }

  /// The paper's cost function CS = SpaceM * CM + SpaceO * CO.
  double StorageCost(double cm, double co) const {
    return static_cast<double>(magnetic_bytes) * cm +
           static_cast<double>(optical_device_bytes) * co;
  }
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_TSB_STATS_H_
