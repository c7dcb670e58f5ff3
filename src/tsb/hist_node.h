// Historical node container format.
//
// Historical nodes are immutable consolidated blobs in the append store
// (paper section 3.4). Three wire versions exist, distinguished by byte 1:
//
//  v1 (legacy, byte1 == 0):
//    [u8 level][u8 0][varint32 count] { [varint32 cell_len][cell] } * count
//    Cells can only be found by a linear front-to-back walk.
//
//  v2 (byte1 == kHistNodeVersion2) — slotted, mirrors SlottedView:
//    [u8 level][u8 2][u32 count]
//    [cells back-to-back, no per-cell framing]
//    [u32 cell_offset] * count      <- trailing slot directory
//    Cell i spans [dir[i], dir[i+1]) (the last cell ends where the
//    directory starts), so views can random-access and binary-search cells
//    directly over the pinned blob with no decode pass and no allocation.
//
//  v3 (byte1 == kHistNodeVersion3) — restart-block prefix compression,
//  PISA/LevelDB-block style. Cells are grouped into blocks of K
//  (restart_interval); each block's first cell (the restart cell) is
//  stored whole, the others store only the byte suffix after their shared
//  prefix with the restart cell. Sorted cells start with their encoded
//  key, so key prefixes (and whole keys, for multi-version runs) compress
//  away. The trailing directory indexes restart points only:
//    [u8 level][u8 3][u32 count][u16 restart_interval]
//    { [varint shared][varint rest_len][rest bytes] } * count
//    [u32 restart_offset] * ceil(count / K)
//  Readers binary-search the restarts, then decode at most K cells inside
//  one block. Delta-encoded cells are reassembled into a small per-ref
//  scratch buffer (restart cells and all v1/v2 cells stay pure views), so
//  a view obtained from Cell/At is valid only until the NEXT Cell/At call
//  on the same ref.
//
// HistNodeRef parses all versions; v2/v3 need O(1) setup, v1 falls back to
// one linear walk that builds a per-node offset table. Historical nodes
// are written exactly once (consolidation), which is why the heavier
// one-shot v3 encoding costs nothing on the write path. The tree always
// writes v3; every version remains decodable forever.
#ifndef TSBTREE_TSB_HIST_NODE_H_
#define TSBTREE_TSB_HIST_NODE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace tsb {
namespace tsb_tree {

inline constexpr uint8_t kHistNodeVersion2 = 2;
inline constexpr uint8_t kHistNodeVersion3 = 3;

/// Wire format selector for newly written historical nodes.
enum class HistNodeFormat : uint8_t {
  kV2 = kHistNodeVersion2,  ///< slotted, uncompressed (fastest decode)
  kV3 = kHistNodeVersion3,  ///< restart-block prefix compression (smallest)
};

/// Cells per restart block in v3 nodes.
inline constexpr uint32_t kHistRestartInterval = 16;

/// Reassembly buffer for delta-encoded v3 cells. Cells up to the inline
/// size (the common case) rebuild with no heap traffic; larger cells fall
/// back to a heap buffer whose capacity is reused.
class CellScratch {
 public:
  char* Acquire(size_t n) {
    if (n <= sizeof(inline_)) return inline_;
    if (heap_.size() < n) heap_.resize(n);
    return heap_.data();
  }

 private:
  char inline_[512];
  std::vector<char> heap_;
};

/// Serializes a historical node: construct with the level, cell count and
/// wire format, AddCell() each cell's encoded bytes in sorted order, then
/// Finish() to emit the trailing directory.
class HistNodeBuilder {
 public:
  HistNodeBuilder(uint8_t level, uint32_t count, std::string* out,
                  HistNodeFormat format = HistNodeFormat::kV3,
                  uint32_t restart_interval = kHistRestartInterval);

  void AddCell(const Slice& cell);

  /// Appends the trailing directory. Must be called exactly once, after
  /// `count` AddCell() calls.
  void Finish();

  /// Bytes a v2 (uncompressed slotted) encoding of the same cells would
  /// occupy; with out->size() after Finish this yields the node's
  /// compression ratio.
  uint64_t raw_bytes() const { return 6 + cell_bytes_ + 4ull * count_; }

 private:
  std::string* out_;
  HistNodeFormat format_;
  uint32_t count_;
  uint32_t interval_;
  uint32_t added_ = 0;
  uint32_t in_block_ = 0;
  uint64_t cell_bytes_ = 0;
  std::string restart_cell_;       // v3: current block's first cell
  std::vector<uint32_t> offsets_;  // v2: cell offsets; v3: restart offsets
};

/// Zero-copy accessor over a historical node blob of any version. The
/// caller keeps the blob alive (pinned BlobHandle or owning string) while
/// the ref and any Slices obtained through it are in use. For v3 blobs a
/// Slice from Cell() may point into the scratch buffer and is additionally
/// invalidated by the next Cell() call using the same scratch.
class HistNodeRef {
 public:
  /// Parses the container framing. O(1) for v2/v3; one linear walk for v1.
  Status Parse(const Slice& blob);

  uint8_t level() const { return level_; }
  uint8_t version() const { return version_; }
  bool v2() const { return version_ == kHistNodeVersion2; }
  bool v3() const { return version_ == kHistNodeVersion3; }
  int Count() const { return static_cast<int>(count_); }

  /// Cell i's payload; empty on out-of-range or a corrupt directory entry
  /// (cell decoders then report corruption). v1/v2 cells and v3 restart
  /// cells are views into the blob; delta-encoded v3 cells are reassembled
  /// into `scratch`.
  Slice Cell(int i, CellScratch* scratch) const;

  // ---- v3 restart topology (two-phase binary search) ----

  uint32_t restart_interval() const { return interval_; }
  int RestartCount() const {
    return count_ == 0 ? 0
                       : static_cast<int>((count_ + interval_ - 1) / interval_);
  }
  /// First cell index of restart block r.
  int RestartIndex(int r) const { return r * static_cast<int>(interval_); }

 private:
  Slice blob_;
  uint8_t level_ = 0;
  uint8_t version_ = 0;
  uint32_t count_ = 0;
  uint32_t interval_ = 1;       // v3 restart interval (1 elsewhere)
  const char* dir_ = nullptr;   // v2: cell offsets; v3: restart offsets
  uint32_t dir_entries_ = 0;    // number of fixed32 entries behind dir_
  uint32_t cells_end_ = 0;      // blob offset where the directory starts
  std::vector<std::pair<uint32_t, uint32_t>> v1_cells_;  // v1: offset, len
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_HIST_NODE_H_
