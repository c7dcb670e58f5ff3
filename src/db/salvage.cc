#include "db/salvage.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logger.h"
#include "db/multiversion_db.h"
#include "storage/append_store.h"
#include "storage/page.h"
#include "tsb/data_page.h"
#include "wal/wal.h"

namespace tsb {
namespace db {

namespace {

/// (key, commit ts) -> value. The map IS the dedupe: the same version
/// harvested from a page, a blob and a WAL frame lands on one entry.
using RecordMap = std::map<std::pair<std::string, Timestamp>, std::string>;

struct SourceGeometry {
  uint32_t page_size = kDefaultPageSize;
  uint32_t hist_alignment = 0;  ///< WORM sector grid; 0 = unaligned
};

/// Best-effort MANIFEST parse for the two facts salvage needs. The crc
/// terminator is deliberately NOT required — a torn manifest with a
/// readable page_size line still beats guessing.
void SniffGeometry(const std::string& src, SourceGeometry* geo) {
  FILE* f = fopen((src + "/MANIFEST").c_str(), "r");
  if (f == nullptr) return;
  char line[128];
  bool worm = false;
  uint32_t sector = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    unsigned value = 0;
    if (sscanf(line, "page_size=%u", &value) == 1 && value >= 64 &&
        value <= (64u << 20)) {
      geo->page_size = value;
    } else if (sscanf(line, "worm_historical=%u", &value) == 1) {
      worm = value != 0;
    } else if (sscanf(line, "worm_sector_size=%u", &value) == 1) {
      sector = value;
    }
  }
  fclose(f);
  if (worm && sector > 0) geo->hist_alignment = sector;
}

Status ReadWholeFile(const std::string& file, bool* exists,
                     std::string* body) {
  *exists = false;
  body->clear();
  FILE* f = fopen(file.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("open " + file, strerror(errno));
  }
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) body->append(buf, n);
  const bool read_ok = ferror(f) == 0;
  fclose(f);
  if (!read_ok) return Status::IOError("read " + file, strerror(errno));
  *exists = true;
  return Status::OK();
}

void KeepEntries(const std::vector<tsb_tree::DataEntry>& entries,
                 RecordMap* records, SalvageReport* report) {
  for (const tsb_tree::DataEntry& e : entries) {
    if (e.ts == kUncommittedTs) {
      // Its transaction never committed; there is no timestamp to replay
      // it at and no owner to finish it.
      report->uncommitted_dropped++;
      continue;
    }
    records->emplace(std::make_pair(e.key, e.ts), e.value);
  }
}

/// Source 1: page slots of the base device. Only a page whose header AND
/// trailer checksums verify against its own slot id contributes — a
/// misdirected or bit-flipped page is rejected whole (half-trusting a
/// page's slot directory invites garbage records).
Status HarvestPages(const std::string& file, uint32_t page_size,
                    bool verbose, RecordMap* records, SalvageReport* report) {
  bool exists = false;
  std::string body;
  TSB_RETURN_IF_ERROR(ReadWholeFile(file, &exists, &body));
  if (!exists) return Status::OK();
  const uint64_t slots = body.size() / page_size;
  for (uint64_t slot = 0; slot < slots; ++slot) {
    char* buf = body.data() + slot * page_size;
    bool all_zero = true;
    for (uint32_t i = 0; i < page_size; ++i) {
      if (buf[i] != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;  // sparse hole
    report->pages_scanned++;
    Status s = VerifyPage(buf, page_size, static_cast<uint32_t>(slot));
    if (s.ok() && GetPageType(buf) == PageType::kTsbData) {
      tsb_tree::DataPageRef ref(buf, page_size);
      std::vector<tsb_tree::DataEntry> entries;
      s = ref.DecodeAll(&entries);
      if (s.ok()) {
        report->pages_salvaged++;
        KeepEntries(entries, records, report);
        continue;
      }
    } else if (s.ok()) {
      continue;  // meta / index page: verified, but carries no records
    }
    report->pages_rejected++;
    if (verbose) {
      fprintf(stderr, "tsb_doctor: reject page %llu of %s: %s\n",
              (unsigned long long)slot, file.c_str(), s.ToString().c_str());
    }
  }
  return Status::OK();
}

/// Source 2: append-store frames of the historical file. Frame =
/// [u32 len][u32 masked crc][payload] on the store's alignment grid. A
/// CRC-valid level-0 node contributes its entries; index nodes carry
/// only routing terms. A frame whose length no longer parses breaks the
/// chain — everything past it is unreachable without a valid length.
Status HarvestHistory(const std::string& file, uint32_t alignment,
                      bool verbose, RecordMap* records,
                      SalvageReport* report) {
  bool exists = false;
  std::string body;
  TSB_RETURN_IF_ERROR(ReadWholeFile(file, &exists, &body));
  if (!exists) return Status::OK();
  const uint64_t end = body.size();
  uint64_t offset = 0;
  while (true) {
    if (alignment > 0 && offset % alignment != 0) {
      offset += alignment - offset % alignment;
    }
    if (offset + AppendStore::kFrameHeaderSize > end) break;
    const char* p = body.data() + offset;
    const uint32_t len = DecodeFixed32(p);
    const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(p + 4));
    if (offset + AppendStore::kFrameHeaderSize + len > end) {
      report->blobs_rejected++;
      if (verbose) {
        fprintf(stderr,
                "tsb_doctor: history frame @%llu unparseable; chain ends\n",
                (unsigned long long)offset);
      }
      break;
    }
    report->blobs_scanned++;
    const Slice blob(p + AppendStore::kFrameHeaderSize, len);
    if (crc32c::Value(blob.data(), len) != stored_crc) {
      report->blobs_rejected++;
      if (verbose) {
        fprintf(stderr, "tsb_doctor: reject history blob @%llu: bad crc\n",
                (unsigned long long)offset);
      }
    } else {
      uint8_t level = 0;
      Status s = tsb_tree::HistNodeLevel(blob, &level);
      if (s.ok() && level == 0) {
        std::vector<tsb_tree::DataEntry> entries;
        s = tsb_tree::DecodeHistDataNode(blob, &entries);
        if (s.ok()) {
          report->blobs_salvaged++;
          KeepEntries(entries, records, report);
        } else {
          report->blobs_rejected++;
        }
      } else if (!s.ok()) {
        report->blobs_rejected++;
      }
      // level > 0: a healthy index node, no records to keep.
    }
    offset += AppendStore::kFrameHeaderSize + len;
  }
  return Status::OK();
}

/// Source 3: WAL commit frames, [u32 masked crc][u32 len][payload]. A
/// frame with a plausible length but a bad CRC is skipped (one flipped
/// payload bit must not cost every commit after it); an implausible
/// length ends the scan — the chain itself is broken.
Status HarvestWalFile(const std::string& file, bool verbose,
                      RecordMap* records, SalvageReport* report) {
  bool exists = false;
  std::string body;
  TSB_RETURN_IF_ERROR(ReadWholeFile(file, &exists, &body));
  if (!exists) return Status::OK();
  report->wal_files_scanned++;
  const uint64_t end = body.size();
  uint64_t offset = 0;
  while (offset + wal::Wal::kFrameHeaderSize <= end) {
    const char* head = body.data() + offset;
    const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(head));
    const uint32_t len = DecodeFixed32(head + 4);
    if (len > wal::Wal::kMaxFrameBytes ||
        offset + wal::Wal::kFrameHeaderSize + len > end) {
      break;  // torn tail or corrupted length: no way to re-sync the chain
    }
    const char* payload = head + wal::Wal::kFrameHeaderSize;
    if (crc32c::Value(payload, len) != stored_crc) {
      report->wal_frames_rejected++;
      if (verbose) {
        fprintf(stderr, "tsb_doctor: reject wal frame @%llu of %s: bad crc\n",
                (unsigned long long)offset, file.c_str());
      }
      offset += wal::Wal::kFrameHeaderSize + len;
      continue;
    }
    // Decode the commit payload; a CRC-valid frame that does not parse is
    // a foreign/garbage frame, not a salvageable commit.
    const char* q = payload;
    const char* limit = payload + len;
    bool parsed = false;
    if (len > 9 && static_cast<uint8_t>(*q) == wal::Wal::kCommitFrame) {
      q++;
      const Timestamp ts = DecodeFixed64(q);
      q += 8;
      uint32_t count = 0;
      q = GetVarint32Ptr(q, limit, &count);
      if (q != nullptr && ts != kUncommittedTs) {
        parsed = true;
        for (uint32_t i = 0; i < count && parsed; ++i) {
          uint32_t klen = 0, vlen = 0;
          q = GetVarint32Ptr(q, limit, &klen);
          if (q == nullptr || static_cast<size_t>(limit - q) < klen) {
            parsed = false;
            break;
          }
          std::string key(q, klen);
          q += klen;
          q = GetVarint32Ptr(q, limit, &vlen);
          if (q == nullptr || static_cast<size_t>(limit - q) < vlen) {
            parsed = false;
            break;
          }
          records->emplace(std::make_pair(std::move(key), ts),
                           std::string(q, vlen));
          q += vlen;
        }
      }
    }
    if (parsed) {
      report->wal_frames_salvaged++;
    } else {
      report->wal_frames_rejected++;
    }
    offset += wal::Wal::kFrameHeaderSize + len;
  }
  return Status::OK();
}

Status HarvestWalFiles(const std::string& src, bool verbose,
                       RecordMap* records, SalvageReport* report) {
  DIR* d = ::opendir(src.c_str());
  if (d == nullptr) return Status::IOError("opendir " + src, strerror(errno));
  std::vector<std::string> files;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 8 && name.compare(0, 4, "wal-") == 0 &&
        name.compare(name.size() - 4, 4, ".tsb") == 0) {
      files.push_back(src + "/" + name);
    }
  }
  ::closedir(d);
  // Stale rotated logs may coexist with the live one after a crash; scan
  // them all — the (key, ts) dedupe makes double-harvesting free.
  for (const std::string& f : files) {
    TSB_RETURN_IF_ERROR(HarvestWalFile(f, verbose, records, report));
  }
  return Status::OK();
}

}  // namespace

Status SalvageDatabase(const std::string& src, const std::string& dst,
                       const SalvageOptions& options, SalvageReport* report) {
  *report = SalvageReport();
  struct stat st;
  if (::stat(src.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("salvage source is not a directory", src);
  }
  if (::stat(dst.c_str(), &st) == 0) {
    // Refuse to mix salvaged records into an existing database — the
    // operator compares and swaps directories explicitly.
    return Status::InvalidArgument("salvage destination already exists", dst);
  }

  SourceGeometry geo;
  SniffGeometry(src, &geo);
  if (options.page_size != 0) geo.page_size = options.page_size;

  RecordMap records;
  TSB_RETURN_IF_ERROR(HarvestPages(src + "/current.tsb", geo.page_size,
                                   options.verbose, &records, report));
  TSB_RETURN_IF_ERROR(HarvestHistory(src + "/history.tsb",
                                     geo.hist_alignment, options.verbose,
                                     &records, report));
  TSB_RETURN_IF_ERROR(
      HarvestWalFiles(src, options.verbose, &records, report));

  // Regroup by commit timestamp and replay oldest-first: the fresh DB's
  // clock then advances exactly as the original's did, and every record
  // lands with its original commit time.
  std::map<Timestamp, std::map<std::string, std::string>> commits;
  for (const auto& [key_ts, value] : records) {
    commits[key_ts.second][key_ts.first] = value;
  }
  report->records_recovered = records.size();

  DbOptions dbo;
  dbo.tree.page_size = geo.page_size;
  std::unique_ptr<MultiVersionDB> out_db;
  TSB_RETURN_IF_ERROR(MultiVersionDB::Open(dst, dbo, &out_db));
  // ReplayExternalCommit advances the clock without publishing (the
  // sharded facade controls visibility). Salvage owns the whole database
  // and replays in timestamp order, so it publishes each commit as it
  // lands: time splits cap at the published watermark, and without it no
  // salvaged version could migrate out of a full page.
  auto& clock = out_db->primary()->clock();
  for (const auto& [ts, ops] : commits) {
    wal::WalCommit commit;
    commit.ts = ts;
    commit.ops.reserve(ops.size());
    for (const auto& [key, value] : ops) commit.ops.emplace_back(key, value);
    TSB_RETURN_IF_ERROR(out_db->ReplayExternalCommit(commit));
    clock.Publish(ts);
    report->commits_replayed++;
  }
  TSB_RETURN_IF_ERROR(out_db->Checkpoint());
  out_db.reset();  // clean shutdown: final checkpoint + clean manifest
  return Status::OK();
}

}  // namespace db
}  // namespace tsb
