// Per-thread operation records and the percentile/median helpers the
// report is built from.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// One acknowledged commit, kept so the run can re-read it afterwards.
struct CommitRec {
  tsb::Timestamp ts = 0;
  uint32_t keys[4] = {};
  uint32_t rounds[4] = {};
  uint32_t n = 0;
};

/// Latencies (ns) of one operation type, each tagged with the one-second
/// window of the run it completed in.
struct Samples {
  std::vector<uint32_t> ns;
  std::vector<uint16_t> window;

  void Add(uint32_t v, uint16_t w) {
    ns.push_back(v);
    window.push_back(w);
  }
  size_t size() const { return ns.size(); }
  void Merge(const Samples& o) {
    ns.insert(ns.end(), o.ns.begin(), o.ns.end());
    window.insert(window.end(), o.window.begin(), o.window.end());
  }
  /// The latencies of window `w`.
  std::vector<uint32_t> In(uint16_t w) const {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < ns.size(); ++i) {
      if (window[i] == w) out.push_back(ns[i]);
    }
    return out;
  }
};

/// What one client thread did.
struct OpStats {
  Samples current;
  Samples asof;
  Samples scan;
  Samples commit;
  uint64_t scan_entries = 0;
  std::vector<uint64_t> scan_entries_by_window;
  uint64_t asof_pinned = 0;  ///< as-of Gets served from historical nodes
  uint64_t attempted = 0;
  uint64_t failed = 0;       ///< error status, refused, or wrong result
  uint64_t wrong = 0;        ///< wrong results (subset of failed)
  uint64_t conflicts = 0;    ///< TxnConflict refusals (subset of failed)
  /// Current reads that missed a commit acknowledged before they began,
  /// still above the watermark (the bounded-staleness rule; NOTES.md).
  uint64_t stale_reads = 0;
  std::vector<CommitRec> commits;

  void Merge(const OpStats& o) {
    current.Merge(o.current);
    asof.Merge(o.asof);
    scan.Merge(o.scan);
    commit.Merge(o.commit);
    scan_entries += o.scan_entries;
    if (scan_entries_by_window.size() < o.scan_entries_by_window.size()) {
      scan_entries_by_window.resize(o.scan_entries_by_window.size());
    }
    for (size_t w = 0; w < o.scan_entries_by_window.size(); ++w) {
      scan_entries_by_window[w] += o.scan_entries_by_window[w];
    }
    asof_pinned += o.asof_pinned;
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    conflicts += o.conflicts;
    stale_reads += o.stale_reads;
    commits.insert(commits.end(), o.commits.begin(), o.commits.end());
  }
  uint64_t reads() const {
    return current.size() + asof.size() + scan.size();
  }
};

inline uint32_t ClampNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

/// Nearest-rank percentile in microseconds (p in (0, 1]); 0 when empty.
inline double PercentileUs(std::vector<uint32_t> v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  if (rank == 0) rank = 1;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1] / 1e3;
}

inline double SumNs(const std::vector<uint32_t>& v) {
  double s = 0;
  for (uint32_t x : v) s += x;
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
