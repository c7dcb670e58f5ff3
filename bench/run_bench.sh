#!/usr/bin/env bash
# Builds the benchmarks in Release mode and runs the query + concurrency
# benches as a smoke test. bench_query writes BENCH_query.json (historical
# as-of ops/sec and allocations per lookup for the zero-copy view path vs
# the owning-decode baseline that bench_query.cc rebuilds from the public
# headers, the checksum-overhead ratio, cold mmap reads, v3 node bytes, and
# the scan phase: forward/reverse snapshot scans — warm, old-snapshot and
# cold — with entries/sec and allocs per emitted entry), which is copied
# to the repo root for CI artifact upload. bench_concurrency writes
# BENCH_concurrency.json (N-writer scaling under optimistic latch
# coupling, with conflict/restart/side-step counters). bench_durability
# writes BENCH_durability.json (WAL sync-mode ladder, fsync'd group-commit
# scaling at 1/2/4/8 writers, crash-recovery replay MB/sec, and a
# silent-corruption scrub section the recap below FAILS on if any
# injected fault went undetected).
# bench_sharded writes BENCH_sharded.json (ShardedDB write scaling at
# 1/2/4/8 shards, disjoint single-shard batches vs uniform multi-shard
# batches through the coordinator protocol).
#
# Usage: bench/run_bench.sh [build-dir]   (default: <repo>/build-release)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j --target bench_query bench_concurrency \
    bench_durability bench_sharded || {
  echo "error: bench build failed (if the targets are missing entirely," >&2
  echo "check that libbenchmark-dev is installed)" >&2
  exit 1
}

# Full google-benchmark timings are opt-in (slow); the smoke run executes
# each binary's deterministic table + JSON section only.
FILTER="${BENCH_FILTER:-NONE}"

(cd "$BUILD" && BENCH_QUERY_JSON="$ROOT/BENCH_query.json" \
    ./bench_query --benchmark_filter="$FILTER")
(cd "$BUILD" && BENCH_CONCURRENCY_JSON="$ROOT/BENCH_concurrency.json" \
    ./bench_concurrency --benchmark_filter="$FILTER")
(cd "$BUILD" && BENCH_DURABILITY_JSON="$ROOT/BENCH_durability.json" \
    ./bench_durability --benchmark_filter="$FILTER")
(cd "$BUILD" && BENCH_SHARDED_JSON="$ROOT/BENCH_sharded.json" \
    ./bench_sharded --benchmark_filter="$FILTER")

echo "wrote $ROOT/BENCH_query.json"
echo "wrote $ROOT/BENCH_concurrency.json"
echo "wrote $ROOT/BENCH_durability.json"
echo "wrote $ROOT/BENCH_sharded.json"

# One-line scan recap (the numbers CI gates on), when python3 is around.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/BENCH_query.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1])).get("scan")
if s:
    print("scan recap: forward %.0f entries/s (%.3f allocs/entry), "
          "reverse %.2fx forward; old-snapshot reverse %.2fx forward"
          % (s["forward_current"]["entries_per_sec"],
             s["forward_current"]["allocs_per_entry"],
             s["reverse_over_forward_current"],
             s["reverse_over_forward_old"]))
EOF
  python3 - "$ROOT/BENCH_concurrency.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))
print("writer recap: %d cores, 4 writers %.2fx of 1 writer (disjoint)"
      % (c["hardware_concurrency"], c["speedup_4w_disjoint_vs_1w"]))
EOF
  python3 - "$ROOT/BENCH_durability.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
print("durability recap: group commit 8w %.2fx of 1w (fdatasync %.0f us), "
      "recovery %.0f MB/s"
      % (d["group_8w_over_1w"], d["fdatasync_us"],
         d["recovery"]["mb_per_sec"]))
# Scrub recap — and a loud failure if any silently corrupted cycle went
# undetected or a clean control pass produced a false positive.
sc = d.get("scrub")
if sc:
    if sc["detected_cycles"] != sc["injected_cycles"]:
        sys.exit("scrub recap: UNDETECTED SILENT CORRUPTION: %d of %d "
                 "injected cycles detected" % (sc["detected_cycles"],
                                               sc["injected_cycles"]))
    if sc["false_positives"] != 0:
        sys.exit("scrub recap: %d FALSE POSITIVES on clean control passes"
                 % sc["false_positives"])
    print("scrub recap: %d/%d silent-fault cycles detected, "
          "0 false positives, %d pages repaired, scan %.0f MB/s"
          % (sc["detected_cycles"], sc["injected_cycles"],
             sc["pages_repaired"], sc["mb_per_sec"]))
EOF
  python3 - "$ROOT/BENCH_sharded.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
print("sharding recap: %d cores, 4-shard %.2fx of 1-shard (disjoint), "
      "uniform/disjoint at 4 shards %.2fx"
      % (s["hardware_concurrency"], s["speedup_4s_disjoint_vs_1s"],
         s["uniform_over_disjoint_4s"]))
EOF
fi
