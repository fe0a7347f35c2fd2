#!/usr/bin/env bash
# Small-budget figure goldens: runs every figure/table binary at target
# 3000 memory ops per program (table4: 50000, above its largest RSM
# sampling period) and compares its stdout, with the artifact-path lines
# masked, against results/golden_small/<bin>.txt.
#
#   scripts/golden_small.sh [--write] [<threads>...]
#
# Threads default to "1 2" (PROFESS_THREADS for each pass). --write
# regenerates the goldens from the first thread count instead of
# diffing; a refresh is a reviewed simulator behaviour change.
# Expects release binaries (cargo build --release --workspace --offline).

set -euo pipefail
cd "$(dirname "$0")/.."

bins="fig02 fig05 fig06 fig07 fig08_09 fig10_12 fig13_15 fig16 sens_ratio sens_wr ablation mempod_vs_pom table4"
write=0
if [ "${1:-}" = "--write" ]; then
    write=1
    shift
fi
threads="${*:-1 2}"
golden="results/golden_small"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for t in $threads; do
    for bin in $bins; do
        target=3000
        [ "$bin" = table4 ] && target=50000
        out="$work/$bin.txt"
        env -u PROFESS_CHECKPOINT -u PROFESS_FAULT -u PROFESS_TRACE -u PROFESS_TARGET \
            -u PROFESS_SNAPSHOT -u PROFESS_SNAPSHOT_AT \
            PROFESS_RESULTS_DIR="$work/results" PROFESS_THREADS="$t" \
            cargo run --release --offline -q -p profess-bench --bin "$bin" -- "$target" \
            | { grep -v -E '^(perf|rows|trace) artifact:' || true; } > "$out"
        if [ "$write" -eq 1 ]; then
            mkdir -p "$golden"
            cp "$out" "$golden/$bin.txt"
        else
            diff -u "$golden/$bin.txt" "$out"
        fi
    done
    [ "$write" -eq 1 ] && break
    echo "golden_small: 13 bins match at PROFESS_THREADS=$t"
done
