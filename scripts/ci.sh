#!/usr/bin/env bash
# Tier-1 gate (see README.md): format, build, test, static analysis —
# fully offline.
#
# The workspace is hermetic by policy: no external crates, so every step
# must succeed with the registry unreachable. --offline makes a
# regression (someone adding a crates.io dependency) fail loudly here
# rather than at the first network-less build.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --workspace --offline"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

# Static analysis gate: the in-tree analyzer enforces determinism
# (no unordered maps in simulator state), hermeticity (path-only deps,
# registry-free lockfile), the panic policy, and trace-schema sync.
# Exits non-zero on any unsuppressed diagnostic; the machine-readable
# report lands next to the smoke artifacts.
echo "==> profess-analyze (static analysis gate)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-analyze -- --json "$smoke_dir/ANALYZE.json"
test -s "$smoke_dir/ANALYZE.json"
test -s "$smoke_dir/ANALYZE_PERF.json"  # wall time + per-lint counts

# Lint-table cross-check: the DESIGN.md §9.1 table must spell exactly
# the lints the binary ships, with matching level and suppressibility.
# (`doc_sync` checks the table against the in-process registry; this
# check closes the loop against the *built* binary's --list-lints.)
echo "==> lint table vs --list-lints"
cargo run --release --offline -q -p profess-analyze -- --list-lints \
    > "$smoke_dir/lints.actual"
awk '/^### 9\.1 The lints$/{f=1;next} f&&/^#/{exit} f&&/^\| `/' DESIGN.md \
    | awk -F'|' '{name=$2; level=$3; sup=$4;
                  gsub(/[` ]/,"",name); gsub(/ /,"",level); gsub(/ /,"",sup);
                  print name "|" level "|" sup}' \
    > "$smoke_dir/lints.documented"
diff -u "$smoke_dir/lints.documented" "$smoke_dir/lints.actual"

# Analysis baseline gate (DESIGN.md §14.2): first prove the gate itself
# on the committed fixture tree — the stale baseline (written before the
# fixture's HashMap regression) MUST fail with exit 2 and the matching
# baseline must pass — then gate the fresh analysis against the
# committed results/ANALYZE.json review record.
echo "==> analysis baseline gate (analyzegate: fixture self-check + repo baseline)"
analyze_fixtures="crates/analyze/tests/fixtures/analyzegate"
rc=0
cargo run --release --offline -q -p profess-analyze -- gate \
    --baseline "$analyze_fixtures/baseline-stale/ANALYZE.json" \
    "$analyze_fixtures/tree" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2  # a missed synthetic regression means the gate is dead
cargo run --release --offline -q -p profess-analyze -- gate \
    --baseline "$analyze_fixtures/baseline-ok/ANALYZE.json" \
    "$analyze_fixtures/tree" > /dev/null
cargo run --release --offline -q -p profess-analyze -- gate

# Bench smoke: run one figure binary end to end with a tiny op budget so
# the parallel sweep engine and the BENCH_<name>.json perf artifact path
# stay exercised. The artifact lands in a scratch dir, not results/.
echo "==> bench smoke (fig05, tiny budget)"
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin fig05 -- 200 > /dev/null
test -s "$smoke_dir/BENCH_fig05.json"

# Figure goldens: every figure/table binary at a small budget must print
# exactly the committed results/golden_small/<bin>.txt (artifact-path
# lines masked), serially and on two threads — the cell planner's output
# may depend on neither. Drift is a simulator behaviour change and must
# be a reviewed refresh (`scripts/golden_small.sh --write`), never an
# accident; this is the gate against stale committed figures.
echo "==> figure goldens (13 bins, small budget, 1 and 2 threads)"
scripts/golden_small.sh 1 2

# Bench trend gate (DESIGN.md §12): first prove the comparator itself —
# the committed synthetic >15% regression fixture MUST fail (exit 2) and
# the within-threshold fixture must pass — then gate the fresh engine
# bench against the committed results/ baseline. PROFESS_BENCH_BASELINE
# overrides the baseline directory for intentional trajectory resets.
echo "==> bench trend gate (benchgate: fixture self-check + engine bench)"
gate_fixtures="crates/bench/tests/fixtures/benchgate"
rc=0
cargo run --release --offline -q -p profess-bench --bin benchgate -- \
    --baseline "$gate_fixtures/baseline" \
    "$gate_fixtures/fresh-regressed/BENCH_gatecheck.json" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1  # a missed synthetic regression means the gate is dead
cargo run --release --offline -q -p profess-bench --bin benchgate -- \
    --baseline "$gate_fixtures/baseline" \
    "$gate_fixtures/fresh-ok/BENCH_gatecheck.json" > /dev/null
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_BENCH_SAMPLES=7 \
    cargo bench --offline -q -p profess-bench --bench engine -- end_to_end \
    > /dev/null
cargo run --release --offline -q -p profess-bench --bin benchgate -- \
    "$smoke_dir/BENCH_engine.json"

# Traced smoke: the same figure with --trace must write a well-formed
# TRACE_fig05.jsonl containing every event kind the tracer promises.
# The budget must exceed the scaled RSM sampling period (m_samp = 8K):
# shorter runs never close a period, so no rsm_epoch would be emitted.
echo "==> traced bench smoke (fig05 --trace)"
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin fig05 -- --trace 10000 > /dev/null
test -s "$smoke_dir/TRACE_fig05.jsonl"
cargo run --release --offline -q -p profess-bench --bin tracecheck -- \
    "$smoke_dir/TRACE_fig05.jsonl" \
    run swap_begin swap_complete mdm_decision rsm_epoch queue_sample hist counters

# Resilience smoke: supervised sweep execution end to end (DESIGN.md
# §10) — an injected fault must surface as a per-cell outcome in the
# perf artifact, and a sweep killed mid-run must resume from its
# checkpoint journal instead of starting over.
echo "==> resilience smoke (fig10_12: injected fault, kill, resume)"
# (a) A terminal injected panic (poisoned past the retry budget) fails
# exactly its cell: the sweep exits SWEEP_FAILURE_EXIT_CODE (3) and the
# cells array records the exhausted outcome with its retry history.
rc=0
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_THREADS=2 PROFESS_RETRIES=1 \
    PROFESS_FAULT='panic@2*9' \
    cargo run --release --offline -q -p profess-bench --bin fig10_12 -- 400 w01 \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 3
grep -q '"status":"exhausted"' "$smoke_dir/BENCH_fig10_12.json"
grep -q 'injected fault' "$smoke_dir/BENCH_fig10_12.json"
# (b) Kill-and-resume: an injected process exit (code 86) mid-sweep
# leaves a journal of the finished cells; the rerun restores them,
# executes only the remainder, and the journal validates strictly.
# Serial on the faulted pass so cells before the kill point complete.
ckpt="$smoke_dir/CHECKPOINT_fig10_12.jsonl"
rc=0
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_CHECKPOINT="$smoke_dir" \
    PROFESS_THREADS=1 PROFESS_FAULT='exit@6' \
    cargo run --release --offline -q -p profess-bench --bin fig10_12 -- 400 w01 w08 \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 86
test -s "$ckpt"
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_CHECKPOINT="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin fig10_12 -- 400 w01 w08 \
    > "$smoke_dir/resume.out"
grep -q 'restored from journal' "$smoke_dir/resume.out"
cargo run --release --offline -q -p profess-bench --bin checkpointcheck -- "$ckpt"

# Snapshot smoke: mid-run preempt/restore end to end (DESIGN.md §11).
# A golden uninterrupted sweep pins the ROWS_<name>.json row artifact;
# then the same sweep with every cell's first attempt preempted at a
# clock (PROFESS_SNAPSHOT_AT) journals one snapshot per cell, and the
# supervisor's retry warm-starts each from its snapshot. The resumed
# sweep's rows must be byte-identical to the golden ones, the journaled
# snapshots must strict-decode, and the perf artifact must report zero
# dropped journal lines.
echo "==> snapshot smoke (fig10_12: preempt at a clock, warm-start, diff)"
snap_dir="$smoke_dir/snap"
mkdir -p "$snap_dir"
PROFESS_RESULTS_DIR="$snap_dir" PROFESS_THREADS=2 \
    cargo run --release --offline -q -p profess-bench --bin fig10_12 -- 400 w01 \
    > /dev/null
test -s "$snap_dir/ROWS_fig10_12.json"
mv "$snap_dir/ROWS_fig10_12.json" "$snap_dir/ROWS_golden.json"
PROFESS_RESULTS_DIR="$snap_dir" PROFESS_THREADS=2 PROFESS_RETRIES=1 \
    PROFESS_CHECKPOINT="$snap_dir" PROFESS_SNAPSHOT=1 PROFESS_SNAPSHOT_AT=1000 \
    cargo run --release --offline -q -p profess-bench --bin fig10_12 -- 400 w01 \
    > "$snap_dir/preempt.out" 2> /dev/null
grep -q 'preempted into snapshot' "$snap_dir/BENCH_fig10_12.json"
cargo run --release --offline -q -p profess-bench --bin snapshotcheck -- \
    journal --min-snapshots 1 "$snap_dir/CHECKPOINT_fig10_12.jsonl"
cargo run --release --offline -q -p profess-bench --bin snapshotcheck -- \
    diff "$snap_dir/ROWS_golden.json" "$snap_dir/ROWS_fig10_12.json"
cargo run --release --offline -q -p profess-bench --bin checkpointcheck -- \
    "$snap_dir/BENCH_fig10_12.json"

# Surface smoke: the bandwidth–latency characterization end to end
# (DESIGN.md §13). A tiny 2x2 grid over two policies pins the golden
# SURFACE json; the validator checks schema, grid order and latency
# monotonicity; then a sweep killed mid-grid by an injected exit (code
# 86) resumes from its checkpoint journal and must reproduce the golden
# artifact byte-for-byte.
echo "==> surface smoke (2x2 grid: validate, kill, resume, diff)"
surf_dir="$smoke_dir/surface"
mkdir -p "$surf_dir"
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_THREADS=2 \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin surface -- 2000 pom profess \
    > /dev/null
test -s "$surf_dir/SURFACE_surface.json"
cargo run --release --offline -q -p profess-bench --bin surfacecheck -- \
    check "$surf_dir/SURFACE_surface.json"
# Committed-golden gate: this exact 2x2 config is pinned byte-for-byte
# by results/SURFACE_ci.json — any drift in the characterization
# numbers is a simulator behaviour change and must be a reviewed
# refresh of the committed artifact, never an accident.
cargo run --release --offline -q -p profess-bench --bin surfacecheck -- \
    diff results/SURFACE_ci.json "$surf_dir/SURFACE_surface.json"
mv "$surf_dir/SURFACE_surface.json" "$surf_dir/SURFACE_golden.json"
rc=0
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_CHECKPOINT="$surf_dir" \
    PROFESS_THREADS=1 PROFESS_FAULT='exit@3' \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin surface -- 2000 pom profess \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 86
test -s "$surf_dir/CHECKPOINT_surface.jsonl"
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_CHECKPOINT="$surf_dir" PROFESS_THREADS=2 \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin surface -- 2000 pom profess \
    > "$surf_dir/resume.out"
grep -q 'restored from journal' "$surf_dir/resume.out"
cargo run --release --offline -q -p profess-bench --bin surfacecheck -- \
    diff "$surf_dir/SURFACE_golden.json" "$surf_dir/SURFACE_surface.json"
cargo run --release --offline -q -p profess-bench --bin checkpointcheck -- \
    "$surf_dir/CHECKPOINT_surface.jsonl"

# Shard smoke: the multi-process sweep backend end to end (DESIGN.md
# §15). A 2-worker sharded run with worker 0 killed on its first dealt
# cell must re-deal the cell to the survivor, merge the shard journals,
# and reproduce the committed single-process goldens byte-for-byte.
# shardcheck pins the no-double-execution invariant (exactly one merged
# line per cell, every shard line covered) and checkpointcheck
# strict-decodes the merged journal, conflicting duplicates included.
echo "==> shard smoke (2 workers, injected worker_kill, merge, diff)"
shard_dir="$smoke_dir/shard"
mkdir -p "$shard_dir"
PROFESS_RESULTS_DIR="$shard_dir" PROFESS_FAULT='worker_kill@0' \
    cargo run --release --offline -q -p profess-bench --bin profess-shard -- \
    --workers 2 400 w01 > /dev/null 2> "$shard_dir/shard.err"
grep -q 're-dealing' "$shard_dir/shard.err"  # the kill actually landed
cargo run --release --offline -q -p profess-bench --bin shardcheck -- \
    "$shard_dir/CHECKPOINT_fig10_12.jsonl" \
    "$shard_dir"/CHECKPOINT_fig10_12.shard*.jsonl
cargo run --release --offline -q -p profess-bench --bin checkpointcheck -- \
    "$shard_dir/CHECKPOINT_fig10_12.jsonl"
cmp results/CHECKPOINT_shard_ci.jsonl "$shard_dir/CHECKPOINT_fig10_12.jsonl"
cmp results/ROWS_shard_ci.json "$shard_dir/ROWS_fig10_12.json"

echo "ci: all tier-1 checks passed"
