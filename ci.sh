#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== trace smoke =="
# A traced example run must leave behind a valid, non-empty Chrome trace;
# trace_smoke re-validates that file, runs its own traced resilient
# workload, and bounds the cost of the disabled tracing fast path.
TRACE_JSON="$(mktemp -t gml_trace_XXXXXX.json)"
trap 'rm -f "$TRACE_JSON"' EXIT
GML_TRACE=1 GML_TRACE_OUT="$TRACE_JSON" \
    cargo run --release --example failure_drill > /dev/null
test -s "$TRACE_JSON" || { echo "trace smoke: $TRACE_JSON is empty"; exit 1; }
cargo run --release -p gml-bench --bin trace_smoke -- "$TRACE_JSON"

echo "== forensics smoke =="
# Kills a place mid-run, scrapes the Prometheus endpoint over localhost
# (gml_place_up must flip), and validates every post-mortem bundle with the
# built-in JSON parser — one bundle per restore, in memory and on disk, each
# showing the snapshots degraded by the kill and a non-zero repair.
cargo run --release -p gml-bench --bin forensics_smoke

echo "== traffic pins (per recovery, per app, per class) =="
# The deterministic gate on recovery cost (ROADMAP 2(b) in small): for a
# fixed shape, a kill under each restore mode must ship exactly the dead
# place's share of the snapshot plus what its blocks' new owners fetch, take
# no checkpoint beyond a failure-free run's and encode nothing until the
# next one is due. Runs in tier-1 already; re-run by name so that a recovery
# that grows with the application's state is attributed loudly here.
cargo test -q -p gml-core --test recovery_traffic > /dev/null
# The same pin per application: for each of the four apps, a failure-free
# run and a shrink recovery save, encode, ship, keep and compute exactly the
# recorded literals — how an app declares its state cannot move a byte.
cargo test -q --test app_state_traffic > /dev/null
# The same pin per class: each Table I class's broadcast and snapshot save
# and restore send exactly the recorded messages, tasks and bytes, and all
# six classes roll back together under every restore mode — a refactor that
# moves one class's traffic or breaks its restore fails here by name.
cargo test -q -p gml-core --test collective_traffic > /dev/null
cargo test -q -p gml-core --test multi_object_checkpoints > /dev/null
# The same per read-only object: stored once, beside its live blocks on
# another place, before a kill and after the restore and repair under every
# mode — with the heap grown by one stored replica, not two.
cargo test -q --test mem_plane a_read_only_object_is_stored_once -- --exact > /dev/null
# The same for the workloads' inputs: every synthetic row builder writes its
# block straight into CSR, and the result must equal, bit for bit, a
# transcription of the triplet builders it replaced (per-column dedup,
# triplet list, from_triplets) — at every edge shape and at PageRank's and
# GNMF's per-place shapes. The inputs of all four workloads are these bits.
cargo test -q -p gml-matrix --lib builder > /dev/null

echo "== task resilience (chaos drill + replica vote parity) =="
# The combined chaos drill: one executor run absorbs a task panic (replayed
# by policy), a timed-out straggler (abandoned, replayed elsewhere), and a
# silent checksum flip (detected before commit, restored under the
# silent_error mode), then reconciles the memory ledger. Runs in tier-1
# already; re-run by name so a failure is attributed loudly here.
cargo test -q --test failure_semantics \
    chaos_drill_replay_timeout_and_silent_error_in_one_run -- --exact > /dev/null
# Replica vote parity: failure_drill replays a faulting task and ends with a
# replicated digest vote over its final matrix state. The voted digest must
# be identical whether one replica computes it or three majority-vote on it
# — any divergence means replication changed the answer it was guarding.
TASK_DIR="$(mktemp -d -t gml_task_parity_XXXXXX)"
trap 'rm -f "$TRACE_JSON"; rm -rf "$TASK_DIR"' EXIT
for R in 1 3; do
    cargo run --release --example failure_drill -- --replicas $R 2> /dev/null \
        | grep '^final_state_digest' > "$TASK_DIR/r$R.txt"
done
diff "$TASK_DIR/r1.txt" "$TASK_DIR/r3.txt" \
    || { echo "task parity: replicas=1 vs replicas=3 digests differ"; exit 1; }

echo "== kernel parity (GML_WORKERS=1 vs 4 vs 8) =="
# The pool's determinism guarantee, enforced: the same kernels on the same
# seeded inputs must be bit-identical at every worker count. kernel_parity
# prints one FNV hash per kernel; the worker count is read once per
# process, so we run it per width and diff every dump against workers=1.
# The kernel property tests (which include in-process serial_scope parity)
# and the blocked-vs-reference suite run at all three widths too.
PARITY_DIR="$(mktemp -d -t gml_parity_XXXXXX)"
trap 'rm -f "$TRACE_JSON"; rm -rf "$TASK_DIR" "$PARITY_DIR"' EXIT
for W in 1 4 8; do
    GML_WORKERS=$W cargo run --release -p gml-bench --bin kernel_parity \
        | grep -v '^workers' > "$PARITY_DIR/w$W.txt"
done
for W in 4 8; do
    diff "$PARITY_DIR/w1.txt" "$PARITY_DIR/w$W.txt" \
        || { echo "kernel parity: workers=1 vs workers=$W dumps differ"; exit 1; }
done
for W in 1 4 8; do
    GML_WORKERS=$W cargo test -q -p gml-matrix --test kernel_properties > /dev/null
    GML_WORKERS=$W cargo test -q -p gml-matrix --test blocked_vs_reference > /dev/null
done

echo "== apgas unit tests at GML_WORKERS=4 (the pool's job queue) =="
# An auto-sized pool on a 2-vCPU box is usually one worker wide and runs
# every job inline; at four workers the pool's own tests (helper-thread
# panics, run_split) go through the job queue its helper threads share.
GML_WORKERS=4 cargo test -q -p apgas > /dev/null

echo "== kernel reference (blocked vs scalar twins) =="
# Every rewritten kernel against its *_reference scalar twin on large
# fixed-seed inputs: element-wise relative error must stay within 1e-10
# (transpose bit-for-bit). Catches packing/indexing bugs that tolerance-free
# parity hashing cannot see.
cargo run --release -p gml-bench --bin kernel_reference

echo "== checkpoint codec parity (raw vs framed) =="
# Restored bits must not depend on how entries are stored: each leg runs two
# epochs (a small mutation between them), wipes, restores, and prints one FNV
# digest per object. The digest lines must agree. Only digest lines are
# diffed — per-place wire bytes legitimately differ.
CKPT_DIR="$(mktemp -d -t gml_ckpt_parity_XXXXXX)"
trap 'rm -f "$TRACE_JSON"; rm -rf "$TASK_DIR" "$PARITY_DIR" "$CKPT_DIR"' EXIT
for C in codec_raw codec_framed; do
    cargo run --release -p gml-bench --bin checkpoint_parity -- "$C" > "$CKPT_DIR/$C.out"
    grep -E '^(dist|dup)_' "$CKPT_DIR/$C.out" > "$CKPT_DIR/$C.txt"
    grep '^frames' "$CKPT_DIR/$C.out"
done
diff "$CKPT_DIR/codec_raw.txt" "$CKPT_DIR/codec_framed.txt" \
    || { echo "checkpoint codec parity: framed restore diverges from raw"; exit 1; }
# One object is incompressible: the framed leg must have kept its frames
# verbatim (payload by reference, no records), and the raw leg, which never
# frames anything, none.
grep -Eq '^frames .* verbatim=[1-9]' "$CKPT_DIR/codec_framed.out" \
    || { echo "checkpoint codec parity: no verbatim frame on the framed leg"; exit 1; }
grep -q '^frames full=0 verbatim=0$' "$CKPT_DIR/codec_raw.out" \
    || { echo "checkpoint codec parity: the raw leg framed something"; exit 1; }

echo "== mem overhead (profiled cost ceiling + compiled-out no-op path) =="
# The memory plane's two-sided cost contract: with the default features the
# ledger's charge/discharge pair must stay within a small fixed ceiling and
# the counting allocator must observe traffic, and an uncontended rent +
# drop through the `bytes` pool's lock must hit and stay under its own
# ceiling (mem_overhead asserts all three); with mem-profile off, every
# ledger path must compile to a no-op and the whole apgas suite must still
# pass.
cargo run --release -p gml-bench --bin mem_overhead
cargo test -q -p apgas --no-default-features --features trace > /dev/null

echo "== e2e benchmark smoke (every workload runs and checks its result) =="
# Tenth-size iteration counts, two repetitions, end-to-end metrics only;
# the exit code says whether every run completed and matched its baseline.
# The numbers of so short a run are not compared against anything: timing is
# gated where it is like for like, by the pipeline's full-length run of this
# benchmark on the parent commit and on the change (BENCHMARK.json).
cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- --quick --trace 0 > /dev/null
# The benchmark package's own tests; among other things they hold
# BENCHMARK.json equal to the workload catalog.
cargo test -q --offline --manifest-path e2e_bench/Cargo.toml

echo "== deterministic counts (BENCH_counts.txt) =="
# The count gate (ROADMAP 2(b)): six per-step and per-checkpoint counts of
# each benchmark workload depend on the code and the seed alone — not on
# the run length or the timing — so a fixed-seed run must reproduce the
# committed file line for line. A change that moves a message, a task or a
# byte shows up here even where no timing bound would notice it.
COUNTS="$(mktemp -t gml_counts_XXXXXX.txt)"
trap 'rm -f "$TRACE_JSON" "$COUNTS"; rm -rf "$TASK_DIR" "$PARITY_DIR" "$CKPT_DIR"' EXIT
COUNTED='ctl_msgs_per_step|tasks_per_step|bytes_shipped_per_step'
COUNTED="$COUNTED|logical_mb_per_ckpt|reexecuted_steps|wire_mb_resident"
for W in logreg_ctl pagerank_spmv gnmf_ckpt linreg_restore; do
    cargo run --release --quiet --offline --manifest-path e2e_bench/Cargo.toml -- \
        --workload "$W" --seed 11 --seconds 3 --trace 1 \
        | grep -E "^metric [a-z_]+ [a-z_.]+[.]($COUNTED) " \
        | sed 's/ n=[0-9]*$//'
done > "$COUNTS"
diff BENCH_counts.txt "$COUNTS" || {
    echo "count gate: the counts above differ from BENCH_counts.txt;"
    echo "a change meant to move a count must edit that file"
    exit 1
}

echo "== non-test lines (per workspace crate) =="
# The ROADMAP code-diet measures: lines of each crate's src/ (binaries
# included) above each file's `#[cfg(test)]`, not counting blank lines and
# lines that are only a `//` comment — per crate, over the whole workspace,
# for the four vendored shims together, for gml-core + gml-apps (item 3's
# first target), for the checkpoint store's three files (item 1's) and for
# apgas's seven observability modules (item 5's).
non_test_lines() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
    done | grep -v '^\s*//' | grep -vc '^\s*$'
}
TOTAL=0
for crate in . crates/*; do
    N=$(non_test_lines $(find "$crate/src" -name '*.rs' | sort))
    TOTAL=$((TOTAL + N))
    printf '%-22s %6d\n' "$(sed -n 's/^name = "\(.*\)"/\1/p' "$crate/Cargo.toml" | head -1)" "$N"
done
printf '%-22s %6d\n' "workspace" "$TOTAL"
printf '%-22s %6d\n' "vendored shims" \
    "$(non_test_lines $(find crates/bytes/src crates/rand/src crates/proptest/src crates/criterion/src -name '*.rs' | sort))"
printf '%-22s %6d\n' "gml-core + gml-apps" "$(non_test_lines crates/core/src/*.rs crates/apps/src/*.rs)"
printf '%-22s %6d\n' "codec+store+app_store" \
    "$(non_test_lines crates/core/src/codec.rs crates/core/src/store.rs crates/core/src/app_store.rs)"
printf '%-22s %6d\n' "apgas observability" \
    "$(non_test_lines crates/apgas/src/{trace,monitor,critical_path,mem,watchdog,metrics,stats}.rs)"

echo "CI OK"
