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
# workload with a kill (its export must hold one exec.restore slice per
# restore and one exec.step slice per row that stepped, unless a ring
# wrapped), and bounds the cost of the disabled tracing fast path.
TRACE_JSON="$(mktemp -t gml_trace_XXXXXX.json)"
trap 'rm -f "$TRACE_JSON"' EXIT
GML_TRACE=1 GML_TRACE_OUT="$TRACE_JSON" \
    cargo run --release --example failure_drill > /dev/null
test -s "$TRACE_JSON" || { echo "trace smoke: $TRACE_JSON is empty"; exit 1; }
cargo run --release -p gml-bench --bin trace_smoke -- "$TRACE_JSON"

echo "== forensics smoke =="
# Kills a place mid-run, checks that the victim reads dead to the runtime
# and in the store's inventory, and validates every post-mortem bundle with
# the built-in JSON parser — one bundle per restore, in memory and on disk,
# each showing the snapshots degraded by the kill and a non-zero repair.
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
# The executor's decision as data: every (mode, dead count, spares, trigger,
# fallback_rebalance, snapshot) case yields the plan — group, spawns, label,
# rebalance, resume step — or the error it is pinned to, with no Ctx.
cargo test -q -p gml-core --lib \
    framework::tests::every_recovery_case_decides_its_pinned_plan -- --exact > /dev/null
# One layout for every distributed class: a vector aligned to a block or a one-block-per-place matrix follows it through every restore mode.
cargo test -q -p gml-core --test multi_object_checkpoints \
    aligned_vectors_follow_their_matrices_through_every_restore_mode -- --exact > /dev/null
# The ship, not the capture, frames: every committed replica must be a frame, the same at both places.
cargo test -q -p gml-core --lib \
    app_store::tests::the_committed_generation_is_framed_on_one_place_after_a_degraded_promote_and_its_repair \
    -- --exact > /dev/null
# A capture holds each mutable class by reference: a write while the ship is
# parked copies each held block once, the restore brings back what the
# capture saw, and at GNMF's per-place shapes a capture lifts the heap's peak
# by less than 1 MiB.
cargo test -q -p gml-core --lib \
    app_store::tests::a_write_between_the_commit_and_the_ship_copies_each_held_block_once \
    -- --exact > /dev/null
cargo test -q --test mem_plane a_capture_serializes_nothing -- --exact > /dev/null
# The same per read-only object: framed once, on another place than its
# blocks, which the store holds as themselves, before a kill and after the
# restore and repair under every mode — with the heap grown by one stored
# replica, not two, and no block copied by the recovery.
cargo test -q --test mem_plane a_read_only_object_is_stored_once -- --exact > /dev/null
# A packed frame is made from its value: framing PageRank's per-place block lifts the heap's peak by under a quarter of it.
cargo test -q --test mem_plane a_packed_frame_is_made_from_its_value -- --exact > /dev/null
# Survivors keep their blocks: a shrink leaves each survivor's blocks and buffers in place and sends each lost one to the least-loaded survivor.
cargo test -q -p gml-core --lib \
    dist_block_matrix::tests::a_shrink_keeps_every_survivors_blocks_and_sends_the_lost_to_the_least_loaded \
    -- --exact > /dev/null
# A shrink rebuilds only the dead place's block: its kill, restore and repair lift the heap's peak by under a quarter block.
cargo test -q --test mem_plane a_shrink_rebuilds_only_the_dead_places_block -- --exact > /dev/null
# The same for the workloads' inputs: every synthetic row builder writes its
# block straight into CSR, and the result must equal, bit for bit, a
# transcription of the triplet builders it replaced (per-column dedup,
# triplet list, from_triplets) — at every edge shape and at PageRank's and
# GNMF's per-place shapes. The inputs of all four workloads are these bits.
cargo test -q -p gml-matrix --lib builder > /dev/null
# The same for the GEMMs' bounded panels: gemm and gemm_tn_acc must equal,
# bit for bit, a transcription of the whole-operand packers they replaced
# — at every edge shape and at GNMF's per-place shapes — and at those
# shapes one call of gemm, gemm_tn_acc or mult_dup_into must raise the
# heap's peak by less than 1 MiB, and mult_dup_into must leave each output
# block's buffer where it was. GNMF's W update, a row panel at a time, must
# equal the whole-product sequence it replaced (two mult_dup_into, two
# zip_blocks) bit for bit — at block heights around the panel's, with a
# place holding two blocks and at GNMF's per-place shape — and at that
# shape raise the heap's peak by less than 1 MiB and leave each W block's
# buffer where it was.
cargo test -q -p gml-matrix --lib whole_operand_packing > /dev/null
cargo test -q -p gml-core --lib \
    dist_block_matrix::tests::nmf_update_matches_the_four_call_sequence_bit_for_bit \
    -- --exact > /dev/null
cargo test -q --test mem_plane a_gemm_packs_bounded_panels -- --exact > /dev/null
cargo test -q --test mem_plane mult_dup_into_writes_into_its_output_blocks -- --exact > /dev/null
cargo test -q --test mem_plane nmf_update_updates_w_where_it_lies -- --exact > /dev/null

echo "== silent-error drill + task panic contract =="
# The silent-error drill: a checksum flip between a step's recorded digest
# and the pre-commit verification is detected, restored under the
# silent_error mode, and the memory ledger reconciles. The panic contract:
# a task that panics inside a step fails the run with a non-recoverable
# TaskPanic, and no restore is attempted. Both run in tier-1 already;
# re-run by name so a failure is attributed loudly here.
cargo test -q --test failure_semantics \
    silent_error_drill_rolls_back_and_reconciles -- --exact > /dev/null
cargo test -q --test failure_semantics \
    a_task_panic_in_a_step_fails_the_run_without_a_restore -- --exact > /dev/null

echo "== kernel parity (GML_WORKERS=1 vs 4 vs 8) =="
# The pool's determinism guarantee, enforced: the same kernels on the same
# seeded inputs must be bit-identical at every worker count. kernel_parity
# prints one FNV hash per kernel; the worker count is read once per
# process, so we run it per width and diff every dump against workers=1.
# The kernel property tests (which include in-process serial_scope parity)
# and the blocked-vs-reference suite run at all three widths too.
PARITY_DIR="$(mktemp -d -t gml_parity_XXXXXX)"
trap 'rm -f "$TRACE_JSON"; rm -rf "$PARITY_DIR"' EXIT
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

echo "== checkpoint codec parity (before the wipe vs after the restore) =="
# Restored bits must be the bits that were saved: two epochs (a small
# mutation between them) through the store, one FNV digest per object before
# the wipe and again after the restore. The two sets of digest lines must
# agree. Only digest lines are diffed.
CKPT_DIR="$(mktemp -d -t gml_ckpt_parity_XXXXXX)"
trap 'rm -f "$TRACE_JSON"; rm -rf "$PARITY_DIR" "$CKPT_DIR"' EXIT
cargo run --release -p gml-bench --bin checkpoint_parity > "$CKPT_DIR/parity.out"
for WHEN in before after; do
    sed -n "s/^$WHEN //p" "$CKPT_DIR/parity.out" > "$CKPT_DIR/$WHEN.txt"
done
test -s "$CKPT_DIR/before.txt" || { echo "checkpoint codec parity: no digest lines"; exit 1; }
diff "$CKPT_DIR/before.txt" "$CKPT_DIR/after.txt" \
    || { echo "checkpoint codec parity: the restore diverges from the saved values"; exit 1; }
grep '^frames' "$CKPT_DIR/parity.out"
# Both frame forms must have been restored: one object is incompressible, so
# its frames are kept verbatim (payload by reference, no records), and the
# others pack. `full` counts every frame, the verbatim ones included.
read -r FULL VERBATIM < <(sed -n 's/^frames full=\([0-9]*\) verbatim=\([0-9]*\)$/\1 \2/p' "$CKPT_DIR/parity.out") || true
[ "${VERBATIM:-0}" -gt 0 ] && [ "${FULL:-0}" -gt "$VERBATIM" ] \
    || { echo "checkpoint codec parity: want full > verbatim > 0"; exit 1; }

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
trap 'rm -f "$TRACE_JSON" "$COUNTS"; rm -rf "$PARITY_DIR" "$CKPT_DIR"' EXIT
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
# first target), for the checkpoint store's three files (item 1's), for the
# distributed classes' four files (item 17's), for apgas's four
# observability modules (item 5's), for all of the observability code
# (item 21's: those four, gml-core's forensics and report, and the
# benchmark's spans and replay) and for the executor's recovery and its
# records (item 24's: framework, forensics and report).
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
printf '%-22s %6d\n' "distributed classes" \
    "$(non_test_lines crates/core/src/{dist_block_matrix,dist_vector,dist_dense,app_state}.rs)"
printf '%-22s %6d\n' "apgas observability" \
    "$(non_test_lines crates/apgas/src/{trace,mem,metrics,stats}.rs)"
printf '%-22s %6d\n' "observability (item 21)" \
    "$(non_test_lines crates/apgas/src/{trace,mem,metrics,stats}.rs \
        crates/core/src/{forensics,report}.rs e2e_bench/src/{spans,replay}.rs)"
printf '%-22s %6d\n' "recovery (item 24)" \
    "$(non_test_lines crates/core/src/{framework,forensics,report}.rs)"

echo "CI OK"
