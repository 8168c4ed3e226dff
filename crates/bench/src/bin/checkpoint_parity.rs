//! Parity oracle for the checkpoint plane, two axes:
//!
//! * **Transport** (`batched` | `per_pair`): checkpoints the same
//!   deterministic objects through the per-pair `save_pair` reference path
//!   and the single-framed-message `save_batch` fast path, then prints every
//!   place's store inventory and one FNV-1a hash per restored object. The
//!   `checkpoint_parity` step in `ci.sh` diffs the two dumps bit-for-bit.
//! * **Codec** (`codec_raw` | `codec_delta` | `codec_delta_comp` |
//!   `codec_lossy`): runs two checkpoint epochs through an
//!   `AppResilientStore` pinned to an explicit codec — a full-base epoch,
//!   then a small deterministic mutation so the delta legs actually build
//!   chains — wipes the objects, restores through the chain, and prints the
//!   restored digests, a measured `max_abs_err` line and the forms the codec
//!   chose (`frames full=… verbatim=… delta=… lossy=…`). One object has
//!   random mantissas, so nothing in it packs: its frames must come out
//!   verbatim on the compressing leg (ci.sh requires `verbatim > 0` there
//!   and `verbatim == 0` on the raw leg, which never frames). ci.sh diffs the
//!   digest lines across the three lossless codecs (inventories are *not*
//!   comparable there: wire bytes legitimately differ per codec) and checks
//!   the lossy leg honours its advertised error bound. The lossless legs
//!   additionally self-assert `max_abs_err == 0` — restore must be
//!   bit-identical, not merely close.
//!
//! Usage: `cargo run --release -p gml-bench --bin checkpoint_parity -- <mode>`

use apgas::digest::fnv1a_f64s;
use apgas::runtime::{Runtime, RuntimeConfig};
use gml_core::{
    AppResilientStore, CodecConfig, CodecMode, DistDenseMatrix, DistSparseMatrix, DistVector,
    DupDenseMatrix, DupVector, ResilientStore, Snapshottable,
};
use gml_matrix::builder;

fn report(name: &str, values: &[f64]) {
    // The shared bit-pattern digest (see `apgas::digest`) — one
    // implementation for parity gates, replica votes, and checksummed
    // steps, instead of a drifting local copy.
    println!("{name} {:016x}", fnv1a_f64s(values));
}

/// Deterministic pseudo-random fill, identical in both processes.
fn val(i: usize) -> f64 {
    ((i.wrapping_mul(2654435761)) % 10_000) as f64 * 0.25 - 1250.0
}

/// Incompressible fill: every mantissa bit pseudo-random, no byte plane of
/// the XOR residuals worth packing.
fn noise(i: usize) -> f64 {
    let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h ^ h >> 29) as f64 / u64::MAX as f64
}

/// Epoch-1 fill: `val` with a sparse deterministic perturbation. One element
/// in 4096 moves, so the payloads stay far under the delta codec's
/// dirty-ratio fallback and the second epoch genuinely ships delta frames.
fn val_mutated(i: usize) -> f64 {
    if i.is_multiple_of(4096) {
        val(i) + 0.5
    } else {
        val(i)
    }
}

/// Epoch-1 fill for the lossy leg: every value nudged *off* the quantizer's
/// `2·tol` grid (`k·1e-7` is never a multiple of `2e-6` for `k` in 1..=7),
/// so quantization provably moves bits — a zero measured error would mean
/// the lossy path silently didn't run, which the leg also cross-checks via
/// the `frames_lossy` counter.
fn val_off_grid(i: usize) -> f64 {
    val(i) + (i % 7 + 1) as f64 * 1e-7
}

/// Error bound for the `codec_lossy` leg (also the knob handed to the codec).
const LOSSY_TOL: f64 = 1e-6;

fn delta_config(level: u8, lossy_tol: Option<f64>) -> CodecConfig {
    CodecConfig {
        mode: CodecMode::Delta,
        level,
        chunk: 4096,
        dirty_max: 0.5,
        full_every: 16,
        lossy_tol,
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let transport_batched = match mode.as_str() {
        "batched" => Some(true),
        "per_pair" => Some(false),
        "codec_raw" | "codec_delta" | "codec_delta_comp" | "codec_lossy" => None,
        other => {
            eprintln!(
                "usage: checkpoint_parity \
                 {{batched|per_pair|codec_raw|codec_delta|codec_delta_comp|codec_lossy}} \
                 (got {other:?})"
            );
            std::process::exit(2);
        }
    };
    println!("mode {mode}");

    Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
        let g = ctx.world();

        // The same objects, ids, and contents in every mode: creation order
        // fixes the object ids, the store counter fixes the snap ids.
        let mut dv = DistVector::make(ctx, 10_000, &g).unwrap();
        dv.init(ctx, val).unwrap();
        let mut dup = DupVector::make(ctx, 4_096, &g).unwrap();
        dup.init(ctx, |i| val(i + 17)).unwrap();
        let mut dd = DupDenseMatrix::make(ctx, 64, 48, &g).unwrap();
        dd.init(ctx, |i, j| val(i * 48 + j)).unwrap();
        let mut dm = DistDenseMatrix::make(ctx, 96, 64, &g).unwrap();
        dm.init(ctx, |i, j| val(i * 64 + j + 3)).unwrap();
        let mut ds = DistSparseMatrix::make(ctx, 400, 300, &g).unwrap();
        ds.init_blocks(ctx, |bi, _r0, _c0, rows, cols| {
            builder::random_csr(rows, cols, 4, 1000 + bi as u64)
        })
        .unwrap();

        if let Some(batched) = transport_batched {
            // ---- Transport axis: raw codec on both legs, one epoch. ----
            let store = ResilientStore::make_with_batching(ctx, batched).unwrap();
            let snaps = [
                dv.make_snapshot(ctx, &store).unwrap(),
                dup.make_snapshot(ctx, &store).unwrap(),
                dd.make_snapshot(ctx, &store).unwrap(),
                dm.make_snapshot(ctx, &store).unwrap(),
                ds.make_snapshot(ctx, &store).unwrap(),
            ];

            // Both transports must produce the identical inventory: same
            // entry placement, same snapshot count, same logical and wire
            // payload bytes, per place.
            print_inventory(&store.inventory(ctx));

            // Wipe the mutable objects, restore everything, and hash: the
            // restored bits must match across transports.
            dv.init(ctx, |_| 0.0).unwrap();
            dup.init(ctx, |_| 0.0).unwrap();
            dd.init(ctx, |_, _| 0.0).unwrap();
            dm.init(ctx, |_, _| 0.0).unwrap();
            dv.restore_snapshot(ctx, &store, &snaps[0]).unwrap();
            dup.restore_snapshot(ctx, &store, &snaps[1]).unwrap();
            dd.restore_snapshot(ctx, &store, &snaps[2]).unwrap();
            dm.restore_snapshot(ctx, &store, &snaps[3]).unwrap();
            ds.restore_snapshot(ctx, &store, &snaps[4]).unwrap();

            report("dist_vector", dv.gather(ctx).unwrap().as_slice());
            report("dup_vector", dup.read_local(ctx).unwrap().as_slice());
            report("dup_dense", dd.local(ctx).unwrap().lock().as_slice());
            report("dist_dense", dm.gather_dense(ctx).unwrap().as_slice());
            report("dist_sparse", ds.gather_dense(ctx).unwrap().as_slice());
            return;
        }

        // ---- Codec axis: explicit config, two epochs, chain restore. ----
        let cfg = match mode.as_str() {
            "codec_raw" => CodecConfig::raw(),
            "codec_delta" => delta_config(0, None),
            "codec_delta_comp" => delta_config(1, None),
            _ => delta_config(1, Some(LOSSY_TOL)),
        };
        let lossy = cfg.lossy_tol.is_some();
        let counters0 = gml_core::codec::counters();
        let mut store = AppResilientStore::make_with_codec(ctx, cfg).unwrap();
        // The incompressible object, created last so the others keep the
        // ids they have on the transport axis.
        let mut dn = DupDenseMatrix::make(ctx, 128, 96, &g).unwrap();
        dn.init(ctx, |i, j| noise(i * 96 + j)).unwrap();

        // Epoch 0: full bases for every object.
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.save(ctx, &dd).unwrap();
        store.save(ctx, &dm).unwrap();
        store.save(ctx, &ds).unwrap();
        store.save(ctx, &dn).unwrap();
        store.commit(ctx).unwrap();

        // Epoch 1: sparse mutation on the dense objects (the sparse matrix
        // re-saves unchanged — a zero-dirty-chunk delta), so the delta legs
        // ship chains that restore must replay. The lossy leg instead moves
        // every value off the quantization grid so the error bound is
        // exercised for real, not vacuously satisfied by on-grid inputs.
        let fill: fn(usize) -> f64 = if lossy { val_off_grid } else { val_mutated };
        dv.init(ctx, fill).unwrap();
        dup.init(ctx, move |i| fill(i + 17)).unwrap();
        dd.init(ctx, move |i, j| fill(i * 48 + j)).unwrap();
        dm.init(ctx, move |i, j| fill(i * 64 + j + 3)).unwrap();
        // The same perturbation on top of the noise: exactly zero where
        // `fill` leaves `val` alone.
        dn.init(ctx, move |i, j| noise(i * 96 + j) + (fill(i * 96 + j) - val(i * 96 + j))).unwrap();
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.save(ctx, &dd).unwrap();
        store.save(ctx, &dm).unwrap();
        store.save(ctx, &ds).unwrap();
        store.save(ctx, &dn).unwrap();
        store.commit(ctx).unwrap();

        print_inventory(&store.store().inventory(ctx));

        // Capture the expected post-mutation values, wipe, restore through
        // the committed (possibly chained) snapshots.
        let want: [Vec<f64>; 6] = [
            dv.gather(ctx).unwrap().as_slice().to_vec(),
            dup.read_local(ctx).unwrap().as_slice().to_vec(),
            dd.local(ctx).unwrap().lock().as_slice().to_vec(),
            dm.gather_dense(ctx).unwrap().as_slice().to_vec(),
            ds.gather_dense(ctx).unwrap().as_slice().to_vec(),
            dn.local(ctx).unwrap().lock().as_slice().to_vec(),
        ];
        dv.init(ctx, |_| 0.0).unwrap();
        dup.init(ctx, |_| 0.0).unwrap();
        dd.init(ctx, |_, _| 0.0).unwrap();
        dm.init(ctx, |_, _| 0.0).unwrap();
        dn.init(ctx, |_, _| 0.0).unwrap();
        store
            .restore(ctx, &mut [&mut dv, &mut dup, &mut dd, &mut dm, &mut ds, &mut dn])
            .unwrap();

        report("dist_vector", dv.gather(ctx).unwrap().as_slice());
        report("dup_vector", dup.read_local(ctx).unwrap().as_slice());
        report("dup_dense", dd.local(ctx).unwrap().lock().as_slice());
        report("dist_dense", dm.gather_dense(ctx).unwrap().as_slice());
        report("dist_sparse", ds.gather_dense(ctx).unwrap().as_slice());
        report("dup_dense_noise", dn.local(ctx).unwrap().lock().as_slice());

        // Measured restore error against the pre-wipe values. Lossless legs
        // must be *bit-identical* (exactly zero); the lossy leg must stay
        // within the tolerance it was configured with.
        let got: [Vec<f64>; 6] = [
            dv.gather(ctx).unwrap().as_slice().to_vec(),
            dup.read_local(ctx).unwrap().as_slice().to_vec(),
            dd.local(ctx).unwrap().lock().as_slice().to_vec(),
            dm.gather_dense(ctx).unwrap().as_slice().to_vec(),
            ds.gather_dense(ctx).unwrap().as_slice().to_vec(),
            dn.local(ctx).unwrap().lock().as_slice().to_vec(),
        ];
        let max_err = want
            .iter()
            .zip(got.iter())
            .flat_map(|(w, g)| w.iter().zip(g.iter()).map(|(a, b)| (a - b).abs()))
            .fold(0.0f64, f64::max);
        let bound = if lossy { LOSSY_TOL } else { 0.0 };
        println!("max_abs_err {max_err:e} tol {bound:e} ok={}", max_err <= bound);
        assert!(
            max_err <= bound,
            "restore error {max_err:e} exceeds codec bound {bound:e} in mode {mode}"
        );
        // The forms the codec chose, per leg (all zero on the raw leg: the
        // raw store never frames).
        let c = gml_core::codec::counters().since(&counters0);
        println!(
            "frames full={} verbatim={} delta={} lossy={}",
            c.frames_full, c.frames_verbatim, c.frames_delta, c.frames_lossy
        );
        if lossy {
            // The bound must be exercised, not vacuous: quantization moved
            // off-grid values (nonzero error) and the codec stamped frames
            // as lossy.
            assert!(max_err > 0.0, "lossy leg measured zero error — quantization did not run");
            assert!(c.frames_lossy > 0, "lossy leg produced no lossy-flagged frames");
        }
    })
    .unwrap();
}

fn print_inventory(invs: &[gml_core::PlaceInventory]) {
    for inv in invs {
        println!(
            "inv place={} alive={} entries={} snapshots={} bytes={} wire_bytes={}",
            inv.place.id(),
            inv.alive,
            inv.entries,
            inv.snapshots,
            inv.bytes,
            inv.wire_bytes
        );
    }
}
