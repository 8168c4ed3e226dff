//! Parity oracle for the checkpoint codec (`codec_raw` | `codec_framed`):
//! runs two checkpoint epochs through an `AppResilientStore` — over a raw
//! store, the reference, or the framed one `AppResilientStore::make` builds
//! — with a small deterministic mutation between them, so the restored
//! generation is not the first one saved; wipes the objects, restores, and
//! prints every place's store inventory, the restored digests, a measured
//! `max_abs_err` line and the forms the codec chose (`frames full=…
//! verbatim=…`). One object has random mantissas, so nothing in it packs:
//! its frames must come out verbatim on the framed leg (ci.sh requires
//! `verbatim > 0` there and `verbatim == 0` on the raw leg, which never
//! frames). ci.sh diffs the digest lines across the two legs (inventories
//! are *not* comparable: wire bytes legitimately differ). Both legs
//! additionally self-assert `max_abs_err == 0` — restore must be
//! bit-identical, not merely close.
//!
//! Usage: `cargo run --release -p gml-bench --bin checkpoint_parity -- <mode>`

use apgas::digest::fnv1a_f64s;
use apgas::runtime::{Runtime, RuntimeConfig};
use gml_core::{
    AppResilientStore, DistDenseMatrix, DistSparseMatrix, DistVector, DupDenseMatrix, DupVector,
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

/// Epoch-1 fill: `val` with a sparse deterministic perturbation, one element
/// in 4096.
fn val_mutated(i: usize) -> f64 {
    if i.is_multiple_of(4096) {
        val(i) + 0.5
    } else {
        val(i)
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    if !matches!(mode.as_str(), "codec_raw" | "codec_framed") {
        eprintln!("usage: checkpoint_parity {{codec_raw|codec_framed}} (got {mode:?})");
        std::process::exit(2);
    }
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

        // Raw or framed store, two epochs, restore.
        let counters0 = gml_core::codec::counters();
        let mut store = match mode.as_str() {
            "codec_raw" => AppResilientStore::make_with_redundancy(ctx, true),
            _ => AppResilientStore::make(ctx),
        }
        .unwrap();
        // The incompressible object.
        let mut dn = DupDenseMatrix::make(ctx, 128, 96, &g).unwrap();
        dn.init(ctx, |i, j| noise(i * 96 + j)).unwrap();

        // Epoch 0: every object.
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.save(ctx, &dd).unwrap();
        store.save(ctx, &dm).unwrap();
        store.save(ctx, &ds).unwrap();
        store.save(ctx, &dn).unwrap();
        store.commit(ctx).unwrap();

        // Epoch 1: sparse mutation on the dense objects (the sparse matrix
        // re-saves unchanged); the commit retires epoch 0.
        dv.init(ctx, val_mutated).unwrap();
        dup.init(ctx, |i| val_mutated(i + 17)).unwrap();
        dd.init(ctx, |i, j| val_mutated(i * 48 + j)).unwrap();
        dm.init(ctx, |i, j| val_mutated(i * 64 + j + 3)).unwrap();
        // The same perturbation on top of the noise: exactly zero where
        // `val_mutated` leaves `val` alone.
        dn.init(ctx, |i, j| noise(i * 96 + j) + (val_mutated(i * 96 + j) - val(i * 96 + j)))
            .unwrap();
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.save(ctx, &dd).unwrap();
        store.save(ctx, &dm).unwrap();
        store.save(ctx, &ds).unwrap();
        store.save(ctx, &dn).unwrap();
        store.commit(ctx).unwrap();

        print_inventory(&store.store().inventory(ctx));

        // Capture the expected post-mutation values, wipe, restore from the
        // committed snapshots.
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

        // Measured restore error against the pre-wipe values: both legs must
        // be *bit-identical* (exactly zero).
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
        println!("max_abs_err {max_err:e} ok={}", max_err == 0.0);
        assert!(max_err == 0.0, "restore error {max_err:e} in mode {mode}");
        // The forms the codec chose, per leg (all zero on the raw leg: the
        // raw store never frames).
        let c = gml_core::codec::counters().since(&counters0);
        println!("frames full={} verbatim={}", c.frames_full, c.frames_verbatim);
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
