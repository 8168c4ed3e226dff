//! A task that panics while it holds a place's lock fails its own call and
//! nothing after it: the lock is taken again, poisoned or not, by the next
//! operation on the same object, by a checkpoint and by a restore
//! (`apgas::sync`'s poison policy, exercised through the public API).

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use gml_core::{DistVector, GmlError, ResilientStore, Snapshottable};

#[test]
fn a_panic_under_a_segment_lock_fails_that_call_and_wedges_nothing() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let store = ResilientStore::make(ctx).unwrap();
        let mut v = DistVector::make(ctx, 9, &ctx.world()).unwrap();
        v.init(ctx, |i| i as f64).unwrap();
        assert_eq!(v.seg_place(1), Place::new(1), "element 4 lives at place 1");
        // Place 1's task panics inside `map_inplace`, holding its segment lock.
        let err = v
            .map_all(ctx, |x| if x == 4.0 { panic!("element 4 refused") } else { x })
            .unwrap_err();
        assert!(
            matches!(&err, GmlError::Apgas(ApgasError::TaskPanic(m)) if m.contains("element 4")),
            "{err}"
        );
        v.map_all(ctx, |x| x + 1.0).unwrap();
        let snap = v.make_snapshot(ctx, &store).unwrap();
        v.map_all(ctx, |_| -1.0).unwrap();
        v.restore_snapshot(ctx, &store, &snap).unwrap();
        // The panicking call left every element as it was; the next one ran.
        let expect: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(v.gather(ctx).unwrap().as_slice(), expect.as_slice());
    })
    .unwrap();
}
