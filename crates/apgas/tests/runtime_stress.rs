//! Stress and lifecycle tests for the APGAS runtime as a black box:
//! many concurrent finishes, interleaved failures, place-local storage
//! lifecycles, and repeated runtime construction/teardown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use apgas::prelude::*;
use apgas::runtime::Runtime;

#[test]
fn deep_nesting_of_finish_and_at() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        // finish { at { finish { async_at } } } three levels deep.
        let total = Arc::new(AtomicU64::new(0));
        ctx.finish(|fs| {
            for p in ctx.world().iter() {
                let total = Arc::clone(&total);
                fs.async_at(p, move |ctx| {
                    let next = Place::new((ctx.here().id() + 1) % 4);
                    let inner_total = Arc::clone(&total);
                    ctx.at(next, move |ctx| {
                        ctx.finish(|fs2| {
                            for q in ctx.world().iter() {
                                let t = Arc::clone(&inner_total);
                                fs2.async_at(q, move |_| {
                                    t.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        })
                        .unwrap();
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 16);
    })
    .unwrap();
}

#[test]
fn hundreds_of_sequential_finishes() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    let total = Arc::clone(&total);
                    fs.async_at(p, move |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 600);
        // Per finish, opened at place zero: the two remote tasks' Terms are
        // messages; 3 spawns + the local task's term + the wait are direct.
        let s = ctx.stats();
        assert_eq!(s.ctl_total(), 200 * 2);
        assert_eq!(s.ctl_local, 200 * (3 + 1 + 1));
        // Every one of the 200 finishes retired its registry record.
        assert!(ctx.finish_ledger().is_empty());
    })
    .unwrap();
}

#[test]
fn concurrent_finishes_from_different_places() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let total = Arc::new(AtomicU64::new(0));
        ctx.finish(|fs| {
            for p in ctx.world().iter() {
                let total = Arc::clone(&total);
                fs.async_at(p, move |ctx| {
                    // Each place runs its own loop of finishes concurrently
                    // with the others, all funneling through place zero.
                    for _ in 0..25 {
                        let t = Arc::clone(&total);
                        ctx.finish(|fs2| {
                            for q in ctx.world().iter() {
                                let t = Arc::clone(&t);
                                fs2.async_at(q, move |_| {
                                    t.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 4);
    })
    .unwrap();
}

#[test]
fn kill_storm_leaves_runtime_consistent() {
    Runtime::run(RuntimeConfig::new(8).resilient(true), |ctx| {
        // Kill several places while collective work is in flight.
        for victim in [3u32, 5, 7] {
            let _ = ctx.finish(|fs| {
                for p in ctx.live_subset(&ctx.world()).iter() {
                    fs.async_at(p, move |ctx| {
                        if ctx.here().id() == victim - 1 {
                            let _ = ctx.kill_place(Place::new(victim));
                        }
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    });
                }
            });
        }
        let live = ctx.live_subset(&ctx.world());
        assert_eq!(live.len(), 5);
        // Survivors still do work.
        let n = Arc::new(AtomicU64::new(0));
        ctx.finish(|fs| {
            for p in live.iter() {
                let n = Arc::clone(&n);
                fs.async_at(p, move |_| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 5);
    })
    .unwrap();
}

#[test]
fn plh_lifecycle_under_failures() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        // Create, use, destroy — repeatedly, with a failure in the middle.
        for round in 0..10u64 {
            let group = ctx.live_subset(&world);
            let plh =
                PlaceLocalHandle::make(ctx, &group, move |ctx| ctx.here().id() as u64 + round)
                    .unwrap();
            if round == 4 {
                ctx.kill_place(Place::new(3)).unwrap();
            }
            let live = ctx.live_subset(&group);
            let sum = Arc::new(AtomicU64::new(0));
            ctx.finish(|fs| {
                for p in live.iter() {
                    let sum = Arc::clone(&sum);
                    fs.async_at(p, move |ctx| {
                        if let Ok(v) = plh.local(ctx) {
                            sum.fetch_add(*v, Ordering::Relaxed);
                        }
                    });
                }
            })
            .unwrap();
            let expect: u64 = live.iter().map(|p| p.id() as u64 + round).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "round {round}");
            plh.destroy(ctx, &group).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn many_runtimes_sequentially() {
    // Construction/teardown must not leak threads or deadlock.
    for i in 0..20 {
        let out = Runtime::run(RuntimeConfig::new(3).resilient(i % 2 == 0), move |ctx| {
            ctx.world().len() as u64 + i
        })
        .unwrap();
        assert_eq!(out, 3 + i);
    }
}

#[test]
fn at_fetches_data_not_just_effects() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        // Ship a payload out and a transformed payload back.
        let payload: Vec<u64> = (0..1000).collect();
        let sum: u64 = ctx
            .at(Place::new(2), move |_| payload.iter().sum())
            .unwrap();
        assert_eq!(sum, 499_500);
    })
    .unwrap();
}

#[test]
fn elastic_growth_under_load() {
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        // Spawn places while finishes run.
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let fresh = ctx.spawn_place().unwrap();
            let total = Arc::clone(&total);
            ctx.finish(|fs| {
                for p in ctx.all_places().iter() {
                    let total = Arc::clone(&total);
                    fs.async_at(p, move |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
            assert!(ctx.is_alive(fresh));
        }
        assert_eq!(ctx.all_places().len(), 7);
        // 3 + 4 + 5 + 6 + 7 completions.
        assert_eq!(total.load(Ordering::Relaxed), 25);
    })
    .unwrap();
}
