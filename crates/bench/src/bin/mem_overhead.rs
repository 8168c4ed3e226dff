//! CI gate for the memory plane's cost contract.
//!
//! The ledger is on by default (`mem-profile`), so its hot-path operations
//! ride inside `PlaceStore::insert`, the mailbox and the tile pool — they
//! must stay a pair of relaxed atomic ops, nothing more. This bin pins
//! that: it asserts the feature's default wiring, bounds the cost of a
//! tight charge/discharge loop, and sanity-checks that the counting global
//! allocator is actually observing traffic. It also prices the `bytes`
//! buffer pool's lock, which every pooled allocation (≥ 1 KiB) and every
//! last-owner drop of one takes: an uncontended rent + freeze + drop must
//! be served from the pool and stay under its own ceiling. The complementary
//! *off* contract (every ledger path compiles to a no-op) is checked by
//! `ci.sh` building and testing `apgas` with `--no-default-features
//! --features trace`.
//!
//! Usage: `cargo run --release -p gml-bench --bin mem_overhead`

use std::hint::black_box;
use std::time::Instant;

use apgas::mem::{self, MemTag};

/// Generous per-op ceiling for one charge + one discharge (four relaxed
/// atomic RMWs plus a saturating CAS loop that never retries uncontended).
/// Real cost is a few ns; the ceiling only has to catch an accidental
/// mutex, syscall, or allocation sneaking onto the path.
const MAX_NS_PER_PAIR: f64 = 250.0;

/// Ceiling for one uncontended 64 KiB `BytesMut::with_capacity`, `freeze`
/// and drop: two lock round trips on the pool and the `Bytes` header's
/// allocation. It has to catch a lock that sleeps or spins; a pool that
/// misses is caught by counting hits.
const MAX_NS_PER_POOL_PAIR: f64 = 1000.0;

const ITERS: u64 = 1_000_000;

fn main() {
    // Contract 1: the default build profiles memory. A release binary that
    // silently dropped the feature would zero every column and gauge.
    assert!(mem::enabled(), "mem-profile must be on in the default feature set");

    // Contract 2: the allocator counters see real traffic.
    let allocs0 = mem::heap_allocs();
    let live0 = mem::heap_bytes();
    let v: Vec<u8> = black_box(vec![7u8; 1 << 20]);
    let allocs1 = mem::heap_allocs();
    let live1 = mem::heap_bytes();
    assert!(allocs1 > allocs0, "counting allocator must observe an allocation");
    assert!(
        live1 >= live0 + (1 << 20),
        "heap level must grow by at least the 1 MiB just allocated ({live0} -> {live1})"
    );
    assert!(mem::heap_peak_bytes() >= live1, "peak is never below the current level");
    drop(v);

    // Contract 3: charge/discharge is cheap enough to sit on every store
    // insert and tile rent. Warm up, then time the pair.
    for _ in 0..10_000 {
        mem::charge(MemTag::AppMatrix, 64);
        mem::discharge(MemTag::AppMatrix, 64);
    }
    let before = mem::current(MemTag::AppMatrix);
    let t0 = Instant::now();
    for i in 0..ITERS {
        mem::charge(MemTag::AppMatrix, black_box(64 + (i & 7) as usize));
        mem::discharge(MemTag::AppMatrix, black_box(64 + (i & 7) as usize));
    }
    let ns_per_pair = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    assert_eq!(
        mem::current(MemTag::AppMatrix),
        before,
        "balanced charge/discharge must leave the tag level unchanged"
    );
    println!(
        "mem overhead: {ns_per_pair:.1} ns per charge+discharge pair \
         (ceiling {MAX_NS_PER_PAIR} ns), heap {} live / {} peak / {} allocs",
        mem::heap_bytes(),
        mem::heap_peak_bytes(),
        mem::heap_allocs()
    );
    assert!(
        ns_per_pair < MAX_NS_PER_PAIR,
        "charge/discharge pair costs {ns_per_pair:.1} ns — over the {MAX_NS_PER_PAIR} ns ceiling"
    );

    // Contract 4: an uncontended pool round trip is a hit and cheap. The
    // first request may miss; every later one reuses the buffer the
    // previous drop parked.
    const POOL_ITERS: u64 = 100_000;
    drop(bytes::BytesMut::with_capacity(64 << 10).freeze());
    let s0 = bytes::global_pool_stats();
    let t0 = Instant::now();
    for _ in 0..POOL_ITERS {
        drop(black_box(bytes::BytesMut::with_capacity(black_box(64 << 10)).freeze()));
    }
    let ns_per_pool_pair = t0.elapsed().as_nanos() as f64 / POOL_ITERS as f64;
    let s1 = bytes::global_pool_stats();
    println!(
        "mem overhead: {ns_per_pool_pair:.1} ns per pooled 64 KiB rent+freeze+drop \
         (ceiling {MAX_NS_PER_POOL_PAIR} ns), hits {} / misses {}, parked {} B, \
         high water {} B (budget {} B)",
        s1.hits - s0.hits,
        s1.misses - s0.misses,
        s1.parked_bytes,
        s1.parked_bytes_high_water,
        bytes::POOL_MAX_PARKED
    );
    assert_eq!(s1.hits - s0.hits, POOL_ITERS, "every uncontended request must hit the pool");
    assert!(s1.parked_bytes_high_water <= bytes::POOL_MAX_PARKED as u64);
    assert!(
        ns_per_pool_pair < MAX_NS_PER_POOL_PAIR,
        "pool round trip costs {ns_per_pool_pair:.1} ns — over the {MAX_NS_PER_POOL_PAIR} ns ceiling"
    );
    println!("mem overhead: OK");
}
