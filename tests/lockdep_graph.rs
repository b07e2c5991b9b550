//! Lockdep regression tests on the runtime's *real* lock-class graph.
//!
//! The unit tests in `hebs-analysis` prove the checker mechanics on
//! synthetic locks; these tests pin the rank assignments the runtime
//! actually relies on — cache shards (rank 40) are taken before
//! single-flight shards (rank 50), stats/bookkeeping locks (rank 60) are
//! always last — and that a deliberate inversion of the cache-shard /
//! single-flight order panics naming both acquisition sites.
//!
//! Lockdep only checks under `debug_assertions` or the `lockdep` feature;
//! without either the wrappers are plain `std::sync` types and these tests
//! compile to nothing.
#![cfg(any(debug_assertions, feature = "lockdep"))]

use hebs::runtime::analysis::{lock_healthy, LockClass, OrderedMutex};

/// Runs `f` on a fresh thread and returns the panic message it died with.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
    let err = std::thread::spawn(f)
        .join()
        .expect_err("the closure must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a string")
}

/// The declared serve-path order — cache shard, then single-flight shard,
/// then a stats lock — passes lockdep cleanly.
#[test]
fn declared_serve_path_order_is_clean() {
    let shard = OrderedMutex::new(LockClass::CacheShard, 0u32);
    let flight = OrderedMutex::new(LockClass::FlightTable, 0u32);
    let stats = OrderedMutex::new(LockClass::Stats, 0u32);
    let a = lock_healthy(shard.lock(), || {});
    let b = lock_healthy(flight.lock(), || {});
    let c = lock_healthy(stats.lock(), || {});
    drop((a, b, c));
}

/// Holding a single-flight shard lock while acquiring a cache shard — the
/// inversion of the runtime's declared order, which could deadlock against
/// a serve holding the shard while joining the flight — panics, and the
/// report names both acquisition sites so the cycle is actionable.
#[test]
fn inverted_flight_then_cache_shard_panics_naming_both_sites() {
    let message = panic_message_of(|| {
        let flight = OrderedMutex::new(LockClass::FlightTable, 0u32);
        let shard = OrderedMutex::new(LockClass::CacheShard, 0u32);
        let _flight_guard = lock_healthy(flight.lock(), || {});
        let _shard_guard = lock_healthy(shard.lock(), || {}); // inversion: 40 under 50
    });
    assert!(
        message.contains("lock-order inversion"),
        "unexpected panic: {message}"
    );
    assert!(
        message.contains("CacheShard"),
        "unexpected panic: {message}"
    );
    assert!(
        message.contains("FlightTable"),
        "unexpected panic: {message}"
    );
    assert_eq!(
        message.matches("lockdep_graph.rs").count(),
        2,
        "both acquisition sites must be named: {message}"
    );
}

/// The full declared rank ladder stays monotone: every runtime class can
/// be acquired while holding every lower-ranked one.
#[test]
fn full_rank_ladder_is_acquirable_in_declared_order() {
    let ladder = [
        OrderedMutex::new(LockClass::TenantRegistry, ()),
        OrderedMutex::new(LockClass::Sketch, ()),
        OrderedMutex::new(LockClass::OpenLoopSlot, ()),
        OrderedMutex::new(LockClass::CacheShard, ()),
        OrderedMutex::new(LockClass::FlightTable, ()),
        OrderedMutex::new(LockClass::RebuildThread, ()),
        OrderedMutex::new(LockClass::Stats, ()),
    ];
    let guards: Vec<_> = ladder
        .iter()
        .map(|lock| lock_healthy(lock.lock(), || {}))
        .collect();
    drop(guards);
}

/// A stats lock (the highest rank) must never be held while entering the
/// serve path: taking a cache shard under it panics.
#[test]
fn serve_under_a_stats_lock_panics() {
    let message = panic_message_of(|| {
        let stats = OrderedMutex::new(LockClass::Stats, ());
        let shard = OrderedMutex::new(LockClass::CacheShard, ());
        let _stats_guard = lock_healthy(stats.lock(), || {});
        let _shard_guard = lock_healthy(shard.lock(), || {});
    });
    assert!(
        message.contains("lock-order inversion"),
        "unexpected panic: {message}"
    );
}
