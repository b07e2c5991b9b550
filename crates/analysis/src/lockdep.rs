//! Lock-order (lockdep) verification for the runtime's hand-rolled locks.
//!
//! Every lock in the serving runtime declares a [`LockClass`] — a rank in
//! the global acquisition order. Under `debug_assertions` (or the
//! `lockdep` cargo feature) each thread tracks its held-lock set and every
//! acquisition records an edge in a process-wide lock-order graph. Three
//! bug shapes panic immediately, naming both acquisition sites:
//!
//! * **rank inversion** — acquiring a lock whose class ranks *below* one
//!   already held (the declared order says it must be taken first);
//! * **reentrant acquisition** — re-locking an instance the thread already
//!   holds (guaranteed deadlock on `std::sync::Mutex`);
//! * **order cycle** — an acquisition that closes a cycle in the observed
//!   lock-order graph across threads, even within a single rank (e.g. two
//!   same-class instances taken in opposite orders by two threads).
//!
//! With the checker disabled the wrappers are transparent newtypes over
//! `std::sync` — `lock()` is `#[inline]` passthrough and the guard type is
//! a type alias for the std guard, so the release serve path is unchanged.

use std::fmt;

/// The global acquisition order for the runtime's locks, outermost first.
///
/// A thread may acquire a lock only while every lock it already holds
/// ranks at or below the new lock's class — ranks never decrease along an
/// acquisition chain. Concretely: take `TenantRegistry` before any serve-path
/// lock, the open-loop `Sketch` before the `OpenLoopSlot` it publishes
/// into, a `CacheShard` before the single-flight `FlightTable`, and
/// `Stats`-class leaf bookkeeping last (never holding it across another
/// acquisition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockClass {
    /// Tenant-registry bookkeeping (admission, per-tenant tables) —
    /// outermost: admission control runs before the serve path touches
    /// any engine lock.
    TenantRegistry,
    /// The per-engine snapshot/restore gate: serializes whole-bank
    /// save/restore against each other while a restore's installs take the
    /// serve-path locks below it. Ranked above every serve-path lock and
    /// below the registry, so registry-level save/load-all composes.
    Snapshot,
    /// A per-class rolling traffic sketch feeding re-characterization.
    /// Ranked above the slot it publishes into: a rebuild drains the
    /// sketch and then installs the new curve.
    Sketch,
    /// The open-loop curve-bank slot a rebuilt characteristic is swapped
    /// into.
    OpenLoopSlot,
    /// One shard of the sharded transformation cache (LRU + byte budget).
    CacheShard,
    /// One shard of the single-flight table coalescing concurrent misses.
    FlightTable,
    /// The join handle of an open-loop engine's background rebuild thread.
    /// Held only to store, take or join-and-replace the handle, never
    /// while acquiring another lock.
    RebuildThread,
    /// Leaf bookkeeping: batch result slots, stream feed hand-off, bench
    /// aggregation. Never held across another lock acquisition.
    Stats,
}

impl LockClass {
    /// Position in the global acquisition order; lower ranks are acquired
    /// first (outermost).
    pub const fn rank(self) -> u8 {
        match self {
            LockClass::TenantRegistry => 10,
            LockClass::Snapshot => 15,
            LockClass::Sketch => 20,
            LockClass::OpenLoopSlot => 30,
            LockClass::CacheShard => 40,
            LockClass::FlightTable => 50,
            LockClass::RebuildThread => 55,
            LockClass::Stats => 60,
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LockClass::TenantRegistry => "TenantRegistry",
            LockClass::Snapshot => "Snapshot",
            LockClass::Sketch => "Sketch",
            LockClass::OpenLoopSlot => "OpenLoopSlot",
            LockClass::CacheShard => "CacheShard",
            LockClass::FlightTable => "FlightTable",
            LockClass::RebuildThread => "RebuildThread",
            LockClass::Stats => "Stats",
        };
        write!(f, "{name} (rank {})", self.rank())
    }
}

/// Recovers a guard from a possibly poisoned lock result.
///
/// Lock poisoning means a *previous* holder panicked, not that the
/// protected data is torn — every critical section in the runtime either
/// completes its update or leaves the structure consistent. Cascading the
/// poison panic through the worker pool would convert one bad frame into
/// a dead engine, so the runtime recovers the guard and counts the event
/// (`EngineStats::poison_recoveries`) via `on_poison` instead.
pub fn lock_healthy<G>(
    result: Result<G, std::sync::PoisonError<G>>,
    on_poison: impl FnOnce(),
) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            on_poison();
            poisoned.into_inner()
        }
    }
}

#[cfg(any(debug_assertions, feature = "lockdep"))]
mod imp {
    use super::LockClass;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{
        Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
        RwLockWriteGuard, WaitTimeoutResult,
    };
    use std::time::Duration;

    /// Unique id per lock instance, so the order graph distinguishes two
    /// locks of the same class (e.g. two cache shards).
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    fn next_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed) // ordering: id allocation only needs uniqueness
    }

    type Site = &'static Location<'static>;

    #[derive(Clone, Copy)]
    struct HeldEntry {
        id: u64,
        class: LockClass,
        site: Site,
    }

    thread_local! {
        /// The acquisition stack of the current thread.
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    }

    #[derive(Clone, Copy)]
    struct Edge {
        from_class: LockClass,
        to_class: LockClass,
        from_site: Site,
        to_site: Site,
    }

    /// Adjacency list of observed lock-order edges, keyed by instance id.
    type OrderGraph = HashMap<u64, Vec<(u64, Edge)>>;

    /// Observed lock-order edges: `from` instance was held while `to` was
    /// acquired, with the first-seen acquisition sites of both.
    static GRAPH: Mutex<Option<OrderGraph>> = Mutex::new(None);

    /// Is `to` already ordered (transitively) before `from`? Returns the
    /// first edge of a witnessing path for the panic message.
    fn path_between(graph: &OrderGraph, from: u64, to: u64) -> Option<Edge> {
        let mut stack: Vec<(u64, Option<Edge>)> = vec![(from, None)];
        let mut visited = std::collections::HashSet::new();
        while let Some((node, first)) = stack.pop() {
            if !visited.insert(node) {
                continue;
            }
            for (next, edge) in graph.get(&node).into_iter().flatten() {
                let first = Some(first.unwrap_or(*edge));
                if *next == to {
                    return first;
                }
                stack.push((*next, first));
            }
        }
        None
    }

    /// Validates acquiring `(id, class)` at `site` against the held set
    /// and the global order graph, then records the acquisition. Panics
    /// on reentrancy, rank inversion or an order cycle.
    fn register(id: u64, class: LockClass, site: Site) {
        let violation = HELD.with(|held| {
            let held = held.borrow();
            if let Some(prior) = held.iter().find(|e| e.id == id) {
                return Some(format!(
                    "lockdep: reentrant acquisition of {class} at {site}; \
                     this thread already holds it from {}",
                    prior.site
                ));
            }
            if let Some(top) = held.iter().max_by_key(|e| e.class.rank()) {
                if top.class.rank() > class.rank() {
                    return Some(format!(
                        "lockdep: lock-order inversion: acquiring {class} at {site} \
                         while holding {} acquired at {}; the declared order takes \
                         {class} first",
                        top.class, top.site
                    ));
                }
            }
            // Record edges held -> new and probe for a cycle the new edge
            // would close (covers same-rank instances the rank check
            // cannot order).
            let mut guard = super::lock_healthy(GRAPH.lock(), || {});
            let graph = guard.get_or_insert_with(HashMap::new);
            for entry in held.iter() {
                if let Some(witness) = path_between(graph, id, entry.id) {
                    return Some(format!(
                        "lockdep: lock-order cycle: acquiring {class} at {site} while \
                         holding {} acquired at {}, but the observed order already \
                         requires {} before {} (edge {} -> {} recorded at {} -> {})",
                        entry.class,
                        entry.site,
                        witness.from_class,
                        witness.to_class,
                        witness.from_class,
                        witness.to_class,
                        witness.from_site,
                        witness.to_site
                    ));
                }
                let edges = graph.entry(entry.id).or_default();
                if !edges.iter().any(|(to, _)| *to == id) {
                    edges.push((
                        id,
                        Edge {
                            from_class: entry.class,
                            to_class: class,
                            from_site: entry.site,
                            to_site: site,
                        },
                    ));
                }
            }
            None
        });
        if let Some(message) = violation {
            panic!("{message}");
        }
        HELD.with(|held| held.borrow_mut().push(HeldEntry { id, class, site }));
    }

    /// Removes the most recent registration of `id` from the held set.
    fn unregister(id: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.id == id) {
                held.remove(pos);
            }
        });
    }

    /// A [`Mutex`] that participates in lock-order verification.
    pub struct OrderedMutex<T: ?Sized> {
        class: LockClass,
        id: u64,
        inner: Mutex<T>,
    }

    impl<T> OrderedMutex<T> {
        pub fn new(class: LockClass, value: T) -> Self {
            Self {
                class,
                id: next_id(),
                inner: Mutex::new(value),
            }
        }

        /// Acquires the lock, first validating the acquisition against
        /// the thread's held set and the global order graph.
        #[track_caller]
        pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
            let site = Location::caller();
            register(self.id, self.class, site);
            match self.inner.lock() {
                Ok(inner) => Ok(self.guard(inner)),
                Err(poisoned) => Err(PoisonError::new(self.guard(poisoned.into_inner()))),
            }
        }

        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }

        fn guard<'a>(&'a self, inner: MutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
            OrderedMutexGuard {
                inner: Some(inner),
                id: self.id,
                class: self.class,
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("OrderedMutex")
                .field("class", &self.class)
                .field("inner", &self.inner)
                .finish()
        }
    }

    /// Guard for [`OrderedMutex`]; releasing it pops the lock from the
    /// thread's held set.
    pub struct OrderedMutexGuard<'a, T: ?Sized> {
        /// `None` only transiently while parked in a condvar wait (the
        /// std guard has been surrendered to `Condvar::wait`).
        inner: Option<MutexGuard<'a, T>>,
        id: u64,
        class: LockClass,
    }

    impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner
                .as_ref()
                .expect("guard surrendered to a condvar wait")
        }
    }

    impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner
                .as_mut()
                .expect("guard surrendered to a condvar wait")
        }
    }

    impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                unregister(self.id);
            }
        }
    }

    /// A [`Condvar`] aware of [`OrderedMutex`] guards: waiting surrenders
    /// the lock (popping it from the held set) and re-registers the
    /// reacquisition when the wait returns.
    pub struct OrderedCondvar {
        inner: Condvar,
    }

    impl OrderedCondvar {
        pub const fn new() -> Self {
            Self {
                inner: Condvar::new(),
            }
        }

        #[track_caller]
        pub fn wait<'a, T>(
            &self,
            mut guard: OrderedMutexGuard<'a, T>,
        ) -> LockResult<OrderedMutexGuard<'a, T>> {
            let site = Location::caller();
            let (id, class) = (guard.id, guard.class);
            let inner = guard.inner.take().expect("guard surrendered twice");
            drop(guard);
            unregister(id);
            let rebuild = |inner: MutexGuard<'a, T>| {
                register(id, class, site);
                OrderedMutexGuard {
                    inner: Some(inner),
                    id,
                    class,
                }
            };
            match self.inner.wait(inner) {
                Ok(inner) => Ok(rebuild(inner)),
                Err(poisoned) => Err(PoisonError::new(rebuild(poisoned.into_inner()))),
            }
        }

        #[track_caller]
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: OrderedMutexGuard<'a, T>,
            timeout: Duration,
        ) -> LockResult<(OrderedMutexGuard<'a, T>, WaitTimeoutResult)> {
            let site = Location::caller();
            let (id, class) = (guard.id, guard.class);
            let inner = guard.inner.take().expect("guard surrendered twice");
            drop(guard);
            unregister(id);
            let rebuild = |inner: MutexGuard<'a, T>| {
                register(id, class, site);
                OrderedMutexGuard {
                    inner: Some(inner),
                    id,
                    class,
                }
            };
            match self.inner.wait_timeout(inner, timeout) {
                Ok((inner, timed_out)) => Ok((rebuild(inner), timed_out)),
                Err(poisoned) => {
                    let (inner, timed_out) = poisoned.into_inner();
                    Err(PoisonError::new((rebuild(inner), timed_out)))
                }
            }
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for OrderedCondvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl fmt::Debug for OrderedCondvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("OrderedCondvar").finish()
        }
    }

    /// An [`RwLock`] that participates in lock-order verification. Both
    /// read and write acquisitions are ranked — a reentrant read is
    /// flagged too, because it can deadlock against a queued writer.
    pub struct OrderedRwLock<T: ?Sized> {
        class: LockClass,
        id: u64,
        inner: RwLock<T>,
    }

    impl<T> OrderedRwLock<T> {
        pub fn new(class: LockClass, value: T) -> Self {
            Self {
                class,
                id: next_id(),
                inner: RwLock::new(value),
            }
        }

        #[track_caller]
        pub fn read(&self) -> LockResult<OrderedRwLockReadGuard<'_, T>> {
            let site = Location::caller();
            register(self.id, self.class, site);
            match self.inner.read() {
                Ok(inner) => Ok(OrderedRwLockReadGuard { inner, id: self.id }),
                Err(poisoned) => Err(PoisonError::new(OrderedRwLockReadGuard {
                    inner: poisoned.into_inner(),
                    id: self.id,
                })),
            }
        }

        #[track_caller]
        pub fn write(&self) -> LockResult<OrderedRwLockWriteGuard<'_, T>> {
            let site = Location::caller();
            register(self.id, self.class, site);
            match self.inner.write() {
                Ok(inner) => Ok(OrderedRwLockWriteGuard { inner, id: self.id }),
                Err(poisoned) => Err(PoisonError::new(OrderedRwLockWriteGuard {
                    inner: poisoned.into_inner(),
                    id: self.id,
                })),
            }
        }

        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("OrderedRwLock")
                .field("class", &self.class)
                .field("inner", &self.inner)
                .finish()
        }
    }

    /// Shared-read guard for [`OrderedRwLock`].
    pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
        inner: RwLockReadGuard<'a, T>,
        id: u64,
    }

    impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            unregister(self.id);
        }
    }

    /// Exclusive-write guard for [`OrderedRwLock`].
    pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
        inner: RwLockWriteGuard<'a, T>,
        id: u64,
    }

    impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            unregister(self.id);
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "lockdep")))]
mod imp {
    //! Checker disabled: transparent newtypes over `std::sync` with
    //! `#[inline]` passthrough and std guard aliases — zero overhead on
    //! the release serve path.

    use super::LockClass;
    use std::fmt;
    use std::sync::{Condvar, LockResult, Mutex, RwLock, WaitTimeoutResult};
    use std::time::Duration;

    pub type OrderedMutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    pub type OrderedRwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    pub type OrderedRwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    pub struct OrderedMutex<T: ?Sized> {
        inner: Mutex<T>,
    }

    impl<T> OrderedMutex<T> {
        #[inline]
        pub fn new(_class: LockClass, value: T) -> Self {
            Self {
                inner: Mutex::new(value),
            }
        }

        #[inline]
        pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
            self.inner.lock()
        }

        #[inline]
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        #[inline]
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    pub struct OrderedCondvar {
        inner: Condvar,
    }

    impl OrderedCondvar {
        #[inline]
        pub const fn new() -> Self {
            Self {
                inner: Condvar::new(),
            }
        }

        #[inline]
        pub fn wait<'a, T>(
            &self,
            guard: OrderedMutexGuard<'a, T>,
        ) -> LockResult<OrderedMutexGuard<'a, T>> {
            self.inner.wait(guard)
        }

        #[inline]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: OrderedMutexGuard<'a, T>,
            timeout: Duration,
        ) -> LockResult<(OrderedMutexGuard<'a, T>, WaitTimeoutResult)> {
            self.inner.wait_timeout(guard, timeout)
        }

        #[inline]
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        #[inline]
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for OrderedCondvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl fmt::Debug for OrderedCondvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("OrderedCondvar").finish()
        }
    }

    pub struct OrderedRwLock<T: ?Sized> {
        inner: RwLock<T>,
    }

    impl<T> OrderedRwLock<T> {
        #[inline]
        pub fn new(_class: LockClass, value: T) -> Self {
            Self {
                inner: RwLock::new(value),
            }
        }

        #[inline]
        pub fn read(&self) -> LockResult<OrderedRwLockReadGuard<'_, T>> {
            self.inner.read()
        }

        #[inline]
        pub fn write(&self) -> LockResult<OrderedRwLockWriteGuard<'_, T>> {
            self.inner.write()
        }

        #[inline]
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        #[inline]
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }
}

pub use imp::{
    OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};

// Without the checking `imp` the wrappers are transparent newtypes: the
// panic-expecting tests would fail, and the reentrancy test would turn
// into a genuine self-deadlock, so the module only exists where the
// checks do (plain `cargo test` has `debug_assertions`, CI's release leg
// enables the `lockdep` feature).
#[cfg(all(test, any(debug_assertions, feature = "lockdep")))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("expected a lockdep panic");
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            panic!("non-string panic payload");
        }
    }

    #[test]
    fn rank_inversion_panics_naming_both_sites() {
        let flight = OrderedMutex::new(LockClass::FlightTable, ());
        let shard = OrderedMutex::new(LockClass::CacheShard, ());
        let message = panic_message(
            std::thread::Builder::new()
                .name("lockdep-inversion".into())
                .spawn(move || {
                    let _outer = flight.lock().unwrap();
                    let _inner = shard.lock().unwrap(); // inverted: shard ranks before flight
                })
                .unwrap()
                .join(),
        );
        assert!(
            message.contains("lock-order inversion"),
            "unexpected message: {message}"
        );
        assert!(message.contains("CacheShard"), "message: {message}");
        assert!(message.contains("FlightTable"), "message: {message}");
        // Both acquisition sites are named (this file, two distinct lines).
        let occurrences = message.matches("lockdep.rs").count();
        assert!(
            occurrences >= 2,
            "expected both sites in the message: {message}"
        );
    }

    #[test]
    fn cycle_across_three_same_rank_locks_is_detected() {
        let a = Arc::new(OrderedMutex::new(LockClass::Stats, 'a'));
        let b = Arc::new(OrderedMutex::new(LockClass::Stats, 'b'));
        let c = Arc::new(OrderedMutex::new(LockClass::Stats, 'c'));
        // Establish a -> b and b -> c (consistent so far).
        {
            let _a = a.lock().unwrap();
            let _b = b.lock().unwrap();
        }
        {
            let _b = b.lock().unwrap();
            let _c = c.lock().unwrap();
        }
        // c -> a closes the cycle; same rank, so only the graph can see it.
        let message = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _c = c.lock().unwrap();
            let _a = a.lock().unwrap();
        })));
        assert!(
            message.contains("lock-order cycle"),
            "unexpected message: {message}"
        );
        assert!(
            message.matches("lockdep.rs").count() >= 2,
            "expected both sites in the message: {message}"
        );
    }

    #[test]
    fn reentrant_acquisition_is_detected() {
        let lock = Arc::new(OrderedMutex::new(LockClass::CacheShard, 0u32));
        let message = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _first = lock.lock().unwrap();
            let _second = lock.lock().unwrap();
        })));
        assert!(
            message.contains("reentrant acquisition"),
            "unexpected message: {message}"
        );
    }

    #[test]
    fn declared_order_and_releases_pass_clean() {
        let registry = OrderedMutex::new(LockClass::TenantRegistry, ());
        let shard = OrderedMutex::new(LockClass::CacheShard, ());
        let flight = OrderedMutex::new(LockClass::FlightTable, ());
        {
            let _r = registry.lock().unwrap();
            let _s = shard.lock().unwrap();
            let _f = flight.lock().unwrap();
        }
        // Dropping the guards pops the held set: re-acquiring from the top
        // must not trip the reentrancy or order checks.
        let _s = shard.lock().unwrap();
        drop(_s);
        let _r = registry.lock().unwrap();
    }

    #[test]
    fn condvar_wait_surrenders_and_reacquires_the_lock() {
        let pair = Arc::new((
            OrderedMutex::new(LockClass::FlightTable, false),
            OrderedCondvar::new(),
        ));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, condvar) = (&pair.0, &pair.1);
                let mut ready = lock.lock().unwrap();
                while !*ready {
                    ready = condvar.wait(ready).unwrap();
                }
                // The reacquired guard participates in ordering again: a
                // lower-rank acquisition here would panic, a leaf is fine.
                *ready
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        {
            let (lock, condvar) = (&pair.0, &pair.1);
            *lock.lock().unwrap() = true;
            condvar.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn rwlock_participates_in_ordering() {
        let sketch = OrderedRwLock::new(LockClass::Sketch, 1u32);
        let slot = OrderedMutex::new(LockClass::OpenLoopSlot, ());
        {
            let _read = sketch.read().unwrap();
            let _slot = slot.lock().unwrap(); // sketch ranks before slot
        }
        let message = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _slot = slot.lock().unwrap();
            let _write = sketch.write().unwrap();
        })));
        assert!(
            message.contains("lock-order inversion"),
            "unexpected message: {message}"
        );
    }
}
