//! The transformation cache v2: a byte-budgeted, single-flight sharded LRU
//! keyed by frame content hash or by quantized histogram signature.
//!
//! The expensive part of serving a frame is the *fit* (GHE solve, blend
//! search, piecewise-linear coarsening, range search); the *application* of
//! a fitted transform is one LUT pass plus the display models. Video traffic
//! is dominated by runs of identical or near-identical frames, so the engine
//! caches fits and replays them:
//!
//! * [`CacheMode::Exact`] keys on a 128-bit content hash of the frame (plus
//!   its shape and the quantized budget band). The stored frame bytes are
//!   verified on every hit, so a served hit is still a proof that the
//!   identical frame was fitted before — but the lookup itself never copies
//!   the pixel buffer.
//! * [`CacheMode::Approximate`] keys on the frame's quantized
//!   [`HistogramSignature`]. Near-identical frames (sensor noise, small
//!   motion) share a fit; the cached [`FrameTransform`] is re-applied to the
//!   actual frame, so distortion and power are still measured per frame —
//!   only the fitted curve is approximate.
//!
//! Both modes quantize the distortion budget into *bands*
//! ([`CacheConfig::budget_band_width`]): requests whose budgets fall into
//! the same band share entries, and a hit is only served when the cached
//! fit's *measured* distortion satisfies the requesting budget. A fit made
//! for a strict budget therefore serves looser budgets in its band for
//! free; a looser fit that fails the recheck is rejected, evicted, and
//! replaced by the refit.
//!
//! The store itself is a generic sharded LRU ([`ShardedLru`]): each shard is
//! an independent mutex around a hash map plus a recency index, bounded both
//! in entries and in resident bytes. A per-key single-flight table
//! ([`FlightTable`]) collapses N concurrent misses on the same key into one
//! fit plus N−1 waiters.
//!
//! Both modes are one [`KeyedCache`] (store, flights, band width) over a
//! [`KeyedMode`]: [`ExactMode`] and [`ApproximateMode`] hold everything the
//! modes differ in — the key's content identity, the hit check, the stored
//! entry with its weight, and the snapshot spill record — while the serve
//! flow, spill and restore are written once over the trait.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hebs_analysis::{interleave, lock_healthy, LockClass, OrderedCondvar, OrderedMutex};

use hebs_core::{
    FitScratch, FrameTransform, HebsError, HebsPolicy, PipelineConfig, PowerBreakdown,
    ScalingOutcome, TargetRange,
};
use hebs_imaging::{
    frame_hash128, GrayImage, Histogram, HistogramSignature, DEFAULT_SIGNATURE_RESOLUTION,
};
use hebs_transform::{ControlPoint, LookupTable, PiecewiseLinear};

use crate::snapshot::{
    ApproxSpill, CacheRecord, ExactSpill, OutcomeRecord, SpillRecord, SpilledEntries,
};

/// Default cap on resident cache bytes (64 MiB across all shards).
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// Default width of a distortion-budget band: budgets within the same
/// 1%-wide band share cache entries (guarded by a distortion recheck).
pub const DEFAULT_BUDGET_BAND_WIDTH: f64 = 0.01;

/// How cache keys are derived from frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Key on a 128-bit hash of the exact frame content, verified against
    /// the stored frame on every hit: hits replay the full outcome
    /// bit-identically. Wins on repeated frames (static scenes, UI, logo
    /// cards) and is always safe.
    Exact,
    /// Key on the quantized histogram signature: near-identical frames
    /// reuse the fitted transform, which is re-applied to each actual frame.
    /// Wins on noisy/slowly-moving video at a bounded approximation error.
    Approximate,
}

/// Configuration of the engine's transformation cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total number of cached fits across all shards.
    pub capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// Key derivation mode.
    pub mode: CacheMode,
    /// Quantization resolution of the histogram signature (only used by
    /// [`CacheMode::Approximate`]); see
    /// [`HistogramSignature::with_resolution`].
    pub signature_resolution: u8,
    /// Cap on resident bytes across all shards (each entry charges its
    /// stored pixels, displayed image and LUT); `None` means unbounded.
    /// Defaults to [`DEFAULT_BYTE_BUDGET`].
    pub byte_budget: Option<usize>,
    /// Width of a distortion-budget band. Requests whose budgets quantize
    /// to the same band share cache entries; a hit is only served when the
    /// cached fit's measured distortion satisfies the requesting budget.
    pub budget_band_width: f64,
    /// Optional time-to-live: entries older than this are treated as misses
    /// and dropped on lookup. `None` (the default) disables expiry.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 512,
            shards: 8,
            mode: CacheMode::Exact,
            signature_resolution: DEFAULT_SIGNATURE_RESOLUTION,
            byte_budget: Some(DEFAULT_BYTE_BUDGET),
            budget_band_width: DEFAULT_BUDGET_BAND_WIDTH,
            ttl: None,
        }
    }
}

impl CacheConfig {
    /// An exact-keyed cache with the default capacity.
    pub fn exact() -> Self {
        CacheConfig::default()
    }

    /// A signature-keyed cache with the default capacity and resolution.
    pub fn approximate() -> Self {
        CacheConfig {
            mode: CacheMode::Approximate,
            ..CacheConfig::default()
        }
    }

    /// Returns the configuration with a different total capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns the configuration with a different byte budget
    /// (`None` = unbounded).
    pub fn with_byte_budget(mut self, byte_budget: Option<usize>) -> Self {
        self.byte_budget = byte_budget;
        self
    }

    /// Returns the configuration with a different budget-band width.
    pub fn with_budget_band_width(mut self, width: f64) -> Self {
        self.budget_band_width = width;
        self
    }
}

/// Quantizes a distortion budget into its band index.
pub(crate) fn budget_band(max_distortion: f64, band_width: f64) -> u32 {
    (max_distortion / band_width).floor() as u32
}

// The 128-bit exact-key content hash lives in `hebs_imaging::frame_hash128`
// since the fused-ingest refactor: the serve path computes it inside
// `FrameIngest`'s single pass and hands the finished value to the key
// through `Request::content_hash`, so the cache layer never walks a pixel
// buffer.

/// One stored entry: the value plus its recency tick, insertion generation
/// (see [`ShardedLru::reject`]), byte weight, owning tenant and insertion
/// time (for the optional TTL).
#[derive(Debug)]
struct Entry<V> {
    value: V,
    tick: u64,
    generation: u64,
    bytes: usize,
    tenant: u16,
    inserted: Instant,
}

/// One LRU shard: the stored entries plus a recency index, bounded both in
/// entries and in bytes (globally and per tenant).
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    generations: u64,
    capacity: usize,
    byte_capacity: usize,
    bytes: usize,
    /// Resident bytes charged per tenant (tenants with nothing resident
    /// are absent).
    tenant_bytes: HashMap<u16, usize>,
    /// This shard's slice of each tenant's byte partition; tenants without
    /// an entry are unbounded (subject only to the global caps).
    tenant_limits: HashMap<u16, usize>,
    ttl: Option<Duration>,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize, byte_capacity: usize, ttl: Option<Duration>) -> Self {
        Shard {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            generations: 0,
            capacity,
            byte_capacity,
            bytes: 0,
            tenant_bytes: HashMap::new(),
            tenant_limits: HashMap::new(),
            ttl,
        }
    }

    /// Resident bytes currently charged to `tenant` in this shard.
    fn tenant_charge(&self, tenant: u16) -> usize {
        self.tenant_bytes.get(&tenant).copied().unwrap_or(0)
    }

    /// Looks a key up and refreshes its recency, returning the value with
    /// its insertion generation. The recency tick only advances when the
    /// key is present, so miss traffic cannot inflate it.
    fn touch(&mut self, key: &K) -> Option<(V, u64)> {
        let expired = match (self.ttl, self.map.get(key)) {
            (_, None) => return None,
            (Some(ttl), Some(entry)) => entry.inserted.elapsed() >= ttl,
            (None, Some(_)) => false,
        };
        if expired {
            self.remove(key);
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key).expect("entry checked present"); // lint: allow(no-unwrap) presence established by the expiry probe above
        let value = entry.value.clone(); // lint: allow(hot-path-alloc) -- hit path hands the Arc-backed entry out by refcount bump; no buffer is copied
        let generation = entry.generation;
        self.recency.remove(&entry.tick);
        entry.tick = tick;
        self.recency.insert(tick, key.clone()); // lint: allow(hot-path-alloc) -- relinking recency needs an owned key; keys are small fixed-size hash structs
        Some((value, generation))
    }

    /// Inserts an entry weighing `bytes` charged to `tenant`, evicting
    /// least-recently-used entries until the entry cap, the byte cap and
    /// the tenant's partition (when one is set) all hold. Eviction under a
    /// tenant's partition removes only *that tenant's* LRU entries, so one
    /// tenant's pressure never pushes another tenant's fits out. Returns
    /// whether the entry was admitted: an entry that exceeds the shard's
    /// whole byte budget (or the tenant's whole slice of it) is refused
    /// rather than thrashing the shard.
    fn insert(&mut self, key: K, value: V, bytes: usize, tenant: u16) -> bool {
        // A stale entry under the same key never survives the insert, even
        // when its replacement is refused as oversized.
        self.remove(&key);
        if bytes > self.byte_capacity {
            return false;
        }
        let tenant_limit = self.tenant_limits.get(&tenant).copied();
        if tenant_limit.is_some_and(|limit| bytes > limit) {
            return false;
        }
        // Under pressure, reclaim TTL-expired residents before evicting
        // live LRU victims: a cold expired entry is otherwise only dropped
        // when its own key happens to be probed again, and until then it
        // keeps charging the byte budget and pushing live fits out.
        if self.ttl.is_some()
            && (self.map.len() >= self.capacity
                || self.bytes.saturating_add(bytes) > self.byte_capacity)
        {
            self.reclaim_expired();
        }
        // Tenant partition: walk the recency index oldest-first, skipping
        // other tenants' entries, until this tenant's charge fits.
        if let Some(limit) = tenant_limit {
            while self.tenant_charge(tenant).saturating_add(bytes) > limit {
                let victim = self
                    .recency
                    .values()
                    .find(|key| self.map.get(*key).is_some_and(|e| e.tenant == tenant))
                    .cloned();
                let Some(victim) = victim else { break };
                self.remove(&victim);
            }
        }
        while !self.map.is_empty()
            && (self.map.len() >= self.capacity
                || self.bytes.saturating_add(bytes) > self.byte_capacity)
        {
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            if let Some(evicted) = self.map.remove(&victim) {
                self.bytes -= evicted.bytes;
                self.discharge_tenant(evicted.tenant, evicted.bytes);
            }
        }
        self.tick += 1;
        self.generations += 1;
        let tick = self.tick;
        self.recency.insert(tick, key.clone()); // lint: allow(hot-path-alloc) -- miss-path insert owns its recency key; keys are small fixed-size hash structs
        self.map.insert(
            key,
            Entry {
                value,
                tick,
                generation: self.generations,
                bytes,
                tenant,
                inserted: Instant::now(),
            },
        );
        self.bytes += bytes;
        *self.tenant_bytes.entry(tenant).or_insert(0) += bytes;
        true
    }

    /// Releases `bytes` from `tenant`'s resident charge.
    fn discharge_tenant(&mut self, tenant: u16, bytes: usize) {
        if let Some(charge) = self.tenant_bytes.get_mut(&tenant) {
            *charge = charge.saturating_sub(bytes);
            if *charge == 0 {
                self.tenant_bytes.remove(&tenant);
            }
        }
    }

    /// Removes every resident entry whose TTL has lapsed (a full-shard
    /// sweep, only run from `insert` when eviction is otherwise needed).
    // lint: cold-path
    fn reclaim_expired(&mut self) {
        let Some(ttl) = self.ttl else { return };
        let expired: Vec<K> = self
            .map
            .iter()
            .filter(|(_, entry)| entry.inserted.elapsed() >= ttl)
            .map(|(key, _)| key.clone())
            .collect();
        for key in &expired {
            self.remove(key);
        }
    }

    /// Removes an entry, returning whether it was present.
    fn remove(&mut self, key: &K) -> bool {
        if let Some(entry) = self.map.remove(key) {
            self.recency.remove(&entry.tick);
            self.bytes -= entry.bytes;
            self.discharge_tenant(entry.tenant, entry.bytes);
            true
        } else {
            false
        }
    }

    /// Removes an entry only if it is still the generation the caller
    /// looked at, so a slow verifier never evicts a concurrently inserted
    /// fresh replacement.
    fn remove_generation(&mut self, key: &K, generation: u64) -> bool {
        if self
            .map
            .get(key)
            .is_some_and(|e| e.generation == generation)
        {
            self.remove(key)
        } else {
            false
        }
    }
}

/// A thread-safe LRU map split into independently locked shards, bounded
/// both in entries and in resident bytes.
///
/// Values are returned by clone, so `V` is typically an [`Arc`] or another
/// cheaply clonable handle. The hit/miss/rejection/coalesced counters are
/// global, lock-free, and carry *served* semantics: [`ShardedLru::get`]
/// counts a provisional hit or miss, which the caller corrects with
/// [`ShardedLru::reject`] (a hit whose value failed verification) or
/// [`ShardedLru::get_after_wait`] (a miss served by another thread's
/// concurrent insert), so the counters always describe what was actually
/// served rather than what the raw probes saw.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<OrderedMutex<Shard<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    rejections: AtomicU64,
    coalesced: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache holding at most `capacity` entries split over
    /// `shards` independent locks, with no byte bound and no TTL.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is 0.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::bounded(capacity, shards, usize::MAX, None)
    }

    /// Creates a cache bounded in entries *and* bytes, with an optional
    /// entry TTL. Both budgets are partitioned exactly across shards:
    /// shards whose slice does not divide evenly get one unit more or less,
    /// but the totals never exceed the budgets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity`, `shards` or `byte_budget` is 0.
    pub fn bounded(
        capacity: usize,
        shards: usize,
        byte_budget: usize,
        ttl: Option<Duration>,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(shards > 0, "cache shard count must be nonzero");
        assert!(byte_budget > 0, "cache byte budget must be nonzero");
        let shards = shards.min(capacity);
        let base = capacity / shards;
        let remainder = capacity % shards;
        let byte_base = byte_budget / shards;
        let byte_remainder = byte_budget % shards;
        ShardedLru {
            shards: (0..shards)
                .map(|i| {
                    OrderedMutex::new(
                        LockClass::CacheShard,
                        Shard::new(
                            base + usize::from(i < remainder),
                            byte_base + usize::from(i < byte_remainder),
                            ttl,
                        ),
                    )
                })
                .collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &OrderedMutex<Shard<K, V>> {
        let index = self.hasher.hash_one(key) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Counts one poisoned-lock recovery (see `EngineStats::poison_recoveries`).
    fn note_poison(&self) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Poisoned-lock recoveries performed by this store's accessors.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// Looks `key` up, refreshing its recency and counting a provisional
    /// hit or miss (see the type docs for how callers correct these).
    /// Returns the value with an opaque generation token identifying the
    /// exact insertion the caller saw, for use with [`ShardedLru::reject`].
    pub fn get(&self, key: &K) -> Option<(V, u64)> {
        let value = lock_healthy(self.shard_for(key).lock(), || self.note_poison()).touch(key);
        match &value {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed), // ordering: monotonic tally, nothing published
            None => self.misses.fetch_add(1, Ordering::Relaxed), // ordering: monotonic tally, nothing published
        };
        value
    }

    /// Re-probes `key` after waiting on another thread's in-flight insert
    /// for the same key. On success the caller's earlier counted miss is
    /// reclassified as a coalesced hit; on failure nothing is counted (the
    /// earlier miss stands).
    ///
    /// Must only be called after a counted miss ([`ShardedLru::get`]
    /// returned `None`, or a hit was [rejected](ShardedLru::reject)) for
    /// the same logical lookup, otherwise the counters drift.
    pub fn get_after_wait(&self, key: &K) -> Option<(V, u64)> {
        interleave::point("cache.get_after_wait");
        let value = lock_healthy(self.shard_for(key).lock(), || self.note_poison()).touch(key);
        if value.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
            self.misses.fetch_sub(1, Ordering::Relaxed); // ordering: reclassification tally, nothing published
            self.coalesced.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        }
        value
    }

    /// Rejects a counted hit whose value failed the caller's verification
    /// (stored-frame mismatch or distortion over budget): the entry is
    /// removed so other workers stop paying for the known-bad value, and
    /// the hit is reclassified as a miss plus a rejection.
    ///
    /// `generation` is the token returned by the [`ShardedLru::get`] that
    /// produced the rejected value; the entry is only removed while it is
    /// still that insertion, so a slow verifier never evicts a fresh
    /// replacement another worker installed in the meantime.
    pub fn reject(&self, key: &K, generation: u64) {
        lock_healthy(self.shard_for(key).lock(), || self.note_poison())
            .remove_generation(key, generation);
        self.hits.fetch_sub(1, Ordering::Relaxed); // ordering: reclassification tally, nothing published
        self.misses.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
        self.rejections.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }

    /// Rejects a hit obtained from [`ShardedLru::get_after_wait`]: like
    /// [`ShardedLru::reject`], but also reverses the coalesced
    /// reclassification the successful re-probe made, so the lookup ends
    /// as a plain miss plus a rejection.
    pub fn reject_after_wait(&self, key: &K, generation: u64) {
        self.reject(key, generation);
        self.coalesced.fetch_sub(1, Ordering::Relaxed); // ordering: reclassification tally, nothing published
    }

    /// Inserts (or refreshes) an entry weighing `bytes`, evicting least
    /// recently used entries of the target shard until both the entry cap
    /// and the byte cap hold. Returns whether the entry was admitted (an
    /// entry larger than its shard's whole byte budget is refused).
    ///
    /// The entry is charged to tenant 0, which is unbounded unless a limit
    /// was set with [`ShardedLru::set_tenant_limit`] — single-tenant use
    /// behaves exactly as before tenant accounting existed.
    pub fn insert(&self, key: K, value: V, bytes: usize) -> bool {
        self.insert_for(0, key, value, bytes)
    }

    /// Inserts (or refreshes) an entry weighing `bytes` *charged to
    /// `tenant`*: like [`ShardedLru::insert`], but the entry additionally
    /// counts against the tenant's byte partition (see
    /// [`ShardedLru::set_tenant_limit`]). When the tenant is over its
    /// partition, only that tenant's least-recently-used entries are
    /// evicted to make room — other tenants' entries are untouched.
    pub fn insert_for(&self, tenant: u16, key: K, value: V, bytes: usize) -> bool {
        interleave::point("cache.insert_evict");
        lock_healthy(self.shard_for(&key).lock(), || self.note_poison())
            .insert(key, value, bytes, tenant)
    }

    /// Sets (or replaces) `tenant`'s byte partition, split exactly across
    /// shards like the global byte budget (shards whose slice does not
    /// divide evenly get one byte more or less). The cap applies from the
    /// next [`ShardedLru::insert_for`]; already-resident entries are not
    /// evicted retroactively. Tenants without a partition are unbounded.
    ///
    /// A partition much smaller than the shard count leaves some shards
    /// with a zero slice, whose inserts for this tenant are then refused —
    /// give every tenant at least a few KiB per shard.
    pub fn set_tenant_limit(&self, tenant: u16, byte_limit: usize) {
        let shards = self.shards.len();
        let base = byte_limit / shards;
        let remainder = byte_limit % shards;
        for (i, shard) in self.shards.iter().enumerate() {
            lock_healthy(shard.lock(), || self.note_poison())
                .tenant_limits
                .insert(tenant, base + usize::from(i < remainder));
        }
    }

    /// Resident bytes currently charged to `tenant` across all shards.
    pub fn tenant_bytes(&self, tenant: u16) -> usize {
        self.shards
            .iter()
            .map(|s| lock_healthy(s.lock(), || self.note_poison()).tenant_charge(tenant))
            .sum()
    }

    /// Number of entries currently cached (sums all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_healthy(s.lock(), || self.note_poison()).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes currently charged across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_healthy(s.lock(), || self.note_poison()).bytes)
            .sum()
    }

    /// Number of lookups that were served from the cache (including
    /// coalesced hits, excluding rejected ones).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// Number of lookups that were not served from the cache (including
    /// rejected hits, excluding coalesced misses).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// Number of hits that were rejected by the caller's verification.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// Number of misses that were served by another thread's concurrent
    /// insert instead of a redundant computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed) // ordering: advisory snapshot
    }

    /// The `k` most recently used entries, newest first — what a snapshot
    /// spills so a restored engine starts with its hottest fits resident.
    /// Recency ticks are per shard, so the cross-shard merge is
    /// approximate, but each shard's own contribution is exactly its
    /// newest entries and the result never exceeds `k`.
    pub(crate) fn recent_entries(&self, k: usize) -> Vec<(K, V)> {
        if k == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(u64, K, V)> = Vec::new();
        for shard in &self.shards {
            let shard = lock_healthy(shard.lock(), || self.note_poison());
            for (&tick, key) in shard.recency.iter().rev().take(k) {
                if let Some(entry) = shard.map.get(key) {
                    ranked.push((tick, key.clone(), entry.value.clone()));
                }
            }
        }
        ranked.sort_by_key(|entry| std::cmp::Reverse(entry.0));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(_, key, value)| (key, value))
            .collect()
    }
}

/// One independently locked slice of a [`FlightTable`]: the keys currently
/// in flight plus the condvar their waiters park on.
#[derive(Debug)]
struct FlightShard<K> {
    inflight: OrderedMutex<HashSet<K>>,
    done: OrderedCondvar,
    poison_recoveries: AtomicU64,
}

impl<K> FlightShard<K> {
    /// Counts one poisoned-lock recovery (see `EngineStats::poison_recoveries`).
    fn note_poison(&self) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed); // ordering: monotonic tally, nothing published
    }
}

/// A per-key single-flight table: the first thread to [`FlightTable::join`]
/// a key becomes the *leader* (and computes the value); threads joining
/// while the leader is in flight block on the shard's condvar and are told
/// they waited, so they can re-probe the cache instead of recomputing.
///
/// The table is sharded like the store it guards: misses on unrelated keys
/// hash to different shards and never contend on a common lock, so the
/// miss path has no global serialization point left.
#[derive(Debug)]
pub(crate) struct FlightTable<K> {
    shards: Vec<FlightShard<K>>,
    hasher: RandomState,
}

/// The outcome of joining a flight.
pub(crate) enum Flight<'a, K: Hash + Eq + Clone> {
    /// This thread owns the fit; the guard clears the in-flight marker and
    /// wakes waiters when dropped (including on panic or error).
    Leader(#[allow(dead_code)] FlightGuard<'a, K>),
    /// Another thread ran the fit while we waited; re-probe the cache.
    Waited,
}

/// RAII marker for flight leadership; see [`Flight::Leader`].
pub(crate) struct FlightGuard<'a, K: Hash + Eq + Clone> {
    shard: &'a FlightShard<K>,
    key: K,
}

impl<K: Hash + Eq + Clone> FlightTable<K> {
    /// Creates a table with `shards` independent locks (clamped to ≥ 1).
    pub(crate) fn new(shards: usize) -> Self {
        FlightTable {
            shards: (0..shards.max(1))
                .map(|_| FlightShard {
                    inflight: OrderedMutex::new(LockClass::FlightTable, HashSet::new()),
                    done: OrderedCondvar::new(),
                    poison_recoveries: AtomicU64::new(0),
                })
                .collect(),
            hasher: RandomState::new(),
        }
    }

    /// Joins the flight for `key`: returns leadership if no fit is in
    /// flight, otherwise blocks until the current leader finishes.
    pub(crate) fn join(&self, key: &K) -> Flight<'_, K> {
        let shard = &self.shards[self.hasher.hash_one(key) as usize % self.shards.len()];
        interleave::point("flight.join");
        let mut inflight = lock_healthy(shard.inflight.lock(), || shard.note_poison());
        // lint: allow(hot-path-alloc) -- the flight set owns the key marking the in-flight fit; keys are small fixed-size hash structs
        if inflight.insert(key.clone()) {
            return Flight::Leader(FlightGuard {
                shard,
                key: key.clone(), // lint: allow(hot-path-alloc) -- the leader guard owns the key so release can clear the flight; keys are small fixed-size hash structs
            });
        }
        while inflight.contains(key) {
            inflight = lock_healthy(shard.done.wait(inflight), || shard.note_poison());
            interleave::point("flight.woke");
        }
        Flight::Waited
    }

    /// Poisoned-lock recoveries performed by this table's accessors.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.poison_recoveries.load(Ordering::Relaxed)) // ordering: advisory snapshot
            .sum()
    }
}

impl<K: Hash + Eq + Clone> Drop for FlightGuard<'_, K> {
    fn drop(&mut self) {
        interleave::point("flight.release");
        let mut inflight = lock_healthy(self.shard.inflight.lock(), || self.shard.note_poison());
        inflight.remove(&self.key);
        self.shard.done.notify_all();
    }
}

/// A cache key: frame shape, the mode's content identity (a 128-bit
/// content hash or a quantized histogram signature), budget band, the
/// owning tenant, the content class the frame routed to and the class's
/// characteristic generation the fit was made under.
///
/// The exact hash is [`hebs_imaging::frame_hash128`], computed by the serve
/// path's fused `FrameIngest` pass and passed in precomputed — building a
/// key walks no pixels; the stored entry keeps the frame bytes so every
/// hit is verified against the actual content (a collision is rejected,
/// never served). The `(class, generation)` pair (both 0 in closed-loop
/// mode) makes every open-loop re-characterization an implicit
/// invalidation *scoped to its class*: a rebuilt class's fits are never
/// probed again and age out of the LRU, while every other class's fits
/// keep serving. The tenant id (0 outside multi-tenant serving) keeps
/// tenants' fits disjoint even when their generation counters collide, so
/// no cross-tenant replay is possible on a shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey<C> {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) content: C,
    pub(crate) budget_band: u32,
    pub(crate) tenant: u16,
    pub(crate) class: u16,
    pub(crate) generation: u64,
}

/// What one serve asks of a keyed cache: the frame with its fused-ingest
/// products, the requesting budget, and the key's tenant, class and
/// generation.
pub(crate) struct Request<'a> {
    pub(crate) frame: &'a GrayImage,
    pub(crate) histogram: &'a Histogram,
    pub(crate) content_hash: u128,
    pub(crate) budget: f64,
    pub(crate) tenant: u16,
    pub(crate) class: u16,
    pub(crate) generation: u64,
}

/// What distinguishes the exact and approximate caches: the key's content,
/// the hit check, the stored value with its weight, and the spill record.
/// The serve flow (`EngineInner::serve_keyed`) and [`KeyedCache`]'s spill
/// and restore are written once over this trait and monomorphized per
/// mode, so neither path dispatches dynamically.
pub(crate) trait KeyedMode {
    /// The content identity a key carries.
    type Content: Copy + Eq + Hash + std::fmt::Debug;
    /// The stored value, cloned out of the store on a probe.
    type Value: Clone + std::fmt::Debug;
    /// The mode-specific part of a spilled entry.
    type Spill;

    /// The content identity of the requested frame.
    fn content(&self, request: &Request<'_>) -> Self::Content;

    /// The hit check: `Ok(Some)` serves the returned outcome, `Ok(None)`
    /// rejects the probed value, `Err` rejects it and fails the serve.
    fn check(
        &self,
        value: Self::Value,
        request: &Request<'_>,
        policy: &HebsPolicy,
        scratch: &mut FitScratch,
    ) -> Result<Option<Arc<ScalingOutcome>>, HebsError>;

    /// The value a fresh fit of `frame` stores.
    fn entry(
        frame: &GrayImage,
        outcome: &Arc<ScalingOutcome>,
        transform: &Arc<FrameTransform>,
    ) -> Self::Value;

    /// Bytes `value` charges against the cache budget.
    fn weight(value: &Self::Value) -> usize;

    /// The spill record of one stored entry.
    fn spill(content: &Self::Content, value: &Self::Value) -> Self::Spill;

    /// Rebuilds a spilled entry's content and value for a `width`×`height`
    /// frame; `None` skips an entry its validated constructors refuse.
    fn restore(
        &self,
        width: u32,
        height: u32,
        spill: Self::Spill,
        config: &PipelineConfig,
    ) -> Option<(Self::Content, Self::Value)>;

    /// Wraps this cache's spilled entries for the snapshot.
    fn spilled(&self, entries: Vec<SpillRecord<Self::Spill>>) -> SpilledEntries;

    /// This mode's entries from a snapshot, or `None` when another mode or
    /// key shape wrote them.
    fn adopt(&self, entries: SpilledEntries) -> Option<Vec<SpillRecord<Self::Spill>>>;
}

/// Exact mode: keys on the frame's content hash; a hit is the stored
/// frame verified byte for byte, replaying the shared outcome.
#[derive(Debug)]
pub(crate) struct ExactMode {
    /// Per-cache hash seed, drawn at random so exact-key collisions cannot
    /// be precomputed by adversarial frame content.
    pub(crate) seed: u64,
}

impl KeyedMode for ExactMode {
    type Content = u128;
    type Value = ExactEntry;
    type Spill = ExactSpill;

    fn content(&self, request: &Request<'_>) -> u128 {
        request.content_hash
    }

    /// One memcmp and a distortion compare: no allocation, no pixel
    /// traversal, and the returned outcome is the cached `Arc`.
    fn check(
        &self,
        value: ExactEntry,
        request: &Request<'_>,
        _policy: &HebsPolicy,
        _scratch: &mut FitScratch,
    ) -> Result<Option<Arc<ScalingOutcome>>, HebsError> {
        Ok(
            (value.matches(request.frame) && value.outcome.distortion <= request.budget)
                .then_some(value.outcome),
        )
    }

    fn entry(
        frame: &GrayImage,
        outcome: &Arc<ScalingOutcome>,
        _transform: &Arc<FrameTransform>,
    ) -> ExactEntry {
        ExactEntry::new(frame, Arc::clone(outcome))
    }

    fn weight(value: &ExactEntry) -> usize {
        value.weight()
    }

    fn spill(_content: &u128, value: &ExactEntry) -> ExactSpill {
        ExactSpill {
            pixels: value.pixels.to_vec(),
            outcome: outcome_record(&value.outcome),
        }
    }

    fn restore(
        &self,
        width: u32,
        height: u32,
        spill: ExactSpill,
        _config: &PipelineConfig,
    ) -> Option<(u128, ExactEntry)> {
        let frame = GrayImage::from_raw(width, height, spill.pixels).ok()?;
        let outcome = rebuild_outcome(spill.outcome)?;
        // Stored content hashes are not portable (the hash seed is random
        // per cache instance); recompute under ours.
        Some((
            frame_hash128(&frame, self.seed),
            ExactEntry::new(&frame, Arc::new(outcome)),
        ))
    }

    fn spilled(&self, entries: Vec<SpillRecord<ExactSpill>>) -> SpilledEntries {
        SpilledEntries::Exact(entries)
    }

    fn adopt(&self, entries: SpilledEntries) -> Option<Vec<SpillRecord<ExactSpill>>> {
        match entries {
            SpilledEntries::Exact(entries) => Some(entries),
            SpilledEntries::Approximate { .. } => None,
        }
    }
}

/// Approximate mode: keys on the quantized histogram signature; a hit
/// replays the cached transform on the actual frame and serves it only
/// within the requesting budget.
#[derive(Debug)]
pub(crate) struct ApproximateMode {
    /// Signature quantization resolution.
    pub(crate) resolution: u8,
}

impl KeyedMode for ApproximateMode {
    type Content = HistogramSignature;
    type Value = Arc<FrameTransform>;
    type Spill = ApproxSpill;

    fn content(&self, request: &Request<'_>) -> HistogramSignature {
        HistogramSignature::with_resolution(request.histogram, self.resolution)
    }

    /// Re-applies the transform, revalidating in the histogram domain when
    /// the measure allows (a rejected candidate then never touches a
    /// pixel); an apply failure surfaces as `Err`.
    fn check(
        &self,
        value: Arc<FrameTransform>,
        request: &Request<'_>,
        policy: &HebsPolicy,
        scratch: &mut FitScratch,
    ) -> Result<Option<Arc<ScalingOutcome>>, HebsError> {
        policy
            .replay_frame_transform_with_scratch(
                request.frame,
                request.histogram,
                &value,
                request.budget,
                scratch,
            )
            .map(|outcome| outcome.map(Arc::new))
    }

    fn entry(
        _frame: &GrayImage,
        _outcome: &Arc<ScalingOutcome>,
        transform: &Arc<FrameTransform>,
    ) -> Arc<FrameTransform> {
        Arc::clone(transform)
    }

    /// Its control points, the LUT and the struct itself (whose fused
    /// display response is stored inline).
    fn weight(value: &Arc<FrameTransform>) -> usize {
        std::mem::size_of_val(value.curve.points()) + 256 + std::mem::size_of::<FrameTransform>()
    }

    fn spill(content: &HistogramSignature, value: &Arc<FrameTransform>) -> ApproxSpill {
        ApproxSpill {
            signature: *content.bins(),
            target_min: value.target.g_min(),
            target_max: value.target.g_max(),
            beta: value.beta,
            blend_weight: value.blend_weight,
            points: value.curve.points().iter().map(|p| (p.x, p.y)).collect(),
            lut: *value.lut.entries(),
        }
    }

    /// The signature is carried verbatim rather than recomputed: the
    /// spilled transform, not a frame, is what is restored.
    fn restore(
        &self,
        _width: u32,
        _height: u32,
        spill: ApproxSpill,
        config: &PipelineConfig,
    ) -> Option<(HistogramSignature, Arc<FrameTransform>)> {
        let transform = rebuild_transform(config, &spill)?;
        Some((
            HistogramSignature::from_bins(spill.signature),
            Arc::new(transform),
        ))
    }

    fn spilled(&self, entries: Vec<SpillRecord<ApproxSpill>>) -> SpilledEntries {
        SpilledEntries::Approximate {
            resolution: self.resolution,
            entries,
        }
    }

    fn adopt(&self, entries: SpilledEntries) -> Option<Vec<SpillRecord<ApproxSpill>>> {
        match entries {
            SpilledEntries::Approximate {
                resolution,
                entries,
            } if resolution == self.resolution => Some(entries),
            _ => None,
        }
    }
}

/// Exact-mode value: the stored frame bytes (for hit verification) plus the
/// shared outcome to replay. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub(crate) struct ExactEntry {
    pixels: Arc<[u8]>,
    outcome: Arc<ScalingOutcome>,
}

impl ExactEntry {
    fn new(frame: &GrayImage, outcome: Arc<ScalingOutcome>) -> Self {
        ExactEntry {
            pixels: frame.as_raw().into(),
            outcome,
        }
    }

    /// Whether the stored frame is byte-identical to `frame` (hash-collision
    /// guard on the hit path; one memcmp, no allocation).
    fn matches(&self, frame: &GrayImage) -> bool {
        self.pixels[..] == *frame.as_raw()
    }

    /// Bytes this entry charges against the cache budget: stored pixels,
    /// the outcome's displayed image, LUT and policy name, and fixed struct
    /// overhead.
    fn weight(&self) -> usize {
        let outcome = &self.outcome;
        self.pixels.len()
            + outcome.displayed.pixel_count()
            + 256
            + outcome.policy.len()
            + std::mem::size_of::<ScalingOutcome>()
            + std::mem::size_of::<Self>()
    }
}

/// Flattens a cached outcome into its serializable snapshot record.
fn outcome_record(outcome: &ScalingOutcome) -> OutcomeRecord {
    OutcomeRecord {
        policy: outcome.policy.clone(),
        beta: outcome.beta,
        dynamic_range: outcome.dynamic_range,
        distortion: outcome.distortion,
        power: [
            outcome.power.ccfl,
            outcome.power.panel,
            outcome.power.controller,
            outcome.power.beta,
        ],
        power_saving: outcome.power_saving,
        lut: *outcome.lut.entries(),
        displayed_width: outcome.displayed.width(),
        displayed_height: outcome.displayed.height(),
        displayed: outcome.displayed.as_raw().to_vec(),
        fit_evaluations: outcome.fit_evaluations,
    }
}

/// Rebuilds a [`ScalingOutcome`] from its spilled record; `None` when the
/// record's displayed frame is inconsistent (the entry is then skipped).
fn rebuild_outcome(record: OutcomeRecord) -> Option<ScalingOutcome> {
    let displayed = GrayImage::from_raw(
        record.displayed_width,
        record.displayed_height,
        record.displayed,
    )
    .ok()?;
    Some(ScalingOutcome {
        policy: record.policy,
        beta: record.beta,
        dynamic_range: record.dynamic_range,
        distortion: record.distortion,
        power: PowerBreakdown {
            ccfl: record.power[0],
            panel: record.power[1],
            controller: record.power[2],
            beta: record.power[3],
        },
        power_saving: record.power_saving,
        lut: LookupTable::from_entries(record.lut),
        displayed,
        fit_evaluations: record.fit_evaluations,
    })
}

/// Rebuilds a [`FrameTransform`] from its spilled parts, recomposing the
/// fused display response through the pipeline's subsystem model; `None`
/// when any part is rejected by its validated constructor.
fn rebuild_transform(config: &PipelineConfig, spill: &ApproxSpill) -> Option<FrameTransform> {
    let target = TargetRange::new(spill.target_min, spill.target_max).ok()?;
    let points = spill
        .points
        .iter()
        .map(|&(x, y)| ControlPoint::new(x, y))
        .collect();
    let curve = PiecewiseLinear::new(points).ok()?;
    let lut = LookupTable::from_entries(spill.lut);
    FrameTransform::from_parts(config, target, spill.beta, spill.blend_weight, curve, lut).ok()
}

/// A keyed transformation cache: the store, its single-flight table, the
/// budget-band width and the mode that keys and checks its entries.
#[derive(Debug)]
pub(crate) struct KeyedCache<M: KeyedMode> {
    pub(crate) store: ShardedLru<CacheKey<M::Content>, M::Value>,
    pub(crate) flights: FlightTable<CacheKey<M::Content>>,
    band_width: f64,
    pub(crate) mode: M,
}

impl<M: KeyedMode> KeyedCache<M> {
    fn new(config: &CacheConfig, mode: M) -> Self {
        KeyedCache {
            store: ShardedLru::bounded(
                config.capacity,
                config.shards,
                config.byte_budget.unwrap_or(usize::MAX),
                config.ttl,
            ),
            flights: FlightTable::new(config.shards),
            band_width: config.budget_band_width,
            mode,
        }
    }

    /// The key `request` probes.
    pub(crate) fn key(&self, request: &Request<'_>) -> CacheKey<M::Content> {
        CacheKey {
            width: request.frame.width(),
            height: request.frame.height(),
            content: self.mode.content(request),
            budget_band: budget_band(request.budget, self.band_width),
            tenant: request.tenant,
            class: request.class,
            generation: request.generation,
        }
    }

    /// The `top_k` most recently used entries that belong to `tenant` and
    /// whose `(class, generation)` is `live`, as a snapshot cache section.
    pub(crate) fn spill(
        &self,
        top_k: usize,
        tenant: u16,
        live: impl Fn(u16, u64) -> bool,
    ) -> CacheRecord {
        let entries = self
            .store
            .recent_entries(top_k)
            .into_iter()
            .filter(|(key, _)| key.tenant == tenant && live(key.class, key.generation))
            .map(|(key, value)| SpillRecord {
                width: key.width,
                height: key.height,
                budget_band: key.budget_band,
                class: key.class,
                body: M::spill(&key.content, &value),
            })
            .collect();
        CacheRecord {
            band_width: self.band_width,
            entries: self.mode.spilled(entries),
        }
    }

    /// Re-admits spilled entries through the normal insert path, charged
    /// to `tenant` and keyed under the generation `generation` reports for
    /// their class (an unknown class skips the entry). Returns
    /// `(restored, skipped)`; a snapshot of another mode, signature
    /// resolution or band width is skipped whole.
    pub(crate) fn restore(
        &self,
        record: CacheRecord,
        tenant: u16,
        generation: impl Fn(u16) -> Option<u64>,
        config: &PipelineConfig,
    ) -> (usize, usize) {
        let total = record.entries.len();
        let entries = match self.mode.adopt(record.entries) {
            Some(entries) if record.band_width.to_bits() == self.band_width.to_bits() => entries,
            _ => return (0, total),
        };
        let mut restored = 0;
        for entry in entries {
            let Some(generation) = generation(entry.class) else {
                continue;
            };
            let Some((content, value)) =
                self.mode
                    .restore(entry.width, entry.height, entry.body, config)
            else {
                continue;
            };
            let key = CacheKey {
                width: entry.width,
                height: entry.height,
                content,
                budget_band: entry.budget_band,
                tenant,
                class: entry.class,
                generation,
            };
            let weight = M::weight(&value);
            self.store.insert_for(tenant, key, value, weight);
            restored += 1;
        }
        (restored, total - restored)
    }
}

/// The served-lookup counters of a transformation cache's underlying
/// [`ShardedLru`], snapshotted for reconciliation against `EngineStats`.
///
/// On every serving path these agree with the engine's own accounting:
/// `hits`/`misses` match `EngineStats::cache_hits`/`cache_misses`, and
/// `rejections`/`coalesced` match `cache_rejected`/`cache_coalesced`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served from the cache (including coalesced hits).
    pub hits: u64,
    /// Lookups that ran a full fit (including rejected hits).
    pub misses: u64,
    /// Hits rejected by verification (content mismatch or distortion over
    /// the requesting budget).
    pub rejections: u64,
    /// Misses served by another worker's concurrent fit.
    pub coalesced: u64,
}

/// The engine's transformation cache in one of its two keying modes.
#[derive(Debug)]
pub(crate) enum TransformCache {
    Exact(KeyedCache<ExactMode>),
    Approximate(KeyedCache<ApproximateMode>),
}

/// Evaluates `$body` with `$keyed` bound to whichever [`KeyedCache`] a
/// [`TransformCache`] holds: one expression, monomorphized per mode.
macro_rules! with_keyed {
    ($cache:expr, $keyed:ident => $body:expr) => {
        match $cache {
            $crate::cache::TransformCache::Exact($keyed) => $body,
            $crate::cache::TransformCache::Approximate($keyed) => $body,
        }
    };
}
pub(crate) use with_keyed;

impl TransformCache {
    pub(crate) fn new(config: &CacheConfig) -> Self {
        match config.mode {
            CacheMode::Exact => TransformCache::Exact(KeyedCache::new(
                config,
                ExactMode {
                    seed: RandomState::new().hash_one(0x4845_4253u32),
                },
            )),
            CacheMode::Approximate => TransformCache::Approximate(KeyedCache::new(
                config,
                ApproximateMode {
                    resolution: config.signature_resolution,
                },
            )),
        }
    }

    pub(crate) fn len(&self) -> usize {
        with_keyed!(self, keyed => keyed.store.len())
    }

    /// Resident bytes currently charged across all shards.
    pub(crate) fn bytes(&self) -> usize {
        with_keyed!(self, keyed => keyed.store.bytes())
    }

    /// Sets (or replaces) one tenant's byte partition (see
    /// [`ShardedLru::set_tenant_limit`]).
    pub(crate) fn set_tenant_limit(&self, tenant: u16, byte_limit: usize) {
        with_keyed!(self, keyed => keyed.store.set_tenant_limit(tenant, byte_limit));
    }

    /// Resident bytes currently charged to `tenant` across all shards.
    pub(crate) fn tenant_bytes(&self, tenant: u16) -> usize {
        with_keyed!(self, keyed => keyed.store.tenant_bytes(tenant))
    }

    /// Served hit/miss/rejection/coalesced counters of the underlying
    /// store (for reconciliation against `EngineStats`).
    pub(crate) fn counters(&self) -> CacheCounters {
        with_keyed!(self, keyed => CacheCounters {
            hits: keyed.store.hits(),
            misses: keyed.store.misses(),
            rejections: keyed.store.rejections(),
            coalesced: keyed.store.coalesced(),
        })
    }

    /// Poisoned-lock recoveries performed inside the store and the
    /// single-flight table (summed into `EngineStats::poison_recoveries`).
    pub(crate) fn poison_recoveries(&self) -> u64 {
        with_keyed!(self, keyed => {
            keyed.store.poison_recoveries() + keyed.flights.poison_recoveries()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strips the generation token for assertions on the value alone.
    fn value<V>(entry: Option<(V, u64)>) -> Option<V> {
        entry.map(|(v, _)| v)
    }

    #[test]
    fn lru_get_and_insert_round_trip() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8, 2);
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        assert!(lru.insert(1, 10, 4));
        assert_eq!(value(lru.get(&1)), Some(10));
        assert_eq!(lru.hits(), 1);
        assert_eq!(lru.misses(), 1);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 4);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // One shard so the eviction order is fully observable.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(3, 1);
        lru.insert(1, 1, 1);
        lru.insert(2, 2, 1);
        lru.insert(3, 3, 1);
        // Refresh 1 so 2 becomes the victim.
        assert_eq!(value(lru.get(&1)), Some(1));
        lru.insert(4, 4, 1);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&2), None, "LRU entry should have been evicted");
        assert_eq!(value(lru.get(&1)), Some(1));
        assert_eq!(value(lru.get(&3)), Some(3));
        assert_eq!(value(lru.get(&4)), Some(4));
    }

    #[test]
    fn reinserting_updates_without_evicting() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        lru.insert(1, 1, 8);
        lru.insert(2, 2, 8);
        lru.insert(1, 100, 16);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.bytes(), 24, "replacement recharges the new weight");
        assert_eq!(value(lru.get(&1)), Some(100));
        assert_eq!(value(lru.get(&2)), Some(2));
    }

    #[test]
    fn byte_budget_evicts_before_the_entry_cap() {
        // Entry cap 8 but only 100 bytes: three 40-byte entries cannot
        // coexist.
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 100, None);
        lru.insert(1, 1, 40);
        lru.insert(2, 2, 40);
        assert_eq!(lru.len(), 2);
        lru.insert(3, 3, 40);
        assert_eq!(lru.len(), 2, "third 40B entry must evict the LRU");
        assert!(lru.bytes() <= 100);
        assert_eq!(lru.get(&1), None, "oldest entry evicted by byte pressure");
        assert_eq!(value(lru.get(&2)), Some(2));
        assert_eq!(value(lru.get(&3)), Some(3));
    }

    #[test]
    fn oversized_entries_are_refused_not_thrashed() {
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 100, None);
        lru.insert(1, 1, 30);
        assert!(
            !lru.insert(2, 2, 1000),
            "an entry above the whole shard budget is refused"
        );
        assert_eq!(lru.len(), 1, "the resident entry survives");
        assert_eq!(value(lru.get(&1)), Some(1));
        assert!(lru.bytes() <= 100);
    }

    #[test]
    fn ttl_expires_entries_on_lookup() {
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, usize::MAX, Some(Duration::ZERO));
        lru.insert(1, 1, 4);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), None, "zero TTL expires immediately");
        assert_eq!(lru.len(), 0, "expired entry is dropped");
        assert_eq!(lru.bytes(), 0);
        assert_eq!(lru.misses(), 1);
    }

    /// Regression: a TTL-expired entry that is *not* the LRU victim used to
    /// keep charging the byte budget (it was only reclaimed when its own
    /// key was probed), evicting live fits under byte pressure. Insert-time
    /// eviction must reclaim expired residents before touching live LRU
    /// victims.
    #[test]
    fn insert_reclaims_expired_residents_before_evicting_live_ones() {
        let ttl = Duration::from_millis(60);
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 100, Some(ttl));
        lru.insert(1, 1, 40); // will expire first
        std::thread::sleep(Duration::from_millis(40));
        lru.insert(2, 2, 40); // still live when 1 expires
                              // Refresh 1's recency so the *live* entry 2 is the LRU victim.
        assert!(lru.get(&1).is_some());
        std::thread::sleep(Duration::from_millis(30));
        // Entry 1 is now expired (70 ms old), entry 2 live (30 ms old) but
        // least recently used. Inserting 40 more bytes needs room: the
        // expired resident must be reclaimed, not the live victim.
        lru.insert(3, 3, 40);
        assert_eq!(value(lru.get(&2)), Some(2), "live entry survives");
        assert_eq!(value(lru.get(&3)), Some(3));
        assert_eq!(lru.get(&1), None, "expired entry was reclaimed");
        assert!(lru.bytes() <= 100);
    }

    #[test]
    fn misses_do_not_advance_the_recency_tick() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        lru.insert(1, 1, 1);
        let tick_before = lru.shards[0].lock().unwrap().tick;
        for key in 100..200u32 {
            assert_eq!(lru.get(&key), None);
        }
        let tick_after = lru.shards[0].lock().unwrap().tick;
        assert_eq!(
            tick_before, tick_after,
            "miss traffic must not burn recency ticks"
        );
        assert_eq!(value(lru.get(&1)), Some(1));
        assert_eq!(lru.shards[0].lock().unwrap().tick, tick_before + 1);
    }

    #[test]
    fn reject_reclassifies_a_hit_and_removes_the_entry() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        lru.insert(1, 1, 4);
        let (_, generation) = lru.get(&1).unwrap();
        lru.reject(&1, generation);
        assert_eq!(lru.hits(), 0, "rejected hit no longer counts as served");
        assert_eq!(lru.misses(), 1);
        assert_eq!(lru.rejections(), 1);
        assert_eq!(lru.len(), 0, "rejected entry is removed");
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn stale_reject_never_evicts_a_fresh_replacement() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        lru.insert(1, 1, 4);
        let (_, stale) = lru.get(&1).unwrap();
        // Another worker rejects and refits while our verification is slow.
        lru.insert(1, 2, 4);
        lru.reject(&1, stale);
        assert_eq!(
            value(lru.get(&1)),
            Some(2),
            "the fresh replacement must survive a stale rejection"
        );
        assert_eq!(lru.rejections(), 1, "the rejection itself still counts");
    }

    #[test]
    fn get_after_wait_reclassifies_a_miss_as_a_coalesced_hit() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        assert_eq!(lru.get(&1), None); // counted miss
        lru.insert(1, 7, 4); // "another worker's" fit lands
        assert_eq!(value(lru.get_after_wait(&1)), Some(7));
        assert_eq!(lru.hits(), 1);
        assert_eq!(lru.misses(), 0, "the wait converted the miss");
        assert_eq!(lru.coalesced(), 1);

        // A failed re-probe leaves the miss standing.
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get_after_wait(&2), None);
        assert_eq!(lru.misses(), 1);
        assert_eq!(lru.coalesced(), 1);
    }

    #[test]
    fn reject_after_wait_reverses_the_coalesced_reclassification() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        assert_eq!(lru.get(&1), None); // counted miss
        lru.insert(1, 7, 4);
        let (_, generation) = lru.get_after_wait(&1).unwrap();
        // The waited-for fit fails this caller's (stricter) verification.
        lru.reject_after_wait(&1, generation);
        assert_eq!(lru.hits(), 0);
        assert_eq!(lru.misses(), 1, "the lookup ends as a plain miss");
        assert_eq!(lru.coalesced(), 0, "the coalesced credit is reversed");
        assert_eq!(lru.rejections(), 1);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn flight_table_elects_exactly_one_leader_per_key() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let table: FlightTable<u32> = FlightTable::new(4);
        let fits = AtomicUsize::new(0);
        let waits = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    match table.join(&42) {
                        Flight::Leader(_guard) => {
                            // Hold leadership long enough that the others
                            // must wait rather than racing past the flight.
                            std::thread::sleep(Duration::from_millis(20));
                            fits.fetch_add(1, Ordering::SeqCst);
                        }
                        Flight::Waited => {
                            waits.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(fits.load(Ordering::SeqCst), 1, "one leader");
        assert_eq!(waits.load(Ordering::SeqCst), 3, "everyone else waited");
        // The table is clean afterwards: a new join leads immediately.
        assert!(matches!(table.join(&42), Flight::Leader(_)));
    }

    #[test]
    fn flight_shards_do_not_block_unrelated_keys() {
        // Hold leadership on many keys at once: joining a different key
        // must lead immediately instead of waiting on another key's flight
        // (if it waited, this single-threaded test would deadlock).
        let table: FlightTable<u32> = FlightTable::new(8);
        let guards: Vec<_> = (0..32u32)
            .map(|k| match table.join(&k) {
                Flight::Leader(guard) => guard,
                Flight::Waited => panic!("distinct keys must not wait on each other"),
            })
            .collect();
        drop(guards);
        assert!(matches!(table.join(&0), Flight::Leader(_)));

        // A degenerate single-shard table behaves the same way.
        let single: FlightTable<u32> = FlightTable::new(1);
        let _a = match single.join(&1) {
            Flight::Leader(guard) => guard,
            Flight::Waited => panic!("first join must lead"),
        };
        assert!(matches!(single.join(&2), Flight::Leader(_)));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let lru: Arc<ShardedLru<u32, u32>> = Arc::new(ShardedLru::new(128, 8));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let lru = Arc::clone(&lru);
                s.spawn(move || {
                    for i in 0..200u32 {
                        let key = (t * 200 + i) % 96;
                        lru.insert(key, key * 2, 8);
                        assert_eq!(value(lru.get(&key)), Some(key * 2));
                    }
                });
            }
        });
        assert!(lru.len() <= 128);
        assert!(lru.hits() >= 4 * 200);
    }

    /// Builds a key the way the serve path does: the ingest's content hash
    /// (one fused-ingest pass in production, `frame_hash128` here) and
    /// histogram in a request, then the mode's key. Budget bands are 0.01
    /// wide, so `band` selects the budget `band × 0.01 + 0.005`.
    fn key_of<M: KeyedMode>(
        mode: M,
        frame: &GrayImage,
        seed: u64,
        band: u32,
        tenant: u16,
        class: u16,
        generation: u64,
    ) -> CacheKey<M::Content> {
        let histogram = Histogram::of(frame);
        let request = Request {
            frame,
            histogram: &histogram,
            content_hash: frame_hash128(frame, seed),
            budget: f64::from(band) * 0.01 + 0.005,
            tenant,
            class,
            generation,
        };
        KeyedCache::new(&CacheConfig::default(), mode).key(&request)
    }

    fn exact_key(
        frame: &GrayImage,
        seed: u64,
        band: u32,
        tenant: u16,
        class: u16,
        generation: u64,
    ) -> CacheKey<u128> {
        key_of(
            ExactMode { seed: 0 },
            frame,
            seed,
            band,
            tenant,
            class,
            generation,
        )
    }

    fn signature_key(
        frame: &GrayImage,
        tenant: u16,
        class: u16,
        generation: u64,
    ) -> CacheKey<HistogramSignature> {
        key_of(
            ApproximateMode { resolution: 16 },
            frame,
            0,
            1,
            tenant,
            class,
            generation,
        )
    }

    #[test]
    fn exact_keys_compare_frame_content_without_copying() {
        let a = GrayImage::filled(8, 8, 10);
        let b = GrayImage::filled(8, 8, 10);
        let c = GrayImage::filled(8, 8, 11);
        assert_eq!(exact_key(&a, 9, 1, 0, 0, 0), exact_key(&b, 9, 1, 0, 0, 0));
        assert_ne!(exact_key(&a, 9, 1, 0, 0, 0), exact_key(&c, 9, 1, 0, 0, 0));
        assert_ne!(
            exact_key(&a, 9, 1, 0, 0, 0),
            exact_key(&a, 8, 1, 0, 0, 0),
            "hash seed is part of the key"
        );
        assert_ne!(
            exact_key(&a, 9, 1, 0, 0, 0),
            exact_key(&a, 9, 2, 0, 0, 0),
            "budget band is part of the key"
        );
        assert_ne!(
            exact_key(&a, 9, 1, 0, 0, 0),
            exact_key(&a, 9, 1, 0, 0, 1),
            "characteristic generation is part of the key"
        );
        assert_ne!(
            exact_key(&a, 9, 1, 0, 0, 0),
            exact_key(&a, 9, 1, 0, 1, 0),
            "content class is part of the key"
        );
        assert_ne!(
            exact_key(&a, 9, 1, 0, 0, 0),
            exact_key(&a, 9, 1, 1, 0, 0),
            "tenant is part of the key"
        );
    }

    #[test]
    fn exact_entries_verify_stored_content() {
        let frame = GrayImage::filled(8, 8, 10);
        let other = GrayImage::filled(8, 8, 11);
        let outcome = Arc::new(dummy_outcome(&frame));
        let entry = ExactEntry::new(&frame, outcome);
        assert!(entry.matches(&frame));
        assert!(!entry.matches(&other));
        assert!(
            entry.weight() >= 2 * frame.pixel_count() + 256,
            "weight charges stored pixels, displayed image and LUT"
        );
    }

    fn dummy_outcome(frame: &GrayImage) -> ScalingOutcome {
        use hebs_core::{BacklightPolicy, HebsPolicy, PipelineConfig};
        HebsPolicy::closed_loop(PipelineConfig::default())
            .optimize(frame, 0.10)
            .expect("fit succeeds")
    }

    #[test]
    fn signature_keys_tolerate_noise_but_not_shape() {
        let a = GrayImage::filled(16, 16, 100);
        let wide = GrayImage::filled(32, 8, 100);
        assert_ne!(
            signature_key(&a, 0, 0, 0),
            signature_key(&wide, 0, 0, 0),
            "frame shape is part of the key"
        );
        assert_ne!(
            signature_key(&a, 0, 0, 0),
            signature_key(&a, 0, 0, 2),
            "characteristic generation is part of the key"
        );
        assert_ne!(
            signature_key(&a, 0, 0, 0),
            signature_key(&a, 0, 3, 0),
            "content class is part of the key"
        );
        assert_ne!(
            signature_key(&a, 0, 0, 0),
            signature_key(&a, 7, 0, 0),
            "tenant is part of the key"
        );
    }

    #[test]
    fn budget_bands_quantize_budgets() {
        assert_eq!(budget_band(0.10, 0.01), budget_band(0.105, 0.01));
        assert_ne!(budget_band(0.10, 0.01), budget_band(0.12, 0.01));
        assert_eq!(budget_band(0.30, 0.5), budget_band(0.01, 0.5));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _: ShardedLru<u32, u32> = ShardedLru::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "byte budget must be nonzero")]
    fn zero_byte_budget_rejected() {
        let _: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 0, None);
    }

    #[test]
    fn total_capacity_is_never_exceeded_when_shards_do_not_divide_it() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(10, 8);
        for key in 0..200u32 {
            lru.insert(key, key, 1);
        }
        assert!(lru.len() <= 10, "{} entries exceed capacity 10", lru.len());
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(2, 64);
        lru.insert(1, 1, 1);
        lru.insert(2, 2, 1);
        lru.insert(3, 3, 1);
        assert!(lru.len() <= 2);
    }

    #[test]
    fn tenant_partition_evicts_only_the_over_budget_tenant() {
        // One shard so eviction is fully observable. Tenant 1 gets 80
        // bytes; tenant 2 is unbounded within the shard's 1000.
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(16, 1, 1000, None);
        lru.set_tenant_limit(1, 80);
        assert!(lru.insert_for(1, 10, 10, 40));
        assert!(lru.insert_for(2, 20, 20, 40));
        assert!(lru.insert_for(1, 11, 11, 40));
        assert_eq!(lru.tenant_bytes(1), 80);
        // A third tenant-1 entry must evict tenant 1's own LRU entry (key
        // 10), never tenant 2's older entry.
        assert!(lru.insert_for(1, 12, 12, 40));
        assert_eq!(lru.tenant_bytes(1), 80, "partition holds");
        assert_eq!(lru.get(&10), None, "tenant 1's LRU entry was evicted");
        assert_eq!(value(lru.get(&20)), Some(20), "tenant 2 is untouched");
        assert_eq!(value(lru.get(&11)), Some(11));
        assert_eq!(value(lru.get(&12)), Some(12));
        assert_eq!(lru.tenant_bytes(2), 40);
    }

    #[test]
    fn tenant_partition_refuses_entries_larger_than_the_slice() {
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(16, 1, 1000, None);
        lru.set_tenant_limit(1, 50);
        assert!(
            !lru.insert_for(1, 1, 1, 60),
            "over the tenant's whole slice"
        );
        assert!(lru.insert_for(1, 1, 1, 50), "exactly the slice fits");
        assert_eq!(lru.tenant_bytes(1), 50);
    }

    #[test]
    fn unlimited_tenants_share_the_global_budget_as_before() {
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 100, None);
        // No tenant limits set: tenant-charged inserts still respect the
        // global byte cap (and plain inserts are tenant 0).
        assert!(lru.insert(1, 1, 40));
        assert!(lru.insert_for(3, 2, 2, 40));
        assert!(lru.insert_for(3, 3, 3, 40));
        assert!(lru.bytes() <= 100);
        assert_eq!(lru.get(&1), None, "global pressure evicts the LRU entry");
        assert_eq!(lru.tenant_bytes(0), 0, "tenant 0's entry was evicted");
        assert_eq!(lru.tenant_bytes(3), 80);
    }

    #[test]
    fn global_eviction_and_removal_discharge_tenant_bytes() {
        let lru: ShardedLru<u32, u32> = ShardedLru::bounded(8, 1, 1000, None);
        lru.set_tenant_limit(5, 100);
        lru.insert_for(5, 1, 1, 60);
        let (_, generation) = lru.get(&1).unwrap();
        lru.reject(&1, generation);
        assert_eq!(lru.tenant_bytes(5), 0, "a rejected entry is discharged");
        // Replacement under the same key recharges the new weight once.
        lru.insert_for(5, 2, 2, 30);
        lru.insert_for(5, 2, 2, 50);
        assert_eq!(lru.tenant_bytes(5), 50);
        assert_eq!(lru.bytes(), 50);
    }
}
