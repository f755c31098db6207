//! A sharded LRU cache, generic over key and value, tagged with the
//! model epoch that produced each entry.
//!
//! The server keeps one [`AnswerCache`]: ranked `/topk` and `/shard/topk`
//! lists keyed by `(node, k)`, so a repeat costs neither the `O(n·r)`
//! column evaluation nor the `O(n)` selection.  An answer over
//! [`MAX_CACHED_ANSWER`] pairs is served but not stored, so the cache
//! holds at most `capacity × 16 KiB` of scores whatever `n` is.  It
//! holds no columns: at n = 70,930 a 1,024-column cache is 581 MB and
//! hits about 1.5% of uniform top-k traffic.  [`ColumnCache`] is the
//! column-valued instance, for callers that model a column cache.
//!
//! Values are `Arc`s, so a hit shares the stored entry with no copy.
//! Sharding by [`CacheKey::spread`] bounds lock contention; each shard
//! is a hash map plus a recency-ordered tree.
//!
//! **Epoch tagging** makes the cache safe under live model updates: a
//! lookup supplies the epoch its request's snapshot was loaded at, and
//! an entry cached under a different epoch is a miss — the stale entry
//! is dropped on the spot, so old epochs drain lazily as their keys
//! are re-requested.  There is no global flush on publish and readers
//! never block; with ingestion disabled every request is epoch 0 and
//! the tag is inert.
//!
//! With admission enabled ([`Cache::with_admission`]) each shard
//! additionally keeps a TinyLFU [`FrequencySketch`]: lookups record the
//! requested key's popularity, and an insert that would evict only goes
//! through if the candidate has been asked for more often than the LRU
//! victim it displaces — one-hit wonders under Zipfian traffic stop
//! flushing the hot set.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::tinylfu::FrequencySketch;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached column, shared zero-copy with all readers.
pub type Column = Arc<[f64]>;

/// One ranked top-k answer: `(node, score)` pairs in rank order.
pub type Answer = Arc<[(usize, f64)]>;

/// The cache of whole similarity columns keyed by node.
pub type ColumnCache = Cache<usize, Column>;

/// The server's cache: ranked answers keyed by `(node, k)`.
pub type AnswerCache = Cache<(usize, usize), Answer>;

/// The longest answer the [`AnswerCache`] stores.  A request whose `k`
/// reaches past it is still answered, just not remembered, so one entry
/// never holds more than `MAX_CACHED_ANSWER × 16` bytes of scores.
pub const MAX_CACHED_ANSWER: usize = 1024;

/// A cache key: hashable, cheap to copy, and spread over the shards and
/// the admission sketch by [`CacheKey::spread`].
pub trait CacheKey: Copy + Eq + std::hash::Hash {
    /// The integer this key is sharded and frequency-counted by.
    fn spread(&self) -> usize;
}

impl CacheKey for usize {
    fn spread(&self) -> usize {
        *self
    }
}

impl CacheKey for (usize, usize) {
    /// The node with `k` in the high half: the node's shard for `k < 2³²`
    /// and power-of-two shard counts, yet one sketch count per `k`.
    fn spread(&self) -> usize {
        self.0 ^ self.1.rotate_left(usize::BITS / 2)
    }
}

struct Entry<V> {
    /// Epoch of the snapshot this value was computed against.
    epoch: u64,
    value: V,
    /// This entry's key in its shard's recency order.
    touched: u64,
}

/// Per-shard cache statistics, readable without the shard lock.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Lookups answered from this shard.
    pub hits: AtomicU64,
    /// Lookups this shard could not answer.
    pub misses: AtomicU64,
    /// Entries displaced to make room.
    pub evictions: AtomicU64,
    /// Inserts refused by the TinyLFU admission filter (candidate no
    /// more popular than the entry it would evict).
    pub admission_rejects: AtomicU64,
}

/// Outcome of one insert attempt (drives the counters).
enum Inserted {
    Stored { evicted: bool },
    Rejected,
}

/// One LRU shard: the entries, their recency order and the optional
/// admission sketch.
struct Shard<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Keys by the tick of their last touch, least recent first.
    recency: BTreeMap<u64, K>,
    clock: u64,
    capacity: usize,
    sketch: Option<FrequencySketch>,
}

impl<K: CacheKey, V: Clone> Shard<K, V> {
    fn new(capacity: usize, admission: bool) -> Self {
        Shard {
            entries: HashMap::with_capacity(capacity),
            recency: BTreeMap::new(),
            clock: 0,
            capacity,
            sketch: (admission && capacity > 0).then(|| FrequencySketch::new(capacity)),
        }
    }

    /// Makes `key`'s entry the most recently used.
    fn touch(&mut self, key: K) -> &mut Entry<V> {
        let entry = self.entries.get_mut(&key).expect("touched keys are cached");
        self.recency.remove(&entry.touched);
        self.clock += 1;
        entry.touched = self.clock;
        self.recency.insert(self.clock, key);
        entry
    }

    fn remove(&mut self, key: K) {
        if let Some(entry) = self.entries.remove(&key) {
            self.recency.remove(&entry.touched);
        }
    }

    fn get(&mut self, key: K, epoch: u64) -> Option<V> {
        // The sketch counts *requests*, hits and misses alike — a key's
        // popularity is how often it is asked for, not how often it is
        // resident.
        if let Some(sketch) = &mut self.sketch {
            sketch.record(key.spread());
        }
        // A value cached under another epoch answers for a model this
        // request is not seeing: drop it and miss.  Dropping here (rather
        // than on publish) is the lazy drain — no flush, no reader blocking.
        if self.entries.get(&key)?.epoch != epoch {
            self.remove(key);
            return None;
        }
        Some(self.touch(key).value.clone())
    }

    /// Inserts (or refreshes) a value, subject to the admission filter
    /// when one is configured.
    fn insert(&mut self, key: K, epoch: u64, value: V) -> Inserted {
        if let Some(entry) = self.entries.get(&key) {
            // An answer computed for an older snapshot can finish after
            // one for a newer snapshot: keep the newer value.
            if entry.epoch <= epoch {
                let entry = self.touch(key);
                (entry.value, entry.epoch) = (value, epoch);
            }
            return Inserted::Stored { evicted: false };
        }
        let full = self.entries.len() >= self.capacity;
        if let Some((_, &lru)) = self.recency.first_key_value().filter(|_| full) {
            // TinyLFU admission: displacing the LRU victim must be paid
            // for with popularity.  A strict `>` keeps ties out — a
            // candidate seen exactly as often as the victim brings no
            // evidence it will be re-read sooner.
            if let Some(sketch) = &self.sketch {
                if sketch.estimate(key.spread()) <= sketch.estimate(lru.spread()) {
                    return Inserted::Rejected;
                }
            }
            self.remove(lru);
        }
        self.clock += 1;
        self.entries.insert(key, Entry { epoch, value, touched: self.clock });
        self.recency.insert(self.clock, key);
        Inserted::Stored { evicted: full }
    }
}

/// The sharded cache.  `capacity == 0` disables caching entirely: every
/// lookup is a miss and inserts are dropped.
pub struct Cache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    stats: Vec<ShardStats>,
    metrics: Arc<Metrics>,
}

impl<K: CacheKey, V: Clone> Cache<K, V> {
    /// A cache holding up to `capacity` entries spread over `shards`
    /// locks, with no admission filter.  Hit/miss/eviction counts are
    /// reported through `metrics`.
    pub fn new(capacity: usize, shards: usize, metrics: Arc<Metrics>) -> Self {
        Self::with_admission(capacity, shards, metrics, false)
    }

    /// [`Cache::new`] with an optional TinyLFU admission filter: when
    /// `admission` is true every shard keeps a frequency sketch and
    /// refuses evicting inserts whose candidate is no more popular than
    /// the LRU victim.
    pub fn with_admission(
        capacity: usize,
        shards: usize,
        metrics: Arc<Metrics>,
        admission: bool,
    ) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity / shards;
        // Distribute the remainder so total capacity is exact.
        let extra = capacity % shards;
        let stats = (0..shards).map(|_| ShardStats::default()).collect();
        let shards = (0..shards)
            .map(|i| Mutex::new(Shard::new(per_shard + usize::from(i < extra), admission)))
            .collect();
        Cache { shards, stats, metrics }
    }

    fn shard(&self, key: K) -> (&Mutex<Shard<K, V>>, &ShardStats) {
        let i = key.spread() % self.shards.len();
        (&self.shards[i], &self.stats[i])
    }

    /// Looks up `key` as seen at `epoch`, counting a hit or miss
    /// (globally and on the owning shard) and recording the request's
    /// popularity when admission is on.  Entries tagged with another
    /// epoch are misses and are dropped.
    pub fn get(&self, key: K, epoch: u64) -> Option<V> {
        let (shard, stats) = self.shard(key);
        let result = {
            let mut shard = shard.lock().expect("cache shard poisoned");
            if shard.capacity == 0 {
                None
            } else {
                shard.get(key, epoch)
            }
        };
        let (global, local) = match result {
            Some(_) => (&self.metrics.cache_hits, &stats.hits),
            None => (&self.metrics.cache_misses, &stats.misses),
        };
        global.fetch_add(1, Ordering::Relaxed);
        local.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Stores `value` for `key` computed at `epoch`, counting any
    /// eviction or admission rejection.
    pub fn insert(&self, key: K, epoch: u64, value: V) {
        let (shard, stats) = self.shard(key);
        let outcome = {
            let mut shard = shard.lock().expect("cache shard poisoned");
            if shard.capacity == 0 {
                Inserted::Stored { evicted: false }
            } else {
                shard.insert(key, epoch, value)
            }
        };
        let (global, local) = match outcome {
            Inserted::Stored { evicted: false } => return,
            Inserted::Stored { evicted: true } => (&self.metrics.cache_evictions, &stats.evictions),
            Inserted::Rejected => (&self.metrics.cache_admission_rejects, &stats.admission_rejects),
        };
        global.fetch_add(1, Ordering::Relaxed);
        local.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes the `"cache_shards"` array for `GET /metrics`: one
    /// `{"hits":…,"misses":…,"evictions":…,"admission_rejects":…}`
    /// object per shard.
    pub(crate) fn write_stats_json(&self, out: &mut Json) {
        out.open(b'[');
        for s in &self.stats {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            out.counts(&[
                ("hits", load(&s.hits)),
                ("misses", load(&s.misses)),
                ("evictions", load(&s.evictions)),
                ("admission_rejects", load(&s.admission_rejects)),
            ]);
        }
        out.close(b']');
    }
}

impl AnswerCache {
    /// The top-`k` answer for `node` at `epoch`: the cached list on a
    /// hit, otherwise `rank()`'s list, stored when it is at most
    /// [`MAX_CACHED_ANSWER`] long.  A failed `rank()` stores nothing.
    pub fn get_or_rank<E>(
        &self,
        node: usize,
        k: usize,
        epoch: u64,
        rank: impl FnOnce() -> Result<Vec<(usize, f64)>, E>,
    ) -> Result<Answer, E> {
        if let Some(hit) = self.get((node, k), epoch) {
            return Ok(hit);
        }
        let answer = Answer::from(rank()?);
        if answer.len() <= MAX_CACHED_ANSWER {
            self.insert((node, k), epoch, Arc::clone(&answer));
        }
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn col(v: f64) -> Column {
        Arc::from(vec![v].into_boxed_slice())
    }

    fn counts(m: &Metrics) -> (u64, u64, u64) {
        (
            m.cache_hits.load(Ordering::Relaxed),
            m.cache_misses.load(Ordering::Relaxed),
            m.cache_evictions.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(2, 1, Arc::clone(&metrics));
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, col(1.0));
        cache.insert(2, 0, col(2.0));
        assert_eq!(cache.get(1, 0).unwrap()[0], 1.0);
        assert_eq!(counts(&metrics), (1, 1, 0));
        // Capacity 2: inserting a third evicts the LRU (node 2, since 1
        // was touched more recently).
        cache.insert(3, 0, col(3.0));
        assert_eq!(counts(&metrics).2, 1);
        assert!(cache.get(2, 0).is_none(), "node 2 was the LRU");
        assert!(cache.get(1, 0).is_some());
        assert!(cache.get(3, 0).is_some());
    }

    #[test]
    fn lru_order_follows_touches() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(3, 1, Arc::clone(&metrics));
        for n in 0..3 {
            cache.insert(n, 0, col(n as f64));
        }
        cache.get(0, 0); // order (MRU→LRU): 0, 2, 1
        cache.insert(3, 0, col(3.0)); // evicts 1
        assert!(cache.get(1, 0).is_none());
        for n in [0usize, 2, 3] {
            assert!(cache.get(n, 0).is_some(), "node {n} should survive");
        }
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(2, 1, Arc::clone(&metrics));
        cache.insert(1, 0, col(1.0));
        cache.insert(1, 0, col(10.0));
        assert_eq!(cache.get(1, 0).unwrap()[0], 10.0);
        assert_eq!(counts(&metrics).2, 0);
    }

    #[test]
    fn sharding_spreads_keys_and_capacity() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(8, 3, Arc::clone(&metrics));
        for n in 0..8 {
            cache.insert(n, 0, col(n as f64));
        }
        let live = (0..8).filter(|&n| cache.get(n, 0).is_some()).count();
        assert_eq!(live, 8, "8 columns fit an 8-column cache across shards");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(0, 4, Arc::clone(&metrics));
        cache.insert(1, 0, col(1.0));
        assert!(cache.get(1, 0).is_none());
        assert_eq!(counts(&metrics), (0, 1, 0));
    }

    #[test]
    fn stale_epoch_entries_are_misses_and_drain_lazily() {
        let metrics = Arc::new(Metrics::new());
        let cache = ColumnCache::new(4, 1, Arc::clone(&metrics));
        cache.insert(1, 0, col(1.0));
        cache.insert(2, 0, col(2.0));
        // A reader still on epoch 0 hits; a reader on epoch 1 misses and
        // drops the stale entry.
        assert!(cache.get(1, 0).is_some());
        assert!(cache.get(1, 1).is_none(), "epoch-0 column must not answer an epoch-1 request");
        // The stale entry is gone for everyone now — even the old epoch.
        assert!(cache.get(1, 0).is_none());
        // Untouched stale entries survive until requested: no flush.
        assert!(cache.get(2, 0).is_some());
        // Re-inserting under the new epoch serves the new epoch.
        cache.insert(1, 1, col(11.0));
        assert_eq!(cache.get(1, 1).unwrap()[0], 11.0);
        assert_eq!(metrics.cache_evictions.load(Ordering::Relaxed), 0, "drain is not an eviction");
        // A late batch for an older epoch does not displace the newer column.
        cache.insert(1, 0, col(10.0));
        assert_eq!(cache.get(1, 1).unwrap()[0], 11.0);
    }

    /// An [`AnswerCache`] plus a ranking closure that counts its calls.
    fn ranked(cache: &AnswerCache, node: usize, k: usize, epoch: u64, calls: &mut u32) -> Answer {
        let rank = || -> Result<Vec<(usize, f64)>, ()> {
            *calls += 1;
            Ok((0..k.min(2000)).map(|i| (i, 1.0 / (1.0 + i as f64))).collect())
        };
        cache.get_or_rank(node, k, epoch, rank).unwrap()
    }

    #[test]
    fn a_repeat_answer_is_served_without_ranking_again() {
        let metrics = Arc::new(Metrics::new());
        let cache = AnswerCache::new(8, 2, Arc::clone(&metrics));
        let mut calls = 0;
        let first = ranked(&cache, 3, 10, 0, &mut calls);
        let again = ranked(&cache, 3, 10, 0, &mut calls);
        assert_eq!(calls, 1, "the hit ran no selection");
        assert!(Arc::ptr_eq(&first, &again), "the hit is the stored list, not a copy");
        assert_eq!(counts(&metrics), (1, 1, 0));
    }

    #[test]
    fn another_k_is_another_key() {
        let cache = AnswerCache::new(8, 2, Arc::new(Metrics::new()));
        let mut calls = 0;
        assert_eq!(ranked(&cache, 3, 10, 0, &mut calls).len(), 10);
        assert_eq!(ranked(&cache, 3, 5, 0, &mut calls).len(), 5);
        assert_eq!(calls, 2);
        ranked(&cache, 3, 10, 0, &mut calls);
        ranked(&cache, 3, 5, 0, &mut calls);
        assert_eq!(calls, 2, "both lists stay cached side by side");
    }

    #[test]
    fn answers_past_the_cap_are_served_but_not_stored() {
        let metrics = Arc::new(Metrics::new());
        let cache = AnswerCache::new(8, 1, Arc::clone(&metrics));
        let mut calls = 0;
        let at_cap = ranked(&cache, 1, MAX_CACHED_ANSWER, 0, &mut calls);
        let past_cap = ranked(&cache, 1, MAX_CACHED_ANSWER + 1, 0, &mut calls);
        assert_eq!((at_cap.len(), past_cap.len()), (MAX_CACHED_ANSWER, MAX_CACHED_ANSWER + 1));
        ranked(&cache, 1, MAX_CACHED_ANSWER, 0, &mut calls);
        assert_eq!(calls, 2, "the answer at the cap was stored");
        ranked(&cache, 1, MAX_CACHED_ANSWER + 1, 0, &mut calls);
        assert_eq!(calls, 3, "the answer past the cap was not");
    }

    #[test]
    fn a_failed_ranking_stores_nothing() {
        let cache = AnswerCache::new(8, 1, Arc::new(Metrics::new()));
        assert_eq!(cache.get_or_rank(1, 3, 0, || Err("shard down")).unwrap_err(), "shard down");
        let mut calls = 0;
        ranked(&cache, 1, 3, 0, &mut calls);
        assert_eq!(calls, 1, "the failure left no entry behind");
    }

    #[test]
    fn answer_keys_keep_their_nodes_shard() {
        for (node, k) in [(0usize, 10usize), (5, 1), (7, 1024), (12, usize::MAX >> 33)] {
            assert_eq!((node, k).spread() % 8, node % 8, "({node}, {k})");
        }
        assert_ne!((1usize, 10usize).spread(), (1usize, 11usize).spread(), "the sketch sees k");
    }
}
