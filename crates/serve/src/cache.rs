//! A sharded LRU cache of similarity columns, keyed by node id and
//! tagged with the model epoch that produced them.
//!
//! Columns are `Arc<[f64]>`, so a hit hands the caller a shared view of
//! the stored column with no copy.  Sharding (`node % shards`) keeps
//! lock contention bounded under the worker pool; each shard is a
//! classic hash-map-plus-intrusive-list LRU with O(1) get/insert.
//!
//! **Epoch tagging** makes the cache safe under live model updates: a
//! lookup supplies the epoch its request's snapshot was loaded at, and
//! an entry cached under a different epoch is a miss — the stale entry
//! is dropped on the spot, so old epochs drain lazily as their nodes
//! are re-requested.  There is no global flush on publish and readers
//! never block; with ingestion disabled every request is epoch 0 and
//! the tag is inert.
//!
//! With admission enabled ([`ColumnCache::with_admission`]) each shard
//! additionally keeps a TinyLFU [`FrequencySketch`]: lookups record the
//! requested node's popularity, and an insert that would evict only goes
//! through if the candidate has been asked for more often than the LRU
//! victim it displaces — one-hit wonders under Zipfian traffic stop
//! flushing the hot set.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::tinylfu::FrequencySketch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached column, shared zero-copy with all readers.
pub type Column = Arc<[f64]>;

const NIL: usize = usize::MAX;

struct Entry {
    node: usize,
    /// Epoch of the snapshot this column was evaluated against.
    epoch: u64,
    column: Column,
    prev: usize,
    next: usize,
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

/// One LRU shard: slab of entries + map + most/least-recent pointers,
/// plus the optional admission sketch.
struct Shard {
    map: HashMap<usize, usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    sketch: Option<FrequencySketch>,
}

impl Shard {
    fn new(capacity: usize, admission: bool) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            sketch: (admission && capacity > 0).then(|| FrequencySketch::new(capacity)),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Drops the entry at `idx` back to the free list.
    fn remove(&mut self, idx: usize) {
        self.unlink(idx);
        self.map.remove(&self.entries[idx].node);
        self.free.push(idx);
    }

    fn get(&mut self, node: usize, epoch: u64) -> Option<Column> {
        // The sketch counts *requests*, hits and misses alike — a node's
        // popularity is how often it is asked for, not how often it is
        // resident.
        if let Some(sketch) = &mut self.sketch {
            sketch.record(node);
        }
        let idx = *self.map.get(&node)?;
        // A column cached under another epoch answers for a model this
        // request is not seeing: drop it and miss.  Dropping here (rather
        // than on publish) is the lazy drain — no flush, no reader blocking.
        if self.entries[idx].epoch != epoch {
            self.remove(idx);
            return None;
        }
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.entries[idx].column))
    }

    /// Inserts (or refreshes) a column, subject to the admission filter
    /// when one is configured.
    fn insert(&mut self, node: usize, epoch: u64, column: Column) -> Inserted {
        if let Some(&idx) = self.map.get(&node) {
            // A batch answered for an older snapshot can finish after one
            // for a newer snapshot: keep the newer column.
            if self.entries[idx].epoch > epoch {
                return Inserted::Stored { evicted: false };
            }
            self.entries[idx].column = column;
            self.entries[idx].epoch = epoch;
            self.unlink(idx);
            self.push_front(idx);
            return Inserted::Stored { evicted: false };
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            // TinyLFU admission: displacing the LRU victim must be paid
            // for with popularity.  A strict `>` keeps ties out — a
            // candidate seen exactly as often as the victim brings no
            // evidence it will be re-read sooner.
            if let Some(sketch) = &self.sketch {
                if sketch.estimate(node) <= sketch.estimate(self.entries[lru].node) {
                    return Inserted::Rejected;
                }
            }
            self.remove(lru);
            evicted = true;
        }
        let entry = Entry { node, epoch, column, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx] = entry;
                idx
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.map.insert(node, idx);
        self.push_front(idx);
        Inserted::Stored { evicted }
    }
}

/// The sharded cache.  `capacity == 0` disables caching entirely (every
/// lookup is a miss and inserts are dropped), which also makes batcher
/// evaluation counts deterministic in tests.
pub struct ColumnCache {
    shards: Vec<Mutex<Shard>>,
    stats: Vec<ShardStats>,
    metrics: Arc<Metrics>,
}

impl ColumnCache {
    /// A cache holding up to `capacity` columns spread over `shards`
    /// locks, with no admission filter.  Hit/miss/eviction counts are
    /// reported through `metrics`.
    pub fn new(capacity: usize, shards: usize, metrics: Arc<Metrics>) -> Self {
        Self::with_admission(capacity, shards, metrics, false)
    }

    /// [`ColumnCache::new`] with an optional TinyLFU admission filter:
    /// when `admission` is true every shard keeps a frequency sketch and
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
        ColumnCache { shards, stats, metrics }
    }

    fn shard(&self, node: usize) -> (&Mutex<Shard>, &ShardStats) {
        let i = node % self.shards.len();
        (&self.shards[i], &self.stats[i])
    }

    /// Looks up the column for `node` as seen at `epoch`, counting a hit
    /// or miss (globally and on the owning shard) and recording the
    /// request's popularity when admission is on.  Entries tagged with
    /// another epoch are misses and are dropped.
    pub fn get(&self, node: usize, epoch: u64) -> Option<Column> {
        let (shard, stats) = self.shard(node);
        let result = {
            let mut shard = shard.lock().expect("cache shard poisoned");
            if shard.capacity == 0 {
                None
            } else {
                shard.get(node, epoch)
            }
        };
        match result {
            Some(col) => {
                self.metrics.cache_hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(col)
            }
            None => {
                self.metrics.cache_misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the column for `node` evaluated at `epoch`, counting any
    /// eviction or admission rejection.
    pub fn insert(&self, node: usize, epoch: u64, column: Column) {
        let (shard, stats) = self.shard(node);
        let outcome = {
            let mut shard = shard.lock().expect("cache shard poisoned");
            if shard.capacity == 0 {
                Inserted::Stored { evicted: false }
            } else {
                shard.insert(node, epoch, column)
            }
        };
        match outcome {
            Inserted::Stored { evicted: true } => {
                self.metrics.cache_evictions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            Inserted::Stored { evicted: false } => {}
            Inserted::Rejected => {
                self.metrics
                    .cache_admission_rejects
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                stats.admission_rejects.fetch_add(1, Ordering::Relaxed);
            }
        }
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
}
