//! Budgeted LRU cache of decoded segments.
//!
//! The cache is the only thing standing between the power iteration and
//! one disk fault per adjacency access, and the **resident-segment
//! budget** is the out-of-core guarantee: at most `budget` decoded
//! segments exist at once, no matter how large the graph is, so
//! resident graph memory is capped at roughly
//! `budget × segment_decoded_size` while the graph itself only exists
//! on disk.
//!
//! **Direction-lazy slots.** A segment is decoded with the adjacency
//! directions its first reader asked for (a pull sweep: predecessors
//! only; a degree pass: neither), and the slot remembers which it
//! holds. Asking a resident segment for a direction it lacks is a
//! *miss*: the container is fetched again and re-decoded with the union,
//! replacing the slot in place (the resident count does not move, so an
//! upgrade can never exceed the budget or evict a neighbour).
//!
//! Concurrency model: one mutex guards the whole cache. Hits hold it
//! for a slot probe and an `Arc` clone; misses hold it across the fetch
//! and decode, which serializes faults (two workers asking for the same
//! segment decode it once, and the budget can never be transiently
//! exceeded by concurrent faults). Consumers keep the returned
//! `Arc<DecodedSegment>` alive while they walk the block it backs, so
//! eviction never invalidates adjacency mid-walk — it just drops the
//! cache's reference.
//!
//! Cache state never influences *what* callers read, only how fast it
//! arrives, which is why scores stay bit-identical under any budget.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use jxp_telemetry::lock_unpoisoned;

use crate::backing::SegmentBacking;
use crate::metrics::SegstoreMetrics;
use crate::segment::{decode_segment, DecodedSegment, Directions};
use crate::SegStoreError;

struct Slot {
    seg: Arc<DecodedSegment>,
    /// Logical access clock value of the most recent hit.
    stamp: u64,
}

struct CacheState {
    /// One entry per segment; `Some` while resident.
    slots: Vec<Option<Slot>>,
    /// Logical access clock: bumped on every probe.
    tick: u64,
    resident: usize,
    resident_bytes: u64,
}

/// A budgeted LRU cache of decoded segments over a [`SegmentBacking`].
pub struct SegmentCache {
    backing: Box<dyn SegmentBacking>,
    budget: usize,
    metrics: SegstoreMetrics,
    state: Mutex<CacheState>,
}

impl SegmentCache {
    /// Cache at most `budget` decoded segments of `backing`.
    ///
    /// # Panics
    /// Panics if `budget` is zero — a cache that can hold nothing
    /// cannot hand out a segment at all.
    pub fn new(backing: Box<dyn SegmentBacking>, budget: usize, metrics: SegstoreMetrics) -> Self {
        assert!(budget > 0, "segment cache budget must be at least 1");
        let n = backing.segment_count();
        SegmentCache {
            backing,
            budget,
            metrics,
            state: Mutex::new(CacheState {
                slots: (0..n).map(|_| None).collect(),
                tick: 0,
                resident: 0,
                resident_bytes: 0,
            }),
        }
    }

    /// Maximum resident segments.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The metrics this cache reports into.
    pub fn metrics(&self) -> &SegstoreMetrics {
        &self.metrics
    }

    /// Decoded heap bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        lock_unpoisoned(&self.state).resident_bytes
    }

    /// Segments currently resident.
    pub fn resident_segments(&self) -> usize {
        lock_unpoisoned(&self.state).resident
    }

    /// Get segment `idx` with both adjacency directions, faulting it in
    /// (and evicting the least recently used resident segment) if
    /// necessary.
    pub fn get(&self, idx: usize) -> Result<Arc<DecodedSegment>, SegStoreError> {
        self.get_with(idx, Directions::BOTH)
    }

    /// Get segment `idx` holding at least the directions in `want`.
    pub(crate) fn get_with(
        &self,
        idx: usize,
        want: Directions,
    ) -> Result<Arc<DecodedSegment>, SegStoreError> {
        let mut state = lock_unpoisoned(&self.state);
        state.tick += 1;
        let tick = state.tick;
        let mut decode = want;
        if let Some(slot) = state.slots[idx].as_mut() {
            if slot.seg.held.contains(want) {
                slot.stamp = tick;
                self.metrics.hits_total.inc();
                return Ok(Arc::clone(&slot.seg));
            }
            // Upgrade: keep what earlier readers asked for.
            decode = want.union(slot.seg.held);
        }

        self.metrics.misses_total.inc();
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the jxp_segstore_decode_seconds histogram only; fetch timing never influences which bytes are returned or any score accounting"
        )]
        let fetch_start = Instant::now();
        let bytes = self.backing.fetch(idx)?;
        self.metrics.read_bytes_total.add(bytes.len() as u64);
        let seg = Arc::new(decode_segment(&bytes, decode)?);
        self.metrics
            .decode_seconds
            .observe(fetch_start.elapsed().as_secs_f64());

        if let Some(old) = state.slots[idx].take() {
            // An upgrade replaces the slot it already occupies.
            state.resident_bytes -= old.seg.resident_bytes() as u64;
        } else {
            if state.resident >= self.budget {
                // Evict the least-recently-used resident segment. The
                // scan is O(num_segments); budgets are small and misses
                // already pay a disk read, so simplicity wins over an
                // intrusive list.
                let victim = state
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|s| (s.stamp, i)))
                    .min()
                    .map(|(_, i)| i)
                    .expect("resident > 0 implies a victim exists");
                let gone = state.slots[victim].take().expect("victim is resident");
                state.resident -= 1;
                state.resident_bytes -= gone.seg.resident_bytes() as u64;
                self.metrics.evictions_total.inc();
            }
            state.resident += 1;
        }

        state.resident_bytes += seg.resident_bytes() as u64;
        state.slots[idx] = Some(Slot {
            seg: Arc::clone(&seg),
            stamp: tick,
        });
        self.metrics.resident_bytes.set(state.resident_bytes as f64);
        self.metrics.resident_segments.set(state.resident as f64);
        Ok(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::encode_segment;

    /// A backing serving generated single-node segments from memory,
    /// counting fetches.
    struct MemBacking {
        containers: Vec<Vec<u8>>,
        fetches: std::sync::atomic::AtomicU64,
    }

    impl MemBacking {
        fn new(n: usize) -> Self {
            MemBacking {
                containers: (0..n)
                    .map(|i| {
                        // Node i with successor i+1, no predecessors.
                        encode_segment(i as u32, i as u64, &[0, 1], &[i as u32 + 1], &[0, 0], &[])
                    })
                    .collect(),
                fetches: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl SegmentBacking for MemBacking {
        fn segment_count(&self) -> usize {
            self.containers.len()
        }

        fn fetch(&self, idx: usize) -> Result<Vec<u8>, SegStoreError> {
            self.fetches
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(self.containers[idx].clone())
        }
    }

    #[test]
    fn hits_do_not_refetch() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(3)), 2, SegstoreMetrics::detached());
        let a = cache.get(0).unwrap();
        let b = cache.get(0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.metrics().hits_total.get(), 1);
        assert_eq!(cache.metrics().misses_total.get(), 1);
    }

    #[test]
    fn budget_is_never_exceeded_and_lru_is_evicted() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(4)), 2, SegstoreMetrics::detached());
        cache.get(0).unwrap();
        cache.get(1).unwrap();
        cache.get(0).unwrap(); // 0 is now more recent than 1
        cache.get(2).unwrap(); // evicts 1
        assert_eq!(cache.resident_segments(), 2);
        assert_eq!(cache.metrics().evictions_total.get(), 1);
        // 0 must still be resident (hit), 1 must refetch (miss).
        let misses_before = cache.metrics().misses_total.get();
        cache.get(0).unwrap();
        assert_eq!(cache.metrics().misses_total.get(), misses_before);
        cache.get(1).unwrap();
        assert_eq!(cache.metrics().misses_total.get(), misses_before + 1);
    }

    #[test]
    fn resident_bytes_track_evictions() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(3)), 1, SegstoreMetrics::detached());
        cache.get(0).unwrap();
        let one = cache.resident_bytes();
        assert!(one > 0);
        cache.get(1).unwrap();
        assert_eq!(cache.resident_bytes(), one); // same-sized segment swapped in
        assert_eq!(cache.resident_segments(), 1);
    }

    #[test]
    fn asking_for_a_missing_direction_is_one_upgrade_miss() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(3)), 2, SegstoreMetrics::detached());
        let m = cache.metrics();
        let rev = cache.get_with(0, Directions::REV).unwrap();
        assert_eq!(rev.held, Directions::REV);
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (0, 1));
        // Fewer directions than held is a hit on the same decode.
        let again = cache.get_with(0, Directions::NONE).unwrap();
        assert!(Arc::ptr_eq(&rev, &again));
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (1, 1));

        // `get` means both: one upgrade miss, decoded with the union …
        let both = cache.get(0).unwrap();
        assert_eq!(both.held, Directions::BOTH);
        assert_eq!(both.successors_at(0), &[1]);
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (1, 2));
        // … and afterwards every direction hits.
        for want in [Directions::FWD, Directions::REV, Directions::BOTH] {
            assert!(Arc::ptr_eq(&both, &cache.get_with(0, want).unwrap()));
        }
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (4, 2));
        // The upgrade replaced its own slot: nothing evicted, one resident.
        assert_eq!(m.evictions_total.get(), 0);
        assert_eq!(cache.resident_segments(), 1);
        // The reader of the old decode is unaffected.
        assert_eq!(rev.held, Directions::REV);
    }

    #[test]
    fn upgrades_keep_the_union_and_never_exceed_the_budget() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(4)), 2, SegstoreMetrics::detached());
        cache.get_with(0, Directions::FWD).unwrap();
        cache.get_with(1, Directions::NONE).unwrap();
        // REV on top of FWD keeps FWD.
        assert_eq!(
            cache.get_with(0, Directions::REV).unwrap().held,
            Directions::BOTH
        );
        assert_eq!(cache.resident_segments(), 2);
        cache.get_with(1, Directions::REV).unwrap();
        assert_eq!(cache.resident_segments(), 2);
        assert_eq!(cache.metrics().evictions_total.get(), 0);
        // A third segment still evicts exactly one (the LRU: 0).
        cache.get_with(2, Directions::REV).unwrap();
        assert_eq!(cache.resident_segments(), 2);
        assert_eq!(cache.metrics().evictions_total.get(), 1);
        assert_eq!(cache.metrics().resident_segments.get(), 2.0);
        let misses = cache.metrics().misses_total.get();
        cache.get_with(1, Directions::REV).unwrap();
        assert_eq!(cache.metrics().misses_total.get(), misses);
    }

    #[test]
    fn resident_bytes_track_the_directions_held() {
        // Node i: one successor, no predecessors — offsets 2+2 words,
        // forward adjacency 1 word.
        let cache = SegmentCache::new(Box::new(MemBacking::new(2)), 2, SegstoreMetrics::detached());
        cache.get_with(0, Directions::REV).unwrap();
        assert_eq!(cache.resident_bytes(), 4 * 4);
        cache.get_with(0, Directions::FWD).unwrap();
        assert_eq!(cache.resident_bytes(), 4 * 5);
        cache.get_with(1, Directions::NONE).unwrap();
        assert_eq!(cache.resident_bytes(), 4 * 5 + 4 * 4);
        assert_eq!(cache.metrics().resident_bytes.get(), (4 * 9) as f64);
    }

    #[test]
    fn evicted_segments_stay_valid_while_held() {
        let cache = SegmentCache::new(Box::new(MemBacking::new(3)), 1, SegstoreMetrics::detached());
        let held = cache.get(0).unwrap();
        cache.get(1).unwrap(); // evicts 0 from the cache
        assert_eq!(held.successors_at(0), &[1]); // but our Arc still works
    }

    #[test]
    #[should_panic(expected = "budget must be at least 1")]
    fn zero_budget_panics() {
        let _ = SegmentCache::new(Box::new(MemBacking::new(1)), 0, SegstoreMetrics::detached());
    }

    #[test]
    fn corrupt_container_surfaces_as_error() {
        struct BadBacking;
        impl SegmentBacking for BadBacking {
            fn segment_count(&self) -> usize {
                1
            }
            fn fetch(&self, _idx: usize) -> Result<Vec<u8>, SegStoreError> {
                Ok(vec![0u8; 10])
            }
        }
        let cache = SegmentCache::new(Box::new(BadBacking), 1, SegstoreMetrics::detached());
        assert!(matches!(cache.get(0), Err(SegStoreError::Corrupt(_))));
    }
}
