//! Bounded structured event tracing.
//!
//! Events carry **logical** identifiers only — meeting numbers, round
//! numbers, iteration counts, peer ids — and never wall-clock time:
//! instrumented code on deterministic paths must emit bit-identical
//! event streams at every thread count, so anything time-like is banned
//! from the record itself (durations belong in histograms, which the
//! determinism tests deliberately ignore).
//!
//! The ring is bounded: once `capacity` events have been recorded, new
//! events overwrite the oldest. Every record carries the sequence
//! number assigned by one global `fetch_add`, so a drained snapshot is
//! totally ordered and gaps from overwritten history are visible.
//!
//! **Memory ordering.** The one `Relaxed` atomic here, the ring head, is
//! a sequence-ticket counter and never publishes data: a record is handed
//! off under its slot mutex. No static check holds this: CI runs miri
//! and ThreadSanitizer over this code instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One traced occurrence. All fields are logical quantities.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A meeting was scheduled / its exchange began.
    MeetingStarted {
        /// Global meeting number.
        meeting: u64,
        /// Initiating peer/node id.
        initiator: u64,
        /// Chosen partner id.
        partner: u64,
    },
    /// A meeting's reply was absorbed.
    MeetingCompleted {
        /// Global meeting number.
        meeting: u64,
        /// Initiating peer/node id.
        initiator: u64,
        /// Chosen partner id.
        partner: u64,
        /// Wire/payload bytes both directions.
        bytes: u64,
    },
    /// A meeting was abandoned (retries exhausted or rejected).
    MeetingFailed {
        /// Global meeting number.
        meeting: u64,
        /// Initiating peer/node id.
        initiator: u64,
        /// Chosen partner id.
        partner: u64,
    },
    /// The parallel engine finished one round of disjoint meetings.
    ///
    /// Carries only schedule-determined fields: event streams must be
    /// bit-identical across thread counts, so the worker count lives in
    /// run reports and histograms, never here.
    RoundExecuted {
        /// Round number within the run.
        round: u64,
        /// Disjoint meetings the round carried (matching width).
        pairs: u64,
    },
    /// Power iteration completed one sweep.
    PrIterated {
        /// Iteration number (1-based).
        iteration: u64,
        /// L1 residual after the sweep.
        residual: f64,
    },
    /// A peer joined or left the network.
    Churn {
        /// Peer/node id (post-join index for joins).
        peer: u64,
        /// `true` for a join, `false` for a departure.
        joined: bool,
    },
}

impl Event {
    /// Stable machine-readable tag (used by the JSON exporter).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::MeetingStarted { .. } => "meeting_started",
            Event::MeetingCompleted { .. } => "meeting_completed",
            Event::MeetingFailed { .. } => "meeting_failed",
            Event::RoundExecuted { .. } => "round_executed",
            Event::PrIterated { .. } => "pr_iterated",
            Event::Churn { .. } => "churn",
        }
    }
}

/// An [`Event`] plus its global sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Position in the recording order (0-based, never reused).
    pub seq: u64,
    /// The traced occurrence.
    pub event: Event,
}

/// Fixed-capacity overwrite-oldest event buffer. `record` is one
/// relaxed `fetch_add` plus a per-slot lock that only contends when two
/// writers race a full ring wrap — never a global lock.
pub struct EventRing {
    head: AtomicU64,
    slots: Vec<Mutex<Option<EventRecord>>>,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring needs capacity >= 1");
        EventRing {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the ring's lifetime (not just retained).
    pub fn recorded(&self) -> u64 {
        // Relaxed: a monotonic ticket counter; no data is published
        // through it.
        self.head.load(Ordering::Relaxed)
    }

    /// Append `event`, returning its sequence number.
    pub fn record(&self, event: Event) -> u64 {
        // Relaxed: seq allocation only; the record itself is handed off
        // under the slot mutex.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = crate::sync::lock_unpoisoned(&self.slots[slot]);
        // Only replace older history: under a racing wrap the slot may
        // already hold a younger record.
        if guard.as_ref().is_none_or(|r| r.seq < seq) {
            *guard = Some(EventRecord { seq, event });
        }
        seq
    }

    /// The retained events in sequence order (oldest first).
    pub fn snapshot(&self) -> Vec<EventRecord> {
        let mut records: Vec<EventRecord> = self
            .slots
            .iter()
            .filter_map(|s| crate::sync::lock_unpoisoned(s).clone())
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventRing(capacity={}, recorded={})",
            self.capacity(),
            self.recorded()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn(peer: u64) -> Event {
        Event::Churn { peer, joined: true }
    }

    #[test]
    fn records_in_order_with_seq_numbers() {
        let ring = EventRing::new(8);
        for p in 0..5 {
            assert_eq!(ring.record(churn(p)), p);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.event, churn(i as u64));
        }
    }

    #[test]
    fn wraps_and_keeps_the_newest() {
        let ring = EventRing::new(4);
        for p in 0..10 {
            ring.record(churn(p));
        }
        let snap = ring.snapshot();
        assert_eq!(ring.recorded(), 10);
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_recording_keeps_unique_seqs() {
        let ring = std::sync::Arc::new(EventRing::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for p in 0..200 {
                        ring.record(churn(p));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.recorded(), 800);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 800);
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 800, "duplicate sequence numbers");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = EventRing::new(0);
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            Event::PrIterated {
                iteration: 1,
                residual: 0.5
            }
            .kind(),
            "pr_iterated"
        );
        assert_eq!(churn(0).kind(), "churn");
    }
}
