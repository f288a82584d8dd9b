//! Transport abstraction: how one node's frames reach another node.
//!
//! A transport is *synchronous request/response*: the JXP meeting protocol
//! is strictly client-driven (the initiator sends a frame, the responder
//! answers with exactly one frame), so the whole exchange maps onto one
//! `request` call — or onto `start` now and [`Pending::wait`] later, which
//! is how one thread keeps a whole meeting round in flight on a transport
//! that can queue (the reactor). Two implementations exist: a
//! deterministic in-memory loopback ([`crate::loopback`]) and the
//! multiplexed localhost-socket reactor ([`crate::reactor`]). Both move
//! **real encoded frames** through [`jxp_wire`], so the byte counts they
//! report are measured codec output, not estimates.

use jxp_synopses::splitmix64;
use jxp_telemetry::lock_unpoisoned;
use jxp_wire::{Frame, WireError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stable identifier of a node within a cluster.
pub type NodeId = u64;

/// A completed request/response exchange, with the measured frame bytes
/// in each direction (exactly [`jxp_wire::encoded_len`] of each frame).
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The responder's reply frame.
    pub reply: Frame,
    /// Bytes of the request frame as sent.
    pub bytes_sent: u64,
    /// Bytes of the reply frame as received.
    pub bytes_received: u64,
}

/// Why an exchange failed.
#[derive(Debug)]
pub enum TransportError {
    /// No route / connection to the peer (includes connections dropped
    /// before a reply arrived).
    Unreachable(String),
    /// The peer accepted the request but no reply arrived in time.
    Timeout,
    /// The bytes that arrived do not decode (version mismatch, truncated
    /// or corrupt frame).
    Wire(WireError),
    /// The peer replied with a protocol [`Frame::Error`]. Retrying will
    /// not help, so the retry loop stops on this immediately.
    Rejected(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(why) => write!(f, "peer unreachable: {why}"),
            TransportError::Timeout => write!(f, "timed out waiting for reply"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Rejected(why) => write!(f, "peer rejected request: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Send one frame to `peer` and wait for the single reply frame.
pub trait Transport: Send + Sync {
    /// Perform one request/response exchange.
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError>;

    /// Start an exchange and return before its reply is needed, so one
    /// thread can hold many exchanges open and redeem them in order.
    /// The default performs the whole exchange at once — what a
    /// transport without a submission queue (loopback) can offer.
    fn start(&self, peer: NodeId, frame: &Frame) -> Pending {
        Pending::ready(self.request(peer, frame))
    }
}

/// An exchange begun by [`Transport::start`]; [`Pending::wait`] blocks
/// for its outcome.
pub struct Pending(Box<dyn FnOnce() -> Result<Exchange, TransportError>>);

impl Pending {
    /// An exchange whose outcome is already known.
    pub fn ready(result: Result<Exchange, TransportError>) -> Pending {
        Pending(Box::new(move || result))
    }

    /// An exchange whose outcome `wait` produces on demand.
    pub fn later(wait: impl FnOnce() -> Result<Exchange, TransportError> + 'static) -> Pending {
        Pending(Box::new(wait))
    }

    /// Block until the exchange resolves.
    pub fn wait(self) -> Result<Exchange, TransportError> {
        (self.0)()
    }
}

/// Server side of a transport: turns one inbound frame into one reply.
///
/// Returning `None` models a stalled responder — the transport surfaces
/// it to the initiator as a [`TransportError::Timeout`] (loopback) or a
/// dropped connection (reactor), exercising the retry path.
pub trait FrameHandler: Send + Sync {
    /// Handle one decoded inbound frame.
    fn handle(&self, frame: Frame) -> Option<Frame>;
}

/// Wraps a [`FrameHandler`] with the cluster's injected faults, the same
/// way on every transport: a lost frame or reply is a `None`, which
/// loopback surfaces as a timeout and the reactor as a dropped
/// connection.
///
/// The one fault is seeded loss. While [`FaultInjector::arm`]ed with
/// meeting `m`, each meeting frame (a `MeetRequest` or a first-contact
/// `SynopsisExchange` probe) is lost with probability `loss` before
/// handling — the inner handler never runs — and, if handled, its reply
/// is lost with probability `loss`: the responder absorbed and
/// journalled, the initiator never hears back. Each decision is a pure
/// function of `(seed, m, the frame's arrival index within m, before or
/// after)`, so arrival order across meetings plays no part. Unarmed, or
/// for any other frame, loss never fires.
pub struct FaultInjector {
    inner: Arc<dyn FrameHandler>,
    seed: u64,
    loss: f64,
    /// The meeting this node answers in the current round, and how many
    /// of its frames have arrived so far.
    armed: Mutex<Option<(u64, u64)>>,
}

impl FaultInjector {
    /// Wrap `inner` so that, once armed, each meeting frame is lost with
    /// probability `loss` at each of the two points.
    ///
    /// # Panics
    /// Panics if `loss` is not in `[0, 1)`.
    pub fn new(inner: Arc<dyn FrameHandler>, seed: u64, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        FaultInjector {
            inner,
            seed,
            loss,
            armed: Mutex::new(None),
        }
    }

    /// Attribute the meeting frames that arrive from now on to meeting
    /// `meeting`, counting arrivals from zero; `None` disarms.
    pub fn arm(&self, meeting: Option<u64>) {
        *lock_unpoisoned(&self.armed) = meeting.map(|m| (m, 0));
    }

    /// The armed meeting and this frame's arrival index within it, if
    /// `frame` is a meeting frame arriving while armed.
    fn arrival(&self, frame: &Frame) -> Option<(u64, u64)> {
        if !matches!(frame, Frame::MeetRequest(_) | Frame::SynopsisExchange(_)) {
            return None;
        }
        let mut armed = lock_unpoisoned(&self.armed);
        let (meeting, arrivals) = armed.as_mut()?;
        *arrivals += 1;
        Some((*meeting, *arrivals - 1))
    }

    /// Whether arrival `index` of `meeting` is lost `after` handling (or
    /// before it): a hash of the four, read as a uniform draw in `[0, 1)`.
    fn lost(&self, meeting: u64, index: u64, after: bool) -> bool {
        let h = splitmix64(
            splitmix64(splitmix64(self.seed) ^ meeting) ^ (index << 1 | u64::from(after)),
        );
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < self.loss
    }
}

impl FrameHandler for FaultInjector {
    fn handle(&self, frame: Frame) -> Option<Frame> {
        if self.loss == 0.0 {
            return self.inner.handle(frame);
        }
        let Some((meeting, index)) = self.arrival(&frame) else {
            return self.inner.handle(frame);
        };
        if self.lost(meeting, index, false) {
            return None;
        }
        let reply = self.inner.handle(frame)?;
        (!self.lost(meeting, index, true)).then_some(reply)
    }
}

/// Bounded exponential backoff for failed exchanges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff cap; doubling stops here.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): `base · 2^retry`,
    /// capped at `max_delay`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry.min(16)));
        exp.min(self.max_delay)
    }
}

/// Outcome of [`request_with_retry`].
#[derive(Debug)]
pub struct RetriedExchange {
    /// The successful exchange.
    pub exchange: Exchange,
    /// Retries that were needed (0 = first attempt succeeded).
    pub retries: u32,
    /// Request bytes of the attempts that failed: sent, never answered,
    /// and charged to the sender like any frame it put on the wire.
    pub bytes_lost: u64,
}

/// Failure of [`request_with_retry`], carrying how many retries were
/// actually spent before giving up — a first-attempt fatal rejection
/// reports 0, a full exhaustion reports `max_attempts - 1` — so callers
/// can account retries exactly instead of assuming the worst case.
#[derive(Debug)]
pub struct RetryError {
    /// The error from the last attempt.
    pub error: TransportError,
    /// Retries spent (attempts made minus the first try).
    pub retries: u32,
    /// Request bytes of every attempt made, all of which failed.
    pub bytes_lost: u64,
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} retries)", self.error, self.retries)
    }
}

impl std::error::Error for RetryError {}

impl From<RetryError> for TransportError {
    fn from(e: RetryError) -> Self {
        e.error
    }
}

/// Run one exchange under a [`RetryPolicy`], sleeping the backoff between
/// attempts. On failure the error reports the retries actually spent.
pub fn request_with_retry(
    transport: &dyn Transport,
    peer: NodeId,
    frame: &Frame,
    policy: &RetryPolicy,
) -> Result<RetriedExchange, RetryError> {
    retry_from(transport.start(peer, frame), transport, peer, frame, policy)
}

/// The one retry loop. The first attempt is `first`, an exchange of
/// `frame` already started on `transport`; every later attempt is
/// `transport.request` after the policy's backoff.
/// [`TransportError::Rejected`] is final on whichever attempt it lands.
/// Every failed attempt adds the frame's encoded length to `bytes_lost`.
pub(crate) fn retry_from(
    first: Pending,
    transport: &dyn Transport,
    peer: NodeId,
    frame: &Frame,
    policy: &RetryPolicy,
) -> Result<RetriedExchange, RetryError> {
    let mut result = first.wait();
    let mut retries = 0;
    let mut bytes_lost = 0;
    loop {
        match result {
            Ok(exchange) => {
                return Ok(RetriedExchange {
                    exchange,
                    retries,
                    bytes_lost,
                })
            }
            Err(error) => {
                bytes_lost += jxp_wire::encoded_len(frame) as u64;
                let fatal = matches!(error, TransportError::Rejected(_));
                if fatal || retries + 1 >= policy.max_attempts {
                    return Err(RetryError {
                        error,
                        retries,
                        bytes_lost,
                    });
                }
                std::thread::sleep(policy.backoff(retries));
                retries += 1;
                result = transport.request(peer, frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct FlakyTransport {
        fail_first: u32,
        calls: AtomicU32,
    }

    impl Transport for FlakyTransport {
        fn request(&self, _peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                return Err(TransportError::Timeout);
            }
            Ok(Exchange {
                reply: frame.clone(),
                bytes_sent: jxp_wire::encoded_len(frame) as u64,
                bytes_received: jxp_wire::encoded_len(frame) as u64,
            })
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(60),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(60));
        assert_eq!(p.backoff(10), Duration::from_millis(60));
    }

    #[test]
    fn retry_survives_transient_failures() {
        let t = FlakyTransport {
            fail_first: 2,
            calls: AtomicU32::new(0),
        };
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let frame = HELLO;
        let out = request_with_retry(&t, 0, &frame, &policy).unwrap();
        assert_eq!(out.retries, 2);
        assert_eq!(out.bytes_lost, 2 * jxp_wire::encoded_len(&frame) as u64);
        assert_eq!(
            out.exchange.bytes_sent,
            jxp_wire::encoded_len(&frame) as u64
        );
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let t = FlakyTransport {
            fail_first: 10,
            calls: AtomicU32::new(0),
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let frame = HELLO;
        let err = request_with_retry(&t, 0, &frame, &policy).unwrap_err();
        assert!(matches!(err.error, TransportError::Timeout));
        assert_eq!(err.retries, 2, "three attempts = two retries");
        assert_eq!(err.bytes_lost, 3 * jxp_wire::encoded_len(&frame) as u64);
        assert_eq!(t.calls.load(Ordering::SeqCst), 3);
    }

    const HELLO: Frame = Frame::Hello {
        node_id: 1,
        num_pages: 2,
    };

    struct Rejecting;

    impl Transport for Rejecting {
        fn request(&self, _peer: NodeId, _frame: &Frame) -> Result<Exchange, TransportError> {
            Err(TransportError::Rejected("go away".into()))
        }
    }

    #[test]
    fn fatal_rejection_on_first_attempt_reports_zero_retries() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let err = request_with_retry(&Rejecting, 0, &HELLO, &policy).unwrap_err();
        assert!(matches!(err.error, TransportError::Rejected(_)));
        assert_eq!(
            err.retries, 0,
            "fatal first attempt must not charge retries"
        );
    }

    #[test]
    fn pre_submitted_first_attempt_shares_the_retry_loop() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let frame = HELLO;
        // Attempt 0 is the wait on an exchange started earlier, later
        // attempts go through `transport.request`.
        let t = FlakyTransport {
            fail_first: 0,
            calls: AtomicU32::new(0),
        };
        let timed_out = Pending::later(|| Err(TransportError::Timeout));
        let out = retry_from(timed_out, &t, 0, &frame, &policy).unwrap();
        assert_eq!(out.retries, 1);
        assert_eq!(t.calls.load(Ordering::SeqCst), 1);

        let t = FlakyTransport {
            fail_first: 0,
            calls: AtomicU32::new(0),
        };
        let rejected = Pending::ready(Err(TransportError::Rejected("go away".into())));
        let err = retry_from(rejected, &t, 0, &frame, &policy).unwrap_err();
        assert!(matches!(err.error, TransportError::Rejected(_)));
        assert_eq!(err.retries, 0);
        assert_eq!(t.calls.load(Ordering::SeqCst), 0, "a rejection is final");
    }

    /// Answers every frame with a `Hello`, counting the frames it handled.
    struct Counting(AtomicU32);

    impl FrameHandler for Counting {
        fn handle(&self, _frame: Frame) -> Option<Frame> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Some(Frame::Hello {
                node_id: 0,
                num_pages: 0,
            })
        }
    }

    #[test]
    fn fault_injector_loses_exactly_the_hashed_arrivals() {
        use jxp_webgraph::{PageId, Subgraph};

        let meeting = Frame::MeetRequest(jxp_core::payload::MeetingPayload::default());
        let probe = Frame::SynopsisExchange(jxp_wire::SynopsisPayload {
            synopses: jxp_core::selection::PeerSynopses::compute(
                &Subgraph::from_adjacency(vec![(PageId(0), vec![PageId(1)])]),
                &jxp_synopses::mips::MipsPermutations::generate(8, 1),
            ),
            sketch: None,
            bloom: None,
        });
        let others = [
            Frame::Hello {
                node_id: 1,
                num_pages: 1,
            },
            Frame::QueryRequest(jxp_wire::QueryPayload {
                query_id: 1,
                k: 1,
                terms: vec![1],
            }),
        ];
        let inner = Arc::new(Counting(AtomicU32::new(0)));
        let handled = || inner.0.load(Ordering::SeqCst);
        // Every frame passes untouched: each reaches the inner handler
        // once and its reply comes back.
        let passes = |injector: &FaultInjector, frame: &Frame| {
            let before = handled();
            assert!(injector.handle(frame.clone()).is_some(), "{frame:?}");
            assert_eq!(handled(), before + 1, "{frame:?}");
        };

        let injector = FaultInjector::new(Arc::clone(&inner) as Arc<dyn FrameHandler>, 7, 0.5);
        for frame in [&meeting, &probe].into_iter().chain(&others) {
            passes(&injector, frame);
        }
        let m = 3;
        injector.arm(Some(m));
        let (mut lost_before, mut lost_after) = (0, 0);
        for i in 0..64 {
            // Other frames are never lost and take no arrival index.
            for other in &others {
                passes(&injector, other);
            }
            let frame = if i % 2 == 0 { &meeting } else { &probe };
            let before = handled();
            let reply = injector.handle(frame.clone());
            let ran = handled() > before;
            assert_eq!(ran, !injector.lost(m, i, false), "arrival {i}");
            assert_eq!(
                reply.is_some(),
                ran && !injector.lost(m, i, true),
                "arrival {i}"
            );
            lost_before += u32::from(!ran);
            lost_after += u32::from(ran && reply.is_none());
        }
        assert!(lost_before > 0 && lost_after > 0, "both loss points fired");
        injector.arm(None);
        for frame in [&meeting, &probe] {
            passes(&injector, frame);
        }

        let lossless = FaultInjector::new(Arc::clone(&inner) as Arc<dyn FrameHandler>, 7, 0.0);
        lossless.arm(Some(m));
        for _ in 0..16 {
            passes(&lossless, &meeting);
            passes(&lossless, &probe);
        }
    }
}
