#![deny(missing_docs)]
//! A dependency-light, hand-rolled non-blocking reactor for the JXP
//! wire protocol.
//!
//! One loop thread owns every socket: listeners accepted from
//! [`ReactorHandle::listen`], server connections whose frames are
//! dispatched inline to a [`FrameService`], and client connections that
//! pipeline requests FIFO per peer. All sockets are `std::net` streams
//! set non-blocking; readiness is discovered by polling reads/writes
//! until `WouldBlock`. A pass that found no work parks the loop thread
//! until [`ReactorHandle::submit`], [`ReactorHandle::listen`] or
//! shutdown unparks it. Only while another process owes bytes (a reply
//! to an outstanding request, or the rest of a frame it has begun) does
//! the loop poll again after a fraction of a millisecond. Listeners are
//! swept for new connections after the loop dials a peer, when a
//! listener arrives, and every few milliseconds for dialers elsewhere.
//! That costs no platform-specific poller code, and it bounds the
//! thread count: a 256-node single-process cluster runs on exactly one
//! reactor thread plus whoever calls [`ReactorHandle::submit`], no
//! matter how many meetings are in flight.
//!
//! Two properties the rest of the system leans on:
//!
//! - **Journal-before-reply.** A server frame is handed to
//!   [`FrameService::serve`] synchronously on the loop thread; the
//!   reply bytes are queued for write only after `serve` returns. A
//!   `JxpNode` journals its Serve record inside `handle()` before
//!   returning the reply frame, so the WAL write strictly precedes the
//!   reply hitting the socket.
//! - **FIFO per peer.** Requests to one address share one connection
//!   and complete in submission order; replies are matched to waiters
//!   by position. The cluster driver submits in schedule order and
//!   collects in schedule order, keeping reactor runs bit-identical to
//!   loopback runs.
//!
//! Requests are submitted as [`Ticket`]s (completion handles backed by
//! a mutex + condvar) so a single driver thread can hold hundreds of
//! meetings in flight; [`ReactorHandle::request`] wraps submit + wait
//! for callers that want the old blocking shape.

mod machine;
mod pending;

pub use pending::Ticket;

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use jxp_telemetry::{lock_unpoisoned, Gauge, Histogram, Registry};
use jxp_wire::{encode_frame, Frame, WireError};

use pending::Pending;

/// Tunables for the reactor's timers. A refused dial is not retried
/// here: it fails its waiters with [`ReactorError::Unreachable`] at once,
/// and the caller's retry policy is the one loop.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// How long the front-of-queue reply on a connection may take. The
    /// clock restarts each time a reply completes, so a pipeline of k
    /// requests gets k budgets, not one.
    pub reply_timeout: Duration,
    /// Close connections with no traffic and no waiters after this long.
    pub idle_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            reply_timeout: Duration::from_millis(1500),
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Failures surfaced to a [`Ticket`] waiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReactorError {
    /// The peer refused the connection or closed it with requests still
    /// outstanding. Retriable: a fresh submit dials a fresh connection.
    Unreachable(String),
    /// The front-of-queue reply deadline (or the waiter's backstop cap)
    /// expired.
    Timeout,
    /// The peer sent bytes that violate the framing.
    Wire(WireError),
    /// The reactor shut down with the request still in flight.
    Closed,
}

impl fmt::Display for ReactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReactorError::Unreachable(detail) => write!(f, "peer unreachable: {detail}"),
            ReactorError::Timeout => write!(f, "timed out waiting for a reply"),
            ReactorError::Wire(e) => write!(f, "wire protocol violation: {e:?}"),
            ReactorError::Closed => write!(f, "reactor shut down"),
        }
    }
}

impl std::error::Error for ReactorError {}

/// Server-side frame handler, invoked inline on the reactor loop
/// thread in frame arrival order.
///
/// Returning `None` drains the connection: already-queued replies are
/// flushed and the socket closes, which the client surfaces as
/// [`ReactorError::Unreachable`] on everything still awaiting — exactly
/// how a stalled peer should look to the retry layer.
pub trait FrameService: Send + Sync {
    /// Handle one request frame and produce the reply, or `None` to
    /// drop the connection.
    fn serve(&self, frame: Frame) -> Option<Frame>;
}

/// Reactor telemetry, registrable on a shared [`Registry`] so the
/// gauges and histograms ride the existing Prometheus/JSON/table
/// exporters and the cluster's `--metrics-listen` endpoint.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// Requests submitted but not yet resolved (`jxp_node_inflight_meetings`).
    pub inflight: Arc<Gauge>,
    /// High-water mark of `inflight` (`jxp_node_inflight_meetings_peak`).
    pub inflight_peak: Arc<Gauge>,
    /// Frames dispatched per loop wakeup that dispatched anything
    /// (`jxp_reactor_wakeup_dispatch`).
    pub wakeup_dispatch: Arc<Histogram>,
    /// Seconds spent in loop passes that did work
    /// (`jxp_reactor_loop_iteration_seconds`).
    pub loop_iteration: Arc<Histogram>,
}

impl ReactorMetrics {
    /// Metrics registered on `reg` under the exported names.
    pub fn registered(reg: &Registry) -> Self {
        ReactorMetrics {
            inflight: reg.gauge("jxp_node_inflight_meetings"),
            inflight_peak: reg.gauge("jxp_node_inflight_meetings_peak"),
            wakeup_dispatch: reg.histogram(
                "jxp_reactor_wakeup_dispatch",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            ),
            loop_iteration: reg.histogram(
                "jxp_reactor_loop_iteration_seconds",
                &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
            ),
        }
    }

    /// Standalone metrics not attached to any registry (tests, tools).
    pub fn detached() -> Self {
        ReactorMetrics::registered(&Registry::new())
    }
}

/// One queued outbound request: destination, encoded frame, completion.
pub(crate) struct Submission {
    pub(crate) addr: SocketAddr,
    pub(crate) bytes: Vec<u8>,
    pub(crate) pending: Arc<Pending>,
}

/// Work handed from callers to the loop thread.
pub(crate) struct Intake {
    pub(crate) submissions: Vec<Submission>,
    pub(crate) listeners: Vec<(TcpListener, Arc<dyn FrameService>)>,
}

/// State shared between handles, tickets, and the loop thread.
pub(crate) struct Shared {
    pub(crate) cfg: ReactorConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) intake: Mutex<Intake>,
    pub(crate) metrics: ReactorMetrics,
    pub(crate) inflight: AtomicU64,
    pub(crate) peak: AtomicU64,
    /// The loop thread, set once it is spawned, so callers can unpark
    /// it when they hand it work.
    pub(crate) loop_thread: OnceLock<Thread>,
}

impl Shared {
    /// Unpark the loop thread. A loop that is not parked keeps the
    /// token, so its next park returns at once and no wakeup is lost.
    pub(crate) fn wake(&self) {
        if let Some(thread) = self.loop_thread.get() {
            thread.unpark();
        }
    }

    /// Count a submission. Called on the submitter's thread, so the
    /// in-flight gauge rises the moment a request exists, not when the
    /// loop first sees it.
    pub(crate) fn inflight_inc(&self) {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        let peak = self.peak.fetch_max(now, Ordering::SeqCst).max(now);
        self.metrics.inflight.set(now as f64);
        self.metrics.inflight_peak.set(peak as f64);
    }

    /// Count a resolution (reply, failure, or abandonment) — each
    /// submission decrements exactly once, enforced by the
    /// [`Pending`] state transition that calls this.
    pub(crate) fn inflight_dec(&self) {
        let now = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.metrics.inflight.set(now as f64);
    }
}

/// Owns the loop thread. Dropping stops the loop (resolving anything
/// still in flight with [`ReactorError::Closed`]) and joins it.
pub struct Reactor {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Start the reactor's single loop thread.
    pub fn start(cfg: ReactorConfig, metrics: ReactorMetrics) -> Reactor {
        let shared = Arc::new(Shared {
            cfg,
            stop: AtomicBool::new(false),
            intake: Mutex::new(Intake {
                submissions: Vec::new(),
                listeners: Vec::new(),
            }),
            metrics,
            inflight: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            loop_thread: OnceLock::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("jxp-reactor".to_string())
            .spawn(move || machine::run_loop(loop_shared))
            .expect("spawn reactor loop thread");
        // Set before any handle exists, so every submit can wake the loop.
        let _ = shared.loop_thread.set(thread.thread().clone());
        Reactor {
            shared,
            thread: Some(thread),
        }
    }

    /// A cheap, cloneable handle for binding listeners and submitting
    /// requests.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// High-water mark of concurrently in-flight requests over the
    /// reactor's lifetime.
    pub fn peak_inflight(&self) -> u64 {
        self.shared.peak.load(Ordering::SeqCst)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Handle onto a running [`Reactor`].
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    /// Bind a loopback listener whose connections are served by
    /// `service`, and return its address for routing.
    pub fn listen(&self, service: Arc<dyn FrameService>) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        lock_unpoisoned(&self.shared.intake)
            .listeners
            .push((listener, service));
        self.shared.wake();
        Ok(addr)
    }

    /// Queue `frame` for `addr` and return a [`Ticket`] to wait on.
    /// This is the multiplexing primitive: submit hundreds, then wait.
    pub fn submit(&self, addr: SocketAddr, frame: &Frame) -> Ticket {
        let bytes = encode_frame(frame);
        let bytes_sent = bytes.len() as u64;
        let pending = Arc::new(Pending::new());
        self.shared.inflight_inc();
        if self.shared.stop.load(Ordering::SeqCst) {
            // The loop is gone (or going); resolve immediately rather
            // than letting the waiter run out its backstop cap.
            pending.resolve(&self.shared, Err(ReactorError::Closed));
        } else {
            lock_unpoisoned(&self.shared.intake)
                .submissions
                .push(Submission {
                    addr,
                    bytes,
                    pending: Arc::clone(&pending),
                });
            self.shared.wake();
        }
        Ticket::new(pending, Arc::clone(&self.shared), bytes_sent)
    }

    /// Submit and block for the reply: `(reply, bytes_sent,
    /// bytes_received)`. The blocking facade over [`ReactorHandle::submit`].
    pub fn request(
        &self,
        addr: SocketAddr,
        frame: &Frame,
    ) -> Result<(Frame, u64, u64), ReactorError> {
        self.submit(addr, frame).wait_full()
    }
}
