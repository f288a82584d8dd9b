//! The reactor loop and its per-connection state machines.
//!
//! One pass pumps: intake (new listeners + submissions) → accepts →
//! server connections (read → accumulate → dispatch inline → queue
//! reply) → client connections (connect → write → read →
//! complete FIFO waiters) → timers (reply deadlines, idle closes).
//!
//! Accepts run only when a connection can be waiting: in the pass after
//! this loop dialed a peer (on loopback `connect` completes the
//! handshake, so the peer's listener already holds it), in a pass that
//! adopted a new listener, and every [`SWEEP_EVERY`] for dialers in
//! other processes. A pass that moved no bytes and fired no timers
//! parks the thread until a submit, a listen or shutdown unparks it, or
//! the next sweep is due. While another process owes this loop bytes
//! (a reply to an outstanding waiter, or the rest of a frame a socket
//! has begun), the park lasts at most [`POLL`] instead.
//!
//! Client connections walk Connecting → Handshake → Ready → (Failed);
//! server connections walk Serving → Draining → closed. "Handshake"
//! here is the non-blocking/nodelay setup plus the implicit stream
//! validation `connect` gives us on loopback — the JXP protocol itself
//! needs no hello exchange on a multiplexed connection because frames
//! are self-describing.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jxp_telemetry::lock_unpoisoned;
use jxp_wire::{encode_frame, FrameAccumulator};

use crate::pending::Pending;
use crate::{FrameService, ReactorError, Shared, Submission};

const READ_CHUNK: usize = 64 * 1024;

/// Longest park while another process owes this loop bytes, which no
/// unpark announces.
const POLL: Duration = Duration::from_micros(200);

/// Cadence of the listener sweep when this loop has not dialed: the
/// longest a dialer in another process waits to be accepted, and the
/// longest an idle loop parks (so deadlines and idle closes fire at
/// most this late). An idle reactor pays one failing `accept` per
/// listener per sweep (DESIGN.md §14 gives the trade).
const SWEEP_EVERY: Duration = Duration::from_millis(5);

struct Acceptor {
    listener: TcpListener,
    service: Arc<dyn FrameService>,
}

/// An accepted connection being served.
struct ServerConn {
    stream: TcpStream,
    service: Arc<dyn FrameService>,
    acc: FrameAccumulator,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Flush what's queued, then close (peer EOF, service stall, or a
    /// framing violation).
    draining: bool,
    dead: bool,
    last_activity: Instant,
}

enum ClientPhase {
    /// Not yet connected: the next pump dials, once. A refusal fails
    /// every waiter with `Unreachable`; the caller's retry policy decides
    /// whether to submit again.
    Connecting,
    /// Connected, non-blocking, nodelay set: requests flow.
    Ready,
}

struct Waiter {
    pending: Arc<Pending>,
    /// When the *front* waiter's reply must have arrived. Restarted on
    /// connect success and after each completed reply, so a pipeline of
    /// k requests gets k budgets.
    deadline: Instant,
}

/// An outbound connection multiplexing every request for one peer
/// address, FIFO.
struct ClientConn {
    addr: SocketAddr,
    phase: ClientPhase,
    stream: Option<TcpStream>,
    acc: FrameAccumulator,
    wbuf: Vec<u8>,
    wpos: usize,
    awaiting: VecDeque<Waiter>,
    dead: bool,
    last_activity: Instant,
}

impl ClientConn {
    fn new(addr: SocketAddr, now: Instant) -> ClientConn {
        ClientConn {
            addr,
            phase: ClientPhase::Connecting,
            stream: None,
            acc: FrameAccumulator::new(),
            wbuf: Vec::new(),
            wpos: 0,
            awaiting: VecDeque::new(),
            dead: false,
            last_activity: now,
        }
    }
}

pub(crate) fn run_loop(shared: Arc<Shared>) {
    let mut acceptors: Vec<Acceptor> = Vec::new();
    let mut servers: Vec<ServerConn> = Vec::new();
    let mut clients: Vec<ClientConn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // A dial or a new listener asks for a sweep in the next pass;
    // `sweep_at` is when the cadence sweep falls due.
    let mut sweep_now = false;
    let mut sweep_at = Instant::now();

    loop {
        let began = Instant::now();
        let mut dispatched: u64 = 0;
        let mut did_work = false;

        let stopping = shared.stop.load(Ordering::SeqCst);

        // Intake: adopt new listeners, queue new submissions.
        {
            let mut intake = lock_unpoisoned(&shared.intake);
            for (listener, service) in intake.listeners.drain(..) {
                acceptors.push(Acceptor { listener, service });
                did_work = true;
                sweep_now = true;
            }
            for sub in intake.submissions.drain(..) {
                did_work = true;
                if stopping {
                    sub.pending.resolve(&shared, Err(ReactorError::Closed));
                } else {
                    enqueue(&shared, &mut clients, sub, began);
                }
            }
        }

        if stopping {
            for conn in &mut clients {
                fail_all(&shared, conn, ReactorError::Closed);
            }
            break;
        }

        // Accept ready connections on every listener, when one can be
        // waiting.
        if sweep_now || began >= sweep_at {
            sweep_now = false;
            sweep_at = began + SWEEP_EVERY;
            did_work |= accept_all(&acceptors, &mut servers, began);
        }

        // Serve: read requests, dispatch inline, queue + flush replies.
        for conn in &mut servers {
            did_work |= pump_server(conn, &mut scratch, &mut dispatched);
        }

        // Clients: connect, write queued requests, read replies.
        for conn in &mut clients {
            did_work |= pump_client(&shared, conn, &mut scratch, &mut dispatched, &mut sweep_now);
        }

        // Timers: reply deadlines and idle closes.
        let now = Instant::now();
        for conn in &mut clients {
            did_work |= client_timers(&shared, conn, now);
        }
        for conn in &mut servers {
            if !conn.dead
                && conn.wpos == conn.wbuf.len()
                && now.duration_since(conn.last_activity) >= shared.cfg.idle_timeout
            {
                conn.dead = true;
                did_work = true;
            }
        }

        clients.retain(|c| !c.dead);
        servers.retain(|c| !c.dead);

        if dispatched > 0 {
            shared.metrics.wakeup_dispatch.observe(dispatched as f64);
        }
        if did_work {
            shared
                .metrics
                .loop_iteration
                .observe(began.elapsed().as_secs_f64());
        } else {
            let owed = clients.iter().any(|c| !c.awaiting.is_empty())
                || servers
                    .iter()
                    .any(|c| c.acc.buffered() > 0 || c.wpos < c.wbuf.len());
            let park = if owed {
                POLL
            } else {
                sweep_at.saturating_duration_since(now)
            };
            std::thread::park_timeout(park);
        }
    }
}

/// Accept every waiting connection on every listener. Returns whether
/// any arrived.
fn accept_all(acceptors: &[Acceptor], servers: &mut Vec<ServerConn>, now: Instant) -> bool {
    let mut accepted = false;
    for acceptor in acceptors {
        loop {
            match acceptor.listener.accept() {
                Ok((stream, _peer)) => {
                    accepted = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    servers.push(ServerConn {
                        stream,
                        service: Arc::clone(&acceptor.service),
                        acc: FrameAccumulator::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        draining: false,
                        dead: false,
                        last_activity: now,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    accepted
}

/// Route a submission onto its peer's connection, dialing one if none
/// is live.
fn enqueue(shared: &Shared, clients: &mut Vec<ClientConn>, sub: Submission, now: Instant) {
    let deadline = now + shared.cfg.reply_timeout;
    let waiter = Waiter {
        pending: sub.pending,
        deadline,
    };
    if let Some(conn) = clients.iter_mut().find(|c| c.addr == sub.addr && !c.dead) {
        conn.wbuf.extend_from_slice(&sub.bytes);
        conn.awaiting.push_back(waiter);
    } else {
        let mut conn = ClientConn::new(sub.addr, now);
        conn.wbuf.extend_from_slice(&sub.bytes);
        conn.awaiting.push_back(waiter);
        clients.push(conn);
    }
}

/// Resolve every outstanding waiter on `conn` with `error`.
fn fail_all(shared: &Shared, conn: &mut ClientConn, error: ReactorError) {
    while let Some(waiter) = conn.awaiting.pop_front() {
        waiter.pending.resolve(shared, Err(error.clone()));
    }
}

/// Flush as much of `wbuf` as the socket accepts. Returns whether any
/// bytes moved; sets `dead` on hard write errors.
fn flush(stream: &mut TcpStream, wbuf: &mut Vec<u8>, wpos: &mut usize, dead: &mut bool) -> bool {
    let mut progressed = false;
    while *wpos < wbuf.len() {
        match stream.write(&wbuf[*wpos..]) {
            Ok(0) => {
                *dead = true;
                break;
            }
            Ok(n) => {
                *wpos += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                *dead = true;
                break;
            }
        }
    }
    if !wbuf.is_empty() && *wpos == wbuf.len() {
        wbuf.clear();
        *wpos = 0;
    }
    progressed
}

fn pump_server(conn: &mut ServerConn, scratch: &mut [u8], dispatched: &mut u64) -> bool {
    if conn.dead {
        return false;
    }
    let mut progressed = flush(
        &mut conn.stream,
        &mut conn.wbuf,
        &mut conn.wpos,
        &mut conn.dead,
    );
    if conn.dead {
        return true;
    }
    if conn.draining {
        if conn.wpos == conn.wbuf.len() {
            conn.dead = true;
            return true;
        }
        return progressed;
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // Peer sent EOF: everything it asked for is either
                // answered below or already queued; drain and close.
                conn.draining = true;
                progressed = true;
                break;
            }
            Ok(n) => {
                progressed = true;
                conn.last_activity = Instant::now();
                conn.acc.feed(&scratch[..n]);
                loop {
                    match conn.acc.next_frame() {
                        Ok(Some((frame, _used))) => {
                            *dispatched += 1;
                            // Journal-before-reply: serve() runs to
                            // completion here — a JxpNode writes its
                            // Serve WAL record inside — before the
                            // reply bytes are queued for the socket.
                            match conn.service.serve(frame) {
                                Some(reply) => {
                                    conn.wbuf.extend_from_slice(&encode_frame(&reply));
                                }
                                None => {
                                    conn.draining = true;
                                    break;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Framing violation: no resync is possible,
                            // flush queued replies and close.
                            conn.draining = true;
                            break;
                        }
                    }
                }
                if conn.draining {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if !conn.dead {
        progressed |= flush(
            &mut conn.stream,
            &mut conn.wbuf,
            &mut conn.wpos,
            &mut conn.dead,
        );
        if conn.draining && !conn.dead && conn.wpos == conn.wbuf.len() {
            conn.dead = true;
        }
    }
    progressed
}

/// Pump one client connection. Sets `dialed` when it connects, so the
/// next pass sweeps the listeners for the other end.
fn pump_client(
    shared: &Shared,
    conn: &mut ClientConn,
    scratch: &mut [u8],
    dispatched: &mut u64,
    dialed: &mut bool,
) -> bool {
    if conn.dead {
        return false;
    }
    let mut progressed = false;
    if let ClientPhase::Connecting = conn.phase {
        let now = Instant::now();
        // Plain `TcpStream::connect`: on loopback (the only place this
        // reactor dials) it resolves synchronously — established or
        // refused — so the loop never blocks on it. The blocking
        // `connect_timeout` variant is forbidden here (`clippy.toml`
        // disallows it for this crate).
        match TcpStream::connect(conn.addr) {
            Ok(stream) => {
                progressed = true;
                *dialed = true;
                // Handshake: non-blocking + nodelay before any frame.
                if stream.set_nonblocking(true).is_err() {
                    fail_all(
                        shared,
                        conn,
                        ReactorError::Unreachable(format!("{}: handshake failed", conn.addr)),
                    );
                    conn.dead = true;
                    return true;
                }
                let _ = stream.set_nodelay(true);
                conn.stream = Some(stream);
                conn.phase = ClientPhase::Ready;
                conn.last_activity = now;
                // The reply clocks start at connect, not at submit.
                let deadline = now + shared.cfg.reply_timeout;
                for waiter in &mut conn.awaiting {
                    waiter.deadline = deadline;
                }
            }
            Err(e) => {
                fail_all(
                    shared,
                    conn,
                    ReactorError::Unreachable(format!("{}: {e}", conn.addr)),
                );
                conn.dead = true;
                return true;
            }
        }
    }

    // Take the stream out so the read loop below can touch the other
    // fields (accumulator, waiters) without aliasing it.
    let mut stream = conn
        .stream
        .take()
        .expect("a Ready client connection has a stream");
    progressed |= flush(&mut stream, &mut conn.wbuf, &mut conn.wpos, &mut conn.dead);
    if conn.dead {
        fail_all(
            shared,
            conn,
            ReactorError::Unreachable(format!("{}: connection closed while writing", conn.addr)),
        );
        return true;
    }
    loop {
        match stream.read(scratch) {
            Ok(0) => {
                progressed = true;
                if !conn.awaiting.is_empty() {
                    // EOF with requests outstanding: the peer stalled
                    // or restarted. The retry layer resubmits, which
                    // dials a fresh connection.
                    fail_all(
                        shared,
                        conn,
                        ReactorError::Unreachable(format!("{}: connection closed", conn.addr)),
                    );
                }
                conn.dead = true;
                break;
            }
            Ok(n) => {
                progressed = true;
                conn.last_activity = Instant::now();
                conn.acc.feed(&scratch[..n]);
                loop {
                    match conn.acc.next_frame() {
                        Ok(Some((frame, used))) => {
                            *dispatched += 1;
                            match conn.awaiting.pop_front() {
                                Some(waiter) => {
                                    waiter.pending.resolve(shared, Ok((frame, used as u64)))
                                }
                                None => {
                                    // A reply nobody asked for: the
                                    // stream is not trustworthy.
                                    conn.dead = true;
                                    break;
                                }
                            }
                            // Per-hop clock: the next pipelined reply
                            // gets a fresh budget.
                            if let Some(front) = conn.awaiting.front_mut() {
                                front.deadline = Instant::now() + shared.cfg.reply_timeout;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            fail_all(shared, conn, ReactorError::Wire(e));
                            conn.dead = true;
                            break;
                        }
                    }
                }
                if conn.dead {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                fail_all(
                    shared,
                    conn,
                    ReactorError::Unreachable(format!("{}: {e}", conn.addr)),
                );
                conn.dead = true;
                break;
            }
        }
    }
    conn.stream = Some(stream);
    progressed
}

/// Fire reply deadlines and idle closes for one client connection.
fn client_timers(shared: &Shared, conn: &mut ClientConn, now: Instant) -> bool {
    if conn.dead || !matches!(conn.phase, ClientPhase::Ready) {
        return false;
    }
    if let Some(front) = conn.awaiting.front() {
        if now >= front.deadline {
            // Giving up on the front reply desyncs the FIFO pairing,
            // so everything pipelined behind it fails with it; the
            // retry layer resubmits on a fresh connection.
            fail_all(shared, conn, ReactorError::Timeout);
            conn.dead = true;
            return true;
        }
    } else if now.duration_since(conn.last_activity) >= shared.cfg.idle_timeout {
        conn.dead = true;
        return true;
    }
    false
}
