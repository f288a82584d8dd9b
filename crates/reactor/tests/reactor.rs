//! End-to-end reactor tests over real loopback sockets: request
//! multiplexing, FIFO pipelining, failure surfacing, the in-flight
//! accounting the cluster's acceptance gate reads, and bytes from
//! sockets the loop does not feed itself.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jxp_reactor::{FrameService, Reactor, ReactorConfig, ReactorError, ReactorMetrics};
use jxp_wire::{encode_frame, encoded_len, Frame, FrameAccumulator};

/// Replies to Hello with `node_id + 1000` so ordering mistakes show up
/// as wrong payloads, not just hangs.
struct Echo;

impl FrameService for Echo {
    fn serve(&self, frame: Frame) -> Option<Frame> {
        Some(echo(frame))
    }
}

fn echo(frame: Frame) -> Frame {
    match frame {
        Frame::Hello { node_id, num_pages } => Frame::Hello {
            node_id: node_id + 1000,
            num_pages,
        },
        other => other,
    }
}

/// Read one whole frame off a blocking stream, chunk by chunk: the
/// accumulator, not `read_exact`, finds the frame's end (rule N1).
/// Returns the frame and its encoded length.
fn read_frame(stream: &mut TcpStream) -> (Frame, usize) {
    let mut acc = FrameAccumulator::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(done) = acc.next_frame().unwrap() {
            return done;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the peer closed before a whole frame arrived");
        acc.feed(&chunk[..n]);
    }
}

/// Never replies: the reactor's view of a stalled peer.
struct Stall;

impl FrameService for Stall {
    fn serve(&self, _frame: Frame) -> Option<Frame> {
        None
    }
}

/// Blocks every serve call on a shared gate the test holds, freezing
/// the loop so submissions pile up and the in-flight gauge is exact.
struct Gated(Arc<Mutex<()>>);

impl FrameService for Gated {
    fn serve(&self, frame: Frame) -> Option<Frame> {
        #[expect(clippy::disallowed_methods, reason = "a poisoned gate fails the test")]
        let _open = self.0.lock().unwrap();
        Some(frame)
    }
}

fn quick_config() -> ReactorConfig {
    ReactorConfig {
        reply_timeout: Duration::from_millis(400),
        ..ReactorConfig::default()
    }
}

#[test]
fn request_roundtrips_through_a_listener() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Echo)).unwrap();

    let frame = Frame::Hello {
        node_id: 7,
        num_pages: 40,
    };
    let (reply, sent, received) = handle.request(addr, &frame).unwrap();
    assert_eq!(
        reply,
        Frame::Hello {
            node_id: 1007,
            num_pages: 40
        }
    );
    assert_eq!(sent, jxp_wire::encoded_len(&frame) as u64);
    assert_eq!(received, jxp_wire::encoded_len(&reply) as u64);
}

#[test]
fn hundreds_of_pipelined_requests_complete_in_fifo_order() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Echo)).unwrap();

    let tickets: Vec<_> = (0..300)
        .map(|i| {
            handle.submit(
                addr,
                &Frame::Hello {
                    node_id: i,
                    num_pages: i * 2,
                },
            )
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().unwrap();
        assert_eq!(
            reply,
            Frame::Hello {
                node_id: i as u64 + 1000,
                num_pages: i as u64 * 2,
            }
        );
    }
    assert!(reactor.peak_inflight() >= 1);
}

#[test]
fn requests_fan_out_across_many_listeners() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addrs: Vec<_> = (0..16)
        .map(|_| handle.listen(Arc::new(Echo)).unwrap())
        .collect();

    let tickets: Vec<_> = (0..160u64)
        .map(|i| {
            handle.submit(
                addrs[(i % 16) as usize],
                &Frame::Hello {
                    node_id: i,
                    num_pages: 1,
                },
            )
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket.wait().unwrap(),
            Frame::Hello {
                node_id: i as u64 + 1000,
                num_pages: 1
            }
        );
    }
}

#[test]
fn inflight_gauge_counts_submissions_until_resolution() {
    let gate = Arc::new(Mutex::new(()));
    let metrics = ReactorMetrics::detached();
    let reactor = Reactor::start(quick_config(), metrics.clone());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Gated(Arc::clone(&gate)))).unwrap();

    let tickets: Vec<_> = {
        // While the gate is held the loop freezes inside the first
        // serve call, so no submission can resolve: the gauge must
        // read exactly N and the peak must record it.
        #[expect(clippy::disallowed_methods, reason = "a poisoned gate fails the test")]
        let _hold = gate.lock().unwrap();
        let tickets: Vec<_> = (0..200u64)
            .map(|i| {
                handle.submit(
                    addr,
                    &Frame::Hello {
                        node_id: i,
                        num_pages: 0,
                    },
                )
            })
            .collect();
        assert_eq!(metrics.inflight.get(), 200.0);
        assert!(reactor.peak_inflight() >= 200);
        tickets
    };
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    assert_eq!(metrics.inflight.get(), 0.0);
    assert_eq!(metrics.inflight_peak.get(), 200.0);
}

#[test]
fn a_stalled_service_drains_the_connection_and_fails_the_waiters() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Stall)).unwrap();

    let err = handle
        .request(
            addr,
            &Frame::Hello {
                node_id: 1,
                num_pages: 1,
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, ReactorError::Unreachable(_)),
        "stall should surface as a closed connection, got {err:?}"
    );
}

#[test]
fn a_dead_peer_fails_unreachable_at_once() {
    let reactor = Reactor::start(ReactorConfig::default(), ReactorMetrics::detached());
    let handle = reactor.handle();
    // Bind then drop: the port is freshly refused, not black-holed.
    let addr = {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.local_addr().unwrap()
    };

    // A refused dial is not retried inside the reactor (the caller's
    // retry policy is the one loop), so each request fails after one
    // dial and no backoff: ten of them take far less than one reply
    // budget.
    let started = Instant::now();
    for node_id in 0..10 {
        let err = handle
            .request(
                addr,
                &Frame::Hello {
                    node_id,
                    num_pages: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(err, ReactorError::Unreachable(_)), "got {err:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "ten refused dials took {elapsed:?} to fail"
    );
}

#[test]
fn idle_connections_close_and_reopen_transparently() {
    let cfg = ReactorConfig {
        idle_timeout: Duration::from_millis(50),
        ..quick_config()
    };
    let reactor = Reactor::start(cfg, ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Echo)).unwrap();

    let frame = Frame::Hello {
        node_id: 3,
        num_pages: 3,
    };
    handle.request(addr, &frame).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    // The first connection idled out on both sides; the next request
    // must dial a fresh one without the caller noticing.
    let (reply, _, _) = handle.request(addr, &frame).unwrap();
    assert_eq!(
        reply,
        Frame::Hello {
            node_id: 1003,
            num_pages: 3
        }
    );
}

#[test]
fn submissions_after_shutdown_resolve_closed() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Echo)).unwrap();
    drop(reactor);

    let err = handle
        .request(
            addr,
            &Frame::Hello {
                node_id: 1,
                num_pages: 1,
            },
        )
        .unwrap_err();
    assert_eq!(err, ReactorError::Closed);
}

#[test]
fn concurrent_submitters_share_one_reactor() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let handle = reactor.handle();
    let addr = handle.listen(Arc::new(Echo)).unwrap();

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let handle = handle.clone();
            scope.spawn(move || {
                for i in 0..50u64 {
                    let frame = Frame::Hello {
                        node_id: t * 100 + i,
                        num_pages: t,
                    };
                    let (reply, _, _) = handle.request(addr, &frame).unwrap();
                    assert_eq!(
                        reply,
                        Frame::Hello {
                            node_id: t * 100 + i + 1000,
                            num_pages: t
                        }
                    );
                }
            });
        }
    });
}

#[test]
fn a_blocking_client_dialing_an_idle_reactor_is_answered() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let addr = reactor.handle().listen(Arc::new(Echo)).unwrap();
    // Let the loop adopt the listener, sweep it and park: the dial
    // below comes from no submit, so only the loop's own listener
    // cadence can find it.
    std::thread::sleep(Duration::from_millis(50));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = Frame::Hello {
        node_id: 21,
        num_pages: 5,
    };
    stream.write_all(&encode_frame(&frame)).unwrap();
    let (reply, used) = read_frame(&mut stream);
    assert_eq!(
        reply,
        Frame::Hello {
            node_id: 1021,
            num_pages: 5
        }
    );
    assert_eq!(used, encoded_len(&reply));
}

#[test]
fn a_late_reply_from_a_peer_outside_the_loop_resolves_its_ticket() {
    let reactor = Reactor::start(quick_config(), ReactorMetrics::detached());
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    // A peer on its own thread, which the loop cannot wake on: it
    // answers ≈ 20 ms after the request arrives, well inside the
    // 400 ms reply budget.
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (request, _) = read_frame(&mut stream);
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&encode_frame(&echo(request))).unwrap();
        // Hold the connection open until the client hangs up.
        let mut rest = [0u8; 64];
        while matches!(stream.read(&mut rest), Ok(n) if n > 0) {}
    });

    let frame = Frame::Hello {
        node_id: 5,
        num_pages: 9,
    };
    let ticket = reactor.handle().submit(addr, &frame);
    let (reply, sent, received) = ticket.wait_full().unwrap();
    let expected = Frame::Hello {
        node_id: 1005,
        num_pages: 9,
    };
    assert_eq!(reply, expected);
    assert_eq!(sent, encoded_len(&frame) as u64);
    assert_eq!(received, encoded_len(&expected) as u64);
    drop(reactor);
    peer.join().unwrap();
}
