//! Reactor-backed transport: hundreds of in-flight meetings per node
//! over one multiplexed connection per peer, driven by a single thread.
//!
//! [`ReactorTransport`] is the [`Transport`] over the reactor. Its
//! [`Transport::start`] submits without waiting, so the cluster's round
//! executor holds a whole round in flight from one driver thread.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use jxp_reactor::{FrameService, ReactorError, ReactorHandle, Ticket};
use jxp_telemetry::lock_unpoisoned;
use jxp_wire::Frame;

use crate::transport::{Exchange, FrameHandler, NodeId, Pending, Transport, TransportError};

/// Adapt a node-side [`FrameHandler`] (a `JxpNode` or an injector
/// wrapping one) to the reactor's serve interface. `handle` runs inline
/// on the loop thread, which is what preserves journal-before-reply:
/// the Serve WAL record is written inside `handle` before the reply
/// frame is queued on the socket.
pub struct HandlerService(pub Arc<dyn FrameHandler>);

impl FrameService for HandlerService {
    fn serve(&self, frame: Frame) -> Option<Frame> {
        self.0.handle(frame)
    }
}

fn exchange((reply, bytes_sent, bytes_received): (Frame, u64, u64)) -> Exchange {
    Exchange {
        reply,
        bytes_sent,
        bytes_received,
    }
}

fn map_err(e: ReactorError) -> TransportError {
    match e {
        ReactorError::Unreachable(detail) => TransportError::Unreachable(detail),
        ReactorError::Timeout => TransportError::Timeout,
        ReactorError::Wire(w) => TransportError::Wire(w),
        ReactorError::Closed => TransportError::Unreachable("reactor shut down".to_string()),
    }
}

/// Client side of the reactor: routes node ids to listener addresses,
/// multiplexing every request for a peer over one connection.
#[derive(Clone)]
pub struct ReactorTransport {
    inner: Arc<ReactorTransportInner>,
}

struct ReactorTransportInner {
    handle: ReactorHandle,
    routes: Mutex<HashMap<NodeId, SocketAddr>>,
}

impl ReactorTransport {
    /// Wrap a running reactor's handle.
    pub fn new(handle: ReactorHandle) -> ReactorTransport {
        ReactorTransport {
            inner: Arc::new(ReactorTransportInner {
                handle,
                routes: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Map `id` to the address of its reactor listener.
    pub fn add_route(&self, id: NodeId, addr: SocketAddr) {
        lock_unpoisoned(&self.inner.routes).insert(id, addr);
    }

    fn route(&self, peer: NodeId) -> Result<SocketAddr, TransportError> {
        lock_unpoisoned(&self.inner.routes)
            .get(&peer)
            .copied()
            .ok_or_else(|| TransportError::Unreachable(format!("no route to node {peer}")))
    }

    /// Queue a request without blocking; redeem the ticket later. This
    /// is what lets one driver thread hold hundreds of meetings open.
    pub fn submit(&self, peer: NodeId, frame: &Frame) -> Result<Ticket, TransportError> {
        let addr = self.route(peer)?;
        Ok(self.inner.handle.submit(addr, frame))
    }
}

impl Transport for ReactorTransport {
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
        self.start(peer, frame).wait()
    }

    fn start(&self, peer: NodeId, frame: &Frame) -> Pending {
        match self.submit(peer, frame) {
            Ok(ticket) => Pending::later(move || ticket.wait_full().map(exchange).map_err(map_err)),
            Err(unroutable) => Pending::ready(Err(unroutable)),
        }
    }
}
