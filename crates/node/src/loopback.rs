//! Deterministic in-memory transport.
//!
//! Every request is encoded with [`jxp_wire::encode_frame`], "delivered"
//! by decoding the bytes on the responder side, handled, and the reply
//! travels back the same way — so loopback exchanges exercise the real
//! codec and report exact wire byte counts, without sockets or threads.
//! Stalls are injected one layer up, by wrapping a handler in a
//! [`crate::transport::FaultInjector`], the same way on every transport.

use crate::transport::{Exchange, FrameHandler, NodeId, Transport, TransportError};
use jxp_wire::{decode_frame, encode_frame, Frame};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared in-memory "network" connecting loopback nodes.
#[derive(Clone, Default)]
pub struct LoopbackNetwork {
    handlers: Arc<Mutex<HashMap<NodeId, Arc<dyn FrameHandler>>>>,
}

impl LoopbackNetwork {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry access that survives poisoning: a handler that panicked
    /// while the registry lock was held (it isn't held across handler
    /// calls, but defense in depth) must not wedge every later meeting.
    fn handlers(&self) -> std::sync::MutexGuard<'_, HashMap<NodeId, Arc<dyn FrameHandler>>> {
        jxp_telemetry::sync::lock_unpoisoned(&self.handlers)
    }

    /// Attach `handler` as the responder for `id` (replacing any previous).
    pub fn register(&self, id: NodeId, handler: Arc<dyn FrameHandler>) {
        self.handlers().insert(id, handler);
    }
}

impl Transport for LoopbackNetwork {
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
        // Resolve the handler under the lock, then drop it: the handler
        // may itself issue requests (a node answering while another
        // meeting is in flight) and must not deadlock against the
        // registry.
        let handler = self.handlers().get(&peer).cloned().ok_or_else(|| {
            TransportError::Unreachable(format!("no node {peer} on loopback network"))
        })?;

        // Round-trip through the real codec in both directions.
        let request_bytes = encode_frame(frame);
        let (delivered, _) = decode_frame(&request_bytes)?;
        let reply = handler.handle(delivered).ok_or(TransportError::Timeout)?;
        let reply_bytes = encode_frame(&reply);
        let (reply, _) = decode_frame(&reply_bytes)?;
        Ok(Exchange {
            reply,
            bytes_sent: request_bytes.len() as u64,
            bytes_received: reply_bytes.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_wire::encoded_len;

    struct Echo;

    impl FrameHandler for Echo {
        fn handle(&self, frame: Frame) -> Option<Frame> {
            match frame {
                Frame::Hello { node_id, num_pages } => Some(Frame::Hello {
                    node_id: node_id + 100,
                    num_pages,
                }),
                other => Some(other),
            }
        }
    }

    struct Mute;

    impl FrameHandler for Mute {
        fn handle(&self, _frame: Frame) -> Option<Frame> {
            None
        }
    }

    #[test]
    fn roundtrip_reports_exact_codec_bytes() {
        let net = LoopbackNetwork::new();
        net.register(7, Arc::new(Echo));
        let req = Frame::Hello {
            node_id: 1,
            num_pages: 42,
        };
        let ex = net.request(7, &req).unwrap();
        assert_eq!(
            ex.reply,
            Frame::Hello {
                node_id: 101,
                num_pages: 42
            }
        );
        assert_eq!(ex.bytes_sent, encoded_len(&req) as u64);
        assert_eq!(ex.bytes_received, encoded_len(&ex.reply) as u64);
    }

    const HELLO: Frame = Frame::Hello {
        node_id: 1,
        num_pages: 2,
    };

    #[test]
    fn unknown_peer_is_unreachable() {
        let net = LoopbackNetwork::new();
        let err = net.request(9, &HELLO).unwrap_err();
        assert!(matches!(err, TransportError::Unreachable(_)));
    }

    #[test]
    fn mute_handler_times_out() {
        let net = LoopbackNetwork::new();
        net.register(3, Arc::new(Mute));
        let err = net.request(3, &HELLO).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }
}
