//! Completion handles: the bridge between submitter threads and the
//! reactor loop.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use jxp_telemetry::lock_unpoisoned;
use jxp_wire::Frame;

use crate::{ReactorConfig, ReactorError, Shared};

/// A reply frame and its encoded length, as the accumulator read it.
pub(crate) type Reply = (Frame, u64);

pub(crate) enum PendingState {
    /// Submitted, unresolved.
    Waiting,
    /// Resolved by the loop; result not yet taken by the waiter.
    Done(Result<Reply, ReactorError>),
    /// The waiter took the result or gave up (backstop cap); a late
    /// loop resolution is dropped without touching the in-flight count
    /// again.
    Abandoned,
}

/// One request's completion slot. The in-flight count is decremented by
/// whichever side makes the `Waiting → Done/Abandoned` transition, so
/// each submission decrements exactly once.
pub(crate) struct Pending {
    state: Mutex<PendingState>,
    cv: Condvar,
}

impl Pending {
    pub(crate) fn new() -> Pending {
        Pending {
            state: Mutex::new(PendingState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// Loop side: deliver the result. No-op if the waiter already
    /// abandoned or the request was somehow resolved twice.
    pub(crate) fn resolve(&self, shared: &Shared, result: Result<Reply, ReactorError>) {
        let mut state = lock_unpoisoned(&self.state);
        if matches!(*state, PendingState::Waiting) {
            *state = PendingState::Done(result);
            shared.inflight_dec();
            self.cv.notify_all();
        }
    }
}

/// Receipt for a submitted request; redeem with [`Ticket::wait`] or
/// [`Ticket::wait_full`]. Tickets let one driver thread keep hundreds
/// of requests in flight and harvest them in any order.
pub struct Ticket {
    pending: Arc<Pending>,
    shared: Arc<Shared>,
    bytes_sent: u64,
}

impl Ticket {
    pub(crate) fn new(pending: Arc<Pending>, shared: Arc<Shared>, bytes_sent: u64) -> Ticket {
        Ticket {
            pending,
            shared,
            bytes_sent,
        }
    }

    /// Encoded size of the submitted request frame.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Block until the loop resolves this request.
    pub fn wait(self) -> Result<Frame, ReactorError> {
        self.wait_full().map(|(frame, _, _)| frame)
    }

    /// Like [`Ticket::wait`], but also returns `(bytes_sent,
    /// bytes_received)` alongside the reply.
    ///
    /// The wait carries a generous backstop cap (several reply budgets):
    /// every ordinary failure —
    /// refused connect, reply timeout, protocol violation, shutdown —
    /// is resolved by the loop long before the cap, so hitting it means
    /// the loop itself is wedged; the request is then abandoned and
    /// reported as [`ReactorError::Timeout`].
    pub fn wait_full(self) -> Result<(Frame, u64, u64), ReactorError> {
        let deadline = Instant::now() + wait_cap(&self.shared.cfg);
        let mut state = lock_unpoisoned(&self.pending.state);
        loop {
            // Move the reply out rather than clone it under the lock.
            match std::mem::replace(&mut *state, PendingState::Abandoned) {
                PendingState::Done(result) => {
                    return result.map(|(frame, received)| (frame, self.bytes_sent, received));
                }
                PendingState::Abandoned => return Err(ReactorError::Timeout),
                PendingState::Waiting => *state = PendingState::Waiting,
            }
            let now = Instant::now();
            if now >= deadline {
                *state = PendingState::Abandoned;
                self.shared.inflight_dec();
                return Err(ReactorError::Timeout);
            }
            state = match self.pending.cv.wait_timeout(state, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

fn wait_cap(cfg: &ReactorConfig) -> Duration {
    cfg.reply_timeout * 8 + Duration::from_secs(2)
}
