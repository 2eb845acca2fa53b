//! Cooperative cancellation for long-running evaluations.
//!
//! The backtracking search is worst-case exponential, so a resident query
//! service needs a way to bound a pathological query's runtime. A
//! [`CancelToken`] is a cheaply clonable handle shared between the caller
//! (who cancels, or attaches a deadline) and the evaluation loops (who
//! poll). The hot-path cost is one relaxed atomic load per backtrack
//! step. Deadlines are folded into that same flag — the clock is only
//! consulted every [`DEADLINE_POLL_MASK`]+1 steps, and an expired deadline
//! stores into the cancelled flag so every other thread sharing the token
//! sees it at the next load.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Evaluation stopped early: the token was cancelled or its deadline
/// passed. Carries no payload — the caller holding the token knows which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("evaluation cancelled (deadline exceeded or caller cancelled)")
    }
}

impl std::error::Error for Cancelled {}

/// Poll the clock once per this many steps (power of two minus one, used
/// as a mask). At typical backtrack rates this bounds deadline overshoot
/// to well under a millisecond while keeping `Instant::now` off the hot
/// path.
///
/// A test depends on the value: `context_counts_saturate_where_they_outgrow_a_u64`
/// in `wdpt-core` lets an expired deadline through 201-poll searches and
/// stops in the assembly after them. A mask below 201 cancels those
/// searches first.
const DEADLINE_POLL_MASK: u32 = 1023;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// A shared token that never cancels — what the plain (non-`try_`)
    /// entry points thread through the same loops at zero branch cost
    /// beyond the relaxed load.
    pub fn never() -> &'static CancelToken {
        static NEVER: OnceLock<CancelToken> = OnceLock::new();
        NEVER.get_or_init(CancelToken::new)
    }

    /// Requests cancellation; every holder of the token observes it at its
    /// next poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Relaxed);
    }

    /// One relaxed load; does not consult the clock.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Relaxed)
    }

    /// The instant after which the token expires, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Checks the deadline against the clock now (not amortized), latching
    /// an expiry into the cancelled flag. Returns the cancelled state.
    pub fn poll_deadline(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The per-step poll for hot loops: a relaxed flag load every call,
    /// plus a clock check every [`DEADLINE_POLL_MASK`]+1 calls (amortized
    /// via the caller-owned `steps` counter).
    #[inline]
    pub fn should_stop(&self, steps: &mut u32) -> bool {
        if self.is_cancelled() {
            return true;
        }
        *steps = steps.wrapping_add(1);
        if *steps & DEADLINE_POLL_MASK == 0 {
            self.poll_deadline()
        } else {
            false
        }
    }

    /// `Err(Cancelled)` iff the token is cancelled or expired (consults
    /// the clock — use at loop boundaries, not per step).
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.poll_deadline() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        let mut steps = 0;
        for _ in 0..5000 {
            assert!(!t.should_stop(&mut steps));
        }
    }

    #[test]
    fn cancel_is_seen_by_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(u.check(), Err(Cancelled));
        let mut steps = 0;
        assert!(u.should_stop(&mut steps));
    }

    #[test]
    fn expired_deadline_latches() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // The flag itself is not set until a clock poll happens.
        assert!(t.poll_deadline());
        // ... after which the amortization-free path sees it too.
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn should_stop_reaches_the_clock() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        let mut steps = 0;
        let mut stopped = false;
        for _ in 0..=DEADLINE_POLL_MASK {
            if t.should_stop(&mut steps) {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "deadline was never polled within one mask period");
    }

    #[test]
    fn never_token_never_stops() {
        let t = CancelToken::never();
        assert!(!t.poll_deadline());
        assert!(t.check().is_ok());
    }
}
