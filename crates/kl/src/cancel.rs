//! Cooperative cancellation for long-running optimization loops.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the caller
//! that arms its budgets (a wall-clock deadline and a global KL pass
//! budget, both fixed when the token is made) and the inner loops that
//! poll it at *pass boundaries*. It trips only when one of those budgets
//! runs out.
//! Nothing is ever pre-empted mid-pass: a loop that observes cancellation
//! finishes nothing further, marks its outcome interrupted, and returns the
//! best state it had — which is what lets the detection pipeline degrade to
//! a well-formed partial report instead of aborting.
//!
//! The token records *why* it tripped ([`CancelReason`]) exactly once: the
//! first cause wins, later causes are ignored, so diagnostics stay stable
//! even when a deadline and a pass budget expire in the same window.

use std::sync::atomic::{AtomicI64, AtomicU8, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The global KL pass budget was exhausted.
    PassBudget,
}

const REASON_NONE: u8 = 0;
const REASON_DEADLINE: u8 = 1;
const REASON_PASS_BUDGET: u8 = 2;

/// Passes-left sentinel meaning "no pass budget configured".
const UNLIMITED: i64 = i64::MAX;

#[derive(Debug)]
struct Inner {
    /// The first trip cause; `REASON_NONE` while the token is live.
    reason: AtomicU8,
    deadline: Option<Instant>,
    passes_left: AtomicI64,
    /// How many times [`CancelToken::is_cancelled`] was polled. Scheduling-
    /// dependent (parallel sweeps poll once per claimed job), so it is only
    /// ever reported as a *volatile* metric, never a deterministic one.
    polls: AtomicU64,
}

/// Shared cooperative-cancellation handle (see module docs).
///
/// Cloning is cheap and all clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that trips with [`CancelReason::Deadline`] once `deadline`
    /// (counted from now) has passed, and with
    /// [`CancelReason::PassBudget`] once `passes` successful
    /// [`consume_pass`](CancelToken::consume_pass) calls are spent. `None`
    /// leaves that limit off; `CancelToken::new(None, None)` never trips.
    #[expect(
        clippy::disallowed_methods,
        reason = "the cancel token's deadline arithmetic is scheduling-volatile by nature and predates the obs crate"
    )]
    pub fn new(deadline: Option<Duration>, passes: Option<u64>) -> Self {
        let passes_left = passes.map_or(UNLIMITED, |p| i64::try_from(p).unwrap_or(UNLIMITED));
        CancelToken {
            inner: Arc::new(Inner {
                reason: AtomicU8::new(REASON_NONE),
                deadline: deadline.map(|d| Instant::now() + d),
                passes_left: AtomicI64::new(passes_left),
                polls: AtomicU64::new(0),
            }),
        }
    }

    fn trip(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Deadline => REASON_DEADLINE,
            CancelReason::PassBudget => REASON_PASS_BUDGET,
        };
        // First cause wins; later trips keep the original diagnosis.
        let _ = self.inner.reason.compare_exchange(
            REASON_NONE,
            code,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Consumes one unit of the pass budget. Returns `false` (and trips the
    /// token) when the budget is exhausted or the token is already tripped.
    pub fn consume_pass(&self) -> bool {
        if self.is_cancelled() {
            return false;
        }
        if self.inner.passes_left.load(Ordering::Acquire) == UNLIMITED {
            return true;
        }
        let prev = self.inner.passes_left.fetch_sub(1, Ordering::AcqRel);
        if prev <= 0 {
            self.trip(CancelReason::PassBudget);
            return false;
        }
        true
    }

    /// Whether the token has tripped. Polls the deadline as a side effect,
    /// so a passed deadline is observed here without any timer thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "the cancel token's deadline arithmetic is scheduling-volatile by nature and predates the obs crate"
    )]
    pub fn is_cancelled(&self) -> bool {
        self.inner.polls.fetch_add(1, Ordering::Relaxed);
        if self.inner.reason.load(Ordering::Acquire) != REASON_NONE {
            return true;
        }
        match self.inner.deadline {
            Some(at) if Instant::now() >= at => {
                self.trip(CancelReason::Deadline);
                true
            }
            _ => false,
        }
    }

    /// Time left until the armed deadline: `None` when no deadline is
    /// armed, `Duration::ZERO` once it has passed. Lets callers that block
    /// on external events (e.g. a master waiting on a worker response)
    /// bound their wait so a hang can never outlive the run budget.
    #[expect(
        clippy::disallowed_methods,
        reason = "the cancel token's deadline arithmetic is scheduling-volatile by nature and predates the obs crate"
    )]
    pub fn time_remaining(&self) -> Option<Duration> {
        self.inner.deadline.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// How many times [`is_cancelled`](CancelToken::is_cancelled) was
    /// polled across all clones of this token. The count depends on thread
    /// scheduling, so callers must report it only as a volatile metric.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// The first recorded trip cause, or `None` while untripped.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.inner.reason.load(Ordering::Acquire) {
            REASON_DEADLINE => Some(CancelReason::Deadline),
            REASON_PASS_BUDGET => Some(CancelReason::PassBudget),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new(None, None);
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert!(t.consume_pass(), "unlimited budget must never exhaust");
    }

    #[test]
    fn a_trip_is_seen_by_all_clones() {
        let t = CancelToken::new(None, Some(0));
        let clone = t.clone();
        assert!(!t.consume_pass());
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason(), Some(CancelReason::PassBudget));
    }

    #[test]
    fn pass_budget_exhausts_after_exact_count() {
        let t = CancelToken::new(None, Some(3));
        assert!(t.consume_pass());
        assert!(t.consume_pass());
        assert!(t.consume_pass());
        assert!(!t.consume_pass(), "fourth pass must be denied");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::PassBudget));
    }

    #[test]
    fn zero_pass_budget_denies_immediately() {
        let t = CancelToken::new(None, Some(0));
        assert!(!t.consume_pass());
        assert_eq!(t.reason(), Some(CancelReason::PassBudget));
    }

    #[test]
    fn elapsed_deadline_trips_on_poll() {
        let t = CancelToken::new(Some(Duration::ZERO), None);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn time_remaining_tracks_the_armed_deadline() {
        assert_eq!(CancelToken::new(None, None).time_remaining(), None, "no deadline armed");
        let t = CancelToken::new(Some(Duration::from_secs(3600)), None);
        let rem = t.time_remaining().expect("a deadline is armed");
        assert!(rem > Duration::from_secs(3500), "remaining {rem:?}");
        let passed = CancelToken::new(Some(Duration::ZERO), None);
        assert_eq!(passed.time_remaining(), Some(Duration::ZERO), "passed deadline saturates");
    }

    #[test]
    fn poll_count_is_shared_across_clones() {
        let t = CancelToken::new(None, None);
        assert_eq!(t.polls(), 0);
        let clone = t.clone();
        assert!(!t.is_cancelled());
        assert!(!clone.is_cancelled());
        assert_eq!(t.polls(), 2, "every clone's poll lands in one counter");
    }

    #[test]
    fn first_reason_is_kept() {
        let t = CancelToken::new(None, Some(0));
        assert!(!t.consume_pass());
        t.trip(CancelReason::Deadline);
        assert_eq!(t.reason(), Some(CancelReason::PassBudget));
    }
}
