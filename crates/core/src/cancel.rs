//! Cooperative cancellation for long-running searches.
//!
//! The greedy search (Alg 2) runs an unbounded-cost loop of priority-queue
//! pops whose individual steps can trigger NP-hard edit
//! distances. A serving layer cannot afford to let one request hold a worker
//! forever, so the search loops poll a [`CancelToken`] between pops and bail
//! out with [`Cancelled`] when its deadline has passed. (A streamed run's
//! consumer aborts through the pick callback instead, and shutdown drains
//! the queue rather than interrupting runs — neither needs a token.)
//!
//! Cancellation is *cooperative*: a search never stops mid-distance (the
//! engine call is the atomic unit of work), it stops at the next pop
//! boundary. That keeps every data structure consistent — the session
//! remains fully usable for the next run after a cancelled one.

use std::time::Instant;

/// A cancelled search. The partial answer is discarded: results are only
/// ever returned for complete, deterministic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("search cancelled (deadline exceeded or aborted by its consumer)")
    }
}

impl std::error::Error for Cancelled {}

/// A cancellation signal checked cooperatively by search loops: an optional
/// deadline, the [`Instant`] after which the search must stop (per-request
/// latency budgets).
///
/// [`CancelToken::never`] is the zero-cost default: no deadline, so
/// [`CancelToken::is_cancelled`] is one `None` check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels.
    pub fn never() -> Self {
        Self::default()
    }

    /// A token that cancels once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
        }
    }

    /// Whether the token has fired. Cheap enough to poll per queue pop.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `Err(Cancelled)` once the token has fired, for `?`-style early exit.
    #[inline]
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_never_cancels() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn past_deadline_cancels_immediately() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn future_deadline_does_not_cancel_yet() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }
}
