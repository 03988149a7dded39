//! Resource budgets and the cooperative execution context that enforces them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::clock::{Clock, Deadline};

/// How often (in [`ExecContext::checkpoint`] calls) the wall clock and the
/// cancel flag are actually polled. Row and path-expansion counters are exact;
/// only the clock read is amortized.
const CHECK_EVERY: u64 = 256;

/// Which budget a violation tripped, carrying the configured budget value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Limit {
    /// Materialized row / binding budget.
    Rows(u64),
    /// Wall-clock budget in milliseconds.
    WallMs(u64),
    /// Property-path expansion budget (edges traversed during closure).
    PathExpansions(u64),
    /// The caller's [`CancelToken`] was triggered.
    Cancelled,
}

impl Limit {
    /// Short stable label, used for counters and JSON metadata.
    pub fn label(&self) -> &'static str {
        match self {
            Limit::Rows(_) => "rows",
            Limit::WallMs(_) => "wall_ms",
            Limit::PathExpansions(_) => "path_expansions",
            Limit::Cancelled => "cancelled",
        }
    }

    /// The configured budget value (0 for cancellation).
    pub fn budget(&self) -> u64 {
        match self {
            Limit::Rows(n) | Limit::WallMs(n) | Limit::PathExpansions(n) => *n,
            Limit::Cancelled => 0,
        }
    }
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Limit::Cancelled => write!(f, "cancelled"),
            other => write!(f, "{}={}", other.label(), other.budget()),
        }
    }
}

/// A typed record of a tripped budget: which limit, and what was observed at
/// the moment the check fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LimitViolation {
    /// The budget that tripped.
    pub limit: Limit,
    /// The observed value that exceeded it (elapsed ms for wall-clock).
    pub observed: u64,
}

impl fmt::Display for LimitViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limit {
            Limit::Cancelled => write!(f, "execution cancelled by caller"),
            limit => write!(
                f,
                "resource limit exceeded: {} (observed {})",
                limit, self.observed
            ),
        }
    }
}

/// Budgets for one query / answer execution. `Default` is fully unlimited.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock budget for the whole execution.
    pub wall: Option<Duration>,
    /// Maximum materialized rows/bindings at any evaluation stage.
    pub max_rows: Option<u64>,
    /// Maximum property-path expansions (edges traversed in closures).
    pub max_path_expansions: Option<u64>,
}

impl ResourceLimits {
    /// No budgets at all (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Set the wall-clock budget.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self
    }

    /// Set the materialized-row budget.
    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Set the path-expansion budget.
    pub fn with_max_path_expansions(mut self, expansions: u64) -> Self {
        self.max_path_expansions = Some(expansions);
        self
    }
}

/// The cooperative enforcement context threaded through an execution.
///
/// All state is atomic, so one `ExecContext` can be shared by reference
/// across the executor's scoped worker threads. Checks are designed to be
/// cheap enough for per-row call sites: counters are plain relaxed atomics
/// and the clock is only read every `CHECK_EVERY` (256) checkpoints.
#[derive(Debug)]
pub struct ExecContext {
    limits: ResourceLimits,
    cancel: CancelToken,
    clock: Clock,
    start_ns: u64,
    deadline: Option<Deadline>,
    path_expansions: AtomicU64,
    ticks: AtomicU64,
    truncation: Mutex<Option<LimitViolation>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new(ResourceLimits::unlimited())
    }
}

impl ExecContext {
    /// Context enforcing `limits` against the real monotonic clock.
    pub fn new(limits: ResourceLimits) -> Self {
        Self::with_clock(limits, Clock::default(), CancelToken::new())
    }

    /// Context with an injected clock and cancel token (deterministic tests).
    pub fn with_clock(limits: ResourceLimits, clock: Clock, cancel: CancelToken) -> Self {
        let deadline = limits.wall.map(|wall| Deadline::after(clock.clone(), wall));
        let start_ns = clock.now_ns();
        Self {
            limits,
            cancel,
            clock,
            start_ns,
            deadline,
            path_expansions: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            truncation: Mutex::new(None),
        }
    }

    /// A context that never trips (used for internal/reference evaluation).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// The budgets this context enforces.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// The cancel token observed by [`ExecContext::checkpoint`].
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Exact check of the materialized-row budget against `observed`.
    pub fn check_rows(&self, observed: usize) -> Result<(), LimitViolation> {
        if let Some(max) = self.limits.max_rows {
            if observed as u64 > max {
                return Err(LimitViolation {
                    limit: Limit::Rows(max),
                    observed: observed as u64,
                });
            }
        }
        Ok(())
    }

    /// Charge `n` path expansions and check the budget.
    pub fn note_path_expansions(&self, n: u64) -> Result<(), LimitViolation> {
        let total = self.path_expansions.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.limits.max_path_expansions {
            if total > max {
                return Err(LimitViolation {
                    limit: Limit::PathExpansions(max),
                    observed: total,
                });
            }
        }
        Ok(())
    }

    /// Total path expansions charged so far.
    pub fn path_expansions(&self) -> u64 {
        self.path_expansions.load(Ordering::Relaxed)
    }

    /// Amortized cancellation + deadline check for tight loops.
    ///
    /// The first call always polls, then every `CHECK_EVERY`-th (256th) call does;
    /// the rest are a single relaxed `fetch_add`.
    pub fn checkpoint(&self) -> Result<(), LimitViolation> {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        if tick % CHECK_EVERY == 0 {
            self.check_now()
        } else {
            Ok(())
        }
    }

    /// Immediate (non-amortized) cancellation + deadline check. Use at stage
    /// boundaries where the cost of a clock read is irrelevant.
    pub fn check_now(&self) -> Result<(), LimitViolation> {
        if self.cancel.is_cancelled() {
            return Err(LimitViolation {
                limit: Limit::Cancelled,
                observed: 0,
            });
        }
        if let (Some(deadline), Some(wall)) = (&self.deadline, self.limits.wall) {
            if deadline.expired() {
                let elapsed_ns = self.clock.now_ns().saturating_sub(self.start_ns);
                return Err(LimitViolation {
                    limit: Limit::WallMs(wall.as_millis() as u64),
                    observed: elapsed_ns / 1_000_000,
                });
            }
        }
        Ok(())
    }

    /// Record that a violation was absorbed by truncating results instead of
    /// failing the query (first reason wins).
    pub fn record_truncation(&self, violation: LimitViolation) {
        let mut slot = self.truncation.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(violation);
    }

    /// Take the recorded truncation reason, if any.
    pub fn take_truncation(&self) -> Option<LimitViolation> {
        self.truncation
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecContext::unlimited();
        assert!(ctx.check_rows(usize::MAX / 2).is_ok());
        assert!(ctx.note_path_expansions(1 << 40).is_ok());
        for _ in 0..10_000 {
            assert!(ctx.checkpoint().is_ok());
        }
    }

    #[test]
    fn row_budget_is_exact() {
        let ctx = ExecContext::new(ResourceLimits::unlimited().with_max_rows(10));
        assert!(ctx.check_rows(10).is_ok());
        let v = ctx.check_rows(11).unwrap_err();
        assert_eq!(v.limit, Limit::Rows(10));
        assert_eq!(v.observed, 11);
    }

    #[test]
    fn path_budget_accumulates() {
        let ctx = ExecContext::new(ResourceLimits::unlimited().with_max_path_expansions(100));
        assert!(ctx.note_path_expansions(60).is_ok());
        let v = ctx.note_path_expansions(60).unwrap_err();
        assert_eq!(v.limit, Limit::PathExpansions(100));
        assert_eq!(v.observed, 120);
    }

    #[test]
    fn manual_deadline_trips_checkpoint() {
        let clock = ManualClock::new();
        let ctx = ExecContext::with_clock(
            ResourceLimits::unlimited().with_wall(Duration::from_millis(3)),
            Clock::Manual(clock.clone()),
            CancelToken::new(),
        );
        assert!(ctx.check_now().is_ok());
        clock.advance(Duration::from_millis(4));
        let v = ctx.check_now().unwrap_err();
        assert_eq!(v.limit, Limit::WallMs(3));
    }

    #[test]
    fn zero_wall_budget_trips_first_checkpoint() {
        let ctx = ExecContext::new(ResourceLimits::unlimited().with_wall(Duration::ZERO));
        assert!(ctx.checkpoint().is_err());
    }

    #[test]
    fn cancellation_beats_deadline() {
        let ctx = ExecContext::new(ResourceLimits::unlimited());
        ctx.cancel_token().cancel();
        let v = ctx.check_now().unwrap_err();
        assert_eq!(v.limit, Limit::Cancelled);
    }

    #[test]
    fn truncation_first_reason_wins() {
        let ctx = ExecContext::unlimited();
        assert!(ctx.take_truncation().is_none());
        ctx.record_truncation(LimitViolation {
            limit: Limit::Rows(5),
            observed: 6,
        });
        ctx.record_truncation(LimitViolation {
            limit: Limit::WallMs(1),
            observed: 2,
        });
        let v = ctx.take_truncation().unwrap();
        assert_eq!(v.limit, Limit::Rows(5));
        assert!(ctx.take_truncation().is_none());
    }
}
