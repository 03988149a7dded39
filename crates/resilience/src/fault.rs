//! Deterministic seeded fault injection.
//!
//! The serving paths call [`FaultInjector::should_fail`] at well-known
//! injection points; production code passes [`NoFaults`] (a unit struct whose
//! check inlines to `false`), while chaos tests pass a seeded [`FaultPlan`]
//! whose schedule is a pure function of `(seed, point, call index)` — the same
//! seed always trips the same calls, so degraded replies are reproducible.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where in a serving path a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Query parsing (text2sparql output, user-supplied SPARQL).
    Parse,
    /// Query execution against the graph store.
    Exec,
    /// Context retrieval (vector search, kg lookup).
    Retrieval,
    /// Language-model generation.
    Generation,
}

impl FaultPoint {
    /// All injection points, in schedule order.
    pub const ALL: [FaultPoint; 4] = [
        FaultPoint::Parse,
        FaultPoint::Exec,
        FaultPoint::Retrieval,
        FaultPoint::Generation,
    ];

    /// Stable label used in counters and span attributes.
    pub fn label(&self) -> &'static str {
        match self {
            FaultPoint::Parse => "parse",
            FaultPoint::Exec => "exec",
            FaultPoint::Retrieval => "retrieval",
            FaultPoint::Generation => "generation",
        }
    }

    fn index(&self) -> usize {
        match self {
            FaultPoint::Parse => 0,
            FaultPoint::Exec => 1,
            FaultPoint::Retrieval => 2,
            FaultPoint::Generation => 3,
        }
    }
}

/// A source of injected faults, consulted by the serving paths.
///
/// Implementations must be `Send + Sync`: the serve workers share one
/// engine, and with it the injector its pipelines hold.
pub trait FaultInjector: Send + Sync {
    /// Should the next operation at `point` fail?
    ///
    /// Each call advances the injector's schedule for that point, so the
    /// decision sequence is deterministic for a deterministic caller.
    fn should_fail(&self, point: FaultPoint) -> bool;
}

/// The production default: never inject anything.
///
/// `should_fail` is `#[inline]` and returns a constant, so the check
/// disappears on hot paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline]
    fn should_fail(&self, _point: FaultPoint) -> bool {
        false
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic seeded fault schedule.
///
/// For call `n` at point `p`, the plan fails iff
/// `splitmix64(seed ⊕ mix(p) ⊕ n) mod den < num` — a pure function of the
/// seed, so two runs with the same seed and the same call order observe the
/// identical fault schedule. Per-point call counters are atomic, but chaos
/// tests drive each path single-threaded, so the order (and therefore the
/// schedule) is reproducible.
///
/// ```
/// use llmkg_resilience::{FaultInjector, FaultPlan, FaultPoint};
/// let a = FaultPlan::seeded(7);
/// let b = FaultPlan::seeded(7);
/// for _ in 0..64 {
///     assert_eq!(
///         a.should_fail(FaultPoint::Exec),
///         b.should_fail(FaultPoint::Exec),
///     );
/// }
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate_num: u64,
    rate_den: u64,
    enabled: [bool; 4],
    counters: [AtomicU64; 4],
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan with all points enabled at the default 1-in-3 rate.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rate_num: 1,
            rate_den: 3,
            enabled: [true; 4],
            counters: Default::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// Restrict the plan to the given points (others never fail).
    pub fn only(mut self, points: &[FaultPoint]) -> Self {
        self.enabled = [false; 4];
        for p in points {
            self.enabled[p.index()] = true;
        }
        self
    }

    /// Override the failure rate to `num`-in-`den` calls (den must be > 0).
    pub fn rate(mut self, num: u64, den: u64) -> Self {
        assert!(den > 0, "fault rate denominator must be positive");
        self.rate_num = num;
        self.rate_den = den;
        self
    }

    /// A plan that fails *every* call at the given points.
    pub fn always(points: &[FaultPoint]) -> Self {
        Self::seeded(0).only(points).rate(1, 1)
    }

    /// How many faults this plan has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl FaultInjector for FaultPlan {
    fn should_fail(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let n = self.counters[i].fetch_add(1, Ordering::Relaxed);
        if !self.enabled[i] {
            return false;
        }
        let h = splitmix64(self.seed ^ ((i as u64 + 1) << 56) ^ n);
        let fail = h % self.rate_den < self.rate_num;
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fails() {
        for p in FaultPoint::ALL {
            assert!(!NoFaults.should_fail(p));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        for _ in 0..256 {
            for p in FaultPoint::ALL {
                assert_eq!(a.should_fail(p), b.should_fail(p));
            }
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "default rate should trip sometimes");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let mut diverged = false;
        for _ in 0..256 {
            if a.should_fail(FaultPoint::Generation) != b.should_fail(FaultPoint::Generation) {
                diverged = true;
            }
        }
        assert!(diverged);
    }

    #[test]
    fn only_restricts_points() {
        let plan = FaultPlan::always(&[FaultPoint::Parse]);
        for _ in 0..32 {
            assert!(plan.should_fail(FaultPoint::Parse));
            assert!(!plan.should_fail(FaultPoint::Exec));
            assert!(!plan.should_fail(FaultPoint::Generation));
        }
    }
}
