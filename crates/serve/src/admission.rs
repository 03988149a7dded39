//! Bounded admission between connection handlers and the worker pool.
//!
//! The controller is the server's overload valve. Its policy is two
//! watermarks over one queue:
//!
//! * depth < `degrade_depth` — admit at [`Grade::Normal`];
//! * `degrade_depth` ≤ depth < `queue_capacity` — admit at
//!   [`Grade::Degraded`] (the engine runs the request under the tenant's
//!   [`crate::Tenant::degraded_limits`]);
//! * depth = `queue_capacity` — **shed**: the job is handed straight back
//!   to the caller, who must still write a well-formed apology reply.
//!
//! On top of the global watermarks, [`submit`] enforces a
//! **per-key occupancy cap** (`per_tenant_cap`): one tenant class may
//! hold at most that many queued slots at once, so a free-tier flood
//! fills its own allowance and is shed with
//! [`ShedReason::TenantCap`] while the rest of the queue stays
//! available to other tenants. The cap counts *queued* jobs — a slot is
//! released the moment a worker dequeues the job.
//!
//! Shedding returns the job instead of an error so the caller cannot
//! forget it holds a client that is owed an answer — under overload the
//! protocol degrades, it never drops connections or emits protocol
//! errors.
//!
//! [`submit`]: AdmissionController::submit

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// The admission verdict attached to an accepted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    /// Queue is shallow: run under the tenant's full budget preset.
    Normal,
    /// Queue is past the degrade watermark: run under the tenant's
    /// degraded (tighter) budget preset.
    Degraded,
}

impl Grade {
    /// Stable label used in replies and reports.
    pub fn label(self) -> &'static str {
        match self {
            Grade::Normal => "normal",
            Grade::Degraded => "degraded",
        }
    }
}

/// Why a submission was handed back instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global queue is at capacity.
    QueueFull,
    /// The submitting key already holds `per_tenant_cap` queued slots.
    TenantCap,
    /// The controller has been closed (shutdown in progress).
    Closed,
}

impl ShedReason {
    /// Stable label used in replies and counters.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantCap => "tenant_cap",
            ShedReason::Closed => "closed",
        }
    }
}

/// Watermarks for the bounded queue.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Hard queue bound; submissions at this depth are shed.
    pub queue_capacity: usize,
    /// Depth at and above which admitted work is [`Grade::Degraded`].
    pub degrade_depth: usize,
    /// Most queued slots one key may hold at once
    /// ([`AdmissionController::submit`]). Clamped into
    /// `1..=queue_capacity`.
    pub per_tenant_cap: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_capacity: 64,
            degrade_depth: 16,
            // a quarter of the queue: one tenant class can saturate its
            // own allowance without starving the other three quarters
            per_tenant_cap: 16,
        }
    }
}

struct Queue<T> {
    jobs: VecDeque<(T, Grade, &'static str)>,
    /// Queued-slot count per submission key; entries are removed at zero.
    held: HashMap<&'static str, usize>,
    closed: bool,
}

/// A bounded MPMC work queue with degrade/shed watermarks.
///
/// `submit` never blocks — backpressure is expressed as degradation and
/// shedding, not as producer stalls (a stalled producer would hold a
/// client connection hostage). `next` blocks until a job or close.
pub struct AdmissionController<T> {
    queue: Mutex<Queue<T>>,
    wake: Condvar,
    policy: AdmissionPolicy,
}

impl<T> AdmissionController<T> {
    /// Build a controller with the given watermarks. `degrade_depth` is
    /// clamped into `1..=queue_capacity` and `queue_capacity` to at
    /// least 1, so every controller admits *some* normal-grade work.
    pub fn new(policy: AdmissionPolicy) -> Self {
        let capacity = policy.queue_capacity.max(1);
        let policy = AdmissionPolicy {
            queue_capacity: capacity,
            degrade_depth: policy.degrade_depth.clamp(1, capacity),
            per_tenant_cap: policy.per_tenant_cap.clamp(1, capacity),
        };
        AdmissionController {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                held: HashMap::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            policy,
        }
    }

    /// The active (clamped) policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Try to enqueue a job charged against `key`'s queued-slot
    /// allowance (`per_tenant_cap`). Returns the admission grade, or the
    /// job back with the [`ShedReason`] when the queue is full, the key's
    /// allowance is used up, or the controller is closed — either way the
    /// caller still owes the client a reply, and the apology can say
    /// *why*: a `tenant_cap` shed under a half-empty queue is the fairness
    /// valve working, not overload.
    pub fn submit(&self, job: T, key: &'static str) -> Result<Grade, (T, ShedReason)> {
        let mut q = self.queue.lock().unwrap();
        if q.closed {
            return Err((job, ShedReason::Closed));
        }
        if q.jobs.len() >= self.policy.queue_capacity {
            return Err((job, ShedReason::QueueFull));
        }
        let held = q.held.entry(key).or_insert(0);
        if *held >= self.policy.per_tenant_cap {
            return Err((job, ShedReason::TenantCap));
        }
        *held += 1;
        let grade = if q.jobs.len() >= self.policy.degrade_depth {
            Grade::Degraded
        } else {
            Grade::Normal
        };
        q.jobs.push_back((job, grade, key));
        drop(q);
        self.wake.notify_one();
        Ok(grade)
    }

    /// Block until a job is available (FIFO) or the controller closes.
    /// Jobs come back with the grade they were admitted at. `None` means
    /// closed *and* drained: the worker should exit. Dequeuing releases
    /// the job's per-tenant queued slot.
    pub fn next(&self) -> Option<(T, Grade)> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some((job, grade, key)) = q.jobs.pop_front() {
                if let Some(held) = q.held.get_mut(key) {
                    *held -= 1;
                    if *held == 0 {
                        q.held.remove(key);
                    }
                }
                return Some((job, grade));
            }
            if q.closed {
                return None;
            }
            q = self.wake.wait(q).unwrap();
        }
    }

    /// Current queue depth (advisory; races with concurrent activity).
    pub fn depth(&self) -> usize {
        self.queue.lock().unwrap().jobs.len()
    }

    /// Close the controller: future submissions are rejected, queued
    /// jobs still drain, and blocked workers wake to exit.
    pub fn close(&self) {
        self.queue.lock().unwrap().closed = true;
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(capacity: usize, degrade: usize) -> AdmissionController<u32> {
        AdmissionController::new(AdmissionPolicy {
            queue_capacity: capacity,
            degrade_depth: degrade,
            ..AdmissionPolicy::default()
        })
    }

    #[test]
    fn grades_follow_the_watermarks_deterministically() {
        // one key: its allowance is clamped to the whole queue
        let c = controller(4, 2);
        assert_eq!(c.submit(0, "t"), Ok(Grade::Normal)); // depth 0
        assert_eq!(c.submit(1, "t"), Ok(Grade::Normal)); // depth 1
        assert_eq!(c.submit(2, "t"), Ok(Grade::Degraded)); // depth 2 == degrade
        assert_eq!(c.submit(3, "t"), Ok(Grade::Degraded)); // depth 3
        assert_eq!(c.submit(4, "t"), Err((4, ShedReason::QueueFull))); // capacity: shed
        assert_eq!(c.depth(), 4);
        // Draining one slot readmits — at degraded grade (depth 3).
        assert_eq!(c.next(), Some((0, Grade::Normal)));
        assert_eq!(c.submit(5, "t"), Ok(Grade::Degraded));
    }

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let c = controller(8, 8);
        for i in 0..3 {
            c.submit(i, "t").unwrap();
        }
        c.close();
        assert_eq!(c.submit(99, "t"), Err((99, ShedReason::Closed)));
        assert_eq!(c.next(), Some((0, Grade::Normal)));
        assert_eq!(c.next(), Some((1, Grade::Normal)));
        assert_eq!(c.next(), Some((2, Grade::Normal)));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let c = std::sync::Arc::new(controller(2, 1));
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || c.next())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.close();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn degenerate_policies_are_clamped() {
        let c = controller(0, 0);
        assert_eq!(c.policy().queue_capacity, 1);
        assert_eq!(c.policy().degrade_depth, 1);
        assert_eq!(c.policy().per_tenant_cap, 1);
        assert_eq!(c.submit(1, "t"), Ok(Grade::Normal));
        assert_eq!(c.submit(2, "u"), Err((2, ShedReason::QueueFull)));
        let wide = controller(4, 100);
        assert_eq!(wide.policy().degrade_depth, 4);
        assert_eq!(wide.policy().per_tenant_cap, 4, "cap clamped to capacity");
    }

    #[test]
    fn tenant_cap_sheds_the_flooder_not_the_queue() {
        let c = AdmissionController::new(AdmissionPolicy {
            queue_capacity: 8,
            degrade_depth: 8,
            per_tenant_cap: 2,
        });
        // "free" fills its allowance, then is shed with TenantCap while
        // the global queue still has six slots free
        assert_eq!(c.submit(0, "free"), Ok(Grade::Normal));
        assert_eq!(c.submit(1, "free"), Ok(Grade::Normal));
        assert_eq!(c.submit(2, "free"), Err((2, ShedReason::TenantCap)));
        assert_eq!(c.depth(), 2);
        // another key is unaffected
        assert_eq!(c.submit(3, "pro"), Ok(Grade::Normal));
        // dequeuing a "free" job releases one slot for that key
        assert_eq!(c.next(), Some((0, Grade::Normal)));
        assert_eq!(c.submit(4, "free"), Ok(Grade::Normal));
        assert_eq!(c.submit(5, "free"), Err((5, ShedReason::TenantCap)));
    }

    #[test]
    fn keyed_sheds_report_queue_full_and_closed() {
        let c = AdmissionController::new(AdmissionPolicy {
            queue_capacity: 2,
            degrade_depth: 2,
            per_tenant_cap: 2,
        });
        assert_eq!(c.submit(0, "a"), Ok(Grade::Normal));
        assert_eq!(c.submit(1, "b"), Ok(Grade::Normal));
        // capacity, not the per-key cap, is the binding constraint here
        assert_eq!(c.submit(2, "c"), Err((2, ShedReason::QueueFull)));
        c.close();
        assert_eq!(c.submit(3, "a"), Err((3, ShedReason::Closed)));
    }
}
