//! Admission control: a bounded job queue with deadline-aware,
//! per-tenant weighted fair dequeue, plus sliding-window tenant quotas.
//!
//! Admission is a three-gate policy. Gate one is *validation* (the
//! server rejects over-limit jobs outright — that lives in
//! [`crate::server::ServeCore`]); gate two is *quota*: a tenant with a
//! configured read budget that would exceed it over the sliding
//! simulated-time window is answered `QUOTA_EXCEEDED` (see
//! [`TenantQuota`]); gate three is *capacity*: the queue holds at most
//! `capacity` jobs across all tenants, and a full queue answers
//! `RETRY_LATER` instead of buffering unboundedly.
//!
//! Dequeue order composes two disciplines, both deterministic on the
//! simulated clock (no wall time, no randomness):
//!
//! 1. **EDF lane.** Jobs carrying a deadline whose deadline has not yet
//!    passed dequeue first, earliest absolute deadline first. Deadline
//!    ties fall back to the weighted-fair comparison below (priority,
//!    then lane `served`, then tenant name, then acceptance order). A
//!    job whose deadline has already passed loses its EDF privilege and
//!    degrades into the fair lanes — an overdue job must not starve
//!    everyone else's guarantees.
//! 2. **Weighted fair queuing** in the classic virtual-service form:
//!    every tenant lane accumulates `served += max(reads, 1) / weight`
//!    as its jobs are dispatched, and the next job always comes from
//!    the non-empty lane with the smallest `served` (ties broken by
//!    tenant name). Within a lane, higher `priority` dequeues first,
//!    FIFO within a priority. A tenant with weight 2 therefore gets
//!    twice the read throughput of a tenant with weight 1 under
//!    contention, and an idle tenant's first job never waits behind a
//!    busy tenant's backlog longer than one batch.
//!
//! EDF dispatches still charge the tenant's `served`, so a tenant that
//! burns its fairness share on urgent jobs pays for it in the fair
//! lanes afterwards — the two disciplines compose instead of fighting.

use std::collections::VecDeque;

use repute_genome::DnaSeq;
use repute_obs::Gauge;
use repute_prefilter::PrefilterMode;

use crate::envelope::MapperKind;

/// Default queue capacity of the daemon.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// The per-batch mapping configuration a job resolved to. Jobs sharing
/// a key may ride in one scheduler batch (one mapper instance maps the
/// whole batch); a key change forces a batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigKey {
    /// Effective error budget δ.
    pub delta: u32,
    /// Effective prefilter mode.
    pub prefilter: PrefilterMode,
    /// Effective mapper.
    pub mapper: MapperKind,
}

/// One admitted job, reads resolved, options within server limits.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Monotone acceptance sequence number (journal key).
    pub seq: u64,
    /// Client-chosen job id.
    pub id: String,
    /// Tenant of the fair queue.
    pub tenant: String,
    /// Effective per-batch configuration.
    pub key: ConfigKey,
    /// Simulated arrival time (admission clock).
    pub arrival_s: f64,
    /// Absolute simulated-time deadline (`arrival_s` + the envelope's
    /// relative `deadline_s`); `None` for best-effort jobs.
    pub deadline_s: Option<f64>,
    /// Intra-tenant priority (higher dequeues first).
    pub priority: u32,
    /// Read ids, parallel to `reads`.
    pub read_ids: Vec<String>,
    /// Read sequences.
    pub reads: Vec<DnaSeq>,
}

impl JobSpec {
    /// The fair-queue cost of dispatching this job: its read count, with
    /// empty jobs costing one unit so a stream of empty jobs still
    /// accrues service.
    pub fn cost(&self) -> f64 {
        self.reads.len().max(1) as f64
    }
}

#[derive(Debug)]
struct TenantLane {
    name: String,
    weight: f64,
    served: f64,
    jobs: VecDeque<JobSpec>,
}

/// The bounded deadline-aware weighted-fair job queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    lanes: Vec<TenantLane>,
    len: usize,
    depth: Gauge,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` jobs, with the given tenant
    /// weights (unlisted tenants get weight 1.0; non-positive weights
    /// are clamped to 1.0).
    pub fn new(capacity: usize, weights: &[(String, f64)]) -> AdmissionQueue {
        let mut queue = AdmissionQueue {
            capacity: capacity.max(1),
            lanes: Vec::new(),
            len: 0,
            depth: Gauge::new(),
        };
        for (name, weight) in weights {
            queue.lane(name).weight = if *weight > 0.0 { *weight } else { 1.0 };
        }
        queue
    }

    fn lane(&mut self, name: &str) -> &mut TenantLane {
        let at = match self.lanes.iter().position(|l| l.name == name) {
            Some(i) => i,
            None => {
                let at = self.lanes.partition_point(|l| l.name.as_str() < name);
                self.lanes.insert(
                    at,
                    TenantLane {
                        name: name.to_string(),
                        weight: 1.0,
                        served: 0.0,
                        jobs: VecDeque::new(),
                    },
                );
                at
            }
        };
        &mut self.lanes[at]
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when another `push` would exceed capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebounds the queue (clamped to at least one slot). Jobs already
    /// queued above a shrunk bound stay queued — capacity gates only
    /// *new* pushes, so device loss never drops accepted work.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    /// Removes and returns every queued job whose deadline has already
    /// passed at simulated time `now`, in acceptance (seq) order — the
    /// shed set of `--shed-overdue`. Best-effort jobs (no deadline) are
    /// never shed. The tenants' fair-queue `served` is not charged:
    /// shed jobs received no service.
    pub fn take_overdue(&mut self, now: f64) -> Vec<JobSpec> {
        let mut shed = Vec::new();
        for lane in &mut self.lanes {
            let mut kept = VecDeque::with_capacity(lane.jobs.len());
            for job in lane.jobs.drain(..) {
                if job.deadline_s.is_some_and(|d| d < now) {
                    shed.push(job);
                } else {
                    kept.push_back(job);
                }
            }
            lane.jobs = kept;
        }
        self.len -= shed.len();
        self.depth.set(self.len as u64);
        shed.sort_by_key(|j| j.seq);
        shed
    }

    /// The queue-depth gauge (current depth + high-water mark).
    pub fn depth(&self) -> Gauge {
        self.depth
    }

    /// Enqueues an accepted job in lane priority order (higher priority
    /// first, FIFO within a priority). `resumed` pushes bypass the
    /// capacity check: the job was accepted (and journaled) before a
    /// restart, so bouncing it now would break the
    /// at-most-one-batch-lost promise.
    ///
    /// Returns the job back when the queue is full (backpressure).
    #[allow(clippy::result_large_err)] // Err returns the caller's own job
    pub fn push(&mut self, job: JobSpec, resumed: bool) -> Result<(), JobSpec> {
        if !resumed && self.is_full() {
            return Err(job);
        }
        let priority = job.priority;
        let lane = self.lane(&job.tenant.clone());
        // Insert after every job with priority >= the new job's, so
        // equal priorities stay FIFO by acceptance order.
        let at = lane.jobs.partition_point(|j| j.priority >= priority);
        lane.jobs.insert(at, job);
        self.len += 1;
        self.depth.set(self.len as u64);
        Ok(())
    }

    /// The `(lane, index)` the dequeue policy picks next at simulated
    /// time `now`: the EDF lane first (earliest non-overdue deadline;
    /// ties by priority, then fair `served`, then tenant name, then
    /// acceptance order), falling back to weighted fair queuing.
    fn next_slot(&self, now: f64) -> Option<(usize, usize)> {
        // Deterministic EDF rank: deadline, negated priority, fair
        // `served`, lane index (= tenant name order), acceptance seq.
        type EdfRank = (f64, u32, f64, usize, u64);
        // EDF pass: every queued job with a live (non-overdue) deadline.
        let mut best: Option<(EdfRank, (usize, usize))> = None;
        for (li, lane) in self.lanes.iter().enumerate() {
            for (ji, job) in lane.jobs.iter().enumerate() {
                let Some(deadline) = job.deadline_s else {
                    continue;
                };
                if deadline < now {
                    continue; // overdue: degrades to the fair lanes
                }
                // Lower tuple wins; priority is negated via u32::MAX so
                // a higher priority sorts first. Full deterministic
                // order: deadline, priority, then the fair comparison
                // (served, lane index = tenant name order, seq).
                let rank = (deadline, u32::MAX - job.priority, lane.served, li, job.seq);
                let better = match &best {
                    None => true,
                    Some((b, _)) => {
                        use std::cmp::Ordering;
                        match rank.0.total_cmp(&b.0) {
                            Ordering::Less => true,
                            Ordering::Greater => false,
                            Ordering::Equal => match rank.1.cmp(&b.1) {
                                Ordering::Less => true,
                                Ordering::Greater => false,
                                Ordering::Equal => match rank.2.total_cmp(&b.2) {
                                    Ordering::Less => true,
                                    Ordering::Greater => false,
                                    Ordering::Equal => (rank.3, rank.4) < (b.3, b.4),
                                },
                            },
                        }
                    }
                };
                if better {
                    best = Some((rank, (li, ji)));
                }
            }
        }
        if let Some((_, slot)) = best {
            return Some(slot);
        }
        // Fair pass: smallest served, ties to the lexicographically
        // first tenant (lanes are kept name-sorted); the lane front is
        // its highest-priority, oldest job.
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.jobs.is_empty())
            .min_by(|(_, a), (_, b)| a.served.total_cmp(&b.served))
            .map(|(i, _)| (i, 0))
    }

    /// The job the policy would dispatch next at simulated time `now`,
    /// without removing it.
    pub fn peek_fair(&self, now: f64) -> Option<&JobSpec> {
        self.next_slot(now).map(|(li, ji)| &self.lanes[li].jobs[ji])
    }

    /// Dispatches the policy-next job at simulated time `now`, charging
    /// its cost to the tenant (EDF dispatches pay fair service too).
    pub fn pop_fair(&mut self, now: f64) -> Option<JobSpec> {
        let (li, ji) = self.next_slot(now)?;
        let job = self.lanes[li].jobs.remove(ji)?;
        let weight = self.lanes[li].weight;
        self.lanes[li].served += job.cost() / weight;
        self.len -= 1;
        self.depth.set(self.len as u64);
        Some(job)
    }

    /// Re-applies the service charge of a job dispatched before a
    /// restart, so a resumed queue continues with the exact fairness
    /// state (and therefore the exact batch composition) of the
    /// uninterrupted run.
    pub fn restore_served(&mut self, tenant: &str, cost: f64) {
        let lane = self.lane(tenant);
        lane.served += cost / lane.weight;
    }

    /// Overwrites a tenant lane's accumulated service (compacted-journal
    /// resume restores the exact pre-crash fairness state).
    pub fn set_served(&mut self, tenant: &str, served: f64) {
        self.lane(tenant).served = served;
    }

    /// Every lane's `(tenant, served)` fairness state, name-sorted —
    /// the snapshot journal compaction persists.
    pub fn served_snapshot(&self) -> Vec<(String, f64)> {
        self.lanes
            .iter()
            .map(|l| (l.name.clone(), l.served))
            .collect()
    }

    /// Every queued job in acceptance (seq) order — the live records
    /// journal compaction rewrites.
    pub fn queued_snapshot(&self) -> Vec<&JobSpec> {
        let mut jobs: Vec<&JobSpec> = self.lanes.iter().flat_map(|l| l.jobs.iter()).collect();
        jobs.sort_by_key(|j| j.seq);
        jobs
    }
}

/// Sliding-window per-tenant read budgets (admission gate two).
///
/// A tenant with a configured budget may admit at most `budget` reads
/// over any trailing `window_s` simulated seconds; the next job that
/// would cross the line is refused with a typed `QUOTA_EXCEEDED`
/// response (the job was *not* accepted; resubmit after the window
/// slides). Tenants without a budget are never quota-refused.
/// Deterministic: the window slides on the simulated clock only.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    window_s: f64,
    budgets: Vec<(String, u64)>,
    // (seq, tenant, admission time, reads) — pruned as the window
    // slides. Bookings carry the job seq so a resume can restore the
    // window without double-booking rewritten journal records.
    admitted: Vec<(u64, String, f64, u64)>,
}

impl TenantQuota {
    /// A quota gate over `budgets` (reads per tenant per window) with a
    /// trailing window of `window_s` simulated seconds. An empty budget
    /// table disables the gate entirely.
    pub fn new(window_s: f64, budgets: &[(String, u64)]) -> TenantQuota {
        TenantQuota {
            window_s: if window_s > 0.0 { window_s } else { f64::MAX },
            budgets: budgets.to_vec(),
            admitted: Vec::new(),
        }
    }

    fn budget_of(&self, tenant: &str) -> Option<u64> {
        self.budgets
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, b)| *b)
    }

    fn prune(&mut self, now: f64) {
        let horizon = now - self.window_s;
        self.admitted.retain(|(_, _, at, _)| *at > horizon);
    }

    /// Checks whether admitting `reads` reads for `tenant` at simulated
    /// time `now` stays inside the budget. `Ok(())` admits; `Err((used,
    /// budget))` reports the window usage that forced the refusal.
    /// Checking does not book — call [`TenantQuota::book`] on accept.
    pub fn check(&mut self, tenant: &str, reads: u64, now: f64) -> Result<(), (u64, u64)> {
        let Some(budget) = self.budget_of(tenant) else {
            return Ok(());
        };
        self.prune(now);
        let used: u64 = self
            .admitted
            .iter()
            .filter(|(_, name, _, _)| name == tenant)
            .map(|(_, _, _, n)| *n)
            .sum();
        if used + reads.max(1) > budget {
            return Err((used, budget));
        }
        Ok(())
    }

    /// Books an admitted job's reads into the tenant's window (empty
    /// jobs cost one read, mirroring the fair-queue cost).
    pub fn book(&mut self, seq: u64, tenant: &str, reads: u64, now: f64) {
        if self.budget_of(tenant).is_none() {
            return;
        }
        self.admitted
            .push((seq, tenant.to_string(), now, reads.max(1)));
    }

    /// The live window entries `(seq, tenant, admitted_at, reads)` at
    /// simulated time `now` — the snapshot journal compaction persists.
    pub fn snapshot(&mut self, now: f64) -> Vec<(u64, String, f64, u64)> {
        self.prune(now);
        self.admitted.clone()
    }

    /// Restores a window entry recovered from a journal. Idempotent per
    /// job: a seq already booked (e.g. present in a compaction state
    /// snapshot *and* re-derived from a rewritten Accepted record) is
    /// skipped.
    pub fn restore(&mut self, seq: u64, tenant: &str, at: f64, reads: u64) {
        if self.budget_of(tenant).is_none() {
            return;
        }
        if self.admitted.iter().any(|(s, _, _, _)| *s == seq) {
            return;
        }
        self.admitted
            .push((seq, tenant.to_string(), at, reads.max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64, tenant: &str, reads: usize) -> JobSpec {
        JobSpec {
            seq,
            id: format!("j{seq}"),
            tenant: tenant.to_string(),
            key: ConfigKey {
                delta: 5,
                prefilter: PrefilterMode::None,
                mapper: MapperKind::Repute,
            },
            arrival_s: 0.0,
            deadline_s: None,
            priority: 0,
            read_ids: (0..reads).map(|i| format!("r{i}")).collect(),
            reads: vec!["ACGT".parse().expect("seq"); reads],
        }
    }

    fn deadline_job(seq: u64, tenant: &str, deadline: f64, priority: u32) -> JobSpec {
        JobSpec {
            deadline_s: Some(deadline),
            priority,
            ..job(seq, tenant, 1)
        }
    }

    #[test]
    fn capacity_bounces_only_fresh_jobs() {
        let mut q = AdmissionQueue::new(2, &[]);
        assert!(q.push(job(0, "a", 1), false).is_ok());
        assert!(q.push(job(1, "a", 1), false).is_ok());
        assert!(q.is_full());
        let bounced = q.push(job(2, "a", 1), false).expect_err("full");
        assert_eq!(bounced.seq, 2);
        // Resumed pushes bypass the gate.
        assert!(q.push(job(3, "a", 1), true).is_ok());
        assert_eq!(q.len(), 3);
        assert_eq!(q.depth().high_water(), 3);
    }

    #[test]
    fn fair_dequeue_interleaves_by_weight() {
        let mut q = AdmissionQueue::new(64, &[("big".to_string(), 2.0)]);
        for i in 0..4 {
            q.push(job(i, "big", 4), false).expect("push");
            q.push(job(10 + i, "small", 4), false).expect("push");
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop_fair(0.0).map(|j| j.tenant)).collect();
        // weight 2 gets two dispatches per one of weight 1 once costs
        // accrue; ties go to the lexicographically first tenant.
        assert_eq!(
            order,
            ["big", "small", "big", "big", "small", "big", "small", "small"]
        );
    }

    #[test]
    fn fifo_within_a_tenant_and_restore_served() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(job(0, "a", 1), false).expect("push");
        q.push(job(1, "a", 1), false).expect("push");
        q.push(job(2, "b", 1), false).expect("push");
        // Pre-charge tenant a as if seq 0 had been dispatched before a
        // restart: b now goes first, then a's jobs in FIFO order.
        q.restore_served("a", 1.0);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair(0.0).map(|j| j.seq)).collect();
        assert_eq!(order, [2, 0, 1]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(job(0, "b", 2), false).expect("push");
        q.push(job(1, "a", 2), false).expect("push");
        let peeked = q.peek_fair(0.0).expect("job").seq;
        assert_eq!(q.pop_fair(0.0).expect("job").seq, peeked);
        assert_eq!(peeked, 1); // name tie-break: "a" before "b"
    }

    #[test]
    fn edf_lane_preempts_fair_order_until_overdue() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(job(0, "a", 4), false).expect("push");
        q.push(job(1, "b", 4), false).expect("push");
        q.push(deadline_job(2, "z", 5.0, 0), false).expect("push");
        q.push(deadline_job(3, "z", 2.0, 0), false).expect("push");
        // At t=0 both deadlines are live: earliest deadline first, even
        // though tenant z sorts last and arrived last.
        assert_eq!(q.peek_fair(0.0).expect("job").seq, 3);
        assert_eq!(q.pop_fair(0.0).expect("job").seq, 3);
        assert_eq!(q.pop_fair(0.0).expect("job").seq, 2);
        // EDF dispatches charged z's lane: the fair pass now prefers a/b.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair(0.0).map(|j| j.seq)).collect();
        assert_eq!(order, [0, 1]);
    }

    #[test]
    fn overdue_deadlines_degrade_to_fair() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(job(0, "a", 1), false).expect("push");
        q.push(deadline_job(1, "z", 2.0, 0), false).expect("push");
        // At t=10 the deadline has passed: plain fair order wins
        // (smallest served, name tie-break → tenant a first).
        assert_eq!(q.pop_fair(10.0).expect("job").seq, 0);
        assert_eq!(q.pop_fair(10.0).expect("job").seq, 1);
    }

    #[test]
    fn deadline_ties_break_by_priority_then_fairness() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(deadline_job(0, "b", 3.0, 1), false).expect("push");
        q.push(deadline_job(1, "a", 3.0, 5), false).expect("push");
        q.push(deadline_job(2, "a", 3.0, 5), false).expect("push");
        // Same deadline: priority 5 beats 1; within the tie, acceptance
        // order (seq) decides.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair(0.0).map(|j| j.seq)).collect();
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn priority_orders_within_a_lane() {
        let mut q = AdmissionQueue::new(64, &[]);
        let mut low = job(0, "a", 1);
        low.priority = 0;
        let mut high = job(1, "a", 1);
        high.priority = 9;
        let mut mid = job(2, "a", 1);
        mid.priority = 9;
        q.push(low, false).expect("push");
        q.push(high, false).expect("push");
        q.push(mid, false).expect("push");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair(0.0).map(|j| j.seq)).collect();
        assert_eq!(order, [1, 2, 0], "high priority first, FIFO within");
    }

    #[test]
    fn snapshots_are_seq_ordered_and_name_sorted() {
        let mut q = AdmissionQueue::new(64, &[("b".to_string(), 2.0)]);
        q.push(job(3, "b", 1), false).expect("push");
        q.push(job(1, "a", 1), false).expect("push");
        q.push(job(2, "a", 1), false).expect("push");
        let seqs: Vec<u64> = q.queued_snapshot().iter().map(|j| j.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        q.pop_fair(0.0).expect("job");
        let served = q.served_snapshot();
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].0, "a");
        assert!(served[0].1 > 0.0 || served[1].1 > 0.0);
    }

    #[test]
    fn take_overdue_sheds_only_expired_deadlines_in_seq_order() {
        let mut q = AdmissionQueue::new(64, &[]);
        q.push(job(0, "a", 2), false).expect("push");
        q.push(deadline_job(3, "z", 2.0, 0), false).expect("push");
        q.push(deadline_job(1, "b", 1.0, 0), false).expect("push");
        q.push(deadline_job(2, "b", 9.0, 0), false).expect("push");
        // At t=5 the deadlines at 1.0 and 2.0 have passed; the
        // best-effort job and the 9.0 deadline stay queued.
        let shed: Vec<u64> = q.take_overdue(5.0).iter().map(|j| j.seq).collect();
        assert_eq!(shed, [1, 3]);
        assert_eq!(q.len(), 2);
        // Nothing further to shed at the same instant.
        assert!(q.take_overdue(5.0).is_empty());
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_fair(5.0).map(|j| j.seq)).collect();
        assert_eq!(rest, [2, 0]);
    }

    #[test]
    fn set_capacity_rebounds_without_dropping_queued_jobs() {
        let mut q = AdmissionQueue::new(4, &[]);
        for i in 0..4 {
            q.push(job(i, "a", 1), false).expect("push");
        }
        q.set_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.is_full());
        assert_eq!(q.len(), 4, "shrinking never drops accepted work");
        assert!(q.push(job(9, "a", 1), false).is_err());
        q.set_capacity(0);
        assert_eq!(q.capacity(), 1, "capacity clamps to one slot");
        q.set_capacity(8);
        assert!(q.push(job(10, "a", 1), false).is_ok());
    }

    #[test]
    fn quota_window_slides_on_the_simulated_clock() {
        let mut quota = TenantQuota::new(10.0, &[("acme".to_string(), 8)]);
        assert!(quota.check("acme", 4, 0.0).is_ok());
        quota.book(0, "acme", 4, 0.0);
        assert!(quota.check("acme", 4, 1.0).is_ok());
        quota.book(1, "acme", 4, 1.0);
        // Budget spent: the 9th read in the window is refused with the
        // usage that caused it.
        assert_eq!(quota.check("acme", 1, 2.0), Err((8, 8)));
        // Unbudgeted tenants never trip the gate.
        assert!(quota.check("other", 1_000, 2.0).is_ok());
        // The window slides: at t=10.5 the t=0 booking has expired.
        assert!(quota.check("acme", 4, 10.5).is_ok());
        quota.book(2, "acme", 4, 10.5);
        assert_eq!(quota.check("acme", 4, 10.6), Err((8, 8)));
        // Snapshot only keeps live entries (t=0 and t=1 have expired).
        assert_eq!(quota.snapshot(11.5).len(), 1);
        // Restore dedups by seq (compacted-journal resume path).
        quota.restore(2, "acme", 11.0, 4);
        assert_eq!(quota.snapshot(11.5).len(), 1);
        quota.restore(3, "acme", 11.2, 4);
        assert_eq!(quota.check("acme", 1, 11.5), Err((8, 8)));
    }
}
