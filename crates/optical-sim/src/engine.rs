//! The streaming wavelength-grant engine.
//!
//! [`GrantEngine`] is the single execution engine behind every dependency-
//! aware optical run. The closed-set entry points
//! ([`crate::sim::RingSimulator::run_dag`],
//! [`crate::sim::RingSimulator::run_dag_jobs`] and
//! [`crate::sim::RingSimulator::run_dag_faulted`]) are thin drivers over it:
//! they inject the whole transfer DAG at time zero and pump the engine to
//! idle. Open-loop cluster services instead [`GrantEngine::inject`] each
//! arriving job's transfers into the *running* engine — the grant loop,
//! arbitration and event kernel are shared, so a stream whose arrivals are
//! all known up front is bit-exact with the closed path.
//!
//! # Faults
//!
//! [`GrantEngine::inject_faults`] schedules substrate-lowered
//! [`GrantFault`]s through the same kernel. A fault batch is applied after
//! the gates and completions coalesced at its instant (a transfer finishing
//! at exactly the fault instant is finished, not aborted) and before the
//! grant scan, so recovering transfers compete under the usual arbitration.
//! Aborts and failures surface through [`GrantEngine::drain_impacts`]. An
//! engine that never sees a fault runs exactly the clean arithmetic.
//!
//! # Determinism across injection times
//!
//! Two rules make "inject later" indistinguishable from "inject at zero":
//!
//! 1. **Order keys, not slot indices.** Completed transfers release their
//!    slots for reuse (bounded memory on million-arrival streams), so slot
//!    indices are not stable identifiers. Every tie-break that the closed
//!    path resolved by transfer index — the waiting-list sort and the
//!    arbitration scan — uses a monotonically increasing per-transfer
//!    `order` key instead. When everything is injected at once, `order`
//!    *is* the transfer index, so the closed path is unchanged.
//! 2. **Set-based batches.** The kernel coalesces every event at a bit-
//!    identical instant into one batch and the engine processes the batch
//!    as a set (sorted waiting-list inserts, commutative lane releases)
//!    before a single grant scan. Relative sequence order between events
//!    scheduled before vs. after an injection therefore cannot change the
//!    outcome — only the *set* of simultaneous events matters.
//!
//! The engine also supports [`GrantEngine::snapshot`] /
//! [`GrantEngine::restore`]: a versioned, serializable image of the slots,
//! lane occupancy, pending kernel events and clock, pinned byte-identical
//! by the stream checkpoint tests in `wrht-core`. Fault state (failed
//! transfers, stragglers, the impact log) is not part of a snapshot.

use serde::{Deserialize, Serialize};
use wrht_kernel::{EventId, EventKernel, FaultPolicy};

use crate::config::OpticalConfig;
use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::request::Transfer;
use crate::rwa::{Occupancy, Strategy};
use crate::timing::TimingModel;
use crate::topology::{Direction, RingTopology};
use crate::wavelength::Wavelength;

/// Version tag of [`GrantEngineSnapshot`]; bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One transfer submitted to [`GrantEngine::inject`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantTransfer {
    /// The transfer itself (route, payload, striping lanes).
    pub transfer: Transfer,
    /// Earliest start instant, **absolute** simulated seconds. Must not
    /// precede the engine clock at injection time.
    pub release_s: f64,
    /// Dependencies as indices **within the injected batch** (each `<` own
    /// position). Cross-batch dependencies are not expressible — a job's
    /// DAG is injected atomically.
    pub deps: Vec<usize>,
    /// Owning job slot (from [`GrantEngine::add_job`]); ignored (use 0)
    /// when the engine is not arbitrated.
    pub job: usize,
}

/// Completion record drained via [`GrantEngine::drain_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrantCompletion {
    /// The transfer's order key — for a single batch injected at time zero
    /// this equals the submission index.
    pub order: u64,
    /// Owning job slot.
    pub job: usize,
    /// Grant instant, seconds.
    pub start_s: f64,
    /// Completion instant, seconds.
    pub finish_s: f64,
    /// Payload bytes.
    pub bytes: u64,
    /// Striping lanes the transfer held.
    pub lanes: usize,
}

/// One substrate-lowered fault for [`GrantEngine::inject_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GrantFault {
    /// The lane admits no new lightpaths; every in-flight holder aborts and
    /// recovers per the engine's [`FaultPolicy`].
    LaneDown(Wavelength),
    /// The lane is repaired.
    LaneUp(Wavelength),
    /// Every unfinished transfer with an endpoint on the node fails
    /// permanently.
    NodeDown(usize),
    /// Grants touching the node at or after the instant last `slowdown`
    /// times longer.
    Straggle {
        /// Straggling node.
        node: usize,
        /// Duration multiplier, `>= 1`.
        slowdown: f64,
    },
}

/// A fault's effect on one transfer, drained via
/// [`GrantEngine::drain_impacts`] in the order the effects happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrantImpact {
    /// The transfer's order key.
    pub order: u64,
    /// Fault instant, seconds.
    pub at_s: f64,
    /// `true` when the transfer failed permanently; `false` for a
    /// mid-flight abort.
    pub failed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    Gate(usize),
    Complete(usize),
    Fault(GrantFault),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Slot {
    transfer: Transfer,
    path: LightPath,
    release_s: f64,
    missing: usize,
    dependents: Vec<usize>,
    job: usize,
    order: u64,
    assigned: Vec<Wavelength>,
    /// Grant instant; `None` until the transfer's lanes are granted.
    /// (An `Option`, not NaN, so snapshots survive JSON round-trips.)
    started: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct JobSlot {
    rank: u64,
    service: f64,
}

/// Versioned, serializable image of a [`GrantEngine`] mid-run.
///
/// Contains the full mutable state: transfer slots and free list, job
/// table, lane occupancy, waiting list, pending kernel events in pop order,
/// the clock and counters. Restoring re-schedules the pending events in
/// order into a fresh kernel — relative insertion order is all tie-breaking
/// observes, so the resumed run is byte-identical to an uninterrupted one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrantEngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    now: f64,
    events: u64,
    occ: Occupancy,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    jobs: Vec<JobSlot>,
    job_free: Vec<usize>,
    next_order: u64,
    waiting: Vec<usize>,
    pending: Vec<(f64, Ev)>,
    completions: Vec<GrantCompletion>,
    active: usize,
    peak: usize,
    peak_wavelength: usize,
    makespan: f64,
}

/// The dependency-aware wavelength-grant engine (see module docs).
#[derive(Debug)]
pub struct GrantEngine {
    topo: RingTopology,
    timing: TimingModel,
    wavelengths: usize,
    strategy: Strategy,
    arbitrated: bool,
    fair_share: bool,
    occ: Occupancy,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    jobs: Vec<JobSlot>,
    job_free: Vec<usize>,
    next_order: u64,
    queue: EventKernel<Ev>,
    waiting: Vec<usize>,
    completions: Vec<GrantCompletion>,
    events_base: u64,
    active: usize,
    peak: usize,
    peak_wavelength: usize,
    makespan: f64,
    // Per-step scratch, allocated once.
    batch: Vec<Ev>,
    scan: Vec<usize>,
    claimed: [Vec<bool>; 2],
    claimed_set: Vec<(usize, usize)>,
    granted: Vec<bool>,
    // Fault state, inert until `inject_faults`: per-slot pending completion
    // (in flight) and failure flags, per-node straggle factors (empty until
    // a straggle), the impact log and the FailJob scratch list.
    policy: FaultPolicy,
    complete_ev: Vec<Option<EventId>>,
    failed: Vec<bool>,
    straggle: Vec<f64>,
    impacts: Vec<GrantImpact>,
    fail_jobs: Vec<usize>,
}

impl GrantEngine {
    /// Fresh engine over the given optical deployment.
    ///
    /// `arbitrated` enables the cross-job grant order (per-job rank, and
    /// least-service-first when `fair_share` is also set); without it,
    /// waiters are served purely in order-key (DAG) order.
    ///
    /// # Errors
    /// Invalid configurations are rejected exactly as by
    /// [`crate::sim::RingSimulator::try_new`].
    pub fn new(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
    ) -> Result<Self> {
        config.validate()?;
        let topo = RingTopology::try_new(config.nodes)?;
        let nodes = topo.nodes();
        Ok(Self {
            timing: config.timing(),
            wavelengths: config.wavelengths,
            strategy,
            arbitrated,
            fair_share,
            occ: Occupancy::new(nodes, config.wavelengths),
            slots: Vec::new(),
            free: Vec::new(),
            jobs: Vec::new(),
            job_free: Vec::new(),
            next_order: 0,
            queue: EventKernel::new(),
            waiting: Vec::new(),
            completions: Vec::new(),
            events_base: 0,
            active: 0,
            peak: 0,
            peak_wavelength: 0,
            makespan: 0.0,
            batch: Vec::new(),
            scan: Vec::new(),
            claimed: [vec![false; nodes], vec![false; nodes]],
            claimed_set: Vec::new(),
            granted: Vec::new(),
            policy: FaultPolicy::FailJob,
            complete_ev: Vec::new(),
            failed: Vec::new(),
            straggle: Vec::new(),
            impacts: Vec::new(),
            fail_jobs: Vec::new(),
            topo,
        })
    }

    /// Register a job with the given static grant rank, returning its slot.
    /// Slots of [`GrantEngine::retire_job`]d jobs are reused.
    pub fn add_job(&mut self, rank: u64) -> usize {
        let slot = JobSlot { rank, service: 0.0 };
        if let Some(j) = self.job_free.pop() {
            self.jobs[j] = slot;
            j
        } else {
            self.jobs.push(slot);
            self.jobs.len() - 1
        }
    }

    /// Release a job slot for reuse. The caller must ensure every transfer
    /// of the job has completed (a finished job has no waiters, so its
    /// accumulated fair-share service can no longer influence any grant).
    pub fn retire_job(&mut self, job: usize) {
        debug_assert!(job < self.jobs.len());
        self.job_free.push(job);
    }

    /// Inject a transfer batch (one job's DAG) into the running engine.
    ///
    /// Dependencies are batch-local; release times are absolute and must
    /// not precede the engine clock. Returns nothing — completions surface
    /// through [`GrantEngine::drain_completions`], identified by order key
    /// and job.
    ///
    /// # Errors
    /// Same validation (and error values) as the closed DAG path: forward
    /// deps, non-finite/negative releases, unroutable transfers and lane
    /// demands exceeding the channel count are rejected before any state
    /// changes.
    pub fn inject(&mut self, transfers: &[GrantTransfer]) -> Result<()> {
        let now = self.queue.now();
        let mut paths: Vec<LightPath> = Vec::with_capacity(transfers.len());
        for (i, t) in transfers.iter().enumerate() {
            if t.deps.iter().any(|&d| d >= i) {
                return Err(OpticalError::BadConfig(
                    "dependency must precede its transfer",
                ));
            }
            if !t.release_s.is_finite() || t.release_s < 0.0 {
                return Err(OpticalError::BadConfig(
                    "release time must be finite and >= 0",
                ));
            }
            if t.release_s < now {
                return Err(OpticalError::BadConfig(
                    "release time must not precede the engine clock",
                ));
            }
            if self.arbitrated && t.job >= self.jobs.len() {
                return Err(OpticalError::BadConfig(
                    "job tag out of range of the rank table",
                ));
            }
            let path = t.transfer.resolve(&self.topo)?;
            if t.transfer.lanes > self.wavelengths {
                return Err(OpticalError::WavelengthsExhausted {
                    available: self.wavelengths,
                    requested: t.transfer.lanes,
                    step: 0,
                });
            }
            paths.push(path);
        }

        let mut ids: Vec<usize> = Vec::with_capacity(transfers.len());
        for (t, path) in transfers.iter().zip(paths) {
            let order = self.next_order;
            self.next_order += 1;
            let slot = Slot {
                transfer: t.transfer.clone(),
                path,
                release_s: t.release_s,
                missing: t.deps.len(),
                dependents: Vec::new(),
                job: t.job,
                order,
                assigned: Vec::new(),
                started: None,
            };
            let id = if let Some(id) = self.free.pop() {
                self.slots[id] = Some(slot);
                id
            } else {
                self.slots.push(Some(slot));
                self.granted.push(false);
                self.complete_ev.push(None);
                self.failed.push(false);
                self.slots.len() - 1
            };
            ids.push(id);
        }
        for (bi, t) in transfers.iter().enumerate() {
            let id = ids[bi];
            for &d in &t.deps {
                self.slots[ids[d]]
                    .as_mut()
                    .expect("freshly injected slot")
                    .dependents
                    .push(id);
            }
            if t.deps.is_empty() {
                self.queue
                    .schedule_at(t.release_s, Ev::Gate(id))
                    .expect("validated release time");
            }
        }
        Ok(())
    }

    /// Schedule faults, each at its absolute instant; faults sharing an
    /// instant apply in slice order. `policy` decides how aborted and
    /// failed transfers recover (see [`FaultPolicy`]).
    ///
    /// # Errors
    /// A fault instant that is non-finite or precedes the engine clock.
    pub fn inject_faults(
        &mut self,
        faults: &[(f64, GrantFault)],
        policy: FaultPolicy,
    ) -> Result<()> {
        self.policy = policy;
        for &(at_s, fault) in faults {
            self.queue
                .schedule_at(at_s, Ev::Fault(fault))
                .map_err(|_| {
                    OpticalError::BadConfig(
                        "fault instant must be finite and not precede the clock",
                    )
                })?;
        }
        Ok(())
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Process the next event batch (every event at the next bit-identical
    /// instant), apply its faults and run one grant scan. Returns the batch
    /// instant, or `None` when the engine is idle.
    ///
    /// # Errors
    /// A `RetryAfter` re-gate whose instant overflows.
    pub fn step(&mut self) -> Result<Option<f64>> {
        self.batch.clear();
        let Some(now) = self.queue.pop_batch(&mut self.batch) else {
            return Ok(None);
        };
        // The kernel coalesces every event at this exact instant before
        // granting: cross-job arbitration must see all simultaneous waiters
        // (and all simultaneously freed wavelengths) together. Completes
        // scheduled *by* the grant scan below land in a later batch at the
        // same clock, which is fine.
        let mut faulted = false;
        for k in 0..self.batch.len() {
            match self.batch[k] {
                Ev::Gate(id) => {
                    if !self.failed[id] {
                        self.enqueue_waiting(id);
                    }
                }
                Ev::Complete(id) => self.complete(id, now),
                Ev::Fault(_) => faulted = true,
            }
        }
        if faulted {
            self.apply_faults(now)?;
        }
        self.grant_scan();
        Ok(Some(now))
    }

    /// Apply the batch's faults in batch order, after its completions.
    fn apply_faults(&mut self, now: f64) -> Result<()> {
        for k in 0..self.batch.len() {
            let Ev::Fault(fault) = self.batch[k] else {
                continue;
            };
            match fault {
                GrantFault::LaneDown(lambda) => {
                    self.occ.set_lane_down(lambda);
                    for id in 0..self.slots.len() {
                        let holds = self.complete_ev[id].is_some()
                            && self.slots[id]
                                .as_ref()
                                .is_some_and(|s| s.assigned.contains(&lambda));
                        if !holds {
                            continue;
                        }
                        self.abort(id, now);
                        match self.policy {
                            FaultPolicy::FailJob => self.fail_job_of(id),
                            FaultPolicy::RetryAfter(backoff) => {
                                self.queue
                                    .schedule_at(now + backoff, Ev::Gate(id))
                                    .map_err(|_| {
                                        OpticalError::BadConfig("retry instant must be finite")
                                    })?;
                            }
                            FaultPolicy::Replan => self.enqueue_waiting(id),
                        }
                    }
                }
                GrantFault::LaneUp(lambda) => self.occ.set_lane_up(lambda),
                GrantFault::NodeDown(node) => {
                    // Retrying a dead endpoint is futile: every unfinished
                    // transfer touching the node fails. Order-key order lets
                    // the failure cascade through dependents that also touch
                    // the node in one sweep.
                    let mut hit: Vec<(u64, usize)> = (0..self.slots.len())
                        .filter_map(|id| {
                            let s = self.slots[id].as_ref()?;
                            let touches = s.transfer.src.0 == node || s.transfer.dst.0 == node;
                            (touches && !self.failed[id]).then_some((s.order, id))
                        })
                        .collect();
                    hit.sort_unstable();
                    for (_, id) in hit {
                        if self.complete_ev[id].is_some() {
                            self.abort(id, now);
                        }
                        self.fail(id, now);
                        if self.policy == FaultPolicy::FailJob {
                            self.fail_job_of(id);
                        } else {
                            let slot = self.slots[id].as_mut().expect("failed slot is live");
                            let dependents = std::mem::take(&mut slot.dependents);
                            self.release_dependents(&dependents, now);
                        }
                    }
                }
                GrantFault::Straggle { node, slowdown } => {
                    if self.straggle.is_empty() {
                        self.straggle = vec![1.0; self.topo.nodes()];
                    }
                    self.straggle[node] = self.straggle[node].max(slowdown);
                }
            }
        }
        if !self.fail_jobs.is_empty() {
            for id in 0..self.slots.len() {
                let Some(job) = self.slots[id].as_ref().map(|s| s.job) else {
                    continue;
                };
                if !self.failed[id] && self.fail_jobs.contains(&job) {
                    if self.complete_ev[id].is_some() {
                        self.stop(id);
                    }
                    self.fail(id, now);
                }
            }
            self.fail_jobs.clear();
        }
        let failed = &self.failed;
        self.waiting.retain(|&id| !failed[id]);
        Ok(())
    }

    /// Cancel an in-flight transfer's completion and free its lanes.
    fn stop(&mut self, id: usize) {
        let ev = self.complete_ev[id]
            .take()
            .expect("stopped slot is in flight");
        self.queue.cancel(ev);
        let slot = self.slots[id].as_mut().expect("in-flight slot is live");
        for &lambda in &slot.assigned {
            self.occ.release(&slot.path, lambda);
        }
        slot.assigned.clear();
        slot.started = None;
        self.active -= 1;
    }

    /// Stop an in-flight transfer and log the abort.
    fn abort(&mut self, id: usize, now: f64) {
        self.stop(id);
        self.log_impact(id, now, false);
    }

    /// Mark a transfer permanently failed and log it.
    fn fail(&mut self, id: usize, now: f64) {
        self.failed[id] = true;
        self.log_impact(id, now, true);
    }

    fn log_impact(&mut self, id: usize, at_s: f64, failed: bool) {
        let order = self.slots[id]
            .as_ref()
            .expect("impacted slot is live")
            .order;
        self.impacts.push(GrantImpact {
            order,
            at_s,
            failed,
        });
    }

    fn fail_job_of(&mut self, id: usize) {
        let job = self.slots[id].as_ref().expect("impacted slot is live").job;
        self.fail_jobs.push(job);
    }

    /// Insert `id` into the waiting list, keeping it sorted by order key.
    fn enqueue_waiting(&mut self, id: usize) {
        let ord = self.slots[id].as_ref().expect("gated slot is live").order;
        let slots = &self.slots;
        let pos = self
            .waiting
            .partition_point(|&w| slots[w].as_ref().expect("waiting slot is live").order < ord);
        self.waiting.insert(pos, id);
    }

    fn complete(&mut self, id: usize, now: f64) {
        // The slot is retired here — its only two events (one gate, one
        // completion) have both fired, and dependents hold no references
        // past the `missing` decrement below — so the slot count tracks
        // *live* transfers, not total transfers ever injected.
        let slot = self.slots[id].take().expect("completed slot is live");
        self.free.push(id);
        for &lambda in &slot.assigned {
            self.occ.release(&slot.path, lambda);
        }
        self.makespan = self.makespan.max(now);
        self.active -= 1;
        self.complete_ev[id] = None;
        self.release_dependents(&slot.dependents, now);
        self.completions.push(GrantCompletion {
            order: slot.order,
            job: slot.job,
            start_s: slot.started.unwrap_or(0.0),
            finish_s: now,
            bytes: slot.transfer.bytes,
            lanes: slot.transfer.lanes,
        });
    }

    /// Drop one missing edge from each dependent, gating those that reach
    /// zero (failed dependents stay put).
    fn release_dependents(&mut self, dependents: &[usize], now: f64) {
        for &dep in dependents {
            let d = self.slots[dep].as_mut().expect("dependent slot is live");
            d.missing -= 1;
            if d.missing == 0 && !self.failed[dep] {
                let rel = d.release_s;
                if rel <= now {
                    self.enqueue_waiting(dep);
                } else {
                    self.queue
                        .schedule_at(rel, Ev::Gate(dep))
                        .expect("validated release time after now");
                }
            }
        }
    }

    /// Start every waiter that now fits. Scan order is order-key (DAG)
    /// order, or under arbitration least-served / lowest-ranked job first
    /// with order-key tie-breaks. Segments of waiters that do NOT fit are
    /// claimed so later waiters cannot overtake them on a shared span.
    fn grant_scan(&mut self) {
        let Self {
            slots,
            jobs,
            occ,
            queue,
            waiting,
            scan,
            claimed,
            claimed_set,
            granted,
            complete_ev,
            straggle,
            active,
            peak,
            peak_wavelength,
            makespan: _,
            timing,
            strategy,
            arbitrated,
            fair_share,
            ..
        } = self;
        scan.clear();
        scan.extend_from_slice(waiting);
        if *arbitrated {
            scan.sort_by(|&x, &y| {
                let sx = slots[x].as_ref().expect("waiting slot is live");
                let sy = slots[y].as_ref().expect("waiting slot is live");
                let (vx, vy) = if *fair_share {
                    (jobs[sx.job].service, jobs[sy.job].service)
                } else {
                    (0.0, 0.0)
                };
                vx.total_cmp(&vy)
                    .then(jobs[sx.job].rank.cmp(&jobs[sy.job].rank))
                    .then(sx.order.cmp(&sy.order))
            });
        }
        let mut any_granted = false;
        for &id in scan.iter() {
            let slot = slots[id].as_mut().expect("waiting slot is live");
            let d = usize::from(slot.path.direction == Direction::CounterClockwise);
            let overtakes = slot.path.segments.iter().any(|&s| claimed[d][s]);
            if !overtakes {
                if let Ok(lanes) = occ.assign(&slot.path, slot.transfer.lanes, *strategy) {
                    slot.assigned = lanes;
                    let mut dur = timing.transfer_time(
                        slot.transfer.bytes,
                        slot.transfer.lanes,
                        slot.path.hops(),
                    );
                    if !straggle.is_empty() {
                        let slow = straggle[slot.transfer.src.0].max(straggle[slot.transfer.dst.0]);
                        if slow > 1.0 {
                            dur *= slow;
                        }
                    }
                    slot.started = Some(queue.now());
                    complete_ev[id] = Some(
                        queue
                            .schedule_in(dur, Ev::Complete(id))
                            .expect("transfer duration is a finite forward delay"),
                    );
                    *active += 1;
                    *peak = (*peak).max(*active);
                    *peak_wavelength = (*peak_wavelength).max(occ.peak_wavelengths_used());
                    if *arbitrated {
                        jobs[slot.job].service += dur * slot.transfer.lanes as f64;
                    }
                    granted[id] = true;
                    any_granted = true;
                    continue;
                }
            }
            for &s in &slot.path.segments {
                if !claimed[d][s] {
                    claimed[d][s] = true;
                    claimed_set.push((d, s));
                }
            }
        }
        if any_granted {
            waiting.retain(|&id| {
                let g = granted[id];
                if g {
                    granted[id] = false;
                }
                !g
            });
        }
        for &(d, s) in claimed_set.iter() {
            claimed[d][s] = false;
        }
        claimed_set.clear();
    }

    /// Append and clear the accumulated completion records.
    pub fn drain_completions(&mut self, out: &mut Vec<GrantCompletion>) {
        out.append(&mut self.completions);
    }

    /// Append and clear the accumulated fault impacts.
    pub fn drain_impacts(&mut self, out: &mut Vec<GrantImpact>) {
        out.append(&mut self.impacts);
    }

    /// Current engine clock (timestamp of the last processed batch).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Events processed so far, including any before a snapshot/restore.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events_base + self.queue.events_processed()
    }

    /// Number of live (injected, not yet completed) transfer slots.
    #[must_use]
    pub fn live_transfers(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of pending kernel events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Completion time of the last completed transfer, seconds.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Peak number of concurrently active transfers.
    #[must_use]
    pub fn peak_concurrency(&self) -> usize {
        self.peak
    }

    /// Highest wavelength index in use at any instant, plus one.
    #[must_use]
    pub fn peak_wavelength(&self) -> usize {
        self.peak_wavelength
    }

    /// Check an idle engine for waiters that can never be served.
    ///
    /// # Errors
    /// [`OpticalError::WavelengthsExhausted`] with the first stuck waiter's
    /// lane demand.
    pub fn check_stuck(&self) -> Result<()> {
        match self.waiting.first() {
            None => Ok(()),
            Some(&id) => Err(OpticalError::WavelengthsExhausted {
                available: self.wavelengths,
                requested: self.slots[id]
                    .as_ref()
                    .expect("waiting slot is live")
                    .transfer
                    .lanes,
                step: 0,
            }),
        }
    }

    /// Capture the full mutable state as a versioned snapshot.
    ///
    /// Drained completions are the caller's responsibility; records still
    /// buffered in the engine are included and survive the round-trip.
    #[must_use]
    pub fn snapshot(&self) -> GrantEngineSnapshot {
        GrantEngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: self.queue.now(),
            events: self.events(),
            occ: self.occ.clone(),
            slots: self.slots.clone(),
            free: self.free.clone(),
            jobs: self.jobs.clone(),
            job_free: self.job_free.clone(),
            next_order: self.next_order,
            waiting: self.waiting.clone(),
            pending: self
                .queue
                .pending()
                .into_iter()
                .map(|(t, ev)| (t, *ev))
                .collect(),
            completions: self.completions.clone(),
            active: self.active,
            peak: self.peak,
            peak_wavelength: self.peak_wavelength,
            makespan: self.makespan,
        }
    }

    /// Rebuild an engine from a snapshot taken on an identically configured
    /// engine. The resumed run is byte-identical to the uninterrupted one.
    ///
    /// # Errors
    /// Rejects unknown snapshot versions and invalid configurations.
    pub fn restore(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
        snap: &GrantEngineSnapshot,
    ) -> Result<Self> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(OpticalError::BadConfig(
                "unsupported grant-engine snapshot version",
            ));
        }
        let mut eng = Self::new(config, strategy, arbitrated, fair_share)?;
        eng.queue
            .fast_forward(snap.now)
            .map_err(|_| OpticalError::BadConfig("snapshot clock must be finite and >= 0"))?;
        eng.complete_ev = vec![None; snap.slots.len()];
        eng.failed = vec![false; snap.slots.len()];
        for (t, ev) in &snap.pending {
            let id = eng
                .queue
                .schedule_at(*t, *ev)
                .map_err(|_| OpticalError::BadConfig("snapshot event precedes its clock"))?;
            if let Ev::Complete(slot) = ev {
                eng.complete_ev[*slot] = Some(id);
            }
        }
        eng.occ = snap.occ.clone();
        eng.slots = snap.slots.clone();
        eng.free = snap.free.clone();
        eng.jobs = snap.jobs.clone();
        eng.job_free = snap.job_free.clone();
        eng.next_order = snap.next_order;
        eng.waiting = snap.waiting.clone();
        eng.completions = snap.completions.clone();
        eng.events_base = snap.events;
        eng.active = snap.active;
        eng.peak = snap.peak;
        eng.peak_wavelength = snap.peak_wavelength;
        eng.makespan = snap.makespan;
        eng.granted = vec![false; eng.slots.len()];
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn cfg() -> OpticalConfig {
        OpticalConfig::new(8, 2)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0)
    }

    fn item(src: usize, dst: usize, bytes: u64, release_s: f64, deps: Vec<usize>) -> GrantTransfer {
        GrantTransfer {
            transfer: Transfer::directed(NodeId(src), NodeId(dst), bytes, Direction::Clockwise),
            release_s,
            deps,
            job: 0,
        }
    }

    #[test]
    fn incremental_injection_matches_upfront_injection() {
        // Same workload, two drivers: everything injected at time zero vs.
        // the second job's transfers injected only once the clock reaches
        // their arrival. Makespans and event counts must agree bit-exactly.
        let run_upfront = || {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            eng.inject(&[
                item(0, 2, 1_000_000, 0.0, vec![]),
                item(0, 2, 1_000_000, 0.0, vec![0]),
                item(1, 3, 2_000_000, 5e-4, vec![]),
            ])
            .unwrap();
            while eng.step().unwrap().is_some() {}
            (eng.makespan(), eng.events())
        };
        let run_incremental = || {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            eng.inject(&[
                item(0, 2, 1_000_000, 0.0, vec![]),
                item(0, 2, 1_000_000, 0.0, vec![0]),
            ])
            .unwrap();
            let arrival = 5e-4;
            let mut injected = false;
            loop {
                if !injected && self::peek_at_least(&mut eng, arrival) {
                    eng.inject(&[item(1, 3, 2_000_000, arrival, vec![])])
                        .unwrap();
                    injected = true;
                }
                if eng.step().unwrap().is_none() {
                    if injected {
                        break;
                    }
                    eng.inject(&[item(1, 3, 2_000_000, arrival, vec![])])
                        .unwrap();
                    injected = true;
                }
            }
            (eng.makespan(), eng.events())
        };
        let (m1, e1) = run_upfront();
        let (m2, e2) = run_incremental();
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert_eq!(e1, e2);
    }

    fn peek_at_least(eng: &mut GrantEngine, t: f64) -> bool {
        eng.peek_time().is_none_or(|p| p >= t)
    }

    #[test]
    fn slots_are_reused_after_completion() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        for round in 0..100 {
            let t = f64::from(round) * 1.0;
            // Drain to the arrival instant, then inject one transfer.
            while eng.peek_time().is_some_and(|p| p < t) {
                eng.step().unwrap();
            }
            eng.inject(&[item(0, 1, 1_000_000, t, vec![])]).unwrap();
            while eng.step().unwrap().is_some() {}
        }
        assert!(
            eng.slots.len() <= 2,
            "completed slots must be recycled, got {}",
            eng.slots.len()
        );
        assert_eq!(eng.live_transfers(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let cfgv = cfg();
        let items = vec![
            item(0, 2, 1_000_000, 0.0, vec![]),
            item(0, 2, 3_000_000, 0.0, vec![0]),
            item(1, 3, 2_000_000, 2e-4, vec![]),
            item(4, 6, 1_500_000, 0.0, vec![]),
        ];
        // Uninterrupted reference.
        let mut full = GrantEngine::new(&cfgv, Strategy::FirstFit, false, false).unwrap();
        full.inject(&items).unwrap();
        while full.step().unwrap().is_some() {}
        // Interrupted at the second batch: snapshot, serialize, restore.
        let mut eng = GrantEngine::new(&cfgv, Strategy::FirstFit, false, false).unwrap();
        eng.inject(&items).unwrap();
        eng.step().unwrap();
        eng.step().unwrap();
        let json = serde_json::to_string(&eng.snapshot()).unwrap();
        let snap: GrantEngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed =
            GrantEngine::restore(&cfgv, Strategy::FirstFit, false, false, &snap).unwrap();
        while resumed.step().unwrap().is_some() {}
        assert_eq!(full.makespan().to_bits(), resumed.makespan().to_bits());
        assert_eq!(full.events(), resumed.events());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        full.drain_completions(&mut a);
        resumed.drain_completions(&mut b);
        let tail = &a[a.len() - b.len()..];
        assert_eq!(tail, &b[..], "post-restore completions must match");
    }

    #[test]
    fn unschedulable_fault_and_retry_instants_are_typed_errors() {
        let lane0 = GrantFault::LaneDown(Wavelength(0));
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        assert!(matches!(
            eng.inject_faults(&[(f64::NAN, lane0)], FaultPolicy::Replan),
            Err(OpticalError::BadConfig(_))
        ));
        // The transfer is in flight at the fault; its re-gate instant
        // `5e299 + f64::MAX` overflows.
        let slow = cfg().with_message_overhead(1e300);
        let mut eng = GrantEngine::new(&slow, Strategy::FirstFit, false, false).unwrap();
        eng.inject(&[item(0, 2, 1_000, 0.0, vec![])]).unwrap();
        eng.inject_faults(&[(5e299, lane0)], FaultPolicy::RetryAfter(f64::MAX))
            .unwrap();
        assert_eq!(eng.step().unwrap(), Some(0.0));
        assert!(matches!(eng.step(), Err(OpticalError::BadConfig(_))));
    }

    #[test]
    fn unknown_snapshot_version_is_rejected() {
        let eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        let mut snap = eng.snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            GrantEngine::restore(&cfg(), Strategy::FirstFit, false, false, &snap),
            Err(OpticalError::BadConfig(_))
        ));
    }
}
