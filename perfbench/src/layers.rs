//! Traced counterparts of the lowering entry points the campaigns call:
//! each public library call runs inside the span of its layer, and the
//! layer's work counts are recorded beside it.

use crate::trace::Tracer;
use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use collectives::Schedule;
use optical_sim::sim::StepSchedule;
use std::collections::BTreeMap;
use wrht_bench::campaign::Algorithm;
use wrht_bench::ExperimentConfig;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::lower::to_optical_schedule;
use wrht_core::{build_plan, choose_group_size, WrhtParams, WrhtPlan};

/// Generate a collective schedule (`collectives` layer).
pub fn collective(t: &mut Tracer, algorithm: Algorithm, n: usize, elems: usize) -> Schedule {
    let schedule = t.span("collectives", |_| match algorithm {
        Algorithm::Ring => ring_allreduce(n, elems),
        Algorithm::RecursiveDoubling => recursive_doubling(n, elems),
        Algorithm::HalvingDoubling => halving_doubling(n, elems),
        Algorithm::Tree => binomial_tree(n, elems),
        Algorithm::Wrht => unreachable!("Wrht is planned, not generated"),
    });
    let transfers: usize = schedule.steps.iter().map(|s| s.transfers.len()).sum();
    t.count("collectives.transfers", transfers as f64);
    schedule
}

/// Lower a collective schedule to the step IR (`core.lower` layer).
pub fn lower_collective(
    t: &mut Tracer,
    schedule: &Schedule,
    bytes_per_elem: usize,
) -> StepSchedule {
    let lowered = t.span("core.lower", |_| {
        lower_collective_to_optical(schedule, bytes_per_elem, 1)
    });
    t.count("core.lower.transfers", lowered.transfer_count() as f64);
    lowered
}

/// Choose Wrht's group size for `bytes` on `n` nodes (`core.plan` layer).
pub fn plan(
    t: &mut Tracer,
    cfg: &ExperimentConfig,
    n: usize,
    bytes: u64,
) -> wrht_core::error::Result<(usize, WrhtPlan)> {
    let params = WrhtParams::auto(n, cfg.wavelengths);
    let (m, plan, _) = t.span("core.plan", |_| {
        choose_group_size(&params, &cfg.optical(n), bytes)
    })?;
    t.plan_calls.push((n, cfg.wavelengths));
    Ok((m, plan))
}

/// Lower a Wrht plan to the step IR (`core.lower` layer).
pub fn lower_plan(t: &mut Tracer, plan: &WrhtPlan, bytes: u64) -> StepSchedule {
    let lowered = t.span("core.lower", |_| to_optical_schedule(plan, bytes));
    t.count("core.lower.transfers", lowered.transfer_count() as f64);
    lowered
}

/// What `wrht_bench::timeline::lower_allreduce` does, one layer per call.
pub fn lower_allreduce(
    t: &mut Tracer,
    cfg: &ExperimentConfig,
    algorithm: Algorithm,
    n: usize,
    bytes: u64,
) -> wrht_core::error::Result<StepSchedule> {
    if let Algorithm::Wrht = algorithm {
        let (_, plan) = plan(t, cfg, n, bytes)?;
        return Ok(lower_plan(t, &plan, bytes));
    }
    let elems = (bytes as usize).div_ceil(cfg.bytes_per_elem);
    let schedule = collective(t, algorithm, n, elems);
    Ok(lower_collective(t, &schedule, cfg.bytes_per_elem))
}

/// Candidate plans the planner evaluated over `calls` (one `(n,
/// wavelengths)` pair per `choose_group_size` call): one per buildable
/// group size, as under the default earliest-feasible stop policy.
/// Counted after the traced run, so it adds no time to any span.
pub fn plan_candidates(calls: &[(usize, usize)]) -> u64 {
    let mut per_shape: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    calls
        .iter()
        .map(|&(n, w)| {
            *per_shape.entry((n, w)).or_insert_with(|| {
                let max_m = WrhtParams::auto(n, w).max_group_size();
                (2..=max_m).filter(|&m| build_plan(n, m, w).is_ok()).count() as u64
            })
        })
        .sum()
}
