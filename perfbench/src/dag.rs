//! `dag-mixed`: the `repro-figures tenants`, `faults` and `parallelism`
//! campaigns at the default 128 nodes — dependency-gated multi-job DAGs
//! under every arbitration policy, fault scripts under replan and
//! fail-job recovery, and mixed-parallelism iterations on the composed
//! optical + electrical hierarchy.

use crate::digest::{Digest, Item};
use crate::layers;
use crate::trace::Tracer;
use crate::{write_file, Bench, Clock};
use dnn_models::Model;
use optical_sim::sim::StepSchedule;
use std::hint::black_box;
use std::path::Path;
use wrht_bench::campaign::{
    fault_config_hash, faults_spec, parallelism_config_hash, parallelism_spec, run_fault_campaign,
    run_parallelism_campaign, run_tenancy_campaign, tenancy_config_hash, tenants_spec, Algorithm,
    FaultCellConfig, FaultCellResult, FaultSweep, ParCellConfig, ParCellResult, ParallelismSweep,
    TenancyCellConfig, TenancyCellResult, TenancySweep,
};
use wrht_bench::report::{render_faults, render_parallelism, render_tenants, to_json};
use wrht_bench::timeline::{iteration_model, timeline_buckets};
use wrht_bench::ExperimentConfig;
use wrht_core::fault::fault_cluster_report;
use wrht_core::hierarchy::Domain;
use wrht_core::parallelism::{lower_parallelism, ParallelismSpec, StageModel};
use wrht_core::substrate::Substrate as _;
use wrht_core::tenancy::{cluster_report, Job, SchedPolicy, TenancySpec};

pub struct Dag {
    n: usize,
    tenants: TenancySweep,
    faults: FaultSweep,
    parallelism: ParallelismSweep,
}

pub struct Results {
    tenants: Vec<TenancyCellResult>,
    faults: Vec<FaultCellResult>,
    parallelism: Vec<ParCellResult>,
}

/// Generate the three campaign specs, every cell's fabric and the
/// mixed-parallelism DAGs once.
pub fn setup(seed: u64) -> Dag {
    let cfg = ExperimentConfig::default();
    let models = dnn_models::paper_models();
    let n = cfg.scales[0];
    let tenants = tenants_spec(&cfg, &models, n, seed);
    let faults = faults_spec(&cfg, &models, n, seed);
    let parallelism = parallelism_spec(&cfg, seed);
    let fabrics = tenants
        .cells
        .iter()
        .map(|c| (c.substrate, c.n, c.strategy))
        .chain(faults.cells.iter().map(|c| (c.substrate, c.n, c.strategy)));
    for (kind, n, strategy) in fabrics {
        black_box(cfg.try_substrate(kind, n, strategy)).expect("valid fabric");
    }
    for c in &parallelism.cells {
        let model = dnn_models::model_by_name(&c.model).expect("zoo model");
        let spec = ParallelismSpec::new(c.tp, c.pp, c.dp, c.moe_experts, c.microbatches)
            .expect("valid shape");
        let stages = StageModel::split(model.gradient_bytes(), c.pp, c.activation_bytes);
        black_box(lower_parallelism(&spec, &stages)).expect("lowers");
        let hier = spec.hier().expect("valid hierarchy");
        black_box(cfg.try_composed(hier, c.strategy)).expect("valid fabric");
    }
    Dag {
        n,
        tenants,
        faults,
        parallelism,
    }
}

/// Render and write the three tables as the `repro-figures` commands do.
fn report(dir: &Path, n: usize, r: &Results) -> u64 {
    let text = render_tenants(&r.tenants, n)
        + &render_faults(&r.faults, n)
        + &render_parallelism(&r.parallelism);
    let files = [
        ("tenants", "tenant_rows.json", to_json(&r.tenants)),
        ("faults", "fault_rows.json", to_json(&r.faults)),
        (
            "parallelism",
            "parallelism_rows.json",
            to_json(&r.parallelism),
        ),
    ];
    let mut bytes = black_box(text).len();
    for (sub, name, json) in &files {
        write_file(&dir.join(sub), name, json);
        bytes += json.len();
    }
    bytes as u64
}

impl Bench for Dag {
    type Results = Results;

    fn run(&self, dir: &Path, workers: usize, clock: &mut Clock) -> Results {
        let r = Results {
            tenants: clock.part(|| {
                run_tenancy_campaign(&self.tenants, workers, Some(&dir.join("tenants"))).results
            }),
            faults: clock.part(|| {
                run_fault_campaign(&self.faults, workers, Some(&dir.join("faults"))).results
            }),
            parallelism: clock.part(|| {
                run_parallelism_campaign(&self.parallelism, workers, Some(&dir.join("parallelism")))
                    .results
            }),
        };
        clock.part(|| report(dir, self.n, &r));
        r
    }

    fn traced(&self, t: &mut Tracer, dir: &Path) -> Results {
        let r = Results {
            tenants: self
                .tenants
                .cells
                .iter()
                .map(|c| t.span("campaign", |t| self.tenancy_cell(t, c)))
                .collect(),
            faults: self
                .faults
                .cells
                .iter()
                .map(|c| t.span("campaign", |t| self.fault_cell(t, c)))
                .collect(),
            parallelism: self
                .parallelism
                .cells
                .iter()
                .map(|c| t.span("campaign", |t| self.parallelism_cell(t, c)))
                .collect(),
        };
        for f in &r.faults {
            t.count("fault.aborts", f.aborted as f64);
            t.count("fault.failed_transfers", f.failed as f64);
        }
        for p in &r.parallelism {
            t.count("hierarchy.events", p.events as f64);
            t.count("hierarchy.intra_transfers", p.intra_transfers as f64);
            t.count("hierarchy.inter_transfers", p.inter_transfers as f64);
            t.count("hierarchy.solver_work", p.solver_work as f64);
            t.count("kernel.events", p.events as f64);
        }
        let bytes = t.span("report", |_| report(dir, self.n, &r));
        t.count("report.bytes", bytes as f64);
        r
    }

    fn items(r: &Results) -> Vec<Item> {
        let tenants = r.tenants.iter().enumerate().map(|(i, c)| Item {
            label: format!("tenants/{i}"),
            digest: Digest::new()
                .f64(c.makespan_s)
                .f64(c.mean_slowdown)
                .f64(c.max_slowdown)
                .f64(c.fairness_index)
                .f64(c.slowdown_p50)
                .f64(c.slowdown_p99)
                .f64(c.slowdown_p999)
                .f64(c.mean_hidden_fraction)
                .usize(c.peak_wavelengths)
                .usize(c.transfers)
                .opt_str(c.error.as_deref())
                .finish(),
            error: c.error.clone(),
        });
        let faults = r.faults.iter().enumerate().map(|(i, c)| Item {
            label: format!("faults/{i}"),
            digest: Digest::new()
                .f64(c.clean_makespan_s)
                .f64(c.makespan_s)
                .f64(c.degraded_ratio)
                .f64(c.recovery_s)
                .opt_f64(c.first_impact_s)
                .usize(c.delayed)
                .u64(c.aborted)
                .usize(c.failed)
                .usize(c.failed_jobs)
                .usize(c.transfers)
                .usize(c.peak_wavelengths)
                .opt_str(c.error.as_deref())
                .finish(),
            error: c.error.clone(),
        });
        let parallelism = r.parallelism.iter().enumerate().map(|(i, c)| Item {
            label: format!("parallelism/{i}"),
            digest: Digest::new()
                .usize(c.nodes)
                .usize(c.groups)
                .usize(c.transfers)
                .usize(c.intra_transfers)
                .usize(c.inter_transfers)
                .u64(c.intra_bytes)
                .u64(c.inter_bytes)
                .f64(c.makespan_s)
                .usize(c.peak_wavelength)
                .usize(c.rate_recomputations)
                .usize(c.solver_work)
                .u64(c.events)
                .opt_str(c.error.as_deref())
                .finish(),
            error: c.error.clone(),
        });
        tenants.chain(faults).chain(parallelism).collect()
    }

    fn json(r: &Results) -> String {
        to_json(&r.tenants) + &to_json(&r.faults) + &to_json(&r.parallelism)
    }

    /// Transfers of the runs: each tenancy transfer twice (shared run and
    /// its job's isolation run), the clean and the completed faulted
    /// transfers of each fault cell, and every transfer of a
    /// mixed-parallelism iteration.
    fn transfers(&self, r: &Results) -> u64 {
        let tenants: usize = r.tenants.iter().map(|c| 2 * c.transfers).sum();
        let faults: usize = r.faults.iter().map(|c| 2 * c.transfers - c.failed).sum();
        let parallelism: usize = r.parallelism.iter().map(|c| c.transfers).sum();
        (tenants + faults + parallelism) as u64
    }
}

/// One training iteration of `model` per job, arriving `stagger_s` apart
/// — the job set both the tenancy and the fault cells build.
#[allow(clippy::too_many_arguments)]
fn jobs(
    t: &mut Tracer,
    local: &ExperimentConfig,
    model: &Model,
    algorithm: Algorithm,
    n: usize,
    bucket_bytes: u64,
    jobs: usize,
    stagger_s: f64,
    policy: SchedPolicy,
) -> wrht_core::error::Result<TenancySpec> {
    let buckets = t.span("core.lower", |_| timeline_buckets(model, bucket_bytes));
    let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
    for b in &buckets {
        lowered.push((
            b.ready_s,
            layers::lower_allreduce(t, local, algorithm, n, b.bytes)?,
        ));
    }
    let im = iteration_model(model);
    let compute_s = im.forward_s + im.backward_s;
    let mut spec = TenancySpec::new(policy);
    for j in 0..jobs {
        spec = spec.with_job(
            Job::training(
                format!("{}#{j}", model.name),
                j as f64 * stagger_s,
                lowered.clone(),
            )
            .with_compute(compute_s)
            .with_priority(j as u32),
        );
    }
    Ok(spec)
}

impl Dag {
    /// `run_tenancy_cell`, one layer per library call (the composed run
    /// and the per-job isolation runs are both `dag.clean`).
    fn tenancy_cell(&self, t: &mut Tracer, cell: &TenancyCellConfig) -> TenancyCellResult {
        let hash = tenancy_config_hash(cell);
        let mut result = TenancyCellResult {
            cell: cell.clone(),
            config_hash: hash,
            seed: self.tenants.seed ^ hash,
            makespan_s: 0.0,
            mean_slowdown: 0.0,
            max_slowdown: 0.0,
            fairness_index: 0.0,
            slowdown_p50: 0.0,
            slowdown_p99: 0.0,
            slowdown_p999: 0.0,
            mean_hidden_fraction: 0.0,
            peak_wavelengths: 0,
            transfers: 0,
            error: None,
        };
        let Some(model) = dnn_models::model_by_name(&cell.model) else {
            result.error = Some(format!("unknown model '{}'", cell.model));
            return result;
        };
        let mut local = self.tenants.base.clone();
        local.wavelengths = cell.wavelengths;

        let outcome = (|| {
            let spec = jobs(
                t,
                &local,
                &model,
                cell.algorithm,
                cell.n,
                cell.bucket_bytes,
                cell.jobs,
                cell.arrival_stagger_s,
                cell.policy,
            )?;
            let composed = t.span("core.lower", |_| spec.compose())?;
            t.count("core.lower.transfers", composed.dag.len() as f64);
            let arb = spec.arbitration(&composed.job_of);
            t.span("dag.clean", |_| {
                let mut sub = local.try_substrate(cell.substrate, cell.n, cell.strategy)?;
                let run = sub.execute_dag_jobs(&composed.dag, &arb)?;
                let mut isolated = Vec::with_capacity(spec.jobs.len());
                for lowered in &composed.lowered {
                    isolated.push(sub.execute_dag(lowered)?.makespan_s);
                }
                Ok(cluster_report(&spec, &composed, &run, &isolated))
            })
        })();

        match outcome {
            Ok::<_, wrht_core::WrhtError>(report) => {
                result.makespan_s = report.makespan_s;
                result.mean_slowdown = report.mean_slowdown();
                result.max_slowdown = report.max_slowdown();
                result.fairness_index = report.fairness_index;
                result.slowdown_p50 = report.slowdown.p50;
                result.slowdown_p99 = report.slowdown.p99;
                result.slowdown_p999 = report.slowdown.p999;
                result.mean_hidden_fraction = if report.jobs.is_empty() {
                    1.0
                } else {
                    report.jobs.iter().map(|j| j.hidden_fraction).sum::<f64>()
                        / report.jobs.len() as f64
                };
                result.peak_wavelengths = report.peak_wavelength;
                result.transfers = report.jobs.iter().map(|j| j.transfers).sum();
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }

    /// `run_fault_cell`, one layer per library call.
    fn fault_cell(&self, t: &mut Tracer, cell: &FaultCellConfig) -> FaultCellResult {
        let hash = fault_config_hash(cell);
        let mut result = FaultCellResult {
            cell: cell.clone(),
            config_hash: hash,
            seed: self.faults.seed ^ hash,
            clean_makespan_s: 0.0,
            makespan_s: 0.0,
            degraded_ratio: 0.0,
            recovery_s: 0.0,
            first_impact_s: None,
            delayed: 0,
            aborted: 0,
            failed: 0,
            failed_jobs: 0,
            transfers: 0,
            peak_wavelengths: 0,
            error: None,
        };
        let Some(model) = dnn_models::model_by_name(&cell.model) else {
            result.error = Some(format!("unknown model '{}'", cell.model));
            return result;
        };
        let mut local = self.faults.base.clone();
        local.wavelengths = cell.wavelengths;

        let outcome = (|| {
            let spec = jobs(
                t,
                &local,
                &model,
                cell.algorithm,
                cell.n,
                cell.bucket_bytes,
                cell.jobs,
                cell.arrival_stagger_s,
                cell.policy,
            )?;
            let composed = t.span("core.lower", |_| spec.compose())?;
            t.count("core.lower.transfers", composed.dag.len() as f64);
            let arb = spec.arbitration(&composed.job_of);
            let (mut sub, clean) = t.span("dag.clean", |_| {
                let mut sub = local.try_substrate(cell.substrate, cell.n, cell.strategy)?;
                let clean = sub.execute_dag_jobs(&composed.dag, &arb)?;
                Ok::<_, wrht_core::WrhtError>((sub, clean))
            })?;
            let script = cell.scenario.script(clean.dag.makespan_s);
            let policy = cell.fault_policy.to_policy();
            let faulted = t.span("dag.faulted", |_| {
                sub.execute_dag_jobs_faulted(&composed.dag, &arb, &script, policy)
            })?;
            Ok(fault_cluster_report(
                &spec, &composed, &clean.dag, &faulted, policy,
            ))
        })();

        match outcome {
            Ok::<_, wrht_core::WrhtError>(report) => {
                result.clean_makespan_s = report.clean_makespan_s;
                result.makespan_s = report.makespan_s;
                result.degraded_ratio = report.degraded_ratio;
                result.recovery_s = report.recovery_s;
                result.first_impact_s = report.first_impact_s;
                result.delayed = report.transfers_delayed;
                result.aborted = report.transfers_aborted;
                result.failed = report.transfers_failed;
                result.failed_jobs = report.failed_jobs();
                result.transfers = report.jobs.iter().map(|j| j.transfers).sum();
                result.peak_wavelengths = report.peak_wavelength;
                result.error = None;
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }

    /// `run_parallelism_cell`, one layer per library call.
    fn parallelism_cell(&self, t: &mut Tracer, cell: &ParCellConfig) -> ParCellResult {
        let hash = parallelism_config_hash(cell);
        let mut result = ParCellResult {
            cell: cell.clone(),
            config_hash: hash,
            seed: self.parallelism.seed ^ hash,
            nodes: 0,
            groups: 0,
            transfers: 0,
            intra_transfers: 0,
            inter_transfers: 0,
            intra_bytes: 0,
            inter_bytes: 0,
            makespan_s: 0.0,
            peak_wavelength: 0,
            rate_recomputations: 0,
            solver_work: 0,
            events: 0,
            error: None,
        };
        let Some(model) = dnn_models::model_by_name(&cell.model) else {
            result.error = Some(format!("unknown model '{}'", cell.model));
            return result;
        };
        let mut local = self.parallelism.base.clone();
        local.wavelengths = cell.wavelengths;

        let outcome: wrht_core::error::Result<()> = (|| {
            let (spec, dag, hier, domains) = t.span("core.lower", |_| {
                let spec = ParallelismSpec::new(
                    cell.tp,
                    cell.pp,
                    cell.dp,
                    cell.moe_experts,
                    cell.microbatches,
                )?;
                let stages =
                    StageModel::split(model.gradient_bytes(), cell.pp, cell.activation_bytes);
                let dag = lower_parallelism(&spec, &stages)?;
                let hier = spec.hier()?;
                let domains = hier.domains(&dag)?;
                Ok::<_, wrht_core::WrhtError>((spec, dag, hier, domains))
            })?;
            t.count("core.lower.transfers", dag.len() as f64);
            for (x, d) in dag.transfers().iter().zip(&domains) {
                match d {
                    Domain::Intra { .. } => {
                        result.intra_transfers += 1;
                        result.intra_bytes += x.transfer.bytes;
                    }
                    Domain::Inter => {
                        result.inter_transfers += 1;
                        result.inter_bytes += x.transfer.bytes;
                    }
                }
            }
            let report = t.span("hierarchy", |_| {
                local.try_composed(hier, cell.strategy)?.execute_dag(&dag)
            })?;
            result.nodes = spec.nodes();
            result.groups = spec.groups();
            result.transfers = dag.len();
            result.makespan_s = report.makespan_s;
            result.peak_wavelength = report.peak_wavelength;
            result.rate_recomputations = report.rate_recomputations;
            result.solver_work = report.solver_work;
            result.events = report.events;
            Ok(())
        })();

        if let Err(e) = outcome {
            result.error = Some(e.to_string());
        }
        result
    }
}
