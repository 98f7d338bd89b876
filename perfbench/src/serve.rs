//! `serve-openloop`: the `repro-figures serve` campaign — open-loop
//! Poisson arrivals of bucketed GoogLeNet training iterations at 16 nodes,
//! under every policy × admission × substrate, through
//! `run_stream_campaign`.
//!
//! A few optical cells whose arrivals overlap most take most of the time,
//! so one campaign's cost swings with its seed. Each run therefore serves
//! two campaigns: one at the default seed, whose cells are checked against
//! the stored reference on every repetition and halve the swing, and one at
//! the workload seed.

use crate::digest::{Digest, Item};
use crate::layers;
use crate::trace::Tracer;
use crate::{write_file, Bench, Clock};
use optical_sim::sim::StepSchedule;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use wrht_bench::campaign::{
    run_stream_campaign, serve_spec, stream_config_hash, StreamCellConfig, StreamCellResult,
    StreamSweep,
};
use wrht_bench::report::{render_streams, to_json};
use wrht_bench::timeline::{lower_allreduce, timeline_buckets};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::stream::{ArrivalProcess, StreamReport, StreamSpec, StreamTemplate};
use wrht_core::tenancy::JobWorkload;

/// Nodes of every cell: the service rates of `serve_spec` bracket one
/// GoogLeNet iteration at this size.
pub const NODES: usize = 16;

pub struct Serve {
    specs: Vec<StreamSweep>,
}

/// Generate the campaign specs and build every cell's fabric once.
pub fn setup(seed: u64) -> Serve {
    let cfg = ExperimentConfig::default();
    let models = dnn_models::paper_models();
    let specs: Vec<StreamSweep> = [crate::DEFAULT_SEED, seed]
        .into_iter()
        .map(|s| serve_spec(&cfg, &models, NODES, s))
        .collect();
    for cell in specs.iter().flat_map(|s| &s.cells) {
        let model = dnn_models::model_by_name(&cell.model).expect("serve_spec names zoo models");
        black_box(timeline_buckets(&model, cell.bucket_bytes));
        black_box(cfg.try_substrate(cell.substrate, cell.n, cell.strategy)).expect("valid fabric");
    }
    Serve { specs }
}

/// Render and write each campaign's table and rows as `repro-figures
/// serve` does.
fn report(dir: &Path, campaigns: &[Vec<StreamCellResult>]) -> u64 {
    let mut bytes = 0;
    for (i, results) in campaigns.iter().enumerate() {
        let text = render_streams(results, NODES);
        let rows = to_json(results);
        write_file(&dir.join(format!("serve-{i}")), "stream_rows.json", &rows);
        bytes += black_box(text).len() + rows.len();
    }
    bytes as u64
}

impl Bench for Serve {
    /// One result list per campaign.
    type Results = Vec<Vec<StreamCellResult>>;

    fn run(&self, dir: &Path, workers: usize, clock: &mut Clock) -> Self::Results {
        let results: Self::Results = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let sink = dir.join(format!("serve-{i}"));
                clock.part(|| run_stream_campaign(spec, workers, Some(&sink)).results)
            })
            .collect();
        clock.part(|| report(dir, &results));
        results
    }

    fn traced(&self, t: &mut Tracer, dir: &Path) -> Self::Results {
        let results: Self::Results = self
            .specs
            .iter()
            .map(|spec| {
                spec.cells
                    .iter()
                    .map(|cell| t.span("campaign", |t| cell_traced(t, spec, cell)))
                    .collect()
            })
            .collect();
        for r in results.iter().flatten() {
            t.count("stream.arrivals", r.arrivals as f64);
            t.count("stream.admitted", r.admitted as f64);
            t.count("stream.rejected", r.rejected as f64);
            t.peak("stream.peak_queue_depth", r.peak_queue_depth as f64);
            t.peak("stream.peak_in_service", r.peak_in_service as f64);
            t.count("kernel.events", r.events as f64);
            if r.cell.substrate == SubstrateKind::Optical {
                t.count("stream.optical.events", r.events as f64);
            }
        }
        let bytes = t.span("report", |_| report(dir, &results));
        t.count("report.bytes", bytes as f64);
        results
    }

    fn items(r: &Self::Results) -> Vec<Item> {
        r.iter()
            .flatten()
            .enumerate()
            .map(|(i, c)| Item {
                label: format!("serve/{i}"),
                digest: Digest::new()
                    .u64(c.arrivals)
                    .u64(c.admitted)
                    .u64(c.rejected)
                    .u64(c.completed)
                    .f64(c.makespan_s)
                    .u64(c.events)
                    .f64(c.mean_utilization)
                    .f64(c.mean_slowdown)
                    .f64(c.slowdown_p50)
                    .f64(c.slowdown_p99)
                    .f64(c.slowdown_p999)
                    .f64(c.fairness_index)
                    .usize(c.peak_queue_depth)
                    .usize(c.peak_in_service)
                    .usize(c.windows)
                    .opt_str(c.error.as_deref())
                    .finish(),
                error: c.error.clone(),
            })
            .collect()
    }

    /// The cells of the campaign at the default seed.
    fn fixed_items(&self) -> usize {
        self.specs[0].cells.len()
    }

    fn json(r: &Self::Results) -> String {
        to_json(r)
    }

    /// Completed jobs times the transfers of one job's lowered buckets.
    fn transfers(&self, r: &Self::Results) -> u64 {
        let mut per_job: BTreeMap<String, u64> = BTreeMap::new();
        r.iter()
            .flatten()
            .map(|res| {
                let c = &res.cell;
                let key = format!("{}/{}/{}/{}", c.model, c.n, c.bucket_bytes, c.wavelengths);
                let job = *per_job.entry(key).or_insert_with(|| {
                    let mut local = self.specs[0].base.clone();
                    local.wavelengths = c.wavelengths;
                    let model = dnn_models::model_by_name(&c.model).expect("zoo model");
                    timeline_buckets(&model, c.bucket_bytes)
                        .iter()
                        .map(|b| {
                            let (s, _) = lower_allreduce(&local, c.algorithm, c.n, b.bytes)
                                .expect("buckets lower");
                            s.transfer_count() as u64
                        })
                        .sum()
                });
                res.completed * job
            })
            .sum()
    }
}

/// `wrht_bench::campaign::run_stream_cell`, one layer per library call;
/// the stream span holds the engine, which cannot be told apart from its
/// driver from outside.
fn cell_traced(t: &mut Tracer, spec: &StreamSweep, cell: &StreamCellConfig) -> StreamCellResult {
    let hash = stream_config_hash(cell);
    let seed = spec.seed;
    let mut result = StreamCellResult {
        cell: cell.clone(),
        config_hash: hash,
        seed: seed ^ hash,
        arrivals: 0,
        admitted: 0,
        rejected: 0,
        completed: 0,
        makespan_s: 0.0,
        events: 0,
        mean_utilization: 0.0,
        mean_slowdown: 0.0,
        slowdown_p50: 0.0,
        slowdown_p99: 0.0,
        slowdown_p999: 0.0,
        fairness_index: 0.0,
        peak_queue_depth: 0,
        peak_in_service: 0,
        windows: 0,
        error: None,
    };
    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };
    let mut local = spec.base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: wrht_core::error::Result<StreamReport> = (|| {
        let buckets = t.span("core.lower", |_| {
            timeline_buckets(&model, cell.bucket_bytes)
        });
        let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
        for b in &buckets {
            let schedule = layers::lower_allreduce(t, &local, cell.algorithm, cell.n, b.bytes)?;
            lowered.push((b.ready_s, schedule));
        }
        let spec = StreamSpec::new(
            ArrivalProcess::Poisson {
                rate_hz: cell.rate_hz,
                count: cell.arrivals,
                seed: seed ^ hash,
            },
            cell.policy,
        )
        .with_template(
            StreamTemplate::new(
                format!("{}-hi", model.name),
                JobWorkload::Buckets(lowered.clone()),
            )
            .with_priority(2),
        )
        .with_template(
            StreamTemplate::new(format!("{}-lo", model.name), JobWorkload::Buckets(lowered))
                .with_priority(1),
        )
        .with_admission(cell.admission)
        .with_window(cell.window_s)
        .with_reference_bps(local.lambda_bandwidth_bps * cell.wavelengths as f64);
        let layer = match cell.substrate {
            SubstrateKind::Optical => "stream.optical",
            SubstrateKind::Electrical => "stream.electrical",
        };
        t.span(layer, |_| {
            local
                .try_substrate(cell.substrate, cell.n, cell.strategy)?
                .execute_stream(&spec)
        })
    })();

    match outcome {
        Ok(report) => {
            result.arrivals = report.arrivals;
            result.admitted = report.admitted;
            result.rejected = report.rejected;
            result.completed = report.completed;
            result.makespan_s = report.makespan_s;
            result.events = report.events;
            result.mean_utilization = report.mean_utilization;
            result.mean_slowdown = report.mean_slowdown;
            result.slowdown_p50 = report.slowdown.p50;
            result.slowdown_p99 = report.slowdown.p99;
            result.slowdown_p999 = report.slowdown.p999;
            result.fairness_index = report.fairness_index;
            result.peak_queue_depth = report.peak_queue_depth;
            result.peak_in_service = report.peak_in_service;
            result.windows = report.windows.len();
            result.error = None;
        }
        Err(e) => result.error = Some(e.to_string()),
    }
    result
}
