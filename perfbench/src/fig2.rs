//! `fig2-grid`: what `repro-figures fig2` does — Figure 2 over the paper's
//! four models at 128–1024 nodes, the headline reductions, their tables
//! and JSON. Closed-set, barrier-stepped collectives on both fabrics; no
//! seed.

use crate::digest::{Digest, Item};
use crate::layers;
use crate::trace::Tracer;
use crate::{write_file, Bench, Clock};
use dnn_models::Model;
use electrical_sim::sim::run_flows;
use electrical_sim::FlowSpec;
use optical_sim::sim::StepSchedule;
use optical_sim::Strategy;
use std::hint::black_box;
use std::path::Path;
use wrht_bench::campaign::Algorithm;
use wrht_bench::report::{render_fig2, render_headline, to_json};
use wrht_bench::SubstrateKind;
use wrht_bench::{fig2_series, headline, ExperimentConfig, Fig2Row, Fig2Series, Headline};
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::build_plan;
use wrht_core::lower::to_optical_schedule;
use wrht_core::substrate::{OpticalSubstrate, RunReport, Substrate};

pub struct Fig2 {
    cfg: ExperimentConfig,
    models: Vec<Model>,
}

pub struct Results {
    series: Vec<Fig2Series>,
    headline: Headline,
}

/// Build the model zoo and every fabric of the grid once.
pub fn setup(_seed: u64) -> Fig2 {
    let cfg = ExperimentConfig::default();
    let models = dnn_models::paper_models();
    for &n in &cfg.scales {
        black_box(cfg.substrate(SubstrateKind::Electrical, n, Strategy::FirstFit));
        black_box(cfg.substrate(SubstrateKind::Optical, n, Strategy::FirstFit));
    }
    Fig2 { cfg, models }
}

/// Render and write the tables and JSON as `repro-figures fig2` does;
/// returns the bytes produced.
fn report(dir: &Path, series: &[Fig2Series], headline: &Headline) -> u64 {
    let mut text: String = series.iter().map(|s| render_fig2(s) + "\n").collect();
    text.push_str(&render_headline(headline));
    let rows = to_json(&series);
    let head = to_json(headline);
    write_file(dir, "fig2.json", &rows);
    write_file(dir, "headline.json", &head);
    (black_box(text).len() + rows.len() + head.len()) as u64
}

impl Bench for Fig2 {
    type Results = Results;
    const SERIAL: bool = true;
    /// A repetition takes 12–16 s on one core, and a shared host's speed
    /// drifts over tens of seconds; the median of four spans about a minute.
    const MIN_REPS: usize = 4;

    fn run(&self, dir: &Path, _workers: usize, clock: &mut Clock) -> Results {
        let series: Vec<Fig2Series> = self
            .models
            .iter()
            .map(|m| clock.part(|| fig2_series(&self.cfg, m)))
            .collect();
        let headline = clock.part(|| {
            let h = headline(&series);
            report(dir, &series, &h);
            h
        });
        Results { series, headline }
    }

    fn traced(&self, t: &mut Tracer, dir: &Path) -> Results {
        let series: Vec<Fig2Series> = self
            .models
            .iter()
            .map(|model| {
                let gradient_bytes = model.gradient_bytes();
                let rows = self
                    .cfg
                    .scales
                    .iter()
                    .map(|&n| t.span("campaign", |t| self.row(t, n, gradient_bytes)))
                    .collect();
                Fig2Series {
                    model: model.name.clone(),
                    gradient_bytes,
                    rows,
                }
            })
            .collect();
        let (headline, bytes) = t.span("report", |_| {
            let h = headline(&series);
            let bytes = report(dir, &series, &h);
            (h, bytes)
        });
        t.count("report.bytes", bytes as f64);
        Results { series, headline }
    }

    fn items(r: &Results) -> Vec<Item> {
        let mut items: Vec<Item> = r
            .series
            .iter()
            .flat_map(|s| {
                s.rows.iter().map(move |row| Item {
                    label: format!("{}/{}", s.model, row.n),
                    digest: Digest::new()
                        .str(&s.model)
                        .u64(s.gradient_bytes)
                        .usize(row.n)
                        .f64(row.e_ring_s)
                        .f64(row.rd_s)
                        .f64(row.o_ring_s)
                        .f64(row.wrht_s)
                        .usize(row.wrht_m)
                        .usize(row.wrht_steps)
                        .finish(),
                    error: None,
                })
            })
            .collect();
        let h = &r.headline;
        items.push(Item {
            label: "headline".into(),
            digest: Digest::new()
                .f64(h.vs_electrical_pct)
                .f64(h.vs_oring_pct)
                .usize(h.cells)
                .finish(),
            error: None,
        });
        items
    }

    fn json(r: &Results) -> String {
        to_json(&r.series) + &to_json(&r.headline)
    }

    /// Transfers of E-Ring, RD, O-Ring and Wrht summed over the grid,
    /// counted from the lowered schedules (Wrht's plan rebuilt at the
    /// group size the optimizer chose).
    fn transfers(&self, r: &Results) -> u64 {
        let bpe = self.cfg.bytes_per_elem;
        let mut total = 0;
        for s in &r.series {
            let elems = (s.gradient_bytes as usize).div_ceil(bpe);
            for row in &s.rows {
                let ring = lower_collective_to_optical(
                    &collectives::ring::ring_allreduce(row.n, elems),
                    bpe,
                    1,
                );
                let rd = lower_collective_to_optical(
                    &collectives::rd::recursive_doubling(row.n, elems),
                    bpe,
                    1,
                );
                let plan = build_plan(row.n, row.wrht_m, self.cfg.wavelengths)
                    .expect("the optimizer's group size builds");
                let wrht = to_optical_schedule(&plan, s.gradient_bytes);
                total += 2 * ring.transfer_count() + rd.transfer_count() + wrht.transfer_count();
            }
        }
        total as u64
    }

    /// Replay every electrical step through `run_flows`, as `run_steps`
    /// does, for the counters the substrate drops; a replay whose total
    /// differs from the row's bit pattern fails that row.
    fn counters(&self, r: &Results, t: &mut Tracer) -> usize {
        let bpe = self.cfg.bytes_per_elem;
        let mut failed = 0;
        for s in &r.series {
            let elems = (s.gradient_bytes as usize).div_ceil(bpe);
            for row in &s.rows {
                let ring = collectives::ring::ring_allreduce(row.n, elems);
                let rd = collectives::rd::recursive_doubling(row.n, elems);
                let mut ok = true;
                for (schedule, want) in [(ring, row.e_ring_s), (rd, row.rd_s)] {
                    let lowered = lower_collective_to_optical(&schedule, bpe, 1);
                    ok &= self.replay(t, row.n, &lowered).to_bits() == want.to_bits();
                }
                failed += usize::from(!ok);
            }
        }
        failed
    }
}

impl Fig2 {
    /// `wrht_bench::fig2_row`, one layer per library call.
    fn row(&self, t: &mut Tracer, n: usize, gradient_bytes: u64) -> Fig2Row {
        let cfg = &self.cfg;
        let bpe = cfg.bytes_per_elem;
        let elems = (gradient_bytes as usize).div_ceil(bpe);

        let ring = layers::collective(t, Algorithm::Ring, n, elems);
        let lowered = layers::lower_collective(t, &ring, bpe);
        let (mut electrical, e_ring) = t.span("electrical", |_| {
            let mut sub = cfg.substrate(SubstrateKind::Electrical, n, Strategy::FirstFit);
            let run = sub.execute(&lowered);
            (sub, run)
        });
        let e_ring = e_ring.expect("E-Ring fluid run");

        let rd = layers::collective(t, Algorithm::RecursiveDoubling, n, elems);
        let lowered = layers::lower_collective(t, &rd, bpe);
        let rd = t
            .span("electrical", |_| electrical.execute(&lowered))
            .expect("RD fluid run");

        let lowered = layers::lower_collective(t, &ring, bpe);
        let o_ring = t
            .span("optical", |_| {
                cfg.substrate(SubstrateKind::Optical, n, Strategy::FirstFit)
                    .execute(&lowered)
            })
            .expect("O-Ring optical run");
        optical_counts(t, &o_ring);

        let (m, plan) = layers::plan(t, cfg, n, gradient_bytes).expect("Wrht plan");
        let lowered = layers::lower_plan(t, &plan, gradient_bytes);
        let wrht = t
            .span("optical", |_| {
                OpticalSubstrate::new(cfg.optical(n)).and_then(|mut sub| sub.execute(&lowered))
            })
            .expect("Wrht plan");
        optical_counts(t, &wrht);

        Fig2Row {
            n,
            e_ring_s: e_ring.total_time_s,
            rd_s: rd.total_time_s,
            o_ring_s: o_ring.total_time_s,
            wrht_s: wrht.total_time_s,
            wrht_m: m,
            wrht_steps: plan.step_count(),
        }
    }

    /// One stepped electrical run replayed flow set by flow set: zero-byte
    /// transfers skipped, the step overhead charged to every non-empty
    /// step. Returns the summed time.
    fn replay(&self, t: &mut Tracer, n: usize, schedule: &StepSchedule) -> f64 {
        let net = self.cfg.electrical(n);
        let overhead = self.cfg.electrical_step_overhead_s;
        let mut step_times = Vec::with_capacity(schedule.len());
        for step in schedule.steps() {
            if step.is_empty() {
                step_times.push(0.0);
                continue;
            }
            let flows: Vec<FlowSpec> = step
                .iter()
                .filter(|x| x.bytes > 0)
                .map(|x| FlowSpec::new(x.src.0, x.dst.0, x.bytes))
                .collect();
            let makespan = if flows.is_empty() {
                0.0
            } else {
                let run = run_flows(&net, &flows).expect("replayed step runs");
                t.count("electrical.events", run.events as f64);
                t.count("electrical.solver_work", run.solver_work as f64);
                t.count(
                    "electrical.rate_recomputations",
                    run.rate_recomputations as f64,
                );
                run.makespan_s
            };
            step_times.push(overhead + makespan);
        }
        step_times.iter().sum()
    }
}

fn optical_counts(t: &mut Tracer, run: &RunReport) {
    t.count("optical.transfers", run.transfer_count() as f64);
    t.peak("optical.peak_wavelength", run.peak_wavelengths() as f64);
}
