//! Figure 2: communication time of E-Ring, RD, O-Ring and WRHT for the
//! four DNN models across node scales, plus the headline reductions.

use crate::config::{ExperimentConfig, SubstrateKind};
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use dnn_models::Model;
use optical_sim::Strategy;
use serde::{Deserialize, Serialize};
use wrht_core::baselines::{lower_collective_to_optical, run_collective};
use wrht_core::{plan_and_simulate, WrhtParams};

/// One (model, node-count) grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Node count.
    pub n: usize,
    /// Ring all-reduce on the electrical cluster, seconds.
    pub e_ring_s: f64,
    /// Recursive doubling on the electrical cluster, seconds.
    pub rd_s: f64,
    /// Ring all-reduce on the optical ring (1 wavelength), seconds.
    pub o_ring_s: f64,
    /// Wrht on the optical ring, seconds.
    pub wrht_s: f64,
    /// Group size Wrht's optimizer chose.
    pub wrht_m: usize,
    /// Wrht step count.
    pub wrht_steps: usize,
}

/// A full sub-figure (one DNN model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Series {
    /// Model name.
    pub model: String,
    /// Gradient size in bytes.
    pub gradient_bytes: u64,
    /// One row per node count.
    pub rows: Vec<Fig2Row>,
}

/// The paper's headline numbers: mean communication-time reduction of Wrht
/// versus the electrical algorithms and versus O-Ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// Mean reduction vs the electrical baselines (E-Ring & RD), percent.
    pub vs_electrical_pct: f64,
    /// Mean reduction vs O-Ring, percent.
    pub vs_oring_pct: f64,
    /// Number of (model, scale) cells aggregated.
    pub cells: usize,
}

/// Compute one grid cell. All four measurements run through the unified
/// [`wrht_core::substrate::Substrate`] API.
pub fn fig2_row(cfg: &ExperimentConfig, n: usize, gradient_bytes: u64) -> Fig2Row {
    let elems = (gradient_bytes as usize).div_ceil(cfg.bytes_per_elem);
    let mut electrical = cfg.substrate(SubstrateKind::Electrical, n, Strategy::FirstFit);
    let mut optical = cfg.substrate(SubstrateKind::Optical, n, Strategy::FirstFit);

    // E-Ring and O-Ring run the same chunked ring all-reduce, lowered once:
    // over the switched cluster, then over the optical ring on 1 wavelength.
    let ring = lower_collective_to_optical(&ring_allreduce(n, elems), cfg.bytes_per_elem, 1);
    let e_ring = electrical.execute(&ring).expect("E-Ring fluid run");

    // RD: recursive doubling over the same cluster.
    let rd = run_collective(
        electrical.as_mut(),
        &recursive_doubling(n, elems),
        cfg.bytes_per_elem,
        1,
    )
    .expect("RD fluid run");

    let o_ring = optical.execute(&ring).expect("O-Ring optical run");

    // WRHT with optimizer-chosen group size.
    let wrht = plan_and_simulate(
        &WrhtParams::auto(n, cfg.wavelengths),
        &cfg.optical(n),
        gradient_bytes,
    )
    .expect("Wrht plan");

    Fig2Row {
        n,
        e_ring_s: e_ring.total_time_s,
        rd_s: rd.total_time_s,
        o_ring_s: o_ring.total_time_s,
        wrht_s: wrht.simulated_time_s,
        wrht_m: wrht.m,
        wrht_steps: wrht.plan.step_count(),
    }
}

/// Compute a full sub-figure for one model.
pub fn fig2_series(cfg: &ExperimentConfig, model: &Model) -> Fig2Series {
    let gradient_bytes = model.gradient_bytes();
    Fig2Series {
        model: model.name.clone(),
        gradient_bytes,
        rows: cfg
            .scales
            .iter()
            .map(|&n| fig2_row(cfg, n, gradient_bytes))
            .collect(),
    }
}

/// Aggregate the headline reductions over a set of series.
#[must_use]
pub fn headline(series: &[Fig2Series]) -> Headline {
    let mut vs_e = 0.0;
    let mut vs_o = 0.0;
    let mut cells = 0usize;
    for s in series {
        for r in &s.rows {
            let electrical_mean = 0.5 * (r.e_ring_s + r.rd_s);
            vs_e += 1.0 - r.wrht_s / electrical_mean;
            vs_o += 1.0 - r.wrht_s / r.o_ring_s;
            cells += 1;
        }
    }
    let c = cells.max(1) as f64;
    Headline {
        vs_electrical_pct: 100.0 * vs_e / c,
        vs_oring_pct: 100.0 * vs_o / c,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrht_beats_oring_every_cell_and_electrical_at_scale() {
        let cfg = ExperimentConfig::small();
        let model = dnn_models::googlenet();
        let series = fig2_series(&cfg, &model);
        for r in &series.rows {
            assert!(
                r.wrht_s < r.o_ring_s,
                "n={}: wrht {} >= o-ring {}",
                r.n,
                r.wrht_s,
                r.o_ring_s
            );
        }
        // Wrht's advantage over the electrical algorithms needs enough
        // nodes for the tree to build (the paper evaluates N >= 128; at
        // tiny N with w ~ N^2/8 the one-shot all-to-all is bandwidth-bound
        // and the 100 Gb/s electrical ring can win).
        let last = series.rows.last().unwrap();
        assert!(
            last.wrht_s < last.e_ring_s.min(last.rd_s),
            "n={}: wrht {} >= electrical best {}",
            last.n,
            last.wrht_s,
            last.e_ring_s.min(last.rd_s)
        );
    }

    #[test]
    fn headline_aggregates_reductions() {
        let cfg = ExperimentConfig::small();
        let series = vec![fig2_series(&cfg, &dnn_models::googlenet())];
        let h = headline(&series);
        assert_eq!(h.cells, cfg.scales.len());
        assert!(h.vs_oring_pct > 0.0 && h.vs_oring_pct < 100.0);
        assert!(h.vs_electrical_pct > 0.0 && h.vs_electrical_pct < 100.0);
    }

    #[test]
    fn oring_grows_with_n_but_eringbandwidth_saturates() {
        // Shape check: O-Ring's per-step overheads accumulate with n while
        // E-Ring's bandwidth term is n-independent.
        let cfg = ExperimentConfig::small();
        let s = fig2_series(&cfg, &dnn_models::googlenet());
        let first = &s.rows[0];
        let last = &s.rows[s.rows.len() - 1];
        assert!(last.o_ring_s >= first.o_ring_s * 0.9);
        // RD sends log2(n) full buffers: grows with n.
        assert!(last.rd_s > first.rd_s);
    }
}
