//! Golden-file regression tests for the `fig2` / `headline` JSON payloads.
//!
//! The simulators are pure IEEE-754 arithmetic with no platform-dependent
//! ordering, so the rendered JSON is bit-stable; any drift in the timing
//! models, lowering or serialization shows up as a golden diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test golden_figures
//! ```

use std::fs;
use std::path::PathBuf;
use wrht_bench::report::to_json;
use wrht_bench::timeline::timeline_table;
use wrht_bench::{fig2_series, headline, ExperimentConfig};

/// A fixed reduced-scale grid: small enough to run in milliseconds, large
/// enough to cover both substrates, the optimizer and the all-to-all stop.
fn golden_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scales: vec![16, 32],
        ..ExperimentConfig::default()
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the checked-in golden, or regenerate it when
/// the `WRHT_BLESS` environment variable is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test golden_figures`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, re-bless with \
         `WRHT_BLESS=1 cargo test --test golden_figures`"
    );
}

#[test]
fn fig2_json_matches_golden() {
    let series = fig2_series(&golden_cfg(), &dnn_models::googlenet());
    assert_matches_golden("fig2_googlenet.json", &to_json(&series));
}

#[test]
fn train_timeline_json_matches_golden() {
    // The simulator-backed `train` table: GoogLeNet (the smallest model)
    // on both substrates at 16 nodes with 4 MB buckets. Bit-stable like
    // the fig2 payloads; re-bless with `WRHT_BLESS=1` after intentional
    // timing-model changes.
    let rows = timeline_table(&golden_cfg(), &[dnn_models::googlenet()], 16, 4 << 20);
    assert_eq!(rows.len(), 2, "both substrates must produce a row");
    assert_matches_golden("train_googlenet.json", &to_json(&rows));
}

#[test]
fn fault_campaign_json_matches_golden() {
    // The `faults` figure: per-job blast radius and recovery time for a
    // wavelength failure, a link degradation and a node failure (each at
    // 25% of the clean makespan) under replan and fail-job recovery, on
    // both substrates. Pins the whole fault pipeline — script scheduling
    // through the shared kernel, abort/re-grant on the optical ring,
    // incremental re-solve on the electrical cluster, and the blast-radius
    // diff — bit-exactly.
    let spec =
        wrht_bench::campaign::faults_spec(&golden_cfg(), &[dnn_models::googlenet()], 16, 2023);
    let report = wrht_bench::campaign::run_fault_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden fault cell must execute"
    );
    // ≥1 wavelength-failure and ≥1 link-degradation scenario per substrate.
    for kind in ["optical", "electrical"] {
        for scenario in ["wavelength-down", "link-degrade"] {
            assert!(
                report.results.iter().any(|r| {
                    r.cell.substrate.label() == kind
                        && r.cell.scenario.label().starts_with(scenario)
                }),
                "missing {scenario} cell on {kind}"
            );
        }
    }
    assert_matches_golden("faults_googlenet.json", &to_json(&report));
}

#[test]
fn stream_campaign_json_matches_golden() {
    // The `serve` figure at reduced scale: a Poisson arrival stream of
    // GoogLeNet jobs through the running kernel under every scheduling
    // policy and admission rule, on both substrates. Pins the open-loop
    // engine end to end — arrival generation, admission queueing and
    // shedding, windowed metrics, streaming percentiles and Jain fairness
    // — bit-exactly. Trimmed to the overload rate so the queue-depth and
    // reject admission paths actually differentiate.
    let mut spec =
        wrht_bench::campaign::serve_spec(&golden_cfg(), &[dnn_models::googlenet()], 16, 2023);
    spec.cells.retain(|c| c.rate_hz > 100.0);
    for c in &mut spec.cells {
        c.arrivals = 6;
    }
    let report = wrht_bench::campaign::run_stream_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden stream cell must execute"
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| r.rejected > 0 && r.admitted + r.rejected == r.arrivals),
        "the overload grid must shed load somewhere"
    );
    assert_matches_golden("serve_googlenet.json", &to_json(&report));
}

#[test]
fn parallelism_campaign_json_matches_golden() {
    // The `parallelism` figure: GPT-2 small lowered under every default
    // TP/PP/DP (+ MoE) shape to one mixed-domain DAG and executed on the
    // composed hierarchical substrate (optical rings intra-group, the
    // electrical cluster inter-group). Pins the whole hierarchy pipeline —
    // parallelism IR lowering, fabric-domain tagging, per-group engine
    // instantiation and the cross-fabric co-sim event loop — bit-exactly.
    let mut spec = wrht_bench::campaign::parallelism_spec(&golden_cfg(), 2023);
    spec.cells.retain(|c| c.model == "GPT2-small");
    assert!(!spec.cells.is_empty(), "GPT-2 shapes must be in the grid");
    let report = wrht_bench::campaign::run_parallelism_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden parallelism cell must execute"
    );
    // The default grid must exercise both a flat (TP-only, intra-only)
    // shape and composed shapes with inter-group DP / MoE traffic.
    assert!(
        report
            .results
            .iter()
            .any(|r| r.groups == 1 && r.inter_transfers == 0),
        "missing the flat TP-only shape"
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| r.cell.moe_experts > 0 && r.inter_transfers > 0 && r.intra_transfers > 0),
        "missing a mixed-domain MoE shape"
    );
    assert_matches_golden("parallelism_gpt2.json", &to_json(&report));
}

#[test]
fn headline_json_matches_golden() {
    let cfg = golden_cfg();
    let all: Vec<_> = [dnn_models::googlenet(), dnn_models::alexnet()]
        .iter()
        .map(|m| fig2_series(&cfg, m))
        .collect();
    assert_matches_golden("headline.json", &to_json(&headline(&all)));
}

#[test]
fn rwa_fit_compare_json_matches_golden() {
    // The `ablation-fit` table at reduced scale: the Wrht schedule run
    // under First Fit and under Best Fit on the stepped RWA. Pins both
    // heuristics' step times and wavelength footprints bit-exactly.
    let cfg = golden_cfg();
    let rows: Vec<_> = [dnn_models::googlenet(), dnn_models::alexnet()]
        .iter()
        .flat_map(|m| {
            cfg.scales.iter().map(move |&n| {
                (
                    m.name.clone(),
                    n,
                    wrht_bench::ablations::rwa_strategy_compare(
                        &golden_cfg(),
                        n,
                        m.gradient_bytes(),
                    ),
                )
            })
        })
        .collect();
    assert_matches_golden("ablation_fit.json", &to_json(&rows));
}

#[test]
fn contention_json_matches_golden() {
    // The `contention` table at 16 nodes on a 4-wavelength budget: every
    // synthetic pattern through the event-driven FIFO loop, which places
    // each waiter with `Occupancy::assign`. Pins makespans and peak
    // concurrency bit-exactly.
    use wrht_bench::contention::{run_contention, Pattern};
    let mut narrow = golden_cfg();
    narrow.wavelengths = 4;
    let optical = narrow.optical(16);
    let reports: Vec<_> = [
        Pattern::Permutation,
        Pattern::UniformRandom,
        Pattern::Incast,
    ]
    .into_iter()
    .map(|p| run_contention(&optical, p, 32, 16 << 20, 2023))
    .collect();
    assert_matches_golden("contention.json", &to_json(&reports));
}
