//! Regenerate every figure and headline number of the Wrht paper.
//!
//! ```text
//! repro-figures [command] [--small] [--threads=N] [--mode=M] [--check=PATH] [--json]
//!
//! Commands:
//!   fig2         Figure 2: E-Ring / RD / O-Ring / WRHT across models & scales
//!   headline     The abstract's reduction percentages
//!   steps        Step-count law across N and m
//!   wavelengths  Wavelength requirements (tree + all-to-all)
//!   ablation-m   Group-size sensitivity (extension)
//!   ablation-w   Wavelength-budget sensitivity (extension)
//!   ablation-fit First Fit vs Best Fit RWA (extension)
//!   overlap      Layer-wise bucketed overlap (extension)
//!   variants     Wrht+ variants: depth-optimal stop, multicast, segments
//!   contention   Event-driven wavelength contention on synthetic traffic
//!   sweep        Regenerate fig2 + the grid ablations as ONE parallel
//!                campaign on both substrates (resumable via results/campaign)
//!   train        Simulator-backed training timelines: per-model iteration
//!                time with bucketed Wrht all-reduces on BOTH substrates
//!                (resumable via results/train)
//!   tenants      Multi-job tenancy: 1/2/4 concurrent training jobs sharing
//!                one substrate under fifo/fair/priority scheduling, with
//!                per-job slowdowns and Jain fairness (resumable via
//!                results/tenants)
//!   faults       Fault & degradation dynamics: 2 concurrent training jobs
//!                hit mid-run by a wavelength failure / link degradation /
//!                node failure under replan and fail-job recovery, with
//!                per-job blast radius and recovery time (resumable via
//!                results/faults)
//!   parallelism  Mixed-parallelism lowering: TP/PP/DP (+ MoE all-to-all)
//!                transformer iterations lowered to one mixed-domain DAG
//!                and executed on the composed hierarchical substrate
//!                (optical rings intra-group, electrical cluster
//!                inter-group; resumable via results/parallelism)
//!   serve        Online cluster service: open-loop Poisson arrivals of
//!                training jobs at an underload and an overload rate,
//!                under every scheduling policy and immediate /
//!                queue-bounded / load-shedding admission on both
//!                substrates, with windowed slowdown percentiles and queue
//!                depths (resumable via results/serve)
//!   bench        The fixed perf suite: wall-clock and events/sec over the
//!                frozen tenancy / incast / pipelined workloads, written to
//!                BENCH_v6.json (BENCH_v6.small.json with --small).
//!                `--check=<path>` compares against a committed baseline and
//!                fails if any case drops below 80% of its events/sec.
//!   analyze      Run the wrht-analyze determinism-invariant static analyzer
//!                over the workspace sources (src/, crates/*/src/,
//!                examples/). Exits nonzero on any finding. `--json` emits
//!                the machine-readable report on stdout instead of the
//!                table.
//!   all          Everything above except sweep, train, tenants, faults,
//!                parallelism, serve, bench and analyze (default)
//!
//! `--small` shrinks the node scales for a fast smoke run. `--threads=N`
//! caps the campaign worker count (default: available parallelism).
//! `--mode=barrier|pipelined|both` picks the `train` execution mode:
//! barrier serializes bucket all-reduces on the network, pipelined
//! overlaps them through the dependency-aware executor.
//! JSON copies of every series are written to `results/`; campaign cells,
//! combined JSON and CSV land in `results/campaign/`.
//! An unknown `--flag` or a non-numeric `--threads` value exits 2.
//! ```

use std::fs;
use std::path::Path;

use wrht_bench::ablations::{
    group_size_sweep, overlap_study, rwa_strategy_compare, variant_study, wavelength_sweep,
};
use wrht_bench::campaign::{
    fig2_from_campaign, run_campaign, run_fault_campaign, run_parallelism_campaign,
    run_stream_campaign, run_tenancy_campaign, run_timeline_campaign, sweep_spec,
};
use wrht_bench::contention::{run_contention, Pattern};
use wrht_bench::perf::{run_suite, BenchSuiteResult, SuiteScale};
use wrht_bench::report::{
    render_contention, render_faults, render_fig2, render_fit, render_group_size, render_headline,
    render_overlap, render_parallelism, render_streams, render_tenants, render_timeline,
    render_variants, render_wavelengths, to_json,
};
use wrht_bench::timeline::TimelineRow;
use wrht_bench::{fig2_series, headline, ExperimentConfig};
use wrht_core::dag::ExecMode;
use wrht_core::steps::{
    alltoall_wavelength_requirement, paper_step_count, surviving_reps, tree_wavelength_requirement,
};
use wrht_core::{build_plan, choose_group_size, WrhtParams};

fn write_json(dir: &Path, name: &str, payload: &str) {
    let _ = fs::create_dir_all(dir);
    let path = dir.join(name);
    if let Err(e) = fs::write(&path, payload) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn cmd_fig2(cfg: &ExperimentConfig, results: &Path) {
    let mut all = Vec::new();
    for model in dnn_models::paper_models() {
        let series = fig2_series(cfg, &model);
        print!("{}", render_fig2(&series));
        println!();
        all.push(series);
    }
    write_json(results, "fig2.json", &to_json(&all));
    let h = headline(&all);
    print!("{}", render_headline(&h));
    write_json(results, "headline.json", &to_json(&h));
}

fn cmd_headline(cfg: &ExperimentConfig, results: &Path) {
    let all: Vec<_> = dnn_models::paper_models()
        .iter()
        .map(|m| fig2_series(cfg, m))
        .collect();
    let h = headline(&all);
    print!("{}", render_headline(&h));
    write_json(results, "headline.json", &to_json(&h));
}

fn cmd_steps() {
    println!("== Step-count law: 2*ceil(log_m N) or 2*ceil(log_m N) - 1 ==");
    println!(
        "{:>6} {:>4} {:>10} {:>12} {:>12} {:>8}",
        "N", "m", "m* (paper)", "paper fused", "paper full", "plan"
    );
    for &n in &[128usize, 256, 512, 1024, 4096] {
        for &m in &[2usize, 4, 8, 16] {
            let w = 64;
            if tree_wavelength_requirement(m) > w {
                continue;
            }
            let plan = build_plan(n, m, w).expect("feasible plan");
            println!(
                "{:>6} {:>4} {:>10} {:>12} {:>12} {:>8}",
                n,
                m,
                surviving_reps(n, m),
                paper_step_count(n, m, true),
                paper_step_count(n, m, false),
                plan.step_count()
            );
        }
    }
    println!();
}

fn cmd_wavelengths() {
    println!("== Wavelength requirements ==");
    println!("tree step, group size m -> floor(m/2):");
    for &m in &[2usize, 4, 8, 16, 32] {
        println!("  m={m:>3}: {} wavelengths", tree_wavelength_requirement(m));
    }
    println!("all-to-all among m* reps -> ceil(m*^2/8) (Liang-Shen bound):");
    for &k in &[2usize, 4, 8, 16, 22] {
        println!(
            "  m*={k:>3}: {} wavelengths",
            alltoall_wavelength_requirement(k)
        );
    }
    println!();
}

fn cmd_ablation_m(cfg: &ExperimentConfig, results: &Path) {
    let n = *cfg.scales.last().expect("scales non-empty");
    let bytes = dnn_models::alexnet().gradient_bytes();
    let ms: Vec<usize> = (2..=32).collect();
    let points = group_size_sweep(cfg, n, bytes, &ms);
    print!("{}", render_group_size(&points, n));
    let optical = cfg.optical(n);
    if let Ok((m, _, cost)) =
        choose_group_size(&WrhtParams::auto(n, cfg.wavelengths), &optical, bytes)
    {
        println!(
            "optimizer picks m = {m} at {:.3} ms (AlexNet gradient)",
            cost.total_s() * 1e3
        );
    }
    println!();
    write_json(results, "ablation_group_size.json", &to_json(&points));
}

fn cmd_ablation_w(cfg: &ExperimentConfig, results: &Path) {
    let n = cfg.scales[cfg.scales.len() / 2];
    let bytes = dnn_models::vgg16().gradient_bytes();
    let ws = [1usize, 2, 4, 8, 16, 32, 64];
    let points = wavelength_sweep(cfg, n, bytes, &ws);
    print!("{}", render_wavelengths(&points, n));
    println!();
    write_json(results, "ablation_wavelengths.json", &to_json(&points));
}

fn cmd_ablation_fit(cfg: &ExperimentConfig, results: &Path) {
    let n = *cfg.scales.last().expect("scales non-empty");
    let mut out = Vec::new();
    for model in dnn_models::paper_models() {
        let c = rwa_strategy_compare(cfg, n, model.gradient_bytes());
        println!("[{}]", model.name);
        print!("{}", render_fit(&c, n));
        out.push((model.name.clone(), c));
    }
    println!();
    write_json(results, "ablation_fit.json", &to_json(&out));
}

fn cmd_overlap(cfg: &ExperimentConfig, results: &Path) {
    let n = cfg.scales[0];
    let points: Vec<_> = dnn_models::paper_models()
        .iter()
        .map(|m| overlap_study(cfg, m, n, 25 << 20))
        .collect();
    print!("{}", render_overlap(&points, n));
    println!();
    write_json(results, "overlap.json", &to_json(&points));
}

fn cmd_variants(cfg: &ExperimentConfig, results: &Path) {
    let n = cfg.scales[cfg.scales.len() / 2];
    let points: Vec<_> = dnn_models::paper_models()
        .iter()
        .map(|m| variant_study(cfg, m, n))
        .collect();
    print!("{}", render_variants(&points, n));
    println!();
    write_json(results, "variants.json", &to_json(&points));
}

fn cmd_sweep(cfg: &ExperimentConfig, results: &Path, threads: usize, models: &[dnn_models::Model]) {
    let spec = sweep_spec(cfg, models, 2023);
    let sink = results.join("campaign");
    println!(
        "== Campaign sweep: {} cells over {} worker thread(s) ==",
        spec.cells.len(),
        threads
    );
    let report = run_campaign(&spec, threads, Some(&sink));
    let infeasible = report.results.iter().filter(|r| r.error.is_some()).count();
    println!(
        "{} cells finished ({infeasible} infeasible); sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();

    let named: Vec<(&str, u64)> = models
        .iter()
        .map(|m| (m.name.as_str(), m.gradient_bytes()))
        .collect();
    let series = fig2_from_campaign(&report.results, &named, &cfg.scales, cfg.wavelengths);
    for s in &series {
        print!("{}", render_fig2(s));
        println!();
    }
    write_json(&sink, "fig2.json", &to_json(&series));
    let h = headline(&series);
    print!("{}", render_headline(&h));
    write_json(&sink, "headline.json", &to_json(&h));
}

fn cmd_train(
    cfg: &ExperimentConfig,
    results: &Path,
    threads: usize,
    models: &[dnn_models::Model],
    modes: &[ExecMode],
) {
    let n = *cfg.scales.first().expect("scales non-empty");
    let spec = wrht_bench::campaign::train_spec(cfg, models, n, 2023, modes);
    let bucket_bytes = spec.cells.first().map_or(25 << 20, |c| c.bucket_bytes);
    let sink = results.join("train");
    let mode_labels: Vec<&str> = modes.iter().map(|m| m.label()).collect();
    println!(
        "== Training-timeline campaign: {} cells ({}) over {} worker thread(s) ==",
        spec.cells.len(),
        mode_labels.join("+"),
        threads
    );
    let report = run_timeline_campaign(&spec, threads, Some(&sink));
    let infeasible = report.results.iter().filter(|r| r.error.is_some()).count();
    println!(
        "{} cells finished ({infeasible} infeasible); sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();
    let rows: Vec<TimelineRow> = report
        .results
        .iter()
        .filter(|r| r.error.is_none())
        .map(TimelineRow::from)
        .collect();
    print!("{}", render_timeline(&rows, n, bucket_bytes));
    println!();
    write_json(&sink, "train_rows.json", &to_json(&rows));
}

fn cmd_tenants(
    cfg: &ExperimentConfig,
    results: &Path,
    threads: usize,
    models: &[dnn_models::Model],
) {
    let n = *cfg.scales.first().expect("scales non-empty");
    let spec = wrht_bench::campaign::tenants_spec(cfg, models, n, 2023);
    let sink = results.join("tenants");
    println!(
        "== Tenancy campaign: {} cells over {} worker thread(s) ==",
        spec.cells.len(),
        threads
    );
    let report = run_tenancy_campaign(&spec, threads, Some(&sink));
    let infeasible = report.results.iter().filter(|r| r.error.is_some()).count();
    println!(
        "{} cells finished ({infeasible} infeasible); sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();
    print!("{}", render_tenants(&report.results, n));
    println!();
    write_json(&sink, "tenant_rows.json", &to_json(&report.results));
}

fn cmd_faults(
    cfg: &ExperimentConfig,
    results: &Path,
    threads: usize,
    models: &[dnn_models::Model],
) {
    let n = *cfg.scales.first().expect("scales non-empty");
    let spec = wrht_bench::campaign::faults_spec(cfg, models, n, 2023);
    let sink = results.join("faults");
    println!(
        "== Fault campaign: {} cells over {} worker thread(s) ==",
        spec.cells.len(),
        threads
    );
    let report = run_fault_campaign(&spec, threads, Some(&sink));
    println!(
        "   {} cells finished; sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();
    print!("{}", render_faults(&report.results, n));
    println!();
    write_json(&sink, "fault_rows.json", &to_json(&report.results));
}

fn cmd_parallelism(cfg: &ExperimentConfig, results: &Path, threads: usize) {
    let spec = wrht_bench::campaign::parallelism_spec(cfg, 2023);
    let sink = results.join("parallelism");
    println!(
        "== Mixed-parallelism campaign: {} cells over {} worker thread(s) ==",
        spec.cells.len(),
        threads
    );
    let report = run_parallelism_campaign(&spec, threads, Some(&sink));
    let infeasible = report.results.iter().filter(|r| r.error.is_some()).count();
    println!(
        "{} cells finished ({infeasible} infeasible); sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();
    print!("{}", render_parallelism(&report.results));
    println!();
    write_json(&sink, "parallelism_rows.json", &to_json(&report.results));
}

fn cmd_serve(cfg: &ExperimentConfig, results: &Path, threads: usize, models: &[dnn_models::Model]) {
    let n = *cfg.scales.first().expect("scales non-empty");
    let spec = wrht_bench::campaign::serve_spec(cfg, models, n, 2023);
    let sink = results.join("serve");
    println!(
        "== Open-loop service campaign: {} cells over {} worker thread(s) ==",
        spec.cells.len(),
        threads
    );
    let report = run_stream_campaign(&spec, threads, Some(&sink));
    let infeasible = report.results.iter().filter(|r| r.error.is_some()).count();
    println!(
        "{} cells finished ({infeasible} infeasible); sink: {}",
        report.results.len(),
        sink.display()
    );
    println!();
    print!("{}", render_streams(&report.results, n));
    println!();
    write_json(&sink, "stream_rows.json", &to_json(&report.results));
}

/// Run the fixed perf suite and write `BENCH_v6[.small].json` into
/// `out_dir`. With `check`, compare against the committed baseline at that
/// path; returns `false` when a baseline case is missing, its makespan or
/// event count changed, or its events/sec regressed below 80%.
fn cmd_bench(small: bool, check: Option<&Path>, out_dir: &Path) -> bool {
    let (scale, suite, file) = if small {
        (SuiteScale::small(), "small", "BENCH_v6.small.json")
    } else {
        (SuiteScale::full(), "full", "BENCH_v6.json")
    };
    // Load the baseline before running (and writing): `--check` may point
    // at the very file this run is about to overwrite.
    let baseline: Option<BenchSuiteResult> = match check {
        None => None,
        Some(base_path) => match fs::read_to_string(base_path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", base_path.display());
                return false;
            }
        },
    };
    let milestone = "open-loop stream engine (online arrivals through the running kernel)";
    let result = run_suite(scale, suite, milestone).expect("the frozen perf suite executes");
    println!("== Fixed perf suite ({suite}) ==");
    println!(
        "{:<24} {:>6} {:>10} {:>12} {:>12} {:>14}",
        "case", "nodes", "transfers", "wall_s", "sim_events", "events/s"
    );
    for c in &result.cases {
        println!(
            "{:<24} {:>6} {:>10} {:>12.6} {:>12} {:>14.0}",
            c.name, c.nodes, c.transfers, c.wall_s, c.sim_events, c.events_per_sec
        );
    }
    println!(
        "aggregate: {:.0} events/s over {} cases",
        result.aggregate_events_per_sec(),
        result.cases.len()
    );
    write_json(out_dir, file, &to_json(&result));
    println!("wrote {}", out_dir.join(file).display());

    let (Some(base_path), Some(baseline)) = (check, baseline) else {
        return true;
    };
    let violations = result.regressions_vs(&baseline, 0.8);
    if violations.is_empty() {
        println!(
            "bench check ok vs {} (makespans and events exact, events/s threshold 80%)",
            base_path.display()
        );
        true
    } else {
        for v in &violations {
            eprintln!("bench regression: {v}");
        }
        false
    }
}

/// Run the determinism-invariant static analyzer over the workspace rooted
/// at `root`; returns `false` when any finding (or an I/O error) surfaces.
fn cmd_analyze(root: &Path, json: bool) -> bool {
    let analysis = match wrht_analyze::analyze_workspace(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: cannot scan workspace at {}: {e}", root.display());
            return false;
        }
    };
    if analysis.files_scanned == 0 {
        eprintln!(
            "analyze: no source files under {} (run from the workspace root)",
            root.display()
        );
        return false;
    }
    if json {
        print!("{}", wrht_analyze::render_json(&analysis));
    } else {
        print!("{}", wrht_analyze::render_table(&analysis));
    }
    analysis.is_clean()
}

fn cmd_contention(cfg: &ExperimentConfig, results: &Path) {
    let n = *cfg.scales.first().expect("scales non-empty");
    // A narrow budget makes the contention the stepped model hides visible.
    let w = 4;
    let mut narrow = cfg.clone();
    narrow.wavelengths = w;
    let optical = narrow.optical(n);
    let reports: Vec<_> = [
        Pattern::Permutation,
        Pattern::UniformRandom,
        Pattern::Incast,
    ]
    .into_iter()
    .map(|p| run_contention(&optical, p, 2 * n, 16 << 20, 2023))
    .collect();
    print!("{}", render_contention(&reports, n, w));
    println!();
    write_json(results, "contention.json", &to_json(&reports));
}

/// Dispatch one CLI command; returns `false` for unknown commands.
fn run_command(
    cmd: &str,
    cfg: &ExperimentConfig,
    results: &Path,
    threads: usize,
    modes: &[ExecMode],
) -> bool {
    match cmd {
        "sweep" => cmd_sweep(cfg, results, threads, &dnn_models::paper_models()),
        "train" => cmd_train(cfg, results, threads, &dnn_models::paper_models(), modes),
        "tenants" => cmd_tenants(cfg, results, threads, &dnn_models::paper_models()),
        "faults" => cmd_faults(cfg, results, threads, &dnn_models::paper_models()),
        "serve" => cmd_serve(cfg, results, threads, &dnn_models::paper_models()),
        "parallelism" => cmd_parallelism(cfg, results, threads),
        "fig2" => cmd_fig2(cfg, results),
        "headline" => cmd_headline(cfg, results),
        "steps" => cmd_steps(),
        "wavelengths" => cmd_wavelengths(),
        "ablation-m" => cmd_ablation_m(cfg, results),
        "ablation-w" => cmd_ablation_w(cfg, results),
        "ablation-fit" => cmd_ablation_fit(cfg, results),
        "overlap" => cmd_overlap(cfg, results),
        "variants" => cmd_variants(cfg, results),
        "contention" => cmd_contention(cfg, results),
        "all" => {
            cmd_fig2(cfg, results);
            println!();
            cmd_steps();
            cmd_wavelengths();
            cmd_ablation_m(cfg, results);
            cmd_ablation_w(cfg, results);
            cmd_ablation_fit(cfg, results);
            cmd_overlap(cfg, results);
            cmd_variants(cfg, results);
            cmd_contention(cfg, results);
        }
        _ => return false,
    }
    true
}

/// Parse `--mode=barrier|pipelined|both` (default: barrier).
fn parse_modes(value: Option<&str>) -> Option<Vec<ExecMode>> {
    match value {
        None | Some("barrier") => Some(vec![ExecMode::Barrier]),
        Some("pipelined") => Some(vec![ExecMode::Pipelined]),
        Some("both") => Some(vec![ExecMode::Barrier, ExecMode::Pipelined]),
        Some(_) => None,
    }
}

/// The command-line flags (the first occurrence of a valued flag wins).
#[derive(Debug, Default, PartialEq)]
struct Flags<'a> {
    small: bool,
    threads: Option<usize>,
    mode: Option<&'a str>,
    check: Option<&'a str>,
    json: bool,
}

/// Split the arguments into the command (the first non-flag word) and the
/// flags. An unknown `--flag` or a `--threads=` value that is not a
/// number is an error.
fn parse_args(args: &[String]) -> Result<(Option<&str>, Flags<'_>), String> {
    let mut cmd = None;
    let mut flags = Flags::default();
    for a in args {
        if a == "--small" {
            flags.small = true;
        } else if a == "--json" {
            flags.json = true;
        } else if let Some(v) = a.strip_prefix("--threads=") {
            let n = v
                .parse()
                .map_err(|_| format!("invalid --threads value '{v}'; expected a number"))?;
            flags.threads.get_or_insert(n);
        } else if let Some(v) = a.strip_prefix("--mode=") {
            flags.mode.get_or_insert(v);
        } else if let Some(v) = a.strip_prefix("--check=") {
            flags.check.get_or_insert(v);
        } else if a.starts_with("--") {
            return Err(format!(
                "unknown flag '{a}'; expected --small, --threads=N, --mode=M, --check=PATH or --json"
            ));
        } else {
            cmd.get_or_insert(a.as_str());
        }
    }
    Ok((cmd, flags))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let small = flags.small;
    let threads = flags
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        })
        .max(1);
    let mode_arg = flags.mode;
    let check = flags.check.map(Path::new);
    let Some(modes) = parse_modes(mode_arg) else {
        eprintln!(
            "unknown --mode '{}'; expected barrier, pipelined or both",
            mode_arg.unwrap_or_default()
        );
        std::process::exit(2);
    };
    let cmd = cmd.unwrap_or("all");
    if mode_arg.is_some() && cmd != "train" {
        eprintln!(
            "warning: --mode only affects the `train` command; `{cmd}` ignores it \
             (the sweep's barrier-vs-pipelined ablation cells are built in)"
        );
    }
    if cmd == "analyze" {
        if !cmd_analyze(Path::new("."), flags.json) {
            std::process::exit(1);
        }
        return;
    }
    if cmd == "bench" {
        if !cmd_bench(small, check, Path::new(".")) {
            std::process::exit(1);
        }
        return;
    }
    if check.is_some() {
        eprintln!("warning: --check only affects the `bench` command; `{cmd}` ignores it");
    }
    let cfg = if small {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::default()
    };

    if !run_command(cmd, &cfg, Path::new("results"), threads, &modes) {
        eprintln!("unknown command '{cmd}'; see the binary docs for usage");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A configuration far smaller than `--small`, for fast unit tests.
    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scales: vec![16, 32],
            ..ExperimentConfig::default()
        }
    }

    fn temp_results(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repro-figures-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn known_flags_parse() {
        let list = args(&[
            "serve",
            "--small",
            "--threads=2",
            "--mode=both",
            "--check=base.json",
            "--json",
            "--threads=3",
        ]);
        let (cmd, flags) = parse_args(&list).unwrap();
        assert_eq!(cmd, Some("serve"));
        assert_eq!(
            flags,
            Flags {
                small: true,
                threads: Some(2),
                mode: Some("both"),
                check: Some("base.json"),
                json: true,
            }
        );
        assert_eq!(parse_args(&[]).unwrap(), (None, Flags::default()));
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["steps", "--threads=abc"][..],
            &["steps", "--threads="],
            &["steps", "--threads=-1"],
            &["steps", "--smal"],
            &["--verbose", "steps"],
            &["steps", "--small=1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn headline_command_runs_and_writes_json_on_a_tiny_config() {
        let results = temp_results("headline");
        assert!(run_command(
            "headline",
            &tiny_cfg(),
            &results,
            1,
            &[ExecMode::Barrier]
        ));
        let json = fs::read_to_string(results.join("headline.json"))
            .expect("headline.json must be written");
        assert!(json.contains("vs_oring_pct"));
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn steps_and_wavelengths_commands_run_without_config() {
        let results = temp_results("laws");
        assert!(run_command(
            "steps",
            &tiny_cfg(),
            &results,
            1,
            &[ExecMode::Barrier]
        ));
        assert!(run_command(
            "wavelengths",
            &tiny_cfg(),
            &results,
            1,
            &[ExecMode::Barrier]
        ));
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn bench_command_writes_the_versioned_suite_and_checks_baselines() {
        let out = temp_results("bench");
        fs::create_dir_all(&out).unwrap();
        assert!(cmd_bench(true, None, &out));
        let path = out.join("BENCH_v6.small.json");
        let json = fs::read_to_string(&path).expect("BENCH_v6.small.json must be written");
        let result: BenchSuiteResult = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(result.format, wrht_bench::perf::BENCH_FORMAT);
        assert_eq!(result.suite, "small");
        assert!(result.cases.iter().all(|c| c.sim_events > 0));

        // A baseline slower than anything we can measure always passes...
        let mut easy = result.clone();
        for c in &mut easy.cases {
            c.events_per_sec = 1e-3;
        }
        let easy_path = out.join("easy.json");
        fs::write(&easy_path, to_json(&easy)).unwrap();
        assert!(cmd_bench(true, Some(&easy_path), &out));

        // ...an unreachable one always fails, and a missing one fails loudly.
        let mut hard = result.clone();
        for c in &mut hard.cases {
            c.events_per_sec = 1e18;
        }
        let hard_path = out.join("hard.json");
        fs::write(&hard_path, to_json(&hard)).unwrap();
        assert!(!cmd_bench(true, Some(&hard_path), &out));
        assert!(!cmd_bench(true, Some(&out.join("missing.json")), &out));

        // The CI shape: baseline path == output path. The baseline must be
        // read before this run's results overwrite it, so an unreachable
        // committed baseline still fails the check.
        fs::write(&path, to_json(&hard)).unwrap();
        assert!(!cmd_bench(true, Some(&path), &out));
        let _ = fs::remove_dir_all(&out);
    }

    #[test]
    fn analyze_command_gates_on_findings() {
        let root = temp_results("analyze");
        let src = root.join("crates").join("demo").join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("lib.rs"), "pub fn id(x: u64) -> u64 {\n    x\n}\n").unwrap();
        assert!(cmd_analyze(&root, false), "clean tree must pass");
        fs::write(src.join("lib.rs"), "use std::collections::HashMap;\n").unwrap();
        assert!(!cmd_analyze(&root, true), "R1 violation must gate");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_commands_are_rejected() {
        let results = temp_results("unknown");
        assert!(!run_command(
            "not-a-command",
            &tiny_cfg(),
            &results,
            1,
            &[ExecMode::Barrier]
        ));
        assert!(
            !results.exists(),
            "rejected commands must not create output directories"
        );
    }

    #[test]
    fn train_command_runs_the_timeline_campaign_on_both_substrates() {
        let results = temp_results("train");
        cmd_train(
            &tiny_cfg(),
            &results,
            2,
            &[dnn_models::googlenet()],
            &[ExecMode::Barrier],
        );
        let sink = results.join("train");
        let rows = fs::read_to_string(sink.join("train_rows.json")).expect("train_rows.json");
        assert!(rows.contains("GoogLeNet"));
        assert!(rows.contains("\"substrate\":\"optical\"") || rows.contains("optical"));
        let csv = fs::read_to_string(sink.join("train.csv")).expect("train campaign CSV");
        assert_eq!(csv.lines().count(), 3); // header + 2 substrates
        assert!(csv.contains("electrical") && csv.contains("optical"));
        // Resumable: a second run reuses the sink without changing output.
        cmd_train(
            &tiny_cfg(),
            &results,
            1,
            &[dnn_models::googlenet()],
            &[ExecMode::Barrier],
        );
        let rows2 = fs::read_to_string(sink.join("train_rows.json")).unwrap();
        assert_eq!(rows, rows2);
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn tenants_command_runs_the_tenancy_campaign_and_resumes() {
        let results = temp_results("tenants");
        cmd_tenants(&tiny_cfg(), &results, 2, &[dnn_models::googlenet()]);
        let sink = results.join("tenants");
        let rows = fs::read_to_string(sink.join("tenant_rows.json")).expect("tenant_rows.json");
        assert!(rows.contains("GoogLeNet"));
        assert!(rows.contains("\"fairness_index\""));
        let csv = fs::read_to_string(sink.join("tenants.csv")).expect("tenants campaign CSV");
        // 3 job counts × 3 policies × 2 substrates + header.
        assert_eq!(csv.lines().count(), 19);
        assert!(csv.contains("fifo") && csv.contains("fair") && csv.contains("priority"));
        // Resumable: a second run reuses the sink without changing output.
        cmd_tenants(&tiny_cfg(), &results, 1, &[dnn_models::googlenet()]);
        let rows2 = fs::read_to_string(sink.join("tenant_rows.json")).unwrap();
        assert_eq!(rows, rows2);
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn faults_command_runs_the_fault_campaign_and_resumes() {
        let results = temp_results("faults");
        cmd_faults(&tiny_cfg(), &results, 2, &[dnn_models::googlenet()]);
        let sink = results.join("faults");
        let rows = fs::read_to_string(sink.join("fault_rows.json")).expect("fault_rows.json");
        assert!(rows.contains("GoogLeNet"));
        assert!(rows.contains("\"degraded_ratio\""));
        assert!(rows.contains("\"recovery_s\""));
        let csv = fs::read_to_string(sink.join("faults.csv")).expect("faults campaign CSV");
        // 3 scenarios × 2 recovery policies × 2 substrates + header.
        assert_eq!(csv.lines().count(), 13);
        assert!(csv.contains("wavelength-down") && csv.contains("node-down"));
        assert!(csv.contains("replan") && csv.contains("fail-job"));
        // Resumable: a second run reuses the sink without changing output.
        cmd_faults(&tiny_cfg(), &results, 1, &[dnn_models::googlenet()]);
        let rows2 = fs::read_to_string(sink.join("fault_rows.json")).unwrap();
        assert_eq!(rows, rows2);
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn serve_command_runs_the_stream_campaign_and_resumes() {
        let results = temp_results("serve");
        cmd_serve(&tiny_cfg(), &results, 2, &[dnn_models::googlenet()]);
        let sink = results.join("serve");
        let rows = fs::read_to_string(sink.join("stream_rows.json")).expect("stream_rows.json");
        assert!(rows.contains("GoogLeNet"));
        assert!(rows.contains("\"peak_queue_depth\""));
        assert!(rows.contains("\"slowdown_p99\""));
        let csv = fs::read_to_string(sink.join("serve.csv")).expect("serve campaign CSV");
        // 2 rates × 3 policies × 3 admissions × 2 substrates + header.
        assert_eq!(csv.lines().count(), 37);
        assert!(csv.contains("immediate") && csv.contains("queue:2") && csv.contains("reject:4"));
        // Resumable: a second run reuses the sink without changing output.
        cmd_serve(&tiny_cfg(), &results, 1, &[dnn_models::googlenet()]);
        let rows2 = fs::read_to_string(sink.join("stream_rows.json")).unwrap();
        assert_eq!(rows, rows2);
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn parallelism_command_runs_the_composed_campaign_and_resumes() {
        let results = temp_results("parallelism");
        cmd_parallelism(&tiny_cfg(), &results, 2);
        let sink = results.join("parallelism");
        let rows =
            fs::read_to_string(sink.join("parallelism_rows.json")).expect("parallelism_rows.json");
        assert!(rows.contains("GPT2-small") && rows.contains("BERT-large"));
        assert!(rows.contains("\"intra_transfers\"") && rows.contains("\"inter_transfers\""));
        let csv =
            fs::read_to_string(sink.join("parallelism.csv")).expect("parallelism campaign CSV");
        // 2 transformer models × 4 parallelism shapes + header.
        assert_eq!(csv.lines().count(), 9);
        // Resumable: a second run reuses the sink without changing output.
        cmd_parallelism(&tiny_cfg(), &results, 1);
        let rows2 = fs::read_to_string(sink.join("parallelism_rows.json")).unwrap();
        assert_eq!(rows, rows2);
        let _ = fs::remove_dir_all(&results);
    }

    #[test]
    fn sweep_command_regenerates_fig2_through_the_campaign_engine() {
        let results = temp_results("sweep");
        cmd_sweep(&tiny_cfg(), &results, 2, &[dnn_models::googlenet()]);
        let sink = results.join("campaign");
        let fig2 = fs::read_to_string(sink.join("fig2.json")).expect("campaign fig2.json");
        assert!(fig2.contains("GoogLeNet"));
        assert!(fs::read_to_string(sink.join("headline.json"))
            .expect("campaign headline.json")
            .contains("vs_oring_pct"));
        let csv = fs::read_to_string(sink.join("sweep.csv")).expect("campaign CSV");
        assert!(csv.lines().count() > 20);
        assert!(csv.contains("electrical") && csv.contains("optical"));
        let _ = fs::remove_dir_all(&results);
    }
}
