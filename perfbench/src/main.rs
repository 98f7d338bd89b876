//! Benchmark of the Wrht reproduction's pipelines, end to end and per
//! layer, driven through the library's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig2-grid|serve-openloop|dag-mixed> [--seed N] \
//!     [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. `--bless` prints the reference digests of the
//! default seed instead (see `digest.rs`). Campaign sinks and span files
//! go under `.bench_build/perfbench/`.

// A timing harness: it reads the wall clock, which the repository's lint
// configuration reserves for timing code and keeps out of the simulators.
#![allow(clippy::disallowed_methods)]

mod dag;
mod digest;
mod fig2;
mod host;
mod layers;
mod serve;
mod sys;
mod trace;

use digest::Item;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The seed of the repository's campaigns; the stored reference digests
/// are taken at it.
const DEFAULT_SEED: u64 = 2023;

/// Where campaign sinks and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_build/perfbench";

/// A workload: an untraced run through the library's campaign entry
/// points, and a traced re-run of the same cells one library call per
/// span, which must reproduce the untraced results bit for bit.
pub trait Bench {
    type Results;
    /// Whether the workload runs its cells serially (no campaign workers).
    const SERIAL: bool = false;
    /// Timed repetitions an untraced run makes at least, however long each
    /// takes.
    const MIN_REPS: usize = 2;
    /// One untraced run writing its sink and report files into `dir`, each
    /// library entry point it calls timed as one part on `clock`.
    fn run(&self, dir: &Path, workers: usize, clock: &mut Clock) -> Self::Results;
    /// The same work, serially, inside layer spans.
    fn traced(&self, t: &mut Tracer, dir: &Path) -> Self::Results;
    /// Checked outputs, in a fixed order.
    fn items(r: &Self::Results) -> Vec<Item>;
    /// The serialized results, compared byte for byte.
    fn json(r: &Self::Results) -> String;
    /// Simulated transfers the run completed (counted outside any timing).
    fn transfers(&self, r: &Self::Results) -> u64;
    /// Leading items that run at the default seed whatever the run's seed,
    /// checked against the stored reference on every repetition; a
    /// workload with some needs no warm-up at the default seed.
    fn fixed_items(&self) -> usize {
        0
    }
    /// Counters gathered after a traced run, outside its spans; returns the
    /// number of items that failed a check made while gathering them.
    fn counters(&self, _r: &Self::Results, _t: &mut Tracer) -> usize {
        0
    }
}

/// The parts of one untraced run, in call order — the library entry
/// points it calls one after another — with their wall and CPU seconds,
/// and a sample of the host's speed taken before each.
pub struct Clock {
    threads: usize,
    parts: Vec<(f64, f64)>,
    loop_s: Vec<f64>,
}

impl Clock {
    /// A clock sampling the host's speed on `threads` cores, as many as the
    /// run keeps busy.
    fn new(threads: usize) -> Self {
        Self {
            threads,
            parts: Vec::new(),
            loop_s: Vec::new(),
        }
    }

    /// Sample the host's speed, then run `f` as the next part.
    pub fn part<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.loop_s.push(host::sample(self.threads));
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        self.parts.push((wall, sys::cpu_seconds() - cpu0));
        out
    }

    /// Measured wall seconds of the parts.
    fn wall(&self) -> f64 {
        self.parts.iter().map(|p| p.0).sum()
    }

    /// Measured CPU seconds of the parts.
    fn cpu(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }
}

/// Write `text` to `dir/name`, creating `dir`.
pub fn write_file(dir: &Path, name: &str, text: &str) {
    fs::create_dir_all(dir).expect("output directory is writable");
    fs::write(dir.join(name), text).expect("output file is writable");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Fresh, empty directories for campaign sinks, removed when dropped.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new() -> Self {
        let root = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    /// A new directory and the number of files already in it; a nonzero
    /// count means a campaign could resume cells instead of running them.
    fn fresh(&mut self) -> (PathBuf, usize) {
        self.next += 1;
        let dir = self.root.join(format!("rep-{}", self.next));
        fs::create_dir_all(&dir).expect("sink directory is writable");
        let present = files(&dir).len();
        (dir, present)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(files(&p));
        } else {
            out.push(p);
        }
    }
    out
}

fn bytes_under(dir: &Path) -> u64 {
    files(dir)
        .iter()
        .filter_map(|f| fs::metadata(f).ok())
        .map(|m| m.len())
        .sum()
}

/// The digests a run's items must match. At the default seed, or for a
/// seedless workload, every one comes from the stored reference; otherwise
/// the leading `fixed` items do, and the rest must repeat `first`, the
/// run's first repetition.
fn expected(
    reference: &[(String, u64)],
    at_default: bool,
    fixed: usize,
    first: &[Item],
) -> Vec<(String, u64)> {
    if at_default {
        return reference.to_vec();
    }
    let fixed = fixed.min(reference.len()).min(first.len());
    let mut want = reference[..fixed].to_vec();
    want.extend(digest::pairs(&first[fixed..]));
    want
}

/// Items that fail on their own: library errors (no workload expects one).
fn errors(items: &[Item]) -> usize {
    items.iter().filter(|i| i.error.is_some()).count()
}

/// Accumulated correctness over a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, items: &[Item], failed: usize) {
        self.attempted += items.len();
        self.failed += failed.min(items.len());
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out + "}"
    }
}

/// Set-up bursts before the first repetition; with one more before each
/// repetition they spread set-up timing over a second or more, as a
/// shared host's speed drifts within seconds.
const SETUP_BURSTS: usize = 20;

/// One set-up burst: the workload set up on `threads` threads at once,
/// each at least `count` times and for `seconds`, at the reference speed
/// of a host-speed sample taken right after on as many threads.
fn setup_burst<B>(
    setup: fn(u64) -> B,
    seed: u64,
    threads: usize,
    count: usize,
    seconds: f64,
) -> f64 {
    let t = host::burst(threads, count, seconds, &|| drop(setup(seed)));
    t * host::REFERENCE_S / host::sample(threads)
}

/// The untraced run: median wall, CPU and throughput over repetitions
/// filling `seconds`, at least [`Bench::MIN_REPS`], after one checked
/// warm-up at the default seed for seeded workloads without fixed items,
/// taken to the reference speed by the host's speed sampled before every
/// part of every repetition (see `host.rs`). Set-up is timed in bursts at
/// the start and before every repetition; `setup_s` is the median over
/// the bursts. `peak_rss_mb` is the median over repetitions of the peak
/// resident set during each.
fn untraced<B: Bench>(
    name: &str,
    setup: fn(u64) -> B,
    seeded: bool,
    args: &Args,
    workers: usize,
) -> (Tally, Metrics) {
    let reference = digest::reference(name);
    let mut tally = Tally::default();
    let mut scratch = Scratch::new();
    let threads = if B::SERIAL { 1 } else { workers };
    let bench = setup(args.seed);
    let mut setup_times: Vec<f64> = (0..SETUP_BURSTS)
        .map(|_| setup_burst(setup, args.seed, workers, 3, 0.05))
        .collect();

    let at_default = !seeded || args.seed == DEFAULT_SEED;
    let fixed = bench.fixed_items();
    if seeded && fixed == 0 {
        let warm = setup(DEFAULT_SEED);
        let (dir, present) = scratch.fresh();
        let r = warm.run(&dir, workers, &mut Clock::new(threads));
        let items = B::items(&r);
        let failed = digest::mismatches(&items, &reference) + errors(&items) + present;
        tally.add(&items, failed);
    }

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut rss = Vec::new();
    let mut loop_s = Vec::new();
    let mut want = None;
    let mut last = None;
    let begin = Instant::now();
    while walls.len() < B::MIN_REPS || begin.elapsed().as_secs_f64() < args.seconds {
        setup_times.push(setup_burst(setup, args.seed, workers, 1, 0.02));
        let (dir, present) = scratch.fresh();
        let mut clock = Clock::new(threads);
        sys::reset_peak_rss();
        let r = bench.run(&dir, workers, &mut clock);
        rss.push(sys::peak_rss_mb());
        walls.push(clock.wall());
        cpus.push(clock.cpu());
        let items = B::items(&r);
        let want = want.get_or_insert_with(|| expected(&reference, at_default, fixed, &items));
        let failed = digest::mismatches(&items, want) + errors(&items) + present;
        tally.add(&items, failed);
        eprintln!(
            "{name}: rep {} measured wall {:.3} s cpu {:.3} s, reference loop {:.3} ms, \
             {failed} failed of {}",
            walls.len(),
            walls[walls.len() - 1],
            cpus[cpus.len() - 1],
            median(&clock.loop_s) * 1e3,
            items.len()
        );
        loop_s.extend(clock.loop_s);
        last = Some(r);
    }
    let transfers = bench.transfers(&last.expect("at least one repetition")) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| transfers / w).collect();
    let slowdown = median(&loop_s) / host::REFERENCE_S;
    eprintln!(
        "{name}: measured medians wall {:.3} s cpu {:.3} s; the host ran at {slowdown:.3}x \
         the reference loop's time",
        median(&walls),
        median(&cpus)
    );
    let metrics = Metrics(vec![
        ("wall_s", median(&walls) / slowdown, "s"),
        ("cpu_s", median(&cpus) / slowdown, "s"),
        ("transfers_per_s", median(&rates) * slowdown, "1/s"),
        ("setup_s", median(&setup_times), "s"),
        ("peak_rss_mb", median(&rss), "MiB"),
    ]);
    (tally, metrics)
}

/// Layers whose self times, with `other`, partition a traced run's wall
/// time.
const LAYERS: [&str; 12] = [
    "collectives",
    "core.plan",
    "core.lower",
    "electrical",
    "optical",
    "stream.optical",
    "stream.electrical",
    "dag.clean",
    "dag.faulted",
    "hierarchy",
    "campaign",
    "report",
];

/// One untraced and one traced repetition of a traced run.
struct Pair<R> {
    wall: f64,
    traced_wall: f64,
    sink_bytes: f64,
    tracer: Tracer,
    results: R,
}

/// The traced run: pairs of an untraced and a traced repetition, until
/// `seconds` are filled. The traced results must equal the untraced ones
/// (cells serial against `workers` threads) byte for byte. Every per-layer
/// figure comes from the pair with the median traced wall time, so the
/// layer self times add up to that pair's `trace.wall_s`.
fn traced<B: Bench>(
    name: &str,
    setup: fn(u64) -> B,
    seeded: bool,
    args: &Args,
    workers: usize,
) -> (Tally, Metrics) {
    let reference = digest::reference(name);
    let mut tally = Tally::default();
    let mut scratch = Scratch::new();
    let bench = setup(args.seed);
    let at_default = !seeded || args.seed == DEFAULT_SEED;
    let fixed = bench.fixed_items();
    let threads = if B::SERIAL { 1 } else { workers };

    let mut pairs = Vec::new();
    let begin = Instant::now();
    while pairs.is_empty() || begin.elapsed().as_secs_f64() < args.seconds {
        let (dir, present) = scratch.fresh();
        let mut clock = Clock::new(threads);
        let untraced = bench.run(&dir, workers, &mut clock);
        let wall = clock.wall();
        let sink_bytes = bytes_under(&dir) as f64;

        let (dir, _) = scratch.fresh();
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let results = bench.traced(&mut tracer, &dir);
        let traced_wall = t0.elapsed().as_secs_f64();

        let items = B::items(&results);
        let want = B::items(&untraced);
        let mut failed = digest::mismatches(&items, &digest::pairs(&want)) + errors(&items);
        if B::json(&results) != B::json(&untraced) {
            failed = failed.max(1);
        }
        tally.add(&items, failed);
        let failed = errors(&want)
            + present
            + digest::mismatches(&want, &expected(&reference, at_default, fixed, &want));
        tally.add(&want, failed);
        eprintln!("{name}: untraced {wall:.3} s, traced {traced_wall:.3} s");
        pairs.push(Pair {
            wall,
            traced_wall,
            sink_bytes,
            tracer,
            results,
        });
    }
    pairs.sort_by(|a, b| a.traced_wall.total_cmp(&b.traced_wall));
    let Pair {
        wall,
        traced_wall,
        sink_bytes,
        tracer: mut t,
        results,
    } = pairs.swap_remove(pairs.len() / 2);
    tally.failed += bench.counters(&results, &mut t);
    let candidates = layers::plan_candidates(&t.plan_calls) as f64;
    write_file(
        Path::new(OUT_DIR),
        &format!("spans-{name}.jsonl"),
        &t.to_jsonl(),
    );

    let self_s = t.self_times();
    let layer = |l: &str| self_s.get(l).copied().unwrap_or(0.0);
    let other = traced_wall - LAYERS.iter().map(|l| layer(l)).sum::<f64>();
    let campaign_workers = if B::SERIAL { 1 } else { workers };
    let busy = t.total("campaign") / (campaign_workers as f64 * wall);
    let c = |n: &str| t.counter(n);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let stream_s = layer("stream.optical") + layer("stream.electrical");
    let metrics = Metrics(vec![
        ("collectives.self_s", layer("collectives"), "s"),
        ("collectives.transfers", c("collectives.transfers"), "count"),
        ("core.plan.self_s", layer("core.plan"), "s"),
        ("core.plan.candidates", candidates, "count"),
        ("core.lower.self_s", layer("core.lower"), "s"),
        ("core.lower.transfers", c("core.lower.transfers"), "count"),
        ("electrical.self_s", layer("electrical"), "s"),
        ("electrical.events", c("electrical.events"), "count"),
        (
            "electrical.rate_recomputations",
            c("electrical.rate_recomputations"),
            "count",
        ),
        (
            "electrical.solver_work",
            c("electrical.solver_work"),
            "count",
        ),
        (
            "electrical.solver_work_per_event",
            ratio(c("electrical.solver_work"), c("electrical.events")),
            "ratio",
        ),
        (
            "electrical.events_per_s",
            ratio(c("electrical.events"), layer("electrical")),
            "1/s",
        ),
        ("optical.self_s", layer("optical"), "s"),
        ("optical.transfers", c("optical.transfers"), "count"),
        (
            "optical.peak_wavelength",
            c("optical.peak_wavelength"),
            "count",
        ),
        ("stream.self_s", stream_s, "s"),
        ("stream.optical.self_s", layer("stream.optical"), "s"),
        ("stream.electrical.self_s", layer("stream.electrical"), "s"),
        ("stream.optical.events", c("stream.optical.events"), "count"),
        (
            "stream.optical.events_per_s",
            ratio(c("stream.optical.events"), layer("stream.optical")),
            "1/s",
        ),
        ("stream.arrivals", c("stream.arrivals"), "count"),
        ("stream.admitted", c("stream.admitted"), "count"),
        ("stream.rejected", c("stream.rejected"), "count"),
        (
            "stream.admit_ratio",
            ratio(c("stream.admitted"), c("stream.arrivals")),
            "ratio",
        ),
        (
            "stream.peak_queue_depth",
            c("stream.peak_queue_depth"),
            "count",
        ),
        (
            "stream.peak_in_service",
            c("stream.peak_in_service"),
            "count",
        ),
        ("kernel.events", c("kernel.events"), "count"),
        ("dag.clean.self_s", layer("dag.clean"), "s"),
        ("dag.faulted.self_s", layer("dag.faulted"), "s"),
        ("fault.aborts", c("fault.aborts"), "count"),
        (
            "fault.failed_transfers",
            c("fault.failed_transfers"),
            "count",
        ),
        ("hierarchy.self_s", layer("hierarchy"), "s"),
        ("hierarchy.events", c("hierarchy.events"), "count"),
        (
            "hierarchy.intra_transfers",
            c("hierarchy.intra_transfers"),
            "count",
        ),
        (
            "hierarchy.inter_transfers",
            c("hierarchy.inter_transfers"),
            "count",
        ),
        ("hierarchy.solver_work", c("hierarchy.solver_work"), "count"),
        ("campaign.self_s", layer("campaign"), "s"),
        ("campaign.busy_ratio", busy, "ratio"),
        ("campaign.sink_bytes", sink_bytes, "bytes"),
        ("report.self_s", layer("report"), "s"),
        ("report.bytes", c("report.bytes"), "bytes"),
        ("other.self_s", other, "s"),
        ("trace.wall_s", traced_wall, "s"),
        ("trace.overhead_s", traced_wall - wall, "s"),
    ]);
    (tally, metrics)
}

fn bless<B: Bench>(name: &str, setup: fn(u64) -> B, workers: usize) -> String {
    let mut scratch = Scratch::new();
    let (dir, _) = scratch.fresh();
    let r = setup(DEFAULT_SEED).run(&dir, workers, &mut Clock::new(1));
    digest::bless(name, &B::items(&r))
}

fn measure<B: Bench>(name: &str, setup: fn(u64) -> B, seeded: bool, args: &Args) -> ExitCode {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    if args.bless {
        print!("{}", bless(name, setup, workers));
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{name}: seed {} ({}), {workers} worker(s)",
        args.seed,
        if seeded { "seeded" } else { "seedless" }
    );
    let (tally, metrics) = if args.trace {
        traced(name, setup, seeded, args, workers)
    } else {
        untraced(name, setup, seeded, args, workers)
    };
    eprintln!(
        "{name}: error_rate {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "fig2-grid" => measure("fig2-grid", fig2::setup, false, &args),
        "serve-openloop" => measure("serve-openloop", serve::setup, true, &args),
        "dag-mixed" => measure("dag-mixed", dag::setup, true, &args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            ExitCode::from(2)
        }
    }
}
