//! Property tests for the fluid model: the defining invariants of max-min
//! fairness and flow-level simulation.

use electrical_sim::error::NetError;
use electrical_sim::flow::FlowSpec;
use electrical_sim::graph::{Link, LinkId, Router};
use electrical_sim::maxmin::maxmin_rates;
use electrical_sim::runner::{run_steps, StepTransfer};
use electrical_sim::sim::run_flows;
use electrical_sim::topology::{fat_tree_two_level, full_mesh, ring, star_cluster, torus_2d};
use electrical_sim::Network;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_pairs(n: usize, max: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 1..max)
        .prop_map(|v| v.into_iter().filter(|(a, b)| a != b).collect())
}

fn routes(net: &Network, pairs: &[(usize, usize)]) -> Vec<Vec<LinkId>> {
    pairs
        .iter()
        .map(|&(s, d)| net.route(s, d).unwrap())
        .collect()
}

/// Check the two defining max-min properties on an allocation.
fn check_maxmin(net: &Network, flows: &[Vec<LinkId>], rates: &[f64]) {
    let mut load = vec![0.0f64; net.links().len()];
    for (route, &rate) in flows.iter().zip(rates) {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        for &l in route {
            load[l.0] += rate;
        }
    }
    // 1. Feasibility: no link above capacity.
    for (l, &used) in load.iter().enumerate() {
        assert!(
            used <= net.links()[l].capacity_bps * (1.0 + 1e-6),
            "link {l} oversubscribed"
        );
    }
    // 2. Every flow has a saturated bottleneck link.
    for (f, route) in flows.iter().enumerate() {
        let has_bottleneck = route
            .iter()
            .any(|&l| load[l.0] >= net.links()[l.0].capacity_bps * (1.0 - 1e-6));
        assert!(has_bottleneck, "flow {f} could be raised");
    }
}

/// A uniform draw from `xs`.
fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

/// Link latencies, seconds: zero, equal values, and values within 1 ns
/// of each other (whose sums differ in bits, so their steps must fall
/// back to the engine).
const LATENCIES: [f64; 5] = [0.0, 5e-7, 1e-6, 1e-6 + 3e-10, 2.5e-6];
/// Link capacities, bytes per second.
const CAPACITIES: [f64; 4] = [1e9, 12.5e9, 3e8, 7.7e9];

/// A network of topology `kind` (0 star, 1 ring, 2 fat tree, 3 torus,
/// 4 full mesh) and its router; `random_links` redraws every link's
/// capacity and latency through `Network::from_parts`.
fn arb_network(kind: usize, random_links: bool, rng: &mut StdRng) -> (Network, Router) {
    let cap = pick(rng, &CAPACITIES);
    let lat = pick(rng, &LATENCIES);
    let (net, router) = match kind {
        0 => (
            star_cluster(2 + rng.random_range(0..10usize), cap, lat),
            Router::Star,
        ),
        1 => (
            ring(2 + rng.random_range(0..10usize), cap, lat),
            Router::Ring,
        ),
        2 => {
            let (edges, hosts_per_edge, spines) = (
                2 + rng.random_range(0..2usize),
                2 + rng.random_range(0..3usize),
                1 + rng.random_range(0..2usize),
            );
            let router = Router::FatTree {
                edges,
                hosts_per_edge,
                spines,
            };
            (
                fat_tree_two_level(edges, hosts_per_edge, spines, cap, lat),
                router,
            )
        }
        3 => {
            let (rows, cols) = (
                2 + rng.random_range(0..3usize),
                2 + rng.random_range(0..3usize),
            );
            (
                torus_2d(rows, cols, cap, lat),
                Router::Torus2D { rows, cols },
            )
        }
        _ => (
            full_mesh(2 + rng.random_range(0..8usize), cap, lat),
            Router::FullMesh,
        ),
    };
    if !random_links {
        return (net, router);
    }
    let links = (0..net.links().len())
        .map(|_| Link {
            capacity_bps: pick(rng, &CAPACITIES),
            latency_s: pick(rng, &LATENCIES),
        })
        .collect();
    (
        Network::from_parts(net.hosts(), links, router.clone()),
        router,
    )
}

/// One step over `n` hosts. Shifts and pairwise exchanges are
/// contention-free on a star (each host sends once and receives once);
/// random pairs usually contend; `faulty` adds a self-flow or an
/// out-of-range host at a random position.
fn arb_step(n: usize, faulty: bool, rng: &mut StdRng) -> Vec<StepTransfer> {
    let pairs: Vec<(usize, usize)> = match rng.random_range(0..4usize) {
        0 | 1 => {
            let shift = 1 + rng.random_range(0..n - 1);
            (0..n).map(|i| (i, (i + shift) % n)).collect()
        }
        2 => {
            let mask = 1 + rng.random_range(0..n.next_power_of_two() - 1);
            (0..n)
                .map(|i| (i, i ^ mask))
                .filter(|&(_, j)| j < n)
                .collect()
        }
        _ => (0..1 + rng.random_range(0..2 * n))
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect(),
    };
    let same_bytes = rng.random_range(0..2usize) == 0;
    let bytes = rng.random_range(1..4_000_001u64);
    let mut step = Vec::new();
    for (src, dst) in pairs {
        if rng.random_range(0..5usize) == 0 {
            continue;
        }
        let bytes = match rng.random_range(0..8usize) {
            0 => 0,
            _ if same_bytes => bytes,
            _ => rng.random_range(1..4_000_001u64),
        };
        step.push(StepTransfer { src, dst, bytes });
    }
    if faulty {
        let bad = if rng.random_range(0..2usize) == 0 {
            let h = rng.random_range(0..n);
            (h, h)
        } else {
            (rng.random_range(0..n), n + rng.random_range(0..2usize))
        };
        let at = rng.random_range(0..step.len() + 1);
        step.insert(
            at,
            StepTransfer {
                src: bad.0,
                dst: bad.1,
                bytes: rng.random_range(1..1001u64),
            },
        );
    }
    step
}

/// The stepped runner's definition: `run_flows` on each step's payload
/// flows, composed with the per-step overhead.
fn composed_run_flows(
    net: &Network,
    steps: &[Vec<StepTransfer>],
    overhead_s: f64,
) -> Result<(Vec<f64>, f64), NetError> {
    let mut step_times = Vec::new();
    for step in steps {
        if step.is_empty() {
            step_times.push(0.0);
            continue;
        }
        let flows: Vec<FlowSpec> = step
            .iter()
            .filter(|t| t.bytes > 0)
            .map(|t| FlowSpec::new(t.src, t.dst, t.bytes))
            .collect();
        let makespan_s = if flows.is_empty() {
            0.0
        } else {
            run_flows(net, &flows)?.makespan_s
        };
        step_times.push(overhead_s + makespan_s);
    }
    let total = step_times.iter().sum();
    Ok((step_times, total))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `run_steps` equals composing `run_flows` per step, bit for bit, or
/// fails with the same error.
fn check_stepped_differential(
    net: &Network,
    steps: &[Vec<StepTransfer>],
    overhead_s: f64,
) -> Result<(), String> {
    match (
        run_steps(net, steps, overhead_s),
        composed_run_flows(net, steps, overhead_s),
    ) {
        (Ok(got), Ok((step_times, total))) => {
            prop_assert_eq!(bits(&got.step_times_s), bits(&step_times));
            prop_assert_eq!(got.total_time_s.to_bits(), total.to_bits());
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => return Err(format!("run_steps {got:?} but composed run_flows {want:?}")),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maxmin_invariants_on_star(pairs in arb_pairs(12, 24)) {
        prop_assume!(!pairs.is_empty());
        let net = star_cluster(12, 1e9, 0.0);
        let flows = routes(&net, &pairs);
        let rates = maxmin_rates(&net, &flows);
        check_maxmin(&net, &flows, &rates);
    }

    #[test]
    fn maxmin_invariants_on_ring(pairs in arb_pairs(10, 20)) {
        prop_assume!(!pairs.is_empty());
        let net = ring(10, 2e9, 0.0);
        let flows = routes(&net, &pairs);
        let rates = maxmin_rates(&net, &flows);
        check_maxmin(&net, &flows, &rates);
    }

    #[test]
    fn maxmin_invariants_on_fat_tree(pairs in arb_pairs(16, 20)) {
        prop_assume!(!pairs.is_empty());
        let net = fat_tree_two_level(4, 4, 2, 1e9, 0.0);
        let flows = routes(&net, &pairs);
        let rates = maxmin_rates(&net, &flows);
        check_maxmin(&net, &flows, &rates);
    }

    /// Adding a flow never raises the minimum allocated rate (per-flow
    /// monotonicity does NOT hold for max-min — slowing one flow can free
    /// capacity for another — but the fairness floor is monotone), and the
    /// extended allocation still satisfies the max-min invariants.
    #[test]
    fn maxmin_floor_is_monotone_under_additional_load(
        pairs in arb_pairs(8, 10),
        extra_src in 0usize..8,
        extra_dst in 0usize..8,
    ) {
        prop_assume!(!pairs.is_empty() && extra_src != extra_dst);
        let net = star_cluster(8, 1e9, 0.0);
        let flows = routes(&net, &pairs);
        let before = maxmin_rates(&net, &flows);
        let min_before = before.iter().copied().fold(f64::INFINITY, f64::min);
        let mut extended = flows.clone();
        extended.push(net.route(extra_src, extra_dst).unwrap());
        let after = maxmin_rates(&net, &extended);
        let min_after = after.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(min_after <= min_before * (1.0 + 1e-9));
        check_maxmin(&net, &extended, &after);
    }

    /// Fluid completion time is bounded below by each flow's ideal time
    /// (latency + size/capacity) and every flow does finish.
    #[test]
    fn fluid_run_respects_physics(
        pairs in arb_pairs(10, 12),
        kb in 1u64..500,
    ) {
        prop_assume!(!pairs.is_empty());
        let cap = 1e9;
        let lat = 1e-6;
        let net = star_cluster(10, cap, lat);
        let bytes = kb * 1024;
        let specs: Vec<FlowSpec> = pairs.iter().map(|&(s, d)| FlowSpec::new(s, d, bytes)).collect();
        let report = run_flows(&net, &specs).unwrap();
        let ideal = 2.0 * lat + bytes as f64 / cap;
        for f in &report.flows {
            prop_assert!(f.finish_s >= ideal - 1e-12);
        }
        prop_assert!(report.makespan_s >= ideal - 1e-12);
        // Makespan is also bounded by fully serializing everything through
        // one port.
        let serial = 2.0 * lat + (pairs.len() as u64 * bytes) as f64 / cap;
        prop_assert!(report.makespan_s <= serial + 1e-9);
    }

    /// Identical flows released together finish together (fairness).
    #[test]
    fn identical_contending_flows_finish_together(k in 2usize..8, kb in 1u64..100) {
        let net = star_cluster(k + 1, 1e9, 0.0);
        // k flows all into host 0.
        let specs: Vec<FlowSpec> =
            (1..=k).map(|s| FlowSpec::new(s, 0, kb * 1024)).collect();
        let report = run_flows(&net, &specs).unwrap();
        let first = report.flows[0].finish_s;
        for f in &report.flows {
            prop_assert!((f.finish_s - first).abs() < 1e-9);
        }
        // And they take exactly k times the solo duration.
        let solo = kb as f64 * 1024.0 / 1e9;
        prop_assert!((first - solo * k as f64).abs() / first < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The stepped runner's closed form for contention-free steps is the
    /// fluid engine's arithmetic: random steps on every topology, with
    /// uniform or random per-link capacities and latencies, time exactly
    /// like `run_flows` composed per step.
    #[test]
    fn run_steps_equals_composed_run_flows(
        kind in 0usize..5,
        random_links in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, _) = arb_network(kind, random_links == 1, &mut rng);
        let n = net.hosts();
        let steps: Vec<Vec<StepTransfer>> = (0..1 + rng.random_range(0..6usize))
            .map(|_| match rng.random_range(0..8usize) {
                0 => Vec::new(),
                _ => arb_step(n, false, &mut rng),
            })
            .collect();
        let overhead_s = pick(&mut rng, &[0.0, 1e-6, 2.5e-5]);
        check_stepped_differential(&net, &steps, overhead_s)?;
    }

    /// Errors come out as the engine reports them: a self-flow or an
    /// out-of-range host anywhere in a step, and zero-capacity links under
    /// a step's flows.
    #[test]
    fn run_steps_errors_match_run_flows(
        kind in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, router) = arb_network(kind, false, &mut rng);
        let n = net.hosts();
        let steps = vec![arb_step(n, false, &mut rng), arb_step(n, true, &mut rng)];
        check_stepped_differential(&net, &steps, 1e-6)?;

        let steps: Vec<Vec<StepTransfer>> =
            (0..3).map(|_| arb_step(n, false, &mut rng)).collect();
        // Darken a link under each of up to two flows, so a step can hold
        // several stalled flows and the first one must be reported.
        let mut links = net.links().to_vec();
        for victim in steps.iter().flatten().filter(|t| t.bytes > 0).take(2) {
            let route = net.route(victim.src, victim.dst).unwrap();
            links[pick(&mut rng, &route).0].capacity_bps = 0.0;
        }
        let dark = Network::from_parts(n, links, router);
        check_stepped_differential(&dark, &steps, 1e-6)?;
    }
}
