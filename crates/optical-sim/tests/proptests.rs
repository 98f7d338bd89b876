//! Property tests for the optical substrate.

use optical_sim::conflict::{congestion_lower_bound, greedy_wavelength_bound, validate_assignment};
use optical_sim::path::LightPath;
use optical_sim::rwa::{Occupancy, Strategy as Rwa};
use optical_sim::stats::{RunStats, StepStats};
use optical_sim::topology::{Direction, NodeId, RingTopology};
use optical_sim::trace::run_stepped_traced;
use optical_sim::wavelength::Wavelength;
use optical_sim::{
    DirectionChoice, OpticalConfig, OpticalError, RingSimulator, StepReport, StepSchedule, Transfer,
};
use proptest::prelude::*;

/// The naive RWA the word-mask core replaces: build the scan order (index
/// order, or Best Fit's busiest-first order over `load`), test each λ on
/// every segment with [`Occupancy::is_free`], occupy the first `lanes`
/// free ones one λ at a time. `load[dir][λ]` mirrors the occupancy's own
/// per-waveguide load; the caller keeps it in step across releases.
fn naive_assign(
    occ: &mut Occupancy,
    load: &mut [Vec<usize>; 2],
    path: &LightPath,
    lanes: usize,
    strategy: Rwa,
) -> Result<Vec<Wavelength>, OpticalError> {
    if lanes == 0 {
        return Err(OpticalError::ZeroLanes);
    }
    let w = occ.wavelengths();
    let d = usize::from(path.direction == Direction::CounterClockwise);
    let mut order: Vec<usize> = (0..w).collect();
    if strategy == Rwa::BestFit {
        order.sort_by(|&a, &b| load[d][b].cmp(&load[d][a]).then(a.cmp(&b)));
    }
    let picked: Vec<Wavelength> = order
        .into_iter()
        .map(Wavelength)
        .filter(|&l| occ.is_free(path, l))
        .take(lanes)
        .collect();
    if picked.len() < lanes {
        return Err(OpticalError::WavelengthsExhausted {
            available: w,
            requested: lanes,
            step: 0,
        });
    }
    for &l in &picked {
        occ.occupy(path, l);
        load[d][l.0] += path.hops();
    }
    Ok(picked)
}

/// The old stepped loop, as an oracle: a fresh occupancy per step,
/// [`Transfer::resolve`] per transfer, [`naive_assign`] for the lanes.
/// Returns the report and every transfer's lanes.
fn oracle_stepped(
    cfg: &OpticalConfig,
    schedule: &StepSchedule,
    strategy: Rwa,
) -> Result<(StepReport, Vec<Vec<usize>>), OpticalError> {
    let topo = RingTopology::new(cfg.nodes);
    let timing = cfg.timing();
    let mut stats = RunStats::default();
    let mut all_lanes = Vec::new();
    for (index, step) in schedule.steps().iter().enumerate() {
        let mut occ = Occupancy::new(cfg.nodes, cfg.wavelengths);
        let mut load = [vec![0; cfg.wavelengths], vec![0; cfg.wavelengths]];
        let mut duration = 0.0f64;
        let (mut bytes, mut total_lanes, mut max_hops) = (0u64, 0usize, 0usize);
        for tr in step {
            let path = tr.resolve(&topo)?;
            let lanes = naive_assign(&mut occ, &mut load, &path, tr.lanes, strategy).map_err(
                |e| match e {
                    OpticalError::WavelengthsExhausted {
                        available,
                        requested,
                        ..
                    } => OpticalError::WavelengthsExhausted {
                        available,
                        requested,
                        step: index,
                    },
                    other => other,
                },
            )?;
            all_lanes.push(lanes.iter().map(|l| l.0).collect());
            duration = duration.max(timing.transfer_time(tr.bytes, tr.lanes, path.hops()));
            bytes += tr.bytes;
            total_lanes += tr.lanes;
            max_hops = max_hops.max(path.hops());
        }
        stats.steps.push(StepStats {
            index,
            transfers: step.len(),
            duration_s: duration,
            bytes,
            wavelengths_used: occ.distinct_wavelengths_used(),
            peak_wavelength: occ.peak_wavelengths_used(),
            total_lanes,
            max_hops,
        });
    }
    Ok((
        StepReport {
            total_time_s: stats.total_time_s(),
            stats,
        },
        all_lanes,
    ))
}

/// A transfer drawn from raw numbers: endpoint 63 lands off the ring, a
/// lane draw of 0 asks for zero lanes (1 in 20), and the direction is
/// shortest or forced either way.
fn raw_transfer(
    n: usize,
    (a, b, dir, lanes, bytes): (usize, usize, usize, usize, u64),
) -> Transfer {
    let node = |x: usize| NodeId(if x == 63 { n + x % 3 } else { x % n });
    Transfer {
        src: node(a),
        dst: node(b),
        bytes,
        direction: match dir {
            0 => DirectionChoice::Shortest,
            1 => DirectionChoice::Forced(Direction::Clockwise),
            _ => DirectionChoice::Forced(Direction::CounterClockwise),
        },
        lanes: if lanes == 0 { 0 } else { 1 + lanes % 4 },
        tag: 0,
    }
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::Clockwise),
        Just(Direction::CounterClockwise)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hops_inverse_of_step_from(n in 2usize..64, a in 0usize..64, k in 0usize..64) {
        let a = a % n;
        let t = RingTopology::new(n);
        for dir in Direction::BOTH {
            let b = t.step_from(NodeId(a), k, dir);
            prop_assert_eq!(t.hops(NodeId(a), b, dir), k % n);
        }
    }

    #[test]
    fn shortest_direction_minimizes_hops(n in 2usize..64, a in 0usize..64, b in 0usize..64) {
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let t = RingTopology::new(n);
        let dir = t.shortest_direction(NodeId(a), NodeId(b));
        let chosen = t.hops(NodeId(a), NodeId(b), dir);
        let other = t.hops(NodeId(a), NodeId(b), dir.opposite());
        prop_assert!(chosen <= other);
        prop_assert_eq!(chosen, t.min_hops(NodeId(a), NodeId(b)));
    }

    /// Any batch the RWA accepts is conflict-free, under both strategies.
    #[test]
    fn rwa_assignments_are_conflict_free(
        n in 4usize..48,
        w in 1usize..32,
        seed in proptest::collection::vec((0usize..48, 0usize..48, arb_direction(), 1usize..4), 1..20),
        best_fit in proptest::bool::ANY,
    ) {
        let t = RingTopology::new(n);
        let mut occ = Occupancy::new(n, w);
        let strategy = if best_fit { Rwa::BestFit } else { Rwa::FirstFit };
        let mut placed_paths = Vec::new();
        let mut placed_lanes = Vec::new();
        for (a, b, dir, lanes) in seed {
            let (a, b) = (a % n, b % n);
            if a == b { continue; }
            let path = LightPath::routed(&t, NodeId(a), NodeId(b), dir);
            if let Ok(lambdas) = occ.assign(&path, lanes, strategy) {
                prop_assert_eq!(lambdas.len(), lanes);
                placed_paths.push(path);
                placed_lanes.push(lambdas);
            }
        }
        prop_assert!(validate_assignment(&placed_paths, &placed_lanes));
    }

    /// The greedy colouring bound is sandwiched between the congestion
    /// lower bound and what sequential First-Fit actually consumes.
    #[test]
    fn wavelength_bounds_are_ordered(
        n in 8usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..15),
    ) {
        let t = RingTopology::new(n);
        let batch: Vec<(LightPath, usize)> = pairs
            .into_iter()
            .filter_map(|(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| (LightPath::shortest(&t, NodeId(a), NodeId(b)), 1))
            })
            .collect();
        prop_assume!(!batch.is_empty());
        let lower = congestion_lower_bound(&batch);
        let greedy = greedy_wavelength_bound(&batch);
        prop_assert!(greedy >= lower);
        // Sequential First-Fit over a generous budget.
        let mut occ = Occupancy::new(n, batch.len() + 1);
        for (p, lanes) in &batch {
            occ.assign(p, *lanes, Rwa::FirstFit).unwrap();
        }
        prop_assert!(occ.peak_wavelengths_used() >= lower);
    }

    /// Stepped simulation time equals the max transfer time per step,
    /// summed — and never depends on transfer order within a step.
    #[test]
    fn stepped_time_is_order_invariant(
        n in 4usize..32,
        mut pairs in proptest::collection::vec((0usize..32, 0usize..32, 1u64..1_000_000), 2..10),
    ) {
        let cfg = OpticalConfig::new(n, 64);
        let make = |pairs: &[(usize, usize, u64)]| {
            let step: Vec<Transfer> = pairs
                .iter()
                .filter_map(|&(a, b, bytes)| {
                    let (a, b) = (a % n, b % n);
                    (a != b).then(|| Transfer::shortest(NodeId(a), NodeId(b), bytes))
                })
                .collect();
            StepSchedule::from_steps(vec![step])
        };
        let fwd = make(&pairs);
        prop_assume!(fwd.transfer_count() > 0);
        pairs.reverse();
        let rev = make(&pairs);
        let mut sim = RingSimulator::new(cfg);
        let t1 = sim.run_stepped(&fwd, Rwa::FirstFit);
        let t2 = sim.run_stepped(&rev, Rwa::FirstFit);
        match (t1, t2) {
            (Ok(a), Ok(b)) => prop_assert!((a.total_time_s - b.total_time_s).abs() < 1e-15),
            // Order can affect feasibility only through identical budgets;
            // with w=64 and <=10 unit-lane transfers it never fails.
            _ => prop_assert!(false, "unexpected infeasibility"),
        }
    }

    /// Event-driven makespan is bounded below by the longest single
    /// transfer and above by the serial sum.
    #[test]
    fn event_driven_makespan_bounds(
        n in 4usize..24,
        pairs in proptest::collection::vec((0usize..24, 0usize..24, 1u64..500_000), 1..8),
    ) {
        let cfg = OpticalConfig::new(n, 2)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let timing = cfg.timing();
        let released: Vec<(f64, Transfer)> = pairs
            .iter()
            .filter_map(|&(a, b, bytes)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| (0.0, Transfer::shortest(NodeId(a), NodeId(b), bytes)))
            })
            .collect();
        prop_assume!(!released.is_empty());
        let topo = RingTopology::new(n);
        let times: Vec<f64> = released
            .iter()
            .map(|(_, tr)| {
                let hops = topo.min_hops(tr.src, tr.dst);
                timing.transfer_time(tr.bytes, 1, hops)
            })
            .collect();
        let longest = times.iter().copied().fold(0.0, f64::max);
        let serial: f64 = times.iter().sum();
        let mut sim = RingSimulator::new(cfg);
        let r = sim.run_event_driven(&released).unwrap();
        prop_assert!(r.makespan_s >= longest - 1e-12);
        prop_assert!(r.makespan_s <= serial + 1e-12);
    }

    /// `run_stepped` (one occupancy per run, arc routing, word-mask core)
    /// is bit-for-bit the old loop: same report, same lanes per transfer
    /// (through the tracer, which drives the same loop), and the same
    /// error with the same step index.
    #[test]
    fn run_stepped_matches_the_naive_oracle(
        n in 2usize..24,
        w in 1usize..131,
        best_fit in proptest::bool::ANY,
        steps in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..3, 0usize..20, 0u64..2_000_000),
                0..12,
            ),
            0..5,
        ),
    ) {
        let strategy = if best_fit { Rwa::BestFit } else { Rwa::FirstFit };
        let cfg = OpticalConfig::new(n, w);
        let schedule = StepSchedule::from_steps(
            steps
                .into_iter()
                .map(|step| step.into_iter().map(|raw| raw_transfer(n, raw)).collect())
                .collect(),
        );
        let want = oracle_stepped(&cfg, &schedule, strategy);
        let mut sim = RingSimulator::new(cfg);
        let got = sim.run_stepped(&schedule, strategy);
        let traced = run_stepped_traced(&mut sim, &schedule, strategy);
        match (want, got, traced) {
            (Ok((want, lanes)), Ok(got), Ok((total, trace))) => {
                prop_assert_eq!(format!("{want:?}"), format!("{got:?}"));
                prop_assert_eq!(total.to_bits(), got.total_time_s.to_bits());
                let traced_lanes: Vec<Vec<usize>> =
                    trace.entries.into_iter().map(|e| e.lambdas).collect();
                prop_assert_eq!(lanes, traced_lanes);
            }
            (Err(want), Err(got), Err(traced)) => {
                prop_assert_eq!(&want, &got);
                prop_assert_eq!(&want, &traced);
            }
            (want, got, traced) => prop_assert!(
                false,
                "outcomes differ: oracle {want:?}, run_stepped {got:?}, traced {traced:?}"
            ),
        }
    }

    /// `Occupancy::assign` agrees with the naive scan through any mix of
    /// assignments, releases and lane failures/repairs: same lanes or same
    /// error, and the same occupancy afterwards.
    #[test]
    fn assign_matches_the_naive_scan(
        n in 2usize..24,
        w in 1usize..131,
        best_fit in proptest::bool::ANY,
        ops in proptest::collection::vec(
            (0usize..10, 0usize..24, 0usize..24, arb_direction(), 0usize..5, 0usize..256),
            1..40,
        ),
    ) {
        let strategy = if best_fit { Rwa::BestFit } else { Rwa::FirstFit };
        let t = RingTopology::new(n);
        let mut fast = Occupancy::new(n, w);
        let mut slow = Occupancy::new(n, w);
        let mut load = [vec![0; w], vec![0; w]];
        let mut held: Vec<(LightPath, Vec<Wavelength>)> = Vec::new();
        for (kind, a, b, dir, lanes, pick) in ops {
            match kind {
                0 => {
                    fast.set_lane_down(Wavelength(pick % w));
                    slow.set_lane_down(Wavelength(pick % w));
                }
                1 => {
                    fast.set_lane_up(Wavelength(pick % w));
                    slow.set_lane_up(Wavelength(pick % w));
                }
                2 if !held.is_empty() => {
                    let (path, lambdas) = held.swap_remove(pick % held.len());
                    let d = usize::from(path.direction == Direction::CounterClockwise);
                    for &l in &lambdas {
                        fast.release(&path, l);
                        slow.release(&path, l);
                        load[d][l.0] -= path.hops();
                    }
                }
                _ => {
                    let path = LightPath::routed(&t, NodeId(a % n), NodeId(b % n), dir);
                    let got = fast.assign(&path, lanes, strategy);
                    let want = naive_assign(&mut slow, &mut load, &path, lanes, strategy);
                    prop_assert_eq!(&got, &want);
                    if let Ok(lambdas) = got {
                        held.push((path, lambdas));
                    }
                }
            }
            prop_assert_eq!(fast.peak_wavelengths_used(), slow.peak_wavelengths_used());
            prop_assert_eq!(fast.distinct_wavelengths_used(), slow.distinct_wavelengths_used());
            prop_assert!(fast == slow, "occupancies diverged");
        }
    }
}
