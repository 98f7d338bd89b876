//! The host's speed, sampled between the library calls of a run.
//!
//! The benchmark runs on a few cores of a shared host. Their speed swings
//! by a third within seconds and moves in steps of 30–40% that last many
//! minutes: within one set of runs, every workload and its set-up got
//! faster together by that much. A time measured on such a host says as
//! much about the neighbours as about the program. So the benchmark times
//! a fixed reference loop of its own, which does the same work whatever
//! the library does, before every library call of every repetition,
//! and reports times at the reference speed: the seconds measured times
//! [`REFERENCE_S`] over the loop's median time over the run. The measured
//! times go to standard error.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`reference_loop`] takes on one unloaded core of the
/// benchmark's usual host (a 2-vCPU Intel Xeon VM); the reported times
/// are at this speed.
pub const REFERENCE_S: f64 = 0.0008;

/// Samples per thread in one burst of the reference loop.
const SAMPLES: usize = 3;

/// A fixed mix of integer hashing, reads and writes over a 256 KiB table
/// and dependent floating-point arithmetic, the kinds of work the
/// simulators do. Returns a value that depends on all of it.
pub fn reference_loop() -> u64 {
    let mut table = [0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    let mut f = 1.0f64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
        acc ^= table[(i * 7) & mask];
        f = f * 1.000_000_1 + (acc & 7) as f64 * 1e-9;
    }
    acc ^ f.to_bits()
}

/// Time `f` on `threads` threads at once, each at least `count` times and
/// for `seconds`; returns the mean over threads of each thread's median
/// time. The campaigns run on every core, and on a shared host one core
/// can be markedly slower than another for minutes, so a burst runs on as
/// many cores as the work it stands beside.
pub fn burst(threads: usize, count: usize, seconds: f64, f: &(dyn Fn() + Sync)) -> f64 {
    let medians: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let begin = Instant::now();
                    let mut times = Vec::new();
                    while times.len() < count || begin.elapsed().as_secs_f64() < seconds {
                        let t0 = Instant::now();
                        f();
                        times.push(t0.elapsed().as_secs_f64());
                    }
                    crate::median(&times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread does not panic"))
            .collect()
    });
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// One sample of the host's speed on `threads` cores: the reference loop's
/// time in seconds.
pub fn sample(threads: usize) -> f64 {
    burst(threads, SAMPLES, 0.0, &|| {
        black_box(reference_loop());
    })
}
