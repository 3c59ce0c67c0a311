//! Machine-speed calibration.
//!
//! On a machine shared with other workloads, how fast the same code runs
//! can drift by well over 20% within minutes, both through contention
//! for cores and caches (CPU time drifts with wall time) and through
//! cores taken away for a while (a parallel workload loses its
//! parallelism). A fixed reference workload, run on as many threads as
//! the measured workload uses and timed right before and after every
//! pass, measures that speed, and each pass's timings are rescaled to
//! the speed at which the reference takes [`NOMINAL_MS`]. The reference
//! is the benchmark's own code and never
//! changes, so a change to the tuning service moves the rescaled
//! timings and the reference does not. It does share the process's
//! allocator, so a change of global allocator would move both.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Mix;

/// The reference workload's time, in ms, on the nominal machine that
/// rescaled timings are quoted for.
pub const NOMINAL_MS: f64 = 20.0;

/// Runs the reference workload once on each of `threads` threads at
/// the same time and returns the wall time in ms until all are done,
/// so that a core taken away from a parallel workload shows too.
pub fn reference_ms(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(reference_work);
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// The reference workload. It mixes what a tune spends its time on:
/// string-keyed maps built, cloned and scanned, and a small dense
/// Cholesky factorization.
fn reference_work() {
    let mut rng = Mix(0xCA11_B4A7);
    let mut acc = 0.0f64;
    for _ in 0..300 {
        let map: BTreeMap<String, f64> = (0..32)
            .map(|k| (format!("spark.param.{k}"), rng.unit()))
            .collect();
        for _ in 0..16 {
            let copy = std::hint::black_box(map.clone());
            acc += copy.iter().map(|(k, v)| k.len() as f64 * v).sum::<f64>();
        }
        acc += cholesky_trace(&mut rng, 32);
    }
    std::hint::black_box(acc);
}

/// Factors a random symmetric positive-definite `n`×`n` matrix and
/// returns the trace of its factor.
fn cholesky_trace(rng: &mut Mix, n: usize) -> f64 {
    let b: Vec<f64> = (0..n * n).map(|_| rng.unit()).collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum::<f64>();
        }
        a[i * n + i] += n as f64;
    }
    for j in 0..n {
        let d = (a[j * n + j] - (0..j).map(|k| a[j * n + k].powi(2)).sum::<f64>()).sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let s = (0..j).map(|k| a[i * n + k] * a[j * n + k]).sum::<f64>();
            a[i * n + j] = (a[i * n + j] - s) / d;
        }
    }
    (0..n).map(|i| a[i * n + i]).sum()
}
