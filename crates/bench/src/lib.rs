//! # acidrain-bench
//!
//! Benchmarks regenerating the measured dimensions of every table and
//! figure in the paper's evaluation. The four paper-figure benches are
//! plain `main`s timing each case with [`bench`](fn@bench):
//!
//! * `benches/analysis.rs` — Table 4: per-application trace lifting,
//!   abstract-history construction, and cycle-search runtimes; the §4.2.3
//!   targeted-vs-full ablation.
//! * `benches/audit.rs` — Table 5: the end-to-end audit pipeline per
//!   application; Table 2: the audit across isolation levels.
//! * `benches/database.rs` — the substrate database (statement execution
//!   per isolation level, lock manager, parser round-trips).
//! * `benches/attacks.rs` — Figure 1 and the three §4.2.2 attacks under
//!   the deterministic scheduler and the threaded stress executor.

use std::time::{Duration, Instant};

/// The apps exercised by the heavier benchmarks (a spread across
/// languages and idioms, keeping bench wall-time reasonable).
pub const BENCH_APPS: [&str; 4] = ["OpenCart", "Spree", "Oscar", "Lightning Fast Shop"];

/// Time `routine` once per sample and print one line: the median, the
/// `[fastest .. slowest]` range and the sample count.
pub fn bench<R>(id: &str, samples: usize, mut routine: impl FnMut() -> R) {
    bench_with_setup(id, samples, || (), |_| routine());
}

/// [`bench`](fn@bench) with an untimed `setup` run before every sample;
/// the timed `routine` gets its output, dropped outside the timed region.
pub fn bench_with_setup<S, R>(
    id: &str,
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> R,
) {
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let mut input = setup();
            let start = Instant::now();
            let out = routine(&mut input);
            let elapsed = start.elapsed();
            drop(out);
            elapsed
        })
        .collect();
    times.sort_unstable();
    let (lo, median, hi) = (times[0], times[times.len() / 2], times[times.len() - 1]);
    println!(
        "{id:<50} median {median:>10.3?}   [{lo:.3?} .. {hi:.3?}]   n={}",
        times.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_times() {
        let mut calls = 0;
        bench("timer/count", 3, || calls += 1);
        assert_eq!(calls, 3);
        let (mut setups, mut runs) = (0, 0);
        bench_with_setup("timer/setup", 2, || setups += 1, |_| runs += 1);
        assert_eq!((setups, runs), (2, 2));
    }
}
