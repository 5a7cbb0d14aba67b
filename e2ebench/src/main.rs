//! The repository benchmark: three workloads over the storefront, the
//! SERIALIZABLE engine and the 2AD audit pipeline, each repeating fixed,
//! seeded sequences of work. `--trace 0` prints the end-to-end metrics
//! (engine metrics as shipped, benchmark spans off); `--trace 1`
//! alternates untraced and traced repetitions of the same sequences and
//! prints the per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload shop-wire|engine-ser|audit-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is for people: host stamp, every metric by
//! name with its unit, and every correctness check. The last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! process exits 1 when a check fails. README.md explains why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod audit;
mod shop;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Units of work attempted (requests, or audit cells).
    pub attempted: u64,
    /// Attempted units that failed (not business-rule rejections).
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a correctness check; `detail` is printed either way.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.checks.push((format!("{name}: {detail}"), ok));
    }

    /// Record an informational line (shape figures, seed totals).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

const WORKLOADS: [&str; 3] = ["shop-wire", "engine-ser", "audit-sweep"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("e2ebench: cannot create scratch dir: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "shop-wire" => shop::shop_wire(&args, scratch.path()),
        "engine-ser" => shop::engine_ser(&args),
        _ => audit::audit_sweep(&args),
    };
    // Stamped after measuring, so the subprocesses perturb no timing.
    println!(
        "# host cpus={} rustc=\"{}\" git_rev={} scratch_fs={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into()),
        filesystem_of(scratch.path()).unwrap_or_else(|| "unknown".into()),
    );
    drop(scratch);
    emit(report, args.trace)
}

/// Set-ups timed per run; `setup_s` is their median. Enough that the
/// first, cold set-ups of a process do not decide it.
pub const SETUP_TRIALS: usize = 101;

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("req_per_s", "1/s"),
    ("sweep_s", "s"),
];

/// Every per-layer metric of `--trace 1`. A workload that does not cross
/// a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("net.rtt_us", "us"),
    ("net.overhead_us", "us"),
    ("net.stmts_per_req", "count"),
    ("db.stmt_us", "us"),
    ("db.wal_fsyncs_per_commit", "count"),
    ("db.wal_bytes_per_req", "B"),
    ("db.exec_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.parse_share", "share"),
    ("db.lock_waits_per_req", "count"),
    ("db.lock_wait_us", "us"),
    ("db.latch_wait_us", "us"),
    ("db.abort_share", "share"),
    ("db.index_fallback_share", "share"),
    ("db.log_entries", "count"),
    ("apps.self_us", "us"),
    ("apps.retries_per_req", "count"),
    ("apps.record_s", "s"),
    ("core.lift_s", "s"),
    ("static.symbolize_s", "s"),
    ("core.analyze_s", "s"),
    ("static.remediate_s", "s"),
    ("static.plan_s", "s"),
    ("static.rewrite_s", "s"),
    ("harness.replay_s", "s"),
    ("harness.replays", "count"),
    ("static.candidates", "count"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.trace_overhead_share", "share"),
];

fn emit(mut report: Report, trace: bool) -> ExitCode {
    let expected: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in expected {
        if trace && !report.metrics.iter().any(|(n, _, _)| *n == name) {
            report.metric(name, 0.0, unit);
        }
    }
    let mismatched: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(n, _, u)| !expected.contains(&(n, u)))
        .map(|(n, _, _)| *n)
        .chain(
            expected
                .iter()
                .filter(|(n, _)| !report.metrics.iter().any(|(m, _, _)| m == n))
                .map(|(n, _)| *n),
        )
        .collect();
    let detail = format!("{mismatched:?}");
    report.check("metric set is complete", mismatched.is_empty(), detail);
    report
        .metrics
        .sort_by_key(|(n, _, _)| expected.iter().position(|(e, _)| e == n));
    let non_finite: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    let detail = format!("{non_finite:?}");
    report.check("metrics are finite", non_finite.is_empty(), detail);
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for (line, ok) in &report.checks {
        println!("check {} {line}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = report.correct();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A per-run directory under `.bench_tmp/` in the working directory
/// (the WAL lives here, so `sync_data` hits the checkout's filesystem).
/// Removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> std::io::Result<ScratchDir> {
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of exact samples, `q` in (0, 1]. `u64::MAX`
/// marks a failed request, so it sorts above every real latency.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return u64::MAX;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nanoseconds → microseconds, with a failed-request marker read as +∞.
pub fn us(nanos: u64) -> f64 {
    if nanos == u64::MAX {
        f64::INFINITY
    } else {
        nanos as f64 / 1e3
    }
}

/// splitmix64: the benchmark's input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
