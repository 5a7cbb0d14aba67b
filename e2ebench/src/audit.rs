//! `audit-sweep`: the auditor's path. One full 2AD pipeline over every
//! registered surface at all six levels: the static audit, the witness
//! replay of every finding, and the repair adviser.
//!
//! The untraced run calls the shipped entry points (`audit_all`, then per
//! (surface, level) cell `replay_surface` + `advise_surface`, cells in a
//! seeded order). The traced run composes the same sweep from the
//! stage functions under timers and must reproduce the same totals.

use std::time::{Duration, Instant};

use acidrain_apps::endpoints::{all_surfaces, AppSurface};
use acidrain_core::{lift_trace, Analyzer, AnomalyScope};
use acidrain_db::{IsolationLevel, Obs};
use acidrain_harness::{advise_surface, execute_replay_plan, replay_surface, ReplayCaches};
use acidrain_static::{
    audit_all, plan_scenario, refinement_for, remediate_scenario, rewrite_plan, symbolize_trace,
    AuditError, RemedyReport, ReplayReport, Verdict,
};

use crate::{median, peak_rss_mb, percentile, splitmix64, us, Args, Report};

/// Roughly the wall time of one sweep at the commit that introduced this
/// benchmark (13-15 s on a 2-vCPU host);
/// a run does `max(1, round(--seconds / SWEEP_SECONDS))` sweeps.
const SWEEP_SECONDS: f64 = 10.0;
/// The traced stage spans must cover at least this share of the traced
/// sweep's wall time.
const MIN_STAGE_COVERAGE: f64 = 0.97;

/// Pipeline totals; the seed values are pinned in [`SEED_TOTALS`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    findings: usize,
    confirmed: usize,
    blocked: usize,
    inconclusive: usize,
    candidates: usize,
    closures: usize,
    postfix_replays: usize,
    /// Level-based findings confirmed at SERIALIZABLE (must be 0).
    ser_level_confirmed: usize,
    /// Level-based findings with no closing fix (must be 0).
    unclosed_level_based: usize,
    /// Findings whose chosen fix still replays confirmed (must be 0).
    confirmed_after_fix: usize,
}

/// What the 20 surfaces × 6 levels produce at the commit that introduced
/// this benchmark.
const SEED_TOTALS: Totals = Totals {
    findings: 4956,
    confirmed: 4172,
    blocked: 571,
    inconclusive: 213,
    candidates: 9282,
    closures: 2869,
    postfix_replays: 2247,
    ser_level_confirmed: 0,
    unclosed_level_based: 0,
    confirmed_after_fix: 0,
};

/// The (surface, level) cells in a seeded order.
fn cell_order(seed: u64, surfaces: usize) -> Vec<(usize, IsolationLevel)> {
    let mut cells: Vec<_> = (0..surfaces)
        .flat_map(|s| IsolationLevel::ALL.map(|l| (s, l)))
        .collect();
    let mut rng = seed;
    for i in (1..cells.len()).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
}

struct Sweep {
    totals: Totals,
    /// `audit_all` plus every cell, without the interleaved set-ups.
    wall: Duration,
    /// Per cell: replay + advise time in ns, `u64::MAX` for a failed cell.
    cell_ns: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
}

/// The shipped pipeline: `audit_all`, then `replay_surface` and
/// `advise_surface` per cell. Before each cell, outside the pipeline's
/// timing, one set-up (`all_surfaces()`) is timed into `setups`, so the
/// set-up median samples the host across the run, not one moment of it.
fn sweep(
    surfaces: &[AppSurface],
    order: &[(usize, IsolationLevel)],
    setups: &mut Vec<f64>,
) -> Sweep {
    // Only the adviser's own counters (post-fix replays) record here; the
    // stores each replay builds keep their own registries, off as shipped.
    let obs = Obs::new();
    obs.enable();
    let mut out = Sweep {
        totals: Totals::default(),
        wall: Duration::ZERO,
        cell_ns: Vec::with_capacity(order.len()),
        failed: 0,
        first_error: None,
    };
    let fail = |out: &mut Sweep, e: AuditError| {
        out.failed += 1;
        out.first_error.get_or_insert(e.to_string());
    };
    let t = Instant::now();
    match audit_all() {
        Ok(audit) => out.totals.findings = audit.finding_count(),
        Err(e) => fail(&mut out, e),
    }
    out.wall = t.elapsed();
    let mut replays = ReplayReport::default();
    let mut remedies = RemedyReport::default();
    for &(s, level) in order {
        let t = Instant::now();
        let fresh = all_surfaces();
        setups.push(t.elapsed().as_secs_f64());
        drop(fresh);
        let t = Instant::now();
        let cell = replay_surface(&surfaces[s], &[level])
            .and_then(|r| Ok((r, advise_surface(&surfaces[s], &[level], &obs)?)));
        let elapsed = t.elapsed();
        out.wall += elapsed;
        match cell {
            Ok((replay, remedy)) => {
                replays.apps.push(replay);
                remedies.apps.push(remedy);
                out.cell_ns.push(elapsed.as_nanos() as u64);
            }
            Err(e) => {
                fail(&mut out, e);
                out.cell_ns.push(u64::MAX);
            }
        }
    }
    let outcomes = remedies
        .apps
        .iter()
        .flat_map(|a| &a.levels)
        .flat_map(|l| &l.scenarios)
        .flat_map(|s| &s.outcomes);
    out.totals.confirmed = replays.count("confirmed");
    out.totals.blocked = replays.count("blocked");
    out.totals.inconclusive = replays.count("inconclusive");
    out.totals.candidates = outcomes.clone().map(|o| o.tried).sum();
    out.totals.closures = outcomes.map(|o| o.candidates.len()).sum();
    out.totals.postfix_replays = obs.report().counters.repair_replays as usize;
    out.totals.ser_level_confirmed = replays.serializable_level_based_confirmed().len();
    out.totals.unclosed_level_based = remedies.unclosed_level_based().len();
    out.totals.confirmed_after_fix = remedies.confirmed_after_fix().len();
    out
}

/// Time spent in each stage function of the traced sweep.
#[derive(Default)]
struct Stages {
    record: Duration,
    lift: Duration,
    symbolize: Duration,
    analyze: Duration,
    remediate: Duration,
    plan: Duration,
    rewrite: Duration,
    replay: Duration,
    replays: u64,
}

impl Stages {
    fn sum(&self) -> Duration {
        self.record
            + self.lift
            + self.symbolize
            + self.analyze
            + self.remediate
            + self.plan
            + self.rewrite
            + self.replay
    }
}

/// Run `f`, adding its wall time to `acc`.
fn span<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// The same sweep composed from its stage functions: the audit as
/// `audit_surface` does it (record → lift → symbolize → analyze), the
/// replay as `replay_surface` does it, and the adviser as
/// `advise_surface` does it.
fn traced_sweep(
    surfaces: &[AppSurface],
    order: &[(usize, IsolationLevel)],
) -> Result<(Totals, Stages, Duration), String> {
    let mut st = Stages::default();
    let mut tot = Totals::default();
    let start = Instant::now();
    for surface in surfaces {
        for level in IsolationLevel::ALL {
            for scenario in &surface.scenarios {
                let log = span(&mut st.record, || scenario.record(level))
                    .map_err(|e| format!("{}/{}: {e}", surface.app, scenario.name))?;
                let mut trace = span(&mut st.lift, || lift_trace(&log, &surface.schema))
                    .map_err(|e| format!("{}/{}: {e}", surface.app, scenario.name))?;
                span(&mut st.symbolize, || symbolize_trace(&mut trace))
                    .map_err(|e| format!("{}/{}: {e}", surface.app, scenario.name))?;
                tot.findings += span(&mut st.analyze, || {
                    Analyzer::from_trace(trace)
                        .analyze(&refinement_for(surface, level))
                        .findings
                        .len()
                });
            }
        }
    }
    for &(s, level) in order {
        let surface = &surfaces[s];
        // Witness replay.
        for scenario in &surface.scenarios {
            let plans = span(&mut st.plan, || plan_scenario(surface, scenario, level))
                .map_err(|e| e.to_string())?;
            let mut caches = ReplayCaches::new();
            for fp in &plans.plans {
                let verdict = match &fp.plan {
                    Err(reason) => Verdict::Inconclusive(reason.clone()),
                    Ok(plan) => {
                        st.replays += 1;
                        let none = vec![None; plan.sessions.len()];
                        span(&mut st.replay, || {
                            execute_replay_plan(
                                scenario,
                                level,
                                plan,
                                &surface.schema,
                                &none,
                                &mut caches,
                            )
                        })
                    }
                };
                match verdict {
                    Verdict::Confirmed => {
                        tot.confirmed += 1;
                        if level == IsolationLevel::Serializable
                            && fp.finding.scope == AnomalyScope::LevelBased
                        {
                            tot.ser_level_confirmed += 1;
                        }
                    }
                    Verdict::Blocked(_) => tot.blocked += 1,
                    Verdict::Inconclusive(_) => tot.inconclusive += 1,
                }
            }
        }
        // Repair adviser: walk each finding's closing candidates in cost
        // order until one's repaired witness does not confirm.
        for scenario in &surface.scenarios {
            let remedies = span(&mut st.remediate, || {
                remediate_scenario(surface, scenario, level)
            })
            .map_err(|e| e.to_string())?;
            let plans = span(&mut st.plan, || plan_scenario(surface, scenario, level))
                .map_err(|e| e.to_string())?;
            let mut caches = ReplayCaches::new();
            for (outcome, fp) in remedies.outcomes.iter().zip(&plans.plans) {
                tot.candidates += outcome.tried;
                tot.closures += outcome.candidates.len();
                if outcome.candidates.is_empty() {
                    if outcome.finding.scope == AnomalyScope::LevelBased {
                        tot.unclosed_level_based += 1;
                    }
                    continue;
                }
                let Ok(plan) = &fp.plan else { continue };
                let mut chosen: Option<Verdict> = None;
                let mut fallback: Option<Verdict> = None;
                for candidate in &outcome.candidates {
                    let Ok((repaired, levels)) =
                        span(&mut st.rewrite, || rewrite_plan(plan, candidate))
                    else {
                        continue;
                    };
                    st.replays += 1;
                    tot.postfix_replays += 1;
                    let verdict = span(&mut st.replay, || {
                        execute_replay_plan(
                            scenario,
                            level,
                            &repaired,
                            &surface.schema,
                            &levels,
                            &mut caches,
                        )
                    });
                    if verdict != Verdict::Confirmed {
                        chosen = Some(verdict);
                        break;
                    }
                    fallback.get_or_insert(verdict);
                }
                if chosen.or(fallback) == Some(Verdict::Confirmed) {
                    tot.confirmed_after_fix += 1;
                }
            }
        }
    }
    Ok((tot, st, start.elapsed()))
}

fn check_totals(report: &mut Report, label: &str, totals: &Totals) {
    report.check(
        &format!("{label}: pipeline totals equal the seed totals"),
        *totals == SEED_TOTALS,
        format!("{totals:?}"),
    );
}

pub fn audit_sweep(args: &Args) -> Report {
    let mut report = Report::default();
    let surfaces = all_surfaces();
    let mut setups = Vec::new();
    let order = cell_order(args.seed, surfaces.len());
    let sweeps = if args.trace {
        1
    } else {
        ((args.seconds as f64 / SWEEP_SECONDS).round() as usize).max(1)
    };

    let mut walls = Vec::with_capacity(sweeps);
    let mut cells: Vec<u64> = Vec::new();
    for _ in 0..sweeps {
        let out = sweep(&surfaces, &order, &mut setups);
        check_totals(&mut report, "untraced", &out.totals);
        report.check(
            "no failed audit cells",
            out.failed == 0,
            format!(
                "{} ({})",
                out.failed,
                out.first_error.as_deref().unwrap_or("-")
            ),
        );
        report.attempted += out.cell_ns.len() as u64;
        report.failed += out.failed;
        walls.push(out.wall.as_secs_f64());
        cells.extend(out.cell_ns);
    }
    let sweep_s = median(&walls);
    if !args.trace {
        cells.sort_unstable();
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("req_p50_us", us(percentile(&cells, 0.50)), "us");
        report.metric("req_p90_us", us(percentile(&cells, 0.90)), "us");
        report.metric(
            "req_per_s",
            cells.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        report.metric("sweep_s", sweep_s, "s");
        report.note(format!(
            "# sweeps = {sweeps}; cell samples = {}; failed_share = {}",
            cells.len(),
            report.failed as f64 / report.attempted.max(1) as f64
        ));
        return report;
    }

    match traced_sweep(&surfaces, &order) {
        Err(e) => report.check("traced sweep ran", false, e),
        Ok((totals, st, wall)) => {
            check_totals(&mut report, "traced", &totals);
            let stage_sum = st.sum().as_secs_f64();
            report.metric("apps.record_s", st.record.as_secs_f64(), "s");
            report.metric("core.lift_s", st.lift.as_secs_f64(), "s");
            report.metric("static.symbolize_s", st.symbolize.as_secs_f64(), "s");
            report.metric("core.analyze_s", st.analyze.as_secs_f64(), "s");
            report.metric("static.remediate_s", st.remediate.as_secs_f64(), "s");
            report.metric("static.plan_s", st.plan.as_secs_f64(), "s");
            report.metric("static.rewrite_s", st.rewrite.as_secs_f64(), "s");
            report.metric("harness.replay_s", st.replay.as_secs_f64(), "s");
            report.metric("harness.replays", st.replays as f64, "count");
            report.metric("static.candidates", totals.candidates as f64, "count");
            let overhead = stage_sum / sweep_s - 1.0;
            report.metric("bench.trace_overhead_share", overhead, "share");
            let coverage = stage_sum / wall.as_secs_f64();
            report.check(
                "stage spans cover the traced sweep",
                coverage >= MIN_STAGE_COVERAGE,
                format!("{:.2}% of {:.3} s", coverage * 100.0, wall.as_secs_f64()),
            );
        }
    }
    report
}
