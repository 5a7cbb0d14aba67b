//! Socket load generator and over-socket attack driver.
//!
//! ```text
//! loadgen [--smoke] [--attack flexcoin] [--sockets N] [--rate R]
//!         [--secs S] [--users N] [--threads N] [--out PATH]
//! ```
//!
//! Default (bench) mode: for each of the six isolation levels, start a
//! fresh in-process server over a seeded 12-app store (real loopback
//! sockets — the in-process part is only who spawns the thread), open
//! the full socket population, drive the open-loop zipfian workload for
//! the window, and collect client latency plus the server's metrics
//! report. Writes `BENCH_network.json` (see EXPERIMENTS.md) and prints
//! a per-level summary.
//!
//! `--smoke` is the CI gate: shorter window, and the process exits
//! nonzero unless every level saw zero protocol errors and a nonzero
//! number of server-side commits. Without `--out` a smoke run writes
//! `loadgen-smoke.json` in the system temp directory, so it never
//! overwrites the committed `BENCH_network.json`.
//!
//! `--attack flexcoin` reproduces the paper's over-withdrawal across
//! real sockets: concurrent `transfer` requests race on the wire at
//! READ COMMITTED until the solvency oracle reports a violation.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use acidrain_apps::flexcoin::Flexcoin;
use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_net::loadgen::{flexcoin_attack, render_report, run_level, LoadgenConfig};
use acidrain_net::{Server, ServerConfig};
use acidrain_obs::MetricsReport;

fn server_config(sockets: usize) -> ServerConfig {
    ServerConfig {
        // Headroom above the socket population so admission control
        // stays out of the bench's way; the queue absorbs connect bursts.
        max_sessions: sockets + 64,
        queue_capacity: sockets,
        idle_timeout: Some(Duration::from_secs(300)),
        txn_timeout: Some(Duration::from_secs(60)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadgenConfig::default();
    let mut smoke = false;
    let mut attack: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .clone()
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--attack" => attack = Some(take("--attack")),
            "--sockets" => config.sockets = take("--sockets").parse().expect("--sockets N"),
            "--threads" => config.threads = take("--threads").parse().expect("--threads N"),
            "--rate" => config.rate = take("--rate").parse().expect("--rate R"),
            "--secs" => {
                config.duration = Duration::from_secs_f64(take("--secs").parse().expect("--secs S"))
            }
            "--users" => config.users = take("--users").parse().expect("--users N"),
            "--out" => out = Some(take("--out").into()),
            other => panic!("unexpected argument {other:?}"),
        }
    }

    if let Some(what) = attack {
        assert_eq!(what, "flexcoin", "only the flexcoin attack is wired up");
        run_attack();
        return;
    }
    if smoke {
        // CI-sized: enough sockets to exercise admission and pipelining,
        // short enough that six levels fit in ~30 s.
        config.sockets = config.sockets.min(128);
        config.rate = config.rate.min(300.0);
        config.duration = config.duration.min(Duration::from_secs(4));
    }
    let out = out.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join("loadgen-smoke.json")
        } else {
            PathBuf::from("BENCH_network.json")
        }
    });
    run_bench(&config, &out, smoke);
}

fn run_bench(config: &LoadgenConfig, out: &Path, smoke: bool) {
    let mut levels = Vec::new();
    // Each level runs on a fresh database; the artifact's `server`
    // section is all of their reports folded together.
    let mut server = MetricsReport::default();
    let mut failures = Vec::new();
    for level in IsolationLevel::ALL {
        // Fresh store + server per level so levels don't inherit each
        // other's stock depletion or order backlog.
        let db: Arc<Database> = Database::new(shop_schema(), level);
        seed_store(&db);
        db.enable_metrics();
        let handle =
            Server::start(Arc::clone(&db), server_config(config.sockets)).expect("start server");
        let result = run_level(handle.addr(), level, config).expect("drive level");
        let report = db.metrics_report();
        let commits: u64 = report.by_level.iter().map(|l| l.commits).sum();
        println!(
            "{:<24} requests={:<6} ok={:<6} rejected={:<5} db_errors={:<4} proto={:<2} \
             commits={:<6} p50={}us p99={}us",
            result.level.name(),
            result.requests,
            result.ok,
            result.rejected,
            result.db_errors,
            result.protocol_errors,
            commits,
            result.latency.percentile_nanos(0.50) / 1_000,
            result.latency.percentile_nanos(0.99) / 1_000,
        );
        if result.protocol_errors > 0 {
            failures.push(format!(
                "{}: {} protocol errors",
                result.level.name(),
                result.protocol_errors
            ));
        }
        if commits == 0 {
            failures.push(format!("{}: zero server-side commits", result.level.name()));
        }
        if report.counters.net_protocol_errors > 0 {
            failures.push(format!(
                "{}: server counted {} protocol errors",
                result.level.name(),
                report.counters.net_protocol_errors
            ));
        }
        levels.push(result);
        server.merge(&report);
        handle.shutdown();
    }
    std::fs::write(out, render_report(config, &levels, &server)).expect("write report");
    println!("wrote {}", out.display());
    if smoke && !failures.is_empty() {
        eprintln!("SMOKE FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

fn run_attack() {
    const RESERVE: i64 = 100_000;
    const ATTACKER_FUNDS: i64 = 100;
    const ATTACKERS: usize = 8;
    const MAX_WAVES: usize = 200;
    let db = Flexcoin.make_exchange(IsolationLevel::ReadCommitted, RESERVE, ATTACKER_FUNDS);
    db.enable_metrics();
    let handle = Server::start(Arc::clone(&db), server_config(ATTACKERS)).expect("start server");
    let outcome = flexcoin_attack(
        &db,
        handle.addr(),
        ATTACKER_FUNDS,
        RESERVE + ATTACKER_FUNDS,
        ATTACKERS,
        MAX_WAVES,
    )
    .expect("attack drive");
    handle.shutdown();
    match outcome.violated_at_wave {
        Some(wave) => {
            println!(
                "flexcoin over-withdrawal reproduced over sockets at wave {wave}: {}",
                outcome.violation.unwrap_or_default()
            );
        }
        None => {
            eprintln!("attack did not reproduce within {MAX_WAVES} waves");
            std::process::exit(1);
        }
    }
}
