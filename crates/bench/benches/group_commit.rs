//! Group-commit throughput benchmark for the write-ahead log.
//!
//! Models a disk with a meaningful flush cost (`fsync_delay` spin-waited
//! on top of the real `sync_data`) and drives disjoint-row autocommit
//! UPDATEs from 1/2/4/8 concurrent sessions in two durability modes:
//!
//! * `per_commit` — one fsync per commit, inside the commit critical
//!   section: every committer pays the full device latency serially, so
//!   throughput is capped near `1 / fsync_cost` regardless of parallelism;
//! * `group` — the flush-leader protocol: committers append under the
//!   buffer mutex, one leader fsyncs the batch, and everyone whose record
//!   made the batch is released together. Device latency amortizes across
//!   the batch, so throughput scales with offered concurrency.
//!
//! Emits `BENCH_group_commit.json` at the repository root, including the
//! observed fsyncs-per-commit ratio from the WAL metrics. Acceptance:
//! per-commit mode issues exactly one fsync per commit, group commit at 8
//! sessions batches (fsyncs < commits) and beats per-commit throughput.
//!
//! Not a criterion bench: the quantity of interest is the commits/sec
//! curve across session counts, so a plain timed harness is clearer.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use acidrain_db::{Database, IsolationLevel, Value, WalConfig};
use acidrain_harness::scratch_dir;
use acidrain_obs::json::{document, field, Json};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

/// Disjoint hot rows, one per session, so the workload measures the
/// durability pipeline rather than row-lock contention.
const ROWS: i64 = 8;
const COMMITS_PER_SESSION: usize = 150;
/// Simulated device flush cost. Real fsyncs on a fast dev-machine SSD
/// are too cheap to separate the modes; 200µs models a commodity disk's
/// flush and keeps the full sweep under a few seconds.
const FSYNC_DELAY: Duration = Duration::from_micros(200);
const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn ledger_db() -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "ledger",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, IsolationLevel::ReadCommitted);
    db.seed(
        "ledger",
        (1..=ROWS)
            .map(|id| vec![Value::Int(id), Value::Int(0)])
            .collect(),
    )
    .unwrap();
    db
}

struct Sample {
    mode: &'static str,
    sessions: usize,
    commits: u64,
    elapsed_secs: f64,
    commits_per_sec: f64,
    wal_fsyncs: u64,
    /// Mean commits made durable per fsync (1.0 = no batching).
    batch_mean: f64,
}

fn run(mode: &'static str, sessions: usize, group: bool) -> Sample {
    let dir = scratch_dir("bench-gc");
    let wal = WalConfig::new(&dir).with_fsync_delay(FSYNC_DELAY);
    let wal = if group { wal } else { wal.per_commit_fsync() };
    let db = ledger_db();
    db.attach_wal(wal).unwrap();
    db.enable_metrics();

    let start = Instant::now();
    thread::scope(|s| {
        for t in 0..sessions {
            let mut conn = db.connect();
            s.spawn(move || {
                let id = t as i64 % ROWS + 1;
                for _ in 0..COMMITS_PER_SESSION {
                    conn.execute(&format!(
                        "UPDATE ledger SET balance = balance + 1 WHERE id = {id}"
                    ))
                    .expect("durable autocommit update");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let m = db.metrics_report();
    let commits = (sessions * COMMITS_PER_SESSION) as u64;
    assert_eq!(m.counters.wal_appends, commits, "every commit was logged");
    let _ = std::fs::remove_dir_all(&dir);
    Sample {
        mode,
        sessions,
        commits,
        elapsed_secs: elapsed,
        commits_per_sec: commits as f64 / elapsed,
        wal_fsyncs: m.counters.wal_fsyncs,
        batch_mean: commits as f64 / m.counters.wal_fsyncs.max(1) as f64,
    }
}

fn main() {
    let mut samples: Vec<Sample> = Vec::new();
    for &sessions in &SESSION_COUNTS {
        let per_commit = run("per_commit", sessions, false);
        let group = run("group", sessions, true);
        eprintln!(
            "{sessions} sessions: per_commit {:>7.0} commits/sec ({} fsyncs)   \
             group {:>7.0} commits/sec ({} fsyncs, {:.2} commits/fsync)",
            per_commit.commits_per_sec,
            per_commit.wal_fsyncs,
            group.commits_per_sec,
            group.wal_fsyncs,
            group.batch_mean,
        );
        samples.push(per_commit);
        samples.push(group);
    }

    let pick = |mode: &str, sessions: usize| -> &Sample {
        samples
            .iter()
            .find(|s| s.mode == mode && s.sessions == sessions)
            .expect("sample exists")
    };

    let results = samples.iter().map(|s| {
        Json::Obj(vec![
            field("mode", Json::str(s.mode)),
            field("sessions", Json::Num(s.sessions as u64)),
            field("commits", Json::Num(s.commits)),
            field("elapsed_secs", Json::Fixed(s.elapsed_secs, 4)),
            field("commits_per_sec", Json::Fixed(s.commits_per_sec, 0)),
            field("wal_fsyncs", Json::Num(s.wal_fsyncs)),
            field("commits_per_fsync", Json::Fixed(s.batch_mean, 2)),
        ])
    });
    let speedups = SESSION_COUNTS.iter().map(|&n| {
        let ratio = pick("group", n).commits_per_sec / pick("per_commit", n).commits_per_sec;
        field(&n.to_string(), Json::Fixed(ratio, 2))
    });
    let json = document(
        "group_commit",
        vec![
            field("commits_per_session", Json::Num(COMMITS_PER_SESSION as u64)),
            field(
                "simulated_fsync_micros",
                Json::Num(FSYNC_DELAY.as_micros() as u64),
            ),
            field(
                "modes",
                Json::Obj(vec![
                    field(
                        "per_commit",
                        Json::str(
                            "one fsync per commit inside the commit critical section — device latency paid serially",
                        ),
                    ),
                    field(
                        "group",
                        Json::str(
                            "flush-leader group commit — one fsync hardens every record appended while the leader ran",
                        ),
                    ),
                ]),
            ),
            field("results", Json::Arr(results.collect())),
            field("speedup_group_vs_per_commit", Json::Obj(speedups.collect())),
        ],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_group_commit.json");
    std::fs::write(path, &json).expect("write BENCH_group_commit.json");
    eprintln!("wrote {path}");

    // Acceptance: per-commit mode never batches; group commit at 8
    // sessions batches and outruns the serial-fsync baseline.
    for &n in &SESSION_COUNTS {
        let pc = pick("per_commit", n);
        assert_eq!(
            pc.wal_fsyncs, pc.commits,
            "{n} sessions: per-commit mode must fsync every commit"
        );
    }
    let group8 = pick("group", 8);
    assert!(
        group8.wal_fsyncs < group8.commits,
        "8 sessions: group commit must batch ({} fsyncs for {} commits)",
        group8.wal_fsyncs,
        group8.commits
    );
    let speedup = group8.commits_per_sec / pick("per_commit", 8).commits_per_sec;
    eprintln!("group commit speedup at 8 sessions: {speedup:.2}x");
    assert!(
        speedup > 1.5,
        "group commit at 8 sessions must beat per-commit fsync, got {speedup:.2}x"
    );
}
