//! Multi-threaded throughput benchmark for the decomposed engine.
//!
//! Runs 1/2/4/8 concurrent sessions of read-heavy storefront traffic
//! (point SELECTs against a shared product catalog, ~10% UPDATEs against
//! per-session cart rows) at every isolation level, in two modes:
//!
//! * `fine_grained` — the engine as-is, with per-table latches and the
//!   layered concurrency architecture;
//! * `global_mutex` — the same traffic with every statement's execution
//!   wrapped in one shared mutex, emulating the pre-refactor
//!   single-`Mutex<DbInner>` engine in which a statement held the world
//!   for its whole duration.
//!
//! Two workloads per cell:
//!
//! * `inmem` — statements only. Parity here shows the layered
//!   architecture adds no synchronization overhead; aggregate scaling
//!   above 1× additionally requires a multi-core host.
//! * `simulated_io` — each statement carries a fixed in-statement I/O
//!   stall (the storage/network wait every production database statement
//!   has; under the old engine that wait happened while holding the
//!   global mutex). This isolates the serialization structure itself, so
//!   the decomposition's win is visible even on a single-CPU host.
//!
//! Emits `BENCH_throughput.json` at the repository root: the perf
//! trajectory the mutex decomposition is measured against (acceptance:
//! ≥2× aggregate statements/sec at 4+ threads on the read-heavy mix).
//!
//! Not a criterion bench: wall-clock aggregate throughput across threads
//! is the quantity of interest, so a plain timed harness is clearer.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acidrain_db::{Database, IsolationLevel, MetricsReport, Value};
use acidrain_obs::json::{document, field, Json};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

const PRODUCTS: i64 = 64;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Modeled in-statement storage/network stall for the `simulated_io`
/// workload (a fraction of the ~1ms RTTs real deployments see).
const STATEMENT_IO: Duration = Duration::from_micros(100);

struct Workload {
    name: &'static str,
    statements_per_session: usize,
    io: Option<Duration>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "inmem",
        statements_per_session: 2000,
        io: None,
    },
    Workload {
        name: "simulated_io",
        statements_per_session: 400,
        io: Some(STATEMENT_IO),
    },
];

fn schema() -> Schema {
    Schema::new()
        .with_table(TableSchema::new(
            "product",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("stock", ColumnType::Int),
                ColumnDef::new("price", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "cart",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("items", ColumnType::Int),
            ],
        ))
}

fn storefront_db(isolation: IsolationLevel, sessions: usize) -> Arc<Database> {
    let db = Database::new(schema(), isolation);
    db.seed(
        "product",
        (1..=PRODUCTS)
            .map(|id| vec![Value::Int(id), Value::Int(100), Value::Int(id * 3)])
            .collect(),
    )
    .unwrap();
    db.seed(
        "cart",
        (1..=sessions as i64)
            .map(|id| vec![Value::Int(id), Value::Int(0)])
            .collect(),
    )
    .unwrap();
    db
}

/// Deterministic per-session statement stream: ~90% point reads on the
/// shared catalog, ~10% writes to the session's own cart row.
fn statement(session: usize, i: usize) -> String {
    if i % 10 == 9 {
        format!(
            "UPDATE cart SET items = items + 1 WHERE id = {}",
            session + 1
        )
    } else {
        // Cheap LCG so sessions walk the catalog in different orders.
        let k = (session as i64 * 7919 + i as i64 * 104729) % PRODUCTS + 1;
        format!("SELECT stock, price FROM product WHERE id = {k}")
    }
}

/// Pure-read session stream for the read-scaling samples: every statement
/// is a point SELECT on the shared catalog, so transactions are read-only
/// end to end and exercise the lock-free visibility path (atomic
/// timestamp loads, no lock-manager traffic at commit).
fn read_statement(session: usize, i: usize) -> String {
    let k = (session as i64 * 7919 + i as i64 * 104_729) % PRODUCTS + 1;
    format!("SELECT stock, price FROM product WHERE id = {k}")
}

/// Thread counts for the read-scaling section (1 → 4 is the CI guard's
/// measured ratio).
const READ_SCALING_THREADS: [usize; 3] = [1, 2, 4];
const READ_SCALING_STATEMENTS: usize = 20_000;

/// Aggregate read-only statements/sec on the inmem workload at each
/// thread count, fine-grained engine, default isolation.
fn run_read_scaling() -> Vec<(usize, f64)> {
    READ_SCALING_THREADS
        .iter()
        .map(|&threads| {
            let db = storefront_db(IsolationLevel::ReadCommitted, threads);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for session in 0..threads {
                    let db = Arc::clone(&db);
                    scope.spawn(move || {
                        let mut conn = db.connect();
                        for i in 0..READ_SCALING_STATEMENTS {
                            conn.execute(&read_statement(session, i))
                                .expect("read statement");
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let sps = (threads * READ_SCALING_STATEMENTS) as f64 / elapsed;
            eprintln!("read_scaling threads={threads} {sps:>10.0} stmts/sec");
            (threads, sps)
        })
        .collect()
}

/// The read-scaling acceptance check: on a host with ≥4 cores, read-only
/// sessions must scale ≥2× in aggregate throughput from 1 to 4 threads —
/// the lock-free read path has no serialization point to flatten the
/// curve. Skipped (with a message) on smaller hosts, where the extra
/// sessions have no cores to land on.
fn assert_read_scaling(scaling: &[(usize, f64)], host_cpus: usize) {
    let pick = |t: usize| {
        scaling
            .iter()
            .find(|(threads, _)| *threads == t)
            .map(|(_, sps)| *sps)
            .unwrap_or(f64::NAN)
    };
    let ratio = pick(4) / pick(1);
    eprintln!("read scaling 1->4 threads: {ratio:.2}x (host_cpus={host_cpus})");
    if host_cpus >= 4 {
        assert!(
            ratio >= 2.0,
            "read-only throughput must scale >=2x from 1 to 4 sessions, got {ratio:.2}x"
        );
    } else {
        eprintln!("skipping >=2x read-scaling assertion: host has {host_cpus} CPUs (< 4)");
    }
}

struct Sample {
    workload: &'static str,
    mode: &'static str,
    isolation: IsolationLevel,
    threads: usize,
    elapsed_secs: f64,
    stmts_per_sec: f64,
    /// Engine metrics collected during the run (metrics are enabled for
    /// every sample; the disabled-path cost is covered by the
    /// `obs_overhead` guard bench, and here we *want* the contention
    /// counters).
    metrics: MetricsReport,
}

/// Run `threads` sessions of the workload. `serialize` is the
/// global-mutex emulation: when present, each statement — including its
/// modeled in-statement I/O — executes under the shared mutex, exactly as
/// the monolithic engine held its one mutex for a statement's duration.
fn run(
    db: &Arc<Database>,
    threads: usize,
    w: &Workload,
    serialize: Option<&Arc<Mutex<()>>>,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for session in 0..threads {
            let db = Arc::clone(db);
            let serialize = serialize.map(Arc::clone);
            scope.spawn(move || {
                let mut conn = db.connect();
                for i in 0..w.statements_per_session {
                    let sql = statement(session, i);
                    let guard = serialize.as_ref().map(|m| m.lock().unwrap());
                    conn.execute(&sql).expect("storefront statement");
                    if let Some(io) = w.io {
                        std::thread::sleep(io);
                    }
                    drop(guard);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // `-- read-scaling`: run only the read-scaling guard (the CI job's
    // fast path) and skip the full matrix + JSON regeneration.
    if std::env::args().any(|a| a == "read-scaling") {
        let scaling = run_read_scaling();
        assert_read_scaling(&scaling, host_cpus);
        return;
    }

    let mut samples: Vec<Sample> = Vec::new();
    for w in &WORKLOADS {
        for isolation in IsolationLevel::ALL {
            for &threads in &THREAD_COUNTS {
                for (mode, serialize) in [
                    ("fine_grained", None),
                    ("global_mutex", Some(Arc::new(Mutex::new(())))),
                ] {
                    let db = storefront_db(isolation, threads);
                    db.enable_metrics();
                    let elapsed = run(&db, threads, w, serialize.as_ref());
                    let total = (threads * w.statements_per_session) as f64;
                    let sps = total / elapsed;
                    assert_eq!(db.active_transactions(), 0);
                    assert_eq!(db.locked_resources(), 0);
                    eprintln!(
                        "{:>12} {mode:>12} {isolation:<22} threads={threads} {sps:>10.0} stmts/sec",
                        w.name
                    );
                    samples.push(Sample {
                        workload: w.name,
                        mode,
                        isolation,
                        threads,
                        elapsed_secs: elapsed,
                        stmts_per_sec: sps,
                        metrics: db.metrics_report(),
                    });
                }
            }
        }
    }

    // Speedup of the fine-grained engine over the global-mutex emulation
    // at each (workload, isolation, threads) point.
    let speedup = |workload: &str, iso: IsolationLevel, threads: usize| -> f64 {
        let pick = |mode: &str| {
            samples
                .iter()
                .find(|s| {
                    s.workload == workload
                        && s.mode == mode
                        && s.isolation == iso
                        && s.threads == threads
                })
                .map(|s| s.stmts_per_sec)
                .unwrap_or(f64::NAN)
        };
        pick("fine_grained") / pick("global_mutex")
    };

    let read_scaling = run_read_scaling();

    let results = samples.iter().map(|s| {
        Json::Obj(vec![
            field("workload", Json::str(s.workload)),
            field("mode", Json::str(s.mode)),
            field("isolation", Json::str(s.isolation.name())),
            field("threads", Json::Num(s.threads as u64)),
            field("elapsed_secs", Json::Fixed(s.elapsed_secs, 4)),
            field("stmts_per_sec", Json::Fixed(s.stmts_per_sec, 0)),
        ])
    });
    // Engine-side contention per sample, from the observability layer:
    // where time went (statement/latch p99s) and how often sessions
    // collided (lock waits, blocked attempts, waiter high-water marks).
    let contention = samples.iter().map(|s| {
        let m = &s.metrics;
        let us = |nanos: u64| Json::Fixed(nanos as f64 / 1_000.0, 1);
        Json::Obj(vec![
            field("workload", Json::str(s.workload)),
            field("mode", Json::str(s.mode)),
            field("isolation", Json::str(s.isolation.name())),
            field("threads", Json::Num(s.threads as u64)),
            field("lock_waits", Json::Num(m.counters.lock_waits)),
            field("lock_timeouts", Json::Num(m.counters.lock_timeouts)),
            field("deadlocks", Json::Num(m.counters.deadlocks)),
            field("blocked_attempts", Json::Num(m.counters.blocked_attempts)),
            field("lock_waiters_peak", Json::Num(m.lock_waiters_peak)),
            field("latch_waiters_peak", Json::Num(m.latch_waiters_peak)),
            field("stmt_p50_us", us(m.statements.percentile_nanos(0.50))),
            field("stmt_p99_us", us(m.statements.percentile_nanos(0.99))),
            field("latch_p99_us", us(m.latches.percentile_nanos(0.99))),
            field("abort_rate", Json::Fixed(m.abort_rate(), 4)),
        ])
    });
    // Read-only scaling on the inmem workload: every statement is a point
    // SELECT, so the curve isolates the lock-free visibility path.
    let pick = |t: usize| {
        read_scaling
            .iter()
            .find(|(threads, _)| *threads == t)
            .map(|(_, sps)| *sps)
            .unwrap_or(f64::NAN)
    };
    let scaling_results = read_scaling.iter().map(|&(threads, sps)| {
        Json::Obj(vec![
            field("threads", Json::Num(threads as u64)),
            field("stmts_per_sec", Json::Fixed(sps, 0)),
        ])
    });
    let mut speedups = Vec::new();
    for w in &WORKLOADS {
        for isolation in IsolationLevel::ALL {
            for &threads in &THREAD_COUNTS {
                speedups.push(field(
                    &format!("{}/{isolation}@{threads}", w.name),
                    Json::Fixed(speedup(w.name, isolation, threads), 2),
                ));
            }
        }
    }
    let json = document(
        "throughput",
        vec![
            field("host_cpus", Json::Num(host_cpus as u64)),
            field(
                "workloads",
                Json::Obj(vec![
                    field(
                        "inmem",
                        Json::str(
                            "read-heavy storefront (90% point SELECT on shared catalog, 10% UPDATE on own cart row); pure in-memory statements — aggregate scaling above 1x additionally requires a multi-core host",
                        ),
                    ),
                    field(
                        "simulated_io",
                        Json::str(format!(
                            "same statement mix with a {}us in-statement I/O stall per statement; under the global-mutex emulation the stall holds the mutex, as the pre-refactor engine did — measures the serialization structure on any host",
                            STATEMENT_IO.as_micros()
                        )),
                    ),
                ]),
            ),
            field("results", Json::Arr(results.collect())),
            field("contention", Json::Arr(contention.collect())),
            field(
                "read_scaling",
                Json::Obj(vec![
                    field(
                        "workload",
                        Json::str("inmem read-only (100% point SELECT on shared catalog)"),
                    ),
                    field("isolation", Json::str("ReadCommitted")),
                    field("results", Json::Arr(scaling_results.collect())),
                    field("scaling_1_to_4", Json::Fixed(pick(4) / pick(1), 2)),
                ]),
            ),
            field("speedup_vs_global_mutex", Json::Obj(speedups)),
        ],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    eprintln!("wrote {path}");

    // The refactor's acceptance bar: ≥2× at 4+ threads on the read-heavy
    // mix with in-statement I/O, reported for the default level.
    let s = speedup("simulated_io", IsolationLevel::ReadCommitted, 4);
    eprintln!("simulated_io ReadCommitted@4 speedup: {s:.2}x");

    // Read-scaling acceptance: ≥2× from 1 to 4 read-only sessions on
    // hosts with the cores to show it.
    assert_read_scaling(&read_scaling, host_cpus);
}
