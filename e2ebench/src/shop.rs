//! The two storefront workloads: `shop-wire` (open loop over loopback
//! TCP into a WAL-backed MySQL-RR engine) and `engine-ser` (closed loop,
//! in process, SERIALIZABLE, in memory). Both replay seeded request
//! sequences over the twelve corpus apps with two client threads.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_apps::prelude::*;
use acidrain_db::{Database, DbError, IsolationLevel, MetricsReport, Value, WalConfig};
use acidrain_net::{RemoteConn, Server, ServerConfig, ServerHandle, Zipf};

use crate::{median, peak_rss_mb, percentile, splitmix64, us, Args, Report, SETUP_TRIALS};

/// Client threads, each owning one connection (the host has two CPUs).
const CLIENTS: usize = 2;
/// Zipf population of cart ids and its skew.
const CARTS: u64 = 1000;
const ZIPF_THETA: f64 = 0.99;
/// Checkouts per ten requests (the rest add one unit to a cart).
const CHECKOUT_TENTHS: usize = 3;
/// `shop-wire` offered load (requests per second) and repetition size:
/// a run is `round(--seconds × WIRE_RATE / WIRE_REP_REQUESTS)`
/// repetitions of a `WIRE_REP_REQUESTS`-request schedule, each on a
/// fresh rig. See README.md for why the rate is frozen at this value.
const WIRE_RATE: f64 = 100.0;
const WIRE_REP_REQUESTS: usize = 500;
/// `engine-ser` repetition size, and the wall time of one repetition at
/// the commit that introduced this benchmark: a run is
/// `round(--seconds / ENGINE_REP_SECONDS)` repetitions. The request count,
/// not the duration, is fixed: per-request cost grows with the rows a
/// sequence adds, so a fixed duration would make faster code do more
/// work on bigger tables.
const ENGINE_REP_REQUESTS: usize = 8000;
const ENGINE_REP_SECONDS: f64 = 1.3;
/// Stated bound for the reconciliation check: the traced run's layer sum
/// per request must be within this share of the untraced end-to-end mean.
const RECONCILE_BOUND: f64 = 0.25;

/// One storefront request of the seeded sequence.
#[derive(Clone, Copy)]
struct Req {
    app: usize,
    cart: i64,
    product: i64,
    checkout: bool,
}

/// The seeded request sequence. Its composition is fixed (each app gets
/// every `apps`-th request, and of each app's requests 3 in 10 are
/// checkouts and the product alternates every 10), so seeds differ only
/// in order and carts: a freely drawn mix would move the median between
/// request classes from seed to seed.
fn requests(seed: u64, n: usize, apps: usize) -> Vec<Req> {
    let zipf = Zipf::new(CARTS, ZIPF_THETA);
    let mut rng = seed;
    let mut reqs: Vec<Req> = (0..n)
        .map(|i| {
            let k = i / apps;
            Req {
                app: i % apps,
                cart: zipf.sample(splitmix64(&mut rng)) as i64,
                product: if (k / 10).is_multiple_of(2) {
                    PEN
                } else {
                    LAPTOP
                },
                checkout: k % 10 < CHECKOUT_TENTHS,
            }
        })
        .collect();
    for i in (1..reqs.len()).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        reqs.swap(i, j);
    }
    reqs
}

/// Repetition `k` of a run replays the sequence of its own seed, derived
/// from the run's: a contended workload's percentiles depend on the
/// sequence, so a run samples many sequences rather than one.
fn rep_seed(seed: u64, k: usize) -> u64 {
    let mut state = seed ^ (k as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut state)
}

/// The corpus schema and sample store, with stock raised by `n` units of
/// each product so no request of an `n`-request run finds it sold out
/// (each add is one unit): checkouts keep taking the full write path.
fn build_store(level: IsolationLevel, n: usize) -> Arc<Database> {
    let db = Database::new(shop_schema(), level);
    seed_store(&db);
    let extra = n as i64;
    db.seed(
        "stock_adjustments",
        vec![
            vec![Value::Null, Value::Int(PEN), Value::Int(extra)],
            vec![Value::Null, Value::Int(LAPTOP), Value::Int(extra)],
        ],
    )
    .expect("seed stock ledger");
    db.connect()
        .execute(&format!("UPDATE products SET stock = stock + {extra}"))
        .expect("raise stock");
    db
}

/// Tables whose end-of-run sizes are the workload's shape figures.
const SHAPE_TABLES: [&str; 3] = ["cart_items", "orders", "order_items"];
const ORDERS: usize = 1;
/// Business-rule rejections (mostly checkouts of empty carts) above this
/// share mean the workload has lost its shape. Seed values: ~0.19 on
/// `shop-wire`, ~0.12 on `engine-ser`.
const MAX_REJECTED_SHARE: f64 = 0.3;

// ---------------------------------------------------------------------------
// Per-request driving.

/// Benchmark-side span totals for one client thread.
#[derive(Default)]
struct Totals {
    stmts: Cell<u64>,
    exec_ns: Cell<u64>,
    parse_ns: Cell<u64>,
}

/// Times every statement handed to the layer below (`RemoteConn` or
/// `Connection`), then times `acidrain_sql::parse_statement` on the same
/// text outside that span.
struct Spanned<'a, C> {
    inner: C,
    totals: &'a Totals,
}

impl<C: SqlConn> SqlConn for Spanned<'_, C> {
    fn exec(&mut self, sql: &str) -> Result<acidrain_db::ResultSet, DbError> {
        let t = Instant::now();
        let result = self.inner.exec(sql);
        let exec = t.elapsed();
        let p = Instant::now();
        let _ = std::hint::black_box(acidrain_sql::parse_statement(std::hint::black_box(sql)));
        let parse = p.elapsed();
        let t = self.totals;
        t.stmts.set(t.stmts.get() + 1);
        t.exec_ns.set(t.exec_ns.get() + exec.as_nanos() as u64);
        t.parse_ns.set(t.parse_ns.get() + parse.as_nanos() as u64);
        result
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.inner.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.inner.session()
    }

    fn obs(&self) -> acidrain_db::Obs {
        self.inner.obs()
    }
}

/// Open-loop schedule: request `i` is due at `t0 + i / rate`.
#[derive(Clone, Copy)]
struct Pace {
    t0: Instant,
    rate: f64,
}

/// What one client thread (or, merged, a whole run) saw.
#[derive(Default)]
struct RunOut {
    /// Per request: due (open loop) or send (closed loop) → reply, in
    /// ns; `u64::MAX` for a failed request.
    latency_ns: Vec<u64>,
    /// Per request on the open loop: how late the generator sent it
    /// beyond the later of its due time and its connection freeing up.
    lag_ns: Vec<u64>,
    /// Sum over requests of send → reply.
    service_ns: u64,
    rejected: u64,
    failed: u64,
    protocol_errors: u64,
    ok_checkouts: u64,
    retries: u64,
    stmts: u64,
    exec_ns: u64,
    parse_ns: u64,
    first_error: Option<String>,
    end: Option<Instant>,
}

impl RunOut {
    fn merge(&mut self, other: RunOut) {
        self.latency_ns.extend(other.latency_ns);
        self.lag_ns.extend(other.lag_ns);
        self.service_ns += other.service_ns;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.protocol_errors += other.protocol_errors;
        self.ok_checkouts += other.ok_checkouts;
        self.retries += other.retries;
        self.stmts += other.stmts;
        self.exec_ns += other.exec_ns;
        self.parse_ns += other.parse_ns;
        self.first_error = self.first_error.take().or(other.first_error);
        self.end = self.end.max(other.end);
    }

    fn requests(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    fn mean_service_us(&self) -> f64 {
        self.service_ns as f64 / self.requests().max(1) as f64 / 1e3
    }
}

type Apps = [Box<dyn ShopApp + Send + Sync>];

/// Drive client `thread`'s share of `reqs` (every `CLIENTS`-th request)
/// through `conn`, wrapped in the apps' default `RetryConn` and, when
/// traced, in a [`Spanned`] below it.
fn client<C: SqlConn>(
    conn: C,
    thread: usize,
    seed: u64,
    apps: &Apps,
    reqs: &[Req],
    pace: Option<Pace>,
    traced: bool,
) -> RunOut {
    let retry = RetryConfig {
        seed: seed ^ thread as u64,
        ..RetryConfig::default()
    };
    let totals = Totals::default();
    let mut out = if traced {
        drive(
            RetryConn::new(
                Spanned {
                    inner: conn,
                    totals: &totals,
                },
                retry,
            ),
            thread,
            apps,
            reqs,
            pace,
        )
    } else {
        drive(RetryConn::new(conn, retry), thread, apps, reqs, pace)
    };
    out.stmts = totals.stmts.get();
    out.exec_ns = totals.exec_ns.get();
    out.parse_ns = totals.parse_ns.get();
    out
}

fn drive<C: SqlConn>(
    mut conn: RetryConn<C>,
    thread: usize,
    apps: &Apps,
    reqs: &[Req],
    pace: Option<Pace>,
) -> RunOut {
    let mut out = RunOut::default();
    let mut free_at: Option<Instant> = None;
    for (i, req) in reqs.iter().enumerate().skip(thread).step_by(CLIENTS) {
        let due = pace.map(|p| p.t0 + Duration::from_secs_f64(i as f64 / p.rate));
        if let Some(due) = due {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let start = Instant::now();
        if let Some(due) = due {
            let ready = free_at.map_or(due, |f| f.max(due));
            out.lag_ns
                .push(start.saturating_duration_since(ready).as_nanos() as u64);
        }
        let app = &apps[req.app];
        let result = if req.checkout {
            app.checkout(&mut conn, req.cart, &CheckoutRequest::plain())
                .map(|_| ())
        } else {
            app.add_to_cart(&mut conn, req.cart, req.product, 1)
        };
        let end = Instant::now();
        out.service_ns += (end - start).as_nanos() as u64;
        let latency = (end - due.unwrap_or(start)).as_nanos() as u64;
        match result {
            Ok(()) => {
                out.ok_checkouts += req.checkout as u64;
                out.latency_ns.push(latency);
            }
            // Business-rule refusals (empty cart, feature absent) are
            // correct answers, not failures.
            Err(AppError::Rejected(_)) | Err(AppError::Unsupported(_)) => {
                out.rejected += 1;
                out.latency_ns.push(latency);
            }
            Err(AppError::Db(e)) => {
                if matches!(&e, DbError::Internal(m) if m.starts_with("wire protocol")) {
                    out.protocol_errors += 1;
                }
                out.failed += 1;
                out.first_error
                    .get_or_insert_with(|| format!("{}: {e}", apps[req.app].name()));
                out.latency_ns.push(u64::MAX);
            }
        }
        free_at = Some(end);
    }
    let stats = conn.stats();
    out.retries = stats.statement_retries + stats.txn_replays;
    out.end = free_at;
    out
}

/// Run `reqs` over `conns` (one client thread each) and merge.
fn run<C: SqlConn + Send>(
    conns: Vec<C>,
    seed: u64,
    apps: &Apps,
    reqs: &[Req],
    rate: Option<f64>,
    traced: bool,
) -> (RunOut, Instant) {
    // A short lead so both threads are parked before the first due time.
    let pace = rate.map(|rate| Pace {
        t0: Instant::now() + Duration::from_millis(5),
        rate,
    });
    let t0 = pace.map_or_else(Instant::now, |p| p.t0);
    let mut merged = RunOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(t, conn)| s.spawn(move || client(conn, t, seed, apps, reqs, pace, traced)))
            .collect();
        for h in handles {
            merged.merge(h.join().expect("client thread panicked"));
        }
    });
    (merged, t0)
}

// ---------------------------------------------------------------------------
// Set-up rigs.

const WIRE_LEVEL: IsolationLevel = IsolationLevel::MySqlRepeatableRead;
const ENGINE_LEVEL: IsolationLevel = IsolationLevel::Serializable;

struct WireRig {
    db: Arc<Database>,
    server: ServerHandle,
    conns: Vec<RemoteConn>,
    wal: WalConfig,
}

fn io_err(e: DbError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Store build and seeding, WAL attach (group commit, real `sync_data`
/// under `dir`), server start with the shipped `ServerConfig`, and the
/// client sockets' connect and `HELLO`.
fn start_wire(dir: &Path, n: usize) -> std::io::Result<WireRig> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let db = build_store(WIRE_LEVEL, n);
    let wal = WalConfig::new(dir);
    db.attach_wal(wal.clone()).map_err(io_err)?;
    let server = Server::start(Arc::clone(&db), ServerConfig::default())?;
    let mut conns = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut conn = RemoteConn::connect(server.addr())?;
        conn.set_isolation(WIRE_LEVEL).map_err(io_err)?;
        conns.push(conn);
    }
    Ok(WireRig {
        db,
        server,
        conns,
        wal,
    })
}

/// Wall time of one set-up; the rig is torn down outside the timed region.
fn time_setup<R>(setup: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    let rig = setup();
    let elapsed = t.elapsed().as_secs_f64();
    drop(rig);
    elapsed
}

// ---------------------------------------------------------------------------
// Repetitions, checks and metrics shared by both shop workloads.

/// One repetition of a workload's fixed request sequence on a fresh rig.
struct Rep {
    out: RunOut,
    t0: Instant,
    /// Open transactions, locked resources and pinned snapshots once
    /// every session is gone.
    leaks: (usize, usize, usize),
    /// End-of-run sizes of `SHAPE_TABLES`.
    sizes: Vec<usize>,
    /// `shop-wire` only: whether a store recovered from the WAL equals
    /// the live one.
    recovery: Option<Result<String, String>>,
    /// Traced repetitions only: the engine's own counters, and the size
    /// of its query log.
    engine: MetricsReport,
    log_entries: usize,
}

impl Rep {
    fn new(out: RunOut, t0: Instant, db: &Database, traced: bool) -> Rep {
        Rep {
            leaks: (
                db.active_transactions(),
                db.locked_resources(),
                db.pinned_snapshots(),
            ),
            sizes: SHAPE_TABLES
                .iter()
                .map(|t| db.table_rows(t).map_or(0, |r| r.len()))
                .collect(),
            recovery: None,
            engine: if traced {
                db.metrics_report()
            } else {
                MetricsReport::default()
            },
            log_entries: if traced { db.log_entries().len() } else { 0 },
            out,
            t0,
        }
    }

    fn wall(&self) -> f64 {
        self.out.end.map_or(0.0, |e| (e - self.t0).as_secs_f64())
    }

    fn sorted_latency(&self) -> Vec<u64> {
        let mut lat = self.out.latency_ns.clone();
        lat.sort_unstable();
        lat
    }

    fn rejected_share(&self) -> f64 {
        self.out.rejected as f64 / self.out.requests().max(1) as f64
    }
}

/// Correctness checks over every repetition of a run.
fn check_reps(report: &mut Report, reps: &[Rep], label: &str) {
    let sum = |f: fn(&RunOut) -> u64| reps.iter().map(|r| f(&r.out)).sum::<u64>();
    let protocol = sum(|o| o.protocol_errors);
    report.check(
        &format!("{label}no protocol errors"),
        protocol == 0,
        protocol,
    );
    let first_error = reps.iter().find_map(|r| r.out.first_error.as_deref());
    report.check(
        &format!("{label}no failed requests"),
        sum(|o| o.failed) == 0,
        format!("{} ({})", sum(|o| o.failed), first_error.unwrap_or("-")),
    );
    let leaks: Vec<_> = reps
        .iter()
        .map(|r| r.leaks)
        .filter(|l| *l != (0, 0, 0))
        .collect();
    report.check(
        &format!("{label}no open txns/locks/pins after any repetition"),
        leaks.is_empty(),
        format!("{leaks:?}"),
    );
    if reps.iter().any(|r| r.recovery.is_some()) {
        let bad: Vec<&String> = reps
            .iter()
            .filter_map(|r| r.recovery.as_ref()?.as_ref().err())
            .collect();
        report.check(
            &format!("{label}store recovered from each repetition's WAL equals the live store"),
            bad.is_empty(),
            format!("{bad:?}"),
        );
    }
    let mut lag: Vec<u64> = reps.iter().flat_map(|r| r.out.lag_ns.clone()).collect();
    if !lag.is_empty() {
        // The open loop is valid only if the generator sent on schedule:
        // its p99 lateness must stay under one client's arrival gap.
        lag.sort_unstable();
        let (p99, gap) = (us(percentile(&lag, 0.99)), CLIENTS as f64 / WIRE_RATE * 1e6);
        report.check(
            &format!("{label}open-loop generator kept its schedule"),
            p99 < gap,
            format!("lag p99 {p99:.0} us < {gap:.0} us"),
        );
    }
    // Shape: every successful checkout wrote exactly one order, and
    // rejections (empty carts) stay a minority; a sequence whose stock or
    // carts ran dry would reject far more.
    let mismatched: Vec<(u64, usize)> = reps
        .iter()
        .map(|r| (r.out.ok_checkouts, r.sizes[ORDERS]))
        .filter(|(ok, orders)| *ok != *orders as u64)
        .collect();
    report.check(
        &format!("{label}each successful checkout wrote one order"),
        mismatched.is_empty(),
        format!("(ok checkouts, orders) mismatches: {mismatched:?}"),
    );
    let share = median(&reps.iter().map(Rep::rejected_share).collect::<Vec<_>>());
    report.check(
        &format!("{label}rejected share stays bounded"),
        share <= MAX_REJECTED_SHARE,
        format!("median {share:.4} (max {MAX_REJECTED_SHARE})"),
    );
    let sizes: Vec<String> = SHAPE_TABLES
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let n = median(&reps.iter().map(|r| r.sizes[i] as f64).collect::<Vec<_>>());
            format!("{t}={n}")
        })
        .collect();
    let retries = median(
        &reps
            .iter()
            .map(|r| r.out.retries as f64)
            .collect::<Vec<_>>(),
    );
    report.note(format!(
        "# {label}shape (median over repetitions): {} rejected_share={share:.4} retries={retries}",
        sizes.join(" ")
    ));
}

fn end_to_end(report: &mut Report, reps: &[Rep], setup_s: f64) {
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.attempted = reps.iter().map(|r| r.out.requests()).sum();
    report.failed = reps.iter().map(|r| r.out.failed).sum();
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric(
        "req_p50_us",
        of(&|r| us(percentile(&r.sorted_latency(), 0.50))),
        "us",
    );
    report.metric(
        "req_p90_us",
        of(&|r| us(percentile(&r.sorted_latency(), 0.90))),
        "us",
    );
    report.metric(
        "req_per_s",
        of(&|r| (r.out.requests() - r.out.failed) as f64 / r.wall()),
        "1/s",
    );
    report.metric("sweep_s", of(&Rep::wall), "s");
    let mut pooled: Vec<u64> = reps.iter().flat_map(|r| r.out.latency_ns.clone()).collect();
    pooled.sort_unstable();
    let ladder: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| format!("p{}={:.0}", q * 100.0, us(percentile(&pooled, q))))
        .collect();
    report.note(format!(
        "# {} repetitions; failed_share = {}; pooled latency us over {} samples: {}",
        reps.len(),
        report.failed as f64 / report.attempted.max(1) as f64,
        pooled.len(),
        ladder.join(" ")
    ));
}

/// The per-layer split of the traced repetitions, against the untraced
/// repetitions of the same sequences. `wire` selects which client span is
/// the network round trip.
fn per_layer(report: &mut Report, traced: Vec<Rep>, untraced: Vec<Rep>, wire: bool) {
    let engine = merged(traced.iter().map(|r| &r.engine));
    let log_entries = median(
        &traced
            .iter()
            .map(|r| r.log_entries as f64)
            .collect::<Vec<_>>(),
    );
    let t = &concat(traced);
    let n = t.requests().max(1) as f64;
    let stmts = t.stmts.max(1) as f64;
    let span_us = t.exec_ns as f64 / stmts / 1e3;
    let parse_us = t.parse_ns as f64 / stmts / 1e3;
    let stmt_us = engine.statements.mean_nanos() as f64 / 1e3;
    let self_us = (t.service_ns as f64 - t.exec_ns as f64 - t.parse_ns as f64) / n / 1e3;
    let commits: u64 = engine.by_level.iter().map(|l| l.commits).sum();
    let c = &engine.counters;
    let mut lag = t.lag_ns.clone();
    lag.sort_unstable();

    if wire {
        report.metric("net.rtt_us", span_us, "us");
        report.metric("net.overhead_us", span_us - stmt_us, "us");
        report.metric("net.stmts_per_req", stmts / n, "count");
        report.metric(
            "db.wal_fsyncs_per_commit",
            c.wal_fsyncs as f64 / commits.max(1) as f64,
            "count",
        );
        report.metric("db.wal_bytes_per_req", c.wal_bytes as f64 / n, "B");
        report.metric("bench.gen_lag_p99_us", us(percentile(&lag, 0.99)), "us");
    } else {
        report.metric("db.exec_us", span_us, "us");
    }
    report.metric("db.stmt_us", stmt_us, "us");
    report.metric("sql.parse_us", parse_us, "us");
    report.metric("sql.parse_share", parse_us / span_us, "share");
    report.metric("db.lock_waits_per_req", c.lock_waits as f64 / n, "count");
    report.metric(
        "db.lock_wait_us",
        engine.lock_waits.sum_nanos as f64 / n / 1e3,
        "us",
    );
    report.metric(
        "db.latch_wait_us",
        engine.latches.sum_nanos as f64 / n / 1e3,
        "us",
    );
    report.metric("db.abort_share", engine.abort_rate(), "share");
    report.metric(
        "db.index_fallback_share",
        c.index_fallbacks as f64 / (c.index_hits + c.index_fallbacks).max(1) as f64,
        "share",
    );
    report.metric("db.log_entries", log_entries, "count");
    report.metric("apps.self_us", self_us, "us");
    report.metric("apps.retries_per_req", t.retries as f64 / n, "count");

    // Reconciliation: the layers' self times per request, without the
    // parse the traced run adds, against the untraced mean service time.
    let layer_sum = self_us + span_us * stmts / n;
    let base = concat(untraced).mean_service_us();
    let overhead = layer_sum / base - 1.0;
    report.metric("bench.trace_overhead_share", overhead, "share");
    report.check(
        "traced layer sum reconciles with the untraced end-to-end mean",
        overhead.abs() <= RECONCILE_BOUND,
        format!(
            "{layer_sum:.1} us vs {base:.1} us (bound ±{:.0}%)",
            RECONCILE_BOUND * 100.0
        ),
    );
    report.check(
        "engine statement time nests inside the client span",
        stmt_us <= span_us,
        format!("{stmt_us:.1} us <= {span_us:.1} us"),
    );
}

/// All repetitions' outcomes as one.
fn concat(reps: Vec<Rep>) -> RunOut {
    reps.into_iter().fold(RunOut::default(), |mut all, r| {
        all.merge(r.out);
        all
    })
}

/// The engine figures `per_layer` reads, summed over repetitions.
fn merged<'a>(reports: impl Iterator<Item = &'a MetricsReport>) -> MetricsReport {
    let mut m = MetricsReport::default();
    for r in reports {
        m.statements.merge(&r.statements);
        m.lock_waits.merge(&r.lock_waits);
        m.latches.merge(&r.latches);
        m.by_level.extend(r.by_level.iter().cloned());
        let (sum, c) = (&mut m.counters, &r.counters);
        sum.lock_waits += c.lock_waits;
        sum.index_hits += c.index_hits;
        sum.index_fallbacks += c.index_fallbacks;
        sum.wal_fsyncs += c.wal_fsyncs;
        sum.wal_bytes += c.wal_bytes;
    }
    m
}

/// Run the untraced repetitions (`--trace 0`), or as many alternating
/// untraced and traced repetitions, pairwise of the same sequence
/// (`--trace 1`).
fn measure(
    args: &Args,
    reps: usize,
    mut setup_trial: impl FnMut() -> f64,
    mut rep: impl FnMut(usize, bool) -> Rep,
    wire: bool,
) -> Report {
    let mut report = Report::default();
    if !args.trace {
        // Set-ups are timed in batches between repetitions, so their
        // median samples the host across the run, not one moment of it.
        let mut setups = Vec::new();
        let mut all = Vec::with_capacity(reps);
        for k in 0..reps {
            setups.extend((0..SETUP_TRIALS.div_ceil(reps)).map(|_| setup_trial()));
            all.push(rep(k, false));
        }
        check_reps(&mut report, &all, "");
        end_to_end(&mut report, &all, median(&setups));
        return report;
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0..(reps / 2).max(1) {
        untraced.push(rep(k, false));
        traced.push(rep(k, true));
    }
    check_reps(&mut report, &untraced, "untraced: ");
    check_reps(&mut report, &traced, "traced: ");
    report.attempted = traced.iter().map(|r| r.out.requests()).sum();
    report.failed = traced.iter().map(|r| r.out.failed).sum();
    per_layer(&mut report, traced, untraced, wire);
    report
}

// ---------------------------------------------------------------------------
// The workloads.

/// `shop-wire`: the operator's path.
pub fn shop_wire(args: &Args, scratch: &Path) -> Report {
    let n = WIRE_REP_REQUESTS;
    let apps = all_apps();
    let reps = ((args.seconds as f64 * WIRE_RATE / n as f64).round() as usize).max(1);
    let setup_dir = scratch.join("setup");
    let setup_trial = || time_setup(|| start_wire(&setup_dir, n).expect("shop-wire set-up"));
    let rep = |k: usize, traced: bool| {
        let dir = scratch.join(format!("rep-{k}-{}", traced as u8));
        let rig = start_wire(&dir, n).expect("shop-wire set-up");
        if traced {
            rig.db.enable_metrics();
        }
        let seed = rep_seed(args.seed, k);
        let reqs = requests(seed, n, apps.len());
        let (out, t0) = run(rig.conns, seed, &apps, &reqs, Some(WIRE_RATE), traced);
        rig.server.shutdown();
        let mut rep = Rep::new(out, t0, &rig.db, traced);
        rep.recovery = Some(recovered_equals_live(&rig.db, &rig.wal, n));
        rep
    };
    measure(args, reps, setup_trial, rep, true)
}

fn sorted_rows(db: &Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .table_rows(table)
        .unwrap_or_default()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Durability: a fresh store recovered from the WAL directory holds
/// exactly the live store's tables.
fn recovered_equals_live(live: &Database, wal: &WalConfig, n: usize) -> Result<String, String> {
    let fresh = build_store(WIRE_LEVEL, n);
    let info = fresh
        .recover(wal.clone())
        .map_err(|e| format!("recover failed: {e}"))?;
    let differing: Vec<String> = live
        .schema()
        .tables()
        .map(|t| t.name.clone())
        .filter(|t| sorted_rows(live, t) != sorted_rows(&fresh, t))
        .collect();
    if differing.is_empty() {
        Ok(format!("{info:?}"))
    } else {
        Err(format!("tables differ: {differing:?}"))
    }
}

/// `engine-ser`: the in-process engine at SERIALIZABLE.
pub fn engine_ser(args: &Args) -> Report {
    let n = ENGINE_REP_REQUESTS;
    let apps = all_apps();
    let reps = ((args.seconds as f64 / ENGINE_REP_SECONDS).round() as usize).max(1);
    let start = || {
        let db = build_store(ENGINE_LEVEL, n);
        let conns: Vec<_> = (0..CLIENTS).map(|_| db.connect()).collect();
        (db, conns)
    };
    let rep = |k: usize, traced: bool| {
        let (db, conns) = start();
        if traced {
            db.enable_metrics();
        }
        let seed = rep_seed(args.seed, k);
        let reqs = requests(seed, n, apps.len());
        let (out, t0) = run(conns, seed, &apps, &reqs, None, traced);
        Rep::new(out, t0, &db, traced)
    };
    measure(args, reps, || time_setup(start), rep, false)
}
