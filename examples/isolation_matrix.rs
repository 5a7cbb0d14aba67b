//! Sweep one attack across every isolation level — the Table-2 question
//! in miniature: which levels admit which anomalies?
//!
//! ```text
//! cargo run -p acidrain-harness --example isolation_matrix
//! cargo run -p acidrain-harness --example isolation_matrix -- --metrics-json
//! cargo run -p acidrain-harness --example isolation_matrix -- --trace
//! ```
//!
//! With `--metrics-json` the example finishes by racing concurrent voucher
//! checkouts against an instrumented store and printing the engine's
//! [`MetricsReport`](acidrain_db::MetricsReport) as JSON — statement/lock
//! latency percentiles, contention counters, per-level commit/abort
//! counts. With `--trace` it also enables span tracing and prints the
//! transaction trace in both plain JSON and `chrome://tracing` form (paste
//! the latter into `chrome://tracing` or Perfetto to see the interleaving).

use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_harness::attack::{audit_cell, Invariant};
use acidrain_harness::experiments::table5::render_cell;
use acidrain_harness::run_concurrent;
use acidrain_obs::{trace_chrome_json, trace_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_json = args.iter().any(|a| a == "--metrics-json");
    let trace = args.iter().any(|a| a == "--trace");

    println!("One cell per (attack, isolation level): does the vulnerability manifest?");
    println!();
    let scenarios: Vec<(&str, Box<dyn ShopApp + Send + Sync>, Invariant)> = vec![
        (
            "Oscar voucher (phantom, level-based)",
            Box::new(Oscar),
            Invariant::Voucher,
        ),
        (
            "Oscar inventory (LU, level-based)",
            Box::new(Oscar),
            Invariant::Inventory,
        ),
        (
            "PrestaShop voucher (LU, scope-based)",
            Box::new(PrestaShop),
            Invariant::Voucher,
        ),
        (
            "Magento inventory (LU, scope-based)",
            Box::new(Magento),
            Invariant::Inventory,
        ),
        (
            "LFS cart (phantom, scope-based)",
            Box::new(LightningFastShop),
            Invariant::Cart,
        ),
    ];

    print!("{:<42}", "attack");
    for level in IsolationLevel::ALL {
        print!("{:>12}", short(level));
    }
    println!();
    for (label, app, invariant) in &scenarios {
        print!("{label:<42}");
        for level in IsolationLevel::ALL {
            let report = audit_cell(app.as_ref(), *invariant, level, 60);
            let cell = if report.cell.is_vulnerable() {
                "VULN"
            } else {
                "safe"
            };
            print!("{cell:>12}");
        }
        println!();
    }
    println!();
    println!("reading the shape (paper §4.2.5 / Table 2):");
    println!("  - scope-based attacks survive every isolation level, Serializable included;");
    println!("  - level-based Lost Updates die at true RR / SI / Serializable;");
    println!("  - the level-based phantom (Oscar voucher) survives everything but Serializable.");
    let _ = render_cell(Cell::Safe);

    if metrics_json || trace {
        instrumented_demo(trace);
    }
}

/// Race concurrent voucher checkouts on an instrumented store and dump
/// what the observability layer saw. This is the "Reading the engine"
/// demo from the README: the same attack traffic as the matrix above, but
/// with metrics (and optionally span tracing) enabled on the database.
fn instrumented_demo(trace: bool) {
    let app = Oscar;
    let db: Arc<Database> = app.make_store(IsolationLevel::ReadCommitted);
    db.enable_metrics();
    db.set_tracing(trace);

    // Four sessions, each filling its own cart and checking out with the
    // one shared voucher — concurrent redemptions racing on one row.
    let tasks: Vec<_> = (0..4)
        .map(|i| {
            let app = &app;
            move |conn: &mut dyn SqlConn| {
                let cart = i as i64 + 1;
                observed_request(conn, |c| app.add_to_cart(c, cart, PEN, 1))?;
                observed_request(conn, |c| {
                    app.checkout(c, cart, &CheckoutRequest::with_voucher(VOUCHER_CODE))
                })
            }
        })
        .collect();
    let results = run_concurrent(&db, tasks, std::time::Duration::ZERO);
    let committed = results.iter().filter(|r| r.is_ok()).count();

    println!();
    println!(
        "instrumented run: {committed}/{} voucher checkouts committed at ReadCommitted",
        results.len()
    );
    println!();
    println!("--- metrics (MetricsReport::to_json) ---");
    print!("{}", db.metrics_report().to_json());

    if trace {
        let events = db.take_trace();
        println!("--- trace ({} span events, trace_json) ---", events.len());
        print!("{}", trace_json(&events));
        println!("--- trace (chrome://tracing / Perfetto) ---");
        print!("{}", trace_chrome_json(&events));
    }
}

fn short(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::MySqlRepeatableRead => "MySQL-RR",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::SnapshotIsolation => "SI",
        IsolationLevel::Serializable => "SER",
    }
}
