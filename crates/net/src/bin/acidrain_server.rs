//! Standalone wire server over a seeded corpus store.
//!
//! ```text
//! acidrain_server [ADDR] [ISO] [--max-sessions N] [--queue N] [--flexcoin]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7878`), serves a freshly seeded
//! store — the shared 12-app shop schema by default, or the flexcoin
//! exchange with `--flexcoin` — with default isolation `ISO` (wire code
//! or full name, default `RC`), and runs until killed. Metrics are
//! enabled; the engine's lock-wait timeout uses its default.

use std::sync::Arc;
use std::time::Duration;

use acidrain_apps::flexcoin::Flexcoin;
use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_net::{parse_isolation, Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut isolation = IsolationLevel::ReadCommitted;
    let mut config = ServerConfig {
        max_sessions: 4096,
        queue_capacity: 256,
        idle_timeout: Some(Duration::from_secs(300)),
        txn_timeout: Some(Duration::from_secs(60)),
    };
    let mut flexcoin = false;
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-sessions" => {
                config.max_sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-sessions N");
            }
            "--queue" => {
                config.queue_capacity = it.next().and_then(|v| v.parse().ok()).expect("--queue N");
            }
            "--flexcoin" => flexcoin = true,
            other if positional == 0 => {
                addr = other.to_string();
                positional += 1;
            }
            other if positional == 1 => {
                isolation = parse_isolation(other)
                    .unwrap_or_else(|| panic!("unknown isolation level {other:?}"));
                positional += 1;
            }
            other => panic!("unexpected argument {other:?}"),
        }
    }

    let db: Arc<Database> = if flexcoin {
        Flexcoin.make_exchange(isolation, 100_000, 100)
    } else {
        let db = Database::new(shop_schema(), isolation);
        seed_store(&db);
        db
    };
    db.enable_metrics();

    let handle = Server::start_on(Arc::clone(&db), &addr, config).expect("bind server");
    println!(
        "acidrain_server listening on {} (default isolation {}, store: {})",
        handle.addr(),
        isolation.name(),
        if flexcoin {
            "flexcoin exchange"
        } else {
            "12-app shop"
        },
    );
    loop {
        std::thread::sleep(Duration::from_secs(60));
        let report = db.metrics_report();
        println!(
            "sessions={} accepted={} frames={} commits+aborts={}",
            report.net_sessions,
            report.counters.net_accepted,
            report.counters.net_frames,
            report.transactions_finished(),
        );
    }
}
