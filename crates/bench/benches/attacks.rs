//! Attack-execution benchmarks: the Figure-1 withdraw race under the
//! deterministic scheduler, the three §4.2.2 attacks end-to-end, and the
//! threaded stress executor at increasing concurrency.

use std::time::Duration;

use std::hint::black_box;

use acidrain_apps::didactic::Bank;
use acidrain_apps::prelude::*;
use acidrain_bench::bench;
use acidrain_db::IsolationLevel;
use acidrain_harness::attack::{run_attack, Invariant};
use acidrain_harness::experiments::{figures, PAPER_DEFAULT_ISOLATION};
use acidrain_harness::stress::run_concurrent;

fn bench_figure1() {
    let variants = [
        ("unscoped", Bank::figure_1a()),
        ("transaction", Bank::figure_1b()),
        ("for_update", Bank::fixed()),
    ];
    for (label, bank) in variants {
        bench(&format!("fig1_withdraw/{label}"), 20, || {
            black_box(figures::figure1_withdraw(
                &bank,
                IsolationLevel::ReadCommitted,
            ))
        });
    }
}

fn bench_invariant_attacks() {
    let scenarios: [(&str, Box<dyn ShopApp + Send + Sync>, Invariant, usize); 3] = [
        (
            "voucher_prestashop",
            Box::new(PrestaShop),
            Invariant::Voucher,
            8,
        ),
        (
            "inventory_magento",
            Box::new(Magento),
            Invariant::Inventory,
            0,
        ),
        ("cart_lfs", Box::new(LightningFastShop), Invariant::Cart, 0),
    ];
    for (label, app, invariant, k) in &scenarios {
        bench(&format!("acidrain_attack/{label}"), 20, || {
            black_box(run_attack(
                app.as_ref(),
                *invariant,
                PAPER_DEFAULT_ISOLATION,
                *k,
            ))
        });
    }
}

fn bench_stress_concurrency() {
    for n in [2usize, 4, 8] {
        bench(&format!("stress_checkouts/{n}"), 10, || {
            let app = PrestaShop;
            let db = app.make_store(PAPER_DEFAULT_ISOLATION);
            let mut conn = db.connect();
            conn.execute("UPDATE products SET stock = 100000 WHERE id = 1")
                .unwrap();
            for cart in 1..=n as i64 {
                app.add_to_cart(&mut conn, cart, PEN, 1).unwrap();
            }
            drop(conn);
            let tasks: Vec<_> = (1..=n as i64)
                .map(|cart| {
                    let app = &app;
                    move |conn: &mut dyn SqlConn| {
                        app.checkout(conn, cart, &CheckoutRequest::plain()).is_ok()
                    }
                })
                .collect();
            black_box(run_concurrent(&db, tasks, Duration::ZERO))
        });
    }
}

fn main() {
    bench_figure1();
    bench_invariant_attacks();
    bench_stress_concurrency();
}
