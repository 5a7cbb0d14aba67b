//! Table 5 and Table 2 benchmarks: the end-to-end audit pipeline (probe →
//! 2AD → witness-driven attacks → verification) per application, and the
//! same cell audited across isolation levels.

use std::hint::black_box;

use acidrain_apps::all_apps;
use acidrain_bench::{bench, BENCH_APPS};
use acidrain_db::IsolationLevel;
use acidrain_harness::attack::{audit_cell, Invariant};
use acidrain_harness::experiments::PAPER_DEFAULT_ISOLATION;

/// One full Table-5 row (all three invariants) per benchmark app.
fn bench_table5_rows() {
    for app in all_apps() {
        if !BENCH_APPS.contains(&app.name()) {
            continue;
        }
        bench(&format!("table5_audit_row/{}", app.name()), 10, || {
            for invariant in Invariant::ALL {
                black_box(audit_cell(
                    app.as_ref(),
                    invariant,
                    PAPER_DEFAULT_ISOLATION,
                    60,
                ));
            }
        });
    }
}

/// Table 2's dimension: the same level-based cell audited at each
/// isolation level.
fn bench_table2_isolation_sweep() {
    let apps = all_apps();
    let oscar = apps.iter().find(|a| a.name() == "Oscar").unwrap();
    for level in IsolationLevel::ALL {
        bench(&format!("table2_isolation_sweep/{level}"), 10, || {
            black_box(audit_cell(oscar.as_ref(), Invariant::Inventory, level, 60))
        });
    }
}

fn main() {
    bench_table5_rows();
    bench_table2_isolation_sweep();
}
