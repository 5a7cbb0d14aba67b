//! Table 4 benchmarks: 2AD pipeline stages per application — log lifting
//! (the paper's "Parse" column), cycle search (the "Analyze" column), and
//! the §4.2.3 targeted-filtering ablation.

use std::hint::black_box;

use acidrain_apps::all_apps;
use acidrain_bench::{bench, BENCH_APPS};
use acidrain_core::lift::lift_trace;
use acidrain_core::{AbstractHistory, Analyzer, ColumnTarget, Detector, RefinementConfig};
use acidrain_harness::attack::Invariant;
use acidrain_harness::experiments::{pentest_trace, PAPER_DEFAULT_ISOLATION};

fn bench_parse() {
    for app in all_apps() {
        if !BENCH_APPS.contains(&app.name()) {
            continue;
        }
        let log = pentest_trace(app.as_ref(), PAPER_DEFAULT_ISOLATION);
        let schema = app.schema();
        bench(&format!("table4_parse/{}", app.name()), 20, || {
            let trace = lift_trace(black_box(&log), &schema).unwrap();
            AbstractHistory::build(trace)
        });
    }
}

fn bench_analyze() {
    for app in all_apps() {
        if !BENCH_APPS.contains(&app.name()) {
            continue;
        }
        let log = pentest_trace(app.as_ref(), PAPER_DEFAULT_ISOLATION);
        let trace = lift_trace(&log, &app.schema()).unwrap();
        let history = AbstractHistory::build(trace);
        let config = RefinementConfig::at_isolation(PAPER_DEFAULT_ISOLATION);
        bench(&format!("table4_analyze/{}", app.name()), 20, || {
            Detector::new(black_box(&history), &config).find_all()
        });
    }
}

/// §4.2.3: targeted (schema-filtered) search vs the full pair sweep.
fn bench_targeted_vs_full() {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.name() == "OpenCart").unwrap();
    let log = pentest_trace(app.as_ref(), PAPER_DEFAULT_ISOLATION);
    let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
    let config = RefinementConfig::at_isolation(PAPER_DEFAULT_ISOLATION);
    let mut targets: Vec<ColumnTarget> = Vec::new();
    for invariant in Invariant::ALL {
        targets.extend(invariant.targets());
    }
    bench("targeted_vs_full/full", 20, || {
        analyzer.analyze(black_box(&config))
    });
    bench("targeted_vs_full/targeted", 20, || {
        analyzer.analyze_targeted(black_box(&config), &targets)
    });
}

/// Refinement ablation: cycle search with no refinement, isolation-based
/// refinement, and isolation + session locking.
fn bench_refinement_ablation() {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.name() == "OpenCart").unwrap();
    let log = pentest_trace(app.as_ref(), PAPER_DEFAULT_ISOLATION);
    let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
    let configs = [
        ("none", RefinementConfig::none()),
        (
            "isolation",
            RefinementConfig::at_isolation(PAPER_DEFAULT_ISOLATION),
        ),
        (
            "isolation+session",
            RefinementConfig::at_isolation(PAPER_DEFAULT_ISOLATION).with_session_locking(
                ["add_to_cart".to_string(), "checkout".to_string()],
                ["cart_items".to_string()],
            ),
        ),
    ];
    for (label, config) in configs {
        bench(&format!("refinement_ablation/{label}"), 20, || {
            analyzer.analyze(black_box(&config))
        });
    }
}

fn main() {
    bench_parse();
    bench_analyze();
    bench_targeted_vs_full();
    bench_refinement_ablation();
}
