//! Point-lookup benchmark for the equality-index read path.
//!
//! Seeds a 10k-row catalog and issues single-row statements whose WHERE
//! clause is an indexable `col = literal`, in two modes:
//!
//! * `indexed` — the engine as-is: the predicate analyzer routes the scan
//!   through the per-table hash index, visiting only the probed slots;
//! * `full_scan` — the same statements with `set_use_indexes(false)`:
//!   every scan walks all 10k slots (and, pre-refactor, cloned every
//!   visible row's values before evaluating the predicate — the second
//!   cost this PR removed).
//!
//! Three statement shapes cover the three routed paths: SELECT by unique
//! id, SELECT by a declared-indexed (non-unique) column, and UPDATE by id
//! (target identification). Both modes run the identical deterministic
//! statement stream, so the row counts returned are asserted equal — the
//! index path must be a pure routing change.
//!
//! Emits `BENCH_point_lookup.json` at the repository root. Acceptance:
//! the indexed path is ≥10× faster than the full scan on the 10k-row
//! table (the CI bench job asserts this).
//!
//! Not a criterion bench: the quantity of interest is the simple
//! statements/sec ratio between two engine configurations, so a plain
//! timed harness is clearer.

use std::sync::Arc;
use std::time::Instant;

use acidrain_db::{Database, IsolationLevel, Value};
use acidrain_obs::json::{document, field, Json};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

const ROWS: i64 = 10_000;
/// Distinct values of the non-unique indexed `category` column; each
/// bucket holds ROWS / CATEGORIES rows.
const CATEGORIES: i64 = 500;
const STATEMENTS: usize = 3_000;

fn catalog_db() -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "product",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("category", ColumnType::Int).indexed(),
            ColumnDef::new("stock", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, IsolationLevel::ReadCommitted);
    db.seed(
        "product",
        (1..=ROWS)
            .map(|id| vec![Value::Int(id), Value::Int(id % CATEGORIES), Value::Int(100)])
            .collect(),
    )
    .unwrap();
    db
}

struct Shape {
    name: &'static str,
    make: fn(i64) -> String,
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "select_by_unique_id",
        make: |k| format!("SELECT stock FROM product WHERE id = {}", k % ROWS + 1),
    },
    Shape {
        name: "select_by_indexed_category",
        make: |k| {
            format!(
                "SELECT COUNT(*) FROM product WHERE category = {}",
                k % CATEGORIES
            )
        },
    },
    Shape {
        name: "update_by_unique_id",
        make: |k| {
            format!(
                "UPDATE product SET stock = stock - 1 WHERE id = {}",
                k % ROWS + 1
            )
        },
    },
];

struct Sample {
    shape: &'static str,
    mode: &'static str,
    elapsed_secs: f64,
    stmts_per_sec: f64,
    /// Sum of affected/returned row counts — must match across modes.
    checksum: i64,
    index_hits: u64,
    index_fallbacks: u64,
}

fn run(shape: &Shape, mode: &'static str, use_indexes: bool) -> Sample {
    let db = catalog_db();
    db.set_use_indexes(use_indexes);
    db.enable_metrics();
    let mut conn = db.connect();
    let mut checksum = 0i64;
    let start = Instant::now();
    for i in 0..STATEMENTS {
        // Cheap LCG so lookups walk the key space in a scattered order.
        let k = (i as i64).wrapping_mul(104_729).wrapping_add(7919).abs();
        let rs = conn.execute(&(shape.make)(k)).expect("point statement");
        checksum += rs.scalar_i64().unwrap_or(rs.rows.len() as i64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let m = db.metrics_report();
    Sample {
        shape: shape.name,
        mode,
        elapsed_secs: elapsed,
        stmts_per_sec: STATEMENTS as f64 / elapsed,
        checksum,
        index_hits: m.counters.index_hits,
        index_fallbacks: m.counters.index_fallbacks,
    }
}

fn main() {
    let mut samples: Vec<Sample> = Vec::new();
    for shape in &SHAPES {
        let indexed = run(shape, "indexed", true);
        let full = run(shape, "full_scan", false);
        assert_eq!(
            indexed.checksum, full.checksum,
            "{}: index routing changed statement results",
            shape.name
        );
        assert_eq!(
            indexed.index_hits as usize, STATEMENTS,
            "{}: every statement should route through the index",
            shape.name
        );
        assert_eq!(
            full.index_hits, 0,
            "{}: the disabled path must never probe",
            shape.name
        );
        eprintln!(
            "{:<28} indexed {:>10.0} stmts/sec   full_scan {:>10.0} stmts/sec   ({:.1}x)",
            shape.name,
            indexed.stmts_per_sec,
            full.stmts_per_sec,
            indexed.stmts_per_sec / full.stmts_per_sec
        );
        samples.push(indexed);
        samples.push(full);
    }

    let speedup = |shape: &str| -> f64 {
        let pick = |mode: &str| {
            samples
                .iter()
                .find(|s| s.shape == shape && s.mode == mode)
                .map(|s| s.stmts_per_sec)
                .unwrap_or(f64::NAN)
        };
        pick("indexed") / pick("full_scan")
    };

    let results = samples.iter().map(|s| {
        Json::Obj(vec![
            field("shape", Json::str(s.shape)),
            field("mode", Json::str(s.mode)),
            field("elapsed_secs", Json::Fixed(s.elapsed_secs, 4)),
            field("stmts_per_sec", Json::Fixed(s.stmts_per_sec, 0)),
            field("index_hits", Json::Num(s.index_hits)),
            field("index_fallbacks", Json::Num(s.index_fallbacks)),
        ])
    });
    let speedups = SHAPES
        .iter()
        .map(|sh| field(sh.name, Json::Fixed(speedup(sh.name), 2)));
    let json = document(
        "point_lookup",
        vec![
            field("table_rows", Json::Num(ROWS as u64)),
            field("statements_per_sample", Json::Num(STATEMENTS as u64)),
            field(
                "modes",
                Json::Obj(vec![
                    field(
                        "indexed",
                        Json::str(
                            "equality-index read path (engine default): WHERE col = literal probes the per-table hash index",
                        ),
                    ),
                    field(
                        "full_scan",
                        Json::str(
                            "set_use_indexes(false): every scan walks all slots — the pre-index engine's only plan",
                        ),
                    ),
                ]),
            ),
            field("results", Json::Arr(results.collect())),
            field("speedup_vs_full_scan", Json::Obj(speedups.collect())),
        ],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_point_lookup.json");
    std::fs::write(path, &json).expect("write BENCH_point_lookup.json");
    eprintln!("wrote {path}");

    // Acceptance bar: ≥10× on unique-id point SELECTs over 10k rows.
    let s = speedup("select_by_unique_id");
    eprintln!("select_by_unique_id speedup: {s:.2}x");
    assert!(
        s >= 10.0,
        "point lookups must be >=10x faster than the full scan, got {s:.2}x"
    );
}
