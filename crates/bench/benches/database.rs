//! Substrate benchmarks: SQL parsing, statement execution per isolation
//! level, and lock-manager overheads — the moving parts every experiment
//! sits on.

use std::hint::black_box;

use acidrain_bench::{bench, bench_with_setup};
use acidrain_db::{Database, IsolationLevel, Value};
use acidrain_sql::parse_statement;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn schema() -> Schema {
    Schema::new().with_table(TableSchema::new(
        "items",
        vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("bucket", ColumnType::Int),
            ColumnDef::new("qty", ColumnType::Int),
        ],
    ))
}

fn bench_parser() {
    let statements = [
        ("select_simple", "SELECT qty FROM items WHERE id = 42"),
        (
            "select_join",
            "SELECT si.*, p.type_id FROM stock_item AS si INNER JOIN product AS p ON \
             p.entity_id = si.product_id WHERE website_id = 0 AND product_id IN (2048) \
             FOR UPDATE",
        ),
        (
            "update_case",
            "UPDATE items SET qty = CASE id WHEN 2048 THEN qty - 1 ELSE qty END WHERE \
             id IN (2048)",
        ),
        (
            "insert",
            "INSERT INTO items (bucket, qty) VALUES (1, 10), (2, 20), (3, 30)",
        ),
    ];
    for (label, sql) in statements {
        bench(&format!("sql_parse/{label}"), 20, || {
            parse_statement(black_box(sql)).unwrap()
        });
    }
}

/// One read-modify-write transaction per sample, each on a freshly seeded
/// database.
fn bench_execution_per_isolation() {
    for level in IsolationLevel::ALL {
        let seeded = || {
            let db = Database::new(schema(), level);
            db.seed(
                "items",
                (0..64)
                    .map(|i| vec![Value::Null, Value::Int(i % 8), Value::Int(100)])
                    .collect(),
            )
            .unwrap();
            db.connect()
        };
        bench_with_setup(
            &format!("read_modify_write_txn/{level}"),
            20,
            seeded,
            |conn| {
                conn.execute("BEGIN").unwrap();
                let q = conn
                    .query_i64("SELECT qty FROM items WHERE id = 1")
                    .unwrap();
                conn.execute(&format!("UPDATE items SET qty = {} WHERE id = 1", q + 1))
                    .unwrap();
                conn.execute("COMMIT").unwrap();
            },
        );
    }
}

fn bench_scan_and_aggregate() {
    for rows in [100usize, 1000] {
        let db = Database::new(schema(), IsolationLevel::ReadCommitted);
        db.seed(
            "items",
            (0..rows as i64)
                .map(|i| vec![Value::Null, Value::Int(i % 10), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        let mut conn = db.connect();
        bench(&format!("scan/sum_predicate/{rows}"), 20, || {
            conn.query_i64(black_box("SELECT SUM(qty) FROM items WHERE bucket = 3"))
                .unwrap()
        });
    }
}

/// One autocommit insert per sample, each into a fresh, empty database.
fn bench_insert_throughput() {
    let fresh = || Database::new(schema(), IsolationLevel::ReadCommitted).connect();
    bench_with_setup("insert_autocommit", 20, fresh, |conn| {
        conn.execute(black_box("INSERT INTO items (bucket, qty) VALUES (1, 2)"))
            .unwrap()
    });
}

fn main() {
    bench_parser();
    bench_execution_per_isolation();
    bench_scan_and_aggregate();
    bench_insert_throughput();
}
