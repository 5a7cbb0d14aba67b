//! Aggregated metric read-out: [`MetricsReport`] and its JSON export.
//!
//! A report is a point-in-time merge of every registry shard — the
//! structure the harness prints alongside chaos/attack results and the
//! throughput bench embeds as the `contention` section of
//! `BENCH_throughput.json`. It is plain owned data; producing one never
//! perturbs the engine.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::HistogramSnapshot;
use crate::json::{document, field, Json};

/// Declares [`Counters`] and the registry's per-shard atomic bank from
/// one list of documented names, so the struct, its `+=`, the shard fold
/// and the JSON export cannot drift apart.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Monotonic event counters, aggregated across shards.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl std::ops::AddAssign for Counters {
            fn add_assign(&mut self, other: Counters) {
                $(self.$name += other.$name;)+
            }
        }

        impl Counters {
            /// Every counter as one JSON object, in declaration order.
            pub(crate) fn to_value(self) -> Json {
                Json::Obj(vec![$(field(stringify!($name), Json::Num(self.$name)),)+])
            }
        }

        /// One registry shard's bank of the same counters, bumped with
        /// relaxed atomics on the probe paths.
        #[derive(Debug, Default)]
        pub(crate) struct AtomicCounters {
            $(pub(crate) $name: AtomicU64,)+
        }

        impl AtomicCounters {
            /// The bank's current values.
            pub(crate) fn load(&self) -> Counters {
                Counters { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }
    };
}

counters! {
    /// Lock-table parks (a statement blocked on a conflicting holder).
    lock_waits,
    /// Parks that ended by exhausting the lock-wait timeout.
    lock_timeouts,
    /// Organic waits-for-cycle deadlocks detected.
    deadlocks,
    /// Faults the injector fired (counted after the deterministic
    /// decision).
    injected_faults,
    /// Single-statement re-issues by retry wrappers.
    statement_retries,
    /// Whole-transaction replays by retry wrappers.
    txn_replays,
    /// Retryable errors surfaced after the retry budget ran out.
    retries_gave_up,
    /// Statements that completed successfully.
    statements_ok,
    /// Statement-level failures (transaction survived).
    statements_failed,
    /// Statements whose failure rolled the whole transaction back.
    statements_aborted,
    /// Attempts that hit a lock conflict and were retried verbatim.
    blocked_attempts,
    /// Query-log entries appended.
    log_appends,
    /// Table scans routed through an equality index (candidate set came
    /// from an index probe instead of a full slot walk).
    index_hits,
    /// Predicated table scans that fell back to the full slot walk (no
    /// usable `col = literal` conjunct, column not index-backed, or the
    /// index path disabled).
    index_fallbacks,
    /// Commit records appended to the write-ahead log.
    wal_appends,
    /// WAL fsyncs issued (group commit amortizes many appends per fsync).
    wal_fsyncs,
    /// Bytes of framed commit records appended to the WAL.
    wal_bytes,
    /// Version-GC passes completed.
    gc_runs,
    /// Superseded row versions reclaimed by GC across all passes.
    gc_reclaimed,
    /// Network sessions the wire server accepted and mapped onto
    /// connections.
    net_accepted,
    /// Sockets refused by admission control (`ERR SERVER_BUSY`).
    net_rejected,
    /// Sockets parked in the admission queue before being admitted.
    net_queued,
    /// Server-side aborts triggered by a client vanishing mid-transaction
    /// (the disconnect path through normal rollback).
    net_disconnect_aborts,
    /// Protocol frames (request lines) the server parsed.
    net_frames,
    /// Malformed frames / protocol violations the server answered with
    /// `ERR PROTOCOL`.
    net_protocol_errors,
    /// Waits the wire server began that end on a timer: session reads
    /// armed with a timeout, and admission-retry naps while sockets are
    /// queued. Zero for an idle server with neither configured.
    net_timed_waits,
    /// Candidate fix sets the repair adviser evaluated statically.
    repair_candidates,
    /// Candidate fix sets that closed their finding without opening a
    /// new one.
    repair_closures,
    /// Repaired witness plans the adviser replayed against the engine.
    repair_replays,
}

/// Commit/abort counts for one isolation level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelMetrics {
    /// Display name of the level.
    pub level: String,
    /// Transactions committed at this level.
    pub commits: u64,
    /// Transactions rolled back at this level.
    pub aborts: u64,
}

impl LevelMetrics {
    /// Fraction of transactions at this level that aborted.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

/// Point-in-time aggregate of everything a registry recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Whether the registry was enabled when the report was taken (a
    /// disabled registry yields an all-zero report).
    pub enabled: bool,
    /// Per-statement latency (completed attempts only).
    pub statements: HistogramSnapshot,
    /// Per-transaction latency, begin → commit/abort.
    pub transactions: HistogramSnapshot,
    /// Lock-table park durations.
    pub lock_waits: HistogramSnapshot,
    /// Storage-latch acquisition durations.
    pub latches: HistogramSnapshot,
    /// Harness task / request latency (the watchdog's measurement path).
    pub tasks: HistogramSnapshot,
    /// Retry backoff sleeps.
    pub backoff: HistogramSnapshot,
    /// Group-commit batch sizes: each sample is the number of commit
    /// records one WAL fsync made durable (raw counts, not durations —
    /// read the `*_ns` fields as plain numbers).
    pub group_commit: HistogramSnapshot,
    /// Admission-queue depth sampled at each enqueue (raw counts, not
    /// durations — read the `*_ns` fields as plain numbers).
    pub net_queue_depth: HistogramSnapshot,
    /// Event counters (lock waits, faults, retries, statement outcomes).
    pub counters: Counters,
    /// Per-isolation-level commit/abort rows.
    pub by_level: Vec<LevelMetrics>,
    /// Highest commit timestamp observed (the engine's commit clock).
    pub commit_clock: u64,
    /// Sessions parked on the lock table right now.
    pub lock_waiters: i64,
    /// High-water mark of simultaneous lock-table waiters.
    pub lock_waiters_peak: u64,
    /// Sessions acquiring a storage latch right now.
    pub latch_waiters: i64,
    /// High-water mark of simultaneous latch acquirers.
    pub latch_waiters_peak: u64,
    /// Oldest snapshot bound the most recent GC pass pruned against.
    pub gc_oldest_snapshot: u64,
    /// Longest version chain any GC pass observed (high-water).
    pub gc_chain_peak: u64,
    /// Network sessions currently open on the wire server.
    pub net_sessions: i64,
    /// High-water mark of simultaneous network sessions.
    pub net_sessions_peak: u64,
}

impl MetricsReport {
    /// Transactions finished (commits + aborts) across all levels.
    pub fn transactions_finished(&self) -> u64 {
        self.by_level.iter().map(|l| l.commits + l.aborts).sum()
    }

    /// Overall abort rate across all levels.
    pub fn abort_rate(&self) -> f64 {
        let total = self.transactions_finished();
        if total == 0 {
            0.0
        } else {
            let aborts: u64 = self.by_level.iter().map(|l| l.aborts).sum();
            aborts as f64 / total as f64
        }
    }

    /// Whether any contention signal (lock waits, timeouts, deadlocks) was
    /// recorded.
    pub fn saw_contention(&self) -> bool {
        self.counters.lock_waits > 0
            || self.counters.lock_timeouts > 0
            || self.counters.deadlocks > 0
            || self.counters.blocked_attempts > 0
    }

    /// Fold in the report of another registry, e.g. one database per
    /// isolation level reported as one run: counters and histograms add,
    /// per-level rows add by level name, and gauges keep the larger
    /// value.
    pub fn merge(&mut self, other: &MetricsReport) {
        self.enabled |= other.enabled;
        for (mine, theirs) in [
            (&mut self.statements, &other.statements),
            (&mut self.transactions, &other.transactions),
            (&mut self.lock_waits, &other.lock_waits),
            (&mut self.latches, &other.latches),
            (&mut self.tasks, &other.tasks),
            (&mut self.backoff, &other.backoff),
            (&mut self.group_commit, &other.group_commit),
            (&mut self.net_queue_depth, &other.net_queue_depth),
        ] {
            mine.merge(theirs);
        }
        self.counters += other.counters;
        for row in &other.by_level {
            match self.by_level.iter_mut().find(|l| l.level == row.level) {
                Some(mine) => {
                    mine.commits += row.commits;
                    mine.aborts += row.aborts;
                }
                None => self.by_level.push(row.clone()),
            }
        }
        self.commit_clock = self.commit_clock.max(other.commit_clock);
        self.lock_waiters = self.lock_waiters.max(other.lock_waiters);
        self.lock_waiters_peak = self.lock_waiters_peak.max(other.lock_waiters_peak);
        self.latch_waiters = self.latch_waiters.max(other.latch_waiters);
        self.latch_waiters_peak = self.latch_waiters_peak.max(other.latch_waiters_peak);
        self.gc_oldest_snapshot = self.gc_oldest_snapshot.max(other.gc_oldest_snapshot);
        self.gc_chain_peak = self.gc_chain_peak.max(other.gc_chain_peak);
        self.net_sessions = self.net_sessions.max(other.net_sessions);
        self.net_sessions_peak = self.net_sessions_peak.max(other.net_sessions_peak);
    }

    /// Serialize the whole report as a `"metrics"` document.
    pub fn to_json(&self) -> String {
        document("metrics", self.fields())
    }

    /// The report as a JSON value, for nesting inside another artifact.
    pub fn to_value(&self) -> Json {
        Json::Obj(self.fields())
    }

    fn fields(&self) -> Vec<(String, Json)> {
        // Signed gauges are never negative in a settled report; `Fixed`
        // with no places prints them as integers.
        let gauge = |g: i64| Json::Fixed(g as f64, 0);
        let by_level = self.by_level.iter().map(|l| {
            Json::Obj(vec![
                field("level", Json::str(&l.level)),
                field("commits", Json::Num(l.commits)),
                field("aborts", Json::Num(l.aborts)),
                field("abort_rate", Json::Fixed(l.abort_rate(), 4)),
            ])
        });
        vec![
            field("enabled", Json::Bool(self.enabled)),
            field("commit_clock", Json::Num(self.commit_clock)),
            field("lock_waiters", gauge(self.lock_waiters)),
            field("lock_waiters_peak", Json::Num(self.lock_waiters_peak)),
            field("latch_waiters", gauge(self.latch_waiters)),
            field("latch_waiters_peak", Json::Num(self.latch_waiters_peak)),
            field("gc_oldest_snapshot", Json::Num(self.gc_oldest_snapshot)),
            field("gc_chain_peak", Json::Num(self.gc_chain_peak)),
            field("net_sessions", gauge(self.net_sessions)),
            field("net_sessions_peak", Json::Num(self.net_sessions_peak)),
            field("counters", self.counters.to_value()),
            field("by_level", Json::Arr(by_level.collect())),
            field("statements", self.statements.to_value()),
            field("transactions", self.transactions.to_value()),
            field("lock_waits", self.lock_waits.to_value()),
            field("latches", self.latches.to_value()),
            field("tasks", self.tasks.to_value()),
            field("backoff", self.backoff.to_value()),
            field("group_commit", self.group_commit.to_value()),
            field("net_queue_depth", self.net_queue_depth.to_value()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_math() {
        let report = MetricsReport {
            by_level: vec![
                LevelMetrics {
                    level: "RC".into(),
                    commits: 9,
                    aborts: 1,
                },
                LevelMetrics {
                    level: "SER".into(),
                    commits: 0,
                    aborts: 10,
                },
            ],
            ..MetricsReport::default()
        };
        assert_eq!(report.transactions_finished(), 20);
        assert!((report.abort_rate() - 0.55).abs() < 1e-9);
        assert!((report.by_level[0].abort_rate() - 0.1).abs() < 1e-9);
        assert_eq!(report.by_level[1].abort_rate(), 1.0);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = MetricsReport::default();
        assert_eq!(report.abort_rate(), 0.0);
        assert!(!report.saw_contention());
    }

    #[test]
    fn json_shape() {
        let report = MetricsReport {
            enabled: true,
            by_level: vec![LevelMetrics {
                level: "READ COMMITTED".into(),
                commits: 3,
                aborts: 1,
            }],
            ..MetricsReport::default()
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"kind\": \"metrics\""));
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"lock_waits\":"));
        assert!(json.contains("\"READ COMMITTED\""));
        assert!(json.contains("\"abort_rate\": 0.2500"));
        assert!(json.contains("\"p99_ns\":"));
        // Every opening brace closes (cheap balance check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
