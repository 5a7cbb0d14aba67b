//! Aggregated metric read-out: [`MetricsReport`] and its JSON export.
//!
//! A report is a point-in-time merge of every registry shard — the
//! structure the harness prints alongside chaos/attack results and the
//! throughput bench embeds as the `contention` section of
//! `BENCH_throughput.json`. It is plain owned data; producing one never
//! perturbs the engine.

use crate::hist::HistogramSnapshot;
use crate::trace::json_escape;

/// Monotonic event counters, aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Lock-table parks (a statement blocked on a conflicting holder).
    pub lock_waits: u64,
    /// Parks that ended by exhausting the lock-wait timeout.
    pub lock_timeouts: u64,
    /// Organic waits-for-cycle deadlocks detected.
    pub deadlocks: u64,
    /// Faults the injector fired (counted after the deterministic
    /// decision).
    pub injected_faults: u64,
    /// Single-statement re-issues by retry wrappers.
    pub statement_retries: u64,
    /// Whole-transaction replays by retry wrappers.
    pub txn_replays: u64,
    /// Retryable errors surfaced after the retry budget ran out.
    pub retries_gave_up: u64,
    /// Statements that completed successfully.
    pub statements_ok: u64,
    /// Statement-level failures (transaction survived).
    pub statements_failed: u64,
    /// Statements whose failure rolled the whole transaction back.
    pub statements_aborted: u64,
    /// Attempts that hit a lock conflict and were retried verbatim.
    pub blocked_attempts: u64,
    /// Query-log entries appended.
    pub log_appends: u64,
    /// Table scans routed through an equality index (candidate set came
    /// from an index probe instead of a full slot walk).
    pub index_hits: u64,
    /// Predicated table scans that fell back to the full slot walk (no
    /// usable `col = literal` conjunct, column not index-backed, or the
    /// index path disabled).
    pub index_fallbacks: u64,
    /// Commit records appended to the write-ahead log.
    pub wal_appends: u64,
    /// WAL fsyncs issued (group commit amortizes many appends per fsync).
    pub wal_fsyncs: u64,
    /// Bytes of framed commit records appended to the WAL.
    pub wal_bytes: u64,
    /// Version-GC passes completed.
    pub gc_runs: u64,
    /// Superseded row versions reclaimed by GC across all passes.
    pub gc_reclaimed: u64,
    /// Network sessions the wire server accepted and mapped onto
    /// connections.
    pub net_accepted: u64,
    /// Sockets refused by admission control (`ERR SERVER_BUSY`).
    pub net_rejected: u64,
    /// Sockets parked in the admission queue before being admitted.
    pub net_queued: u64,
    /// Server-side aborts triggered by a client vanishing mid-transaction
    /// (the disconnect path through normal rollback).
    pub net_disconnect_aborts: u64,
    /// Protocol frames (request lines) the server parsed.
    pub net_frames: u64,
    /// Malformed frames / protocol violations the server answered with
    /// `ERR PROTOCOL`.
    pub net_protocol_errors: u64,
    /// Waits the wire server began that end on a timer: session reads
    /// armed with a timeout, and admission-retry naps while sockets are
    /// queued. Zero for an idle server with neither configured.
    pub net_timed_waits: u64,
    /// Candidate fix sets the repair adviser evaluated statically.
    pub repair_candidates: u64,
    /// Candidate fix sets that closed their finding without opening a
    /// new one.
    pub repair_closures: u64,
    /// Repaired witness plans the adviser replayed against the engine.
    pub repair_replays: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, other: Counters) {
        self.lock_waits += other.lock_waits;
        self.lock_timeouts += other.lock_timeouts;
        self.deadlocks += other.deadlocks;
        self.injected_faults += other.injected_faults;
        self.statement_retries += other.statement_retries;
        self.txn_replays += other.txn_replays;
        self.retries_gave_up += other.retries_gave_up;
        self.statements_ok += other.statements_ok;
        self.statements_failed += other.statements_failed;
        self.statements_aborted += other.statements_aborted;
        self.blocked_attempts += other.blocked_attempts;
        self.log_appends += other.log_appends;
        self.index_hits += other.index_hits;
        self.index_fallbacks += other.index_fallbacks;
        self.wal_appends += other.wal_appends;
        self.wal_fsyncs += other.wal_fsyncs;
        self.wal_bytes += other.wal_bytes;
        self.gc_runs += other.gc_runs;
        self.gc_reclaimed += other.gc_reclaimed;
        self.net_accepted += other.net_accepted;
        self.net_rejected += other.net_rejected;
        self.net_queued += other.net_queued;
        self.net_disconnect_aborts += other.net_disconnect_aborts;
        self.net_frames += other.net_frames;
        self.net_protocol_errors += other.net_protocol_errors;
        self.net_timed_waits += other.net_timed_waits;
        self.repair_candidates += other.repair_candidates;
        self.repair_closures += other.repair_closures;
        self.repair_replays += other.repair_replays;
    }
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

    /// Serialize the whole report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str(&format!(
            "  \"commit_clock\": {},\n  \"lock_waiters\": {},\n  \"lock_waiters_peak\": {},\n  \
             \"latch_waiters\": {},\n  \"latch_waiters_peak\": {},\n  \
             \"gc_oldest_snapshot\": {},\n  \"gc_chain_peak\": {},\n",
            self.commit_clock,
            self.lock_waiters,
            self.lock_waiters_peak,
            self.latch_waiters,
            self.latch_waiters_peak,
            self.gc_oldest_snapshot,
            self.gc_chain_peak,
        ));
        out.push_str(&format!(
            "  \"net_sessions\": {},\n  \"net_sessions_peak\": {},\n",
            self.net_sessions, self.net_sessions_peak,
        ));
        let c = &self.counters;
        out.push_str(&format!(
            "  \"counters\": {{\"lock_waits\": {}, \"lock_timeouts\": {}, \"deadlocks\": {}, \
             \"injected_faults\": {}, \"statement_retries\": {}, \"txn_replays\": {}, \
             \"retries_gave_up\": {}, \"statements_ok\": {}, \"statements_failed\": {}, \
             \"statements_aborted\": {}, \"blocked_attempts\": {}, \"log_appends\": {}, \
             \"index_hits\": {}, \"index_fallbacks\": {}, \"wal_appends\": {}, \
             \"wal_fsyncs\": {}, \"wal_bytes\": {}, \"gc_runs\": {}, \
             \"gc_reclaimed\": {}, \"net_accepted\": {}, \"net_rejected\": {}, \
             \"net_queued\": {}, \"net_disconnect_aborts\": {}, \"net_frames\": {}, \
             \"net_protocol_errors\": {}, \"net_timed_waits\": {}, \
             \"repair_candidates\": {}, \"repair_closures\": {}, \
             \"repair_replays\": {}}},\n",
            c.lock_waits,
            c.lock_timeouts,
            c.deadlocks,
            c.injected_faults,
            c.statement_retries,
            c.txn_replays,
            c.retries_gave_up,
            c.statements_ok,
            c.statements_failed,
            c.statements_aborted,
            c.blocked_attempts,
            c.log_appends,
            c.index_hits,
            c.index_fallbacks,
            c.wal_appends,
            c.wal_fsyncs,
            c.wal_bytes,
            c.gc_runs,
            c.gc_reclaimed,
            c.net_accepted,
            c.net_rejected,
            c.net_queued,
            c.net_disconnect_aborts,
            c.net_frames,
            c.net_protocol_errors,
            c.net_timed_waits,
            c.repair_candidates,
            c.repair_closures,
            c.repair_replays,
        ));
        out.push_str("  \"by_level\": [");
        for (i, l) in self.by_level.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"level\": \"{}\", \"commits\": {}, \"aborts\": {}, \"abort_rate\": {:.4}}}",
                json_escape(&l.level),
                l.commits,
                l.aborts,
                l.abort_rate(),
            ));
        }
        out.push_str("],\n");
        let hist = |name: &str, h: &HistogramSnapshot, last: bool| {
            format!(
                "  \"{name}\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
                h.count(),
                h.mean_nanos(),
                h.percentile_nanos(0.50),
                h.percentile_nanos(0.90),
                h.percentile_nanos(0.99),
                h.max_nanos,
                if last { "" } else { "," },
            )
        };
        out.push_str(&hist("statements", &self.statements, false));
        out.push_str(&hist("transactions", &self.transactions, false));
        out.push_str(&hist("lock_waits", &self.lock_waits, false));
        out.push_str(&hist("latches", &self.latches, false));
        out.push_str(&hist("tasks", &self.tasks, false));
        out.push_str(&hist("backoff", &self.backoff, false));
        out.push_str(&hist("group_commit", &self.group_commit, false));
        out.push_str(&hist("net_queue_depth", &self.net_queue_depth, true));
        out.push('}');
        out
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
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"lock_waits\":"));
        assert!(json.contains("\"READ COMMITTED\""));
        assert!(json.contains("\"abort_rate\": 0.2500"));
        assert!(json.contains("\"p99_ns\":"));
        // Every opening brace closes (cheap balance check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
