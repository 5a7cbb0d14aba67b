//! Deterministic fault injection.
//!
//! A [`FaultInjector`] lives inside each [`crate::Database`] and decides,
//! per statement, whether to inject a transient failure: a deadlock-victim
//! abort, a spurious Snapshot-Isolation write conflict, a lock-wait
//! timeout, or a dropped connection. It also exposes a latency channel the
//! harness wrappers draw per-statement delays from.
//!
//! Determinism is the design center. Decisions are **not** drawn from a
//! shared RNG stream (whose draw order would depend on thread
//! interleaving) but computed as a pure hash of
//! `(seed, channel, session, per-session statement counter)`. As long as
//! each session issues the same statement sequence — guaranteed under the
//! deterministic scheduler and under serial chaos runs — the injected
//! fault sequence is bit-for-bit identical run to run, regardless of how
//! threads interleave. The fault channel and the latency channel use
//! distinct salts, so enabling latency jitter never perturbs which
//! statements fault.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use acidrain_obs::Obs;

use crate::sync;

/// What kinds of faults to inject, with what probabilities.
///
/// Probabilities are per *statement attempt* and checked in the order
/// deadlock → write conflict → lock timeout → connection drop against a
/// single uniform draw, so their sum must be ≤ 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for all fault and latency decisions.
    pub seed: u64,
    /// Probability of aborting a data statement as a deadlock victim.
    pub deadlock: f64,
    /// Probability of a spurious first-updater-wins serialization failure
    /// on a data statement.
    pub write_conflict: f64,
    /// Probability of an injected lock-wait timeout on a data statement.
    pub lock_timeout: f64,
    /// Probability of the server dropping the connection on any statement
    /// (including transaction control).
    pub connection_drop: f64,
    /// Upper bound of the per-statement latency jitter channel. `None`
    /// disables the channel (wrappers fall back to their fixed delays).
    pub max_latency: Option<Duration>,
    /// Optional kill switch: simulate a process crash the `at`-th time the
    /// durability layer passes the configured [`CrashPoint`]. Uses its own
    /// occurrence counter, so arming a crash never perturbs the fault or
    /// latency channels.
    pub crash: Option<CrashSpec>,
}

/// Where in the durability pipeline an injected crash fires. Each point
/// models a `kill -9` at a precise moment, and the WAL truncates its
/// on-disk state to exactly the bytes a real kill would have left durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Mid-append: the tail record reaches disk torn (half its bytes).
    WalAppend,
    /// In a group-commit flush, after the batch is handed to the OS but
    /// before `fsync` returns: the whole batch is lost.
    PreFsync,
    /// Immediately after a successful `fsync`: the batch is durable but the
    /// committing sessions never see the acknowledgement.
    PostFsync,
    /// Mid-checkpoint: a partial snapshot temp file is left behind; the
    /// previous snapshot and the full WAL remain intact.
    MidCheckpoint,
}

impl CrashPoint {
    /// Stable lowercase name (used in error messages and test output).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalAppend => "wal-append",
            CrashPoint::PreFsync => "pre-fsync",
            CrashPoint::PostFsync => "post-fsync",
            CrashPoint::MidCheckpoint => "mid-checkpoint",
        }
    }

    /// Every crash point, for exhaustive kill-and-recover sweeps.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::WalAppend,
        CrashPoint::PreFsync,
        CrashPoint::PostFsync,
        CrashPoint::MidCheckpoint,
    ];
}

/// A seeded crash instruction: die the `at`-th time `point` is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The durability-pipeline location to die at.
    pub point: CrashPoint,
    /// 1-based occurrence count of `point` at which the crash fires.
    pub at: u64,
}

impl CrashSpec {
    /// Crash at the `at`-th occurrence of `point` (`at` is clamped to ≥ 1).
    pub fn new(point: CrashPoint, at: u64) -> Self {
        CrashSpec {
            point,
            at: at.max(1),
        }
    }

    /// Derive the occurrence index from a seed: crashes at a deterministic
    /// position in `1..=within`, different per seed and per point.
    pub fn seeded(point: CrashPoint, seed: u64, within: u64) -> Self {
        let span = within.max(1);
        let at = draw(seed, CRASH_SALT, point as u64, 0) % span + 1;
        CrashSpec { point, at }
    }
}

impl FaultConfig {
    /// A disabled injector (the default for every new database).
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            deadlock: 0.0,
            write_conflict: 0.0,
            lock_timeout: 0.0,
            connection_drop: 0.0,
            max_latency: None,
            crash: None,
        }
    }

    /// Start from a seed with every channel off.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::disabled()
        }
    }

    /// Set the per-statement deadlock-victim probability.
    pub fn with_deadlock(mut self, p: f64) -> Self {
        self.deadlock = p;
        self
    }

    /// Set the per-statement write-conflict probability.
    pub fn with_write_conflict(mut self, p: f64) -> Self {
        self.write_conflict = p;
        self
    }

    /// Set the per-statement lock-timeout probability.
    pub fn with_lock_timeout(mut self, p: f64) -> Self {
        self.lock_timeout = p;
        self
    }

    /// Set the per-statement connection-drop probability.
    pub fn with_connection_drop(mut self, p: f64) -> Self {
        self.connection_drop = p;
        self
    }

    /// Enable the latency channel with the given jitter ceiling.
    pub fn with_max_latency(mut self, max: Duration) -> Self {
        self.max_latency = Some(max);
        self
    }

    /// Arm a simulated crash (see [`CrashSpec`]).
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crash = Some(spec);
        self
    }

    /// Whether any fault channel (not counting latency) can fire.
    pub fn any_faults(&self) -> bool {
        self.deadlock > 0.0
            || self.write_conflict > 0.0
            || self.lock_timeout > 0.0
            || self.connection_drop > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// A fault the injector decided to fire for one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The statement is chosen as a deadlock victim.
    Deadlock,
    /// The statement hits a first-committer-wins write conflict.
    WriteConflict,
    /// The statement's lock wait times out.
    LockTimeout,
    /// The connection drops mid-statement.
    ConnectionDrop,
}

/// Counters for everything the injector has done (diagnostics and
/// reproducibility assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deadlock-victim faults fired.
    pub injected_deadlocks: u64,
    /// Write-conflict faults fired.
    pub injected_write_conflicts: u64,
    /// Lock-timeout faults fired.
    pub injected_lock_timeouts: u64,
    /// Connection-drop faults fired.
    pub injected_drops: u64,
    /// Statements the injector considered (fault channel draws).
    pub statements_seen: u64,
    /// Latency-channel draws.
    pub latency_draws: u64,
    /// Times the armed crash point was passed (other points don't count).
    pub crash_points_seen: u64,
    /// Simulated crashes fired (0 or 1; the kill switch is one-shot).
    pub crashes_fired: u64,
}

impl FaultStats {
    /// Total faults fired across every channel (latency excluded).
    pub fn total_injected(&self) -> u64 {
        self.injected_deadlocks
            + self.injected_write_conflicts
            + self.injected_lock_timeouts
            + self.injected_drops
    }
}

const FAULT_SALT: u64 = 0xF0A7_1D3E_5C2B_9A17;
const LATENCY_SALT: u64 = 0x1A7E_4CC9_D5B3_02F1;
const CRASH_SALT: u64 = 0xC4A5_8FD1_7E60_B329;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pure decision hash: independent draws per (seed, salt, session, n).
fn draw(seed: u64, salt: u64, session: u64, n: u64) -> u64 {
    splitmix64(splitmix64(seed ^ salt).wrapping_add(splitmix64(session).rotate_left(17)) ^ n)
}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-database fault injector. Decisions are a pure function of
/// (seed, session, per-session counter), so they are independent of thread
/// interleaving; the mutable state is just the counters and stats.
#[derive(Debug, Default)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Per-session fault-channel statement counters.
    fault_counters: HashMap<u64, u64>,
    /// Per-session latency-channel counters (separate stream).
    latency_counters: HashMap<u64, u64>,
    /// Occurrences of the armed crash point (its own stream: arming a
    /// crash never perturbs fault or latency decisions).
    crash_counter: u64,
    /// One-shot latch: set once the crash has fired.
    crashed: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector from a configuration, with zeroed counters.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            ..FaultInjector::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Replace the configuration and reset all counters and stats.
    pub fn reconfigure(&mut self, config: FaultConfig) {
        *self = FaultInjector::new(config);
    }

    /// Counters for everything fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the latency channel is configured.
    pub fn latency_enabled(&self) -> bool {
        self.config.max_latency.is_some()
    }

    /// Decide the fault (if any) for the next statement of `session`.
    /// `data_statement` gates the transaction-scoped fault kinds: only a
    /// data statement can be a deadlock victim, hit a write conflict, or
    /// time out on a lock; a connection drop can hit anything.
    pub fn next_fault(&mut self, session: u64, data_statement: bool) -> Option<InjectedFault> {
        if !self.config.any_faults() {
            return None;
        }
        let n = self.fault_counters.entry(session).or_insert(0);
        let roll = unit_f64(draw(self.config.seed, FAULT_SALT, session, *n));
        *n += 1;
        self.stats.statements_seen += 1;

        let c = &self.config;
        let mut threshold = c.deadlock;
        if data_statement && roll < threshold {
            self.stats.injected_deadlocks += 1;
            return Some(InjectedFault::Deadlock);
        }
        threshold += c.write_conflict;
        if data_statement && roll < threshold {
            self.stats.injected_write_conflicts += 1;
            return Some(InjectedFault::WriteConflict);
        }
        threshold += c.lock_timeout;
        if data_statement && roll < threshold {
            self.stats.injected_lock_timeouts += 1;
            return Some(InjectedFault::LockTimeout);
        }
        // The drop band sits above the transaction-scoped bands; a
        // non-data statement skips those bands rather than absorbing them.
        if roll >= threshold && roll < threshold + c.connection_drop {
            self.stats.injected_drops += 1;
            return Some(InjectedFault::ConnectionDrop);
        }
        None
    }

    /// Report that the durability layer reached `point`; returns true when
    /// the armed crash fires there (one-shot). Points other than the armed
    /// one consume nothing, so adding new crash points to the pipeline
    /// cannot shift existing crash positions.
    pub fn next_crash(&mut self, point: CrashPoint) -> bool {
        let Some(spec) = self.config.crash else {
            return false;
        };
        if spec.point != point || self.crashed {
            return false;
        }
        self.crash_counter += 1;
        self.stats.crash_points_seen += 1;
        if self.crash_counter == spec.at {
            self.crashed = true;
            self.stats.crashes_fired += 1;
            true
        } else {
            false
        }
    }

    /// Draw from the latency channel: `base` plus deterministic jitter in
    /// `[0, max_latency)`. With the channel disabled, returns `base`
    /// unchanged and consumes nothing.
    pub fn draw_latency(&mut self, session: u64, base: Duration) -> Duration {
        let Some(max) = self.config.max_latency else {
            return base;
        };
        let n = self.latency_counters.entry(session).or_insert(0);
        let roll = unit_f64(draw(self.config.seed, LATENCY_SALT, session, *n));
        *n += 1;
        self.stats.latency_draws += 1;
        base + max.mul_f64(roll)
    }
}

/// Concurrency wrapper around [`FaultInjector`]: the injector's counters
/// sit behind a dedicated mutex, with lock-free `AtomicBool` fast paths so
/// the (common) fully disabled configuration adds no synchronization to
/// statement execution at all.
#[derive(Debug, Default)]
pub struct FaultHandle {
    any_faults: AtomicBool,
    latency: AtomicBool,
    crash_armed: AtomicBool,
    inner: Mutex<FaultInjector>,
    /// Observability handle. Injected faults are counted strictly *after*
    /// the pure-hash decision, so enabling metrics cannot perturb which
    /// statements fault (chaos digests stay bit-for-bit identical).
    obs: Obs,
}

impl FaultHandle {
    /// A fault handle that reports injected faults to `obs` (the owning
    /// database's registry).
    pub fn with_obs(obs: Obs) -> Self {
        FaultHandle {
            obs,
            ..Self::default()
        }
    }

    /// Replace the configuration, resetting all counters and stats.
    pub fn reconfigure(&self, config: FaultConfig) {
        let mut inner = sync::lock(&self.inner);
        inner.reconfigure(config);
        self.any_faults
            .store(inner.config().any_faults(), Ordering::Release);
        self.latency
            .store(inner.latency_enabled(), Ordering::Release);
        self.crash_armed
            .store(inner.config().crash.is_some(), Ordering::Release);
    }

    /// Counters for everything fired so far.
    pub fn stats(&self) -> FaultStats {
        sync::lock(&self.inner).stats()
    }

    /// Whether the latency channel is configured (lock-free).
    pub fn latency_enabled(&self) -> bool {
        self.latency.load(Ordering::Acquire)
    }

    /// See [`FaultInjector::next_fault`]; no-ops without locking when no
    /// fault channel is configured.
    pub fn next_fault(&self, session: u64, data_statement: bool) -> Option<InjectedFault> {
        if !self.any_faults.load(Ordering::Acquire) {
            return None;
        }
        let fault = sync::lock(&self.inner).next_fault(session, data_statement);
        if fault.is_some() {
            self.obs.injected_fault(session);
        }
        fault
    }

    /// See [`FaultInjector::next_crash`]; no-ops without locking when no
    /// crash is armed (the common case, so the durability hot path pays
    /// one relaxed-ish atomic load per crash point).
    pub fn next_crash(&self, point: CrashPoint) -> bool {
        if !self.crash_armed.load(Ordering::Acquire) {
            return false;
        }
        sync::lock(&self.inner).next_crash(point)
    }

    /// See [`FaultInjector::draw_latency`]; returns `base` without locking
    /// when the latency channel is off.
    pub fn draw_latency(&self, session: u64, base: Duration) -> Duration {
        if !self.latency.load(Ordering::Acquire) {
            return base;
        }
        sync::lock(&self.inner).draw_latency(session, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::disabled());
        for s in 0..4 {
            for _ in 0..100 {
                assert_eq!(inj.next_fault(s, true), None);
            }
        }
        assert_eq!(inj.stats().statements_seen, 0);
        assert_eq!(
            inj.draw_latency(1, Duration::from_millis(5)),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn fault_sequence_is_deterministic_per_seed() {
        let config = FaultConfig::seeded(42)
            .with_deadlock(0.2)
            .with_write_conflict(0.1)
            .with_connection_drop(0.05);
        let mut a = FaultInjector::new(config.clone());
        let mut b = FaultInjector::new(config);
        let seq_a: Vec<_> = (0..200).map(|i| a.next_fault(i % 3, true)).collect();
        let seq_b: Vec<_> = (0..200).map(|i| b.next_fault(i % 3, true)).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total_injected() > 0);

        let mut c = FaultInjector::new(FaultConfig::seeded(43).with_deadlock(0.2));
        let seq_c: Vec<_> = (0..200).map(|i| c.next_fault(i % 3, true)).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn decisions_are_independent_of_interleaving() {
        // Same per-session statement sequences drawn in different global
        // orders yield identical per-session fault sequences.
        let config = FaultConfig::seeded(7).with_deadlock(0.3);
        let mut forward = FaultInjector::new(config.clone());
        let mut seq_fwd: Vec<Vec<Option<InjectedFault>>> = vec![Vec::new(); 3];
        for i in 0..60 {
            let s = i % 3;
            seq_fwd[s as usize].push(forward.next_fault(s, true));
        }
        let mut grouped = FaultInjector::new(config);
        let mut seq_grp: Vec<Vec<Option<InjectedFault>>> = vec![Vec::new(); 3];
        for s in 0..3u64 {
            for _ in 0..20 {
                seq_grp[s as usize].push(grouped.next_fault(s, true));
            }
        }
        assert_eq!(seq_fwd, seq_grp);
    }

    #[test]
    fn control_statements_only_see_drops() {
        let config = FaultConfig::seeded(1)
            .with_deadlock(0.9)
            .with_connection_drop(0.05);
        let mut inj = FaultInjector::new(config);
        for _ in 0..300 {
            let fault = inj.next_fault(1, false);
            assert!(
                fault.is_none() || fault == Some(InjectedFault::ConnectionDrop),
                "control statement got {fault:?}"
            );
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let mut inj = FaultInjector::new(FaultConfig::seeded(99).with_deadlock(0.3));
        let hits = (0..2000)
            .filter(|_| inj.next_fault(5, true).is_some())
            .count();
        let rate = hits as f64 / 2000.0;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn crash_fires_once_at_configured_occurrence() {
        let spec = CrashSpec::new(CrashPoint::PreFsync, 3);
        let mut inj = FaultInjector::new(FaultConfig::seeded(5).with_crash(spec));
        // Other points never trigger and never consume the counter.
        assert!(!inj.next_crash(CrashPoint::WalAppend));
        assert!(!inj.next_crash(CrashPoint::PreFsync));
        assert!(!inj.next_crash(CrashPoint::MidCheckpoint));
        assert!(!inj.next_crash(CrashPoint::PreFsync));
        assert!(inj.next_crash(CrashPoint::PreFsync), "3rd pass must kill");
        assert!(!inj.next_crash(CrashPoint::PreFsync), "one-shot");
        assert_eq!(inj.stats().crashes_fired, 1);
        assert_eq!(inj.stats().crash_points_seen, 3);
    }

    #[test]
    fn crash_channel_does_not_perturb_faults() {
        let base = FaultConfig::seeded(21).with_deadlock(0.3);
        let armed = base
            .clone()
            .with_crash(CrashSpec::seeded(CrashPoint::WalAppend, 21, 10));
        let mut a = FaultInjector::new(base);
        let mut b = FaultInjector::new(armed);
        for i in 0..100 {
            b.next_crash(CrashPoint::WalAppend);
            assert_eq!(a.next_fault(1, true), b.next_fault(1, true), "at {i}");
        }
    }

    #[test]
    fn seeded_crash_spec_is_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for point in CrashPoint::ALL {
                let s1 = CrashSpec::seeded(point, seed, 8);
                let s2 = CrashSpec::seeded(point, seed, 8);
                assert_eq!(s1, s2);
                assert!((1..=8).contains(&s1.at), "at {}", s1.at);
            }
        }
        assert_eq!(CrashSpec::new(CrashPoint::WalAppend, 0).at, 1);
    }

    #[test]
    fn latency_channel_is_separate_and_bounded() {
        let config = FaultConfig::seeded(11)
            .with_deadlock(0.5)
            .with_max_latency(Duration::from_millis(10));
        let mut with_latency = FaultInjector::new(config.clone());
        let mut without = FaultInjector::new(FaultConfig {
            max_latency: None,
            ..config
        });
        for i in 0..100 {
            let d = with_latency.draw_latency(2, Duration::from_millis(1));
            assert!(d >= Duration::from_millis(1) && d < Duration::from_millis(11));
            // Latency draws must not perturb fault decisions.
            assert_eq!(
                with_latency.next_fault(2, true),
                without.next_fault(2, true),
                "at {i}"
            );
        }
    }
}
