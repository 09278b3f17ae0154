//! Lock-free observability: counters, log-linear histograms, and per-thread
//! recorders merged only at scrape time.
//!
//! U-Filter's core claim is that checking is *lightweight* — so the
//! instrumentation proving it must itself be lightweight. This module is
//! zero-dependency (std only) and contention-free on the hot path:
//!
//! * [`Histogram`] — an HDR-style **log-linear fixed-bucket** histogram
//!   over `u64` values (nanoseconds or counts). Values below 2⁴ get exact
//!   buckets; above that, each power-of-two octave splits into 2⁴ linear
//!   sub-buckets, bounding the relative error of any recorded value to
//!   ≤ 1/16 ≈ 6.25 % while covering the full `0..=u64::MAX` range in 976
//!   buckets. Recording is one index computation plus four `Relaxed`
//!   atomic adds — no allocation, no lock, no branch on contended state.
//! * [`Recorder`] — one per thread (created lazily, thread-local), holding
//!   every histogram family. Worker threads only ever touch their own
//!   recorder, so cache lines are never shared between writers; a global
//!   registry keeps the recorders alive (a dead thread's counts fold into
//!   a retired aggregate) and [`snapshot()`] merges them all at scrape
//!   time — the `METRICS` wire verb, the bench harness, nobody else.
//! * [`Stage`] / [`Verb`] — the span taxonomy: the check pipeline's eight
//!   stages (parse → … → probe-SQL) and the service's request verbs.
//!
//! Instrumentation call sites use the [`clock()`] / `*_elapsed` pair:
//! `clock()` returns `None` when metrics are disabled ([`set_enabled`]),
//! so a disabled build skips even the `Instant::now()` syscall.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets, so any recorded value is off by at most `2^-SUB_BITS` of
/// itself (6.25 %).
pub const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: `SUB` exact low buckets plus `(64 - SUB_BITS)`
/// octaves of `SUB` sub-buckets each — covers all of `u64`.
pub const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// The bucket a value lands in (total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (msb - u64::from(SUB_BITS))) & (SUB - 1);
    (SUB + (msb - u64::from(SUB_BITS)) * SUB + sub) as usize
}

/// The smallest value that lands in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let msb = (i - SUB) / SUB + u64::from(SUB_BITS);
    let sub = (i - SUB) % SUB;
    (1u64 << msb) | (sub << (msb - u64::from(SUB_BITS)))
}

/// The largest value that lands in bucket `i` (the value quantile
/// extraction reports, so quantiles are conservative upper bounds).
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

/// A lock-free log-linear histogram (see the [module docs](self)).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (the only allocation this type ever performs).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Allocation-free, lock-free: one bucket index
    /// computation and four `Relaxed` atomic RMWs.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy (scrape path; allocates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A mergeable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { counts: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping, like the live counter).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold `other` into `self`. Merging is associative and commutative
    /// (bucket-wise addition), so per-thread snapshots can be combined in
    /// any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` value — exact to one bucket, i.e.
    /// within 6.25 % of the true order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// The check pipeline's span taxonomy (one histogram family per stage,
/// labelled `stage="<name>"` in the Prometheus exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Update-text parsing (`ufilter_xquery::parse_update`).
    Parse,
    /// View compilation (parse + ASG construction + STAR marking) on a
    /// compile-cache miss.
    Compile,
    /// Relevance-index routing of one update (trie walk + posting merge).
    Route,
    /// Step 1: update validation against the view ASG.
    Validate,
    /// Step 1½: conservative aggregate/Distinct classification.
    NonInjective,
    /// Step 1½ refinement: the static query-update independence analysis,
    /// run only on updates the blunt non-injective check rejected.
    Independence,
    /// Step 2: the constant-time STAR check.
    Star,
    /// Translation-plan construction for a surviving update.
    Translate,
    /// Step 3's context-probe SQL execution (cache misses only — hits are
    /// counted by the probe cache, not timed here).
    ProbeSql,
}

impl Stage {
    /// Every stage, in pipeline order (the exposition emits them in this
    /// order).
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::Compile,
        Stage::Route,
        Stage::Validate,
        Stage::NonInjective,
        Stage::Independence,
        Stage::Star,
        Stage::Translate,
        Stage::ProbeSql,
    ];

    /// The stable `stage=` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Compile => "compile",
            Stage::Route => "route",
            Stage::Validate => "validate",
            Stage::NonInjective => "non_injective",
            Stage::Independence => "independence",
            Stage::Star => "star",
            Stage::Translate => "translate",
            Stage::ProbeSql => "probe_sql",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("stage in ALL")
    }
}

/// Request-verb taxonomy for per-verb latency (labelled `verb="<name>"`).
/// The server's request handler records every verb. `SHUTDOWN` is not
/// recorded — it is terminal and fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `CHECK`.
    Check,
    /// `BATCH`.
    Batch,
    /// `CHECKALL`.
    CheckAll,
    /// `BATCHALL`.
    BatchAll,
    /// `CATALOG ADD`.
    CatalogAdd,
    /// `CATALOG DROP`.
    CatalogDrop,
    /// `CATALOG LIST`.
    CatalogList,
    /// `CATALOG VERIFY`.
    CatalogVerify,
    /// `STATS`.
    Stats,
    /// `METRICS`.
    Metrics,
    /// `PING`.
    Ping,
}

impl Verb {
    /// Every verb, wire order.
    pub const ALL: [Verb; 11] = [
        Verb::Check,
        Verb::Batch,
        Verb::CheckAll,
        Verb::BatchAll,
        Verb::CatalogAdd,
        Verb::CatalogDrop,
        Verb::CatalogList,
        Verb::CatalogVerify,
        Verb::Stats,
        Verb::Metrics,
        Verb::Ping,
    ];

    /// The stable `verb=` label value.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Check => "check",
            Verb::Batch => "batch",
            Verb::CheckAll => "checkall",
            Verb::BatchAll => "batchall",
            Verb::CatalogAdd => "catalog_add",
            Verb::CatalogDrop => "catalog_drop",
            Verb::CatalogList => "catalog_list",
            Verb::CatalogVerify => "catalog_verify",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Ping => "ping",
        }
    }

    fn index(self) -> usize {
        Verb::ALL.iter().position(|v| *v == self).expect("verb in ALL")
    }
}

/// Which side of the catalog lock a hold-time sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// The read lock (the check hot path).
    Read,
    /// The write lock (catalog mutation / guarded DDL).
    Write,
}

/// Which durable-store operation a latency sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistOp {
    /// Appending encoded record frames to the log.
    Append,
    /// The `fsync` making them durable.
    Fsync,
}

/// One thread's private histogram set. Never shared between writer
/// threads; the scrape path reads it with `Relaxed` loads.
#[derive(Debug)]
pub struct Recorder {
    stages: Vec<Histogram>,
    verbs: Vec<Histogram>,
    queue_wait: Histogram,
    lock_read: Histogram,
    lock_write: Histogram,
    persist_append: Histogram,
    persist_fsync: Histogram,
    route_candidates: Histogram,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            stages: (0..Stage::ALL.len()).map(|_| Histogram::new()).collect(),
            verbs: (0..Verb::ALL.len()).map(|_| Histogram::new()).collect(),
            queue_wait: Histogram::new(),
            lock_read: Histogram::new(),
            lock_write: Histogram::new(),
            persist_append: Histogram::new(),
            persist_fsync: Histogram::new(),
            route_candidates: Histogram::new(),
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: self.stages.iter().map(Histogram::snapshot).collect(),
            verbs: self.verbs.iter().map(Histogram::snapshot).collect(),
            queue_wait: self.queue_wait.snapshot(),
            lock_read: self.lock_read.snapshot(),
            lock_write: self.lock_write.snapshot(),
            persist_append: self.persist_append.snapshot(),
            persist_fsync: self.persist_fsync.snapshot(),
            route_candidates: self.route_candidates.snapshot(),
        }
    }
}

/// Every histogram family, merged across all thread recorders — what the
/// `METRICS` verb renders.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    stages: Vec<HistogramSnapshot>,
    verbs: Vec<HistogramSnapshot>,
    /// Time a check request waited for a free `ufilter-service` pool slot.
    pub queue_wait: HistogramSnapshot,
    /// Catalog read-lock acquire + hold time on the check path.
    pub lock_read: HistogramSnapshot,
    /// Catalog write-lock acquire + hold time (mutations, guarded DDL).
    pub lock_write: HistogramSnapshot,
    /// Durable-log append (write) latency.
    pub persist_append: HistogramSnapshot,
    /// Durable-log fsync latency.
    pub persist_fsync: HistogramSnapshot,
    /// Candidate-set size per routed fan-out update (a count distribution,
    /// not a duration).
    pub route_candidates: HistogramSnapshot,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot::empty()
    }
}

impl MetricsSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            stages: (0..Stage::ALL.len()).map(|_| HistogramSnapshot::empty()).collect(),
            verbs: (0..Verb::ALL.len()).map(|_| HistogramSnapshot::empty()).collect(),
            queue_wait: HistogramSnapshot::empty(),
            lock_read: HistogramSnapshot::empty(),
            lock_write: HistogramSnapshot::empty(),
            persist_append: HistogramSnapshot::empty(),
            persist_fsync: HistogramSnapshot::empty(),
            route_candidates: HistogramSnapshot::empty(),
        }
    }

    /// One stage's span histogram.
    pub fn stage(&self, s: Stage) -> &HistogramSnapshot {
        &self.stages[s.index()]
    }

    /// One verb's request-latency histogram.
    pub fn verb(&self, v: Verb) -> &HistogramSnapshot {
        &self.verbs[v.index()]
    }

    /// Fold `other` in (bucket-wise; associative and commutative).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        for (a, b) in self.verbs.iter_mut().zip(&other.verbs) {
            a.merge(b);
        }
        self.queue_wait.merge(&other.queue_wait);
        self.lock_read.merge(&other.lock_read);
        self.lock_write.merge(&other.lock_write);
        self.persist_append.merge(&other.persist_append);
        self.persist_fsync.merge(&other.persist_fsync);
        self.route_candidates.merge(&other.route_candidates);
    }
}

/// Live recorders plus the folded counts of threads that have exited
/// (their recorders are merged here once, at thread death, so the registry
/// does not grow with connection churn).
struct Registry {
    live: Vec<Arc<Recorder>>,
    retired: MetricsSnapshot,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry { live: Vec::new(), retired: MetricsSnapshot::empty() })
    })
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    // The registry only ever sees panic-free merge/push code; recover from
    // a poisoned lock rather than cascading the panic into metrics scrapes.
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Owns this thread's registry membership: registers at first use, folds
/// the recorder into the retired aggregate at thread exit.
struct ThreadSlot {
    rec: Arc<Recorder>,
}

impl ThreadSlot {
    fn register() -> ThreadSlot {
        let rec = Arc::new(Recorder::new());
        lock_registry().live.push(Arc::clone(&rec));
        ThreadSlot { rec }
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        let mut reg = lock_registry();
        if let Some(i) = reg.live.iter().position(|r| Arc::ptr_eq(r, &self.rec)) {
            reg.live.swap_remove(i);
        }
        reg.retired.merge(&self.rec.snapshot());
    }
}

thread_local! {
    static LOCAL: ThreadSlot = ThreadSlot::register();
}

fn with_recorder(f: impl FnOnce(&Recorder)) {
    // try_with: recording from another thread-local's destructor (after
    // this slot is gone) silently drops the sample instead of panicking.
    let _ = LOCAL.try_with(|slot| f(&slot.rec));
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is on (default: on).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable/disable recording. Disabling makes [`clock`] return
/// `None`, so instrumented call sites skip even the clock read — the
/// overhead self-check compares exactly these two configurations.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Span start: `Some(Instant::now())`, or `None` when disabled.
pub fn clock() -> Option<Instant> {
    enabled().then(Instant::now)
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Record a pipeline-stage span started at [`clock()`].
pub fn stage_elapsed(stage: Stage, start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = elapsed_nanos(t);
        with_recorder(|r| r.stages[stage.index()].record(nanos));
    }
}

/// Record a request-verb latency span started at [`clock()`].
pub fn verb_elapsed(verb: Verb, start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = elapsed_nanos(t);
        with_recorder(|r| r.verbs[verb.index()].record(nanos));
    }
}

/// Record a wait for a check slot started with [`clock()`].
pub fn queue_wait_elapsed(start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = elapsed_nanos(t);
        with_recorder(|r| r.queue_wait.record(nanos));
    }
}

/// Record a catalog-lock acquire + hold span started at [`clock()`].
pub fn lock_hold_elapsed(kind: LockKind, start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = elapsed_nanos(t);
        with_recorder(|r| match kind {
            LockKind::Read => r.lock_read.record(nanos),
            LockKind::Write => r.lock_write.record(nanos),
        });
    }
}

/// Record a durable-store operation span started at [`clock()`].
pub fn persist_elapsed(op: PersistOp, start: Option<Instant>) {
    if let Some(t) = start {
        let nanos = elapsed_nanos(t);
        with_recorder(|r| match op {
            PersistOp::Append => r.persist_append.record(nanos),
            PersistOp::Fsync => r.persist_fsync.record(nanos),
        });
    }
}

/// Record the candidate-set size of one routed fan-out update.
pub fn record_route_candidates(n: usize) {
    if enabled() {
        with_recorder(|r| r.route_candidates.record(n as u64));
    }
}

/// Merge every live thread recorder plus the retired aggregate into one
/// [`MetricsSnapshot`]. Scrape-time only: takes the registry lock, never
/// touched by recording paths.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let mut out = reg.retired.clone();
    for rec in &reg.live {
        out.merge(&rec.snapshot());
    }
    out
}

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique per-request trace id: a monotonic counter mixed
/// through SplitMix64 so ids are well-distributed in their hex rendering
/// but the sequence stays deterministic for a given request order.
pub fn next_trace_id() -> u64 {
    let mut z = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_monotone_and_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Lower bounds invert the index and stay ordered.
        let mut prev = None;
        for i in 0..BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "bucket {i} lower bound maps back");
            assert_eq!(bucket_index(bucket_upper(i)), i, "bucket {i} upper bound maps back");
            if let Some(p) = prev {
                assert!(lo > p, "bucket {i} not ordered");
            }
            prev = Some(lo);
        }
        // Values below 2^SUB_BITS are exact.
        for v in 0..SUB {
            assert_eq!(bucket_lower(bucket_index(v)), v);
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [17u64, 999, 1_000_000, 123_456_789_123, u64::MAX / 3] {
            let i = bucket_index(v);
            let width = bucket_upper(i) - bucket_lower(i);
            assert!(
                (width as f64) <= (bucket_lower(i) as f64) / 8.0,
                "bucket {i} too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_track_recorded_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1000);
        // The reported quantile's bucket equals the true order statistic's.
        assert_eq!(bucket_index(s.quantile(0.5)), bucket_index(500));
        assert_eq!(bucket_index(s.quantile(0.99)), bucket_index(990));
        assert_eq!(bucket_index(s.quantile(0.999)), bucket_index(1000));
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_merge_adds_and_commutes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1_000, u64::MAX] {
            a.record(v);
        }
        for v in [3u64, 700, 42] {
            b.record(v);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count(), 10);
        // Commutative.
        let mut other = sb.clone();
        other.merge(&sa);
        assert_eq!(merged.counts, other.counts);
    }

    #[test]
    fn thread_recorders_merge_at_scrape_even_after_thread_death() {
        let before = snapshot().stage(Stage::Star).count();
        let handle = std::thread::spawn(|| {
            let t = clock();
            stage_elapsed(Stage::Star, t);
        });
        handle.join().unwrap();
        assert!(snapshot().stage(Stage::Star).count() > before, "retired counts survive");
    }

    #[test]
    fn disabled_clock_records_nothing() {
        set_enabled(false);
        let t = clock();
        assert!(t.is_none());
        stage_elapsed(Stage::Parse, t); // no-op
        set_enabled(true);
        assert!(clock().is_some());
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero_soon() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }
}
