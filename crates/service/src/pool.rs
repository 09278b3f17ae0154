//! The worker-pool executor: N std threads fanning check requests over the
//! shared [`ShardedCatalog`], with deterministic **affinity routing** so
//! probe-cache reuse survives concurrency.
//!
//! Each worker owns a private [`Db`] clone and one long-lived
//! [`ProbeCache`]. Routing is by `hash(view, update text)` — every
//! occurrence of the same update against the same view lands on the same
//! worker, so repeat-heavy streams keep hitting that worker's warm cache
//! (and its materialized `TAB_…` tables stay fresh, because no other view's
//! probes thrash them). Plain per-view routing would cap the usable
//! parallelism at the number of registered views; hashing the update text
//! in keeps the affinity property *and* balances a skewed stream.
//!
//! The pool is check-only: workers never execute translations, so their
//! private databases stay byte-identical to the snapshot taken at pool
//! construction and cached probe results stay valid for the pool's
//! lifetime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ufilter_core::obs::{self, Stage, Verb};
use ufilter_core::{
    BatchItemReport, BatchReport, BatchStats, CheckReport, FanoutItem, FanoutReport, FanoutStats,
    ProbeCache, Route,
};
use ufilter_rdb::Db;
use ufilter_xquery::parse_update;

use crate::catalog::{affinity_hash, ShardedCatalog};

/// One routed unit of work: a slice of a stream plus the channel to send
/// the worker's partial report back on.
struct Job {
    items: Vec<(usize, String, String)>,
    reply: Sender<(Vec<BatchItemReport>, BatchStats)>,
    /// Dispatch time (None when metrics are disabled); the receiving worker
    /// records the queue wait.
    enqueued: Option<Instant>,
}

/// Monotonic counters the pool aggregates across workers (read by the
/// server's `STATS` command).
#[derive(Debug, Default)]
pub struct PoolStats {
    jobs: AtomicUsize,
    items: AtomicUsize,
    probe_hits: AtomicUsize,
    probe_misses: AtomicUsize,
    fanout_requests: AtomicUsize,
    fanout_candidates: AtomicUsize,
    fanout_pruned: AtomicUsize,
    fanout_fallbacks: AtomicUsize,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Jobs dispatched to workers.
    pub jobs: usize,
    /// Stream items checked.
    pub items: usize,
    /// Context probes answered from a worker's warm cache.
    pub probe_hits: usize,
    /// Context probes that had to scan.
    pub probe_misses: usize,
    /// `CHECKALL`/`BATCHALL` updates routed through the relevance index.
    pub fanout_requests: usize,
    /// Candidate (view, update) checks those requests dispatched.
    pub fanout_candidates: usize,
    /// Views the index pruned without running the pipeline.
    pub fanout_pruned: usize,
    /// Requests the index could not classify (checked against every view).
    pub fanout_fallbacks: usize,
}

impl PoolStats {
    fn record(&self, items: usize, stats: &BatchStats) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.probe_hits.fetch_add(stats.probe_hits, Ordering::Relaxed);
        self.probe_misses.fetch_add(stats.probe_misses, Ordering::Relaxed);
    }

    fn record_fanout(&self, stats: &FanoutStats) {
        self.fanout_requests.fetch_add(stats.fanout_requests, Ordering::Relaxed);
        self.fanout_candidates.fetch_add(stats.candidates, Ordering::Relaxed);
        self.fanout_pruned.fetch_add(stats.pruned, Ordering::Relaxed);
        self.fanout_fallbacks.fetch_add(stats.fallbacks, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            probe_hits: self.probe_hits.load(Ordering::Relaxed),
            probe_misses: self.probe_misses.load(Ordering::Relaxed),
            fanout_requests: self.fanout_requests.load(Ordering::Relaxed),
            fanout_candidates: self.fanout_candidates.load(Ordering::Relaxed),
            fanout_pruned: self.fanout_pruned.load(Ordering::Relaxed),
            fanout_fallbacks: self.fanout_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// The worker-pool executor. Construct once, share behind an `Arc`, call
/// [`check_stream`](CheckPool::check_stream) from any number of threads.
pub struct CheckPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
    catalog: Arc<ShardedCatalog>,
}

impl CheckPool {
    /// Spawn `workers` (at least 1) threads, each owning a clone of `db`
    /// and an empty probe cache, all sharing `catalog`.
    pub fn new(catalog: Arc<ShardedCatalog>, db: &Db, workers: usize) -> CheckPool {
        let workers = workers.max(1);
        let stats = Arc::new(PoolStats::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let catalog = Arc::clone(&catalog);
            let stats = Arc::clone(&stats);
            let mut db = db.clone();
            handles.push(std::thread::spawn(move || worker_main(catalog, &mut db, rx, stats)));
            senders.push(tx);
        }
        CheckPool { senders, handles, stats, catalog }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The worker a `(view, update text)` pair is routed to.
    pub fn route(&self, view: &str, text: &str) -> usize {
        (affinity_hash(&[view, text]) % self.senders.len() as u64) as usize
    }

    /// Counters aggregated across all workers.
    pub fn stats(&self) -> PoolStatsSnapshot {
        self.stats.snapshot()
    }

    /// Check a whole stream: partition by affinity, fan the partitions out,
    /// and reassemble per-item reports in input order. Per-item outcomes
    /// are byte-identical (in wire form) to a single-threaded
    /// [`ShardedCatalog::check_batch_text`] of the same stream — routing
    /// only decides which worker's cache absorbs which probes.
    pub fn check_stream(&self, items: &[(String, String)]) -> BatchReport {
        let span = obs::clock();
        let report = self.stream_inner(items);
        obs::verb_elapsed(Verb::Batch, span);
        report
    }

    fn stream_inner(&self, items: &[(String, String)]) -> BatchReport {
        let mut per_worker: Vec<Vec<(usize, String, String)>> =
            vec![Vec::new(); self.senders.len()];
        for (i, (view, text)) in items.iter().enumerate() {
            per_worker[self.route(view, text)].push((i, view.clone(), text.clone()));
        }
        let (reply, inbox): (Sender<_>, Receiver<_>) = channel();
        let mut expected = 0;
        for (w, job_items) in per_worker.into_iter().enumerate() {
            if job_items.is_empty() {
                continue;
            }
            expected += 1;
            self.senders[w]
                .send(Job { items: job_items, reply: reply.clone(), enqueued: obs::clock() })
                .expect("worker thread alive while pool exists");
        }
        drop(reply);
        let mut out: Vec<BatchItemReport> = Vec::with_capacity(items.len());
        let mut stats = BatchStats::default();
        for _ in 0..expected {
            let (part, part_stats) = inbox.recv().expect("worker replies before dropping job");
            out.extend(part);
            stats.merge(&part_stats);
        }
        out.sort_by_key(|i| i.index);
        BatchReport { items: out, stats }
    }

    /// Check a single update (a one-item [`check_stream`](Self::check_stream)).
    pub fn check_one(&self, view: &str, text: &str) -> Vec<CheckReport> {
        let span = obs::clock();
        let mut report =
            self.stream_inner(std::slice::from_ref(&(view.to_string(), text.to_string())));
        obs::verb_elapsed(Verb::Check, span);
        report.items.remove(0).reports
    }

    /// Catalog-wide fan-out for one update: route it through the catalog's
    /// relevance index, then dispatch the surviving (candidate view,
    /// update) pairs across the workers by the usual affinity hash. Items
    /// come back in candidate-name order with outcomes byte-identical (in
    /// wire form) to a per-view `CHECK` of each candidate.
    pub fn check_all(&self, update_text: &str) -> FanoutReport {
        let span = obs::clock();
        let report = self.fan_out_inner(std::slice::from_ref(&update_text.to_string()));
        obs::verb_elapsed(Verb::CheckAll, span);
        report
    }

    /// [`check_all`](Self::check_all) over a stream of updates (the
    /// `BATCHALL` verb): one routing pass, then a single fan-out of every
    /// surviving pair so affinity routing and warm caches amortize across
    /// the whole stream. Items are sorted by `(update index, view name)`.
    ///
    /// Candidates ship to workers as raw `(view, text)` pairs, so a text
    /// is re-parsed by each worker partition that receives it (the batch
    /// engine dedupes within a partition) — bounded by the worker count,
    /// not the candidate count; carrying parsed statements through the
    /// job channel is not worth the structural cost at today's sizes.
    ///
    /// Routing and dispatch are two steps, each individually consistent
    /// but not atomic together: a view dropped concurrently between them
    /// yields the same per-item "no view named …" report a direct `CHECK`
    /// of that view would produce at dispatch time (and a concurrently
    /// *added* view may be missed by this request — it was not registered
    /// when routing ran). Holding the routing guard across the dispatch
    /// would deadlock behind a queued writer (see the
    /// [catalog docs](crate::catalog)).
    pub fn check_all_batch(&self, updates: &[String]) -> FanoutReport {
        let span = obs::clock();
        let report = self.fan_out_inner(updates);
        obs::verb_elapsed(Verb::BatchAll, span);
        report
    }

    fn fan_out_inner(&self, updates: &[String]) -> FanoutReport {
        let parsed: Vec<_> = updates
            .iter()
            .map(|text| {
                let span = obs::clock();
                let parsed = parse_update(text);
                obs::stage_elapsed(Stage::Parse, span);
                parsed
            })
            .collect();
        // (update index, candidate view) for every surviving pair. Updates
        // that fail to parse are deliberately fanned out to *all* views:
        // the batch engine reproduces the same per-view malformed report
        // the brute-force loop yields, so outcomes stay byte-identical.
        let mut work: Vec<(usize, String)> = Vec::new();
        // One read guard routes the whole request; it is dropped at the end
        // of this block, before any job is dispatched (workers take their
        // own read lock, and a queued writer would wedge them behind ours).
        let fanout = {
            let catalog = self.catalog.read();
            let mut fanout = FanoutStats { views: catalog.len(), ..FanoutStats::default() };
            for (ui, parsed) in parsed.iter().enumerate() {
                let route = match parsed {
                    Ok(u) => {
                        let span = obs::clock();
                        let route = catalog.route_update(u);
                        obs::stage_elapsed(Stage::Route, span);
                        obs::record_route_candidates(route.candidates.len());
                        route
                    }
                    Err(_) => {
                        let all: Vec<String> = catalog.list().into_iter().map(|v| v.name).collect();
                        Route {
                            views: all.len(),
                            candidates: all,
                            fallback: true,
                            ..Route::default()
                        }
                    }
                };
                fanout.absorb(&route);
                work.extend(route.candidates.into_iter().map(|v| (ui, v)));
            }
            fanout
        };
        self.stats.record_fanout(&fanout);
        let stream: Vec<(String, String)> =
            work.iter().map(|(ui, view)| (view.clone(), updates[*ui].clone())).collect();
        let batch = self.stream_inner(&stream);
        let mut items: Vec<FanoutItem> = batch
            .items
            .into_iter()
            .map(|item| {
                let (ui, view) = &work[item.index];
                FanoutItem { update: *ui, view: view.clone(), reports: item.reports }
            })
            .collect();
        items.sort_by(|a, b| (a.update, a.view.as_str()).cmp(&(b.update, b.view.as_str())));
        FanoutReport { items, fanout, batch: batch.stats }
    }
}

impl Drop for CheckPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so no worker
        // outlives the pool (and any panic surfaces here).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(
    catalog: Arc<ShardedCatalog>,
    db: &mut Db,
    rx: Receiver<Job>,
    stats: Arc<PoolStats>,
) {
    // One cache for the worker's lifetime: probe results and TAB_ freshness
    // both refer to this worker's private db, so sharing the cache across
    // jobs (and across views routed here) is sound.
    let mut cache = ProbeCache::new();
    while let Ok(job) = rx.recv() {
        obs::queue_wait_elapsed(job.enqueued);
        let borrowed: Vec<(usize, &str, &str)> =
            job.items.iter().map(|(i, v, t)| (*i, v.as_str(), t.as_str())).collect();
        let (items, batch_stats) = catalog.check_indexed(&borrowed, db, &mut cache);
        stats.record(items.len(), &batch_stats);
        // A dropped receiver (caller gave up) is not a worker error.
        let _ = job.reply.send((items, batch_stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_core::bookdemo;
    use ufilter_core::wire::encode_outcome;

    fn book_pool(workers: usize) -> (CheckPool, Arc<ShardedCatalog>) {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
        catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
        let db = bookdemo::book_db();
        (CheckPool::new(Arc::clone(&catalog), &db, workers), catalog)
    }

    fn wire_lines(report: &BatchReport) -> Vec<String> {
        report
            .items
            .iter()
            .flat_map(|i| i.reports.iter().map(|r| encode_outcome(&r.outcome)))
            .collect()
    }

    #[test]
    fn pool_outcomes_match_single_threaded_batch() {
        let stream: Vec<(String, String)> =
            [bookdemo::U8, bookdemo::U10, bookdemo::U13, bookdemo::U8, bookdemo::U5]
                .iter()
                .map(|u| ("books".to_string(), u.to_string()))
                .collect();
        for workers in [1, 2, 4] {
            let (pool, catalog) = book_pool(workers);
            let mut db = bookdemo::book_db();
            let serial = catalog.check_batch_text(&stream, &mut db);
            let pooled = pool.check_stream(&stream);
            assert_eq!(wire_lines(&serial), wire_lines(&pooled), "workers={workers}");
            // Input order survives the fan-out.
            let indices: Vec<usize> = pooled.items.iter().map(|i| i.index).collect();
            assert_eq!(indices, (0..stream.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn affinity_routing_is_deterministic() {
        let (pool, _catalog) = book_pool(4);
        let a = pool.route("books", bookdemo::U8);
        assert_eq!(a, pool.route("books", bookdemo::U8));
        // Stats accumulate across calls.
        pool.check_one("books", bookdemo::U8);
        pool.check_one("books", bookdemo::U8);
        let s = pool.stats();
        assert_eq!(s.items, 2);
        assert!(s.probe_hits >= 1, "second identical check hits the warm cache: {s:?}");
    }

    #[test]
    fn check_all_routes_to_candidates_and_matches_per_view_checks() {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
        catalog.add("z_books", bookdemo::BOOK_VIEW).unwrap();
        catalog.add("a_books", bookdemo::BOOK_VIEW).unwrap();
        let db = bookdemo::book_db();
        let pool = CheckPool::new(Arc::clone(&catalog), &db, 2);
        let report = pool.check_all(bookdemo::U8);
        // Both registrations are candidates, in name order.
        let views: Vec<&str> = report.items.iter().map(|i| i.view.as_str()).collect();
        assert_eq!(views, ["a_books", "z_books"]);
        for item in &report.items {
            let direct = pool.check_one(&item.view, bookdemo::U8);
            assert_eq!(
                item.reports.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                direct.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                "{}: fan-out diverged from a direct CHECK",
                item.view
            );
        }
        let s = pool.stats();
        assert_eq!(s.fanout_requests, 1);
        assert_eq!(s.fanout_candidates, 2);
        assert_eq!(s.fanout_fallbacks, 0);
    }

    #[test]
    fn unparsable_checkall_falls_back_to_every_view() {
        let (pool, _catalog) = book_pool(2);
        let report = pool.check_all("this is not an update");
        assert_eq!(report.items.len(), 1, "one registered view, one malformed report");
        assert_eq!(report.fanout.fallbacks, 1);
        assert!(
            encode_outcome(&report.items[0].reports[0].outcome).starts_with("invalid malformed"),
            "{:?}",
            report.items[0].reports[0].outcome
        );
    }

    #[test]
    fn warm_cache_survives_across_requests() {
        let (pool, _catalog) = book_pool(2);
        let first = pool.check_one("books", bookdemo::U8);
        let hits_after_first = pool.stats().probe_hits;
        let second = pool.check_one("books", bookdemo::U8);
        assert_eq!(
            first.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
            second.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
        );
        assert!(pool.stats().probe_hits > hits_after_first, "repeat probe served from cache");
    }
}
