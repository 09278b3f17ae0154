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

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ufilter_core::obs;
use ufilter_core::{
    parse_update_timed, BatchItemReport, BatchReport, BatchStats, CheckReport, FanoutStats,
    ProbeCache, Target,
};
use ufilter_rdb::Db;

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

/// The worker-pool executor. Construct once, share behind an `Arc`, call
/// [`check`](CheckPool::check) from any number of threads.
pub struct CheckPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs dispatched, what they checked and what routing did, summed
    /// over every request (the server's `STATS` counters).
    stats: Mutex<(usize, BatchStats, FanoutStats)>,
    catalog: Arc<ShardedCatalog>,
}

impl CheckPool {
    /// Spawn `workers` (at least 1) threads, each owning a clone of `db`
    /// and an empty probe cache, all sharing `catalog`.
    pub fn new(catalog: Arc<ShardedCatalog>, db: &Db, workers: usize) -> CheckPool {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let catalog = Arc::clone(&catalog);
            let mut db = db.clone();
            handles.push(std::thread::spawn(move || worker_main(catalog, &mut db, rx)));
            senders.push(tx);
        }
        CheckPool { senders, handles, stats: Mutex::default(), catalog }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The worker a `(view, update text)` pair is routed to.
    pub fn route(&self, view: &str, text: &str) -> usize {
        (affinity_hash(&[view, text]) % self.senders.len() as u64) as usize
    }

    /// Counters summed over every request: (jobs dispatched to workers,
    /// what the workers checked, what routing did).
    pub fn stats(&self) -> (usize, BatchStats, FanoutStats) {
        *self.stats.lock().expect("pool stats lock")
    }

    /// Check a request's `(target, update text)` items across the workers
    /// — the server's one pool call for `CHECK`, `BATCH`, `CHECKALL` and
    /// `BATCHALL`. Routed items are parsed (once per distinct text) and
    /// routed with [`ViewCatalog::route_candidates`] under one read guard,
    /// which is dropped before any job is dispatched; a request whose
    /// items all name their view takes no guard and parses nothing here.
    /// Every (item, view) pair then goes to the worker its affinity hash
    /// picks, and the partial reports are reassembled sorted by item
    /// index, then view name. Per-item outcomes are byte-identical (in
    /// wire form) to a single-threaded [`ViewCatalog::check`] of the same
    /// items — routing only decides which worker's cache absorbs which
    /// probes.
    ///
    /// Routing and dispatch are two steps, each individually consistent
    /// but not atomic together: a view dropped concurrently between them
    /// yields the same per-item "no view named …" report a direct `CHECK`
    /// of that view would produce at dispatch time (and a concurrently
    /// *added* view may be missed by this request — it was not registered
    /// when routing ran). Holding the routing guard across the dispatch
    /// would deadlock behind a queued writer (see the
    /// [catalog docs](crate::catalog)).
    ///
    /// [`ViewCatalog::route_candidates`]: ufilter_core::ViewCatalog::route_candidates
    /// [`ViewCatalog::check`]: ufilter_core::ViewCatalog::check
    pub fn check(&self, items: &[(Target<'_>, &str)]) -> BatchReport {
        let mut fanout = FanoutStats::default();
        let mut per_worker: Vec<Vec<(usize, String, String)>> =
            vec![Vec::new(); self.senders.len()];
        let mut push = |index: usize, view: &str, text: &str| {
            per_worker[self.route(view, text)].push((index, view.to_string(), text.to_string()));
        };
        // Parse each distinct routed text once, before taking the guard.
        let mut parsed = HashMap::new();
        for &(target, text) in items {
            if target == Target::Routed {
                parsed.entry(text).or_insert_with(|| parse_update_timed(text).ok());
            }
        }
        let guard = (!parsed.is_empty()).then(|| self.catalog.read());
        for (index, &(target, text)) in items.iter().enumerate() {
            match (target, &guard) {
                (Target::View(view), _) => push(index, view, text),
                (Target::Routed, Some(catalog)) => {
                    for view in catalog.route_candidates(parsed[text].as_ref(), &mut fanout) {
                        push(index, &view, text);
                    }
                }
                (Target::Routed, None) => unreachable!("a routed item takes the guard"),
            }
        }
        // Workers take their own read lock, and a writer queued behind ours
        // would wedge them.
        drop(guard);

        let (reply, inbox): (Sender<_>, Receiver<_>) = channel();
        let mut jobs = 0;
        for (w, job_items) in per_worker.into_iter().enumerate() {
            if job_items.is_empty() {
                continue;
            }
            jobs += 1;
            self.senders[w]
                .send(Job { items: job_items, reply: reply.clone(), enqueued: obs::clock() })
                .expect("worker thread alive while pool exists");
        }
        drop(reply);
        let mut report = BatchReport { items: Vec::new(), stats: BatchStats::default(), fanout };
        for _ in 0..jobs {
            let (part, part_stats) = inbox.recv().expect("worker replies before dropping job");
            report.items.extend(part);
            report.stats.merge(&part_stats);
        }
        report.items.sort_by(|a, b| (a.index, &a.view).cmp(&(b.index, &b.view)));
        let mut totals = self.stats.lock().expect("pool stats lock");
        totals.0 += jobs;
        totals.1.merge(&report.stats);
        totals.2.merge(&report.fanout);
        report
    }

    /// [`check`](Self::check) of `(view, update text)` items. This and
    /// the next two wrappers are kept for the `ledger/` benchmark, which
    /// calls them.
    pub fn check_stream(&self, items: &[(String, String)]) -> BatchReport {
        self.check(&items.iter().map(|(v, t)| (Target::View(v), t.as_str())).collect::<Vec<_>>())
    }

    /// [`check`](Self::check) of one update against one view.
    pub fn check_one(&self, view: &str, text: &str) -> Vec<CheckReport> {
        self.check(&[(Target::View(view), text)]).items.remove(0).reports
    }

    /// [`check`](Self::check) of one routed update.
    pub fn check_all(&self, update_text: &str) -> BatchReport {
        self.check(&[(Target::Routed, update_text)])
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

fn worker_main(catalog: Arc<ShardedCatalog>, db: &mut Db, rx: Receiver<Job>) {
    // One cache for the worker's lifetime: probe results and TAB_ freshness
    // both refer to this worker's private db, so sharing the cache across
    // jobs (and across views routed here) is sound.
    let mut cache = ProbeCache::new();
    while let Ok(job) = rx.recv() {
        obs::queue_wait_elapsed(job.enqueued);
        let borrowed: Vec<(usize, &str, &str)> =
            job.items.iter().map(|(i, v, t)| (*i, v.as_str(), t.as_str())).collect();
        let partial = catalog.check_indexed(&borrowed, db, &mut cache);
        // A dropped receiver (caller gave up) is not a worker error.
        let _ = job.reply.send(partial);
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
    fn pool_outcomes_match_single_threaded_check() {
        let texts =
            [bookdemo::U8, bookdemo::U10, bookdemo::U13, bookdemo::U8, bookdemo::U5, "no update"];
        // Named and routed items alternate, so both expansions share one
        // request.
        let items: Vec<(Target, &str)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (if i % 2 == 0 { Target::View("books") } else { Target::Routed }, *t))
            .collect();
        let mut plain = ufilter_core::ViewCatalog::new(bookdemo::book_schema());
        plain.add("books", bookdemo::BOOK_VIEW).unwrap();
        let serial = plain.check(&items, &mut bookdemo::book_db(), &mut ProbeCache::new());
        for workers in [1, 2, 4] {
            let (pool, _catalog) = book_pool(workers);
            let pooled = pool.check(&items);
            assert_eq!(wire_lines(&serial), wire_lines(&pooled), "workers={workers}");
            assert_eq!(serial.fanout, pooled.fanout, "workers={workers}");
            // Input order survives the fan-out.
            let indices: Vec<usize> = pooled.items.iter().map(|i| i.index).collect();
            assert_eq!(indices, (0..texts.len()).collect::<Vec<_>>());
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
        let (jobs, s, _) = pool.stats();
        assert_eq!((jobs, s.items), (2, 2));
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
        let (_, _, f) = pool.stats();
        assert_eq!((f.fanout_requests, f.candidates, f.fallbacks), (1, 2, 0));
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
        let hits_after_first = pool.stats().1.probe_hits;
        let second = pool.check_one("books", bookdemo::U8);
        assert_eq!(
            first.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
            second.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
        );
        assert!(pool.stats().1.probe_hits > hits_after_first, "repeat probe served from cache");
    }
}
