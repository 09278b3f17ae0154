//! The check pool: `workers` private check **slots** that connection
//! threads borrow, one request at a time.
//!
//! A slot is a [`Db`] clone plus the long-lived [`ProbeCache`] whose
//! results refer to it. [`CheckPool::check`] runs on the calling thread: it
//! takes a free slot (waiting if every slot is lent out), then the catalog
//! read guard, and drops the guard before it returns the slot, so a request
//! that is only waiting for a slot never holds off a writer. Free slots
//! form a last-in-first-out stack, so a lone connection keeps reusing the
//! slot whose cache it just warmed.
//!
//! The clones are copy-on-write: every slot shares every table's storage
//! with the database the pool was built from. The default outside strategy
//! only reads (its probes read `TAB_<tag>` as bound rows), so it copies
//! nothing; the hybrid and internal strategies execute and roll back, and a
//! slot copies a table the first time one of its checks writes it, once.
//! Nothing is committed, so every slot's database stays the snapshot taken
//! at construction, and cached probe results stay valid for the pool's
//! lifetime.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use ufilter_core::obs::{self, LockKind};
use ufilter_core::{BatchReport, BatchStats, CheckReport, FanoutStats, ProbeCache, Target};
use ufilter_rdb::Db;

use crate::catalog::ShardedCatalog;

/// One check slot: a database clone and the probe cache built over it.
struct Slot {
    db: Db,
    cache: ProbeCache,
}

/// A borrowed slot, pushed back on the free stack when dropped — also when
/// the check panicked, so a failed request cannot leak its slot.
struct Lease<'p>(&'p CheckPool, Option<Slot>);

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let Some(mut slot) = self.1.take() else { return };
        if std::thread::panicking() {
            // End the transaction the check left open; forget its probes.
            if slot.db.in_transaction() {
                let _ = slot.db.rollback();
            }
            slot.cache = ProbeCache::new();
        }
        self.0.free.lock().unwrap_or_else(PoisonError::into_inner).push(slot);
        self.0.returned.notify_one();
    }
}

/// The check pool. Construct once, share behind an `Arc`, call
/// [`check`](CheckPool::check) from any number of threads; at most
/// [`workers`](CheckPool::workers) checks run at once.
pub struct CheckPool {
    /// Free slots, used as a stack: the slot returned last is lent next.
    free: Mutex<Vec<Slot>>,
    /// Signalled whenever a slot is returned.
    returned: Condvar,
    workers: usize,
    /// Checks run, what they checked and what routing did, summed over
    /// every request (the server's `STATS` counters).
    stats: Mutex<(usize, BatchStats, FanoutStats)>,
    catalog: Arc<ShardedCatalog>,
}

impl CheckPool {
    /// `workers` (at least 1) slots, each holding a copy-on-write clone of
    /// `db` (no table is copied) and an empty probe cache, all checking
    /// against `catalog`.
    pub fn new(catalog: Arc<ShardedCatalog>, db: &Db, workers: usize) -> CheckPool {
        let workers = workers.max(1);
        let free = (0..workers).map(|_| Slot { db: db.clone(), cache: ProbeCache::new() });
        CheckPool {
            free: Mutex::new(free.collect()),
            returned: Condvar::new(),
            workers,
            stats: Mutex::default(),
            catalog,
        }
    }

    /// Number of slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Counters summed over every request: (checks run on a slot, what
    /// they checked, what routing did).
    pub fn stats(&self) -> (usize, BatchStats, FanoutStats) {
        *self.stats.lock().expect("pool stats lock")
    }

    /// Check a request's `(target, update text)` items on a borrowed slot
    /// in one [`ViewCatalog::check`] under one catalog read guard, so
    /// routing and checking see the same catalog — the server's one pool
    /// call for all four check verbs. Outcomes are byte-identical (in wire
    /// form) to a single-threaded call of it.
    ///
    /// [`ViewCatalog::check`]: ufilter_core::ViewCatalog::check
    pub fn check(&self, items: &[(Target<'_>, &str)]) -> BatchReport {
        let mut lease = self.lease();
        let Slot { db, cache } = lease.1.as_mut().expect("a lease holds its slot");
        let span = obs::clock();
        let report = self.catalog.read().check(items, db, cache);
        obs::lock_hold_elapsed(LockKind::Read, span);
        drop(lease);
        let mut totals = self.stats.lock().expect("pool stats lock");
        totals.0 += 1;
        totals.1.merge(&report.stats);
        totals.2.merge(&report.fanout);
        report
    }

    /// Pop a free slot, waiting for one if none is free; the wait lands in
    /// the queue-wait histogram.
    fn lease(&self) -> Lease<'_> {
        let waited = obs::clock();
        let free = self.free.lock().expect("pool slot lock");
        let slot =
            self.returned.wait_while(free, |free| free.is_empty()).expect("pool slot lock").pop();
        obs::queue_wait_elapsed(waited);
        Lease(self, slot)
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
            let indices: Vec<usize> = pooled.items.iter().map(|i| i.index).collect();
            assert_eq!(indices, (0..texts.len()).collect::<Vec<_>>());
        }
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
    fn a_request_waits_for_a_slot_without_holding_off_writers() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (pool, catalog) = book_pool(1);
        let pool = Arc::new(pool);
        let held = pool.lease();
        let (tx, rx) = channel();
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || tx.send(pool.check_all(bookdemo::U8)).unwrap())
        };
        // The only slot is lent out, so the check cannot run yet.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        // Nor does the waiting request hold the catalog lock: a writer
        // gets through.
        let (added_tx, added) = channel();
        let writer = {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                added_tx.send(catalog.add("books2", bookdemo::BOOK_VIEW).is_ok()).unwrap()
            })
        };
        assert_eq!(added.recv_timeout(Duration::from_secs(60)), Ok(true), "writer held off");
        drop(held);
        let report = rx.recv_timeout(Duration::from_secs(60)).expect("slot returned");
        // Routing ran once the request had its slot, so it sees both views.
        let views: Vec<&str> = report.items.iter().map(|i| i.view.as_str()).collect();
        assert_eq!(views, ["books", "books2"]);
        writer.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(pool.stats().0, 1);
    }

    #[test]
    fn a_panicking_check_returns_its_slot() {
        let (pool, _catalog) = book_pool(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = pool.lease();
            lease.1.as_mut().unwrap().db.begin().unwrap();
            panic!("the check failed part way");
        }));
        assert!(caught.is_err());
        // The one slot is back, with its transaction ended.
        let free = pool.free.lock().unwrap();
        assert_eq!(free.len(), 1);
        assert!(!free[0].db.in_transaction());
    }

    #[test]
    fn warm_cache_survives_across_requests() {
        let (pool, _catalog) = book_pool(4);
        let first = pool.check_one("books", bookdemo::U8);
        let hits_after_first = pool.stats().1.probe_hits;
        let second = pool.check_one("books", bookdemo::U8);
        assert_eq!(
            first.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
            second.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
        );
        // Stats accumulate across calls, one check per request, and a lone
        // caller gets back the slot it just warmed.
        let (checks, s, _) = pool.stats();
        assert_eq!((checks, s.items), (2, 2));
        assert!(s.probe_hits > hits_after_first, "repeat probe served from cache: {s:?}");
    }
}
