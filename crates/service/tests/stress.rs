//! Concurrency stress: N threads hammer one [`ShardedCatalog`] with a mix
//! of single checks, batch checks, catalog add/drop churn and guarded DDL
//! while three [`CheckPool`] readers send `CHECKALL`s and `BATCH`es through
//! two check slots beside them (so readers queue for a slot while writers
//! queue for the lock); then every thread's per-operation outcomes are
//! compared against a single-threaded replay of the same schedule.
//!
//! The schedules are designed so each operation's observable outcome is
//! independent of cross-thread interleaving (threads own disjoint view
//! names and scratch relations, the only shared-relation DDL is one that
//! is *always* rejected, and the reader only compares outcomes on views no
//! writer touches), which is exactly the determinism the service's locking
//! must preserve: concurrency may change who waits, but never what
//! anything returns. A watchdog fails the test if any thread hangs.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use ufilter_core::wire::encode_outcome;
use ufilter_core::{bookdemo, BatchItemReport, ProbeCache, Target};
use ufilter_rdb::Db;
use ufilter_service::{CheckPool, ShardedCatalog};

const THREADS: usize = 4;
const ITERS: usize = 10;
/// Pool reader threads, more than the pool has slots.
const READERS: usize = 3;
/// Read passes each pool reader makes while the writers run.
const READS: usize = 20;
/// Views registered before the writers start and never touched by them.
const STABLE: [&str; 2] = ["fixed_a", "fixed_b"];
/// How long the watchdog waits for any one thread's result.
const WATCHDOG: Duration = Duration::from_secs(60);

/// `(view, update)` items checked in one `check_indexed` call with a fresh
/// probe cache.
fn check_stream(
    catalog: &ShardedCatalog,
    items: &[(&str, &str)],
    db: &mut Db,
) -> Vec<BatchItemReport> {
    let indexed: Vec<(usize, &str, &str)> =
        items.iter().enumerate().map(|(i, (v, t))| (i, *v, *t)).collect();
    catalog.check_indexed(&indexed, db, &mut ProbeCache::new()).0
}

/// Run one thread's deterministic schedule, returning a flat log of
/// observable outcomes (one string per observation).
fn run_schedule(t: usize, catalog: &ShardedCatalog, db: &mut Db) -> Vec<String> {
    let va = format!("stress{t}_a");
    let vb = format!("stress{t}_b");
    let scratch = format!("stress_scratch{t}");
    let mut log = Vec::new();
    let mut note = |tag: &str, s: String| log.push(format!("{tag}: {s}"));

    for i in 0..ITERS {
        // Catalog add (the duplicate-add in later iterations exercises the
        // error path deterministically: the name is always free here).
        let added = catalog.add(&va, bookdemo::BOOK_VIEW).expect("own name is free");
        note("add_a", format!("{} reads {}", added.name, added.relations.join(",")));
        catalog.add(&vb, bookdemo::BOOK_VIEW).expect("own name is free");
        note("add_dup", format!("{:?}", catalog.add(&va, bookdemo::BOOK_VIEW).is_err()));

        // Single check + a mixed batch across both of this thread's views.
        let single = check_stream(catalog, &[(&va, bookdemo::U8)], db);
        note("check", encode_outcome(&single[0].reports[0].outcome));
        let stream = [(va.as_str(), bookdemo::U10), (&vb, bookdemo::U13), (&va, bookdemo::U8)];
        for item in &check_stream(catalog, &stream, db) {
            for r in &item.reports {
                note("batch", format!("{} {}", item.index, encode_outcome(&r.outcome)));
            }
        }

        // Guarded DDL. Dropping `review` must always be RESTRICTed (this
        // thread's own views read it, whatever the others are doing);
        // creating/dropping the thread-private scratch table must always
        // succeed. Error text is not compared — it may name other threads'
        // views — only the accept/reject decision is.
        note(
            "ddl_review",
            format!("{}", catalog.execute_guarded(db, "DROP TABLE review").is_err()),
        );
        let create = format!("CREATE TABLE {scratch} (id INTEGER)");
        note("ddl_create", format!("{}", catalog.execute_guarded(db, &create).is_ok()));
        let drop = format!("DROP TABLE {scratch}");
        note("ddl_drop", format!("{}", catalog.execute_guarded(db, &drop).is_ok()));

        // Churn: unregister both views; iteration i+1 re-adds them.
        catalog.drop_view(&va).expect("registered above");
        catalog.drop_view(&vb).expect("registered above");
        note("drop_gone", format!("{:?}", catalog.drop_view(&va).is_err()));
        note("iter", i.to_string());
    }
    log
}

/// One pass of pool reads: `CHECKALL`s and a `BATCH`, keeping only the
/// outcomes on the stable views (the writers' views come and go).
fn pool_reads(pool: &CheckPool) -> Vec<String> {
    let mut log = Vec::new();
    for u in [bookdemo::U8, bookdemo::U10] {
        let report = pool.check(&[(Target::Routed, u)]);
        for item in report.items.iter().filter(|i| STABLE.contains(&i.view.as_str())) {
            for r in &item.reports {
                log.push(format!("all {} {}", item.view, encode_outcome(&r.outcome)));
            }
        }
    }
    let stream: Vec<(Target, &str)> = STABLE
        .iter()
        .flat_map(|v| [bookdemo::U8, bookdemo::U10, bookdemo::U13].map(|u| (Target::View(v), u)))
        .collect();
    for item in pool.check(&stream).items {
        for r in &item.reports {
            log.push(format!("batch {} {} {}", item.index, item.view, encode_outcome(&r.outcome)));
        }
    }
    log
}

fn catalog_with_stable_views() -> Arc<ShardedCatalog> {
    let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
    for name in STABLE {
        catalog.add(name, bookdemo::BOOK_VIEW).expect("stable view compiles");
    }
    catalog
}

#[test]
fn concurrent_schedules_match_single_threaded_replay() {
    // Concurrent run: THREADS writer threads over one catalog, each with
    // its own database clone, plus READERS pool readers sharing two slots.
    // Every thread reports through the channel; the watchdog turns a
    // deadlock into a failure instead of a hung test.
    let catalog = catalog_with_stable_views();
    let base = bookdemo::book_db();
    let pool = Arc::new(CheckPool::new(Arc::clone(&catalog), &base, 2));
    let (tx, rx) = channel::<(usize, Vec<Vec<String>>)>();
    for t in 0..THREADS {
        let (catalog, tx, mut db) = (Arc::clone(&catalog), tx.clone(), base.clone());
        std::thread::spawn(move || {
            let _ = tx.send((t, vec![run_schedule(t, &catalog, &mut db)]));
        });
    }
    for r in THREADS..THREADS + READERS {
        let (pool, tx) = (Arc::clone(&pool), tx.clone());
        std::thread::spawn(move || {
            let _ = tx.send((r, (0..READS).map(|_| pool_reads(&pool)).collect()));
        });
    }
    drop(tx);
    let mut results: Vec<Vec<Vec<String>>> = vec![Vec::new(); THREADS + READERS];
    for _ in 0..THREADS + READERS {
        let (id, out) = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("no thread result within {WATCHDOG:?}: hung or panicked"));
        results[id] = out;
    }
    assert_eq!(catalog.len(), STABLE.len(), "every writer cleaned up its views");

    // Single-threaded replay of the identical schedules, thread-major,
    // then one reader's pass.
    let replay_catalog = catalog_with_stable_views();
    for (t, concurrent) in results.iter().take(THREADS).enumerate() {
        let replayed = run_schedule(t, &replay_catalog, &mut base.clone());
        assert_eq!(
            concurrent[0], replayed,
            "thread {t}: concurrent outcomes diverge from serial replay"
        );
    }
    let expected = pool_reads(&CheckPool::new(replay_catalog, &base, 2));
    assert!(!expected.is_empty());
    for (r, passes) in results[THREADS..].iter().enumerate() {
        assert_eq!(passes.len(), READS, "reader {r} finished every pass");
        for (pass, got) in passes.iter().enumerate() {
            assert_eq!(got, &expected, "reader {r}, pass {pass} diverges from serial replay");
        }
    }
}

#[test]
fn concurrent_checks_against_fixed_catalog_are_stable() {
    // Read-mostly path: no catalog churn at all, many threads checking the
    // same views; all must see identical wire outcomes.
    let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
    catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
    let base = bookdemo::book_db();
    let stream = [bookdemo::U8, bookdemo::U10, bookdemo::U13].map(|u| ("books", u));
    let expected: Vec<String> = check_stream(&catalog, &stream, &mut base.clone())
        .iter()
        .flat_map(|i| i.reports.iter().map(|r| encode_outcome(&r.outcome)))
        .collect();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let catalog = Arc::clone(&catalog);
            let mut db = base.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let got: Vec<String> = check_stream(&catalog, &stream, &mut db)
                        .iter()
                        .flat_map(|i| i.reports.iter().map(|r| encode_outcome(&r.outcome)))
                        .collect();
                    assert_eq!(got, expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no checker thread panicked");
    }
}
