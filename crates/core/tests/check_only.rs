//! Checking never changes the database: under every strategy and STAR mode,
//! a check-only run leaves `Db::dump()` exactly as it found it (no user-table
//! change, no `TAB_` table), through `UFilter::check` and through
//! `ViewCatalog::check`, with or without a caller-held transaction.

use std::collections::BTreeMap;

use ufilter_core::bookdemo;
use ufilter_core::catalog::{Target, ViewCatalog};
use ufilter_core::{ProbeCache, StarMode, Strategy, UFilterConfig};
use ufilter_rdb::{Db, Row};

const STRATEGIES: [Strategy; 3] = [Strategy::Outside, Strategy::Hybrid, Strategy::Internal];
const MODES: [StarMode; 2] = [StarMode::Strict, StarMode::Refined];

fn configs() -> impl Iterator<Item = UFilterConfig> {
    STRATEGIES.into_iter().flat_map(|strategy| MODES.map(|mode| UFilterConfig { mode, strategy }))
}

fn assert_untouched(db: &Db, before: &BTreeMap<String, Vec<Row>>, what: &str) {
    assert!(
        db.schema().tables.iter().all(|t| !t.name.starts_with("TAB_")),
        "{what} left a TAB_ table"
    );
    assert_eq!(&db.dump(), before, "{what} changed the database");
}

#[test]
fn ufilter_check_leaves_the_database_unchanged() {
    for config in configs() {
        let filter = bookdemo::book_filter().with_config(config);
        let mut db = bookdemo::book_db();
        let before = db.dump();
        for (name, update) in bookdemo::all_updates() {
            filter.check(update, &mut db);
            assert_untouched(&db, &before, &format!("check {name} under {config:?}"));
        }
        // Inside the caller's transaction too, which stays open.
        db.begin().unwrap();
        for (name, update) in bookdemo::all_updates() {
            filter.check(update, &mut db);
            assert!(db.in_transaction());
            assert_untouched(
                &db,
                &before,
                &format!("in-transaction check {name} under {config:?}"),
            );
        }
        db.rollback().unwrap();
    }
}

#[test]
fn catalog_check_leaves_the_database_unchanged() {
    for config in configs() {
        let mut catalog = ViewCatalog::new(bookdemo::book_schema()).with_config(config);
        catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
        let mut db = bookdemo::book_db();
        let before = db.dump();
        let mut cache = ProbeCache::new();
        for (name, update) in bookdemo::all_updates() {
            catalog.check(&[(Target::View("books"), update)], &mut db, &mut cache);
            assert_untouched(&db, &before, &format!("catalog check {name} under {config:?}"));
        }
        let all: Vec<_> =
            bookdemo::all_updates().into_iter().map(|(_, u)| (Target::Routed, u)).collect();
        catalog.check(&all, &mut db, &mut cache);
        assert_untouched(&db, &before, &format!("routed batch under {config:?}"));
        db.begin().unwrap();
        catalog.check(&all, &mut db, &mut cache);
        assert_untouched(&db, &before, &format!("in-transaction batch under {config:?}"));
        db.rollback().unwrap();
    }
}

/// The served drift: U13, U9, U13 on one long-lived (database, cache) slot
/// must answer both U13s the same.
#[test]
fn repeated_checks_on_one_slot_answer_the_same() {
    for config in configs() {
        let mut catalog = ViewCatalog::new(bookdemo::book_schema()).with_config(config);
        catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
        let mut db = bookdemo::book_db();
        let mut cache = ProbeCache::new();
        let mut check = |update: &str| {
            let report = catalog.check(&[(Target::View("books"), update)], &mut db, &mut cache);
            format!("{:?}", report.items[0].reports.iter().map(|r| &r.outcome).collect::<Vec<_>>())
        };
        let first = check(bookdemo::U13);
        check(bookdemo::U9);
        assert_eq!(check(bookdemo::U13), first, "U13 drifted under {config:?}");
    }
}
