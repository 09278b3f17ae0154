//! The fixtures/ files are the CLI-facing copies of `ufilter_core::bookdemo`
//! (the paper's Fig. 1 database and Fig. 3/10 queries). These tests pin the
//! two representations together so neither can drift silently.

use std::path::Path;

use u_filter::core::bookdemo;
use ufilter_rdb::Db;

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn book_sql_builds_the_bookdemo_database() {
    let mut db = Db::new();
    db.execute_script(&fixture("fixtures/book.sql")).expect("fixture script runs");
    assert_eq!(db.dump(), bookdemo::book_db().dump(), "fixtures/book.sql drifted from bookdemo");
}

#[test]
fn batch_fixture_is_the_update_fixtures_concatenated() {
    let expected = ["fixtures/u8.xq", "fixtures/u10.xq", "fixtures/u13.xq"]
        .map(|rel| format!("-- view: books\n{}", fixture(rel).trim()))
        .join("\n\n");
    assert_eq!(
        fixture("fixtures/batch.ubatch").trim(),
        expected.trim(),
        "fixtures/batch.ubatch drifted from the u8/u10/u13 fixtures"
    );
}

/// The many-view manifest (fan-out CLI and service tests): `books` plus the
/// 25 generated book-schema variants of `bookdemo::book_view_variants`.
/// Regenerate after changing the generator with
/// `UFILTER_REGEN_FIXTURES=1 cargo test --test fixtures_sync`.
#[test]
fn views_many_fixture_matches_the_generator() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let variants = bookdemo::book_view_variants(25);
    let mut manifest = String::from(
        "# ufilter view catalog: name=viewfile (generated; see tests/fixtures_sync.rs)\n\
         books=fixtures/bookview.xq\n",
    );
    let mut files: Vec<(String, String)> = Vec::new();
    for (name, text) in &variants {
        let rel = format!("fixtures/views_many/{name}.xq");
        manifest.push_str(&format!("{name}={rel}\n"));
        files.push((rel, format!("{}\n", text.trim())));
    }
    if std::env::var_os("UFILTER_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(root.join("fixtures/views_many")).unwrap();
        std::fs::write(root.join("fixtures/views_many.cat"), &manifest).unwrap();
        for (rel, text) in &files {
            std::fs::write(root.join(rel), text).unwrap();
        }
        return;
    }
    assert_eq!(
        fixture("fixtures/views_many.cat"),
        manifest,
        "fixtures/views_many.cat drifted from book_view_variants(25)"
    );
    for (rel, text) in &files {
        assert_eq!(&fixture(rel), text, "{rel} drifted from book_view_variants(25)");
    }
}

/// Pin the on-disk persistence format (`ufilter_core::persist`): a fixed
/// catalog session — two adds, guarded DDL, a drop, a compaction, one more
/// add — must produce byte-identical `catalog.snap`/`catalog.log` files to
/// the committed fixtures. The codec is deterministic (sorted signature
/// vectors, canonical view text), so a byte diff means the format changed: bump
/// `FORMAT_VERSION`/`ARTIFACT_VERSION`, update `docs/PERSISTENCE.md`, and
/// regenerate with `UFILTER_REGEN_FIXTURES=1 cargo test --test fixtures_sync`.
#[test]
fn persistence_fixture_bytes_are_format_stable() {
    use std::sync::{Arc, Mutex};
    use u_filter::core::catalog::ViewCatalog;
    use u_filter::core::persist::CatalogStore;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("ufilter-fixture-gen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut catalog = ViewCatalog::new(bookdemo::book_schema());
    let mut db = bookdemo::book_db();
    let store = Arc::new(Mutex::new(CatalogStore::open(&dir).unwrap()));
    catalog.attach_store(Arc::clone(&store));
    catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
    catalog.add("stats", bookdemo::BOOK_STATS_VIEW).unwrap();
    catalog.execute_guarded(&mut db, "CREATE TABLE pinned (id INTEGER)").unwrap();
    catalog.drop_view("stats").unwrap();
    store.lock().unwrap().compact().unwrap(); // snapshot gen 2: books + ddl
    catalog.add("reviews", bookdemo::REVIEWS_ALL).unwrap(); // lands in the fresh log
    drop(catalog);
    drop(store);

    let generated_snap = std::fs::read(dir.join("catalog.snap")).unwrap();
    let generated_log = std::fs::read(dir.join("catalog.log")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    if std::env::var_os("UFILTER_REGEN_FIXTURES").is_some() {
        std::fs::write(root.join("fixtures/catalog.snap"), &generated_snap).unwrap();
        std::fs::write(root.join("fixtures/catalog.log"), &generated_log).unwrap();
        return;
    }
    let read = |rel: &str| {
        let path = root.join(rel);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    assert_eq!(read("fixtures/catalog.snap"), generated_snap, "catalog.snap format drifted");
    assert_eq!(read("fixtures/catalog.log"), generated_log, "catalog.log format drifted");

    // And the committed bytes still open + replay to the expected catalog
    // (copied to a scratch dir — open() may repair files in place, and a
    // fixture must never be mutated by a test).
    let scratch = std::env::temp_dir().join(format!("ufilter-fixture-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    std::fs::write(scratch.join("catalog.snap"), read("fixtures/catalog.snap")).unwrap();
    std::fs::write(scratch.join("catalog.log"), read("fixtures/catalog.log")).unwrap();
    let store = CatalogStore::open(&scratch).unwrap();
    assert_eq!(store.generation(), 2);
    assert_eq!(store.stats().truncated_bytes, 0, "fixture has no torn tail");
    let mut db = bookdemo::book_db();
    let mut recovered = ViewCatalog::new(bookdemo::book_schema());
    let stats = recovered.replay(&mut db, store.records()).unwrap();
    assert_eq!(stats.rehydrated, 2, "both surviving views rehydrate from their artifacts");
    let names: Vec<String> = recovered.list().into_iter().map(|v| v.name).collect();
    assert_eq!(names, ["books", "reviews"]);
    assert!(db.schema().table("pinned").is_some(), "fixture DDL replays");
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn view_and_update_fixtures_match_bookdemo_constants() {
    for (rel, constant) in [
        ("fixtures/bookview.xq", bookdemo::BOOK_VIEW),
        ("fixtures/bookstats.xq", bookdemo::BOOK_STATS_VIEW),
        ("fixtures/u8.xq", bookdemo::U8),
        ("fixtures/u9.xq", bookdemo::U9),
        ("fixtures/u10.xq", bookdemo::U10),
        ("fixtures/u13.xq", bookdemo::U13),
        ("fixtures/u_agg.xq", bookdemo::U_AGG),
    ] {
        assert_eq!(fixture(rel).trim(), constant.trim(), "{rel} drifted from bookdemo");
    }
}
