//! ViewCatalog semantics: registration, compile-once caching, the DDL
//! RESTRICT guard, and batch-vs-single-shot outcome equivalence.

use ufilter_core::bookdemo;
use ufilter_core::catalog::{CatalogError, Target, ViewCatalog};
use ufilter_core::CheckOutcome;
use ufilter_rdb::DeletePolicy;
use ufilter_tpch::{generate, stream, stream_views, Scale, StreamSpec};

fn book_catalog() -> ViewCatalog {
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    c.add("books", bookdemo::BOOK_VIEW).expect("BookView registers");
    c
}

#[test]
fn duplicate_registration_rejected() {
    let mut c = book_catalog();
    match c.add("books", bookdemo::BOOK_VIEW) {
        Err(CatalogError::DuplicateView { name }) => assert_eq!(name, "books"),
        other => panic!("expected DuplicateView, got {other:?}"),
    }
    assert_eq!(c.len(), 1);
}

#[test]
fn compile_cache_hits_on_identical_text_under_another_name() {
    let mut c = book_catalog();
    let info = c.add("books2", bookdemo::BOOK_VIEW).unwrap();
    assert!(info.cached, "second registration of identical text reuses the artifact");
    assert_eq!(c.compile_cache_hits(), 1);
}

#[test]
fn compile_cache_survives_drop_and_ignores_whitespace() {
    let mut c = book_catalog();
    c.drop_view("books").unwrap();
    // Same query, different formatting: still a cache hit.
    let reformatted = bookdemo::BOOK_VIEW.split_whitespace().collect::<Vec<_>>().join("  \n ");
    let info = c.add("books", &reformatted).unwrap();
    assert!(info.cached, "canonicalization should defeat formatting changes");
    assert_eq!(c.compile_cache_hits(), 1);
}

#[test]
fn quoted_literals_are_not_canonicalized() {
    // Changing whitespace *inside* a string literal is a different view.
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    let a = r#"<V>FOR $b IN document("default.xml")/book/row WHERE $b/title = "a b" RETURN {<book>$b/bookid</book>}</V>"#;
    let b = r#"<V>FOR $b IN document("default.xml")/book/row WHERE $b/title = "a  b" RETURN {<book>$b/bookid</book>}</V>"#;
    c.add("va", a).unwrap();
    let info = c.add("vb", b).unwrap();
    assert!(!info.cached, "literal content differs; must recompile");
}

#[test]
fn compile_failure_is_structured() {
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    match c.add("bad", "this is not a view query") {
        Err(CatalogError::Compile { name, error }) => {
            assert_eq!(name, "bad");
            assert_eq!(error.cause(), "parse");
        }
        other => panic!("expected Compile error, got {other:?}"),
    }
    assert!(c.is_empty());
}

#[test]
fn ddl_on_relation_with_dependent_views_is_rejected() {
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    match c.execute_guarded(&mut db, "DROP TABLE review") {
        Err(CatalogError::DependentViews { relation, views }) => {
            assert_eq!(relation, "review");
            assert_eq!(views, vec!["books".to_string()]);
        }
        other => panic!("expected DependentViews, got {other:?}"),
    }
    // The table is untouched.
    assert_eq!(db.row_count("review"), 2);
}

#[test]
fn ddl_allowed_after_dependent_view_dropped() {
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    c.drop_view("books").unwrap();
    // review has no FK referrers, so the engine accepts the drop once the
    // catalog stops guarding it.
    c.execute_guarded(&mut db, "DROP TABLE review").expect("no dependents left");
    assert!(db.schema().table("review").is_none());
}

#[test]
fn non_ddl_statements_pass_the_guard() {
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    let out = c
        .execute_guarded(&mut db, "INSERT INTO review VALUES ('98003', '009', 'ok', 'Ann')")
        .expect("DML is not guarded");
    assert_eq!(out.affected, 1);
}

#[test]
fn dependents_of_tracks_view_relations() {
    let c = book_catalog();
    assert_eq!(c.dependents_of("BOOK"), vec!["books".to_string()]);
    assert!(c.dependents_of("nation").is_empty());
}

/// The acceptance bar: a mixed batch's per-update outcomes must be exactly
/// the single-shot `check` outcomes, fixture by fixture.
#[test]
fn mixed_batch_matches_single_shot_on_book_fixtures() {
    let c = book_catalog();
    let filter = bookdemo::book_filter();

    // u8 (unconditionally translatable), u10 (untranslatable), u13
    // (translatable insert), plus a repeat of u8 to exercise the caches.
    let stream: Vec<(String, String)> = [bookdemo::U8, bookdemo::U10, bookdemo::U13, bookdemo::U8]
        .iter()
        .map(|u| ("books".to_string(), u.to_string()))
        .collect();

    let mut batch_db = bookdemo::book_db();
    let batch = c.check_batch_text(&stream, &mut batch_db);
    assert_eq!(batch.items.len(), 4);
    assert_eq!(batch.stats.parse_hits, 1, "the repeated u8 text parses once");
    assert!(batch.stats.probe_hits > 0, "the repeated u8 probe comes from cache");

    for (i, (_, text)) in stream.iter().enumerate() {
        let mut single_db = bookdemo::book_db();
        let single = filter.check(text, &mut single_db);
        let batched = &batch.items[i];
        assert_eq!(batched.index, i);
        assert_eq!(single.len(), batched.reports.len(), "item {i}: action count");
        for (s, b) in single.iter().zip(&batched.reports) {
            assert_eq!(s.outcome, b.outcome, "item {i}: outcome diverged");
        }
    }
}

/// Unknown views and unparsable updates degrade to per-item invalid
/// reports; the rest of the batch is unaffected.
#[test]
fn bad_items_do_not_abort_the_batch() {
    let c = book_catalog();
    let mut db = bookdemo::book_db();
    let stream = vec![
        ("nosuch".to_string(), bookdemo::U8.to_string()),
        ("books".to_string(), "FOR gibberish".to_string()),
        ("books".to_string(), bookdemo::U8.to_string()),
    ];
    let batch = c.check_batch_text(&stream, &mut db);
    assert!(matches!(batch.items[0].reports[0].outcome, CheckOutcome::Invalid(_)));
    assert!(matches!(batch.items[1].reports[0].outcome, CheckOutcome::Invalid(_)));
    assert!(batch.items[2].reports[0].outcome.is_translatable());
}

/// Batch outcomes on a generated TPC-H stream are identical to per-update
/// single-shot checks across all three catalog views.
#[test]
fn tpch_stream_batch_matches_single_shot() {
    let scale = Scale::tiny();
    let db = generate(scale, 11, DeletePolicy::Cascade);
    let mut catalog = ViewCatalog::new(db.schema().clone());
    for (name, text) in stream_views() {
        catalog.add(name, text).unwrap();
    }

    let s = stream(StreamSpec { len: 40, distinct_keys: 5 }, scale, 11);
    let mut batch_db = db.clone();
    let batch = catalog.check_batch_text(&s, &mut batch_db);
    assert_eq!(batch.items.len(), s.len());
    assert!(batch.stats.probe_hits > 0, "a 5-key pool must produce probe reuse");
    assert!(batch.stats.target_groups < s.len(), "grouping must collapse targets");

    for (i, (view, text)) in s.iter().enumerate() {
        let mut single_db = db.clone();
        let single = catalog.get(view).unwrap().check(text, &mut single_db);
        let batched = &batch.items[i];
        assert_eq!(single.len(), batched.reports.len(), "item {i}: action count");
        for (sr, br) in single.iter().zip(&batched.reports) {
            assert_eq!(sr.outcome, br.outcome, "item {i} ({view}): outcome diverged\n{text}");
        }
    }
}

/// list() reports names in order with their dependency sets.
#[test]
fn list_reports_relations() {
    let mut c = book_catalog();
    c.add("books2", bookdemo::BOOK_VIEW).unwrap();
    let infos = c.list();
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "books");
    assert!(infos[0].relations.iter().any(|r| r == "book"));
    assert!(infos[1].cached);
}

/// A `with_config` change must never be served a cache artifact compiled
/// under a different mode/strategy.
#[test]
fn compile_cache_is_config_aware() {
    use ufilter_core::{StarMode, Strategy, UFilterConfig};
    let mut c = book_catalog();
    let mut strict = std::mem::replace(&mut c, ViewCatalog::new(bookdemo::book_schema()))
        .with_config(UFilterConfig { mode: StarMode::Strict, strategy: Strategy::Hybrid });
    let info = strict.add("books2", bookdemo::BOOK_VIEW).unwrap();
    assert!(!info.cached, "different config must recompile");
    assert_eq!(strict.get("books2").unwrap().config.mode, StarMode::Strict);
    // Same config again: now it hits.
    let info = strict.add("books3", bookdemo::BOOK_VIEW).unwrap();
    assert!(info.cached);
}

/// After guarded DDL goes through, the catalog compiles later views against
/// the *current* schema, not the snapshot taken at construction.
#[test]
fn execute_guarded_refreshes_the_schema_snapshot() {
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    c.execute_guarded(
        &mut db,
        "CREATE TABLE extra( id VARCHAR2(5), CONSTRAINTS EPK PRIMARYKEY (id))",
    )
    .expect("new table passes the guard");
    let v = r#"<V>FOR $x IN document("default.xml")/extra/row RETURN {<e>$x/id</e>}</V>"#;
    let info = c.add("vextra", v).expect("view over the new relation compiles");
    assert_eq!(info.relations, vec!["extra".to_string()]);
    assert_eq!(c.dependents_of("extra"), vec!["vextra".to_string()]);
}

/// The determinism guarantee: every name list the catalog returns —
/// `list`, `dependents_of`, `route_update` — is ascending-name-sorted,
/// regardless of registration order.
#[test]
fn name_lists_are_sorted_regardless_of_registration_order() {
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    for name in ["zeta", "alpha", "mid", "beta"] {
        c.add(name, bookdemo::BOOK_VIEW).unwrap();
    }
    let expected = ["alpha", "beta", "mid", "zeta"];
    let listed: Vec<String> = c.list().into_iter().map(|v| v.name).collect();
    assert_eq!(listed, expected);
    assert_eq!(c.dependents_of("book"), expected);
    assert_eq!(c.dependents_of("REVIEW"), expected, "dependency lookup is case-insensitive");
    let u = ufilter_xquery::parse_update(bookdemo::U8).unwrap();
    assert_eq!(c.route_update(&u).candidates, expected);
    // Dropping from the middle keeps the rest sorted.
    c.drop_view("beta").unwrap();
    assert_eq!(c.dependents_of("book"), ["alpha", "mid", "zeta"]);
    assert_eq!(c.route_update(&u).candidates, ["alpha", "mid", "zeta"]);
}

/// `check_all` runs the identical pipeline on candidates: its wire
/// outcomes per candidate equal a direct per-view `check`.
#[test]
fn check_all_candidates_match_direct_checks() {
    use ufilter_core::wire::encode_outcome;
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    c.add("books", bookdemo::BOOK_VIEW).unwrap();
    for (name, text) in bookdemo::book_view_variants(6) {
        c.add(&name, &text).unwrap();
    }
    for (_, update) in bookdemo::all_updates() {
        let mut db = bookdemo::book_db();
        let report = c.check_all(update, &mut db);
        for item in &report.items {
            let mut db2 = bookdemo::book_db();
            let direct = c.get(&item.view).unwrap().check(update, &mut db2);
            assert_eq!(
                item.reports.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                direct.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>(),
                "{}: fan-out diverged from a direct check",
                item.view
            );
        }
        assert_eq!(
            report.fanout.candidates + report.fanout.pruned,
            report.fanout.views * report.fanout.fanout_requests,
            "candidates + pruned must account for every view"
        );
    }
}

/// `check` must stay side-effect-free even under the hybrid strategy
/// with the caller already holding a transaction (the one case where the
/// strategy's execute-and-rollback trick cannot run in place).
#[test]
fn hybrid_check_batch_inside_caller_transaction_is_side_effect_free() {
    use ufilter_core::{Strategy, UFilterConfig};
    let mut c = ViewCatalog::new(bookdemo::book_schema())
        .with_config(UFilterConfig { strategy: Strategy::Hybrid, ..Default::default() });
    c.add("books", bookdemo::BOOK_VIEW).unwrap();

    let mut db = bookdemo::book_db();
    let before = db.dump();
    db.begin().unwrap();
    let stream = vec![
        ("books".to_string(), bookdemo::U8.to_string()),
        ("books".to_string(), bookdemo::U13.to_string()),
    ];
    let batch = c.check_batch_text(&stream, &mut db);
    assert!(batch.items[0].reports[0].outcome.is_translatable());
    assert!(batch.items[1].reports[0].outcome.is_translatable());
    db.commit().unwrap();
    assert_eq!(db.dump(), before, "check-only batch must not mutate the database");
}

/// After guarded DDL changes the schema, the compile-once cache must not
/// resurrect artifacts compiled against the old schema.
#[test]
fn compile_cache_cleared_by_guarded_ddl() {
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    c.drop_view("books").unwrap();
    c.execute_guarded(&mut db, "DROP TABLE review").expect("no dependents");
    // Re-adding the same text must recompile against the current schema
    // and fail (BookView reads the dropped `review` relation) — not hit
    // the stale cache and register a view over a missing table.
    match c.add("books", bookdemo::BOOK_VIEW) {
        Err(CatalogError::Compile { error, .. }) => assert_eq!(error.cause(), "asg"),
        other => panic!("expected a Compile error against the new schema, got {other:?}"),
    }
}

/// Comments lex as whitespace, so two views differing only in `(: … :)`
/// comments are the same view — one compile-cache entry, not two.
#[test]
fn comments_share_compile_cache_entries() {
    let mut c = book_catalog();
    let commented = format!(
        "(: leading (: nested :) comment :)\n{}\n(: trailing :)",
        bookdemo::BOOK_VIEW.replace("RETURN{", "(: inline, (: nested :) before return :)RETURN{")
    );
    let info = c.add("books_commented", &commented).unwrap();
    assert!(info.cached, "comment-only differences must hit the compile cache");
    assert_eq!(c.compile_cache_hits(), 1);
}

/// `(:` inside a string literal is data, not a comment opener: stripping
/// it would silently change the view (and key two different views alike).
#[test]
fn comment_markers_inside_literals_are_data() {
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    let a = r#"<V>FOR $b IN document("default.xml")/book/row WHERE $b/title = "x" RETURN {<book>$b/bookid</book>}</V>"#;
    let b = r#"<V>FOR $b IN document("default.xml")/book/row WHERE $b/title = "(: x :)" RETURN {<book>$b/bookid</book>}</V>"#;
    c.add("va", a).unwrap();
    let info = c.add("vb", b).unwrap();
    assert!(!info.cached, "literal content differs; must recompile");
    // And the literal-bearing view still compiles (the "comment" survived
    // stripping to reach the parser as a string).
    assert_eq!(c.len(), 2);
}

/// Regression: a probe result cached before a schema change must not
/// answer a probe issued after it. Scenario: check (cache fills) → drop
/// view → guarded DDL drops and re-creates the base tables empty → re-add
/// view → re-check the same update with the SAME cache. Fresh truth: the
/// context element no longer exists (tables are empty), so the update is
/// untranslatable at the data-context step; a stale cache would replay the
/// old probe rows and accept it.
#[test]
fn stale_probe_cache_does_not_survive_schema_change() {
    use ufilter_core::ProbeCache;
    let mut c = book_catalog();
    let mut db = bookdemo::book_db();
    let mut cache = ProbeCache::new();
    let stream = [(Target::View("books"), bookdemo::U8)];

    let first = c.check(&stream, &mut db, &mut cache);
    assert!(first.items[0].reports[0].outcome.is_translatable(), "u8 accepted on real data");

    // Tear the world down: unguard, drop (FK leaves first), re-create empty.
    c.drop_view("books").unwrap();
    for t in ["review", "book", "publisher"] {
        c.execute_guarded(&mut db, &format!("DROP TABLE {t}")).expect("unguarded drop");
    }
    for stmt in bookdemo::ddl("CASCADE") {
        c.execute_guarded(&mut db, &stmt).expect("re-create");
    }
    c.add("books", bookdemo::BOOK_VIEW).expect("recompiles against the new schema");

    let second = c.check(&stream, &mut db, &mut cache);
    let outcome = &second.items[0].reports[0].outcome;
    assert!(
        matches!(
            outcome,
            CheckOutcome::Untranslatable { step: ufilter_core::CheckStep::DataContext, .. }
        ),
        "stale probe cache survived the schema change: {outcome:?}"
    );
    // And the outcome equals a fresh-cache check, not merely "different".
    let fresh = c.check(&stream, &mut db, &mut ProbeCache::new());
    assert_eq!(
        ufilter_core::wire::encode_outcome(outcome),
        ufilter_core::wire::encode_outcome(&fresh.items[0].reports[0].outcome)
    );
}

/// The non-injective classification never reaches Step 3, so it can never
/// populate (or consult) the probe cache — there is no staleness channel
/// through aggregate-region outcomes.
#[test]
fn aggregate_classification_bypasses_the_probe_cache() {
    use ufilter_core::ProbeCache;
    let mut c = ViewCatalog::new(bookdemo::book_schema());
    c.add(
        "agg",
        "<V> FOR $b IN document(\"d\")/book/row \
         RETURN { <b> $b/bookid, <n> count(document(\"d\")/review/row) </n> </b> } </V>",
    )
    .expect("aggregate view compiles");
    let mut db = bookdemo::book_db();
    let mut cache = ProbeCache::new();
    let stream =
        [(Target::View("agg"), r#"FOR $b IN document("V.xml")/b UPDATE $b { DELETE $b }"#)];
    let report = c.check(&stream, &mut db, &mut cache);
    assert!(matches!(
        &report.items[0].reports[0].outcome,
        CheckOutcome::Untranslatable { step: ufilter_core::CheckStep::NonInjective, .. }
    ));
    assert_eq!(cache.hits() + cache.misses(), 0, "no probe ran for an aggregate rejection");
}

/// Malformed text (dangling `(:`) must never canonicalize down to a valid
/// view's cache key: it has to miss the cache and fail compilation.
#[test]
fn unterminated_comment_never_shares_a_cache_key() {
    let mut c = book_catalog();
    let malformed = format!("{} (: dangling", bookdemo::BOOK_VIEW);
    match c.add("broken", &malformed) {
        Err(CatalogError::Compile { name, .. }) => assert_eq!(name, "broken"),
        other => panic!("malformed view hit the compile cache: {other:?}"),
    }
    assert_eq!(c.len(), 1);
    assert_eq!(c.compile_cache_hits(), 0);
}

/// A replayed view compiles its recorded text at its first check. If the
/// base schema changed between runs, that compile fails: every check of
/// the view then reports why, and `get` finds no filter; nothing panics.
#[test]
fn replayed_view_that_no_longer_compiles_reports_its_error() {
    use ufilter_core::persist::{encode_artifact, LogRecord};
    use ufilter_core::{InvalidReason, ProbeCache, UFilter};
    use ufilter_route::ViewSignature;

    let filter = UFilter::compile(bookdemo::BOOK_VIEW, &bookdemo::book_schema()).unwrap();
    let record = LogRecord::Add {
        name: "books".into(),
        view_text: bookdemo::BOOK_VIEW.into(),
        deps: filter.asg.relations.clone(),
        cached: false,
        artifact: encode_artifact(filter.config, &ViewSignature::of(&filter.asg)),
    };
    // The next run starts from a base schema without `review`.
    let mut db = bookdemo::book_db();
    db.execute_script("DROP TABLE review").unwrap();
    let mut c = ViewCatalog::new(db.schema().clone());
    let stats = c.replay(&mut db, &[record]).unwrap();
    assert_eq!(stats.rehydrated, 1, "registered from its artifact, compile deferred");

    let batch = c.check(&[(Target::View("books"), bookdemo::U8)], &mut db, &mut ProbeCache::new());
    match &batch.items[0].reports[0].outcome {
        CheckOutcome::Invalid(InvalidReason::Malformed { detail }) => {
            assert!(detail.contains("no longer compiles"), "{detail}")
        }
        other => panic!("expected the compile error, got {other:?}"),
    }
    assert!(c.get("books").is_none());
    assert_eq!(c.hydrated_count(), 0);
}
