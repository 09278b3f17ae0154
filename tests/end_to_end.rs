//! Cross-crate integration tests: the full stack from DDL text through view
//! compilation, update checking, translation, execution and rectangle-rule
//! verification.

use u_filter::core::bookdemo;
use u_filter::xquery::{apply_update, materialize};
use u_filter::{
    apply_and_verify, blind_apply, CheckOutcome, RectangleVerdict, StarMode, Strategy, UFilter,
    UFilterConfig,
};

#[test]
fn full_stack_u13_produces_paper_u1_sql() {
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let report = filter.check(bookdemo::U13, &mut db).remove(0);
    let CheckOutcome::Translatable { translation, .. } = report.outcome else {
        panic!("u13 must be translatable");
    };
    let sql: Vec<String> = translation.iter().map(|s| s.to_string()).collect();
    // §6.1's U1 = INSERT INTO review VALUES "98003", "001", "easy read and useful"
    assert_eq!(sql.len(), 1);
    assert!(sql[0].contains("INSERT INTO review"));
    assert!(sql[0].contains("'98003'"));
    assert!(sql[0].contains("'001'"));
    assert!(sql[0].contains("'Easy read and useful.'"));
}

#[test]
fn all_strategies_satisfy_rectangle_rule_on_accepted_updates() {
    for strategy in [Strategy::Outside, Strategy::Hybrid, Strategy::Internal] {
        for (name, update) in bookdemo::all_updates() {
            // The internal strategy's relational view only supports the
            // standard shapes; skip replace-style composites it can't map.
            let filter = bookdemo::book_filter()
                .with_config(UFilterConfig { mode: StarMode::Refined, strategy });
            let mut db = bookdemo::book_db();
            let Ok((accepted, verdict)) = apply_and_verify(&filter, update, &mut db) else {
                continue;
            };
            if accepted {
                assert_eq!(
                    verdict,
                    Some(RectangleVerdict::Holds),
                    "{name} under {strategy:?} violated the rectangle rule"
                );
            }
        }
    }
}

#[test]
fn all_strategies_accept_the_same_updates() {
    for mode in [StarMode::Strict, StarMode::Refined] {
        let accepted = |strategy| {
            let filter = bookdemo::book_filter().with_config(UFilterConfig { mode, strategy });
            let mut names = Vec::new();
            for (name, update) in bookdemo::all_updates() {
                let mut db = bookdemo::book_db();
                if let Ok((true, verdict)) = apply_and_verify(&filter, update, &mut db) {
                    assert_eq!(verdict, Some(RectangleVerdict::Holds), "{name} under {strategy:?}");
                    names.push(name);
                }
            }
            names
        };
        let outside = accepted(Strategy::Outside);
        assert_eq!(outside, ["u8", "u9", "u12", "u13"], "{mode:?}");
        for strategy in [Strategy::Hybrid, Strategy::Internal] {
            assert_eq!(accepted(strategy), outside, "{strategy:?} under {mode:?}");
        }
    }
}

#[test]
fn replace_is_delete_plus_insert() {
    // REPLACE a review with a new one: both actions must check and the
    // final view must show the replacement.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let replace = r#"
FOR $book IN document("BookView.xml")/book, $review IN $book/review
WHERE $review/reviewid/text() = "002"
UPDATE $book {
REPLACE $review WITH
<review><reviewid>009</reviewid><comment>Rewritten.</comment></review>}"#;
    let reports = filter.apply(replace, &mut db);
    assert_eq!(reports.len(), 2, "replace resolves to delete + insert");
    assert!(reports.iter().all(|r| r.outcome.is_translatable()), "{:?}", reports[0].outcome);
    let rs = db.query_sql("SELECT reviewid FROM review WHERE bookid = '98001'").unwrap();
    let mut ids: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
    ids.sort();
    assert_eq!(ids, vec!["001", "009"]);
}

#[test]
fn multi_action_update_block() {
    // One UPDATE block carrying two actions.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let two_inserts = r#"
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book {
INSERT <review><reviewid>010</reviewid><comment>A</comment></review>,
INSERT <review><reviewid>011</reviewid><comment>B</comment></review>}"#;
    let reports = filter.apply(two_inserts, &mut db);
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.outcome.is_translatable()));
    assert_eq!(db.row_count("review"), 4);
}

#[test]
fn view_update_view_roundtrip_via_documents() {
    // Materialize → apply update on the document → compare against the
    // engine-side path, u8 end to end.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let u = filter.parse(bookdemo::U8).unwrap();
    let mut expected = materialize(&db, filter.query()).unwrap();
    apply_update(&mut expected, &u).unwrap();

    let report = filter.apply(bookdemo::U8, &mut db).remove(0);
    assert!(report.outcome.is_translatable());
    let regenerated = materialize(&db, filter.query()).unwrap();
    assert!(expected.subtree_eq_unordered(expected.root(), &regenerated, regenerated.root()));
}

#[test]
fn blind_baseline_commits_exactly_when_ufilter_accepts_deletes() {
    // On the book database, the blind baseline's verdict (rolled back or
    // not) must agree with U-Filter's for the delete updates — U-Filter
    // just reaches it without touching data.
    let filter = bookdemo::book_filter();
    for (name, update) in bookdemo::all_updates() {
        if !update.contains("DELETE") {
            continue;
        }
        let mut db1 = bookdemo::book_db();
        let report = filter.check(update, &mut db1).remove(0);
        // Skip updates rejected before translation exists (invalid or
        // context-missing): the blind runner cannot even translate some.
        let ufilter_accepts = report.outcome.is_translatable();
        let mut db2 = bookdemo::book_db();
        let Ok(blind) = blind_apply(&filter, update, &mut db2) else {
            continue;
        };
        if ufilter_accepts {
            assert!(!blind.rolled_back, "{name}: blind rolled back an update U-Filter accepts");
        }
    }
}

#[test]
fn default_view_round_trips_through_xml() {
    // DB → default XML view → parse(serialize) → structurally identical.
    let db = bookdemo::book_db();
    let doc = u_filter::xml::default_view(&db);
    let text = u_filter::xml::to_pretty_string(&doc, doc.root());
    let reparsed = u_filter::xml::parse(&text).unwrap();
    assert!(doc.subtree_eq(doc.root(), &reparsed, reparsed.root()));
    assert_eq!(doc.select(doc.root(), &["book", "row"]).len(), 3);
}

#[test]
fn compile_rejects_views_with_relative_sources() {
    let err = UFilter::compile(
        "<V> FOR $b IN document(\"d\")/book/row RETURN { \
           FOR $r IN $b/review RETURN { <x> $r/comment </x> } } </V>",
        &bookdemo::book_schema(),
    )
    .err()
    .expect("relative sources are outside the subset");
    assert!(err.to_string().contains("subset"), "{err}");
}

#[test]
fn checking_is_idempotent() {
    // Running check() twice (with its TAB materializations) must not change
    // classifications.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    for (name, update) in bookdemo::all_updates() {
        let a = filter.check(update, &mut db).remove(0).outcome.label();
        let b = filter.check(update, &mut db).remove(0).outcome.label();
        assert_eq!(a, b, "{name}: classification changed on re-check");
    }
}

#[test]
fn value_delete_translates_to_set_null() {
    // Deleting a nullable value with no view predicate over it (comment)
    // is valid and translates to SET NULL.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let u = r#"
FOR $book IN document("BookView.xml")/book, $review IN $book/review
WHERE $review/reviewid/text() = "001"
UPDATE $review { DELETE $review/comment }"#;
    let report = filter.apply(u, &mut db).remove(0);
    assert!(report.outcome.is_translatable(), "{}", report.outcome);
    let rs = db.query_sql("SELECT comment FROM review WHERE reviewid = '001'").unwrap();
    assert!(rs.rows[0][0].is_null());
}

#[test]
fn value_delete_under_view_predicate_rejected() {
    // Deleting <price> would nullify the view's `price < 50` predicate and
    // silently drop the whole book element — a side effect STAR catches.
    let filter = bookdemo::book_filter();
    let mut db = bookdemo::book_db();
    let u = r#"
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { DELETE $book/price }"#;
    let report = filter.check(u, &mut db).remove(0);
    assert!(!report.outcome.is_translatable(), "{}", report.outcome);
}
