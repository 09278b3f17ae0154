//! Translations on a relation with a composite primary key must touch only
//! the rows the update addresses. `review` is keyed on `(bookid,
//! reviewid)` and book 98001 has reviews 001 and 002, so a translation that
//! matched rows on `bookid` alone would rewrite or delete the sibling review
//! too, and Definition 1's rectangle would fail with a side effect.

use ufilter_core::{
    apply_and_verify, bookdemo, RectangleVerdict, Strategy, UFilter, UFilterConfig,
};

/// An update addressing review `id` of the flat review view, applying
/// `action` to it as `$x`.
fn on_review(id: &str, action: &str) -> String {
    format!(
        r#"FOR $x IN document("ReviewView.xml")/review
WHERE $x/reviewid/text() = "{id}"
UPDATE $x {{ {action} }}"#
    )
}

/// A root-context delete of review `id`, reached through `path`.
fn delete_review(id: &str, path: &str) -> String {
    format!(
        r#"FOR $root IN document("V.xml"),
    $r IN $root/{path}
WHERE $r/reviewid/text() = "{id}"
UPDATE $root {{ DELETE $r }}"#
    )
}

#[test]
fn composite_key_translations_leave_sibling_rows_alone() {
    for strategy in [Strategy::Outside, Strategy::Hybrid, Strategy::Internal] {
        let config = UFilterConfig { strategy, ..UFilterConfig::default() };
        let reviews = UFilter::compile(bookdemo::REVIEWS_ALL, &bookdemo::book_schema())
            .unwrap()
            .with_config(config);
        let books = bookdemo::book_filter().with_config(config);
        let cases = [
            (&reviews, on_review("001", "REPLACE $x/comment WITH <comment>changed</comment>")),
            (&reviews, on_review("001", "DELETE $x/comment")),
            (&reviews, on_review("001", "DELETE $x/reviewer")),
            (&reviews, delete_review("001", "review")),
            (&books, delete_review("002", "book/review")),
        ];
        for (filter, update) in cases {
            let mut db = bookdemo::book_db();
            let (accepted, verdict) = apply_and_verify(filter, &update, &mut db).unwrap();
            assert!(accepted, "checker rejected under {strategy:?}:\n{update}");
            assert_eq!(verdict, Some(RectangleVerdict::Holds), "{strategy:?}: {update}");
            let reviews = db.query_sql("SELECT reviewid FROM review").unwrap();
            assert_eq!(reviews.rows.len(), if update.contains("DELETE $r") { 1 } else { 2 });
        }
    }
}
