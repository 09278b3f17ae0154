//! # ufilter-route — shared relevance index for catalog-wide update fan-out
//!
//! U-Filter's whole point is rejecting untranslatable updates *cheaply,
//! before* translation. This crate pushes the same idea one level up: with
//! a thousand views registered, checking one update against each of them is
//! a thousand validate→STAR pipelines, almost all of which end in a trivial
//! "this update does not even address this view". The routing index
//! decides that *statically*, from the compiled view ASGs alone, so the
//! full per-view pipeline only runs on the candidate views that could
//! possibly be affected — the static query-update-independence move of the
//! type-based and rewrite-based independence literature, specialised to the
//! paper's ASG artifacts.
//!
//! Two implementations share the signature/footprint contract: the
//! [`TrieIndex`] (production — every view's signature posted into one
//! shared map of compact integer posting lists, built for 10^5–10^6-view
//! catalogs) and the original per-view [`RelevanceIndex`] (retained as the
//! linear-walk differential oracle). Both route to identical [`Route`]s
//! and split the pruned views into identical per-level [`PruneLevels`];
//! the workspace's `tests/route_soundness.rs` and the `ufilter-fuzz`
//! routing stage hold them to both equalities on randomized and
//! grammar-fuzzed streams with add/drop churn.
//!
//! ## Index levels
//!
//! Each registered view contributes a [`ViewSignature`] extracted from its
//! compiled ASG; an incoming [`ufilter_xquery::UpdateStmt`] is distilled
//! into a [`Footprint`]. A view stays a candidate only if it meets the
//! footprint's requirements at all three levels (the trie checks them in
//! one intersection, rarest requirement first; [`PruneLevels`] reports
//! which level pruned each view):
//!
//! 1. **Tag vocabulary** — an inverted index from element tag to the views
//!    whose ASG contains it. Every tag the update names (binding steps,
//!    predicate paths, action paths, insert-fragment roots) must appear in
//!    a view's vocabulary, or target resolution is guaranteed to fail with
//!    an unknown-target/hierarchy invalidity.
//! 2. **Path structure** — the set of parent→child tag edges of the ASG
//!    (plus the root's direct children). Consecutive steps of every update
//!    path must exist as edges; a `document(…)/tag` binding's first step
//!    must be a root child; an inserted fragment's root tag must be a
//!    child of the update's (statically known) context tag.
//! 3. **Constant predicates** — each update predicate
//!    `path θ literal` is tested against the merged check-annotation
//!    domains of every leaf the path could resolve to, mirroring Step 1's
//!    `predicates_overlap_view` exactly. If no resolution target leaves the
//!    domain satisfiable, the per-view check is guaranteed to end in a
//!    `PredicateOutsideView` invalidity.
//!
//! A fourth inverted index — base **relation** → views reading it, level
//! (a) of the design — serves the catalog's dependency queries (`DROP
//! TABLE … RESTRICT` guarding, `dependents_of`) without a linear scan.
//!
//! ## Soundness
//!
//! Every level only ever prunes a view when the full pipeline is
//! *guaranteed* to classify the update as statically irrelevant to it —
//! an `Invalid` outcome with reason `UnknownTarget`, `HierarchyViolation`
//! or `PredicateOutsideView` (see [`wire_outcome_is_irrelevant`]). The
//! candidate set is therefore always a **superset** of the truly relevant
//! views, and running the unchanged per-view pipeline on the candidates
//! yields byte-identical outcomes to the brute-force baseline (the same
//! update checked against every view) minus provably-irrelevant entries. Updates the extractor cannot classify
//! (unbound variables, correlation predicates — shapes the resolver
//! rejects identically for every view) fall back to "all views are
//! candidates" ([`Route::fallback`]), so no classification is ever
//! guessed. The differential property test in the workspace root
//! (`tests/route_soundness.rs`) holds this superset-and-identical-outcomes
//! contract against randomized TPC-H update streams.
//!
//! ```
//! use ufilter_asg::build_view_asg;
//! use ufilter_rdb::Db;
//! use ufilter_route::RelevanceIndex;
//! use ufilter_xquery::{parse_update, parse_view_query};
//!
//! let mut db = Db::new();
//! db.execute_script(
//!     "CREATE TABLE book(bookid VARCHAR2(10), title VARCHAR2(50) NOT NULL, \
//!        CONSTRAINTS bpk PRIMARYKEY (bookid)); \
//!      CREATE TABLE author(name VARCHAR2(50), CONSTRAINTS apk PRIMARYKEY (name))",
//! )
//! .unwrap();
//! let compile = |text: &str| {
//!     build_view_asg(&parse_view_query(text).unwrap(), db.schema()).unwrap()
//! };
//! let books = compile(
//!     r#"<V> FOR $b IN document("d.xml")/book/row
//!        RETURN { <book> $b/bookid, $b/title </book> } </V>"#,
//! );
//! let authors = compile(
//!     r#"<V> FOR $a IN document("d.xml")/author/row
//!        RETURN { <author> $a/name </author> } </V>"#,
//! );
//!
//! let mut index = RelevanceIndex::new();
//! index.insert("books", &books);
//! index.insert("authors", &authors);
//! let u = parse_update(
//!     r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/title }"#,
//! )
//! .unwrap();
//! let route = index.route(&u);
//! assert_eq!(route.candidates, ["books"]); // "authors" pruned at the tag level
//! ```

#![warn(missing_docs)]

mod footprint;
mod index;
mod overlap;
mod postings;
mod trie;

pub use footprint::Footprint;
pub use index::{LeafTarget, PruneLevels, RelevanceIndex, Route, ViewSignature};
pub use overlap::{constant_preds_disjoint, ConstPred};
pub use postings::IndexStats;
pub use trie::TrieIndex;

/// Whether a check outcome proves the update was *statically irrelevant*
/// to the view it was checked against: target resolution or Step-1
/// validation rejected it for a reason derivable from the view schema
/// alone (the update addresses structure the view does not have, or its
/// predicates contradict the view's domain). This is the exact class of
/// outcomes the [`RelevanceIndex`] is allowed to prune — everything else
/// (malformed updates, STAR rejections, data-dependent failures,
/// translatable updates) must survive routing.
///
/// The function is generic over the outcome's wire prefix so this crate
/// stays independent of `ufilter-core`: pass the
/// `ufilter_core::wire::encode_outcome` line (or any string starting with
/// the same `invalid <reason-code>` tokens).
pub fn wire_outcome_is_irrelevant(wire_line: &str) -> bool {
    let mut parts = wire_line.split(' ');
    if parts.next() != Some("invalid") {
        return false;
    }
    matches!(
        parts.next(),
        Some("unknown-target") | Some("hierarchy-violation") | Some("predicate-outside-view")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irrelevance_classes_match_the_wire_codes() {
        assert!(wire_outcome_is_irrelevant("invalid unknown-target no%20such%20tag"));
        assert!(wire_outcome_is_irrelevant("invalid hierarchy-violation detail"));
        assert!(wire_outcome_is_irrelevant("invalid predicate-outside-view detail"));
        assert!(!wire_outcome_is_irrelevant("invalid malformed detail"));
        assert!(!wire_outcome_is_irrelevant("invalid not-null-violation detail"));
        assert!(!wire_outcome_is_irrelevant("untranslatable star reason"));
        assert!(!wire_outcome_is_irrelevant("translatable"));
    }
}
