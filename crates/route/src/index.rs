//! The catalog-wide relevance index: per-view signatures plus inverted
//! tag/relation indexes, intersected against an update's [`Footprint`] at
//! three pruning levels.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ufilter_asg::{AsgNodeKind, ViewAsg};
use ufilter_rdb::sat::Domain;
use ufilter_rdb::{DataType, Value};
use ufilter_xquery::UpdateStmt;

use crate::footprint::Footprint;

/// One predicate resolution target in [`ViewSignature::leaf_domains`]:
/// `(leaf type, merged check domain, satisfiability type hint)` — the
/// type the literal is coerced to, the domain Step-1 validation folds
/// predicates into (the first leaf in ASG id order sharing the resolved
/// leaf's column — validation re-looks the column up, so this can differ
/// from the resolved leaf's own), and the type hint validation passes to
/// the satisfiability check. Captured so the level-3 test mirrors
/// `predicates_overlap_view` exactly.
pub type LeafTarget = (DataType, Domain, DataType);

/// The routing-relevant signature of one compiled view, extracted from its
/// (STAR-marked) ASG at registration time.
///
/// Every collection is a strictly ascending vector (`leaf_domains` by tag):
/// the routing levels binary-search them, and equal signatures serialize
/// to equal bytes. `ufilter-core`'s persistence layer writes the five
/// collections, in this order, into each view's artifact, and a warm
/// restart indexes the view from them (through
/// [`from_sorted`](Self::from_sorted)) without touching an ASG.
#[derive(Debug, Clone)]
pub struct ViewSignature {
    /// Lower-cased tags of every addressable (non-root, non-leaf) node.
    pub(crate) tokens: Vec<String>,
    /// Lower-cased parent→child tag edges between addressable nodes.
    pub(crate) edges: Vec<(String, String)>,
    /// Lower-cased tags of the root's direct element children.
    pub(crate) root_children: Vec<String>,
    /// Per addressable tag, the leaf-backed resolution targets a predicate
    /// on that tag could reach, in extraction order (an empty vec ⇒ the tag
    /// exists but never reaches a value).
    pub(crate) leaf_domains: Vec<(String, Vec<LeafTarget>)>,
    /// Lower-cased base relations the view reads (`rel(DEF_V)`).
    pub(crate) relations: Vec<String>,
}

impl ViewSignature {
    /// Extract the signature of `asg`.
    pub fn of(asg: &ViewAsg) -> ViewSignature {
        let mut tokens = BTreeSet::new();
        let mut edges = BTreeSet::new();
        let mut root_children = BTreeSet::new();
        let mut leaf_domains: BTreeMap<String, Vec<LeafTarget>> = BTreeMap::new();
        for n in asg.iter() {
            // Aggregate (`vA`) nodes are skipped like leaves: their tags are
            // synthetic (`count(bid.amount)`) and unaddressable by update
            // paths, so they add no routing vocabulary. Their *parent*
            // elements are ordinary internal/tag nodes and index normally,
            // which keeps every update that could reach an aggregate region
            // routed to the view (the non-injective classification then
            // rejects it with a precise reason — never a silent prune).
            if matches!(n.kind, AsgNodeKind::Root | AsgNodeKind::Leaf | AsgNodeKind::Aggregate) {
                continue;
            }
            let tag = n.tag.to_ascii_lowercase();
            tokens.insert(tag.clone());
            if let Some(p) = n.parent {
                let parent = asg.node(p);
                match parent.kind {
                    AsgNodeKind::Root => {
                        root_children.insert(tag.clone());
                    }
                    AsgNodeKind::Leaf => {}
                    _ => {
                        edges.insert((parent.tag.to_ascii_lowercase(), tag.clone()));
                    }
                }
            }
            // Level-3 material: the leaf a predicate path ending at this
            // node would reach (`find_leaf` semantics: the node's own leaf,
            // or a tag node's wrapped leaf child).
            let leaf = n.leaf.as_ref().or_else(|| {
                (n.kind == AsgNodeKind::Tag)
                    .then(|| n.children.iter().find_map(|c| asg.node(*c).leaf.as_ref()))
                    .flatten()
            });
            let entry = leaf_domains.entry(tag).or_default();
            if let Some(leaf) = leaf {
                // Validation re-resolves the column by name across the whole
                // ASG and takes the *first* match's annotations; mirror that.
                let validate_leaf = asg
                    .iter()
                    .find_map(|m| {
                        m.leaf
                            .as_ref()
                            .filter(|l| l.name.matches(&leaf.name.table, &leaf.name.column))
                    })
                    .unwrap_or(leaf);
                entry.push((leaf.ty, validate_leaf.check.clone(), validate_leaf.ty));
            }
        }
        let relations: BTreeSet<String> =
            asg.relations.iter().map(|r| r.to_ascii_lowercase()).collect();
        ViewSignature {
            tokens: tokens.into_iter().collect(),
            edges: edges.into_iter().collect(),
            root_children: root_children.into_iter().collect(),
            leaf_domains: leaf_domains.into_iter().collect(),
            relations: relations.into_iter().collect(),
        }
    }

    /// Assemble a signature from its five collections (the persistence
    /// layer decodes them from an artifact), refusing any that is not
    /// strictly ascending — `leaf_domains` by tag.
    pub fn from_sorted(
        tokens: Vec<String>,
        edges: Vec<(String, String)>,
        root_children: Vec<String>,
        leaf_domains: Vec<(String, Vec<LeafTarget>)>,
        relations: Vec<String>,
    ) -> Result<ViewSignature, String> {
        fn ascending<T, K: Ord + ?Sized>(items: &[T], key: impl Fn(&T) -> &K) -> bool {
            items.windows(2).all(|w| key(&w[0]) < key(&w[1]))
        }
        let sorted = ascending(&tokens, |t| t)
            && ascending(&edges, |e| e)
            && ascending(&root_children, |t| t)
            && ascending(&leaf_domains, |(tag, _)| tag)
            && ascending(&relations, |r| r);
        if !sorted {
            return Err("signature collection is not strictly ascending".into());
        }
        Ok(ViewSignature { tokens, edges, root_children, leaf_domains, relations })
    }

    /// Lower-cased tags of every addressable (non-root, non-leaf) node
    /// (level 1).
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Lower-cased parent→child tag edges between addressable nodes
    /// (level 2).
    pub fn edges(&self) -> &[(String, String)] {
        &self.edges
    }

    /// Lower-cased tags of the root's direct element children (level 2).
    pub fn root_children(&self) -> &[String] {
        &self.root_children
    }

    /// Per addressable tag, the resolution targets a predicate on that tag
    /// could reach (level 3).
    pub fn leaf_domains(&self) -> &[(String, Vec<LeafTarget>)] {
        &self.leaf_domains
    }

    /// Lower-cased base relations the view reads.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Level 2: do the update's path steps exist as ASG structure? (Level
    /// 1 — token coverage — is answered by the inverted index instead of a
    /// per-signature scan.)
    fn covers_paths(&self, fp: &Footprint) -> bool {
        fp.root_children.iter().all(|t| self.root_children.binary_search(t).is_ok())
            && fp.edges.iter().all(|e| self.edges.binary_search(e).is_ok())
    }

    /// Level 3: does every constant predicate leave at least one resolution
    /// target's merged check domain satisfiable? Mirrors Step 1's
    /// `predicates_overlap_view` (same typing, same domain, same hint).
    fn covers_predicates(&self, fp: &Footprint) -> bool {
        fp.predicates.iter().all(|(tag, op, value)| {
            let Ok(at) = self.leaf_domains.binary_search_by(|(t, _)| t.cmp(tag)) else {
                // Token was covered at level 1, so absence here cannot
                // happen for addressable tags; be conservative regardless.
                return true;
            };
            self.leaf_domains[at].1.iter().any(|(ty, domain, sat_ty)| {
                let typed = match value {
                    Value::Str(s) => Value::parse_as(s, *ty).unwrap_or_else(|| value.clone()),
                    other => other.clone().coerce(*ty),
                };
                let mut domain = domain.clone();
                domain.constrain(*op, &typed);
                domain.satisfiable(Some(*sat_ty))
            })
        })
    }
}

/// The result of routing one update through the index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    /// Views the update could possibly affect, in name order. Always a
    /// superset of the truly relevant views.
    pub candidates: Vec<String>,
    /// Total views in the index when the route was computed.
    pub views: usize,
    /// The update was unclassifiable; every view is a candidate and the
    /// per-view pipeline is the fallback classifier.
    pub fallback: bool,
}

impl Route {
    /// Views pruned without running the pipeline: every view that is not
    /// a candidate.
    pub fn pruned(&self) -> usize {
        self.views - self.candidates.len()
    }
}

/// Where a route's pruned views were pruned, level by level. Routing does
/// not compute it; [`TrieIndex::prune_levels`](crate::TrieIndex::prune_levels)
/// and [`RelevanceIndex::prune_levels`] do, on demand. The three counts add
/// up to [`Route::pruned`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneLevels {
    /// Views pruned at level 1 (missing tag vocabulary).
    pub tags: usize,
    /// Views pruned at level 2 (missing path structure).
    pub paths: usize,
    /// Views pruned at level 3 (contradicted constant predicates).
    pub preds: usize,
}

/// The shared relevance index over every registered view of a catalog.
///
/// Built incrementally — [`insert`](RelevanceIndex::insert) on `CATALOG
/// ADD`, [`remove`](RelevanceIndex::remove) on `CATALOG DROP` — never
/// rebuilt wholesale. See the [crate docs](crate) for the level design and
/// the soundness argument.
#[derive(Debug, Default)]
pub struct RelevanceIndex {
    views: BTreeMap<String, ViewSignature>,
    /// Inverted level-1 index: tag → views whose vocabulary contains it.
    tag_postings: HashMap<String, BTreeSet<String>>,
    /// Inverted relation index: relation → views reading it (level (a) —
    /// serves the catalog's dependency queries).
    rel_postings: HashMap<String, BTreeSet<String>>,
}

impl RelevanceIndex {
    /// An empty index.
    pub fn new() -> RelevanceIndex {
        RelevanceIndex::default()
    }

    /// Number of indexed views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Index `name`'s compiled ASG (replacing any previous signature under
    /// that name).
    pub fn insert(&mut self, name: &str, asg: &ViewAsg) {
        self.insert_signature(name, ViewSignature::of(asg));
    }

    /// Index `name` under a pre-extracted signature (replacing any previous
    /// one). Warm restarts use this with the signature deserialized from
    /// the view's persisted artifact, skipping the ASG walk of
    /// [`ViewSignature::of`] entirely.
    pub fn insert_signature(&mut self, name: &str, sig: ViewSignature) {
        self.remove(name);
        for token in &sig.tokens {
            self.tag_postings.entry(token.clone()).or_default().insert(name.to_string());
        }
        for rel in &sig.relations {
            self.rel_postings.entry(rel.clone()).or_default().insert(name.to_string());
        }
        self.views.insert(name.to_string(), sig);
    }

    /// Drop `name` from the index (a no-op if it was never inserted).
    pub fn remove(&mut self, name: &str) {
        let Some(sig) = self.views.remove(name) else { return };
        for token in &sig.tokens {
            if let Some(set) = self.tag_postings.get_mut(token) {
                set.remove(name);
                if set.is_empty() {
                    self.tag_postings.remove(token);
                }
            }
        }
        for rel in &sig.relations {
            if let Some(set) = self.rel_postings.get_mut(rel) {
                set.remove(name);
                if set.is_empty() {
                    self.rel_postings.remove(rel);
                }
            }
        }
    }

    /// The signature indexed under `name`.
    pub fn signature(&self, name: &str) -> Option<&ViewSignature> {
        self.views.get(name)
    }

    /// Views reading `relation` (case-insensitive), in name order — the
    /// inverted dependency query behind the catalog's RESTRICT DDL guard.
    pub fn views_reading(&self, relation: &str) -> Vec<String> {
        self.rel_postings
            .get(&relation.to_ascii_lowercase())
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Route a parsed update: compute its footprint and intersect it with
    /// every level of the index. Candidates come back in name order.
    pub fn route(&self, u: &UpdateStmt) -> Route {
        self.route_footprint(&Footprint::of(u))
    }

    /// [`route`](Self::route) for a pre-extracted footprint.
    pub fn route_footprint(&self, fp: &Footprint) -> Route {
        let views = self.views.len();
        if fp.fallback {
            return Route {
                candidates: self.views.keys().cloned().collect(),
                views,
                fallback: true,
            };
        }
        Route { candidates: self.walk(fp).0, views, fallback: false }
    }

    /// How many views each level prunes for `fp` (all zero for a fallback
    /// footprint) — the oracle for
    /// [`TrieIndex::prune_levels`](crate::TrieIndex::prune_levels).
    pub fn prune_levels(&self, fp: &Footprint) -> PruneLevels {
        if fp.fallback {
            return PruneLevels::default();
        }
        self.walk(fp).1
    }

    /// The level-by-level walk: level 1 through the inverted index, then
    /// each survivor's paths and predicates. Candidates come back in name
    /// order.
    fn walk(&self, fp: &Footprint) -> (Vec<String>, PruneLevels) {
        let survivors: Vec<(&String, &ViewSignature)> = match self.level1(fp) {
            Some(names) => names.into_iter().map(|n| (n, &self.views[n])).collect(),
            None => Vec::new(),
        };
        let mut levels =
            PruneLevels { tags: self.views.len() - survivors.len(), ..PruneLevels::default() };
        let mut candidates = Vec::with_capacity(survivors.len());
        for (name, sig) in survivors {
            if !sig.covers_paths(fp) {
                levels.paths += 1;
            } else if !sig.covers_predicates(fp) {
                levels.preds += 1;
            } else {
                candidates.push(name.clone());
            }
        }
        (candidates, levels) // BTreeMap order ⇒ already name-sorted
    }

    /// Level-1 intersection. `None` when some token has no postings at all.
    fn level1(&self, fp: &Footprint) -> Option<Vec<&String>> {
        if fp.tokens.is_empty() {
            return Some(self.views.keys().collect());
        }
        let mut postings: Vec<&BTreeSet<String>> = Vec::with_capacity(fp.tokens.len());
        for token in &fp.tokens {
            postings.push(self.tag_postings.get(token)?);
        }
        postings.sort_by_key(|p| p.len());
        let (first, rest) = postings.split_first().expect("tokens is non-empty");
        Some(first.iter().filter(|name| rest.iter().all(|p| p.contains(*name))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_asg::build_view_asg;
    use ufilter_rdb::Db;
    use ufilter_xquery::{parse_update, parse_view_query};

    fn db() -> Db {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE book(bookid VARCHAR2(10), title VARCHAR2(50) NOT NULL, \
               price DOUBLE CHECK (price > 0.00), CONSTRAINTS bpk PRIMARYKEY (bookid)); \
             CREATE TABLE review(bookid VARCHAR2(10), reviewid VARCHAR2(3), \
               CONSTRAINTS rpk PRIMARYKEY (bookid, reviewid), \
               FOREIGNKEY (bookid) REFERENCES book (bookid) ON DELETE CASCADE); \
             CREATE TABLE author(name VARCHAR2(50), CONSTRAINTS apk PRIMARYKEY (name))",
        )
        .expect("test DDL");
        db
    }

    fn asg(db: &Db, text: &str) -> ViewAsg {
        build_view_asg(&parse_view_query(text).expect("view parses"), db.schema())
            .expect("view compiles")
    }

    const BOOKS_CHEAP: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price < 20.00
RETURN { <book> $b/bookid, $b/title, $b/price,
FOR $r IN document("d.xml")/review/row
WHERE $b/bookid = $r/bookid
RETURN { <review> $r/reviewid </review> }
</book> } </V>"#;

    const BOOKS_DEAR: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price >= 20.00
RETURN { <book> $b/bookid, $b/title, $b/price </book> } </V>"#;

    const AUTHORS: &str = r#"<V>
FOR $a IN document("d.xml")/author/row
RETURN { <author> $a/name </author> } </V>"#;

    fn index() -> RelevanceIndex {
        let db = db();
        let mut idx = RelevanceIndex::new();
        idx.insert("cheap", &asg(&db, BOOKS_CHEAP));
        idx.insert("dear", &asg(&db, BOOKS_DEAR));
        idx.insert("authors", &asg(&db, AUTHORS));
        idx
    }

    fn route(idx: &RelevanceIndex, update: &str) -> Route {
        idx.route(&parse_update(update).unwrap())
    }

    fn levels(idx: &RelevanceIndex, update: &str) -> PruneLevels {
        idx.prune_levels(&Footprint::of(&parse_update(update).unwrap()))
    }

    #[test]
    fn tag_level_prunes_views_without_the_vocabulary() {
        let idx = index();
        let update = r#"FOR $a IN document("V.xml")/author UPDATE $a { DELETE $a/name }"#;
        let r = route(&idx, update);
        assert_eq!(r.candidates, ["authors"]);
        assert_eq!(r.pruned(), 2);
        assert_eq!(levels(&idx, update), PruneLevels { tags: 2, paths: 0, preds: 0 });
        assert!(!r.fallback);
    }

    #[test]
    fn path_level_prunes_views_without_the_edge() {
        let idx = index();
        // <review> only occurs under <book> in "cheap"; "dear" has book but
        // no review at all (tag level), "authors" has neither.
        let r = route(&idx, r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/review }"#);
        assert_eq!(r.candidates, ["cheap"]);
    }

    #[test]
    fn predicate_level_prunes_contradicted_partitions() {
        let idx = index();
        let update = r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 35.00
UPDATE $b { DELETE $b/title }"#;
        let r = route(&idx, update);
        assert_eq!(r.candidates, ["dear"], "price 35 contradicts cheap's < 20 domain");
        assert_eq!(levels(&idx, update), PruneLevels { tags: 1, paths: 0, preds: 1 });
    }

    #[test]
    fn fallback_routes_to_every_view() {
        let idx = index();
        let r = route(
            &idx,
            r#"FOR $a IN document("V.xml")/book, $b IN document("V.xml")/book
WHERE $a/bookid = $b/bookid
UPDATE $a { DELETE $a/review }"#,
        );
        assert!(r.fallback);
        assert_eq!(r.candidates, ["authors", "cheap", "dear"]);
        assert_eq!(r.pruned(), 0);
    }

    #[test]
    fn remove_unindexes_and_candidates_stay_sorted() {
        let mut idx = index();
        idx.remove("cheap");
        assert_eq!(idx.len(), 2);
        let r = route(&idx, r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/title }"#);
        assert_eq!(r.candidates, ["dear"]);
        assert!(idx.views_reading("book").contains(&"dear".to_string()));
        assert!(!idx.views_reading("book").contains(&"cheap".to_string()));
        idx.remove("no-such-view"); // no-op
    }

    #[test]
    fn from_sorted_refuses_unordered_collections() {
        let sig = ViewSignature::of(&asg(&db(), BOOKS_CHEAP));
        let with_tokens = |tokens: Vec<String>| {
            ViewSignature::from_sorted(
                tokens,
                sig.edges().to_vec(),
                sig.root_children().to_vec(),
                sig.leaf_domains().to_vec(),
                sig.relations().to_vec(),
            )
        };
        assert!(with_tokens(sig.tokens().to_vec()).is_ok());
        let mut reversed = sig.tokens().to_vec();
        reversed.reverse();
        assert!(with_tokens(reversed).is_err(), "descending tokens");
        let doubled = vec![sig.tokens()[0].clone(), sig.tokens()[0].clone()];
        assert!(with_tokens(doubled).is_err(), "duplicate token");
    }

    #[test]
    fn relation_postings_answer_dependency_queries_in_name_order() {
        let idx = index();
        assert_eq!(idx.views_reading("BOOK"), ["cheap", "dear"]);
        assert_eq!(idx.views_reading("review"), ["cheap"]);
        assert!(idx.views_reading("nothing").is_empty());
    }
}
