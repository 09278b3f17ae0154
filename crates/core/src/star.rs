//! Step 2 — STAR: Schema-driven TrAnslatability Reasoning (§5).
//!
//! The **marking procedure** (Algorithm 1) runs once per view at compile
//! time: Rules 1–3 decide each internal node's update context type
//! (safe/unsafe × delete/insert), and closure comparison decides its update
//! point type (clean/dirty). The **checking procedure** then classifies a
//! valid update in O(1) by the `(UPoint | UContext)` pair of its target
//! node (Observations 1 and 2).

use std::collections::{HashMap, HashSet};

use ufilter_asg::{view_closure, AsgNodeId, AsgNodeKind, BaseAsg, UContext, UPoint, ViewAsg};
use ufilter_rdb::DatabaseSchema;
use ufilter_xquery::UpdateKind;

use crate::outcome::Condition;
use crate::target::ResolvedAction;

/// How Observation 2 treats Rule-3-induced unsafe-insert nodes. The paper
/// states Observation 2 as a flat rejection but its narrative discharges
/// such inserts with a data check; both readings are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StarMode {
    /// Observation 2 verbatim: insertion on any unsafe-insert node is
    /// untranslatable (u4 dies at Step 2).
    Strict,
    /// The paper's narrative: Rule-3 unsafe-inserts become conditionally
    /// translatable (condition: shared data must pre-exist), discharged by
    /// the Step-3 data check (u3/u4 die at Step 3).
    #[default]
    Refined,
}

/// Side information produced by marking, beyond the per-node
/// `(UPoint|UContext)` pairs stored in the ASG.
#[derive(Debug, Clone, Default)]
pub struct StarMarking {
    /// Nodes whose whole subtree Rule 1 declared unsafe (structural
    /// duplication: missing or improper join).
    pub rule1: HashSet<AsgNodeId>,
    /// Rule 3 provenance: node → shared relations that make inserting it
    /// risk surfacing content under an unsafe-delete non-descendant.
    pub rule3: HashMap<AsgNodeId, Vec<String>>,
    /// Rule 2 witness: for each safe-delete node, the `R ∈ CR(v)` whose
    /// deletion is side-effect-free — the *clean extended source* anchor
    /// the translation deletes from.
    pub delete_anchor: HashMap<AsgNodeId, String>,
}

/// The STAR marking procedure (Algorithm 1): writes `(UPoint|UContext)`
/// into `asg` and returns the side information.
pub fn mark(asg: &mut ViewAsg, base: &BaseAsg, schema: &DatabaseSchema) -> StarMarking {
    let mut marking = StarMarking::default();
    let internals: Vec<AsgNodeId> = asg.internal_nodes().map(|n| n.id).collect();

    // ---- Rule 1: structural duplication via missing/improper joins -------
    for &c in &internals {
        let node = asg.node(c);
        if !node.card.is_starred() {
            continue;
        }
        if rule1_violated(asg, schema, c) {
            for s in asg.subtree(c) {
                if asg.node(s).kind == AsgNodeKind::Internal {
                    marking.rule1.insert(s);
                    asg.node_mut(s).ucontext =
                        Some(UContext { safe_delete: false, safe_insert: false });
                }
            }
        }
    }

    // ---- Rule 2: unsafe-delete via shared relations -----------------------
    for &c in &internals {
        if asg.node(c).ucontext.is_some_and(|u| !u.safe_delete) {
            continue; // already unsafe via Rule 1
        }
        let cr = asg.cr(c);
        let nds = asg.non_descendant_internals(c);
        let anchor = cr.iter().find(|r| {
            let ext = schema.extend(r, Some(&asg.relations));
            nds.iter().all(|v| {
                !asg.node(*v)
                    .ucbinding
                    .iter()
                    .any(|u| ext.iter().any(|e| e.eq_ignore_ascii_case(u)))
            })
        });
        match anchor {
            Some(r) => {
                marking.delete_anchor.insert(c, r.clone());
                let prev = asg.node(c).ucontext;
                asg.node_mut(c).ucontext = Some(UContext {
                    safe_delete: true,
                    safe_insert: prev.is_none_or(|u| u.safe_insert),
                });
            }
            None => {
                let prev = asg.node(c).ucontext;
                asg.node_mut(c).ucontext = Some(UContext {
                    safe_delete: false,
                    safe_insert: prev.is_none_or(|u| u.safe_insert),
                });
            }
        }
    }

    // ---- Rule 3: unsafe-insert via overlap with unsafe-delete nodes ------
    for &c in &internals {
        if marking.rule1.contains(&c) {
            continue; // already unsafe both ways
        }
        let upb = asg.node(c).upbinding.clone();
        let mut shared: Vec<String> = Vec::new();
        for v in asg.non_descendant_internals(c) {
            let v_node = asg.node(v);
            if v_node.ucontext.is_some_and(|u| u.safe_delete) {
                continue; // (ii) of Rule 3 requires v' unsafe-delete
            }
            for r in asg.cr(v) {
                if upb.iter().any(|u| u.eq_ignore_ascii_case(&r))
                    && !shared.iter().any(|s| s.eq_ignore_ascii_case(&r))
                {
                    shared.push(r);
                }
            }
        }
        if !shared.is_empty() {
            let prev = asg.node(c).ucontext.expect("set by Rule 2 pass");
            asg.node_mut(c).ucontext =
                Some(UContext { safe_delete: prev.safe_delete, safe_insert: false });
            marking.rule3.insert(c, shared);
        }
    }

    // ---- UPoint: clean iff CV ≡ CD (Definition 2) -------------------------
    for &c in &internals {
        let cv = view_closure(asg, c);
        let cd = base.mapping_closure(&cv.all_leaves());
        asg.node_mut(c).upoint = Some(if cv.equiv(&cd) { UPoint::Clean } else { UPoint::Dirty });
    }

    marking
}

/// Rule 1 for one starred internal node: does its edge lack a *proper Join*?
///
/// Two sub-checks:
/// (a) when the parent is itself repeatable (non-root), some condition must
///     link a new relation of `c` to a parent-scope relation through that
///     parent relation's unique identifier — otherwise every parent
///     instance replicates the same `c` content ("missing Join");
/// (b) every *non-driving* relation bound at `c` must be joined through its
///     own unique identifier — otherwise one driving tuple pairs with many,
///     duplicating driving content across instances ("improper Join").
fn rule1_violated(asg: &ViewAsg, schema: &DatabaseSchema, c: AsgNodeId) -> bool {
    let node = asg.node(c);
    let cr = asg.cr(c);
    let parent = asg.internal_ancestor(c);
    let parent_is_root = parent.is_none_or(|p| asg.node(p).kind == AsgNodeKind::Root);

    let unique =
        |rel: &str, col: &str| schema.table(rel).is_some_and(|t| t.is_unique_identifier(col));

    // (a) correlation to the parent scope.
    if !parent_is_root {
        if cr.is_empty() {
            // Re-iterating relations already in scope duplicates content.
            return true;
        }
        let parent_ucb = &asg.node(parent.expect("non-root parent")).ucbinding;
        let in_cr = |t: &str| cr.iter().any(|r| r.eq_ignore_ascii_case(t));
        let in_parent = |t: &str| parent_ucb.iter().any(|r| r.eq_ignore_ascii_case(t));
        let proper = node.conditions.iter().any(|jc| {
            (in_cr(&jc.left.table)
                && in_parent(&jc.right.table)
                && unique(&jc.right.table, &jc.right.column))
                || (in_cr(&jc.right.table)
                    && in_parent(&jc.left.table)
                    && unique(&jc.left.table, &jc.left.column))
        });
        if !proper {
            return true;
        }
    }

    // (b) non-driving relations must join through their unique identifier.
    let driving = node.bindings.first().map(|(_, t)| t.clone());
    for r in &cr {
        if driving.as_deref().is_some_and(|d| d.eq_ignore_ascii_case(r)) {
            continue;
        }
        let ok = node.conditions.iter().any(|jc| {
            (jc.left.table.eq_ignore_ascii_case(r) && unique(r, &jc.left.column))
                || (jc.right.table.eq_ignore_ascii_case(r) && unique(r, &jc.right.column))
        });
        if !ok {
            return true;
        }
    }
    false
}

/// Conservative aggregate/Distinct classification (between Step 1 and
/// STAR): `Some(reason)` when the update's footprint reaches a
/// **non-injective region** — deduplicated (`Distinct()`) or aggregated
/// output, or output whose view membership is gated by an aggregate
/// predicate — where no exact translation can exist. `None` keeps the
/// classic pipeline behavior bit-for-bit (every view without aggregates or
/// `Distinct()` returns `None` unconditionally).
///
/// Soundness: the check over-approximates. A delete/insert at node `n`
/// touches `n`'s whole subtree and changes the instance multiset of every
/// ancestor region, so marks anywhere on that axis reject; and any action
/// whose affected base relations feed an aggregate scan *anywhere* in the
/// view could shift that aggregate's value, so relation overlap rejects
/// too — with a delete's footprint closed over `ON DELETE CASCADE` /
/// `SET NULL` foreign keys, since referential actions remove or rewrite
/// referencing rows the aggregate may range over. Updates provably outside
/// all of that pass through untouched.
pub fn non_injective_check(
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
) -> Option<String> {
    // Classic views short-circuit on the compile-time summary: no marks
    // anywhere ⇒ no classification work, O(1), and bit-for-bit the
    // pre-extension pipeline (aggregate nodes are always marked, so
    // `aggregate_sources` is empty too).
    if !asg.has_non_injective() {
        return None;
    }
    let node = asg.node(action.node);

    // (a) The target, an ancestor, or its subtree is marked non-injective.
    if asg.in_non_injective_region(action.node) {
        let what = if node.agg.is_some()
            || asg.subtree(action.node).iter().any(|n| asg.node(*n).agg.is_some())
        {
            "aggregated"
        } else {
            "deduplicated (Distinct)"
        };
        return Some(format!(
            "the update reaches {what} output at <{}>: non-injective view regions have no \
             exact translation",
            node.tag
        ));
    }

    // (b) Membership of the target's region is gated by an aggregate
    // predicate whose value no static reasoning can pin down.
    if let Some((tag, gate)) = asg.path_agg_deps(action.node).into_iter().next() {
        return Some(format!(
            "view membership of <{tag}> is gated by the aggregate predicate {gate}; \
             updates into the region cannot be classified exactly"
        ));
    }

    // (c) The action's affected relations feed an aggregate scan elsewhere
    // in the view: changing them could silently shift the aggregate value.
    let sources = asg.aggregate_sources();
    if !sources.is_empty() {
        let mut affected: Vec<String> = Vec::new();
        let push = |t: &str, affected: &mut Vec<String>| {
            if !affected.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                affected.push(t.to_string());
            }
        };
        match node.kind {
            AsgNodeKind::Internal | AsgNodeKind::Root => {
                for r in node.upbinding.iter().chain(asg.cr(action.node).iter()) {
                    push(r, &mut affected);
                }
            }
            AsgNodeKind::Tag | AsgNodeKind::Leaf => {
                if let Some(leaf) = crate::target::find_leaf(asg, action.node) {
                    push(&leaf.name.table, &mut affected);
                }
            }
            AsgNodeKind::Aggregate => {} // covered by (a)
        }
        // A delete's footprint is its FK closure, not just the node's own
        // relations: ON DELETE CASCADE removes referencing rows and ON
        // DELETE SET NULL rewrites their columns, either of which can
        // shift an aggregate over the referencing table. Inserts fire no
        // referential actions, so their footprint stays as computed.
        if action.kind != UpdateKind::Insert {
            let mut frontier = affected.clone();
            while let Some(cur) = frontier.pop() {
                for (owner, fk) in schema.foreign_keys() {
                    if fk.ref_table.eq_ignore_ascii_case(&cur)
                        && fk.on_delete != ufilter_rdb::DeletePolicy::Restrict
                        && !affected.iter().any(|x| x.eq_ignore_ascii_case(owner))
                    {
                        affected.push(owner.to_string());
                        frontier.push(owner.to_string());
                    }
                }
            }
        }
        for s in &sources {
            if affected.iter().any(|r| r.eq_ignore_ascii_case(&s.table)) {
                return Some(format!(
                    "the update touches relation {} which feeds the aggregate {s}; the \
                     aggregate value could change as a side effect",
                    s.table
                ));
            }
        }
    }
    None
}

/// Verdict of the STAR checking procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum StarVerdict {
    /// Rejected at compile-marked cost, with the reason.
    Untranslatable(String),
    /// Translatable, with the conditions (empty = unconditional).
    Ok(Vec<Condition>),
}

/// The STAR checking procedure (Observations 1 and 2): constant-time lookup
/// of the target node's `(UPoint | UContext)` mark. (`schema` backs the
/// value-target guards, which need key information the ASG does not carry.)
pub fn check(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    mode: StarMode,
) -> StarVerdict {
    let node = asg.node(action.node);
    match node.kind {
        // "Deleting the root node vR is always translatable. Similarly any
        // valid update of a vL node will be translatable." (§5)
        AsgNodeKind::Root => StarVerdict::Ok(Vec::new()),
        // Unreachable in the pipeline: `non_injective_check` rejects any
        // action that resolves into an aggregate region before STAR runs.
        AsgNodeKind::Aggregate => StarVerdict::Untranslatable(format!(
            "<{}> is aggregated output: non-injective view regions have no exact translation",
            node.tag
        )),
        AsgNodeKind::Leaf | AsgNodeKind::Tag => {
            // "Any valid update of a vL node will be translatable" (§5) —
            // with the exceptions the vC treatment implies: rewriting a
            // stored attribute (SET NULL / SET value) reaches every view
            // position that observes it, not just the targeted element, so
            // any *second* observer turns the value update into a side
            // effect the per-element XML semantics cannot express.
            if let Some(leaf) = crate::target::find_leaf(asg, action.node) {
                // (a) A view non-correlation predicate ranges over the
                // column: changing the value flips membership of whichever
                // region carries the predicate.
                for n in asg.iter() {
                    if n.local_preds
                        .iter()
                        .any(|p| p.column.matches(&leaf.name.table, &leaf.name.column))
                    {
                        return StarVerdict::Untranslatable(format!(
                            "changing the {} value rewrites a column the view predicate \
                             at <{}> ranges over; element membership would shift as a \
                             side effect",
                            leaf.name, n.tag
                        ));
                    }
                }
                // (b) The column is a correlation (join) column: rewriting
                // it re-parents or detaches instances elsewhere in the view.
                for n in asg.iter() {
                    if n.conditions.iter().any(|jc| {
                        jc.left.matches(&leaf.name.table, &leaf.name.column)
                            || jc.right.matches(&leaf.name.table, &leaf.name.column)
                    }) {
                        return StarVerdict::Untranslatable(format!(
                            "{} is a correlation column of <{}>; changing it would \
                             re-parent or detach view instances as a side effect",
                            leaf.name, n.tag
                        ));
                    }
                }
                // (c) The view projects the same column at more than one
                // position: the other occurrence changes too, which the
                // single-element XML update does not express.
                let occurrences = asg
                    .iter()
                    .filter(|n| {
                        n.leaf
                            .as_ref()
                            .is_some_and(|l| l.name.matches(&leaf.name.table, &leaf.name.column))
                    })
                    .count();
                if occurrences > 1 {
                    return StarVerdict::Untranslatable(format!(
                        "{} is projected at {occurrences} view positions; updating one \
                         occurrence would change the others as a side effect",
                        leaf.name
                    ));
                }
                // (d) Swapping a unique-identifier value re-keys the row the
                // region is anchored on.
                if action.kind == UpdateKind::Replace
                    && schema
                        .table(&leaf.name.table)
                        .is_some_and(|t| t.is_unique_identifier(&leaf.name.column))
                {
                    return StarVerdict::Untranslatable(format!(
                        "{} is a unique identifier; replacing a key value is not \
                         supported",
                        leaf.name
                    ));
                }
            }
            StarVerdict::Ok(Vec::new())
        }
        AsgNodeKind::Internal => {
            let uc = node.ucontext.expect("marked");
            let up = node.upoint.expect("marked");
            match action.kind {
                UpdateKind::Delete | UpdateKind::Replace => {
                    if !uc.safe_delete {
                        return StarVerdict::Untranslatable(format!(
                            "deletion on unsafe-delete node <{}> (CR = {{{}}} offers no \
                             clean extended source)",
                            node.tag,
                            asg.cr(action.node).join(", ")
                        ));
                    }
                    match up {
                        UPoint::Clean => StarVerdict::Ok(Vec::new()),
                        UPoint::Dirty => StarVerdict::Ok(vec![Condition::TranslationMinimization]),
                    }
                }
                UpdateKind::Insert => {
                    // A non-starred vC is a wrapper constructed exactly once
                    // per parent binding tuple (the paper's publisher-under-
                    // book). It can only come into existence together with
                    // its parent — as part of a parent-level insert group —
                    // never on its own: the view emits one instance per
                    // existing tuple, so a standalone second occurrence has
                    // no base counterpart whatever SQL we run.
                    if !node.card.is_starred() {
                        return StarVerdict::Untranslatable(format!(
                            "<{}> occurs exactly once per parent instance (cardinality \
                             {}); an inserted extra occurrence can never appear in the \
                             view",
                            node.tag, node.card
                        ));
                    }
                    if marking.rule1.contains(&action.node) {
                        return StarVerdict::Untranslatable(format!(
                            "insertion on <{}>: structural duplication (Rule 1)",
                            node.tag
                        ));
                    }
                    let mut conditions = Vec::new();
                    if !uc.safe_insert {
                        match mode {
                            StarMode::Strict => {
                                return StarVerdict::Untranslatable(format!(
                                    "insertion on unsafe-insert node <{}> (shares {{{}}} \
                                     with an unsafe-delete node)",
                                    node.tag,
                                    marking
                                        .rule3
                                        .get(&action.node)
                                        .map(|v| v.join(", "))
                                        .unwrap_or_default()
                                ));
                            }
                            StarMode::Refined => {
                                conditions.push(Condition::SharedDataExistence {
                                    relations: marking
                                        .rule3
                                        .get(&action.node)
                                        .cloned()
                                        .unwrap_or_default(),
                                });
                            }
                        }
                    }
                    if up == UPoint::Dirty {
                        conditions.push(Condition::DuplicationConsistency);
                    }
                    StarVerdict::Ok(conditions)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookdemo;
    use crate::target::resolve;
    use ufilter_asg::UPoint;

    fn filter() -> crate::pipeline::UFilter {
        bookdemo::book_filter()
    }

    #[test]
    fn fig8_marks_reproduced() {
        let f = filter();
        let at = |steps: &[&str]| f.asg.node(f.asg.resolve_path(steps)[0]);
        // vC1 book: (dirty | s-d ∧ u-i)
        let vc1 = at(&["book"]);
        assert_eq!(vc1.upoint, Some(UPoint::Dirty));
        assert_eq!(vc1.ucontext, Some(UContext { safe_delete: true, safe_insert: false }));
        // vC2 publisher-under-book: (dirty | u-d ∧ u-i)
        let vc2 = at(&["book", "publisher"]);
        assert_eq!(vc2.upoint, Some(UPoint::Dirty));
        assert_eq!(vc2.ucontext, Some(UContext { safe_delete: false, safe_insert: false }));
        // vC3 review: (clean | s-d ∧ s-i)
        let vc3 = at(&["book", "review"]);
        assert_eq!(vc3.upoint, Some(UPoint::Clean));
        assert_eq!(vc3.ucontext, Some(UContext { safe_delete: true, safe_insert: true }));
        // vC4 top-level publisher: (dirty | u-d ∧ s-i)
        let vc4 = at(&["publisher"]);
        assert_eq!(vc4.upoint, Some(UPoint::Dirty));
        assert_eq!(vc4.ucontext, Some(UContext { safe_delete: false, safe_insert: true }));
    }

    #[test]
    fn delete_anchors_recorded_for_safe_nodes() {
        let f = filter();
        let vc1 = f.asg.resolve_path(&["book"])[0];
        let vc3 = f.asg.resolve_path(&["book", "review"])[0];
        // The clean extended source of a book delete is the book relation
        // (extend(book) = {book, review} misses vC4's {publisher}).
        assert_eq!(f.marking.delete_anchor.get(&vc1).map(String::as_str), Some("book"));
        assert_eq!(f.marking.delete_anchor.get(&vc3).map(String::as_str), Some("review"));
        // Unsafe nodes have no anchor.
        let vc2 = f.asg.resolve_path(&["book", "publisher"])[0];
        assert!(!f.marking.delete_anchor.contains_key(&vc2));
    }

    #[test]
    fn rule3_provenance_names_the_shared_relation() {
        let f = filter();
        let vc1 = f.asg.resolve_path(&["book"])[0];
        assert_eq!(f.marking.rule3.get(&vc1), Some(&vec!["publisher".to_string()]));
        let vc2 = f.asg.resolve_path(&["book", "publisher"])[0];
        assert_eq!(f.marking.rule3.get(&vc2), Some(&vec!["publisher".to_string()]));
    }

    #[test]
    fn rule1_missing_join_marks_subtree_unsafe() {
        // Remove the review correlation: the whole review table nests under
        // every book — the §5.1.1 "missing Join" example.
        let view = bookdemo::BOOK_VIEW.replace("WHERE ($book/bookid = $review/bookid)\n", "");
        let f = crate::pipeline::UFilter::compile(&view, &bookdemo::book_schema()).unwrap();
        let vc3 = f.asg.resolve_path(&["book", "review"])[0];
        assert!(f.marking.rule1.contains(&vc3));
        let uc = f.asg.node(vc3).ucontext.unwrap();
        assert!(!uc.safe_delete && !uc.safe_insert);
    }

    #[test]
    fn rule1_improper_join_marks_subtree_unsafe() {
        // Correlate on non-unique attributes: book.title = review.comment —
        // the §5.1.1 "improper Join" example.
        let view = bookdemo::BOOK_VIEW
            .replace("($book/bookid = $review/bookid)", "($book/title = $review/comment)");
        let f = crate::pipeline::UFilter::compile(&view, &bookdemo::book_schema()).unwrap();
        let vc3 = f.asg.resolve_path(&["book", "review"])[0];
        assert!(f.marking.rule1.contains(&vc3));
    }

    #[test]
    fn strict_vs_refined_only_differ_on_rule3_inserts() {
        let f = filter();
        let u = ufilter_xquery::parse_update(bookdemo::U4).unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        let strict = check(&f.asg, &f.marking, &f.schema, &actions[0], StarMode::Strict);
        let refined = check(&f.asg, &f.marking, &f.schema, &actions[0], StarMode::Refined);
        assert!(matches!(strict, StarVerdict::Untranslatable(_)));
        match refined {
            StarVerdict::Ok(conds) => {
                assert!(conds.iter().any(|c| matches!(c, Condition::SharedDataExistence { .. })));
                assert!(conds.iter().any(|c| matches!(c, Condition::DuplicationConsistency)));
            }
            other => panic!("refined mode must conditionally accept: {other:?}"),
        }
        // Deletes are identical across modes.
        let u = ufilter_xquery::parse_update(bookdemo::U10).unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        for mode in [StarMode::Strict, StarMode::Refined] {
            assert!(matches!(
                check(&f.asg, &f.marking, &f.schema, &actions[0], mode),
                StarVerdict::Untranslatable(_)
            ));
        }
    }

    #[test]
    fn value_delete_under_view_predicate_flagged() {
        let f = filter();
        let u = ufilter_xquery::parse_update(
            r#"FOR $book IN document("V.xml")/book UPDATE $book { DELETE $book/price }"#,
        )
        .unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        assert!(matches!(
            check(&f.asg, &f.marking, &f.schema, &actions[0], StarMode::Refined),
            StarVerdict::Untranslatable(_)
        ));
    }

    fn compile(view: &str) -> crate::pipeline::UFilter {
        crate::pipeline::UFilter::compile(view, &bookdemo::book_schema()).expect("compiles")
    }

    fn first_action(f: &crate::pipeline::UFilter, update: &str) -> ResolvedAction {
        let u = ufilter_xquery::parse_update(update).unwrap();
        resolve(&f.asg, &u).unwrap().remove(0)
    }

    #[test]
    fn non_injective_check_is_inert_on_classic_views() {
        // BookView has no aggregates and no Distinct: every action short-
        // circuits to None, keeping the pre-extension pipeline bit-for-bit.
        let f = filter();
        assert!(!f.asg.has_non_injective());
        for update in [bookdemo::U2, bookdemo::U8, bookdemo::U10, bookdemo::U13] {
            let u = ufilter_xquery::parse_update(update).unwrap();
            for action in resolve(&f.asg, &u).unwrap() {
                assert_eq!(non_injective_check(&f.asg, &f.schema, &action), None, "{update}");
            }
        }
    }

    #[test]
    fn distinct_regions_reject_deletes_and_inserts() {
        let f = compile(
            r#"<V> FOR $b IN distinct(document("d")/book/row)
RETURN { <book> $b/title, $b/price </book> } </V>"#,
        );
        let del = first_action(&f, r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b }"#);
        let reason = non_injective_check(&f.asg, &f.schema, &del).expect("deduplicated region");
        assert!(reason.contains("deduplicated"), "{reason}");
        let ins = first_action(
            &f,
            r#"FOR $root IN document("V.xml")
UPDATE $root { INSERT <book><title>T</title><price>1.00</price></book> }"#,
        );
        assert!(non_injective_check(&f.asg, &f.schema, &ins).is_some());
    }

    #[test]
    fn aggregate_subtrees_and_fed_relations_reject() {
        let f = compile(
            r#"<V> FOR $b IN document("d")/book/row
RETURN { <b> $b/bookid, <n> count(document("d")/review/row) </n> </b> } </V>"#,
        );
        // Deleting the aggregate-bearing element (its subtree holds a vA).
        let del_b = first_action(&f, r#"FOR $b IN document("V.xml")/b UPDATE $b { DELETE $b }"#);
        let reason =
            non_injective_check(&f.asg, &f.schema, &del_b).expect("subtree holds an aggregate");
        assert!(reason.contains("aggregated"), "{reason}");
        // Deleting <n> itself.
        let del_n = first_action(&f, r#"FOR $b IN document("V.xml")/b UPDATE $b { DELETE $b/n }"#);
        assert!(non_injective_check(&f.asg, &f.schema, &del_n).is_some());

        // A region whose relations feed an aggregate elsewhere in the view.
        let f2 = compile(
            r#"<V> FOR $r IN document("d")/review/row
RETURN { <r> $r/reviewid </r> },
<n> count(document("d")/review/row) </n> </V>"#,
        );
        let del_r = first_action(&f2, r#"FOR $r IN document("V.xml")/r UPDATE $r { DELETE $r }"#);
        let reason =
            non_injective_check(&f2.asg, &f2.schema, &del_r).expect("review feeds count(review)");
        assert!(reason.contains("count(review)"), "{reason}");
    }

    #[test]
    fn aggregate_gated_membership_rejects() {
        let f = compile(
            r#"<V> FOR $r IN document("d")/review/row
WHERE count(document("d")/review/row) > 1
RETURN { <review> $r/reviewid </review> } </V>"#,
        );
        let del = first_action(&f, r#"FOR $r IN document("V.xml")/review UPDATE $r { DELETE $r }"#);
        let reason =
            non_injective_check(&f.asg, &f.schema, &del).expect("membership is aggregate-gated");
        assert!(reason.contains("gated"), "{reason}");
    }

    #[test]
    fn aggregate_free_regions_of_mixed_views_stay_exact() {
        // Deleting review rows cascades into nothing, and no aggregate
        // ranges over review: the review region keeps today's behavior.
        let f = compile(
            r#"<V> FOR $r IN document("d")/review/row
RETURN { <rev> $r/reviewid </rev> },
<n> count(document("d")/publisher/row) </n> </V>"#,
        );
        let del = first_action(&f, r#"FOR $r IN document("V.xml")/rev UPDATE $r { DELETE $r }"#);
        assert_eq!(non_injective_check(&f.asg, &f.schema, &del), None);
        let verdict = check(&f.asg, &f.marking, &f.schema, &del, StarMode::Refined);
        assert!(matches!(verdict, StarVerdict::Ok(_)), "{verdict:?}");
    }

    #[test]
    fn delete_footprints_close_over_cascading_foreign_keys() {
        // publisher itself feeds no aggregate, but deleting a publisher
        // CASCADEs through book into review — and review feeds count(…).
        // The pre-fix check saw affected = {publisher} and accepted.
        let f = compile(
            r#"<V> FOR $p IN document("d")/publisher/row
RETURN { <pub> $p/pubid, $p/pubname </pub> },
<n> count(document("d")/review/row) </n> </V>"#,
        );
        let del = first_action(&f, r#"FOR $p IN document("V.xml")/pub UPDATE $p { DELETE $p }"#);
        let reason =
            non_injective_check(&f.asg, &f.schema, &del).expect("cascade reaches count(review)");
        assert!(reason.contains("count(review)"), "{reason}");
        // An *insert* fires no referential action: inserting a publisher
        // row cannot change count(review), so it stays exact.
        let ins = first_action(
            &f,
            r#"FOR $root IN document("V.xml")
UPDATE $root { INSERT <pub><pubid>Z9</pubid><pubname>New House</pubname></pub> }"#,
        );
        assert_eq!(non_injective_check(&f.asg, &f.schema, &ins), None);
    }

    #[test]
    fn checking_is_constant_time_in_practice() {
        // §7.1: "The STAR checking procedure takes only a hash operation
        // time." Sanity: 10k checks finish far under a second.
        let f = filter();
        let u = ufilter_xquery::parse_update(bookdemo::U8).unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        let t = std::time::Instant::now();
        for _ in 0..10_000 {
            let _ = check(&f.asg, &f.marking, &f.schema, &actions[0], StarMode::Refined);
        }
        assert!(t.elapsed().as_millis() < 500);
    }
}
