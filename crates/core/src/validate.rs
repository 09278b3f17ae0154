//! Step 1 — update validation (§4): check the update against the *local*
//! constraints captured in the view ASG.

use ufilter_asg::{AsgNodeKind, Card, ViewAsg};
use ufilter_rdb::sat::Domain;
use ufilter_rdb::Value;
use ufilter_xml::{Document, NodeId};
use ufilter_xquery::UpdateKind;

use crate::outcome::InvalidReason;
use crate::target::{clean_text, find_leaf, ResolvedAction};

/// Validate one resolved action. `Ok(())` means *valid* (Fig. 6's first
/// partition); errors carry the paper's rejection reasons.
pub fn validate(asg: &ViewAsg, action: &ResolvedAction) -> Result<(), InvalidReason> {
    // Check (i) for deletes — and, harmlessly, for inserts too: the
    // update's non-correlation predicates must overlap the view's check
    // annotations (u5: `price > 50` can never select view content).
    predicates_overlap_view(asg, action)?;

    match action.kind {
        UpdateKind::Delete => {
            let node = asg.node(action.node);
            match node.kind {
                // Check (ii): an XML delete may remove a single value or
                // simple element only if the schema lets it be absent; an
                // incoming edge of `1` makes the deletion invalid (u6).
                AsgNodeKind::Leaf | AsgNodeKind::Tag => {
                    if node.card == Card::One {
                        let what = find_leaf(asg, action.node)
                            .map(|l| l.name.to_string())
                            .unwrap_or_else(|| node.tag.clone());
                        return Err(InvalidReason::NonDeletableNode {
                            detail: format!(
                                "<{}> has incoming edge cardinality 1 ({what} is required)",
                                node.tag
                            ),
                        });
                    }
                    Ok(())
                }
                // Deletes of complex elements flow to STAR: the paper's u2
                // is *valid* (the schema allows it) yet untranslatable, and
                // deciding that is Step 2's job, not Step 1's.
                // Aggregate values are likewise *valid* to address — the
                // non-injective classification then rejects them with a
                // precise reason rather than calling the update malformed.
                AsgNodeKind::Internal | AsgNodeKind::Root | AsgNodeKind::Aggregate => Ok(()),
            }
        }
        UpdateKind::Insert => {
            let frag = action.fragment.as_ref().ok_or_else(|| InvalidReason::Malformed {
                detail: "insert without fragment".into(),
            })?;
            // Dual of the delete check (ii): a value element with incoming
            // edge `1` is always present, so inserting another can only
            // produce a second occurrence — a schema violation.
            let node = asg.node(action.node);
            if matches!(node.kind, AsgNodeKind::Tag | AsgNodeKind::Leaf) {
                if node.card == Card::One {
                    return Err(InvalidReason::HierarchyViolation {
                        detail: format!(
                            "<{}> has incoming edge cardinality 1 (always present); inserting \
                             another occurrence is invalid",
                            node.tag
                        ),
                    });
                }
                require_value_text(asg, action.node, frag)?;
            }
            validate_fragment(asg, action.node, frag, frag.root())
        }
        UpdateKind::Replace => {
            // Complex-element replaces were split into delete+insert during
            // resolution; a surviving Replace action is an in-place value
            // swap — validate the replacement value like an insert's.
            match &action.fragment {
                Some(frag) => {
                    require_value_text(asg, action.node, frag)?;
                    validate_fragment(asg, action.node, frag, frag.root())
                }
                None => Ok(()),
            }
        }
    }
}

fn predicates_overlap_view(asg: &ViewAsg, action: &ResolvedAction) -> Result<(), InvalidReason> {
    // Group predicates per column, folding each group into the leaf's
    // check-annotation domain.
    use std::collections::HashMap;
    let mut domains: HashMap<(String, String), (Domain, ufilter_rdb::DataType)> = HashMap::new();
    for (col, op, v) in &action.predicates {
        let key = (col.table.to_ascii_lowercase(), col.column.to_ascii_lowercase());
        let entry = domains.entry(key).or_insert_with(|| {
            let leaf = asg
                .iter()
                .find_map(|n| n.leaf.as_ref().filter(|l| l.name.matches(&col.table, &col.column)));
            match leaf {
                Some(l) => (l.check.clone(), l.ty),
                None => (Domain::default(), ufilter_rdb::DataType::Str),
            }
        });
        entry.0.constrain(*op, v);
    }
    for ((t, c), (domain, ty)) in domains {
        if !domain.satisfiable(Some(ty)) {
            return Err(InvalidReason::PredicateOutsideView {
                detail: format!("predicates on {t}.{c} contradict the view's check annotation"),
            });
        }
    }
    Ok(())
}

/// A fragment aimed at a *value* element must carry a value: materialization
/// omits NULL attributes entirely, so an empty `<price/>` can never appear
/// in a view instance and inserting (or swapping in) one is invalid.
fn require_value_text(
    asg: &ViewAsg,
    node: ufilter_asg::AsgNodeId,
    frag: &Document,
) -> Result<(), InvalidReason> {
    let n = asg.node(node);
    if !matches!(n.kind, AsgNodeKind::Tag | AsgNodeKind::Leaf) {
        return Ok(());
    }
    if clean_text(&frag.text_content(frag.root())).is_empty() {
        return Err(InvalidReason::TypeViolation {
            detail: format!(
                "<{}> is a value element: an empty occurrence cannot appear in any \
                 view instance",
                n.tag
            ),
        });
    }
    Ok(())
}

/// Recursive fragment validation against the view-ASG subtree (§4, insert
/// checks): hierarchy conformance, then leaf domain / check / NOT NULL.
fn validate_fragment(
    asg: &ViewAsg,
    node: ufilter_asg::AsgNodeId,
    frag: &Document,
    el: NodeId,
) -> Result<(), InvalidReason> {
    let n = asg.node(node);
    match n.kind {
        AsgNodeKind::Tag => {
            let leaf = find_leaf(asg, node).expect("tag wraps a leaf");
            let text = clean_text(&frag.text_content(el));
            if text.is_empty() {
                if leaf.not_null {
                    return Err(InvalidReason::NotNullViolation {
                        detail: format!("<{}> ({}) must not be empty", n.tag, leaf.name),
                    });
                }
                return Ok(());
            }
            let value =
                Value::parse_as(&text, leaf.ty).ok_or_else(|| InvalidReason::TypeViolation {
                    detail: format!("'{text}' is not a valid {} for <{}>", leaf.ty, n.tag),
                })?;
            if !leaf.check.contains(&value) {
                return Err(InvalidReason::CheckViolation {
                    detail: format!(
                        "value {value} for <{}> violates the check annotation of {}",
                        n.tag, leaf.name
                    ),
                });
            }
            Ok(())
        }
        AsgNodeKind::Internal | AsgNodeKind::Root => {
            // Hierarchy conformance: every fragment child must match a
            // schema child; cardinalities 1/?/+ are enforced.
            let schema_children = &n.children;
            for child_el in frag.child_elements(el) {
                let tag = frag.name(child_el).unwrap_or("");
                let matched =
                    schema_children.iter().find(|c| asg.node(**c).tag.eq_ignore_ascii_case(tag));
                match matched {
                    Some(c) => validate_fragment(asg, *c, frag, child_el)?,
                    None => {
                        return Err(InvalidReason::HierarchyViolation {
                            detail: format!("<{tag}> cannot occur under <{}>", n.tag),
                        })
                    }
                }
            }
            for c in schema_children {
                let cn = asg.node(*c);
                let count = frag.children_named(el, &cn.tag).len();
                let ok = match cn.card {
                    Card::One => count == 1,
                    Card::Opt => count <= 1,
                    Card::Plus => count >= 1,
                    Card::Many => true,
                };
                if !ok {
                    return Err(InvalidReason::HierarchyViolation {
                        detail: format!(
                            "<{}> must occur {} under <{}>, found {count}",
                            cn.tag,
                            match cn.card {
                                Card::One => "exactly once".to_string(),
                                Card::Opt => "at most once".to_string(),
                                Card::Plus => "at least once".to_string(),
                                Card::Many => unreachable!(),
                            },
                            n.tag
                        ),
                    });
                }
            }
            Ok(())
        }
        // Fragment content destined for an aggregate slot cannot be
        // locally wrong — the non-injective classification rejects the
        // whole insert right after validation anyway.
        AsgNodeKind::Leaf | AsgNodeKind::Aggregate => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookdemo;
    use crate::target::resolve;

    fn resolved(update: &str) -> Vec<ResolvedAction> {
        let f = bookdemo::book_filter();
        let u = ufilter_xquery::parse_update(update).unwrap();
        resolve(&f.asg, &u).unwrap()
    }

    fn validate_one(update: &str) -> Result<(), InvalidReason> {
        let f = bookdemo::book_filter();
        let actions = resolved(update);
        validate(&f.asg, &actions[0])
    }

    #[test]
    fn u1_rejected_for_empty_title_first() {
        let err = validate_one(bookdemo::U1).unwrap_err();
        assert!(matches!(err, InvalidReason::NotNullViolation { .. }), "{err}");
    }

    #[test]
    fn price_check_violation_caught_when_title_present() {
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>0.00</price>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher></book> }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::CheckViolation { .. }), "{err}");
    }

    #[test]
    fn price_above_view_bound_is_also_invalid() {
        // The merged check annotation is {0 < value < 50}: a $60 book can
        // never appear in this view, so inserting it is invalid.
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>60.00</price>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher></book> }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::CheckViolation { .. }), "{err}");
    }

    #[test]
    fn unknown_child_element_rejected() {
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>20.00</price>
<isbn>123</isbn>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher></book> }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::HierarchyViolation { .. }), "{err}");
    }

    #[test]
    fn two_publishers_violate_cardinality_one() {
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>20.00</price>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher>
<publisher><pubid>A02</pubid><pubname>S</pubname></publisher></book> }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::HierarchyViolation { .. }), "{err}");
    }

    #[test]
    fn non_numeric_price_is_a_type_violation() {
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>cheap</price>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher></book> }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::TypeViolation { .. }), "{err}");
    }

    #[test]
    fn nested_reviews_in_fragment_validate_too() {
        let bad = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>98004</bookid><title>T</title><price>20.00</price>
<publisher><pubid>A01</pubid><pubname>M</pubname></publisher>
<review><reviewid> </reviewid><comment>ok</comment></review></book> }"#;
        let err = validate_one(bad).unwrap_err();
        // review.reviewid is a key member → NOT NULL.
        assert!(matches!(err, InvalidReason::NotNullViolation { .. }), "{err}");
    }

    #[test]
    fn u5_predicate_contradiction() {
        let err = validate_one(bookdemo::U5).unwrap_err();
        assert!(matches!(err, InvalidReason::PredicateOutsideView { .. }), "{err}");
    }

    #[test]
    fn boundary_predicate_exactly_50_is_invalid() {
        // view: price < 50 (strict) — selecting price = 50 is empty.
        let u = r#"
FOR $book IN document("BookView.xml")/book
WHERE $book/price/text() = 50.00
UPDATE $book { DELETE $book/review }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::PredicateOutsideView { .. }), "{err}");
    }

    #[test]
    fn boundary_predicate_just_below_50_is_valid() {
        let u = r#"
FOR $book IN document("BookView.xml")/book
WHERE $book/price/text() = 49.99
UPDATE $book { DELETE $book/review }"#;
        assert!(validate_one(u).is_ok());
    }

    #[test]
    fn delete_of_required_simple_element_invalid() {
        // Deleting the whole <title> element (not just its text) is invalid
        // too: title is NOT NULL.
        let u = r#"
FOR $book IN document("BookView.xml")/book
UPDATE $book { DELETE $book/title }"#;
        let err = validate_one(u).unwrap_err();
        assert!(matches!(err, InvalidReason::NonDeletableNode { .. }), "{err}");
    }

    #[test]
    fn fragments_with_quoted_values_accepted() {
        // Paper figures quote values: <bookid>"98004"</bookid>.
        let u = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT <book><bookid>"98004"</bookid><title>"T"</title><price>"20.00"</price>
<publisher><pubid>"A01"</pubid><pubname>"M"</pubname></publisher></book> }"#;
        assert!(validate_one(u).is_ok());
    }
}
