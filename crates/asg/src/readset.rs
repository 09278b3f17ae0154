//! Per-view **read-sets** for the static query-update independence
//! analysis.
//!
//! The blunt non-injective gate rejects any update whose footprint touches
//! a relation an aggregate or `Distinct()` region reads. The independence
//! pass refines that by comparing the update's *write-set* against the
//! precise columns and predicates the non-injective machinery actually
//! consumes. This module extracts that read-side once per compiled view:
//!
//! * every aggregate scan (`vA` operands plus gate predicates) with its
//!   optional operand column;
//! * the path-side columns aggregate gate predicates compare
//!   ([`AsgNode::gate_cols`](crate::graph::AsgNode::gate_cols));
//! * one entry per `Distinct()` region: the relations it scans and its
//!   constant membership predicates (for domain-disjointness reasoning).
//!
//! Extraction is a pure function of the graph, run once per compile; a
//! view replayed from a durable catalog extracts it when it compiles at its
//! first check.

use ufilter_rdb::ColRef;

use crate::graph::{AggSource, LocalPred, ViewAsg};

/// The read-set of one `Distinct()` region: what the deduplication can
/// observe. Any write into `tables` may split or merge dedup groups (the
/// engine deduplicates *full rows*), unless the region's `preds` prove the
/// written rows invisible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistinctRegion {
    /// Tag of the region's root node (diagnostics / wire detail).
    pub tag: String,
    /// Base relations the region scans: its FLWR bindings plus every
    /// relation projected or bound anywhere in its subtree.
    pub tables: Vec<String>,
    /// The region's constant membership predicates (`col op literal`).
    pub preds: Vec<LocalPred>,
}

/// The view-wide read-set of all non-injective machinery, computed once at
/// compile time and cached beside the STAR marking.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReadSets {
    /// Every aggregate scan the view references (`vA` nodes and gate
    /// predicates), deduplicated, in node order.
    pub sources: Vec<AggSource>,
    /// Path-side columns compared by aggregate gate predicates: a write to
    /// one can flip region membership.
    pub gate_cols: Vec<ColRef>,
    /// One read-set per `Distinct()` region.
    pub distinct: Vec<DistinctRegion>,
}

impl ReadSets {
    /// Extract the read-sets from a compiled ASG.
    pub fn extract(asg: &ViewAsg) -> ReadSets {
        let sources = asg.aggregate_sources();
        let gate_cols = asg.gate_columns();
        let mut distinct: Vec<DistinctRegion> = Vec::new();
        for n in asg.iter() {
            // Region roots: marked nodes with no marked ancestor. Aggregate
            // nodes are tracked through `sources`, not as regions.
            if !n.non_injective || n.agg.is_some() || has_marked_ancestor(asg, n) {
                continue;
            }
            let mut tables: Vec<String> = Vec::new();
            let add = |t: &str, tables: &mut Vec<String>| {
                if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                    tables.push(t.to_string());
                }
            };
            for sid in asg.subtree(n.id) {
                let sn = asg.node(sid);
                for (_, t) in &sn.bindings {
                    add(t, &mut tables);
                }
                if let Some(leaf) = &sn.leaf {
                    add(&leaf.name.table, &mut tables);
                }
            }
            if tables.is_empty() {
                continue; // a bare marked wrapper; its leaf carries the table
            }
            distinct.push(DistinctRegion {
                tag: n.tag.clone(),
                tables,
                preds: n.local_preds.clone(),
            });
        }
        ReadSets { sources, gate_cols, distinct }
    }

    /// Whether the view has no non-injective read-side at all (classic
    /// views; the independence pass never runs on them).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty() && self.gate_cols.is_empty() && self.distinct.is_empty()
    }
}

fn has_marked_ancestor(asg: &ViewAsg, n: &crate::graph::AsgNode) -> bool {
    let mut cur = n.parent;
    while let Some(p) = cur {
        let pn = asg.node(p);
        if pn.non_injective {
            return true;
        }
        cur = pn.parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_rdb::{Column, DataType, DatabaseSchema, DeletePolicy, TableSchema};
    use ufilter_xquery::parse_view_query;

    fn schema() -> DatabaseSchema {
        let mut schema = DatabaseSchema::new();
        schema.add(
            TableSchema::new("publisher")
                .column(Column::new("pubid", DataType::Str))
                .column(Column::new("pubname", DataType::Str))
                .primary_key(["pubid"]),
        );
        schema.add(
            TableSchema::new("book")
                .column(Column::new("bookid", DataType::Str))
                .column(Column::new("title", DataType::Str))
                .column(Column::new("price", DataType::Double))
                .column(Column::new("pubid", DataType::Str))
                .primary_key(["bookid"])
                .foreign_key(
                    "BookFK",
                    vec!["pubid"],
                    "publisher",
                    vec!["pubid"],
                    DeletePolicy::Cascade,
                ),
        );
        schema
    }

    fn extract(view: &str) -> ReadSets {
        let q = parse_view_query(view).expect("parse");
        let asg = crate::build_view_asg(&q, &schema()).expect("asg");
        ReadSets::extract(&asg)
    }

    #[test]
    fn classic_views_have_empty_read_sets() {
        let rs = extract(
            r#"<V> FOR $b IN document("d")/book/row
RETURN { <b> $b/title </b> } </V>"#,
        );
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn distinct_regions_record_tables_and_preds() {
        let rs = extract(
            r#"<V> FOR $b IN distinct(document("d")/book/row)
WHERE $b/price > 10.00
RETURN { <b> $b/title </b> } </V>"#,
        );
        assert!(rs.sources.is_empty());
        assert_eq!(rs.distinct.len(), 1, "{rs:?}");
        let region = &rs.distinct[0];
        assert_eq!(region.tag, "b");
        assert_eq!(region.tables, vec!["book".to_string()]);
        assert_eq!(region.preds.len(), 1);
        assert!(region.preds[0].column.matches("book", "price"));
    }

    #[test]
    fn gate_columns_join_the_read_set() {
        let rs = extract(
            r#"<V> FOR $b IN document("d")/book/row
WHERE $b/price = max(document("d")/book/row/price)
RETURN { <b> $b/title </b> } </V>"#,
        );
        assert_eq!(rs.sources.len(), 1);
        assert_eq!(rs.sources[0].to_string(), "max(book.price)");
        assert_eq!(rs.gate_cols.len(), 1, "{rs:?}");
        assert!(rs.gate_cols[0].matches("book", "price"));
        assert!(rs.distinct.is_empty(), "gated regions are not Distinct regions: {rs:?}");
    }
}
