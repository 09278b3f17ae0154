//! The update translation engine: build the relational update sequence `U`
//! for a schema-approved view update, together with the probes the Step-3
//! data checks need.
//!
//! Deletes anchor on the Rule-2 witness relation (the *clean extended
//! source*) and let the engine's foreign-key policies cascade, which is
//! exactly the "delete a clean extended source" prescription of \[32\]; under
//! the translation-minimization condition, shared sources (the other
//! relations of `CR(v)`) are retained — deleting them would surface as a
//! side effect wherever else the view exposes them (u9's publisher).
//!
//! Inserts decompose the fragment into per-relation tuples, propagate key
//! values through join equalities, check *shared* relations for existence +
//! duplication consistency (u4), and emit plain single-table INSERTs.

use std::collections::HashMap;

use ufilter_asg::{AsgNodeId, AsgNodeKind, ViewAsg};
use ufilter_rdb::{ColRef, DatabaseSchema, Delete, Expr, Insert, Row, Select, Stmt, Update, Value};
use ufilter_xml::{Document, NodeId};
use ufilter_xquery::UpdateKind;

use crate::outcome::{CheckOutcome, CheckStep};
use crate::probe::{build_probe, path_info, SelectSpec};
use crate::star::StarMarking;
use crate::target::{clean_text, ResolvedAction};

/// A shared-relation check (existence + duplication consistency).
#[derive(Debug, Clone)]
pub struct SharedCheck {
    /// The shared relation the fragment writes into.
    pub relation: String,
    /// Key columns identifying the shared row.
    pub key_cols: Vec<String>,
    /// Key values the fragment supplies for those columns.
    pub key_vals: Vec<Value>,
    /// All values the fragment supplies for this relation.
    pub supplied: Vec<(String, Value)>,
}

/// A data-driven gate run before the plan may execute — the plan-level
/// analogue of the outside strategy's key-conflict probe. Value-element
/// inserts demand an *empty* probe ("the value slot must still be empty");
/// foreign-key existence gates demand a *non-empty* one ("the referenced
/// row must already be stored").
#[derive(Debug, Clone)]
pub struct Precondition {
    /// Probe query deciding the gate.
    pub probe: Select,
    /// When `true`, any returned row rejects the update; when `false`, an
    /// empty result rejects it.
    pub expect_empty: bool,
    /// Reason reported when the gate fails.
    pub reason: String,
}

/// One translated statement with its optional outside-strategy pre-probe.
#[derive(Debug, Clone)]
pub struct PlannedStmt {
    /// The translated SQL statement.
    pub stmt: Stmt,
    /// Probe run by the outside strategy before issuing the statement:
    /// for inserts, a key-conflict probe (non-empty ⇒ reject); for deletes
    /// and updates, an existence probe (empty ⇒ skip the statement).
    pub probe: Option<Select>,
    /// The relation the statement writes.
    pub relation: String,
}

/// The full translation plan for one action.
#[derive(Debug, Clone)]
pub struct TranslationPlan {
    /// Context probe (§6.1); `None` when the context is the view root.
    pub context_probe: Option<Select>,
    /// Materialized-probe table name (`TAB_book` in the paper).
    pub tab_name: Option<String>,
    /// Refined-mode shared-data conditions to discharge (Observation 2).
    pub shared_checks: Vec<SharedCheck>,
    /// Reject-if-nonempty probes evaluated before any statement runs.
    pub preconditions: Vec<Precondition>,
    /// The translated statements, in execution order.
    pub statements: Vec<PlannedStmt>,
    /// Human-readable planning notes for the report trace.
    pub notes: Vec<String>,
}

impl TranslationPlan {
    /// Just the SQL statements, in execution order.
    pub fn sql(&self) -> Vec<Stmt> {
        self.statements.iter().map(|p| p.stmt.clone()).collect()
    }
}

/// Failure during plan construction → final outcome.
pub type PlanResult = Result<TranslationPlan, CheckOutcome>;

fn untranslatable(step: CheckStep, reason: impl Into<String>) -> CheckOutcome {
    CheckOutcome::Untranslatable { step, reason: reason.into() }
}

/// Build the plan. `context_rows` are the results of the already-executed
/// context probe (empty slice when the context is the root).
pub fn build_plan(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    context_probe: Option<Select>,
    context_rows: &[(Vec<ColRef>, Row)],
    tab_name: Option<String>,
) -> PlanResult {
    let mut plan = TranslationPlan {
        context_probe,
        tab_name,
        shared_checks: Vec::new(),
        preconditions: Vec::new(),
        statements: Vec::new(),
        notes: Vec::new(),
    };
    let ctx_cols: Vec<ColRef> =
        context_rows.first().map(|(cols, _)| cols.clone()).unwrap_or_default();
    let is_value_target =
        matches!(asg.node(action.node).kind, AsgNodeKind::Tag | AsgNodeKind::Leaf);
    match action.kind {
        UpdateKind::Delete => {
            plan_delete(asg, marking, schema, action, &ctx_cols, &mut plan)?;
        }
        UpdateKind::Replace if is_value_target && action.fragment.is_some() => {
            plan_value_set(asg, schema, action, &mut plan)?;
        }
        UpdateKind::Replace => {
            plan_delete(asg, marking, schema, action, &ctx_cols, &mut plan)?;
        }
        UpdateKind::Insert if is_value_target => {
            plan_value_insert(asg, schema, action, &mut plan)?;
        }
        UpdateKind::Insert => {
            plan_insert(asg, marking, schema, action, context_rows, &mut plan)?;
        }
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// deletes
// ---------------------------------------------------------------------------

fn plan_delete(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    ctx_cols: &[ColRef],
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    let node = asg.node(action.node);
    match node.kind {
        AsgNodeKind::Root => {
            // Deleting the root empties the view: delete each top-level
            // repeated element's anchor under the view predicates.
            for c in &node.children {
                if asg.node(*c).kind == AsgNodeKind::Internal {
                    emit_anchor_delete(asg, marking, schema, *c, action, ctx_cols, plan)?;
                }
            }
            Ok(())
        }
        AsgNodeKind::Internal => {
            emit_anchor_delete(asg, marking, schema, action.node, action, ctx_cols, plan)
        }
        // Unreachable: the non-injective classification rejects aggregate
        // targets before planning. Kept as a defensive error, not a panic.
        AsgNodeKind::Aggregate => Err(untranslatable(
            CheckStep::NonInjective,
            format!("<{}> is aggregated output and cannot be translated", node.tag),
        )),
        AsgNodeKind::Tag | AsgNodeKind::Leaf => {
            // Valid value deletion (cardinality ?): SET NULL on the column.
            let leaf = crate::target::find_leaf(asg, action.node)
                .ok_or_else(|| untranslatable(CheckStep::Star, "no leaf under target"))?
                .clone();
            let owner = schema
                .table(&leaf.name.table)
                .ok_or_else(|| untranslatable(CheckStep::Star, "unknown relation"))?;
            let parent_internal = asg.internal_ancestor(action.node).unwrap_or(asg.root());
            let info = path_info(asg, parent_internal);
            let key_cols: Vec<ColRef> = owner
                .primary_key
                .iter()
                .map(|k| ColRef::new(owner.name.clone(), k.clone()))
                .collect();
            let probe = build_probe(
                schema,
                &info,
                &action.predicates,
                &SelectSpec::Columns(key_cols.clone()),
            );
            let where_clause = in_probe_pred(&key_cols, &probe);
            plan.statements.push(PlannedStmt {
                stmt: Stmt::Update(Update {
                    table: owner.name.clone(),
                    assignments: vec![(leaf.name.column.clone(), Value::Null)],
                    where_clause: Some(where_clause),
                }),
                probe: Some(probe),
                relation: owner.name.clone(),
            });
            Ok(())
        }
    }
}

fn emit_anchor_delete(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    node: AsgNodeId,
    action: &ResolvedAction,
    ctx_cols: &[ColRef],
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    let anchor = marking.delete_anchor.get(&node).cloned().ok_or_else(|| {
        untranslatable(
            CheckStep::Star,
            format!("<{}> has no clean extended source to anchor the delete", asg.node(node).tag),
        )
    })?;
    let table = schema
        .table(&anchor)
        .ok_or_else(|| untranslatable(CheckStep::Star, format!("unknown relation {anchor}")))?;

    let push_minimization_notes = |plan: &mut TranslationPlan| {
        // Translation minimization: shared sources of CR(v) are retained.
        for r in asg.cr(node) {
            if !r.eq_ignore_ascii_case(&anchor) {
                plan.notes.push(format!(
                    "minimization: shared source {r} retained (removal would side-effect \
                     other view elements)"
                ));
            }
        }
    };

    // Preferred translation: key the delete on the parent link, like the
    // paper's U3 — `DELETE FROM anchor WHERE link_col IN (SELECT parent_col
    // FROM …)`. The outside strategy's inner SELECT ranges over the
    // materialized TAB (unindexed, §7.2); the hybrid strategy inlines the
    // context join itself (indexed), materializing nothing.
    // Requires every update predicate to be covered: applied by the context
    // probe, or constraining the anchor relation directly (conjoined here).
    let ctx_rel = |t: &str| ctx_cols.iter().any(|c| c.table.eq_ignore_ascii_case(t));
    let anchor_preds: Vec<&(ColRef, ufilter_rdb::CmpOp, Value)> = action
        .predicates
        .iter()
        .filter(|(c, _, _)| c.table.eq_ignore_ascii_case(&anchor))
        .collect();
    let all_covered = action
        .predicates
        .iter()
        .all(|(c, _, _)| ctx_rel(&c.table) || c.table.eq_ignore_ascii_case(&anchor));
    if all_covered {
        if let Some((anchor_col, parent)) = tab_link(asg, schema, node, &anchor, ctx_cols) {
            let inner: Option<Select> = if let Some(tab) = &plan.tab_name {
                Some(Select::new(
                    vec![ufilter_rdb::SelectItem::Expr {
                        expr: Expr::col("", parent.column.clone()),
                        alias: None,
                    }],
                    vec![ufilter_rdb::FromItem::Table(ufilter_rdb::TableRef::named(tab.clone()))],
                    None,
                ))
            } else {
                plan.context_probe.as_ref().map(|cp| {
                    Select::new(
                        vec![ufilter_rdb::SelectItem::Expr {
                            expr: Expr::Column(parent.clone()),
                            alias: None,
                        }],
                        cp.from.clone(),
                        cp.where_clause.clone(),
                    )
                })
            };
            if let Some(inner) = inner {
                let mut conj = vec![Expr::InSubquery {
                    expr: Box::new(Expr::col(table.name.clone(), anchor_col.clone())),
                    query: Box::new(inner.clone()),
                    negated: false,
                }];
                for (c, op, v) in &anchor_preds {
                    conj.push(Expr::cmp(*op, Expr::Column((*c).clone()), Expr::lit((*v).clone())));
                }
                let where_clause = Expr::and(conj.clone());
                let probe = Select::new(
                    vec![ufilter_rdb::SelectItem::Expr {
                        expr: Expr::col(table.name.clone(), "rowid"),
                        alias: None,
                    }],
                    vec![ufilter_rdb::FromItem::Table(ufilter_rdb::TableRef::named(
                        table.name.clone(),
                    ))],
                    Some(Expr::and(conj)),
                );
                plan.statements.push(PlannedStmt {
                    stmt: Stmt::Delete(Delete {
                        table: table.name.clone(),
                        where_clause: Some(where_clause),
                    }),
                    probe: Some(probe),
                    relation: table.name.clone(),
                });
                push_minimization_notes(plan);
                return Ok(());
            }
        }
    }

    // Fallback: self-join form — `DELETE FROM anchor WHERE pk IN (full
    // path probe selecting the anchor's key)`.
    let info = path_info(asg, node);
    let key_cols: Vec<ColRef> =
        table.primary_key.iter().map(|k| ColRef::new(table.name.clone(), k.clone())).collect();
    let probe =
        build_probe(schema, &info, &action.predicates, &SelectSpec::Columns(key_cols.clone()));
    let where_clause = in_probe_pred(&key_cols, &probe);
    plan.statements.push(PlannedStmt {
        stmt: Stmt::Delete(Delete { table: table.name.clone(), where_clause: Some(where_clause) }),
        probe: Some(probe),
        relation: table.name.clone(),
    });
    push_minimization_notes(plan);
    Ok(())
}

/// Find the column pairing `(anchor_col, parent_colref)` linking the
/// anchor relation to the update context: either through the deleted
/// node's edge condition (child side on the anchor, parent side present in
/// the context header), or — when the deleted node *is* the context —
/// through the anchor's single-column primary key.
fn tab_link(
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    node: AsgNodeId,
    anchor: &str,
    ctx_cols: &[ColRef],
) -> Option<(String, ColRef)> {
    let in_ctx = |col: &ColRef| {
        ctx_cols.iter().any(|c| {
            c.column.eq_ignore_ascii_case(&col.column)
                && (c.table.is_empty() || c.table.eq_ignore_ascii_case(&col.table))
        })
    };
    for jc in &asg.node(node).conditions {
        for (child, parent) in [(&jc.left, &jc.right), (&jc.right, &jc.left)] {
            if child.table.eq_ignore_ascii_case(anchor) && in_ctx(parent) {
                return Some((child.column.clone(), parent.clone()));
            }
        }
    }
    // Node is (or shares relations with) the context: single-column PK.
    let table = schema.table(anchor)?;
    if table.primary_key.len() == 1 {
        let pk = &table.primary_key[0];
        let pk_ref = ColRef::new(table.name.clone(), pk.clone());
        if in_ctx(&pk_ref) {
            return Some((pk.clone(), pk_ref));
        }
    }
    None
}

/// Match the rows of the key's relation that `probe` selects: `k IN
/// (probe)` for a single-column key, and `R.rowid IN (SELECT R.rowid FROM
/// <probe's FROM and WHERE>)` for a composite one, because an `IN`
/// subquery compares only its first column.
fn in_probe_pred(key_cols: &[ColRef], probe: &Select) -> Expr {
    let (expr, query) = match key_cols {
        [key] => (Expr::Column(key.clone()), probe.clone()),
        _ => {
            let rowid = Expr::col(key_cols[0].table.clone(), "rowid");
            (rowid.clone(), Select { items: vec![SelectItemExpr(rowid)], ..probe.clone() })
        }
    };
    Expr::InSubquery { expr: Box::new(expr), query: Box::new(query), negated: false }
}

// ---------------------------------------------------------------------------
// value-element ops
// ---------------------------------------------------------------------------
//
// Materialization omits NULL columns, so a cardinality-? value element is
// *absent* exactly when its column is NULL. Inserting one into an existing
// region is therefore `UPDATE … SET col = v` gated on the slot being empty,
// and replacing one swaps the value only where it is currently present
// (`… AND col IS NOT NULL`), mirroring the XML-side in-place replace.

/// Resolve the pieces every value-element translation needs: the leaf
/// column, its owning table, the region probe keyed on that table's primary
/// key, and the parsed replacement value.
#[allow(clippy::type_complexity)]
fn value_parts(
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
) -> Result<(ufilter_asg::LeafInfo, String, Vec<ColRef>, Select, Value), CheckOutcome> {
    let node = asg.node(action.node);
    if node.card.is_starred() {
        return Err(untranslatable(
            CheckStep::Star,
            format!("<{}> is a repeating value element; no single SET targets it", node.tag),
        ));
    }
    let leaf = crate::target::find_leaf(asg, action.node)
        .ok_or_else(|| untranslatable(CheckStep::Star, "no leaf under target"))?
        .clone();
    let owner = schema
        .table(&leaf.name.table)
        .ok_or_else(|| untranslatable(CheckStep::Star, "unknown relation"))?;
    let parent_internal = asg.internal_ancestor(action.node).unwrap_or(asg.root());
    let info = path_info(asg, parent_internal);
    let key_cols: Vec<ColRef> =
        owner.primary_key.iter().map(|k| ColRef::new(owner.name.clone(), k.clone())).collect();
    let probe =
        build_probe(schema, &info, &action.predicates, &SelectSpec::Columns(key_cols.clone()));
    let frag = action.fragment.as_ref().expect("value op carries a fragment");
    let text = clean_text(&frag.text_content(frag.root()));
    let value = Value::parse_as(&text, leaf.ty).unwrap_or(Value::Str(text));
    Ok((leaf, owner.name.clone(), key_cols, probe, value))
}

/// `SELECT rowid FROM R WHERE pk IN (region probe) AND col IS (NOT) NULL`.
fn value_slot_probe(
    table: &str,
    key_cols: &[ColRef],
    region: &Select,
    col: &str,
    present: bool,
) -> Select {
    let slot = Expr::IsNull { expr: Box::new(Expr::col(table, col)), negated: present };
    Select::new(
        vec![SelectItemExpr(Expr::col(table, "rowid"))],
        vec![FromTable(table)],
        Some(Expr::and(vec![in_probe_pred(key_cols, region), slot])),
    )
}

/// INSERT of a value element into an existing region: the slot must be
/// empty everywhere the region probe matches (view-schema cardinality `?`
/// admits at most one occurrence), then `UPDATE … SET col = v`.
fn plan_value_insert(
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    let (leaf, table, key_cols, probe, value) = value_parts(asg, schema, action)?;
    let col = leaf.name.column.clone();
    plan.preconditions.push(Precondition {
        probe: value_slot_probe(&table, &key_cols, &probe, &col, true),
        expect_empty: true,
        reason: format!(
            "<{}> already present: {} holds a value, and a second occurrence would \
             violate the view schema",
            asg.node(action.node).tag,
            leaf.name
        ),
    });
    let where_clause = Expr::and(vec![
        in_probe_pred(&key_cols, &probe),
        Expr::IsNull { expr: Box::new(Expr::col(table.clone(), col.clone())), negated: false },
    ]);
    plan.statements.push(PlannedStmt {
        stmt: Stmt::Update(Update {
            table: table.clone(),
            assignments: vec![(col.clone(), value)],
            where_clause: Some(where_clause.clone()),
        }),
        probe: Some(value_slot_probe(&table, &key_cols, &probe, &col, false)),
        relation: table,
    });
    plan.notes.push("value insert: filling an empty optional column slot".into());
    Ok(())
}

/// REPLACE of a value element: swap the value wherever it currently
/// exists; absent occurrences stay absent (the XML replace matches only
/// existing elements).
fn plan_value_set(
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    let (leaf, table, key_cols, probe, value) = value_parts(asg, schema, action)?;
    let col = leaf.name.column.clone();
    let where_clause = Expr::and(vec![
        in_probe_pred(&key_cols, &probe),
        Expr::IsNull { expr: Box::new(Expr::col(table.clone(), col.clone())), negated: true },
    ]);
    plan.statements.push(PlannedStmt {
        stmt: Stmt::Update(Update {
            table: table.clone(),
            assignments: vec![(col, value)],
            where_clause: Some(where_clause),
        }),
        probe: Some(value_slot_probe(&table, &key_cols, &probe, &leaf.name.column, true)),
        relation: table,
    });
    plan.notes.push("value replace: in-place SET on the present occurrences".into());
    Ok(())
}

// ---------------------------------------------------------------------------
// inserts
// ---------------------------------------------------------------------------

/// Per-relation tuple under construction.
#[derive(Debug, Clone, Default)]
struct TupleDraft {
    values: Vec<(String, Value)>,
}

impl TupleDraft {
    fn get(&self, col: &str) -> Option<&Value> {
        self.values.iter().find(|(c, _)| c.eq_ignore_ascii_case(col)).map(|(_, v)| v)
    }

    /// Returns `false` on a conflicting re-assignment (duplication
    /// inconsistency inside the fragment).
    fn set(&mut self, col: &str, v: Value) -> bool {
        match self.get(col) {
            Some(existing) => existing.sql_eq(&v) == Some(true) || existing.is_null(),
            None => {
                self.values.push((col.to_string(), v));
                true
            }
        }
    }
}

fn plan_insert(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    context_rows: &[(Vec<ColRef>, Row)],
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    let frag = action.fragment.as_ref().expect("insert carries a fragment");
    // One insert group per matched context instance (root context → one).
    let contexts: Vec<Option<&(Vec<ColRef>, Row)>> =
        if context_rows.is_empty() { vec![None] } else { context_rows.iter().map(Some).collect() };
    for ctx in contexts {
        emit_insert_group(asg, marking, schema, action.node, frag, frag.root(), ctx, plan)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_insert_group(
    asg: &ViewAsg,
    marking: &StarMarking,
    schema: &DatabaseSchema,
    node: AsgNodeId,
    frag: &Document,
    el: NodeId,
    ctx: Option<&(Vec<ColRef>, Row)>,
    plan: &mut TranslationPlan,
) -> Result<(), CheckOutcome> {
    // 1. Collect leaf values for the non-starred subtree of `node`.
    let mut drafts: HashMap<String, TupleDraft> = HashMap::new();
    for (_, table) in &asg.node(node).bindings {
        drafts.entry(table.to_ascii_lowercase()).or_default();
    }
    let mut nested: Vec<(AsgNodeId, NodeId)> = Vec::new();
    collect_values(asg, node, frag, el, &mut drafts, &mut nested)?;

    // 2. Propagate values through join equalities (node conditions +
    //    context row values).
    let resolve_ctx = |col: &ColRef| -> Option<Value> {
        let (cols, row) = ctx?;
        cols.iter()
            .position(|c| {
                c.matches(&col.table, &col.column)
                    || c.column.eq_ignore_ascii_case(&col.column) && c.table.is_empty()
            })
            .map(|i| row[i].clone())
    };
    let mut changed = true;
    while changed {
        changed = false;
        for jc in &asg.node(node).conditions {
            let pairs = [(&jc.left, &jc.right), (&jc.right, &jc.left)];
            for (src, dst) in pairs {
                let src_val = drafts
                    .get(&src.table.to_ascii_lowercase())
                    .and_then(|d| d.get(&src.column))
                    .cloned()
                    .or_else(|| resolve_ctx(src));
                if let Some(v) = src_val {
                    if v.is_null() {
                        continue;
                    }
                    if let Some(d) = drafts.get_mut(&dst.table.to_ascii_lowercase()) {
                        match d.get(&dst.column) {
                            None => {
                                d.set(&dst.column, v.clone());
                                changed = true;
                            }
                            // The join equality must actually hold between the
                            // fragment and the targeted context instance, or
                            // the inserted element can never surface under that
                            // instance: any SQL we emit either does nothing
                            // visible there (a silent side effect elsewhere) or
                            // nothing at all while the XML side still grows.
                            Some(have) if have.sql_eq(&v) == Some(false) => {
                                return Err(untranslatable(
                                    CheckStep::DataPoint,
                                    format!(
                                        "the fragment fixes {dst} = {have} but the view's \
                                         join with the targeted context requires {src} = {v}; \
                                         the inserted element can never appear at this position",
                                    ),
                                ));
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
    }

    // 2b. Hidden view predicates: columns the view never projects but its
    // non-correlation predicates range over (`book.year > 1990`) must still
    // be satisfied, or the inserted element silently fails to appear — a
    // lost update. Synthesize a witness value, as the paper's own U2 does
    // (`year = 1994`).
    let hidden = path_info(asg, node).local_preds;
    for (rel, draft) in drafts.iter_mut() {
        let mut per_column: HashMap<String, ufilter_rdb::sat::Domain> = HashMap::new();
        for lp in &hidden {
            if !lp.column.table.eq_ignore_ascii_case(rel) {
                continue;
            }
            let supplied = draft.get(&lp.column.column).map(|v| !v.is_null()).unwrap_or(false);
            if supplied {
                continue; // fragment provided it; Step 1 validated it
            }
            // Synthesis is only sound for columns the view never shows.
            // A *projected* predicate column fixes visible content: an
            // invented value would surface as an element the fragment
            // never contained (a silent side effect), and NULL would keep
            // the element out of the view (a lost update). Either way the
            // fragment must spell the value out.
            if projected_in_subtree(asg, node, &lp.column) {
                return Err(untranslatable(
                    CheckStep::DataPoint,
                    format!(
                        "the view constrains and projects {}; the fragment must \
                         supply its element explicitly or the inserted content \
                         cannot appear as given",
                        lp.column
                    ),
                ));
            }
            // Nor is synthesis sound for foreign-key columns: a witness
            // picked from the predicate's value domain is not guaranteed to
            // reference a stored parent row, and NULL keeps the row out of
            // the view (three-valued predicates). Which parent the new row
            // attaches to is the updater's decision, not ours.
            if schema.table(rel).is_some_and(|t| {
                t.foreign_keys
                    .iter()
                    .any(|fk| fk.columns.iter().any(|c| c.eq_ignore_ascii_case(&lp.column.column)))
            }) {
                return Err(untranslatable(
                    CheckStep::DataPoint,
                    format!(
                        "the view constrains {}, a foreign-key column the fragment \
                         does not determine; no synthesized value is guaranteed to \
                         reference an existing row",
                        lp.column
                    ),
                ));
            }
            per_column
                .entry(lp.column.column.to_ascii_lowercase())
                .or_default()
                .constrain(lp.op, &lp.value);
        }
        for (col, domain) in per_column {
            let ty = schema.table(rel).and_then(|t| t.column_named(&col).map(|c| c.ty));
            match domain.witness(ty) {
                Some(v) => {
                    plan.notes.push(format!(
                        "hidden view predicate on {rel}.{col}: synthesized {v} so the \
                         inserted element appears in the view"
                    ));
                    draft.set(&col, v);
                }
                None => {
                    return Err(untranslatable(
                        CheckStep::DataPoint,
                        format!(
                            "no value for {rel}.{col} can satisfy the view's hidden \
                             predicates; the inserted element could never appear"
                        ),
                    ))
                }
            }
        }
    }

    // 3. Shared-vs-fresh split and emission in FK-topological order.
    let shared_rels: Vec<String> = marking.rule3.get(&node).cloned().unwrap_or_default();
    let mut order: Vec<String> = drafts.keys().cloned().collect();
    order.sort_by_key(|r| fk_depth(schema, r));
    for rel in order {
        let table = schema.table(&rel).ok_or_else(|| {
            untranslatable(CheckStep::DataPoint, format!("unknown relation {rel}"))
        })?;
        let draft = drafts.get(&rel).expect("drafted");
        if draft.values.is_empty() {
            // Nothing determined for this relation — not by the fragment,
            // not by join propagation, not by synthesis. No base row can
            // come into existence, so the inserted element would never
            // appear in a recomputed view; skipping it silently would turn
            // the whole insert into a no-op translation (a lost update).
            return Err(untranslatable(
                CheckStep::DataPoint,
                format!(
                    "the inserted element determines no column of {rel}; no base \
                     row can make it appear in the view"
                ),
            ));
        }
        let key_vals: Option<Vec<Value>> =
            table.primary_key.iter().map(|k| draft.get(k).cloned()).collect();
        let is_shared = shared_rels.iter().any(|s| s.eq_ignore_ascii_case(&rel));
        if is_shared {
            let Some(key_vals) = key_vals else {
                return Err(untranslatable(
                    CheckStep::DataPoint,
                    format!("shared relation {rel}: fragment does not supply its key"),
                ));
            };
            plan.shared_checks.push(SharedCheck {
                relation: table.name.clone(),
                key_cols: table.primary_key.clone(),
                key_vals,
                supplied: draft.values.clone(),
            });
            plan.notes.push(format!(
                "shared data: {rel} must pre-exist (no INSERT issued; duplication \
                 consistency verified against the stored row)"
            ));
            continue;
        }
        // Fresh insert. Every NOT NULL column must be determined — by the
        // fragment, join propagation, or hidden-predicate synthesis — or
        // the base row cannot exist and the engine would refuse at
        // execution time (the check must refuse first).
        for col in &table.columns {
            let supplied = draft.get(&col.name).map(|v| !v.is_null()).unwrap_or(false);
            let required =
                col.not_null || table.primary_key.iter().any(|k| k.eq_ignore_ascii_case(&col.name));
            if required && !supplied {
                return Err(untranslatable(
                    CheckStep::DataPoint,
                    format!(
                        "{}.{} is required (NOT NULL or key) but neither the fragment \
                         nor the view determines its value; the inserted element \
                         cannot exist in the base",
                        table.name, col.name
                    ),
                ));
            }
        }
        // Determined foreign-key values must reference a stored row, or the
        // engine refuses the insert after the check accepted it. A parent
        // emitted earlier in this same plan (FK-topological order puts
        // referenced relations first) satisfies the reference without a
        // probe.
        for fk in &table.foreign_keys {
            let vals: Option<Vec<Value>> =
                fk.columns.iter().map(|c| draft.get(c).cloned()).collect();
            let Some(vals) = vals else { continue };
            if vals.iter().any(Value::is_null) {
                continue; // NULL references nothing; the engine allows it
            }
            let satisfied_in_plan = plan.statements.iter().any(|p| match &p.stmt {
                Stmt::Insert(ins) if ins.table.eq_ignore_ascii_case(&fk.ref_table) => {
                    ins.rows.iter().any(|row| {
                        fk.ref_columns.iter().zip(&vals).all(|(rc, v)| {
                            ins.columns
                                .iter()
                                .position(|c| c.eq_ignore_ascii_case(rc))
                                .is_some_and(|i| row[i].sql_eq(v) == Some(true))
                        })
                    })
                }
                _ => false,
            });
            if satisfied_in_plan {
                continue;
            }
            let conj: Vec<Expr> = fk
                .ref_columns
                .iter()
                .zip(&vals)
                .map(|(c, v)| Expr::eq(Expr::col(&fk.ref_table, c.clone()), Expr::lit(v.clone())))
                .collect();
            plan.preconditions.push(Precondition {
                probe: Select::new(
                    vec![SelectItemExpr(Expr::col(&fk.ref_table, "rowid"))],
                    vec![FromTable(&fk.ref_table)],
                    Some(Expr::and(conj)),
                ),
                expect_empty: false,
                reason: format!(
                    "{}({}) references {}({}) but no such row is stored; the \
                     engine would refuse the insert",
                    table.name,
                    fk.columns.join(", "),
                    fk.ref_table,
                    fk.ref_columns.join(", ")
                ),
            });
        }
        let columns: Vec<String> = draft.values.iter().map(|(c, _)| c.clone()).collect();
        let row: Vec<Value> = draft.values.iter().map(|(_, v)| v.clone()).collect();
        let probe = key_vals.map(|kv| key_conflict_probe(&table.name, &table.primary_key, &kv));
        plan.statements.push(PlannedStmt {
            stmt: Stmt::Insert(Insert { table: table.name.clone(), columns, rows: vec![row] }),
            probe,
            relation: table.name.clone(),
        });
    }

    // 4. Starred nested elements in the fragment (e.g. a new book carrying
    //    its reviews) recurse as further insert groups, with the parent's
    //    freshly-known values as context.
    for (child_node, child_el) in nested {
        // Pass the parent drafts as a context row.
        let mut cols = Vec::new();
        let mut row = Vec::new();
        for (rel, d) in &drafts {
            for (c, v) in &d.values {
                cols.push(ColRef::new(rel.clone(), c.clone()));
                row.push(v.clone());
            }
        }
        emit_insert_group(
            asg,
            marking,
            schema,
            child_node,
            frag,
            child_el,
            Some(&(cols, row)),
            plan,
        )?;
    }
    Ok(())
}

/// Does the view expose `col` anywhere under `node`'s subtree?
fn projected_in_subtree(asg: &ViewAsg, node: AsgNodeId, col: &ColRef) -> bool {
    asg.subtree(node).into_iter().any(|s| {
        asg.node(s).leaf.as_ref().is_some_and(|l| {
            l.name.table.eq_ignore_ascii_case(&col.table)
                && l.name.column.eq_ignore_ascii_case(&col.column)
        })
    })
}

/// Walk the ASG subtree in lockstep with the fragment, collecting leaf
/// values for the drafts of the relations bound at `node`. Starred internal
/// children found in the fragment are queued for recursive handling.
fn collect_values(
    asg: &ViewAsg,
    node: AsgNodeId,
    frag: &Document,
    el: NodeId,
    drafts: &mut HashMap<String, TupleDraft>,
    nested: &mut Vec<(AsgNodeId, NodeId)>,
) -> Result<(), CheckOutcome> {
    for child_el in frag.child_elements(el) {
        let tag = frag.name(child_el).unwrap_or("");
        let Some(&child) =
            asg.node(node).children.iter().find(|c| asg.node(**c).tag.eq_ignore_ascii_case(tag))
        else {
            continue; // validation already rejected unknown tags
        };
        let cn = asg.node(child);
        match cn.kind {
            AsgNodeKind::Tag => {
                if let Some(leaf) = crate::target::find_leaf(asg, child) {
                    let text = clean_text(&frag.text_content(child_el));
                    let value = if text.is_empty() {
                        Value::Null
                    } else {
                        Value::parse_as(&text, leaf.ty).unwrap_or(Value::Str(text))
                    };
                    let rel = leaf.name.table.to_ascii_lowercase();
                    let draft = drafts.entry(rel).or_default();
                    if !draft.set(&leaf.name.column, value.clone()) {
                        return Err(untranslatable(
                            CheckStep::DataPoint,
                            format!(
                                "duplication inconsistency: {} receives conflicting values",
                                leaf.name
                            ),
                        ));
                    }
                }
            }
            AsgNodeKind::Internal => {
                if cn.card.is_starred() {
                    nested.push((child, child_el));
                } else {
                    collect_values(asg, child, frag, child_el, drafts, nested)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// `SELECT rowid FROM R WHERE k1 = v1 AND …` — the outside strategy's
/// key-conflict probe (PQ3 of §6.2.2).
pub fn key_conflict_probe(table: &str, key_cols: &[String], key_vals: &[Value]) -> Select {
    let conj: Vec<Expr> = key_cols
        .iter()
        .zip(key_vals)
        .map(|(c, v)| Expr::eq(Expr::col(table, c.clone()), Expr::lit(v.clone())))
        .collect();
    Select::new(
        vec![SelectItemExpr(Expr::col(table, "rowid"))],
        vec![FromTable(table)],
        Some(Expr::and(conj)),
    )
}

#[allow(non_snake_case)]
fn SelectItemExpr(e: Expr) -> ufilter_rdb::SelectItem {
    ufilter_rdb::SelectItem::Expr { expr: e, alias: None }
}

#[allow(non_snake_case)]
fn FromTable(t: &str) -> ufilter_rdb::FromItem {
    ufilter_rdb::FromItem::Table(ufilter_rdb::TableRef::named(t))
}

/// Depth of a relation in the FK DAG (referenced relations first).
fn fk_depth(schema: &DatabaseSchema, rel: &str) -> usize {
    fn depth(schema: &DatabaseSchema, rel: &str, seen: &mut Vec<String>) -> usize {
        if seen.iter().any(|s| s.eq_ignore_ascii_case(rel)) {
            return 0;
        }
        seen.push(rel.to_string());
        let Some(t) = schema.table(rel) else { return 0 };
        t.foreign_keys.iter().map(|fk| 1 + depth(schema, &fk.ref_table, seen)).max().unwrap_or(0)
    }
    depth(schema, rel, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookdemo;
    use crate::target::resolve;

    fn plan_for(update: &str) -> TranslationPlan {
        let f = bookdemo::book_filter();
        let mut db = bookdemo::book_db();
        let u = ufilter_xquery::parse_update(update).unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        // Execute the context probe the way the pipeline does.
        let action = &actions[0];
        let ctx = f.asg.node(action.context_node);
        let (probe, rows, tab) = if ctx.kind == AsgNodeKind::Root {
            (None, Vec::new(), None)
        } else {
            let info = crate::probe::path_info(&f.asg, action.context_node);
            let probe = crate::probe::build_probe(
                &f.schema,
                &info,
                &crate::datacheck::relevant_preds(&info, &action.predicates),
                &crate::probe::SelectSpec::Keys,
            );
            let rs = db.query(&probe).unwrap();
            let tab = format!("TAB_{}", ctx.tag);
            db.materialize(&tab, &probe).unwrap();
            let rows: Vec<(Vec<ColRef>, Row)> =
                rs.rows.into_iter().map(|r| (rs.columns.clone(), r)).collect();
            (Some(probe), rows, Some(tab))
        };
        build_plan(&f.asg, &f.marking, &f.schema, action, probe, &rows, tab).unwrap()
    }

    #[test]
    fn u8_translates_to_tab_keyed_delete() {
        let plan = plan_for(bookdemo::U8);
        assert_eq!(plan.statements.len(), 1);
        let sql = plan.statements[0].stmt.to_string();
        // The paper's U3 shape: DELETE keyed on the parent link via TAB.
        assert!(sql.starts_with("DELETE FROM review"), "{sql}");
        assert!(sql.contains("review.bookid IN (SELECT bookid FROM TAB_book)"), "{sql}");
        assert!(plan.statements[0].probe.is_some());
    }

    #[test]
    fn u9_anchor_delete_with_minimization_note() {
        let plan = plan_for(bookdemo::U9);
        assert_eq!(plan.statements.len(), 1);
        let sql = plan.statements[0].stmt.to_string();
        assert!(sql.starts_with("DELETE FROM book"), "{sql}");
        assert!(plan.notes.iter().any(|n| n.contains("publisher")), "{:?}", plan.notes);
    }

    #[test]
    fn u13_insert_carries_probe_bookid_and_shared_check_free() {
        let plan = plan_for(bookdemo::U13);
        assert_eq!(plan.statements.len(), 1);
        assert!(plan.shared_checks.is_empty()); // review shares nothing
        let Stmt::Insert(ins) = &plan.statements[0].stmt else { panic!() };
        assert_eq!(ins.table, "review");
        let cols_vals: Vec<(String, String)> =
            ins.columns.iter().zip(&ins.rows[0]).map(|(c, v)| (c.clone(), v.to_string())).collect();
        assert!(cols_vals.contains(&("bookid".to_string(), "'98003'".to_string())));
        assert!(cols_vals.contains(&("reviewid".to_string(), "'001'".to_string())));
    }

    #[test]
    fn u4_book_insert_has_publisher_shared_check() {
        let plan = plan_for(bookdemo::U4);
        assert_eq!(plan.shared_checks.len(), 1);
        let sc = &plan.shared_checks[0];
        assert_eq!(sc.relation, "publisher");
        assert_eq!(sc.key_vals, vec![Value::str("A01")]);
        // The book INSERT itself gets the FK value propagated from the
        // fragment's publisher pubid.
        let Stmt::Insert(ins) = &plan.statements[0].stmt else { panic!() };
        assert_eq!(ins.table, "book");
        let pubid_pos = ins.columns.iter().position(|c| c == "pubid").expect("pubid propagated");
        assert_eq!(ins.rows[0][pubid_pos], Value::str("A01"));
        // Key-conflict probe attached for the outside strategy.
        assert!(plan.statements[0].probe.is_some());
    }

    #[test]
    fn conflicting_duplicate_values_rejected_in_plan() {
        // A fragment supplying two different titles for the same book leaf
        // — duplication inconsistency caught before any data access.
        let f = bookdemo::book_filter();
        let u = ufilter_xquery::parse_update(
            r#"FOR $root IN document("V.xml") UPDATE $root {
               INSERT <book><bookid>98004</bookid><title>One</title><title>One</title>
               <price>20.00</price>
               <publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
               </book> }"#,
        )
        .unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        // (title twice violates cardinality at validation; here we call the
        // planner directly to exercise its own guard with equal values —
        // equal duplicates are tolerated.)
        let plan = build_plan(&f.asg, &f.marking, &f.schema, &actions[0], None, &[], None);
        assert!(plan.is_ok());
    }

    #[test]
    fn key_conflict_probe_is_pq3_shaped() {
        let probe = key_conflict_probe("book", &["bookid".to_string()], &[Value::str("98001")]);
        assert_eq!(probe.to_string(), "SELECT book.rowid FROM book WHERE book.bookid = '98001'");
    }

    #[test]
    fn fk_topological_order_inserts_referenced_first() {
        // Inserting a book with nested reviews: book before review.
        let f = bookdemo::book_filter();
        let mut db = bookdemo::book_db();
        let u = ufilter_xquery::parse_update(
            r#"FOR $root IN document("V.xml") UPDATE $root {
               INSERT <book><bookid>98004</bookid><title>T</title><price>20.00</price>
               <publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
               <review><reviewid>001</reviewid><comment>ok</comment></review>
               </book> }"#,
        )
        .unwrap();
        let actions = resolve(&f.asg, &u).unwrap();
        let plan = build_plan(&f.asg, &f.marking, &f.schema, &actions[0], None, &[], None).unwrap();
        let tables: Vec<&str> = plan
            .statements
            .iter()
            .filter_map(|p| match &p.stmt {
                Stmt::Insert(i) => Some(i.table.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(tables, vec!["book", "review"]);
        // Executing the plan really nests the review under the new book.
        let report = crate::datacheck::run_hybrid(&mut db, &plan, true);
        assert!(report.rejected.is_none(), "{:?}", report.rejected);
        assert_eq!(db.row_count("book"), 4);
        assert_eq!(db.row_count("review"), 3);
    }
}

#[cfg(test)]
mod hidden_pred_tests {
    use crate::bookdemo;
    use crate::outcome::CheckOutcome;

    #[test]
    fn book_insert_synthesizes_hidden_year() {
        // The view requires year > 1990 but never projects year; the
        // translation must invent one (the paper's U2 uses 1994) or the new
        // book would silently vanish from the view.
        let filter = bookdemo::book_filter();
        let mut db = bookdemo::book_db();
        let u = r#"FOR $root IN document("V.xml")
                   UPDATE $root {
                   INSERT <book><bookid>98020</bookid><title>T</title><price>20.00</price>
                   <publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
                   </book> }"#;
        let report = filter.apply(u, &mut db).remove(0);
        let CheckOutcome::Translatable { translation, .. } = &report.outcome else {
            panic!("{}", report.outcome);
        };
        let sql = translation[0].to_string();
        assert!(sql.contains("year"), "{sql}");
        // The stored year satisfies the hidden predicate.
        let rs = db.query_sql("SELECT year FROM book WHERE bookid = '98020'").unwrap();
        match &rs.rows[0][0] {
            ufilter_rdb::Value::Date(y) => assert!(*y > 1990, "year {y}"),
            other => panic!("unexpected year {other}"),
        }
        // And the book is visible in the regenerated view.
        let v = ufilter_xquery::materialize(&db, filter.query()).unwrap();
        let visible = v.children_named(v.root(), "book").iter().any(|b| {
            v.child_named(*b, "bookid").map(|n| v.text_content(n)) == Some("98020".into())
        });
        assert!(visible);
    }
}
