//! Step 3 — data-driven translatability checking (§6): execute a
//! [`TranslationPlan`] under one of the three strategies.
//!
//! * **Outside** (§6.2.2): probe before every statement — key-conflict
//!   probes for inserts, existence probes for deletes — and skip/reject
//!   before touching the database. Detects failed cases early (Fig. 17).
//! * **Hybrid** (§6.2.2): translate and execute inside a transaction,
//!   relying on the engine's errors (key conflict) and warnings (zero rows
//!   deleted); indexes on keys make its joins cheap (Fig. 16).
//! * **Internal** (§6.2.1): map the XML view to a relational LEFT JOIN view,
//!   fetch *all* attributes of the context to build a complete view tuple,
//!   and update through the relational view. Deliberately the most
//!   expensive (Fig. 15).

use ufilter_asg::{AsgNodeKind, ViewAsg};
use ufilter_rdb::{
    view as rdb_view, ColRef, DatabaseSchema, Db, Expr, FromItem, JoinKind, ResultSet, Row, RowId,
    Select, SelectItem, Stmt, TableRef, Value,
};
use ufilter_xquery::UpdateKind;

use crate::outcome::CheckStep;
use crate::probe::{build_probe, path_info, SelectSpec};
use crate::target::ResolvedAction;
use crate::translate::TranslationPlan;

/// Update-point checking strategy (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Fetch all candidate rows into the engine's host and check there
    /// (§6.2.1) — expensive fetches, no extra SQL round trips.
    Internal,
    /// Inline the checks into the translated SQL itself, no intermediate
    /// materialization (§6.2.2/§7.2).
    Hybrid,
    /// Probe with separate SQL before issuing each translated statement,
    /// keeping the context probe's result as `TAB_<tag>` for reuse (§6.2.3).
    #[default]
    Outside,
}

/// Result of running the data checks (and optionally the update itself).
#[derive(Debug, Clone, Default)]
pub struct DataCheckReport {
    /// Rejection, if any.
    pub rejected: Option<(CheckStep, String)>,
    /// Statements actually issued.
    pub executed: usize,
    /// Statements skipped by empty outside-probes.
    pub skipped: usize,
    /// Total rows affected.
    pub rows_affected: usize,
    /// Human-readable trace notes accumulated while checking.
    pub notes: Vec<String>,
}

impl DataCheckReport {
    fn reject(step: CheckStep, reason: impl Into<String>) -> DataCheckReport {
        DataCheckReport { rejected: Some((step, reason.into())), ..Default::default() }
    }
}

/// Shared-data checks (existence + duplication consistency) — the condition
/// analysis of Fig. 5, common to every strategy.
pub fn run_shared_checks(
    db: &Db,
    plan: &TranslationPlan,
) -> Result<Vec<String>, (CheckStep, String)> {
    let mut notes = Vec::new();
    for check in &plan.shared_checks {
        let rids = db
            .rows_matching(&check.relation, &check.key_cols, &check.key_vals)
            .map_err(|e| (CheckStep::DataPoint, e.to_string()))?;
        let Some(rid) = rids.first() else {
            let key: Vec<String> = check.key_vals.iter().map(|v| v.to_string()).collect();
            return Err((
                CheckStep::DataPoint,
                format!(
                    "shared data missing: {}({}) does not exist — inserting it would \
                     surface elsewhere in the view",
                    check.relation,
                    key.join(", ")
                ),
            ));
        };
        let schema = db.schema().table(&check.relation).expect("checked").clone();
        let stored = db
            .table_data(&check.relation)
            .and_then(|d| d.heap.get(*rid))
            .cloned()
            .expect("matched row");
        for (col, val) in &check.supplied {
            if val.is_null() {
                continue;
            }
            let idx = schema.column_index(col).ok_or_else(|| {
                (CheckStep::DataPoint, format!("unknown column {}.{col}", check.relation))
            })?;
            if stored[idx].sql_eq(val) != Some(true) {
                return Err((
                    CheckStep::DataPoint,
                    format!(
                        "duplication inconsistency: {}.{col} is {} in the base but the \
                         fragment supplies {val}",
                        check.relation, stored[idx]
                    ),
                ));
            }
        }
        notes.push(format!("shared data verified: {} exists and is consistent", check.relation));
    }
    for pre in &plan.preconditions {
        let rs = db
            .query_with(&pre.probe, plan.tab().as_slice())
            .map_err(|e| (CheckStep::DataPoint, e.to_string()))?;
        if rs.is_empty() != pre.expect_empty {
            return Err((CheckStep::DataPoint, pre.reason.clone()));
        }
        notes.push(if pre.expect_empty {
            "precondition probe empty: no conflicting occurrence".into()
        } else {
            "precondition probe non-empty: referenced data exists".into()
        });
    }
    Ok(notes)
}

/// Outside strategy: probe first, then (optionally) execute. The probes
/// read `TAB_<tag>` as the plan's bound context rows, so a check-only run
/// only reads `db`.
pub fn run_outside(db: &mut Db, plan: &TranslationPlan, apply: bool) -> DataCheckReport {
    let mut report = DataCheckReport::default();
    match run_shared_checks(db, plan) {
        Ok(notes) => report.notes.extend(notes),
        Err((step, reason)) => return DataCheckReport::reject(step, reason),
    }
    for planned in &plan.statements {
        if let Some(probe) = &planned.probe {
            let rs = match db.query_with(probe, plan.tab().as_slice()) {
                Ok(rs) => rs,
                Err(e) => return DataCheckReport::reject(CheckStep::DataPoint, e.to_string()),
            };
            match &planned.stmt {
                Stmt::Insert(_) => {
                    if !rs.is_empty() {
                        return DataCheckReport::reject(
                            CheckStep::DataPoint,
                            format!(
                                "data conflict: a {} row with this key already exists",
                                planned.relation
                            ),
                        );
                    }
                }
                _ => {
                    if rs.is_empty() {
                        report.skipped += 1;
                        report.notes.push(format!(
                            "probe empty: statement on {} skipped (nothing to do)",
                            planned.relation
                        ));
                        continue;
                    }
                }
            }
        }
        if apply {
            match db.run(planned.stmt.clone()) {
                Ok(out) => {
                    report.executed += 1;
                    report.rows_affected += out.affected;
                    for w in out.warnings {
                        report.notes.push(w.to_string());
                    }
                }
                Err(e) => {
                    return DataCheckReport::reject(CheckStep::DataPoint, e.to_string());
                }
            }
        }
    }
    report
}

/// Hybrid strategy: execute inside a transaction, trusting the engine's
/// error/warning channel; roll back on any error. With `apply = false` the
/// transaction is rolled back even on success (pure check) — and when the
/// caller already holds a transaction (so rolling back would discard
/// *their* work), the statements run against a copy-on-write clone of the
/// database instead, keeping the check side-effect-free.
pub fn run_hybrid(db: &mut Db, plan: &TranslationPlan, apply: bool) -> DataCheckReport {
    let mut report = DataCheckReport::default();
    match run_shared_checks(db, plan) {
        Ok(notes) => report.notes.extend(notes),
        Err((step, reason)) => return DataCheckReport::reject(step, reason),
    }
    isolated(db, apply, |db| hybrid_exec(db, plan, &mut report));
    report
}

/// Run `exec` (which returns `false` on failure) so that a check-only run
/// leaves `db` as it found it: in a transaction of its own that is rolled
/// back, or, inside the caller's transaction, on a copy-on-write clone
/// (which copies only the tables `exec` writes). With `apply`, a
/// transaction of its own commits unless `exec` failed; inside the
/// caller's, `exec` runs in place.
fn isolated(db: &mut Db, apply: bool, exec: impl FnOnce(&mut Db) -> bool) {
    let own_txn = !db.in_transaction();
    if !own_txn && !apply {
        exec(&mut db.clone());
        return;
    }
    if own_txn {
        db.begin().expect("no active transaction");
    }
    let ok = exec(db);
    if own_txn {
        let end = if apply && ok { db.commit() } else { db.rollback() };
        end.expect("transaction active");
    }
}

/// Run the plan's statements, accumulating into `report`; `false` (and a
/// rejection recorded in `report`) on the first engine error.
fn hybrid_exec(db: &mut Db, plan: &TranslationPlan, report: &mut DataCheckReport) -> bool {
    for planned in &plan.statements {
        match db.run(planned.stmt.clone()) {
            Ok(out) => {
                report.executed += 1;
                report.rows_affected += out.affected;
                for w in out.warnings {
                    report.notes.push(w.to_string());
                }
            }
            Err(e) => {
                *report = DataCheckReport::reject(
                    CheckStep::DataPoint,
                    format!("engine rejected the translated update: {e}"),
                );
                return false;
            }
        }
    }
    true
}

/// Internal strategy (§6.2.1): update through the mapping relational view.
/// A check-only run (`apply = false`) leaves no trace, as
/// [`run_hybrid`]'s does.
pub fn run_internal(
    db: &mut Db,
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    plan: &TranslationPlan,
    apply: bool,
) -> DataCheckReport {
    // Value-element ops translate to plain UPDATEs; the mapping relational
    // view has no slot for them (it reads whole tuples), so they execute
    // directly, like the hybrid strategy (which re-runs the shared checks
    // and preconditions itself).
    if !plan.statements.is_empty()
        && plan.statements.iter().all(|p| matches!(p.stmt, Stmt::Update(_)))
    {
        let mut inner = run_hybrid(db, plan, apply);
        inner.notes.push("internal strategy: value op executed directly".into());
        return inner;
    }
    let mut report = DataCheckReport::default();
    match run_shared_checks(db, plan) {
        Ok(notes) => report.notes.extend(notes),
        Err((step, reason)) => return DataCheckReport::reject(step, reason),
    }
    isolated(db, apply, |db| match internal_exec(db, asg, schema, action, plan, &mut report) {
        Ok(()) => true,
        Err(reason) => {
            report = DataCheckReport::reject(CheckStep::DataPoint, reason);
            false
        }
    });
    if !apply && report.rejected.is_none() && report.executed > 0 {
        report.notes.push(match action.kind {
            UpdateKind::Insert => "internal strategy executed through the view".into(),
            _ => "internal delete executed through the view".into(),
        });
    }
    report
}

/// The internal strategy's writes through the mapping view, accumulating
/// into `report`; `Err` carries a data-point rejection.
fn internal_exec(
    db: &mut Db,
    asg: &ViewAsg,
    schema: &DatabaseSchema,
    action: &ResolvedAction,
    plan: &TranslationPlan,
    report: &mut DataCheckReport,
) -> Result<(), String> {
    let view_name = ensure_relational_view(db, asg, schema)?;
    match action.kind {
        UpdateKind::Insert => {
            // The expensive part: fetch *all* attributes of every context
            // relation to build complete view tuples (the paper's critique:
            // UV "has to find (pubid, pubname, price)" it never needed).
            let ctx_node = if asg.node(action.context_node).kind == AsgNodeKind::Root {
                action.node
            } else {
                action.context_node
            };
            let info = path_info(asg, ctx_node);
            let probe = build_probe(
                schema,
                &info,
                &relevant_preds(&info, &action.predicates),
                &SelectSpec::AllColumns,
            );
            let ctx_rows = db.query(&probe).map_err(|e| e.to_string())?;
            // Values supplied by the fragment, via the plan's statements.
            let mut supplied: Vec<(String, Value)> = Vec::new();
            for planned in &plan.statements {
                if let Stmt::Insert(ins) = &planned.stmt {
                    for (c, v) in ins.columns.iter().zip(&ins.rows[0]) {
                        supplied.push((view_column(&ins.table, c), v.clone()));
                    }
                }
            }
            for check in &plan.shared_checks {
                for (c, v) in &check.supplied {
                    supplied.push((view_column(&check.relation, c), v.clone()));
                }
            }
            // Only columns the relational view actually projects can be
            // supplied through it.
            let view_cols: Vec<String> = db
                .view_def(&view_name)
                .map(|v| {
                    v.select
                        .items
                        .iter()
                        .filter_map(|i| match i {
                            ufilter_rdb::SelectItem::Expr { alias: Some(a), .. } => {
                                Some(a.to_ascii_lowercase())
                            }
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            // One view-tuple insert per context row (or one bare insert for
            // a root context).
            let row_count = ctx_rows.rows.len().max(1);
            for i in 0..row_count {
                let mut columns = Vec::new();
                let mut values = Vec::new();
                if let Some(row) = ctx_rows.rows.get(i) {
                    for (j, col) in ctx_rows.columns.iter().enumerate() {
                        let alias = view_column(&col.table, &col.column);
                        if view_cols.contains(&alias) {
                            columns.push(alias);
                            values.push(row[j].clone());
                        }
                    }
                }
                for (c, v) in &supplied {
                    if view_cols.contains(c) && !columns.iter().any(|x| x == c) {
                        columns.push(c.clone());
                        values.push(v.clone());
                    }
                }
                let n = rdb_view::insert_into_view(db, &view_name, &columns, &[values])
                    .map_err(|e| e.to_string())?;
                report.executed += 1;
                report.rows_affected += n;
            }
        }
        UpdateKind::Delete | UpdateKind::Replace => {
            // Delete through the view: identify the target rows via the
            // plan's probe, then push a predicate over the view's aliased
            // key columns.
            let Some(planned) = plan.statements.first() else {
                return Ok(());
            };
            let Some(probe) = &planned.probe else {
                return Err("missing probe".into());
            };
            let rs = db.query_with(probe, plan.tab().as_slice()).map_err(|e| e.to_string())?;
            if rs.is_empty() {
                report.skipped += 1;
                return Ok(());
            }
            let pred = key_pred(db, &planned.relation, &rs)?;
            let n = rdb_view::delete_from_view_target(
                db,
                &view_name,
                Some(&pred),
                Some(&planned.relation),
            )
            .map_err(|e| e.to_string())?;
            report.executed += 1;
            report.rows_affected += n;
        }
    }
    Ok(())
}

/// The mapping view's alias for `table.column`: `<table>_<column>`.
fn view_column(table: &str, column: &str) -> String {
    format!("{}_{}", table.to_ascii_lowercase(), column.to_ascii_lowercase())
}

/// `(k1 = v1 AND k2 = v2) OR …` over the mapping view's aliases of
/// `relation`'s primary key, one disjunct per probed row. A probe that
/// selects `rowid` is keyed through the stored row; one that selects
/// columns must select every key column.
fn key_pred(db: &Db, relation: &str, probed: &ResultSet) -> Result<Expr, String> {
    let table =
        db.schema().table(relation).ok_or_else(|| format!("unknown relation {relation}"))?;
    if table.primary_key.is_empty() {
        return Err(format!("{relation} has no primary key to address its rows by"));
    }
    let key_of = |row: &Row| -> Option<Vec<Value>> {
        match probed.col("rowid") {
            Some(i) => {
                let Value::Int(rid) = row[i] else { return None };
                let stored = db.table_data(relation)?.heap.get(RowId(rid as u64))?;
                table
                    .primary_key
                    .iter()
                    .map(|k| Some(stored[table.column_index(k)?].clone()))
                    .collect()
            }
            None => table.primary_key.iter().map(|k| Some(row[probed.col(k)?].clone())).collect(),
        }
    };
    let mut disjuncts = Vec::with_capacity(probed.len());
    for row in &probed.rows {
        let key =
            key_of(row).ok_or_else(|| format!("the probe does not identify {relation} rows"))?;
        disjuncts.push(Expr::and(
            table
                .primary_key
                .iter()
                .zip(key)
                .map(|(k, v)| Expr::eq(Expr::col("", view_column(relation, k)), Expr::lit(v))),
        ));
    }
    Ok(Expr::Or(disjuncts))
}

/// Predicates restricted to relations present in the path (others apply to
/// deeper instance probes).
pub fn relevant_preds(
    info: &crate::probe::PathInfo,
    preds: &[(ColRef, ufilter_rdb::CmpOp, Value)],
) -> Vec<(ColRef, ufilter_rdb::CmpOp, Value)> {
    preds
        .iter()
        .filter(|(c, _, _)| info.relations.iter().any(|r| r.eq_ignore_ascii_case(&c.table)))
        .cloned()
        .collect()
}

/// Create (once) the mapping relational view of the whole XML view: a
/// LEFT JOIN chain over `rel(DEF_V)` in FK-topological order, projecting
/// every relation's view leaves plus primary keys, aliased `rel_col`
/// (Fig. 11's `RelationalBookView`).
pub fn ensure_relational_view(
    db: &mut Db,
    asg: &ViewAsg,
    schema: &DatabaseSchema,
) -> Result<String, String> {
    let name = format!("RV_{}", asg.node(asg.root()).tag);
    if db.view_def(&name).is_some() {
        return Ok(name);
    }
    // Relations in FK-topological order (referenced first).
    let mut rels = asg.relations.clone();
    rels.sort_by_key(|r| schema.table(r).map(|t| t.foreign_keys.len()).unwrap_or(0));
    // Collect every join condition in the ASG.
    let mut conds: Vec<(ColRef, ColRef)> = Vec::new();
    for n in asg.iter() {
        for jc in &n.conditions {
            conds.push((jc.left.clone(), jc.right.clone()));
        }
    }
    // Build the join tree.
    let mut placed: Vec<String> = vec![rels[0].clone()];
    let mut from = FromItem::Table(TableRef::named(rels[0].clone()));
    for r in rels.iter().skip(1) {
        let cond = conds.iter().find(|(a, b)| {
            (a.table.eq_ignore_ascii_case(r)
                && placed.iter().any(|p| p.eq_ignore_ascii_case(&b.table)))
                || (b.table.eq_ignore_ascii_case(r)
                    && placed.iter().any(|p| p.eq_ignore_ascii_case(&a.table)))
        });
        let Some((a, b)) = cond else {
            return Err(format!(
                "cannot build the mapping relational view: {r} is not joined to the rest"
            ));
        };
        from = FromItem::Join {
            kind: JoinKind::Left,
            left: Box::new(from),
            right: Box::new(FromItem::Table(TableRef::named(r.clone()))),
            on: Expr::eq(Expr::Column(a.clone()), Expr::Column(b.clone())),
        };
        placed.push(r.clone());
    }
    // Projection: view leaves + PKs per relation, aliased rel_col.
    let mut items = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for r in &placed {
        let Some(t) = schema.table(r) else { continue };
        let mut cols: Vec<String> = t.primary_key.clone();
        for n in asg.iter() {
            if let Some(leaf) = &n.leaf {
                if leaf.name.table.eq_ignore_ascii_case(r)
                    && !cols.iter().any(|c| c.eq_ignore_ascii_case(&leaf.name.column))
                {
                    cols.push(leaf.name.column.clone());
                }
            }
        }
        // FK columns participating in join conditions.
        for fk in &t.foreign_keys {
            for c in &fk.columns {
                if !cols.iter().any(|x| x.eq_ignore_ascii_case(c)) {
                    cols.push(c.clone());
                }
            }
        }
        for c in cols {
            let alias = format!("{}_{}", t.name.to_ascii_lowercase(), c.to_ascii_lowercase());
            if !seen.contains(&alias) {
                seen.push(alias.clone());
                items.push(SelectItem::Expr {
                    expr: Expr::col(t.name.clone(), c),
                    alias: Some(alias),
                });
            }
        }
    }
    let select = Select::new(items, vec![from], None);
    db.create_view(ufilter_rdb::CreateView { name: name.clone(), select })
        .map_err(|e| e.to_string())?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookdemo;

    #[test]
    fn relational_view_matches_fig11_shape() {
        let f = bookdemo::book_filter();
        let mut db = bookdemo::book_db();
        let name = ensure_relational_view(&mut db, &f.asg, &f.schema).unwrap();
        assert_eq!(name, "RV_BookView");
        let def = db.view_def(&name).unwrap();
        // Left-join chain over publisher → book → review.
        let tables: Vec<&str> = def.select.from[0].tables().iter().map(|t| t.binding()).collect();
        assert_eq!(tables, vec!["publisher", "book", "review"]);
        // Projected aliases include the Fig. 11 columns.
        let rs = db.query_sql("SELECT * FROM RV_BookView").unwrap();
        for col in ["publisher_pubid", "book_bookid", "book_title", "review_reviewid"] {
            assert!(rs.col(col).is_some(), "missing {col}");
        }
        // Fig. 11 row count: 3 rows for A01's books/reviews + 98002 + B01 pad.
        assert_eq!(rs.len(), 5);
        // Idempotent.
        assert_eq!(ensure_relational_view(&mut db, &f.asg, &f.schema).unwrap(), name);
    }

    #[test]
    fn shared_check_passes_on_consistent_duplicate() {
        let db = bookdemo::book_db();
        let plan = TranslationPlan {
            context: None,
            preconditions: Vec::new(),
            shared_checks: vec![crate::translate::SharedCheck {
                relation: "publisher".into(),
                key_cols: vec!["pubid".into()],
                key_vals: vec![Value::str("A01")],
                supplied: vec![
                    ("pubid".into(), Value::str("A01")),
                    ("pubname".into(), Value::str("McGraw-Hill Inc.")),
                ],
            }],
            statements: Vec::new(),
            notes: Vec::new(),
        };
        assert!(run_shared_checks(&db, &plan).is_ok());
    }

    #[test]
    fn shared_check_rejects_missing_and_inconsistent() {
        let db = bookdemo::book_db();
        let mk = |key: &str, name: &str| TranslationPlan {
            context: None,
            preconditions: Vec::new(),
            shared_checks: vec![crate::translate::SharedCheck {
                relation: "publisher".into(),
                key_cols: vec!["pubid".into()],
                key_vals: vec![Value::str(key)],
                supplied: vec![("pubname".into(), Value::str(name))],
            }],
            statements: Vec::new(),
            notes: Vec::new(),
        };
        let missing = run_shared_checks(&db, &mk("Z99", "x")).unwrap_err();
        assert!(missing.1.contains("does not exist"), "{}", missing.1);
        let inconsistent = run_shared_checks(&db, &mk("A01", "Wrong Name")).unwrap_err();
        assert!(inconsistent.1.contains("inconsistency"), "{}", inconsistent.1);
    }

    #[test]
    fn hybrid_check_only_mode_rolls_back() {
        let f = bookdemo::book_filter();
        let mut db = bookdemo::book_db();
        let before = db.dump();
        let plan = TranslationPlan {
            context: None,
            preconditions: Vec::new(),
            shared_checks: Vec::new(),
            statements: vec![crate::translate::PlannedStmt {
                stmt: ufilter_rdb::Parser::parse_stmt("DELETE FROM review WHERE bookid = '98001'")
                    .unwrap(),
                probe: None,
                relation: "review".into(),
            }],
            notes: Vec::new(),
        };
        let report = run_hybrid(&mut db, &plan, false);
        assert!(report.rejected.is_none());
        assert_eq!(report.rows_affected, 2);
        assert_eq!(db.dump(), before, "check-only hybrid must roll back");
        let _ = &f;
    }

    #[test]
    fn outside_skips_empty_delete_probes() {
        let mut db = bookdemo::book_db();
        let plan = TranslationPlan {
            context: None,
            preconditions: Vec::new(),
            shared_checks: Vec::new(),
            statements: vec![crate::translate::PlannedStmt {
                stmt: ufilter_rdb::Parser::parse_stmt("DELETE FROM review WHERE bookid = 'nope'")
                    .unwrap(),
                probe: Some(
                    ufilter_rdb::Parser::parse_select(
                        "SELECT rowid FROM review WHERE bookid = 'nope'",
                    )
                    .unwrap(),
                ),
                relation: "review".into(),
            }],
            notes: Vec::new(),
        };
        let report = run_outside(&mut db, &plan, true);
        assert!(report.rejected.is_none());
        assert_eq!(report.skipped, 1);
        assert_eq!(report.executed, 0);
    }
}
