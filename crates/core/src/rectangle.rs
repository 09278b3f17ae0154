//! The rectangle rule (Definition 1) as an executable oracle, and the
//! "blind translation" baseline of Fig. 14.
//!
//! `U` is a correct translation of `u` iff `u(DEF_V(D)) = DEF_V(U(D))` and
//! a no-op view update leaves the base untouched. The verifier materializes
//! both sides and compares them structurally (unordered, since regeneration
//! order need not match user insertion position).
//!
//! The blind baseline is what a system *without* U-Filter must do: submit
//! the translated update, materialize the view again, compare against the
//! expected result, and roll back on a mismatch — "rather time consuming,
//! depending on the size of the database" (§1), which Fig. 14 quantifies.

use ufilter_rdb::Db;
use ufilter_xquery::{apply_update, materialize, UpdateStmt, ViewQuery};

use crate::pipeline::UFilter;

/// Result of a rectangle-rule verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RectangleVerdict {
    /// Both sides agree: the translation was correct.
    Holds,
    /// The regenerated view differs from the expected one: a view side
    /// effect (or a lost update) occurred.
    SideEffect,
}

/// Verify Definition 1 for an already-applied update: `expected` is
/// `u(DEF_V(D_before))`, and the current `db` holds `U(D)`.
pub fn verify_applied(
    db: &Db,
    view: &ViewQuery,
    expected: &ufilter_xml::Document,
) -> Result<RectangleVerdict, String> {
    let regenerated = materialize(db, view).map_err(|e| e.to_string())?;
    if expected.subtree_eq_unordered(expected.root(), &regenerated, regenerated.root()) {
        Ok(RectangleVerdict::Holds)
    } else {
        Ok(RectangleVerdict::SideEffect)
    }
}

/// Check + apply + verify in one step: runs U-Filter, applies accepted
/// updates, and confirms the rectangle holds. Returns `(accepted, verdict)`.
pub fn apply_and_verify(
    filter: &UFilter,
    update_text: &str,
    db: &mut Db,
) -> Result<(bool, Option<RectangleVerdict>), String> {
    let u: UpdateStmt = filter.parse(update_text)?;
    // Expected view: u applied to the materialized view.
    let mut expected = materialize(db, filter.query()).map_err(|e| e.to_string())?;
    apply_update(&mut expected, &u).map_err(|e| e.to_string())?;

    let reports = filter.run(&u, Some(db), true);
    let accepted = reports.iter().all(|r| r.outcome.is_translatable());
    if !accepted {
        return Ok((false, None));
    }
    let verdict = verify_applied(db, filter.query(), &expected)?;
    Ok((true, Some(verdict)))
}

/// Outcome of the blind baseline.
#[derive(Debug, Clone)]
pub struct BlindOutcome {
    /// Did the blind execution end in a rollback (side effect detected)?
    pub rolled_back: bool,
    /// Rows affected by the executed translation before verification.
    pub rows_affected: usize,
}

/// Fig. 14's baseline: translate *without* any translatability analysis,
/// execute, detect the side effect by comparing views, and roll back.
///
/// The naive translation deletes/inserts the where-provenance directly: for
/// a delete, the instance probe's anchor rows are removed with no STAR
/// safety analysis and no minimization.
pub fn blind_apply(
    filter: &UFilter,
    update_text: &str,
    db: &mut Db,
) -> Result<BlindOutcome, String> {
    let u = filter.parse(update_text)?;
    let mut expected = materialize(db, filter.query()).map_err(|e| e.to_string())?;
    apply_update(&mut expected, &u).map_err(|e| e.to_string())?;

    let actions = crate::target::resolve(&filter.asg, &u).map_err(|e| e.to_string())?;
    db.begin().map_err(|e| e.to_string())?;
    let mut rows_affected = 0usize;
    for action in &actions {
        rows_affected += blind_translate_and_run(filter, action, db)?;
    }
    // Detect side effects the expensive way: regenerate and compare.
    let verdict = verify_applied(db, filter.query(), &expected)?;
    match verdict {
        RectangleVerdict::Holds => {
            db.commit().map_err(|e| e.to_string())?;
            Ok(BlindOutcome { rolled_back: false, rows_affected })
        }
        RectangleVerdict::SideEffect => {
            db.rollback().map_err(|e| e.to_string())?;
            Ok(BlindOutcome { rolled_back: true, rows_affected })
        }
    }
}

/// Naive where-provenance translation: delete the tuples of *every* current
/// relation of the target node (no clean-source analysis), or insert every
/// fragment relation (no shared-data analysis).
fn blind_translate_and_run(
    filter: &UFilter,
    action: &crate::target::ResolvedAction,
    db: &mut Db,
) -> Result<usize, String> {
    use crate::probe::{build_probe, path_info, SelectSpec};
    use ufilter_rdb::{ColRef, Expr, Value};
    use ufilter_xquery::UpdateKind;

    let mut affected = 0usize;
    match action.kind {
        UpdateKind::Delete | UpdateKind::Replace => {
            let node = filter.asg.node(action.node);
            let rels: Vec<String> = if node.kind == ufilter_asg::AsgNodeKind::Internal {
                let cr = filter.asg.cr(action.node);
                if cr.is_empty() {
                    node.ucbinding.clone()
                } else {
                    cr
                }
            } else {
                return Ok(0);
            };
            let info = path_info(&filter.asg, action.node);
            for rel in rels {
                let Some(table) = filter.schema.table(&rel) else { continue };
                let key_cols: Vec<ColRef> = table
                    .primary_key
                    .iter()
                    .map(|k| ColRef::new(table.name.clone(), k.clone()))
                    .collect();
                let probe = build_probe(
                    &filter.schema,
                    &info,
                    &action.predicates,
                    &SelectSpec::Columns(key_cols.clone()),
                );
                let rs = db.query(&probe).map_err(|e| e.to_string())?;
                for row in &rs.rows {
                    let vals: Vec<Value> = row.clone();
                    for rid in db
                        .rows_matching(&table.name, &table.primary_key, &vals)
                        .map_err(|e| e.to_string())?
                    {
                        affected += db.delete_rid(&table.name, rid).map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        UpdateKind::Insert => {
            // Blind insert: emit the same tuples the translation engine
            // would, but without shared-data analysis — shared relations
            // are inserted too (or collide with existing keys).
            let plan = crate::translate::build_plan(
                &filter.asg,
                &filter.marking,
                &filter.schema,
                action,
                None,
            )
            .map_err(|o| o.to_string())?;
            for planned in &plan.statements {
                // Blind execution shrugs at per-statement errors.
                if let Ok(out) = db.run(planned.stmt.clone()) {
                    affected += out.affected;
                }
            }
            for check in &plan.shared_checks {
                let cols: Vec<String> = check.supplied.iter().map(|(c, _)| c.clone()).collect();
                let vals: Vec<Value> = check.supplied.iter().map(|(_, v)| v.clone()).collect();
                if db.insert_with_columns(&check.relation, &cols, vec![vals]).is_ok() {
                    affected += 1;
                }
            }
            let _ = Expr::lit(Value::Null); // keep imports coherent
        }
    }
    Ok(affected)
}
