//! Query planning and execution.
//!
//! The planner builds a left-deep plan from comma joins (choosing index
//! nested-loop joins when the inner side has a matching index, hash joins
//! for other equi-joins, nested loops otherwise) and follows explicit
//! `[LEFT] JOIN … ON` trees as written. Views referenced in `FROM` are
//! inlined as derived tables, and so are rows bound to a name for one query
//! ([`Db::query_with`]), which shadow the catalog.
//!
//! The index/no-index distinction is load-bearing for the evaluation:
//! Fig. 16's gap between the *hybrid* and *outside* strategies comes from
//! translated updates joining through key indexes while probe-result
//! materializations have none.

use std::collections::HashMap;

use crate::db::Db;
use crate::error::{RdbError, Result};
use crate::expr::{ColRef, Expr};
use crate::sql::ast::{FromItem, JoinKind, Select, SelectItem, TableRef};
use crate::storage::Row;
use crate::types::Value;

/// Result of a query: a header of qualified column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<ColRef>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn empty() -> ResultSet {
        ResultSet { columns: Vec::new(), rows: Vec::new() }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Position of a column by (optionally unqualified) name.
    pub fn col(&self, name: &str) -> Option<usize> {
        if let Some(dot) = name.find('.') {
            let (t, c) = (&name[..dot], &name[dot + 1..]);
            self.columns.iter().position(|x| x.matches(t, c))
        } else {
            self.columns.iter().position(|x| x.column.eq_ignore_ascii_case(name))
        }
    }

    /// All values of one column.
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        match self.col(name) {
            Some(i) => self.rows.iter().map(|r| r[i].clone()).collect(),
            None => Vec::new(),
        }
    }

    /// The column names this result has as a table, materialized
    /// ([`Db::materialize`]) or bound ([`Db::query_with`]): each column's
    /// unqualified name, its `n`-th repeat (ignoring case) suffixed `_n`.
    pub fn table_columns(&self) -> Vec<String> {
        let mut seen: HashMap<String, usize> = HashMap::new();
        self.columns
            .iter()
            .map(|c| {
                let n = seen.entry(c.column.to_ascii_lowercase()).or_insert(0);
                *n += 1;
                if *n > 1 {
                    format!("{}_{n}", c.column)
                } else {
                    c.column.clone()
                }
            })
            .collect()
    }

    /// First row's value in the named column.
    pub fn first(&self, name: &str) -> Option<&Value> {
        let i = self.col(name)?;
        self.rows.first().map(|r| &r[i])
    }

    /// Render as an aligned text table (used by examples).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.render()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("| {:width$} ", c, width = widths[i]));
            }
            out.push_str("|\n");
        };
        line(&headers, &widths, &mut out);
        for w in &widths {
            out.push_str(&format!("|{}", "-".repeat(w + 2)));
        }
        out.push_str("|\n");
        for row in &rendered {
            line(row, &widths, &mut out);
        }
        out
    }
}

/// A physical plan node with its output header.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub cols: Vec<ColRef>,
    pub op: PlanOp,
}

#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Full scan of a base table; emits every column plus a trailing
    /// `binding.rowid` pseudo-column.
    Scan {
        table: String,
        binding: String,
        filter: Option<Expr>,
    },
    /// Point lookup(s) through an index: equality predicates covering the
    /// index's columns, or an IN-list on a single-column index, with a
    /// residual filter.
    IndexScan {
        table: String,
        binding: String,
        index: usize,
        keys: Vec<Vec<Value>>,
        filter: Option<Expr>,
    },
    /// For each outer row, probe an index on the inner base table.
    IndexNlJoin {
        outer: Box<PlanNode>,
        table: String,
        binding: String,
        /// Index position within the table's index list.
        index: usize,
        /// Positions (in the outer header) feeding the index key, in the
        /// order of the index's columns.
        outer_keys: Vec<usize>,
        filter: Option<Expr>,
    },
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
        residual: Option<Expr>,
    },
    NlJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    Filter {
        input: Box<PlanNode>,
        pred: Expr,
    },
    Project {
        input: Box<PlanNode>,
        exprs: Vec<(Expr, ColRef)>,
    },
    Distinct {
        input: Box<PlanNode>,
    },
    /// A materialized sub-result (view inlining).
    Derived {
        rows: Vec<Row>,
    },
}

impl PlanNode {
    /// One-line-per-node plan rendering, for tests and EXPLAIN-style docs.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match &self.op {
            PlanOp::Scan { table, binding, filter } => {
                out.push_str(&format!("{pad}Scan {table} AS {binding}"));
                if let Some(f) = filter {
                    out.push_str(&format!(" [{f}]"));
                }
                out.push('\n');
            }
            PlanOp::IndexScan { table, binding, index, filter, .. } => {
                out.push_str(&format!("{pad}IndexScan {table} AS {binding} (index #{index})"));
                if let Some(f) = filter {
                    out.push_str(&format!(" [{f}]"));
                }
                out.push('\n');
            }
            PlanOp::IndexNlJoin { outer, table, binding, index, .. } => {
                out.push_str(&format!("{pad}IndexNLJoin {table} AS {binding} (index #{index})\n"));
                outer.explain_into(depth + 1, out);
            }
            PlanOp::HashJoin { left, right, kind, .. } => {
                out.push_str(&format!("{pad}HashJoin ({kind:?})\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PlanOp::NlJoin { left, right, kind, .. } => {
                out.push_str(&format!("{pad}NLJoin ({kind:?})\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PlanOp::Filter { input, pred } => {
                out.push_str(&format!("{pad}Filter [{pred}]\n"));
                input.explain_into(depth + 1, out);
            }
            PlanOp::Project { input, .. } => {
                out.push_str(&format!("{pad}Project\n"));
                input.explain_into(depth + 1, out);
            }
            PlanOp::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(depth + 1, out);
            }
            PlanOp::Derived { rows } => {
                out.push_str(&format!("{pad}Derived ({} rows)\n", rows.len()));
            }
        }
    }
}

fn find_col(cols: &[ColRef], c: &ColRef) -> Option<usize> {
    if c.table.is_empty() {
        cols.iter().position(|x| x.column.eq_ignore_ascii_case(&c.column))
    } else {
        cols.iter().position(|x| x.matches(&c.table, &c.column))
    }
}

fn row_resolver<'a>(
    cols: &'a [ColRef],
    row: &'a [Value],
) -> impl Fn(&ColRef) -> Result<Value> + 'a {
    move |c: &ColRef| match find_col(cols, c) {
        Some(i) => Ok(row[i].clone()),
        None => Err(RdbError::NoSuchColumn { table: c.table.clone(), column: c.column.clone() }),
    }
}

/// Rows bound to table names for one query (see [`Db::query_with`]).
pub type Bound<'a> = [(&'a str, &'a ResultSet)];

/// Entry point: plan and execute a SELECT, with `bound` rows shadowing the
/// catalog.
pub fn run_select(db: &Db, sel: &Select, bound: &Bound) -> Result<ResultSet> {
    let plan = plan_select(db, sel, bound)?;
    let rows = exec_plan(db, &plan)?;
    Ok(ResultSet { columns: plan.cols, rows })
}

/// Build the physical plan for a SELECT (exposed for EXPLAIN-style tests).
pub fn plan_select(db: &Db, sel: &Select, bound: &Bound) -> Result<PlanNode> {
    // Resolve IN (SELECT …) into IN-lists up front.
    let where_clause = match &sel.where_clause {
        Some(w) => Some(resolve_subqueries(db, w, bound)?),
        None => None,
    };

    // Plan each FROM entry.
    let mut parts: Vec<PlanNode> = Vec::new();
    for item in &sel.from {
        parts.push(plan_from_item(db, item, bound)?);
    }
    if parts.is_empty() {
        return Err(RdbError::Semantic("empty FROM clause".into()));
    }

    let mut conjuncts: Vec<Expr> = where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();

    // Push single-source conjuncts down onto their scans.
    let mut remaining = Vec::new();
    'outer: for c in conjuncts.drain(..) {
        let cols = c.columns();
        let mut home: Option<usize> = None;
        for col in &cols {
            let mut found = None;
            for (i, p) in parts.iter().enumerate() {
                if find_col(&p.cols, col).is_some() {
                    found = Some(i);
                    break;
                }
            }
            match (found, home) {
                (None, _) => {
                    return Err(RdbError::NoSuchColumn {
                        table: col.table.clone(),
                        column: col.column.clone(),
                    })
                }
                (Some(i), None) => home = Some(i),
                (Some(i), Some(h)) if i != h => {
                    remaining.push(c);
                    continue 'outer;
                }
                _ => {}
            }
        }
        match home {
            Some(h) if !cols.is_empty() => {
                let node = parts.remove(h);
                parts.insert(h, attach_filter(node, c));
            }
            _ => remaining.push(c),
        }
    }
    conjuncts = remaining;

    // Turn filtered scans into index point-lookups where an index covers
    // the equality conjuncts.
    parts = parts.into_iter().map(|p| improve_scan(db, p)).collect();

    // Seed the greedy join with the most selective part: index lookups
    // first, then filtered scans — so a probe like "orders.o_orderkey = 5"
    // anchors the join instead of enumerating the top of the hierarchy.
    let seed = parts
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| match &p.op {
            PlanOp::IndexScan { .. } => 0,
            PlanOp::Scan { filter: Some(_), .. } => 1,
            PlanOp::Derived { .. } => 2,
            _ => 3,
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut current = parts.remove(seed);
    while !parts.is_empty() {
        // Find a part connected to `current` by at least one equi-conjunct.
        let mut chosen: Option<(usize, Vec<usize>)> = None;
        for (pi, p) in parts.iter().enumerate() {
            let mut conds = Vec::new();
            for (ci, c) in conjuncts.iter().enumerate() {
                if let Some((a, b)) = c.as_column_equality() {
                    let spans = |x: &ColRef, y: &ColRef| {
                        find_col(&current.cols, x).is_some() && find_col(&p.cols, y).is_some()
                    };
                    if spans(a, b) || spans(b, a) {
                        conds.push(ci);
                    }
                }
            }
            if !conds.is_empty() {
                chosen = Some((pi, conds));
                break;
            }
        }
        // Default (0, []) means cross join fallback.
        let (pi, cond_idx) = chosen.unwrap_or_default();
        let right = parts.remove(pi);
        // Pull out the equi conditions.
        let mut used: Vec<Expr> = Vec::new();
        let mut keep: Vec<Expr> = Vec::new();
        for (i, c) in conjuncts.drain(..).enumerate() {
            if cond_idx.contains(&i) {
                used.push(c);
            } else {
                keep.push(c);
            }
        }
        conjuncts = keep;
        current = plan_join(db, current, right, JoinKind::Inner, used, None)?;
    }

    // Leftover conjuncts become a top filter.
    let mut node = current;
    if !conjuncts.is_empty() {
        node = attach_filter(node, Expr::and(conjuncts));
    }

    // Projection.
    let mut exprs: Vec<(Expr, ColRef)> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for c in &node.cols {
                    if !c.column.eq_ignore_ascii_case("rowid") {
                        exprs.push((Expr::Column(c.clone()), c.clone()));
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for c in &node.cols {
                    if c.table.eq_ignore_ascii_case(q) && !c.column.eq_ignore_ascii_case("rowid") {
                        exprs.push((Expr::Column(c.clone()), c.clone()));
                        any = true;
                    }
                }
                if !any {
                    return Err(RdbError::Semantic(format!("unknown binding {q} in {q}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let expr = resolve_subqueries(db, expr, bound)?;
                // Validate column references now for a better error.
                for c in expr.columns() {
                    if find_col(&node.cols, c).is_none() {
                        return Err(RdbError::NoSuchColumn {
                            table: c.table.clone(),
                            column: c.column.clone(),
                        });
                    }
                }
                let name = match (&expr, alias) {
                    (_, Some(a)) => ColRef::new("", a.clone()),
                    (Expr::Column(c), None) => {
                        // Preserve qualification from the underlying column.
                        match find_col(&node.cols, c) {
                            Some(i) => node.cols[i].clone(),
                            None => c.clone(),
                        }
                    }
                    _ => ColRef::new("", format!("expr{}", exprs.len())),
                };
                exprs.push((expr, name));
            }
        }
    }
    let cols: Vec<ColRef> = exprs.iter().map(|(_, c)| c.clone()).collect();
    node = PlanNode { cols: cols.clone(), op: PlanOp::Project { input: Box::new(node), exprs } };

    if sel.distinct {
        node = PlanNode { cols, op: PlanOp::Distinct { input: Box::new(node) } };
    }
    Ok(node)
}

fn attach_filter(node: PlanNode, pred: Expr) -> PlanNode {
    match node.op {
        PlanOp::Scan { table, binding, filter } => {
            let f = match filter {
                Some(old) => Expr::and([old, pred]),
                None => pred,
            };
            PlanNode { cols: node.cols, op: PlanOp::Scan { table, binding, filter: Some(f) } }
        }
        PlanOp::IndexScan { table, binding, index, keys, filter } => {
            let f = match filter {
                Some(old) => Expr::and([old, pred]),
                None => pred,
            };
            PlanNode {
                cols: node.cols,
                op: PlanOp::IndexScan { table, binding, index, keys, filter: Some(f) },
            }
        }
        op => {
            let cols = node.cols.clone();
            PlanNode {
                cols,
                op: PlanOp::Filter { input: Box::new(PlanNode { cols: node.cols, op }), pred },
            }
        }
    }
}

/// Rewrite `Scan + equality filter` into an `IndexScan` when some index's
/// columns are all pinned by equality-to-literal conjuncts.
fn improve_scan(db: &Db, node: PlanNode) -> PlanNode {
    let PlanOp::Scan { table, binding, filter: Some(f) } = &node.op else {
        return node;
    };
    let Some(schema) = db.schema().table(table) else { return node };
    let Some(data) = db.table_data(table) else { return node };
    let conjuncts: Vec<Expr> = f.conjuncts().into_iter().cloned().collect();
    // Column position → pinned literal (from `col = lit` conjuncts); the
    // tuples are (col pos, value, conjunct idx).
    let mut pins: Vec<(usize, Value, usize)> = Vec::new();
    // Column position → IN-list (from `col IN (…)` conjuncts).
    let mut in_lists: Vec<(usize, Vec<Value>, usize)> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        if let Some((col, op, v)) = c.as_column_literal() {
            if op == crate::expr::CmpOp::Eq
                && (col.table.is_empty() || col.table.eq_ignore_ascii_case(binding))
            {
                if let Some(pos) = schema.column_index(&col.column) {
                    pins.push((pos, v.clone(), ci));
                }
            }
        } else if let Expr::InSet { expr, set, negated: false } = c {
            if let Expr::Column(col) = expr.as_ref() {
                if col.table.is_empty() || col.table.eq_ignore_ascii_case(binding) {
                    if let Some(pos) = schema.column_index(&col.column) {
                        in_lists.push((pos, set.clone(), ci));
                    }
                }
            }
        }
    }
    // Exact equality cover of an index → one point lookup.
    for (ix_pos, ix) in data.indexes.iter().enumerate() {
        let covered: Option<Vec<&(usize, Value, usize)>> =
            ix.columns.iter().map(|c| pins.iter().find(|(p, _, _)| p == c)).collect();
        let Some(used) = covered else { continue };
        let key: Vec<Value> = used.iter().map(|(_, v, _)| v.clone()).collect();
        let used_conjuncts: Vec<usize> = used.iter().map(|(_, _, i)| *i).collect();
        let residual: Vec<Expr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !used_conjuncts.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        let filter = if residual.is_empty() { None } else { Some(Expr::and(residual)) };
        return PlanNode {
            cols: node.cols,
            op: PlanOp::IndexScan {
                table: table.clone(),
                binding: binding.clone(),
                index: ix_pos,
                keys: vec![key],
                filter,
            },
        };
    }
    // IN-list over a single-column index → a batch of point lookups
    // (`DELETE FROM lineitem WHERE l_orderkey IN (…)`, the translated
    // updates' dominant shape).
    for (ix_pos, ix) in data.indexes.iter().enumerate() {
        if ix.columns.len() != 1 {
            continue;
        }
        let Some((_, set, ci)) = in_lists.iter().find(|(p, _, _)| *p == ix.columns[0]) else {
            continue;
        };
        let keys: Vec<Vec<Value>> = set.iter().map(|v| vec![v.clone()]).collect();
        let residual: Vec<Expr> =
            conjuncts.iter().enumerate().filter(|(i, _)| i != ci).map(|(_, c)| c.clone()).collect();
        let filter = if residual.is_empty() { None } else { Some(Expr::and(residual)) };
        return PlanNode {
            cols: node.cols,
            op: PlanOp::IndexScan {
                table: table.clone(),
                binding: binding.clone(),
                index: ix_pos,
                keys,
                filter,
            },
        };
    }
    node
}

fn scan_cols(db: &Db, table: &str, binding: &str) -> Result<Vec<ColRef>> {
    let schema =
        db.schema().table(table).ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
    let mut cols: Vec<ColRef> =
        schema.columns.iter().map(|c| ColRef::new(binding, c.name.clone())).collect();
    cols.push(ColRef::new(binding, "rowid"));
    Ok(cols)
}

fn plan_from_item(db: &Db, item: &FromItem, bound: &Bound) -> Result<PlanNode> {
    match item {
        FromItem::Table(t) => plan_table_ref(db, t, bound),
        FromItem::Join { kind, left, right, on } => {
            let l = plan_from_item(db, left, bound)?;
            let r = plan_from_item(db, right, bound)?;
            let on = resolve_subqueries(db, on, bound)?;
            let conds: Vec<Expr> = on.conjuncts().into_iter().cloned().collect();
            plan_join(db, l, r, *kind, conds, None)
        }
    }
}

fn plan_table_ref(db: &Db, t: &TableRef, bound: &Bound) -> Result<PlanNode> {
    let binding = t.binding();
    if let Some((_, rs)) = bound.iter().find(|(name, _)| name.eq_ignore_ascii_case(&t.table)) {
        // Bound rows read as a derived table, laid out as a scan of their
        // materialized table would be: named columns, then the position as
        // the trailing `rowid`.
        let mut cols: Vec<ColRef> =
            rs.table_columns().into_iter().map(|c| ColRef::new(binding, c)).collect();
        cols.push(ColRef::new(binding, "rowid"));
        let rows = (rs.rows.iter().zip(0i64..))
            .map(|(row, rid)| row.iter().cloned().chain([Value::Int(rid)]).collect())
            .collect();
        return Ok(PlanNode { cols, op: PlanOp::Derived { rows } });
    }
    if let Some(view) = db.view_def(&t.table) {
        // Inline the view as a derived table, re-qualifying output columns
        // with the view binding.
        let inner = run_select(db, &view.select, bound)?;
        let cols: Vec<ColRef> =
            inner.columns.iter().map(|c| ColRef::new(binding, c.column.clone())).collect();
        return Ok(PlanNode { cols, op: PlanOp::Derived { rows: inner.rows } });
    }
    let cols = scan_cols(db, &t.table, binding)?;
    Ok(PlanNode {
        cols,
        op: PlanOp::Scan { table: t.table.clone(), binding: binding.to_string(), filter: None },
    })
}

/// Build the best join for `left ⋈ right` given candidate conditions.
fn plan_join(
    db: &Db,
    left: PlanNode,
    right: PlanNode,
    kind: JoinKind,
    conds: Vec<Expr>,
    residual_extra: Option<Expr>,
) -> Result<PlanNode> {
    // Split conditions into equi keys (left-col = right-col) and residual.
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    let mut right_key_cols: Vec<ColRef> = Vec::new();
    let mut residual: Vec<Expr> = residual_extra.into_iter().collect();
    for c in conds {
        let mut handled = false;
        if let Some((a, b)) = c.as_column_equality() {
            let la = find_col(&left.cols, a);
            let rb = find_col(&right.cols, b);
            let lb = find_col(&left.cols, b);
            let ra = find_col(&right.cols, a);
            if let (Some(li), Some(ri)) = (la, rb) {
                left_keys.push(li);
                right_keys.push(ri);
                right_key_cols.push(right.cols[ri].clone());
                handled = true;
            } else if let (Some(li), Some(ri)) = (lb, ra) {
                left_keys.push(li);
                right_keys.push(ri);
                right_key_cols.push(right.cols[ri].clone());
                handled = true;
            }
        }
        if !handled {
            residual.push(c);
        }
    }
    let residual = if residual.is_empty() { None } else { Some(Expr::and(residual)) };

    let cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();

    // Index nested-loop join: inner must be a bare base-table scan with an
    // index exactly covering the join columns. Only for inner joins.
    if kind == JoinKind::Inner && db.planner_config().enable_index_join && !left_keys.is_empty() {
        if let PlanOp::Scan { table, binding, filter } = &right.op {
            if let Some(ix) = db.find_index(table, &right_key_cols, binding) {
                // Reorder outer keys to the index's column order.
                let data = db.table_data(table).expect("scan of known table");
                let index = &data.indexes[ix];
                let schema = db.schema().table(table).expect("known table");
                let mut outer_keys = Vec::with_capacity(index.columns.len());
                for &ci in &index.columns {
                    let col_name = &schema.columns[ci].name;
                    let pos_in_keys = right_key_cols
                        .iter()
                        .position(|c| c.column.eq_ignore_ascii_case(col_name))
                        .expect("index column covered by join keys");
                    outer_keys.push(left_keys[pos_in_keys]);
                }
                let filter = match (filter.clone(), residual) {
                    (Some(f), Some(r)) => Some(Expr::and([f, r])),
                    (Some(f), None) => Some(f),
                    (None, r) => r,
                };
                return Ok(PlanNode {
                    cols,
                    op: PlanOp::IndexNlJoin {
                        outer: Box::new(left),
                        table: table.clone(),
                        binding: binding.clone(),
                        index: ix,
                        outer_keys,
                        filter,
                    },
                });
            }
        }
    }

    if !left_keys.is_empty() && db.planner_config().enable_hash_join {
        return Ok(PlanNode {
            cols,
            op: PlanOp::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_keys,
                right_keys,
                kind,
                residual,
            },
        });
    }

    // Fall back to a nested loop with the full condition.
    let mut on_parts: Vec<Expr> = Vec::new();
    for (li, ri) in left_keys.iter().zip(&right_keys) {
        on_parts.push(Expr::eq(
            Expr::Column(left.cols[*li].clone()),
            Expr::Column(right.cols[*ri].clone()),
        ));
    }
    if let Some(r) = residual {
        on_parts.push(r);
    }
    let on = if on_parts.is_empty() { None } else { Some(Expr::and(on_parts)) };
    Ok(PlanNode {
        cols,
        op: PlanOp::NlJoin { left: Box::new(left), right: Box::new(right), kind, on },
    })
}

/// Replace `IN (SELECT …)` with an evaluated `IN (values…)`.
pub fn resolve_subqueries(db: &Db, e: &Expr, bound: &Bound) -> Result<Expr> {
    let resolve = |x: &Expr| resolve_subqueries(db, x, bound);
    Ok(match e {
        Expr::InSubquery { expr, query, negated } => {
            let rs = run_select(db, query, bound)?;
            let set: Vec<Value> = rs.rows.into_iter().map(|mut r| r.swap_remove(0)).collect();
            Expr::InSet { expr: Box::new(resolve(expr)?), set, negated: *negated }
        }
        Expr::And(es) => Expr::And(es.iter().map(resolve).collect::<Result<_>>()?),
        Expr::Or(es) => Expr::Or(es.iter().map(resolve).collect::<Result<_>>()?),
        Expr::Not(x) => Expr::Not(Box::new(resolve(x)?)),
        Expr::Cmp { op, lhs, rhs } => {
            Expr::Cmp { op: *op, lhs: Box::new(resolve(lhs)?), rhs: Box::new(resolve(rhs)?) }
        }
        other => other.clone(),
    })
}

/// Execute a plan to completion.
pub fn exec_plan(db: &Db, plan: &PlanNode) -> Result<Vec<Row>> {
    match &plan.op {
        PlanOp::Scan { table, binding: _, filter } => {
            let data = db.table_data(table).ok_or_else(|| RdbError::NoSuchTable(table.clone()))?;
            let mut out = Vec::new();
            for (rid, row) in data.heap.scan() {
                db.stats().add_scanned(1);
                let mut full = row.clone();
                full.push(Value::Int(rid.0 as i64));
                if let Some(f) = filter {
                    if !f.eval_predicate(&row_resolver(&plan.cols, &full))? {
                        continue;
                    }
                }
                out.push(full);
            }
            Ok(out)
        }
        PlanOp::Derived { rows } => Ok(rows.clone()),
        PlanOp::IndexScan { table, binding: _, index, keys, filter } => {
            let data = db.table_data(table).ok_or_else(|| RdbError::NoSuchTable(table.clone()))?;
            let ix = &data.indexes[*index];
            let mut out = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for key in keys {
                db.stats().add_index_lookup(1);
                for rid in ix.lookup(key) {
                    if !seen.insert(rid) {
                        continue; // duplicate keys in an IN-list
                    }
                    let row = data.heap.get(rid).expect("index points at live row");
                    let mut full = row.clone();
                    full.push(Value::Int(rid.0 as i64));
                    if let Some(f) = filter {
                        if !f.eval_predicate(&row_resolver(&plan.cols, &full))? {
                            continue;
                        }
                    }
                    out.push(full);
                }
            }
            Ok(out)
        }
        PlanOp::IndexNlJoin { outer, table, binding: _, index, outer_keys, filter } => {
            let outer_rows = exec_plan(db, outer)?;
            let data = db.table_data(table).ok_or_else(|| RdbError::NoSuchTable(table.clone()))?;
            let ix = &data.indexes[*index];
            let mut out = Vec::new();
            for orow in outer_rows {
                let key: Vec<Value> = outer_keys.iter().map(|&i| orow[i].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue; // NULL never joins
                }
                db.stats().add_index_lookup(1);
                for rid in ix.lookup(&key) {
                    let irow = data.heap.get(rid).expect("index points at live row");
                    let mut combined = orow.clone();
                    combined.extend(irow.iter().cloned());
                    combined.push(Value::Int(rid.0 as i64));
                    if let Some(f) = filter {
                        if !f.eval_predicate(&row_resolver(&plan.cols, &combined))? {
                            continue;
                        }
                    }
                    out.push(combined);
                }
            }
            Ok(out)
        }
        PlanOp::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
            let lrows = exec_plan(db, left)?;
            let rrows = exec_plan(db, right)?;
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            for r in &rrows {
                let key: Vec<Value> = right_keys.iter().map(|&i| r[i].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                table.entry(key).or_default().push(r);
            }
            let right_width = right.cols.len();
            let mut out = Vec::new();
            for l in &lrows {
                let key: Vec<Value> = left_keys.iter().map(|&i| l[i].clone()).collect();
                db.stats().add_hash_probe(1);
                let mut matched = false;
                if !key.iter().any(Value::is_null) {
                    if let Some(cands) = table.get(&key) {
                        for r in cands {
                            let mut combined = l.clone();
                            combined.extend(r.iter().cloned());
                            if let Some(res) = residual {
                                if !res.eval_predicate(&row_resolver(&plan.cols, &combined))? {
                                    continue;
                                }
                            }
                            matched = true;
                            out.push(combined);
                        }
                    }
                }
                if !matched && *kind == JoinKind::Left {
                    let mut combined = l.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
            }
            Ok(out)
        }
        PlanOp::NlJoin { left, right, kind, on } => {
            let lrows = exec_plan(db, left)?;
            let rrows = exec_plan(db, right)?;
            let right_width = right.cols.len();
            let mut out = Vec::new();
            for l in &lrows {
                let mut matched = false;
                for r in &rrows {
                    db.stats().add_scanned(1);
                    let mut combined = l.clone();
                    combined.extend(r.iter().cloned());
                    if let Some(cond) = on {
                        if !cond.eval_predicate(&row_resolver(&plan.cols, &combined))? {
                            continue;
                        }
                    }
                    matched = true;
                    out.push(combined);
                }
                if !matched && *kind == JoinKind::Left {
                    let mut combined = l.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
            }
            Ok(out)
        }
        PlanOp::Filter { input, pred } => {
            let rows = exec_plan(db, input)?;
            let mut out = Vec::new();
            for r in rows {
                if pred.eval_predicate(&row_resolver(&input.cols, &r))? {
                    out.push(r);
                }
            }
            Ok(out)
        }
        PlanOp::Project { input, exprs } => {
            let rows = exec_plan(db, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let resolver = row_resolver(&input.cols, &r);
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(e.eval(&resolver)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        PlanOp::Distinct { input } => {
            let rows = exec_plan(db, input)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            Ok(out)
        }
    }
}
