//! The database facade: catalog, DDL, DML with full constraint enforcement,
//! transactions, views, and probe-result materialization.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{RdbError, Result, Warning};
use crate::exec::{self, ResultSet};
use crate::expr::{ColRef, Expr};
use crate::index::{Index, IndexKind};
use crate::schema::{Column, DatabaseSchema, DeletePolicy, TableSchema};
use crate::sql::ast::{CreateView, FromItem, Select, SelectItem, Stmt, TableRef};
use crate::sql::parser::Parser;
use crate::storage::{Heap, Row, RowId};
use crate::txn::{Undo, UndoLog};
use crate::types::{DataType, Value};

/// Execution counters, readable by tests and benches.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    rows_scanned: Cell<u64>,
    index_lookups: Cell<u64>,
    hash_probes: Cell<u64>,
}

impl ExecStats {
    pub fn add_scanned(&self, n: u64) {
        self.rows_scanned.set(self.rows_scanned.get() + n);
    }

    pub fn add_index_lookup(&self, n: u64) {
        self.index_lookups.set(self.index_lookups.get() + n);
    }

    pub fn add_hash_probe(&self, n: u64) {
        self.hash_probes.set(self.hash_probes.get() + n);
    }

    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.get()
    }

    pub fn index_lookups(&self) -> u64 {
        self.index_lookups.get()
    }

    pub fn hash_probes(&self) -> u64 {
        self.hash_probes.get()
    }

    pub fn reset(&self) {
        self.rows_scanned.set(0);
        self.index_lookups.set(0);
        self.hash_probes.set(0);
    }
}

/// Planner switches (used by ablation benches).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    pub enable_index_join: bool,
    pub enable_hash_join: bool,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig { enable_index_join: true, enable_hash_join: true }
    }
}

/// Storage + indexes of one table.
#[derive(Debug, Default, Clone)]
pub struct TableData {
    pub heap: Heap,
    pub indexes: Vec<Index>,
}

/// Outcome of one executed statement.
#[derive(Debug)]
pub struct ExecOutcome {
    pub result: Option<ResultSet>,
    pub affected: usize,
    pub warnings: Vec<Warning>,
}

impl ExecOutcome {
    fn ddl() -> ExecOutcome {
        ExecOutcome { result: None, affected: 0, warnings: Vec::new() }
    }
}

/// An in-memory relational database.
///
/// Each table's [`TableData`] sits behind an `Arc`, so a clone (and a
/// [`snapshot`](Db::snapshot)) shares the storage of every table and copies
/// a table only when it first writes to it: the physical-write helpers go
/// through `Arc::make_mut`. A clone that only reads copies nothing.
#[derive(Clone)]
pub struct Db {
    schema: DatabaseSchema,
    data: HashMap<String, Arc<TableData>>,
    views: HashMap<String, CreateView>,
    txn: Option<UndoLog>,
    planner: PlannerConfig,
    stats: ExecStats,
}

impl Db {
    pub fn new() -> Db {
        Db {
            schema: DatabaseSchema::new(),
            data: HashMap::new(),
            views: HashMap::new(),
            txn: None,
            planner: PlannerConfig::default(),
            stats: ExecStats::default(),
        }
    }

    /// Create a database with every table of `schema`.
    pub fn with_schema(schema: DatabaseSchema) -> Result<Db> {
        let mut db = Db::new();
        for t in schema.tables {
            db.create_table(t)?;
        }
        db.validate_foreign_key_targets()?;
        Ok(db)
    }

    // ---- accessors used by the executor ---------------------------------

    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    pub fn table_data(&self, name: &str) -> Option<&TableData> {
        self.data.get(&name.to_ascii_lowercase()).map(Arc::as_ref)
    }

    /// Writable storage of `table`, copied first if a clone still shares it.
    fn table_data_mut(&mut self, table: &str) -> Option<&mut TableData> {
        self.data.get_mut(&table.to_ascii_lowercase()).map(Arc::make_mut)
    }

    pub fn view_def(&self, name: &str) -> Option<&CreateView> {
        self.views.get(&name.to_ascii_lowercase())
    }

    pub fn planner_config(&self) -> PlannerConfig {
        self.planner
    }

    pub fn set_planner_config(&mut self, cfg: PlannerConfig) {
        self.planner = cfg;
    }

    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Find an index on `table` whose columns exactly cover `cols`
    /// (qualified with `binding`). Returns the index position.
    pub fn find_index(&self, table: &str, cols: &[ColRef], binding: &str) -> Option<usize> {
        let schema = self.schema.table(table)?;
        let data = self.table_data(table)?;
        let mut wanted: Vec<usize> = Vec::new();
        for c in cols {
            if !c.table.is_empty() && !c.table.eq_ignore_ascii_case(binding) {
                return None;
            }
            wanted.push(schema.column_index(&c.column)?);
        }
        wanted.sort_unstable();
        wanted.dedup();
        data.indexes.iter().position(|ix| {
            let mut have = ix.columns.clone();
            have.sort_unstable();
            have == wanted
        })
    }

    // ---- DDL -------------------------------------------------------------

    /// Create a table plus its key/unique/foreign-key indexes.
    pub fn create_table(&mut self, table: TableSchema) -> Result<()> {
        let key = table.name.to_ascii_lowercase();
        if self.data.contains_key(&key) {
            return Err(RdbError::Semantic(format!("table {} already exists", table.name)));
        }
        let mut data = TableData::default();
        // Primary-key index.
        if !table.primary_key.is_empty() {
            let cols = Self::column_positions(&table, &table.primary_key)?;
            data.indexes.push(Index::new(
                format!("{}_pk", table.name),
                cols,
                true,
                IndexKind::Hash,
            ));
        }
        // UNIQUE column indexes.
        for (i, c) in table.columns.iter().enumerate() {
            if c.unique {
                data.indexes.push(Index::new(
                    format!("{}_{}_unique", table.name, c.name),
                    vec![i],
                    true,
                    IndexKind::Hash,
                ));
            }
        }
        // Foreign-key (referencing-side) indexes — non-unique.
        for fk in &table.foreign_keys {
            let cols = Self::column_positions(&table, &fk.columns)?;
            // Skip if an index on the same columns already exists.
            let dup = data.indexes.iter().any(|ix| {
                let mut a = ix.columns.clone();
                let mut b = cols.clone();
                a.sort_unstable();
                b.sort_unstable();
                a == b
            });
            if !dup {
                data.indexes.push(Index::new(
                    format!("{}_{}", table.name, fk.name),
                    cols,
                    false,
                    IndexKind::Hash,
                ));
            }
        }
        self.data.insert(key, Arc::new(data));
        self.schema.add(table);
        Ok(())
    }

    fn column_positions(table: &TableSchema, names: &[String]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                table.column_index(n).ok_or_else(|| RdbError::NoSuchColumn {
                    table: table.name.clone(),
                    column: n.clone(),
                })
            })
            .collect()
    }

    fn validate_foreign_key_targets(&self) -> Result<()> {
        for (owner, fk) in self.schema.foreign_keys() {
            let target = self
                .schema
                .table(&fk.ref_table)
                .ok_or_else(|| RdbError::NoSuchTable(fk.ref_table.clone()))?;
            for c in &fk.ref_columns {
                if target.column_index(c).is_none() {
                    return Err(RdbError::NoSuchColumn {
                        table: fk.ref_table.clone(),
                        column: c.clone(),
                    });
                }
            }
            let _ = owner;
        }
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.data.remove(&key).is_none() {
            return Err(RdbError::NoSuchTable(name.to_string()));
        }
        self.schema.tables.retain(|t| !t.name.eq_ignore_ascii_case(name));
        Ok(())
    }

    pub fn create_view(&mut self, view: CreateView) -> Result<()> {
        let key = view.name.to_ascii_lowercase();
        if self.views.contains_key(&key) || self.data.contains_key(&key) {
            return Err(RdbError::Semantic(format!("{} already exists", view.name)));
        }
        if let Some(t) = &mut self.txn {
            t.push(Undo::CreateView { name: key.clone() });
        }
        self.views.insert(key, view);
        Ok(())
    }

    /// Materialize a probe result as a plain table **without indexes or
    /// constraints**, replacing any table of that name: the probe-result
    /// tables (`TAB_book` in §6.1) a translated statement reads when it is
    /// executed. Only `apply` runs need this; a check-only run binds the
    /// rows with [`query_with`](Self::query_with) and writes nothing.
    /// Columns are named by [`ResultSet::table_columns`], rows keep their
    /// order, and each row's `rowid` is its position. Returns the row count.
    pub fn materialize(&mut self, name: &str, rows: &ResultSet) -> usize {
        let mut table = TableSchema::new(name);
        for (i, col_name) in rows.table_columns().into_iter().enumerate() {
            let ty = rows.rows.iter().find_map(|r| r[i].data_type()).unwrap_or(DataType::Str);
            table = table.column(Column::new(col_name, ty));
        }
        let _ = self.drop_table(name);
        // No indexes: insert straight into the heap.
        let mut data = TableData::default();
        for row in &rows.rows {
            data.heap.insert(row.clone());
        }
        self.data.insert(name.to_ascii_lowercase(), Arc::new(data));
        self.schema.add(table);
        rows.len()
    }

    // ---- queries ----------------------------------------------------------

    pub fn query(&self, select: &Select) -> Result<ResultSet> {
        exec::run_select(self, select, &[])
    }

    /// Run `select` with each `(name, rows)` binding readable as a table:
    /// `FROM name` resolves to the bound rows before the catalog is
    /// consulted, with the columns and `rowid`s
    /// [`materialize`](Self::materialize) would give them. Nothing is
    /// written — this is how a check-only run reads `TAB_<tag>` (§6.1).
    pub fn query_with(&self, select: &Select, bound: &[(&str, &ResultSet)]) -> Result<ResultSet> {
        exec::run_select(self, select, bound)
    }

    pub fn query_sql(&self, sql: &str) -> Result<ResultSet> {
        let sel = Parser::parse_select(sql)?;
        self.query(&sel)
    }

    /// Parse and execute any statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = Parser::parse_stmt(sql)?;
        self.run(stmt)
    }

    /// Execute a `;`-separated script (string literals may contain `;`).
    /// Statements run in order; the first error aborts and is returned.
    /// Returns the outcome of the last statement.
    pub fn execute_script(&mut self, script: &str) -> Result<Option<ExecOutcome>> {
        let mut last = None;
        for stmt in split_script(script) {
            let trimmed = stmt.trim();
            if trimmed.is_empty() {
                continue;
            }
            last = Some(self.execute_sql(trimmed)?);
        }
        Ok(last)
    }

    pub fn run(&mut self, stmt: Stmt) -> Result<ExecOutcome> {
        match stmt {
            Stmt::Select(s) => {
                let rs = self.query(&s)?;
                Ok(ExecOutcome { affected: rs.len(), result: Some(rs), warnings: Vec::new() })
            }
            Stmt::Explain(s) => {
                let plan = exec::plan_select(self, &s, &[])?;
                let rows: Vec<Row> = plan.explain().lines().map(|l| vec![Value::str(l)]).collect();
                let rs = ResultSet { columns: vec![ColRef::new("", "plan")], rows };
                Ok(ExecOutcome { affected: rs.len(), result: Some(rs), warnings: Vec::new() })
            }
            Stmt::Insert(i) => {
                if self.views.contains_key(&i.table.to_ascii_lowercase()) {
                    let n = crate::view::insert_into_view(self, &i.table, &i.columns, &i.rows)?;
                    return Ok(ExecOutcome { result: None, affected: n, warnings: Vec::new() });
                }
                let n = self.insert_with_columns(&i.table, &i.columns, i.rows)?;
                Ok(ExecOutcome { result: None, affected: n, warnings: Vec::new() })
            }
            Stmt::Delete(d) => {
                let (n, warnings) = self.delete_where(&d.table, d.where_clause.as_ref())?;
                Ok(ExecOutcome { result: None, affected: n, warnings })
            }
            Stmt::Update(u) => {
                let (n, warnings) =
                    self.update_where(&u.table, &u.assignments, u.where_clause.as_ref())?;
                Ok(ExecOutcome { result: None, affected: n, warnings })
            }
            Stmt::CreateTable(t) => {
                self.create_table(t)?;
                Ok(ExecOutcome::ddl())
            }
            Stmt::CreateView(v) => {
                self.create_view(v)?;
                Ok(ExecOutcome::ddl())
            }
            Stmt::DropTable(t) => {
                self.drop_table(&t)?;
                Ok(ExecOutcome::ddl())
            }
            Stmt::Begin => {
                self.begin()?;
                Ok(ExecOutcome::ddl())
            }
            Stmt::Commit => {
                self.commit()?;
                Ok(ExecOutcome::ddl())
            }
            Stmt::Rollback => {
                self.rollback()?;
                Ok(ExecOutcome::ddl())
            }
        }
    }

    // ---- transactions ------------------------------------------------------

    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(RdbError::Semantic("transaction already active".into()));
        }
        self.txn = Some(UndoLog::new());
        Ok(())
    }

    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    pub fn commit(&mut self) -> Result<()> {
        self.txn.take().ok_or(RdbError::NoTransaction)?;
        Ok(())
    }

    pub fn rollback(&mut self) -> Result<()> {
        let mut log = self.txn.take().ok_or(RdbError::NoTransaction)?;
        let records: Vec<Undo> = log.drain_reverse().collect();
        self.replay_undo(records);
        Ok(())
    }

    fn replay_undo(&mut self, records: Vec<Undo>) {
        for u in records {
            match u {
                Undo::Insert { table, rid } => {
                    self.phys_delete_unchecked(&table, rid);
                }
                Undo::Delete { table, rid, row } => {
                    self.phys_restore(&table, rid, row);
                }
                Undo::Update { table, rid, old } => {
                    self.phys_overwrite(&table, rid, old);
                }
                Undo::CreateView { name } => {
                    self.views.remove(&name);
                }
            }
        }
    }

    fn finish_statement(&mut self, local: Vec<Undo>) {
        if let Some(t) = &mut self.txn {
            t.extend(local);
        }
    }

    fn abort_statement(&mut self, local: Vec<Undo>) {
        let records: Vec<Undo> = local.into_iter().rev().collect();
        self.replay_undo(records);
    }

    // ---- physical operations (index-maintaining, no constraint checks) -----

    fn phys_insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        let schema_name = self
            .schema
            .table(table)
            .map(|t| t.name.clone())
            .ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        // Check the keys before taking the storage for writing, so a
        // rejected insert never copies a shared table.
        for ix in &self.table_data(table).expect("data for table").indexes {
            let key = ix.key_of(&row);
            if ix.conflicts(&key) {
                let rendered: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                return Err(RdbError::UniqueViolation {
                    table: schema_name,
                    constraint: ix.name.clone(),
                    key: format!("({})", rendered.join(", ")),
                });
            }
        }
        let data = self.table_data_mut(table).expect("data for table");
        let rid = data.heap.insert(row.clone());
        for ix in &mut data.indexes {
            let key = ix.key_of(&row);
            ix.insert(key, rid);
        }
        Ok(rid)
    }

    fn phys_delete_unchecked(&mut self, table: &str, rid: RowId) -> Option<Row> {
        let data = self.table_data_mut(table)?;
        let row = data.heap.delete(rid)?;
        for ix in &mut data.indexes {
            let key = ix.key_of(&row);
            ix.remove(&key, rid);
        }
        Some(row)
    }

    fn phys_restore(&mut self, table: &str, rid: RowId, row: Row) {
        let data = self.table_data_mut(table).expect("table exists");
        data.heap.restore(rid, row.clone());
        for ix in &mut data.indexes {
            let key = ix.key_of(&row);
            ix.insert(key, rid);
        }
    }

    fn phys_overwrite(&mut self, table: &str, rid: RowId, new: Row) -> Option<Row> {
        let data = self.table_data_mut(table)?;
        let old = data.heap.update(rid, new.clone())?;
        for ix in &mut data.indexes {
            let old_key = ix.key_of(&old);
            ix.remove(&old_key, rid);
            let new_key = ix.key_of(&new);
            ix.insert(new_key, rid);
        }
        Some(old)
    }

    // ---- validation ---------------------------------------------------------

    /// Type, NOT NULL and CHECK validation; coerces values in place.
    fn validate_row(&self, table: &TableSchema, row: &mut Row) -> Result<()> {
        if row.len() != table.columns.len() {
            return Err(RdbError::Arity {
                table: table.name.clone(),
                expected: table.columns.len(),
                got: row.len(),
            });
        }
        for (i, col) in table.columns.iter().enumerate() {
            if !row[i].conforms_to(col.ty) {
                return Err(RdbError::TypeMismatch {
                    table: table.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.to_string(),
                    got: row[i].data_type().map(|t| t.to_string()).unwrap_or_else(|| "NULL".into()),
                });
            }
            let v = std::mem::replace(&mut row[i], Value::Null);
            row[i] = v.coerce(col.ty);
            if col.not_null && row[i].is_null() {
                return Err(RdbError::NotNullViolation {
                    table: table.name.clone(),
                    column: col.name.clone(),
                });
            }
        }
        // NOT NULL on primary key members.
        for pk in &table.primary_key {
            let i = table.column_index(pk).expect("pk column exists");
            if row[i].is_null() {
                return Err(RdbError::NotNullViolation {
                    table: table.name.clone(),
                    column: pk.clone(),
                });
            }
        }
        // CHECK constraints; SQL semantics: NULL result passes.
        for check in &table.checks {
            let resolver = |c: &ColRef| -> Result<Value> {
                let idx = table.column_index(&c.column).ok_or_else(|| RdbError::NoSuchColumn {
                    table: table.name.clone(),
                    column: c.column.clone(),
                })?;
                Ok(row[idx].clone())
            };
            if let Value::Bool(false) = check.expr.eval(&resolver)? {
                return Err(RdbError::CheckViolation {
                    table: table.name.clone(),
                    constraint: check.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Foreign-key existence: every non-NULL FK value must match a row in
    /// the referenced table.
    fn validate_fk_exists(&self, table: &TableSchema, row: &Row) -> Result<()> {
        for fk in &table.foreign_keys {
            let vals: Vec<Value> = fk
                .columns
                .iter()
                .map(|c| row[table.column_index(c).expect("fk column")].clone())
                .collect();
            if vals.iter().any(Value::is_null) {
                continue;
            }
            if !self.ref_row_exists(&fk.ref_table, &fk.ref_columns, &vals)? {
                let rendered: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                return Err(RdbError::ForeignKeyMissing {
                    table: table.name.clone(),
                    constraint: fk.name.clone(),
                    key: format!("({})", rendered.join(", ")),
                });
            }
        }
        Ok(())
    }

    fn ref_row_exists(&self, table: &str, columns: &[String], vals: &[Value]) -> Result<bool> {
        Ok(!self.rows_matching(table, columns, vals)?.is_empty())
    }

    /// RowIds of rows in `table` whose `columns` equal `vals`, using an
    /// index when one covers the columns.
    pub fn rows_matching(
        &self,
        table: &str,
        columns: &[String],
        vals: &[Value],
    ) -> Result<Vec<RowId>> {
        let schema =
            self.schema.table(table).ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        let data = self.table_data(table).expect("data for table");
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| {
                schema.column_index(c).ok_or_else(|| RdbError::NoSuchColumn {
                    table: table.to_string(),
                    column: c.clone(),
                })
            })
            .collect::<Result<_>>()?;
        // Exact-cover index?
        let mut wanted = positions.clone();
        wanted.sort_unstable();
        if let Some(ix) = data.indexes.iter().find(|ix| {
            let mut have = ix.columns.clone();
            have.sort_unstable();
            have == wanted
        }) {
            // Reorder values to the index column order.
            let key: Vec<Value> = ix
                .columns
                .iter()
                .map(|ic| {
                    let at = positions.iter().position(|p| p == ic).expect("covered");
                    vals[at].clone()
                })
                .collect();
            self.stats.add_index_lookup(1);
            return Ok(ix.lookup(&key));
        }
        // Fallback: scan.
        let mut out = Vec::new();
        for (rid, row) in data.heap.scan() {
            self.stats.add_scanned(1);
            let matches = positions.iter().zip(vals).all(|(&p, v)| row[p].sql_eq(v) == Some(true));
            if matches {
                out.push(rid);
            }
        }
        Ok(out)
    }

    // ---- DML -----------------------------------------------------------------

    /// Positional insert of full rows.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.insert_with_columns(table, &[], rows)
    }

    /// Insert with an explicit column list (missing columns become NULL).
    pub fn insert_with_columns(
        &mut self,
        table: &str,
        columns: &[String],
        rows: Vec<Row>,
    ) -> Result<usize> {
        let schema = self
            .schema
            .table(table)
            .cloned()
            .ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        let mut local: Vec<Undo> = Vec::new();
        let result = (|| -> Result<usize> {
            let mut n = 0;
            for row in rows {
                let mut full = if columns.is_empty() {
                    row
                } else {
                    if row.len() != columns.len() {
                        return Err(RdbError::Arity {
                            table: schema.name.clone(),
                            expected: columns.len(),
                            got: row.len(),
                        });
                    }
                    let mut full = vec![Value::Null; schema.columns.len()];
                    for (c, v) in columns.iter().zip(row) {
                        let i = schema.column_index(c).ok_or_else(|| RdbError::NoSuchColumn {
                            table: schema.name.clone(),
                            column: c.clone(),
                        })?;
                        full[i] = v;
                    }
                    full
                };
                self.validate_row(&schema, &mut full)?;
                self.validate_fk_exists(&schema, &full)?;
                let rid = self.phys_insert(&schema.name, full)?;
                local.push(Undo::Insert { table: schema.name.clone(), rid });
                n += 1;
            }
            Ok(n)
        })();
        match result {
            Ok(n) => {
                self.finish_statement(local);
                Ok(n)
            }
            Err(e) => {
                self.abort_statement(local);
                Err(e)
            }
        }
    }

    /// Delete rows matching `pred`, honouring each referencing foreign key's
    /// delete policy (CASCADE / SET NULL / RESTRICT). Returns the number of
    /// rows deleted **in the target table** plus warnings.
    pub fn delete_where(
        &mut self,
        table: &str,
        pred: Option<&Expr>,
    ) -> Result<(usize, Vec<Warning>)> {
        let schema_name = self
            .schema
            .table(table)
            .map(|t| t.name.clone())
            .ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        let rids = self.select_rids(&schema_name, pred)?;
        let mut local: Vec<Undo> = Vec::new();
        let count = rids.len();
        let result = (|| -> Result<()> {
            for rid in rids {
                self.delete_one(&schema_name, rid, &mut local)?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.finish_statement(local);
                let warnings = if count == 0 {
                    vec![Warning::ZeroRowsDeleted { table: schema_name }]
                } else {
                    Vec::new()
                };
                Ok((count, warnings))
            }
            Err(e) => {
                self.abort_statement(local);
                Err(e)
            }
        }
    }

    /// Delete one row by RowId with policy propagation.
    pub fn delete_rid(&mut self, table: &str, rid: RowId) -> Result<usize> {
        let schema_name = self
            .schema
            .table(table)
            .map(|t| t.name.clone())
            .ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        let mut local: Vec<Undo> = Vec::new();
        let result = self.delete_one(&schema_name, rid, &mut local);
        match result {
            Ok(()) => {
                self.finish_statement(local);
                Ok(1)
            }
            Err(e) => {
                self.abort_statement(local);
                Err(e)
            }
        }
    }

    fn delete_one(&mut self, table: &str, rid: RowId, local: &mut Vec<Undo>) -> Result<()> {
        let Some(row) = self.table_data(table).and_then(|d| d.heap.get(rid)).cloned() else {
            return Ok(()); // already gone (e.g. earlier cascade)
        };
        // Referencing foreign keys, with the key values this row carries.
        struct Child {
            table: String,
            fk_columns: Vec<String>,
            policy: DeletePolicy,
            fk_name: String,
            key: Vec<Value>,
        }
        let parent_schema = self.schema.table(table).expect("table exists").clone();
        let mut children: Vec<Child> = Vec::new();
        for (owner, fk) in self.schema.foreign_keys() {
            if !fk.ref_table.eq_ignore_ascii_case(table) {
                continue;
            }
            let key: Vec<Value> = fk
                .ref_columns
                .iter()
                .map(|c| row[parent_schema.column_index(c).expect("ref column")].clone())
                .collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            children.push(Child {
                table: owner.to_string(),
                fk_columns: fk.columns.clone(),
                policy: fk.on_delete,
                fk_name: fk.name.clone(),
                key,
            });
        }
        // RESTRICT pre-check before touching anything.
        for child in &children {
            if child.policy == DeletePolicy::Restrict {
                let hits = self.rows_matching(&child.table, &child.fk_columns, &child.key)?;
                if !hits.is_empty() {
                    let rendered: Vec<String> = child.key.iter().map(|v| v.to_string()).collect();
                    return Err(RdbError::ForeignKeyRestrict {
                        table: table.to_string(),
                        constraint: child.fk_name.clone(),
                        key: format!("({})", rendered.join(", ")),
                    });
                }
            }
        }
        // Delete the parent row.
        let deleted = self.phys_delete_unchecked(table, rid).expect("row read above");
        local.push(Undo::Delete { table: table.to_string(), rid, row: deleted });
        // Propagate.
        for child in children {
            let hits = self.rows_matching(&child.table, &child.fk_columns, &child.key)?;
            match child.policy {
                DeletePolicy::Cascade => {
                    for crid in hits {
                        self.delete_one(&child.table, crid, local)?;
                    }
                }
                DeletePolicy::SetNull => {
                    let cschema = self.schema.table(&child.table).expect("child exists").clone();
                    let positions: Vec<usize> = child
                        .fk_columns
                        .iter()
                        .map(|c| cschema.column_index(c).expect("fk column"))
                        .collect();
                    for p in &positions {
                        if cschema.columns[*p].not_null
                            || cschema.in_primary_key(&cschema.columns[*p].name)
                        {
                            return Err(RdbError::NotNullViolation {
                                table: child.table.clone(),
                                column: cschema.columns[*p].name.clone(),
                            });
                        }
                    }
                    for crid in hits {
                        let old = self
                            .table_data(&child.table)
                            .and_then(|d| d.heap.get(crid))
                            .cloned()
                            .expect("matched row");
                        let mut new = old.clone();
                        for p in &positions {
                            new[*p] = Value::Null;
                        }
                        self.phys_overwrite(&child.table, crid, new);
                        local.push(Undo::Update { table: child.table.clone(), rid: crid, old });
                    }
                }
                DeletePolicy::Restrict => {
                    // Pre-checked: no referencing rows can exist here.
                    debug_assert!(hits.is_empty());
                }
            }
        }
        Ok(())
    }

    /// Update rows matching `pred`.
    pub fn update_where(
        &mut self,
        table: &str,
        assignments: &[(String, Value)],
        pred: Option<&Expr>,
    ) -> Result<(usize, Vec<Warning>)> {
        let schema = self
            .schema
            .table(table)
            .cloned()
            .ok_or_else(|| RdbError::NoSuchTable(table.to_string()))?;
        let rids = self.select_rids(&schema.name, pred)?;
        let count = rids.len();
        let positions: Vec<(usize, Value)> = assignments
            .iter()
            .map(|(c, v)| {
                schema.column_index(c).map(|i| (i, v.clone())).ok_or_else(|| {
                    RdbError::NoSuchColumn { table: schema.name.clone(), column: c.clone() }
                })
            })
            .collect::<Result<_>>()?;
        let mut local: Vec<Undo> = Vec::new();
        let result = (|| -> Result<()> {
            for rid in &rids {
                let old = self
                    .table_data(&schema.name)
                    .and_then(|d| d.heap.get(*rid))
                    .cloned()
                    .expect("selected row");
                let mut new = old.clone();
                for (i, v) in &positions {
                    new[*i] = v.clone();
                }
                self.validate_row(&schema, &mut new)?;
                self.validate_fk_exists(&schema, &new)?;
                // Forbid changing a key that other rows reference.
                for (owner, fk) in self.schema.foreign_keys() {
                    if !fk.ref_table.eq_ignore_ascii_case(&schema.name) {
                        continue;
                    }
                    let changed = fk.ref_columns.iter().any(|c| {
                        let i = schema.column_index(c).expect("ref column");
                        old[i] != new[i]
                    });
                    if changed {
                        let key: Vec<Value> = fk
                            .ref_columns
                            .iter()
                            .map(|c| old[schema.column_index(c).expect("ref column")].clone())
                            .collect();
                        if !key.iter().any(Value::is_null)
                            && !self.rows_matching(owner, &fk.columns, &key)?.is_empty()
                        {
                            return Err(RdbError::Semantic(format!(
                                "cannot update {}: key referenced by {}",
                                schema.name, owner
                            )));
                        }
                    }
                }
                // Unique checks: phys_overwrite would clobber; check manually
                // for keys that changed.
                {
                    let data = self.table_data(&schema.name).expect("table data");
                    for ix in &data.indexes {
                        if !ix.unique {
                            continue;
                        }
                        let old_key = ix.key_of(&old);
                        let new_key = ix.key_of(&new);
                        if old_key != new_key && ix.conflicts(&new_key) {
                            let rendered: Vec<String> =
                                new_key.iter().map(|v| v.to_string()).collect();
                            return Err(RdbError::UniqueViolation {
                                table: schema.name.clone(),
                                constraint: ix.name.clone(),
                                key: format!("({})", rendered.join(", ")),
                            });
                        }
                    }
                }
                self.phys_overwrite(&schema.name, *rid, new);
                local.push(Undo::Update { table: schema.name.clone(), rid: *rid, old });
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.finish_statement(local);
                let warnings = if count == 0 {
                    vec![Warning::ZeroRowsUpdated { table: schema.name }]
                } else {
                    Vec::new()
                };
                Ok((count, warnings))
            }
            Err(e) => {
                self.abort_statement(local);
                Err(e)
            }
        }
    }

    /// RowIds of rows in `table` matching `pred` (planned like a query so
    /// indexes and subqueries work).
    fn select_rids(&self, table: &str, pred: Option<&Expr>) -> Result<Vec<RowId>> {
        let sel = Select::new(
            vec![SelectItem::Expr { expr: Expr::col(table, "rowid"), alias: None }],
            vec![FromItem::Table(TableRef::named(table))],
            pred.cloned(),
        );
        let rs = self.query(&sel)?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| match &r[0] {
                Value::Int(i) => RowId(*i as u64),
                other => unreachable!("rowid pseudo-column is Int, got {other}"),
            })
            .collect())
    }

    // ---- inspection helpers (tests, verification) -----------------------------

    /// All live rows of a table, sorted, for structural comparison.
    pub fn table_rows_sorted(&self, table: &str) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .table_data(table)
            .map(|d| d.heap.scan().map(|(_, r)| r.clone()).collect())
            .unwrap_or_default();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                match crate::types::total_cmp(x, y) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// Full content snapshot keyed by table name (base tables only).
    pub fn dump(&self) -> std::collections::BTreeMap<String, Vec<Row>> {
        self.schema
            .tables
            .iter()
            .map(|t| (t.name.clone(), self.table_rows_sorted(&t.name)))
            .collect()
    }

    /// Row count of a single table.
    pub fn row_count(&self, table: &str) -> usize {
        self.table_data(table).map(|d| d.heap.len()).unwrap_or(0)
    }

    // ---- snapshot / restore (execute-compare harnesses) -----------------------

    /// A clone that owns a private copy of every table from the start. For
    /// timing harnesses: a write to a plain clone pays for copying its
    /// table, inside the timed region.
    pub fn deep_clone(&self) -> Db {
        let mut copy = self.clone();
        for table in copy.data.values_mut() {
            *table = Arc::new(TableData::clone(table));
        }
        copy
    }

    /// Capture a point-in-time copy of the whole database: schema, table
    /// heaps, indexes, views, and planner configuration. The copy is a
    /// copy-on-write clone: it shares every table's storage until one side
    /// writes that table, so taking one costs no table copy. Snapshots
    /// taken from equal databases are equal (heap row-ids and index layout
    /// are kept verbatim), so `snapshot → mutate → restore → snapshot`
    /// yields a byte-stable state — the rollback primitive differential
    /// harnesses use around execute-recompute-compare runs.
    ///
    /// An open transaction's undo log is deliberately *not* captured:
    /// restoring into the middle of someone else's transaction would make
    /// its rollback undefined. Taking a snapshot inside a transaction is an
    /// error for the same reason.
    pub fn snapshot(&self) -> Result<DbSnapshot> {
        if self.txn.is_some() {
            return Err(RdbError::Semantic(
                "snapshot inside an open transaction (commit or rollback first)".into(),
            ));
        }
        Ok(DbSnapshot { db: Box::new(self.clone()) })
    }

    /// Restore the state captured by [`snapshot`](Self::snapshot),
    /// discarding every change made since (including schema changes). Any
    /// open transaction is discarded wholesale — the snapshot state already
    /// is the rollback target.
    pub fn restore(&mut self, snap: &DbSnapshot) {
        *self = (*snap.db).clone();
    }
}

/// An opaque point-in-time database copy — see [`Db::snapshot`].
#[derive(Clone)]
pub struct DbSnapshot {
    db: Box<Db>,
}

impl Default for Db {
    fn default() -> Db {
        Db::new()
    }
}

/// Split a SQL script on `;`, respecting single- and double-quoted strings
/// and `--` line comments.
pub fn split_script(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        if let Some(q) = quote {
            cur.push(c);
            if c == q {
                quote = None;
            }
            continue;
        }
        match c {
            '\'' | '"' => {
                quote = Some(c);
                cur.push(c);
            }
            '-' if chars.peek() == Some(&'-') => {
                for n in chars.by_ref() {
                    if n == '\n' {
                        cur.push('\n');
                        break;
                    }
                }
            }
            ';' => {
                out.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod script_tests {
    use super::*;

    #[test]
    fn split_respects_quotes_and_comments() {
        let parts =
            split_script("INSERT INTO t VALUES ('a;b'); -- trailing; comment\nDELETE FROM t; ");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("'a;b'"));
        assert!(parts[1].trim().starts_with("DELETE"));
    }

    #[test]
    fn execute_script_runs_in_order() {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE t(a INT, CONSTRAINTS TPK PRIMARYKEY (a)); \
             INSERT INTO t VALUES (1); INSERT INTO t VALUES (2);",
        )
        .unwrap();
        assert_eq!(db.row_count("t"), 2);
        // First error aborts.
        let err = db.execute_script("INSERT INTO t VALUES (3); INSERT INTO t VALUES (3);");
        assert!(err.is_err());
        assert_eq!(db.row_count("t"), 3);
    }

    #[test]
    fn snapshot_restore_round_trips_data_and_schema() {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE t(a INT, b VARCHAR2(10), CONSTRAINTS TPK PRIMARYKEY (a)); \
             INSERT INTO t VALUES (1, 'one'); INSERT INTO t VALUES (2, 'two');",
        )
        .unwrap();
        let before = db.dump();
        let snap = db.snapshot().unwrap();

        // Mutate data *and* schema, then restore.
        db.execute_script(
            "DELETE FROM t WHERE a = 1; INSERT INTO t VALUES (9, 'nine'); \
             CREATE TABLE extra(x INT, CONSTRAINTS XPK PRIMARYKEY (x));",
        )
        .unwrap();
        assert_ne!(db.dump(), before);
        db.restore(&snap);
        assert_eq!(db.dump(), before);
        assert!(db.schema().table("extra").is_none(), "restored schema drops new table");

        // Determinism: snapshot → restore → snapshot yields equal dumps,
        // and restoring over an open transaction discards it cleanly.
        db.begin().unwrap();
        db.execute_sql("DELETE FROM t WHERE a = 2").unwrap();
        assert!(db.snapshot().is_err(), "snapshot inside a transaction is refused");
        db.restore(&snap);
        assert!(!db.in_transaction());
        assert_eq!(db.dump(), before);
    }
}

#[cfg(test)]
mod cow_tests {
    use super::*;

    /// `p` (two rows) referenced by `c` (two rows, CASCADE), plus an
    /// unrelated table `u`.
    fn sample() -> Db {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE p(a INT, b VARCHAR2(10), CONSTRAINTS PPK PRIMARYKEY (a)); \
             CREATE TABLE c(x INT, a INT, CONSTRAINTS CPK PRIMARYKEY (x), \
                 FOREIGNKEY (a) REFERENCES p (a) ON DELETE CASCADE); \
             CREATE TABLE u(k INT, CONSTRAINTS UPK PRIMARYKEY (k)); \
             INSERT INTO p VALUES (1, 'one'); INSERT INTO p VALUES (2, 'two'); \
             INSERT INTO c VALUES (10, 1); INSERT INTO c VALUES (20, 2); \
             INSERT INTO u VALUES (7);",
        )
        .unwrap();
        db
    }

    fn shared(a: &Db, b: &Db, table: &str) -> bool {
        Arc::ptr_eq(&a.data[table], &b.data[table])
    }

    #[test]
    fn a_clone_shares_every_table_until_it_writes() {
        let db = sample();
        let mut copy = db.clone();
        for table in ["p", "c", "u"] {
            assert!(shared(&db, &copy, table), "{table} copied by clone");
        }
        copy.query_sql("SELECT * FROM p, c WHERE p.a = c.a").unwrap();
        assert!(shared(&db, &copy, "p"), "a read copied p");
        copy.execute_sql("UPDATE p SET b = 'uno' WHERE a = 1").unwrap();
        assert!(!shared(&db, &copy, "p"), "a write left p shared");
        assert!(shared(&db, &copy, "c") && shared(&db, &copy, "u"), "unwritten tables copied");
        // A rejected insert (key conflict) copies nothing either.
        let mut other = db.clone();
        assert!(other.execute_sql("INSERT INTO u VALUES (7)").is_err());
        assert!(shared(&db, &other, "u"));
        // A deep clone owns every table from the start.
        let deep = db.deep_clone();
        assert!(["p", "c", "u"].iter().all(|t| !shared(&db, &deep, t)));
        assert_eq!(deep.dump(), db.dump());
    }

    #[test]
    fn writes_on_either_side_never_reach_the_other() {
        let statements = [
            "INSERT INTO p VALUES (3, 'three')",
            "DELETE FROM p WHERE a = 1",
            "UPDATE p SET b = 'deux' WHERE a = 2",
            "INSERT INTO u VALUES (8)",
        ];
        for sql in statements {
            let mut db = sample();
            let before = db.dump();
            let mut copy = db.clone();
            copy.execute_sql(sql).unwrap();
            assert_ne!(copy.dump(), before, "{sql} changed nothing");
            assert_eq!(db.dump(), before, "{sql} on the clone reached the original");
            // And the reverse: the original writes, the clone keeps its state.
            let copy_state = copy.dump();
            let mut copy2 = db.clone();
            db.execute_sql(sql).unwrap();
            assert_eq!(copy2.dump(), before, "{sql} on the original reached a clone");
            copy2.execute_sql("DELETE FROM c WHERE x = 20").unwrap();
            assert_eq!(copy.dump(), copy_state);
        }
        // A cascade writes both p and c on the clone only.
        let db = sample();
        let before = db.dump();
        let mut copy = db.clone();
        copy.execute_sql("DELETE FROM p WHERE a = 2").unwrap();
        assert_eq!(copy.row_count("c"), 1);
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn a_rolled_back_transaction_on_a_clone_leaves_both_sides_unchanged() {
        let db = sample();
        let before = db.dump();
        let mut copy = db.clone();
        copy.begin().unwrap();
        copy.execute_script(
            "INSERT INTO p VALUES (3, 'three'); DELETE FROM p WHERE a = 1; \
             UPDATE u SET k = 9 WHERE k = 7;",
        )
        .unwrap();
        assert_ne!(copy.dump(), before);
        copy.rollback().unwrap();
        assert_eq!(copy.dump(), before);
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn snapshot_shares_storage_and_restores_byte_stable() {
        let mut db = sample();
        let snap = db.snapshot().unwrap();
        assert!(["p", "c", "u"].iter().all(|t| shared(&db, &snap.db, t)));
        let before = db.dump();
        db.execute_script("DELETE FROM p WHERE a = 1; INSERT INTO u VALUES (8);").unwrap();
        assert!(!shared(&db, &snap.db, "c"), "the cascade wrote c");
        db.restore(&snap);
        assert_eq!(db.dump(), before);
        let again = db.snapshot().unwrap();
        assert_eq!(again.db.dump(), snap.db.dump());
        // Restoring shares the snapshot's storage again.
        assert!(["p", "c", "u"].iter().all(|t| shared(&db, &snap.db, t)));
    }

    #[test]
    fn bound_rows_read_like_their_materialized_table() {
        let mut db = sample();
        let rows = db.query_sql("SELECT p.a, c.a, p.b FROM p, c WHERE p.a = c.a").unwrap();
        assert_eq!(rows.table_columns(), ["a", "a_2", "b"]);
        let queries = [
            "SELECT * FROM TAB_p",
            "SELECT a_2, rowid FROM TAB_p WHERE b = 'two'",
            "SELECT x FROM c WHERE c.a IN (SELECT a FROM TAB_p)",
            "SELECT t.rowid, c.x FROM TAB_p t, c WHERE t.a = c.a",
        ];
        let before = db.dump();
        let bound: Vec<_> = queries
            .iter()
            .map(|q| {
                let sel = Parser::parse_select(q).unwrap();
                db.query_with(&sel, &[("TAB_p", &rows)]).unwrap()
            })
            .collect();
        assert_eq!(db.dump(), before, "a bound query wrote");
        assert!(db.query_sql("SELECT * FROM TAB_p").is_err(), "the binding outlived its query");
        assert_eq!(db.materialize("TAB_p", &rows), 2);
        for (q, expected) in queries.iter().zip(bound) {
            assert_eq!(db.query_sql(q).unwrap(), expected, "{q}");
        }
    }
}
