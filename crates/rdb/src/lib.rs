//! # ufilter-rdb — the relational substrate of the U-Filter reproduction
//!
//! An in-memory relational engine built from scratch, covering exactly what
//! the paper's evaluation exercises on Oracle 10g:
//!
//! * schemas with primary keys, UNIQUE, NOT NULL, CHECK and foreign keys
//!   with per-constraint delete policies (CASCADE / SET NULL / RESTRICT);
//! * a SQL subset (SELECT with comma joins, explicit `[LEFT] JOIN … ON`,
//!   `IN (SELECT …)`; INSERT / DELETE / UPDATE; `CREATE TABLE/VIEW`);
//! * a planner choosing index nested-loop joins over key/FK indexes, hash
//!   joins, or nested loops — the index-vs-no-index gap drives Fig. 16;
//! * undo-log transactions with rollback — the cost baseline of Fig. 14;
//! * copy-on-write tables: a [`Db`] clone or snapshot shares every table's
//!   storage and copies a table only when it first writes to it;
//! * updatable LEFT JOIN views for the *internal* strategy of §6.2.1;
//! * probe results (`TAB_…` tables, §6.1) without indexes: bound to one
//!   query as read-only rows ([`Db::query_with`], what a check uses), or
//!   materialized as a table ([`Db::materialize`], what `apply` uses).
//!
//! ```
//! use ufilter_rdb::{Db, Value};
//!
//! let mut db = Db::new();
//! db.execute_sql(
//!     "CREATE TABLE publisher(pubid VARCHAR2(10), pubname VARCHAR2(100) UNIQUE NOT NULL, \
//!      CONSTRAINTS PubPK PRIMARYKEY (pubid))",
//! ).unwrap();
//! db.execute_sql("INSERT INTO publisher VALUES ('A01', 'McGraw-Hill Inc.')").unwrap();
//! let rs = db.query_sql("SELECT pubname FROM publisher WHERE pubid = 'A01'").unwrap();
//! assert_eq!(rs.rows[0][0], Value::str("McGraw-Hill Inc."));
//! ```

pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod sat;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod types;
pub mod view;

pub use db::{Db, DbSnapshot, ExecOutcome, ExecStats, PlannerConfig, TableData};
pub use error::{RdbError, Result, Warning};
pub use exec::ResultSet;
pub use expr::{CmpOp, ColRef, Expr};
pub use schema::{CheckConstraint, Column, DatabaseSchema, DeletePolicy, ForeignKey, TableSchema};
pub use sql::ast::{
    CreateView, Delete, FromItem, Insert, JoinKind, Select, SelectItem, Stmt, TableRef, Update,
};
pub use sql::parser::Parser;
pub use storage::{Row, RowId};
pub use types::{DataType, Value};
