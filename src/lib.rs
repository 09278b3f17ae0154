//! # u-filter — a lightweight XML view update checker
//!
//! Reproduction of *Wang, Rundensteiner, Mani: "U-Filter: A Lightweight XML
//! View Update Checker"* (ICDE 2006 / WPI-CS-TR-05-11).
//!
//! U-Filter answers, **before any translation is attempted**, whether an
//! update against a virtual XML view of a relational database can be mapped
//! to relational updates without view side effects. It layers three checks
//! of increasing cost: schema-level *update validation*, compile-time
//! *schema-driven translatability reasoning* (STAR), and run-time
//! *data-driven checking* with internal / hybrid / outside strategies.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`rdb`] — the in-memory relational engine substrate;
//! * [`xml`] — XML tree model, parser, default-view publisher;
//! * [`xquery`] — the view-query (FLWR subset) and update languages;
//! * [`asg`] — Annotated Schema Graphs and the closure algebra;
//! * [`core`] — the U-Filter pipeline itself;
//! * [`route`] — the shared relevance index fanning updates out to the
//!   candidate views they could affect;
//! * [`service`] — the concurrent check server (one catalog behind one
//!   `RwLock`, worker pool, line-oriented wire protocol);
//! * [`tpch`] — the evaluation's data generator and views;
//! * [`usecases`] — the W3C use-case catalog (Fig. 12).
//!
//! ## Quick start
//!
//! ```
//! use u_filter::core::bookdemo;
//!
//! // Compile the paper's BookView over the Fig. 1 schema …
//! let filter = bookdemo::book_filter();
//! let mut db = bookdemo::book_db();
//!
//! // … and push updates through the three-step checker.
//! let ok = filter.check(bookdemo::U8, &mut db).remove(0);   // delete cheap books' reviews
//! assert!(ok.outcome.is_translatable());
//!
//! let bad = filter.check(bookdemo::U10, &mut db).remove(0); // delete a shared publisher
//! assert!(!bad.outcome.is_translatable());
//! ```

pub use ufilter_asg as asg;
pub use ufilter_core as core;
pub use ufilter_rdb as rdb;
pub use ufilter_route as route;
pub use ufilter_service as service;
pub use ufilter_tpch as tpch;
pub use ufilter_usecases as usecases;
pub use ufilter_xml as xml;
pub use ufilter_xquery as xquery;

pub use ufilter_core::{
    apply_and_verify, blind_apply, CheckOutcome, CheckReport, CheckStep, CompileError, Condition,
    InvalidReason, RectangleVerdict, StarMode, Strategy, UFilter, UFilterConfig,
};
