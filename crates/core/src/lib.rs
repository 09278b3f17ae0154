//! # ufilter-core — U-Filter: a lightweight XML view update checker
//!
//! The paper's primary contribution (Wang, Rundensteiner, Mani; ICDE 2006):
//! decide, before any translation is attempted, whether an update against a
//! virtual XML view of a relational database can be mapped to relational
//! updates **without view side effects** (Definition 1's rectangle rule).
//!
//! Three checks of increasing cost (Fig. 5):
//!
//! 1. [`validate()`] — update validation against the view ASG's *local*
//!    constraints (§4);
//! 2. [`star`] — Schema-driven TrAnslatability Reasoning: compile-time
//!    `(UPoint | UContext)` marking (Rules 1–3 + closure comparison) and a
//!    constant-time check (Observations 1–2) classifying valid updates as
//!    unconditionally / conditionally translatable or untranslatable (§5);
//! 3. [`datacheck`] — run-time data-driven checks: the update context probe
//!    (§6.1) and the update point check under the *internal*, *hybrid* or
//!    *outside* strategy (§6.2).
//!
//! Survivors reach the [`translate`] engine, which emits single-table SQL
//! against [`ufilter_rdb`]. The [`rectangle`] module provides the
//! correctness oracle and the Fig. 14 "blind translation" baseline.
//!
//! ```
//! use ufilter_core::bookdemo;
//!
//! let filter = bookdemo::book_filter();
//! let mut db = bookdemo::book_db();
//! // u8: delete the reviews of books under $40 — unconditionally OK.
//! let reports = filter.check(bookdemo::U8, &mut db);
//! assert!(reports[0].outcome.is_translatable());
//! // u5: contradicts the view predicate — invalid.
//! let reports = filter.check(bookdemo::U5, &mut db);
//! assert!(reports[0].outcome.is_invalid());
//! ```

#![warn(missing_docs)]

pub mod bookdemo;
pub mod catalog;
pub mod datacheck;
pub mod independence;
pub mod obs;
pub mod outcome;
pub mod persist;
pub mod pipeline;
pub mod probe;
pub mod rectangle;
pub mod star;
pub mod target;
pub mod translate;
pub mod validate;
pub mod wire;

pub use catalog::{
    BatchItemReport, BatchReport, BatchStats, CatalogError, FanoutStats, Target, ViewCatalog,
    ViewInfo,
};
pub use datacheck::{DataCheckReport, Strategy};
pub use independence::{IndependenceStats, Verdict};
pub use obs::{Histogram, HistogramSnapshot, MetricsSnapshot, Stage, Verb};
pub use outcome::{CheckOutcome, CheckReport, CheckStep, Condition, InvalidReason};
pub use persist::{CatalogStore, LogRecord, PersistError, ReplayStats, VerifyReport};
pub use pipeline::{parse_update_timed, CompileError, ProbeCache, UFilter, UFilterConfig};
pub use rectangle::{apply_and_verify, blind_apply, verify_applied, RectangleVerdict};
pub use star::{StarMarking, StarMode, StarVerdict};
pub use target::ResolvedAction;
pub use translate::TranslationPlan;
pub use ufilter_route::{wire_outcome_is_irrelevant, Footprint, IndexStats, PruneLevels, Route};
pub use validate::validate;
