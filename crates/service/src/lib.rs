//! # ufilter-service — the concurrent check server
//!
//! U-Filter's value is *compile once, check many* (paper Fig. 5): a view's
//! ASG and STAR marks are computed once and amortized over a stream of
//! updates. This crate scales that amortization from a single-threaded
//! library call to a long-running, concurrent **service**:
//!
//! * [`catalog::ShardedCatalog`] — an `Arc`-shared, `Sync` view catalog:
//!   one [`ufilter_core::ViewCatalog`] behind one `RwLock`. Checks and
//!   routing take the read lock once per call; catalog mutations and
//!   guarded DDL take the write lock once. (The name predates the move
//!   from per-name shards to a single lock.)
//! * [`pool::CheckPool`] — `workers` private check slots (a database
//!   clone and a long-lived [`ufilter_core::ProbeCache`] each) that
//!   connection threads borrow: a request runs on the thread that read it,
//!   on one slot, under one catalog read guard. Free slots are reused
//!   last-in-first-out, so a connection keeps landing on the cache it just
//!   warmed.
//! * [`proto`] + [`server::CheckServer`] — a line-oriented wire protocol
//!   over `std::net` TCP (`CHECK`, `BATCH`, `CHECKALL`, `BATCHALL`,
//!   `CATALOG ADD/DROP/LIST`, `STATS`, `SHUTDOWN`) whose `OK`/`ERR`
//!   replies carry [`ufilter_core::wire`]-encoded outcomes —
//!   byte-identical to what the single-threaded `check-batch` /
//!   `check-all` CLI prints for the same stream. All four check verbs go
//!   through one pool call, [`CheckPool::check`]. The `CHECKALL` and
//!   `BATCHALL` verbs take *no view name*: the catalog's relevance index
//!   (`ufilter_route`, via
//!   [`ViewCatalog::route_candidates`](ufilter_core::ViewCatalog::route_candidates))
//!   picks the candidate views, and only those run the pipeline.
//!
//! The service is **check-only**: no wire request ever commits a
//! translated update, so the slots' database clones and probe caches stay
//! valid for the server's lifetime, and every reply is a pure function of
//! (catalog, database snapshot, update).
//!
//! ```
//! use std::sync::Arc;
//! use ufilter_core::{bookdemo, Target};
//! use ufilter_service::{CheckPool, ShardedCatalog};
//!
//! let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
//! catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
//! let pool = CheckPool::new(Arc::clone(&catalog), &bookdemo::book_db(), 2);
//! let report = pool.check(&[(Target::View("books"), bookdemo::U8)]);
//! assert!(report.items[0].reports[0].outcome.is_translatable());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod server;

pub use catalog::{affinity_hash, ShardedCatalog};
pub use metrics::{StatsFamily, STATS_FAMILIES};
pub use pool::CheckPool;
pub use proto::Request;
pub use server::{CheckServer, ShutdownHandle};
