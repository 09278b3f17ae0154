//! Multi-view catalog and batched update checking.
//!
//! The paper's pipeline (Fig. 5) compiles a view once and then filters a
//! *stream* of updates; this module scales that idea out to many views over
//! one schema. A [`ViewCatalog`]
//!
//! * registers compiled views by name, with a **compile-once cache** keyed
//!   by canonical view text (re-adding the same query under another name —
//!   or after a drop — reuses the compiled ASG + STAR marking);
//! * tracks **view → relation dependencies**, so schema-affecting DDL on a
//!   relation is rejected (RESTRICT) while registered views still read it;
//! * exposes one check engine, [`check`](ViewCatalog::check), which
//!   amortizes parsing, target resolution and data-check probes across a
//!   whole update stream — updates are grouped by resolved target so
//!   identical context probes share a single scan (see [`ProbeCache`]);
//! * maintains a shared **relevance index** ([`ufilter_route`]) over every
//!   registered view, so an item whose [`Target`] is
//!   [`Routed`](Target::Routed) fans out to the candidate views it could
//!   possibly affect instead of running the pipeline against the whole
//!   catalog — a sound superset. The brute-force baseline is the same
//!   request naming every view.
//!
//! Batch checking is **check-only** by design: nothing is executed, so every
//! probe result stays valid for the lifetime of the batch and the per-update
//! outcomes are identical to running [`UFilter::check`] one statement at a
//! time.
//!
//! ```
//! use ufilter_core::bookdemo;
//! use ufilter_core::catalog::{Target, ViewCatalog};
//! use ufilter_core::ProbeCache;
//!
//! let mut catalog = ViewCatalog::new(bookdemo::book_schema());
//! catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
//!
//! let mut db = bookdemo::book_db();
//! let items = [(Target::View("books"), bookdemo::U8), (Target::Routed, bookdemo::U10)];
//! let batch = catalog.check(&items, &mut db, &mut ProbeCache::new());
//! assert!(batch.items[0].reports[0].outcome.is_translatable()); // u8
//! assert!(!batch.items[1].reports[0].outcome.is_translatable()); // u10, routed to "books"
//! assert_eq!(batch.fanout.candidates, 1);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use ufilter_rdb::{DatabaseSchema, Db, ExecOutcome, Parser, Stmt};
use ufilter_route::{Footprint, IndexStats, PruneLevels, Route, TrieIndex, ViewSignature};
use ufilter_xquery::UpdateStmt;

use crate::obs::{self, Stage};
use crate::outcome::CheckReport;
use crate::persist::{self, CatalogStore, LogRecord, ReplayStats};
use crate::pipeline::{
    malformed, parse_update_timed, CompileError, ProbeCache, UFilter, UFilterConfig,
};
use crate::target::resolve;

/// Why a catalog operation failed.
#[derive(Debug, Clone)]
pub enum CatalogError {
    /// `add` under a name that is already registered.
    DuplicateView {
        /// The already-taken view name.
        name: String,
    },
    /// `drop_view`/`get` on a name that is not registered.
    UnknownView {
        /// The unresolved view name.
        name: String,
    },
    /// The view text failed to compile; the structured cause is preserved.
    Compile {
        /// The name the view was being registered under.
        name: String,
        /// The underlying compilation failure.
        error: CompileError,
    },
    /// Schema-affecting DDL on a relation that registered views still read
    /// (the catalog's RESTRICT rule).
    DependentViews {
        /// The relation the DDL targets.
        relation: String,
        /// Names of the views that depend on it.
        views: Vec<String>,
    },
    /// A guarded SQL statement failed to parse or execute.
    Sql {
        /// Engine-reported detail.
        detail: String,
    },
    /// The attached durable store could not record the mutation (the
    /// operation is **not** acknowledged — nothing the store did not accept
    /// is inserted into the live catalog).
    Persist {
        /// Store-reported detail.
        detail: String,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateView { name } => {
                write!(f, "view '{name}' is already registered")
            }
            CatalogError::UnknownView { name } => write!(f, "no view named '{name}'"),
            CatalogError::Compile { name, error } => {
                write!(f, "view '{name}' failed to compile: {error}")
            }
            CatalogError::DependentViews { relation, views } => write!(
                f,
                "cannot alter relation '{relation}': view(s) {} depend on it",
                views.join(", ")
            ),
            CatalogError::Sql { detail } => write!(f, "{detail}"),
            CatalogError::Persist { detail } => write!(f, "persistence failure: {detail}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One registered view, as reported by [`ViewCatalog::list`].
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// Registration name.
    pub name: String,
    /// Relations the view reads (its dependency set).
    pub relations: Vec<String>,
    /// Whether registration reused an already-compiled artifact.
    pub cached: bool,
}

/// Which views one check item goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target<'a> {
    /// The named view (the `CHECK` and `BATCH` verbs).
    View(&'a str),
    /// Every candidate view the relevance index routes the update to (the
    /// `CHECKALL` and `BATCHALL` verbs).
    Routed,
}

/// One (item, view) result of a check.
#[derive(Debug, Clone)]
pub struct BatchItemReport {
    /// Index of the item in the submitted stream.
    pub index: usize,
    /// The view checked: the item's named view, or one of its routed
    /// candidates.
    pub view: String,
    /// Per-action reports, exactly as [`UFilter::check`] would produce.
    pub reports: Vec<CheckReport>,
}

/// Amortization counters for one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Number of (item, view) checks run.
    pub items: usize,
    /// Updates whose text was already parsed earlier in the batch.
    pub parse_hits: usize,
    /// Distinct (view, target-node) groups the stream collapsed into.
    pub target_groups: usize,
    /// Context probes answered from the shared cache.
    pub probe_hits: usize,
    /// Context probes that had to scan.
    pub probe_misses: usize,
}

impl BatchStats {
    /// Accumulate another batch's counters into this one (the service's
    /// check pool sums every request's counters this way).
    pub fn merge(&mut self, other: &BatchStats) {
        self.items += other.items;
        self.parse_hits += other.parse_hits;
        self.target_groups += other.target_groups;
        self.probe_hits += other.probe_hits;
        self.probe_misses += other.probe_misses;
    }
}

/// Result of [`ViewCatalog::check`]: per-(item, view) reports plus the
/// amortization and routing counters.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per checked (item, view) pair, sorted by item index, then
    /// view name.
    pub items: Vec<BatchItemReport>,
    /// What the batch engine amortized.
    pub stats: BatchStats,
    /// What routing did for the [`Target::Routed`] items (all zero when
    /// every item names its view).
    pub fanout: FanoutStats,
}

/// Pruning and fan-out counters for the [`Target::Routed`] items of one
/// [`ViewCatalog::check`] call (or one service request). Field names match
/// the service `STATS` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Views registered when the fan-out ran.
    pub views: usize,
    /// Fan-out requests routed (`fanout_requests` in `STATS`).
    pub fanout_requests: usize,
    /// Candidate (view, update) checks actually run.
    pub candidates: usize,
    /// Views pruned without running the pipeline (the per-level split is
    /// computed on demand by [`ViewCatalog::prune_levels`]).
    pub pruned: usize,
    /// Requests the index could not classify (every view became a
    /// candidate; the per-view pipeline was the fallback).
    pub fallbacks: usize,
}

impl FanoutStats {
    /// Fold one routing decision into the counters.
    pub fn absorb(&mut self, route: &Route) {
        self.fanout_requests += 1;
        self.candidates += route.candidates.len();
        self.pruned += route.pruned();
        self.fallbacks += usize::from(route.fallback);
    }

    /// Accumulate another request's counters into this one (`views` is a
    /// gauge: the other request's value wins).
    pub fn merge(&mut self, other: &FanoutStats) {
        self.views = other.views;
        self.fanout_requests += other.fanout_requests;
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.fallbacks += other.fallbacks;
    }
}

/// What a lazily-recovered view needs to build its [`UFilter`] on first
/// use: the canonical view text, the persisted artifact bytes, the schema
/// as of the view's position in the replayed record order, and the
/// catalog's pipeline config.
struct HydrationSeed {
    view_text: String,
    artifact: Vec<u8>,
    schema: Arc<DatabaseSchema>,
    config: UFilterConfig,
}

struct Registered {
    /// The compiled filter — set immediately by [`ViewCatalog::add`],
    /// hydrated from `seed` on first use for replayed views.
    filter: OnceLock<Arc<UFilter>>,
    /// Deferred-hydration seed (replayed views only).
    seed: Option<HydrationSeed>,
    /// `rel(DEF_V)` in compile order — kept outside the filter so `list`
    /// and the wire `CATALOG LIST` never force hydration.
    relations: Vec<String>,
    cached: bool,
}

impl Registered {
    fn eager(filter: Arc<UFilter>, cached: bool) -> Registered {
        let relations = filter.asg.relations.clone();
        let cell = OnceLock::new();
        let _ = cell.set(filter);
        Registered { filter: cell, seed: None, relations, cached }
    }

    fn lazy(seed: HydrationSeed, relations: Vec<String>, cached: bool) -> Registered {
        Registered { filter: OnceLock::new(), seed: Some(seed), relations, cached }
    }

    /// The compiled filter, hydrating from the persisted artifact on first
    /// use. Decoding cannot fail for bytes the store wrote (they are
    /// CRC-checked on the way in); any damage that slips through falls
    /// back to recompiling the canonical view text, which parsed when the
    /// view was originally registered.
    fn filter(&self) -> &Arc<UFilter> {
        self.filter.get_or_init(|| {
            let seed = self.seed.as_ref().expect("unhydrated entry carries a seed");
            let decoded = persist::decode_artifact(&seed.artifact)
                .ok()
                .filter(|(config, _, _, _)| *config == seed.config)
                .map(|(config, asg, marking, read_sets)| {
                    UFilter::from_artifact(
                        seed.view_text.clone(),
                        (*seed.schema).clone(),
                        asg,
                        marking,
                        read_sets,
                        config,
                    )
                });
            Arc::new(decoded.unwrap_or_else(|| {
                UFilter::compile(&seed.view_text, &seed.schema)
                    .map(|f| f.with_config(seed.config))
                    .expect("replayed view text compiled when originally registered")
            }))
        })
    }
}

/// A persistent catalog of compiled views over one relational schema.
///
/// See the [module docs](self) for semantics; `docs/ARCHITECTURE.md` records
/// the design decisions (drop-is-RESTRICT, compile-once caching) as an ADR.
pub struct ViewCatalog {
    schema: DatabaseSchema,
    config: UFilterConfig,
    views: BTreeMap<String, Registered>,
    /// (canonical view text, config) → compiled artifact (survives
    /// `drop_view`, so re-registering identical text is a cache hit; keyed
    /// by config too, so a `with_config` change never serves an artifact
    /// compiled under the old mode/strategy).
    compiled: HashMap<(String, UFilterConfig), Arc<UFilter>>,
    compile_hits: usize,
    /// Schema epoch: bumped by [`set_schema`](ViewCatalog::set_schema)
    /// (i.e. on every guarded schema-affecting DDL), and synced into every
    /// caller-held [`ProbeCache`] by the batch engine so probe results can
    /// never survive a schema change.
    epoch: u64,
    /// The shared path-trie relevance index over every registered view,
    /// maintained incrementally by `add`/`drop_view` (see
    /// [`ufilter_route::TrieIndex`]).
    index: TrieIndex,
    /// Durable backing store (see [`crate::persist`]). When attached, every
    /// mutating operation appends (and fsyncs) its record **before** the
    /// in-memory mutation is acknowledged. Shared behind a mutex because the
    /// service reads its counters and syncs it without the catalog lock.
    store: Option<Arc<Mutex<CatalogStore>>>,
}

impl ViewCatalog {
    /// An empty catalog over `schema`, with the default pipeline config.
    pub fn new(schema: DatabaseSchema) -> ViewCatalog {
        ViewCatalog {
            schema,
            config: UFilterConfig::default(),
            views: BTreeMap::new(),
            compiled: HashMap::new(),
            compile_hits: 0,
            epoch: 0,
            index: TrieIndex::new(),
            store: None,
        }
    }

    /// Attach a durable store: from now on `add`, `drop_view` and guarded
    /// schema DDL append their record (fsynced) before they are
    /// acknowledged. Call **after** [`replay`](Self::replay) — replayed
    /// records are already on disk and must not be appended again.
    pub fn attach_store(&mut self, store: Arc<Mutex<CatalogStore>>) {
        self.store = Some(store);
    }

    /// The attached store, if any (the service layer reaches through this
    /// for `STATS` counters and shutdown syncs).
    pub fn store(&self) -> Option<&Arc<Mutex<CatalogStore>>> {
        self.store.as_ref()
    }

    /// Append `record` to the attached store (no-op without one). Called
    /// before the corresponding in-memory mutation, so a crash can lose an
    /// unacknowledged operation but never an acknowledged one.
    fn append_record(&self, record: &LogRecord) -> Result<(), CatalogError> {
        if let Some(store) = &self.store {
            store
                .lock()
                .expect("catalog store lock")
                .append(record)
                .map_err(|e| CatalogError::Persist { detail: e.to_string() })?;
        }
        Ok(())
    }

    /// The catalog's schema epoch (see the field docs): a counter bumped on
    /// every adopted schema change. [`ProbeCache::sync_epoch`] pairs with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the pipeline configuration used for views registered *after*
    /// this call.
    pub fn with_config(mut self, config: UFilterConfig) -> ViewCatalog {
        self.config = config;
        self
    }

    /// The schema every registered view is compiled against.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The pipeline configuration used for new registrations.
    pub fn config(&self) -> UFilterConfig {
        self.config
    }

    /// Register `view_text` under `name`, compiling it unless canonically
    /// identical text was compiled before (then the cached artifact is
    /// shared). Duplicate names are rejected.
    pub fn add(&mut self, name: &str, view_text: &str) -> Result<ViewInfo, CatalogError> {
        if self.views.contains_key(name) {
            return Err(CatalogError::DuplicateView { name: name.to_string() });
        }
        let key = (canonicalize(view_text), self.config);
        let canonical = key.0.clone();
        let (filter, cached) = match self.compiled.get(&key) {
            Some(f) => {
                self.compile_hits += 1;
                (Arc::clone(f), true)
            }
            None => {
                let f = UFilter::compile(view_text, &self.schema)
                    .map(|f| f.with_config(self.config))
                    .map_err(|error| CatalogError::Compile { name: name.to_string(), error })?;
                let f = Arc::new(f);
                self.compiled.insert(key, Arc::clone(&f));
                (f, false)
            }
        };
        let sig = ViewSignature::of(&filter.asg);
        self.append_record(&LogRecord::Add {
            name: name.to_string(),
            view_text: canonical,
            deps: filter.asg.relations.clone(),
            cached,
            artifact: persist::encode_artifact(&filter, &sig),
        })?;
        let info =
            ViewInfo { name: name.to_string(), relations: filter.asg.relations.clone(), cached };
        self.index.insert_signature(name, sig);
        self.views.insert(name.to_string(), Registered::eager(filter, cached));
        Ok(info)
    }

    /// The compiled filter registered under `name`. A view recovered by
    /// [`replay`](Self::replay) hydrates from its persisted artifact on
    /// the first call.
    pub fn get(&self, name: &str) -> Option<&UFilter> {
        self.views.get(name).map(|r| r.filter().as_ref())
    }

    /// All registered views, in **ascending name order** (a documented
    /// guarantee, like [`dependents_of`](Self::dependents_of) and
    /// [`route_update`](Self::route_update): every name list the catalog
    /// returns is deterministic and name-sorted).
    pub fn list(&self) -> Vec<ViewInfo> {
        self.views
            .iter()
            .map(|(name, r)| ViewInfo {
                name: name.clone(),
                relations: r.relations.clone(),
                cached: r.cached,
            })
            .collect()
    }

    /// Unregister `name`. The compiled artifact stays in the compile-once
    /// cache, so re-adding identical text later is free.
    pub fn drop_view(&mut self, name: &str) -> Result<(), CatalogError> {
        if !self.views.contains_key(name) {
            return Err(CatalogError::UnknownView { name: name.to_string() });
        }
        self.append_record(&LogRecord::Drop { name: name.to_string() })?;
        self.views.remove(name);
        self.index.remove(name);
        Ok(())
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// How many registrations were served from the compile-once cache.
    pub fn compile_cache_hits(&self) -> usize {
        self.compile_hits
    }

    /// Names of registered views that read `relation`
    /// (case-insensitively), in **ascending name order**. Answered from
    /// the relevance index's inverted relation postings — no scan over the
    /// registered views.
    pub fn dependents_of(&self, relation: &str) -> Vec<String> {
        self.index.views_reading(relation)
    }

    /// Route a parsed update through the relevance index: the candidate
    /// views in **ascending name order**. The candidates are a sound
    /// superset of the truly relevant views (see [`ufilter_route`]): every
    /// pruned view is guaranteed to classify the update as statically
    /// irrelevant (`Invalid` with an unknown-target / hierarchy /
    /// predicate-outside-view reason).
    pub fn route_update(&self, u: &UpdateStmt) -> Route {
        self.index.route(u)
    }

    /// Which routing level pruned how many views for `u` — computed on
    /// demand (routing does not build the levels), for displays such as
    /// the CLI `check-all` trailer.
    pub fn prune_levels(&self, u: &UpdateStmt) -> PruneLevels {
        self.index.prune_levels(&Footprint::of(u))
    }

    /// The routing step of one [`Target::Routed`] item, shared by
    /// [`check`](Self::check) and the service pool: the candidates of
    /// [`route_update`](Self::route_update) (timed as the route stage and
    /// recorded in the candidate histogram), or every view as a fallback
    /// when the update text did not parse (`update` is `None`) — each view
    /// then reports the same malformed outcome a direct check would.
    /// The decision is folded into `fanout`.
    pub fn route_candidates(
        &self,
        update: Option<&UpdateStmt>,
        fanout: &mut FanoutStats,
    ) -> Vec<String> {
        let route = match update {
            Some(u) => {
                let span = obs::clock();
                let route = self.index.route(u);
                obs::stage_elapsed(Stage::Route, span);
                obs::record_route_candidates(route.candidates.len());
                route
            }
            None => Route {
                candidates: self.views.keys().cloned().collect(),
                views: self.views.len(),
                fallback: true,
            },
        };
        fanout.views = self.views.len();
        fanout.absorb(&route);
        route.candidates
    }

    /// Resident-size and churn gauges of the routing index (the service
    /// `STATS` verb reports these).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// How many registered views hold a *hydrated* compiled filter (their
    /// ASG has been decoded or compiled). Replayed views hydrate lazily on
    /// first check, so right after a warm restart this is 0 even though
    /// the routing index is fully populated — the invariant the
    /// persist+route integration test pins.
    pub fn hydrated_count(&self) -> usize {
        self.views.values().filter(|r| r.filter.get().is_some()).count()
    }

    /// The catalog's RESTRICT rule: reject schema-affecting DDL (see
    /// [`is_schema_ddl`]) targeting a relation that registered views depend
    /// on. Non-DDL statements pass through.
    pub fn guard_ddl(&self, stmt: &Stmt) -> Result<(), CatalogError> {
        let relation = match stmt {
            Stmt::DropTable(name) => name.as_str(),
            Stmt::CreateTable(ts) if self.schema.table(&ts.name).is_some() => ts.name.as_str(),
            _ => return Ok(()),
        };
        let views = self.dependents_of(relation);
        if views.is_empty() {
            Ok(())
        } else {
            Err(CatalogError::DependentViews { relation: relation.to_string(), views })
        }
    }

    /// Parse `sql`, then [`execute_guarded_stmt`](Self::execute_guarded_stmt).
    /// With a store attached, schema-affecting DDL that executed
    /// successfully is appended to the log (by its SQL text, after
    /// execution): the base database itself is in-memory only, so on
    /// restart the logged statements are **re-executed** in order to
    /// rebuild the exact schema timeline the surviving views compiled
    /// against. Non-DDL statements touch data, not the catalog, and are
    /// not logged.
    pub fn execute_guarded(&mut self, db: &mut Db, sql: &str) -> Result<ExecOutcome, CatalogError> {
        let stmt =
            Parser::parse_stmt(sql).map_err(|e| CatalogError::Sql { detail: e.to_string() })?;
        let ddl = is_schema_ddl(&stmt);
        let out = self.execute_guarded_stmt(db, stmt)?;
        if ddl {
            self.append_record(&LogRecord::Ddl { sql: sql.to_string() })?;
        }
        Ok(out)
    }

    /// Apply [`guard_ddl`](ViewCatalog::guard_ddl) to an already-parsed
    /// statement and execute it against `db`. After schema-changing DDL
    /// goes through, the catalog adopts `db`'s new schema via
    /// [`set_schema`](ViewCatalog::set_schema).
    pub fn execute_guarded_stmt(
        &mut self,
        db: &mut Db,
        stmt: Stmt,
    ) -> Result<ExecOutcome, CatalogError> {
        self.guard_ddl(&stmt)?;
        let ddl = is_schema_ddl(&stmt);
        let out = db.run(stmt).map_err(|e| CatalogError::Sql { detail: e.to_string() })?;
        if ddl {
            self.set_schema(db.schema().clone());
        }
        Ok(out)
    }

    /// Adopt `schema` as the compile target for future registrations and
    /// clear the compile-once cache — its artifacts were compiled against
    /// the old schema, so re-adding a view must recompile (and may now
    /// rightly fail) rather than resurrect a stale ASG.
    pub fn set_schema(&mut self, schema: DatabaseSchema) {
        self.schema = schema;
        self.compiled.clear();
        // Probe results cached under the old schema may be stale (the DDL
        // that triggered this dropped or re-created tables): advance the
        // epoch so every caller-held ProbeCache invalidates on next use.
        self.epoch += 1;
    }

    // ---- durable-store replay (ufilter_core::persist) ------------------

    /// Re-register a view from a durable `Add` record, preferring its
    /// serialized compile artifact over recompiling. Resolution order:
    /// **deferred hydration** (the artifact prelude's routing signature
    /// feeds the relevance index immediately; the ASG + marking decode
    /// waits for the view's first check — accepted only when the prelude
    /// carries this catalog's exact pipeline config) → compile-once cache
    /// hit on the canonical text → full recompile of `view_text`.
    /// `deps` is the record's relation list, restored verbatim along with
    /// the `cached` flag so `CATALOG LIST` output is byte-identical after
    /// a restart. Returns whether compiling was skipped.
    ///
    /// `schema` is the snapshot a lazily-hydrated view compiles against:
    /// [`replay`](Self::replay) clones the schema once per DDL epoch
    /// instead of once per view. This is a replay building block: it never
    /// appends to an attached store.
    fn add_rehydrated_at(
        &mut self,
        name: &str,
        view_text: &str,
        deps: &[String],
        cached: bool,
        artifact: &[u8],
        schema: &Arc<DatabaseSchema>,
    ) -> Result<bool, CatalogError> {
        if self.views.contains_key(name) {
            return Err(CatalogError::DuplicateView { name: name.to_string() });
        }
        if let Ok((config, sig)) = persist::decode_artifact_header(artifact) {
            if config == self.config {
                // The prelude carries everything registration needs (the
                // routing signature and the config it was compiled under);
                // the ASG + marking decode is deferred to the view's first
                // check. Structural damage deeper in the artifact surfaces
                // there as a silent recompile, never an error. This path
                // does not even canonicalize the view text — replay cost per
                // warm view is the header decode plus two index inserts.
                self.index.insert_signature(name, sig);
                let seed = HydrationSeed {
                    view_text: view_text.to_string(),
                    artifact: artifact.to_vec(),
                    schema: Arc::clone(schema),
                    config,
                };
                self.views.insert(name.to_string(), Registered::lazy(seed, deps.to_vec(), cached));
                return Ok(true);
            }
        }
        // Blank, damaged, or foreign-version/config artifact: fall back to
        // the compile-once cache on the canonical text, then to an eager
        // recompile.
        let key = (canonicalize(view_text), self.config);
        if let Some(f) = self.compiled.get(&key) {
            // Identical text already compiled this session: share it.
            self.compile_hits += 1;
            let f = Arc::clone(f);
            self.index.insert(name, &f.asg);
            self.views.insert(name.to_string(), Registered::eager(f, cached));
            return Ok(true);
        }
        let f = UFilter::compile(view_text, &self.schema)
            .map(|f| f.with_config(self.config))
            .map_err(|error| CatalogError::Compile { name: name.to_string(), error })?;
        let f = Arc::new(f);
        self.compiled.insert(key, Arc::clone(&f));
        self.index.insert(name, &f.asg);
        self.views.insert(name.to_string(), Registered::eager(f, cached));
        Ok(false)
    }

    /// Rebuild the catalog from recovered records, in order: `Add`s
    /// rehydrate (preferring the persisted compile artifact, deferring its
    /// ASG decode to the view's first check), `Drop`s unregister, `Ddl`s
    /// re-execute against `db` through the normal guarded path — so the
    /// relevance index, dependency postings and schema epoch come out
    /// exactly as if the original session had run.
    ///
    /// Must be called **before** [`attach_store`](Self::attach_store):
    /// replayed records are already on disk, and an attached store would
    /// append every one of them a second time.
    pub fn replay(
        &mut self,
        db: &mut Db,
        records: &[LogRecord],
    ) -> Result<ReplayStats, CatalogError> {
        if self.store.is_some() {
            return Err(CatalogError::Persist {
                detail: "replay must run before attach_store (records would be re-appended)".into(),
            });
        }
        let mut stats = ReplayStats::default();
        // One schema snapshot per DDL epoch: every lazily-hydrated view
        // captures the schema as of its position in the record order (the
        // schema it was originally compiled against), without a per-view
        // clone.
        let mut schema_epoch = Arc::new(self.schema.clone());
        for record in records {
            stats.records += 1;
            match record {
                LogRecord::Add { name, view_text, deps, cached, artifact } => {
                    stats.adds += 1;
                    if self.add_rehydrated_at(
                        name,
                        view_text,
                        deps,
                        *cached,
                        artifact,
                        &schema_epoch,
                    )? {
                        stats.rehydrated += 1;
                    } else {
                        stats.recompiled += 1;
                    }
                }
                LogRecord::Drop { name } => {
                    stats.drops += 1;
                    self.drop_view(name)?;
                }
                LogRecord::Ddl { sql } => {
                    stats.ddl += 1;
                    self.execute_guarded(db, sql)?;
                    schema_epoch = Arc::new(self.schema.clone());
                }
            }
        }
        Ok(stats)
    }

    /// The check engine: check every `(target, update text)` item. Each
    /// distinct text is parsed once, however often it recurs; a
    /// [`Routed`](Target::Routed) item expands to its candidate views
    /// through [`route_candidates`](Self::route_candidates); then every
    /// (item, view) pair runs through the grouped batch engine over
    /// `cache`. Items naming an unregistered view or failing to parse get
    /// a per-item invalid report; they never abort the batch. Reports come
    /// back sorted by item index, then view name.
    ///
    /// Checking leaves `db` as it found it: probes read `TAB_<tag>` as
    /// the cached context rows bound to the query, and the hybrid and
    /// internal strategies roll back what they execute. `cache` may
    /// therefore outlive the call: each `ufilter-service` check slot keeps
    /// one, beside its copy-on-write database clone, for the server's
    /// lifetime, so probe results survive from one request to the next,
    /// whichever connection sends it. That is sound only while the probed
    /// base tables do not change between calls (the service is check-only,
    /// so they do not), and the engine invalidates the cache whenever the
    /// catalog's schema epoch moved. Reported [`BatchStats`] hit/miss
    /// counters are per-call deltas.
    pub fn check(
        &self,
        items: &[(Target<'_>, &str)],
        db: &mut Db,
        cache: &mut ProbeCache,
    ) -> BatchReport {
        let mut fanout = FanoutStats::default();
        // Each item's parse-result slot, and its candidates when routed.
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut parsed: Vec<Result<UpdateStmt, String>> = Vec::new();
        let mut expanded: Vec<(usize, Vec<String>)> = Vec::with_capacity(items.len());
        for &(target, text) in items {
            let slot = *slot_of.entry(text).or_insert_with(|| {
                parsed.push(parse_update_timed(text));
                parsed.len() - 1
            });
            let candidates = match target {
                Target::View(_) => Vec::new(),
                Target::Routed => self.route_candidates(parsed[slot].as_ref().ok(), &mut fanout),
            };
            expanded.push((slot, candidates));
        }
        let mut stream = Vec::with_capacity(items.len());
        for (index, (&(target, _), (slot, candidates))) in items.iter().zip(&expanded).enumerate() {
            let update = &parsed[*slot];
            match target {
                Target::View(view) => stream.push((index, view, update)),
                Target::Routed => {
                    stream.extend(candidates.iter().map(|view| (index, view.as_str(), update)))
                }
            }
        }
        let (checked, mut stats) = self.run_batch(&stream, db, cache);
        stats.parse_hits = items.len() - parsed.len();
        BatchReport { items: checked, stats, fanout }
    }

    /// [`check`](Self::check) of `(view, update text)` items with a fresh
    /// probe cache (kept for the `ledger/` benchmark, which calls it).
    pub fn check_batch_text(&self, items: &[(String, String)], db: &mut Db) -> BatchReport {
        let named: Vec<_> = items.iter().map(|(v, t)| (Target::View(v), t.as_str())).collect();
        self.check(&named, db, &mut ProbeCache::new())
    }

    /// [`check`](Self::check) of one routed update with a fresh probe
    /// cache (kept for the `ledger/` benchmark, which calls it).
    pub fn check_all(&self, update_text: &str, db: &mut Db) -> BatchReport {
        self.check(&[(Target::Routed, update_text)], db, &mut ProbeCache::new())
    }

    /// The grouped batch engine: resolve every (item, view) pair once,
    /// group by (view, resolved target node), then run the groups
    /// back-to-back over one probe cache so same-target probes share
    /// scans. Reports come back sorted by item index, then view name.
    fn run_batch(
        &self,
        stream: &[(usize, &str, &Result<UpdateStmt, String>)],
        db: &mut Db,
        cache: &mut ProbeCache,
    ) -> (Vec<BatchItemReport>, BatchStats) {
        // A caller-held cache filled before a schema change must not answer
        // probes issued after it.
        cache.sync_epoch(self.epoch);
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let mut stats = BatchStats { items: stream.len(), ..BatchStats::default() };
        let mut items: Vec<BatchItemReport> = Vec::with_capacity(stream.len());
        // (view, target node) → resolved work items awaiting the group pass.
        type Group<'a> = Vec<(usize, &'a str, Vec<crate::target::ResolvedAction>)>;
        let mut groups: BTreeMap<(&str, usize), Group> = BTreeMap::new();

        for &(index, view, parsed) in stream {
            let u = match parsed {
                Ok(u) => u,
                Err(m) => {
                    items.push(BatchItemReport {
                        index,
                        view: view.to_string(),
                        reports: vec![malformed(m.clone())],
                    });
                    continue;
                }
            };
            let Some(reg) = self.views.get(view) else {
                items.push(BatchItemReport {
                    index,
                    view: view.to_string(),
                    reports: vec![malformed(format!("no view named '{view}' in the catalog"))],
                });
                continue;
            };
            match resolve(&reg.filter().asg, u) {
                Ok(actions) => {
                    let target = actions.first().map(|a| a.node.0).unwrap_or(0);
                    groups.entry((view, target)).or_default().push((index, view, actions));
                }
                Err(reason) => {
                    // Mirror UFilter::run's resolution-failure report.
                    items.push(BatchItemReport {
                        index,
                        view: view.to_string(),
                        reports: vec![CheckReport {
                            trace: vec![(
                                crate::outcome::CheckStep::Validation,
                                reason.to_string(),
                            )],
                            outcome: crate::outcome::CheckOutcome::Invalid(reason),
                        }],
                    });
                }
            }
        }

        stats.target_groups = groups.len();
        // Hybrid and internal check-only runs execute and undo; inside a
        // caller-held transaction that undo is impossible in place, so they
        // fall back to a copy-on-write clone per action. Take one clone for
        // the whole batch instead: check against a committed copy of the
        // caller's current (uncommitted) state and discard it afterwards.
        // It copies only the tables the checks write, once each.
        let mut scratch;
        let db: &mut Db =
            if self.config.strategy != crate::datacheck::Strategy::Outside && db.in_transaction() {
                scratch = db.clone();
                scratch.commit().expect("clone carries the active transaction");
                &mut scratch
            } else {
                db
            };
        for ((view, _target), group) in groups {
            let filter = self.views[view].filter();
            for (index, view, actions) in group {
                let reports = filter.run_resolved(&actions, Some(db), false, cache);
                items.push(BatchItemReport { index, view: view.to_string(), reports });
            }
        }
        stats.probe_hits = cache.hits() - hits_before;
        stats.probe_misses = cache.misses() - misses_before;
        items.sort_by(|a, b| (a.index, &a.view).cmp(&(b.index, &b.view)));
        (items, stats)
    }
}

/// Whether `stmt` is schema-affecting DDL the catalog guards (the single
/// source of truth for that classification — the CLI consults it too).
pub fn is_schema_ddl(stmt: &Stmt) -> bool {
    matches!(stmt, Stmt::CreateTable(_) | Stmt::DropTable(_))
}

/// Canonical form of a view text: `(: … :)` comments stripped (they lex as
/// whitespace — nesting and string literals respected), then whitespace
/// runs outside string literals collapsed to one space, trimmed. Keys the
/// compile-once cache, so neither formatting nor comment differences defeat
/// it — while quoted literals (which are data, not formatting) stay
/// byte-exact.
fn canonicalize(text: &str) -> String {
    let text = ufilter_xquery::strip_comments(text);
    let text = text.as_str();
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    let mut in_quote: Option<char> = None;
    for c in text.trim().chars() {
        if let Some(q) = in_quote {
            out.push(c);
            if c == q {
                in_quote = None;
            }
            continue;
        }
        match c {
            '"' | '\'' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                in_quote = Some(c);
                out.push(c);
            }
            c if c.is_whitespace() => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    out
}
