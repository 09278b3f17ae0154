//! The U-Filter pipeline (Fig. 5): compile a view once (ASG construction +
//! STAR marking), then push every incoming update through the three checks,
//! handing survivors to the translation engine.

use ufilter_asg::{build_view_asg, AsgNodeKind, BaseAsg, ReadSets, ViewAsg};
use ufilter_rdb::{DatabaseSchema, Db, Row, Select};
use ufilter_xquery::{features, parse_update, parse_view_query, UpdateStmt, ViewQuery};

use crate::datacheck::{self, DataCheckReport, Strategy};
use crate::independence;
use crate::obs::{self, Stage};
use crate::outcome::{CheckOutcome, CheckReport, CheckStep};
use crate::probe::{build_probe, path_info, SelectSpec};
use crate::star::{self, StarMarking, StarMode, StarVerdict};
use crate::target::{resolve, ResolvedAction};
use crate::translate::build_plan;
use crate::validate::validate;

/// View compilation failure.
///
/// Each variant preserves the underlying error value (not just its message)
/// so callers that aggregate many compilations — the [`catalog`] batch
/// reporting in particular — can distinguish failure causes structurally.
///
/// [`catalog`]: crate::catalog
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The query text failed to parse; carries the parser's error with its
    /// byte offset into the view text.
    Parse(ufilter_xquery::ParseError),
    /// The query uses constructs outside the ASG subset (Fig. 12 exclusions).
    Unsupported(Vec<ufilter_xquery::UnsupportedFeature>),
    /// The ASG builder rejected the query/schema combination.
    Asg(ufilter_asg::AsgError),
}

impl CompileError {
    /// Stable short label for the failure cause ("parse" / "unsupported" /
    /// "asg"), for per-cause aggregation in batch reports.
    pub fn cause(&self) -> &'static str {
        match self {
            CompileError::Parse(_) => "parse",
            CompileError::Unsupported(_) => "unsupported",
            CompileError::Asg(_) => "asg",
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Unsupported(fs) => {
                let names: Vec<String> = fs.iter().map(|x| x.to_string()).collect();
                write!(f, "view query outside the ASG subset: {}", names.join(", "))
            }
            CompileError::Asg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Parse(e) => Some(e),
            CompileError::Asg(e) => Some(e),
            CompileError::Unsupported(_) => None,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UFilterConfig {
    /// Observation-2 handling for STAR (strict vs. refined).
    pub mode: StarMode,
    /// Update-point data-check strategy (§6.2).
    pub strategy: Strategy,
}

/// Cache of update-context probe results, shared across the checks of a
/// batch so identically-targeted updates pay for one table scan instead of
/// many.
///
/// Keyed by the probe's SQL text. Reusing a cache is sound only while the
/// probed tables do not change: [`UFilter::run`] uses a fresh cache per
/// statement (every action of a multi-action update is planned against the
/// pre-update state, so intra-statement sharing is always safe), and
/// [`crate::catalog::ViewCatalog::check`] shares one cache across a whole
/// check-only batch.
#[derive(Debug, Default)]
pub struct ProbeCache {
    entries: std::collections::HashMap<String, ufilter_rdb::ResultSet>,
    /// Which probe's result each `TAB_…` table currently holds, so a cache
    /// hit only skips re-materialization while the table is still fresh.
    materialized: std::collections::HashMap<String, String>,
    /// The catalog schema epoch the cached results were produced under (see
    /// [`crate::catalog::ViewCatalog::epoch`]). Guarded DDL bumps the
    /// catalog epoch; the batch engine calls [`sync_epoch`](Self::sync_epoch)
    /// so results from before a schema change can never answer a probe
    /// issued after it.
    epoch: u64,
    hits: usize,
    misses: usize,
}

impl ProbeCache {
    /// An empty cache.
    pub fn new() -> ProbeCache {
        ProbeCache::default()
    }

    /// Number of probes answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of probes that had to hit the engine.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Drop every cached probe result and `TAB_…` freshness record (the
    /// hit/miss counters survive — they are lifetime telemetry, not
    /// content). Call after anything that could change probe answers: a
    /// schema change, direct base-table writes between check-only batches.
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.materialized.clear();
    }

    /// Adopt `epoch`, invalidating all content if it differs from the epoch
    /// the cache was filled under. The catalog batch engine calls this on
    /// every batch, making a caller-held long-lived cache safe across
    /// guarded DDL.
    pub fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.invalidate();
            self.epoch = epoch;
        }
    }

    /// Look up `sql`, or run `fetch` and remember its result.
    /// `Ok((result, was_hit))`.
    fn get_or_fetch(
        &mut self,
        sql: &str,
        fetch: impl FnOnce() -> Result<ufilter_rdb::ResultSet, ufilter_rdb::RdbError>,
    ) -> Result<(ufilter_rdb::ResultSet, bool), ufilter_rdb::RdbError> {
        if let Some(rs) = self.entries.get(sql) {
            self.hits += 1;
            return Ok((rs.clone(), true));
        }
        let span = obs::clock();
        let rs = fetch()?;
        obs::stage_elapsed(Stage::ProbeSql, span);
        self.misses += 1;
        self.entries.insert(sql.to_string(), rs.clone());
        Ok((rs, false))
    }
}

/// Where a filter's [`ViewQuery`] comes from: parsed eagerly at compile
/// time, or deferred to first use (warm restart from a persisted artifact —
/// the check path never needs the parsed query, only materialization and
/// evaluation do).
enum QuerySource {
    /// Parsed at compile time.
    Parsed(ViewQuery),
    /// View text whose parse is deferred until [`UFilter::query`] is first
    /// called. The text parsed successfully when the view was originally
    /// compiled, so the deferred parse cannot fail.
    Deferred { text: String, parsed: std::sync::OnceLock<ViewQuery> },
}

/// A compiled view: ASGs built and STAR-marked, ready to check updates.
pub struct UFilter {
    /// The view query — parsed, or deferred view text (warm restart).
    query: QuerySource,
    /// The relational schema the view is defined over.
    pub schema: DatabaseSchema,
    /// The view ASG `G_V`, with STAR marks written in.
    pub asg: ViewAsg,
    /// The base ASG `G_D`.
    pub base: BaseAsg,
    /// The compile-time STAR marking summary.
    pub marking: StarMarking,
    /// Read-sets of the view's non-injective machinery (aggregate operands,
    /// gate columns, Distinct regions), extracted once for the independence
    /// analysis. Empty for classic views.
    pub read_sets: ReadSets,
    /// Mode/strategy the checks run under.
    pub config: UFilterConfig,
}

impl UFilter {
    /// The parsed view query. For a filter rehydrated from a persisted
    /// artifact this parses the stored view text on first use (the check
    /// path never calls it; materialization and evaluation do).
    pub fn query(&self) -> &ViewQuery {
        match &self.query {
            QuerySource::Parsed(q) => q,
            QuerySource::Deferred { text, parsed } => parsed.get_or_init(|| {
                parse_view_query(text)
                    .expect("rehydrated view text parsed when originally compiled")
            }),
        }
    }

    /// Assemble a filter from persisted compile artifacts, skipping parse,
    /// ASG construction and STAR marking entirely. The caller (the
    /// persistence layer) guarantees the parts came from a successful
    /// [`compile`](Self::compile) of `view_text` against `schema`.
    pub(crate) fn from_artifact(
        view_text: String,
        schema: DatabaseSchema,
        asg: ViewAsg,
        marking: StarMarking,
        read_sets: ReadSets,
        config: UFilterConfig,
    ) -> UFilter {
        let leaves: Vec<ufilter_rdb::ColRef> =
            asg.iter().filter_map(|n| n.leaf.as_ref().map(|l| l.name.clone())).collect();
        let base = BaseAsg::build(&schema, &asg.relations, &leaves);
        UFilter {
            query: QuerySource::Deferred { text: view_text, parsed: std::sync::OnceLock::new() },
            schema,
            asg,
            base,
            marking,
            read_sets,
            config,
        }
    }
    /// Compile a view: parse, expressibility-check, build both ASGs, run
    /// the STAR marking procedure.
    pub fn compile(view_text: &str, schema: &DatabaseSchema) -> Result<UFilter, CompileError> {
        let span = obs::clock();
        if let Err(found) = features::expressible(view_text) {
            return Err(CompileError::Unsupported(found));
        }
        let query = parse_view_query(view_text).map_err(CompileError::Parse)?;
        let out = Self::compile_query(query, schema);
        if out.is_ok() {
            obs::stage_elapsed(Stage::Compile, span);
        }
        out
    }

    /// Compile an already-parsed view query.
    pub fn compile_query(
        query: ViewQuery,
        schema: &DatabaseSchema,
    ) -> Result<UFilter, CompileError> {
        let mut asg = build_view_asg(&query, schema).map_err(CompileError::Asg)?;
        let leaves: Vec<ufilter_rdb::ColRef> =
            asg.iter().filter_map(|n| n.leaf.as_ref().map(|l| l.name.clone())).collect();
        let base = BaseAsg::build(schema, &asg.relations, &leaves);
        let marking = star::mark(&mut asg, &base, schema);
        let read_sets = ReadSets::extract(&asg);
        Ok(UFilter {
            query: QuerySource::Parsed(query),
            schema: schema.clone(),
            asg,
            base,
            marking,
            read_sets,
            config: UFilterConfig::default(),
        })
    }

    /// Replace the pipeline configuration (builder style).
    pub fn with_config(mut self, config: UFilterConfig) -> UFilter {
        self.config = config;
        self
    }

    /// Parse an update against this view.
    pub fn parse(&self, update_text: &str) -> Result<UpdateStmt, String> {
        parse_update_timed(update_text)
    }

    /// Steps 1–2 only (no database access): validation + STAR.
    pub fn check_schema(&self, update_text: &str) -> Vec<CheckReport> {
        match self.parse(update_text) {
            Ok(u) => self.run(&u, None, false),
            Err(m) => vec![malformed(m)],
        }
    }

    /// All three steps; data checks use non-destructive probes (the outside
    /// strategy's probe set). The database is only touched to materialize
    /// probe results (`TAB_…`), as the paper's Step 3 does.
    pub fn check(&self, update_text: &str, db: &mut Db) -> Vec<CheckReport> {
        match self.parse(update_text) {
            Ok(u) => self.run(&u, Some(db), false),
            Err(m) => vec![malformed(m)],
        }
    }

    /// Full pipeline; translatable updates are executed with the configured
    /// strategy.
    pub fn apply(&self, update_text: &str, db: &mut Db) -> Vec<CheckReport> {
        match self.parse(update_text) {
            Ok(u) => self.run(&u, Some(db), true),
            Err(m) => vec![malformed(m)],
        }
    }

    /// Translate and execute **without any translatability checking** —
    /// the "Update" baseline of Fig. 13 (a system that blindly trusts the
    /// update). Returns total rows affected. Uses the hybrid execution path
    /// so engine errors still abort.
    pub fn apply_unchecked(&self, update_text: &str, db: &mut Db) -> Result<usize, String> {
        let u = self.parse(update_text)?;
        let actions = resolve(&self.asg, &u).map_err(|e| e.to_string())?;
        let mut affected = 0;
        for action in &actions {
            // Fresh cache per action: this loop executes between probes, so
            // nothing may be carried over.
            let mut cache = ProbeCache::new();
            let mut trace = Vec::new();
            let (context_probe, context_rows, tab_name) = self
                .context_check(action, db, &mut trace, false, &mut cache)
                .map_err(|o| o.to_string())?;
            let plan = build_plan(
                &self.asg,
                &self.marking,
                &self.schema,
                action,
                context_probe,
                &context_rows,
                tab_name,
            )
            .map_err(|o| o.to_string())?;
            let report = datacheck::run_hybrid(db, &plan, true);
            if let Some((_, reason)) = report.rejected {
                return Err(reason);
            }
            affected += report.rows_affected;
        }
        Ok(affected)
    }

    /// Check an already-parsed update.
    ///
    /// Two-phase: every action is validated, STAR-checked and planned
    /// against the *pre-update* state first; only if all actions survive
    /// are the plans executed (atomically, for multi-action blocks such as
    /// REPLACE = delete + insert).
    pub fn run(&self, u: &UpdateStmt, db: Option<&mut Db>, apply: bool) -> Vec<CheckReport> {
        let actions = match resolve(&self.asg, u) {
            Ok(a) => a,
            Err(reason) => {
                return vec![CheckReport {
                    trace: vec![(CheckStep::Validation, reason.to_string())],
                    outcome: CheckOutcome::Invalid(reason),
                }]
            }
        };
        self.run_resolved(&actions, db, apply, &mut ProbeCache::new())
    }

    /// [`run`](UFilter::run) for already-resolved actions, with a caller
    /// supplied probe cache. This is the batch entry point: the catalog
    /// resolves every update of a stream up front, groups by target, and
    /// shares one cache across the whole (check-only) batch.
    pub fn run_resolved(
        &self,
        actions: &[ResolvedAction],
        db: Option<&mut Db>,
        apply: bool,
        cache: &mut ProbeCache,
    ) -> Vec<CheckReport> {
        let mut db = db;

        // ---- Phase 1: check + plan every action ------------------------
        let mut prepared = Vec::new();
        let mut reports = Vec::new();
        let mut any_rejected = false;
        for action in actions {
            match self.prepare_action(action, db.as_deref_mut(), cache) {
                Ok((trace, conditions, plan)) => {
                    prepared.push((action, trace, conditions, plan));
                }
                Err(report) => {
                    any_rejected = true;
                    reports.push(report);
                }
            }
        }
        if any_rejected || db.is_none() {
            // Schema-only mode, or some action failed: report planned
            // actions as translatable-with-translation but execute nothing.
            for (_, trace, conditions, plan) in prepared {
                let translation = plan.map(|p| p.sql()).unwrap_or_default();
                reports.push(CheckReport {
                    trace,
                    outcome: CheckOutcome::Translatable { conditions, translation },
                });
            }
            return reports;
        }
        let db = db.expect("checked above");

        // ---- Phase 2: run the data checks (and optionally execute) -----
        let own_txn = apply && prepared.len() > 1 && !db.in_transaction();
        if own_txn {
            db.begin().expect("no active transaction");
        }
        let mut failed = false;
        for (action, mut trace, conditions, plan) in prepared {
            let plan = plan.expect("phase 1 planned with a database");
            if failed {
                // An earlier action failed: report and skip.
                trace.push((CheckStep::DataPoint, "skipped: earlier action rejected".into()));
                reports.push(CheckReport {
                    trace,
                    outcome: CheckOutcome::Untranslatable {
                        step: CheckStep::DataPoint,
                        reason: "earlier action of the same update was rejected".into(),
                    },
                });
                continue;
            }
            let report: DataCheckReport = match self.config.strategy {
                Strategy::Outside => datacheck::run_outside(db, &plan, apply),
                Strategy::Hybrid => datacheck::run_hybrid(db, &plan, apply),
                Strategy::Internal => {
                    datacheck::run_internal(db, &self.asg, &self.schema, action, &plan, apply)
                }
            };
            for note in &report.notes {
                trace.push((CheckStep::DataPoint, note.clone()));
            }
            if let Some((step, reason)) = report.rejected {
                trace.push((step, reason.clone()));
                reports.push(CheckReport {
                    trace,
                    outcome: CheckOutcome::Untranslatable { step, reason },
                });
                failed = true;
                continue;
            }
            reports.push(CheckReport {
                trace,
                outcome: CheckOutcome::Translatable { conditions, translation: plan.sql() },
            });
        }
        if own_txn {
            if failed {
                db.rollback().expect("transaction active");
            } else {
                db.commit().expect("transaction active");
            }
        }
        reports
    }

    /// Phase 1 for one action: Steps 1–2, the context check, and plan
    /// construction. With no database, returns `Ok` with `plan = None`
    /// (schema-only classification).
    #[allow(clippy::type_complexity)]
    fn prepare_action(
        &self,
        action: &ResolvedAction,
        db: Option<&mut Db>,
        cache: &mut ProbeCache,
    ) -> Result<
        (
            Vec<(CheckStep, String)>,
            Vec<crate::outcome::Condition>,
            Option<crate::translate::TranslationPlan>,
        ),
        CheckReport,
    > {
        let mut trace: Vec<(CheckStep, String)> = Vec::new();

        // ---- Step 1: update validation --------------------------------
        let span = obs::clock();
        let validated = validate(&self.asg, action);
        obs::stage_elapsed(Stage::Validate, span);
        if let Err(reason) = validated {
            trace.push((CheckStep::Validation, reason.to_string()));
            return Err(CheckReport { trace, outcome: CheckOutcome::Invalid(reason) });
        }
        trace.push((CheckStep::Validation, "valid".into()));

        // ---- Step 1½: conservative aggregate/Distinct classification ----
        // Runs before STAR: non-injective regions (Distinct output,
        // aggregate values, aggregate-gated membership) have no exact
        // translation, whatever their STAR marks say. Views without such
        // regions skip this in O(nodes) with no behavior change.
        let span = obs::clock();
        let classified = star::non_injective_check(&self.asg, &self.schema, action);
        obs::stage_elapsed(Stage::NonInjective, span);
        if let Some(reason) = classified {
            // The blunt footprint check rejected — refine with the static
            // independence analysis. Only a provably-independent verdict
            // changes the outcome (the update falls through to the
            // unchanged STAR/data/translation path); Dependent and Unknown
            // reject exactly as before, with the blocker appended.
            let span = obs::clock();
            let verdict = independence::classify(
                &self.asg,
                &self.schema,
                &self.marking,
                &self.read_sets,
                action,
            );
            independence::record(&verdict);
            obs::stage_elapsed(Stage::Independence, span);
            let reason = match verdict {
                independence::Verdict::Independent => {
                    trace.push((
                        CheckStep::NonInjective,
                        format!("{reason}; independence: update write-set is disjoint from every non-injective read-set"),
                    ));
                    None
                }
                independence::Verdict::Dependent { blocker } => {
                    Some(format!("{reason}; independence: dependent on {blocker}"))
                }
                independence::Verdict::Unknown { blocker } => {
                    Some(format!("{reason}; independence: unknown, blocked by {blocker}"))
                }
            };
            if let Some(reason) = reason {
                trace.push((CheckStep::NonInjective, reason.clone()));
                return Err(CheckReport {
                    trace,
                    outcome: CheckOutcome::Untranslatable { step: CheckStep::NonInjective, reason },
                });
            }
        }

        // ---- Step 2: STAR ----------------------------------------------
        let span = obs::clock();
        let verdict = star::check(&self.asg, &self.marking, &self.schema, action, self.config.mode);
        obs::stage_elapsed(Stage::Star, span);
        let conditions = match verdict {
            StarVerdict::Untranslatable(reason) => {
                trace.push((CheckStep::Star, reason.clone()));
                return Err(CheckReport {
                    trace,
                    outcome: CheckOutcome::Untranslatable { step: CheckStep::Star, reason },
                });
            }
            StarVerdict::Ok(conditions) => {
                let node = self.asg.node(action.node);
                trace.push((
                    CheckStep::Star,
                    match (&node.upoint, &node.ucontext) {
                        (Some(up), Some(uc)) => {
                            format!("target <{}> marked ({up}|{uc})", node.tag)
                        }
                        _ => format!("target <{}>", node.tag),
                    },
                ));
                conditions
            }
        };

        // ---- Step 3 preparation ----------------------------------------
        let Some(db) = db else {
            return Ok((trace, conditions, None));
        };

        // 3a. Update context check (§6.1). Only the outside and internal
        // strategies materialize the probe result (the hybrid strategy
        // "does not materialize the intermediate result", §7.2).
        let materialize_tab = self.config.strategy != Strategy::Hybrid;
        let (context_probe, context_rows, tab_name) =
            match self.context_check(action, db, &mut trace, materialize_tab, cache) {
                Ok(x) => x,
                Err(outcome) => return Err(CheckReport { trace, outcome }),
            };

        // Build the translation plan.
        let span = obs::clock();
        let planned = build_plan(
            &self.asg,
            &self.marking,
            &self.schema,
            action,
            context_probe,
            &context_rows,
            tab_name,
        );
        obs::stage_elapsed(Stage::Translate, span);
        let plan = match planned {
            Ok(p) => p,
            Err(outcome) => {
                if let CheckOutcome::Untranslatable { step, reason } = &outcome {
                    trace.push((*step, reason.clone()));
                }
                return Err(CheckReport { trace, outcome });
            }
        };
        for note in &plan.notes {
            trace.push((CheckStep::DataPoint, note.clone()));
        }
        Ok((trace, conditions, Some(plan)))
    }

    /// The §6.1 update-context check. Returns the probe, its rows (header +
    /// row pairs) and the materialized table name.
    #[allow(clippy::type_complexity)]
    fn context_check(
        &self,
        action: &ResolvedAction,
        db: &mut Db,
        trace: &mut Vec<(CheckStep, String)>,
        materialize: bool,
        cache: &mut ProbeCache,
    ) -> Result<(Option<Select>, Vec<(Vec<ufilter_rdb::ColRef>, Row)>, Option<String>), CheckOutcome>
    {
        let ctx = self.asg.node(action.context_node);
        if ctx.kind == AsgNodeKind::Root {
            trace.push((CheckStep::DataContext, "context is the view root".into()));
            return Ok((None, Vec::new(), None));
        }
        // Prefer the deepest path that covers every update predicate: the
        // user's FOR clause binds variables down to the predicate-bearing
        // level, and only combinations matching *all* predicates invoke the
        // UPDATE — so joining those relations into the probe is faithful
        // and keeps it selective.
        let mut info = path_info(&self.asg, action.context_node);
        let covers = |info: &crate::probe::PathInfo| {
            action
                .predicates
                .iter()
                .all(|(c, _, _)| info.relations.iter().any(|r| r.eq_ignore_ascii_case(&c.table)))
        };
        if !covers(&info) {
            let deeper = path_info(&self.asg, action.node);
            if covers(&deeper) {
                info = deeper;
            }
        }
        let preds = datacheck::relevant_preds(&info, &action.predicates);
        let probe = build_probe(&self.schema, &info, &preds, &SelectSpec::Keys);
        let (rs, cache_hit) =
            cache.get_or_fetch(&probe.to_string(), || db.query(&probe)).map_err(|e| {
                CheckOutcome::Untranslatable { step: CheckStep::DataContext, reason: e.to_string() }
            })?;
        if rs.is_empty() {
            let reason = format!(
                "the <{}> element the update addresses does not exist in the view",
                ctx.tag
            );
            trace.push((CheckStep::DataContext, reason.clone()));
            return Err(CheckOutcome::Untranslatable { step: CheckStep::DataContext, reason });
        }
        trace.push((
            CheckStep::DataContext,
            format!("context probe matched {} instance(s) of <{}>", rs.len(), ctx.tag),
        ));
        // Materialize for reuse (the paper's TAB_book) when requested. A
        // cache hit alone is not enough to skip the work: a different probe
        // may have overwritten `TAB_<tag>` in between, so only reuse the
        // table while it still holds this probe's result.
        let tab = if materialize {
            let name = format!("TAB_{}", ctx.tag);
            let sql = probe.to_string();
            if !(cache_hit && cache.materialized.get(&name) == Some(&sql)) {
                // Only record freshness on success — a failed materialize
                // must not make later items trust a stale table (the error
                // itself stays non-fatal, as before: the plan's probes
                // will surface it).
                if db.materialize(&name, &probe).is_ok() {
                    cache.materialized.insert(name.clone(), sql);
                } else {
                    cache.materialized.remove(&name);
                }
            }
            Some(name)
        } else {
            None
        };
        let rows: Vec<(Vec<ufilter_rdb::ColRef>, Row)> =
            rs.rows.into_iter().map(|r| (rs.columns.clone(), r)).collect();
        Ok((Some(probe), rows, tab))
    }
}

/// Parse an update, recording the parse-stage span: the one parse step of
/// [`UFilter::check`], the catalog's batch engine and the service pool.
pub fn parse_update_timed(update_text: &str) -> Result<UpdateStmt, String> {
    let span = obs::clock();
    let out = parse_update(update_text).map_err(|e| e.to_string());
    obs::stage_elapsed(Stage::Parse, span);
    out
}

pub(crate) fn malformed(m: String) -> CheckReport {
    let reason = crate::outcome::InvalidReason::Malformed { detail: m };
    CheckReport {
        trace: vec![(CheckStep::Validation, reason.to_string())],
        outcome: CheckOutcome::Invalid(reason),
    }
}
