//! The routing-agreement oracle stage: shared posting-list index vs linear
//! walk.
//!
//! For every generated plan, the compiled view ASGs feed both routing
//! index implementations — the production [`TrieIndex`] and the
//! per-view-signature [`RelevanceIndex`] oracle — and every parseable
//! update must route to the **same** [`Route`] (identical candidate
//! lists, view counts and fallback flags) and the same on-demand
//! per-level pruning split.
//! The stage is signature-only (no databases, no check pipelines), so it
//! sweeps far more cases per second than the four-surface oracle; a
//! mismatch shrinks through [`crate::shrink::shrink_with`] to a minimal
//! replayable corpus case, exactly like the execute-recompute oracle's
//! failures.
//!
//! [`TrieIndex`]: ufilter_route::TrieIndex
//! [`RelevanceIndex`]: ufilter_route::RelevanceIndex
//! [`Route`]: ufilter_route::Route

use ufilter_asg::build_view_asg;
use ufilter_rdb::Db;
use ufilter_route::{Footprint, RelevanceIndex, TrieIndex};
use ufilter_xquery::{parse_update, parse_view_query};

use crate::oracle::{Divergence, Plan, RawPlan};
use crate::{corpus, shrink, Failure};

/// Fault-injection hook: corrupts a candidate list before comparison so
/// harness self-tests can prove the stage notices, shrinks, and replays.
pub type CandidateMutator = fn(&[String]) -> Vec<String>;

/// Tallies for one routing-agreement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteStats {
    /// (view-set, update) routing probes compared.
    pub routed: usize,
    /// Updates that fell back to all-views (unclassifiable footprints).
    pub fallbacks: usize,
    /// Views inserted across all plans.
    pub views: usize,
}

impl RouteStats {
    pub fn merge(&mut self, o: &RouteStats) {
        self.routed += o.routed;
        self.fallbacks += o.fallbacks;
        self.views += o.views;
    }
}

/// Run the routing stage on one plan. `mutate` is the fault-injection
/// hook for testing the harness itself: it may corrupt the trie's
/// candidate list before comparison, and the stage must then report a
/// divergence that shrinks and replays.
pub fn run_route_raw(
    plan: &RawPlan,
    mutate: Option<CandidateMutator>,
) -> Result<RouteStats, Divergence> {
    let gen_err = |detail: String| Divergence {
        seed: plan.seed,
        kind: "generator".into(),
        view: String::new(),
        update: String::new(),
        detail,
    };

    let mut db = Db::new();
    db.execute_script(&plan.schema_sql).map_err(|e| gen_err(format!("schema script: {e}")))?;
    let schema = db.schema().clone();

    let mut trie = TrieIndex::new();
    let mut linear = RelevanceIndex::new();
    let mut stats = RouteStats::default();
    for (name, text) in &plan.views {
        let q = parse_view_query(text).map_err(|e| gen_err(format!("view {name}: {e}")))?;
        let asg =
            build_view_asg(&q, &schema).map_err(|e| gen_err(format!("view {name}: {e:?}")))?;
        trie.insert(name, &asg);
        linear.insert(name, &asg);
        stats.views += 1;
    }

    for text in &plan.updates {
        // Unparseable updates never reach a router (every surface rejects
        // them upstream); the stage only compares classifiable inputs.
        let Ok(u) = parse_update(text) else { continue };
        let mut t = trie.route(&u);
        let l = linear.route(&u);
        if let Some(f) = mutate {
            t.candidates = f(&t.candidates);
        }
        let fp = Footprint::of(&u);
        let (tl, ll) = (trie.prune_levels(&fp), linear.prune_levels(&fp));
        if t != l || tl != ll {
            return Err(Divergence {
                seed: plan.seed,
                kind: "route-mismatch".into(),
                view: plan.views.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(","),
                update: text.clone(),
                detail: format!("trie:   {t:?} {tl:?}\nlinear: {l:?} {ll:?}"),
            });
        }
        stats.routed += 1;
        if t.fallback {
            stats.fallbacks += 1;
        }
    }
    Ok(stats)
}

/// Run seeded plans through the routing stage until at least `min_cases`
/// updates have been routed through both indexes. On the first mismatch,
/// shrink it and return the minimized, replayable counterexample.
pub fn run_route_many(base_seed: u64, min_cases: usize) -> Result<RouteStats, Box<Failure>> {
    run_route_many_mutated(base_seed, min_cases, None)
}

/// [`run_route_many`] with the fault-injection hook exposed (harness
/// self-tests only).
pub fn run_route_many_mutated(
    base_seed: u64,
    min_cases: usize,
    mutate: Option<CandidateMutator>,
) -> Result<RouteStats, Box<Failure>> {
    let mut stats = RouteStats::default();
    let mut seed = base_seed;
    while stats.routed < min_cases {
        let plan = Plan::generate(seed);
        match run_route_raw(&plan.raw(), mutate) {
            Ok(s) => stats.merge(&s),
            Err(div) => {
                let (small, small_div) =
                    shrink::shrink_with(plan, div, 200, |raw| match run_route_raw(raw, mutate) {
                        Ok(_) => Ok(()),
                        Err(d) => Err(d),
                    });
                let minimized = small.raw();
                let rendered = corpus::render(
                    &minimized,
                    &format!("kind: {}\ndetail: {}", small_div.kind, small_div.detail),
                );
                return Err(Box::new(Failure {
                    divergence: small_div,
                    minimized,
                    corpus: rendered,
                }));
            }
        }
        seed += 1;
    }
    Ok(stats)
}
