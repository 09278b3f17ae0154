//! # ufilter-bench — regenerating the paper's evaluation (§7)
//!
//! One runner per table/figure. Absolute numbers differ from the paper's
//! 2005 Oracle testbed (this is an in-memory engine); each runner's *shape*
//! is the reproduction target: who wins, by roughly what factor, and where
//! the differences come from. Recorded runs are the `BENCH_*.json` files at
//! the repository root, each regenerated by one `paper-figures` subcommand.

use std::time::{Duration, Instant};

use ufilter_core::{
    blind_apply, ProbeCache, Strategy, Target, UFilter, UFilterConfig, ViewCatalog,
};
use ufilter_rdb::{DatabaseSchema, Db, DeletePolicy};
use ufilter_tpch::{
    fanout_stream, generate, many_views, stream, stream_views, top_partition_updates, tpch_schema,
    updates, vfail_for, Scale, StreamSpec, V_BUSH, V_SUCCESS,
};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "\n## {}\n", self.title)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        let dashes: Vec<&str> = self.headers.iter().map(|_| "---").collect();
        writeln!(f, "|{}|", dashes.join("|"))?;
        for r in &self.rows {
            writeln!(f, "| {} |", r.join(" | "))?;
        }
        Ok(())
    }
}

impl Table {
    /// Serialize as a JSON object (hand-rolled; the workspace carries no
    /// serde). Used by `paper-figures baseline` to emit BENCH_seed.json.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn arr(items: impl Iterator<Item = String>) -> String {
            format!("[{}]", items.collect::<Vec<_>>().join(","))
        }
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":{}}}",
            esc(&self.title),
            arr(self.headers.iter().map(|h| esc(h))),
            arr(self.rows.iter().map(|r| arr(r.iter().map(|c| esc(c))))),
        )
    }
}

/// The fixed, quick measurement set behind `paper-figures baseline`: small
/// scales so a baseline run stays under a minute, but covering each cost
/// centre (expressiveness, per-level check cost, blind-translation penalty,
/// STAR marking).
pub fn baseline_json(reps: usize) -> String {
    // Marking is µs-scale, so its median needs a floor of reps to be stable;
    // record that rep count separately so the snapshot's provenance is exact.
    let marking_reps = reps.max(10);
    let tables = [fig12(), fig13(1, reps), fig14(1, reps), marking_cost(marking_reps)];
    let body = tables.iter().map(Table::to_json).collect::<Vec<_>>().join(",\n    ");
    format!(
        "{{\n  \"schema_version\": 1,\n  \"note\": \"wall-clock medians; absolute numbers are machine-dependent, compare shapes and ratios across PRs\",\n  \"reps\": {reps},\n  \"marking_reps\": {marking_reps},\n  \"tables\": [\n    {body}\n  ]\n}}\n"
    )
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Median-of-`reps` wall time of `f` run against fresh clones of `db`,
/// each owning its tables, so no write in `f` pays for a table copy.
fn time_on_clone(db: &Db, reps: usize, mut f: impl FnMut(&mut Db)) -> Duration {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut copy = db.deep_clone();
        let t = Instant::now();
        f(&mut copy);
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

const LEVELS: [&str; 5] = ["region", "nation", "customer", "orders", "lineitem"];

/// A key at each level guaranteed to exist for any scale (generators assign
/// keys densely from 0).
fn key_for(level: &str) -> i64 {
    match level {
        "region" => 1,
        "nation" => 7,
        "customer" => 3,
        _ => 5,
    }
}

fn schema() -> DatabaseSchema {
    tpch_schema(DeletePolicy::Cascade)
}

// ---------------------------------------------------------------------------
// Fig. 12 — W3C use-case expressiveness
// ---------------------------------------------------------------------------

pub fn fig12() -> Table {
    let rows = ufilter_usecases::catalog()
        .iter()
        .zip(ufilter_usecases::evaluate())
        .map(|(uc, e)| {
            let reasons: Vec<String> = e.reasons.iter().map(|r| r.to_string()).collect();
            let paper = if uc.paper_included {
                "yes".to_string()
            } else {
                format!("no ({})", uc.paper_reason)
            };
            vec![
                uc.label(),
                if e.included { "yes".into() } else { "no".into() },
                reasons.join(", "),
                paper,
            ]
        })
        .collect();
    Table {
        title: "Figure 12: Evaluation of W3C Use Cases (view-ASG expressiveness, \
                aggregate/Distinct extension)"
            .into(),
        headers: vec![
            "View Query".into(),
            "Included".into(),
            "Reason".into(),
            "Paper (2006)".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 13 — translatable update on Vsuccess: Update vs Update+STARChecking
// ---------------------------------------------------------------------------

pub fn fig13(mb: usize, reps: usize) -> Table {
    let filter = UFilter::compile(V_SUCCESS, &schema()).expect("Vsuccess compiles");
    let db = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
    let mut rows = Vec::new();
    for level in LEVELS {
        let update = updates::delete_at_level(level, key_for(level));
        // "Update": translate + execute, no checking.
        let t_plain = time_on_clone(&db, reps, |db| {
            filter.apply_unchecked(&update, db).expect("translatable update");
        });
        // "Update With STARChecking": full three-step pipeline + execute.
        let t_star = time_on_clone(&db, reps, |db| {
            let reports = filter.apply(&update, db);
            assert!(reports[0].outcome.is_translatable(), "{level}: {}", reports[0].outcome);
        });
        rows.push(vec![level.to_string(), ms(t_plain), ms(t_star)]);
    }
    Table {
        title: format!(
            "Figure 13: translatable delete per nesting level of Vsuccess \
             (DB ≈ {mb} Mb-equivalent, {} rows)",
            Scale::mb(mb).total_rows()
        ),
        headers: vec!["Relation".into(), "Update (ms)".into(), "Update+STARChecking (ms)".into()],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 14 — untranslatable update on Vfail: blind+rollback vs STAR reject
// ---------------------------------------------------------------------------

pub fn fig14(mb: usize, reps: usize) -> Table {
    let db = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
    let mut rows = Vec::new();
    for level in LEVELS {
        let view = vfail_for(level);
        let filter = UFilter::compile(&view, &schema()).expect("Vfail compiles");
        let update = updates::delete_at_level(level, key_for(level));
        // "Update": blind translate + execute + detect side effect + rollback.
        let t_blind = time_on_clone(&db, reps, |db| {
            let out = blind_apply(&filter, &update, db).expect("blind run");
            assert!(out.rolled_back, "{level}: the blind update must roll back");
        });
        // "Update With STARChecking": rejected at Step 2, no data touched.
        let t_star = time_on_clone(&db, reps, |db| {
            let reports = filter.check(&update, db);
            assert!(!reports[0].outcome.is_translatable());
        });
        rows.push(vec![level.to_string(), ms(t_blind), ms(t_star)]);
    }
    Table {
        title: format!(
            "Figure 14: untranslatable delete per republished relation of Vfail \
             (DB ≈ {mb} Mb-equivalent; blind = execute+compare+rollback)"
        ),
        headers: vec![
            "Relation".into(),
            "Update (blind, ms)".into(),
            "Update+STARChecking (ms)".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// §7.2 text — STAR marking cost for Vsuccess and Vfail
// ---------------------------------------------------------------------------

pub fn marking_cost(reps: usize) -> Table {
    let s = schema();
    let mut rows = Vec::new();
    for (name, view) in [("Vsuccess", V_SUCCESS.to_string()), ("Vfail", vfail_for("region"))] {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let f = UFilter::compile(&view, &s).expect("compiles");
            samples.push(t.elapsed());
            std::hint::black_box(&f.marking);
        }
        samples.sort();
        rows.push(vec![name.to_string(), ms(samples[samples.len() / 2])]);
    }
    Table {
        title: "STAR marking cost (compile-time, per view; paper: 0.12 s / 0.15 s)".into(),
        headers: vec!["View".into(), "Marking time (ms)".into()],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 15 — internal vs external strategy, insert lineitem over Vlinear
// ---------------------------------------------------------------------------

pub fn fig15(sweep: &[usize], reps: usize) -> Table {
    let s = schema();
    let internal = UFilter::compile(V_SUCCESS, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Internal, ..Default::default() });
    let external = UFilter::compile(V_SUCCESS, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Hybrid, ..Default::default() });
    let mut rows = Vec::new();
    for &mb in sweep {
        let db = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
        let update = updates::insert_lineitem(3, 99);
        let t_int = time_on_clone(&db, reps, |db| {
            let reports = internal.apply(&update, db);
            assert!(reports[0].outcome.is_translatable(), "{}", reports[0].outcome);
        });
        let t_ext = time_on_clone(&db, reps, |db| {
            let reports = external.apply(&update, db);
            assert!(reports[0].outcome.is_translatable(), "{}", reports[0].outcome);
        });
        rows.push(vec![mb.to_string(), ms(t_int), ms(t_ext)]);
    }
    Table {
        title: "Figure 15: Internal vs External (hybrid) for lineitem insert over Vlinear".into(),
        headers: vec!["DB size (Mb-equiv)".into(), "Internal (ms)".into(), "External (ms)".into()],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 16 — outside vs hybrid over Vbush (successful delete)
// ---------------------------------------------------------------------------

pub fn fig16(sweep: &[usize], reps: usize) -> Table {
    let s = schema();
    let hybrid = UFilter::compile(V_BUSH, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Hybrid, ..Default::default() });
    let outside = UFilter::compile(V_BUSH, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Outside, ..Default::default() });
    let mut rows = Vec::new();
    for &mb in sweep {
        let db = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
        let update = updates::bush_delete_nation_lineitems(3);
        let t_h = time_on_clone(&db, reps, |db| {
            let reports = hybrid.apply(&update, db);
            assert!(reports[0].outcome.is_translatable(), "{}", reports[0].outcome);
        });
        let t_o = time_on_clone(&db, reps, |db| {
            let reports = outside.apply(&update, db);
            assert!(reports[0].outcome.is_translatable(), "{}", reports[0].outcome);
        });
        rows.push(vec![mb.to_string(), ms(t_h), ms(t_o)]);
    }
    Table {
        title: "Figure 16: Outside vs Hybrid for lineitem delete over Vbush".into(),
        headers: vec!["DB size (Mb-equiv)".into(), "hybrid (ms)".into(), "outside (ms)".into()],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 17 — outside vs hybrid over Vlinear, failed cases
// ---------------------------------------------------------------------------

/// The paper's Fail1/Fail2 translate a customer-subtree delete into three
/// per-table statements (lineitem, orders, customer). Fail1 matches no
/// customer at all; Fail2 matches a customer whose orders have no
/// lineitems. The outside strategy's empty probes skip statements early;
/// the hybrid strategy executes them for "0 tuples deleted" warnings.
pub fn fig17(sweep: &[usize], reps: usize) -> Table {
    use ufilter_rdb::{ColRef, Delete, Expr, Select, Stmt, Value};
    let mut rows = Vec::new();
    for &mb in sweep {
        let mut base = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
        // Fail2 setup: one customer with orders but no lineitems.
        let fail2_cust: i64 = 1_000_000;
        base.execute_sql(&format!(
            "INSERT INTO customer VALUES ({fail2_cust}, 'Fail2 Customer', 'addr', 0, \
             '11-111-111', 0.0, 'BUILDING')"
        ))
        .unwrap();
        for o in 0..3 {
            base.execute_sql(&format!(
                "INSERT INTO orders VALUES ({}, {fail2_cust}, 'O', 1.0, 9000, '5-LOW')",
                2_000_000 + o
            ))
            .unwrap();
        }

        let mut row = vec![mb.to_string()];
        for (label, cust) in [("Fail1", 3_000_000i64), ("Fail2", fail2_cust)] {
            // Three-statement explicit translation with per-table probes.
            let mk_probe = |table: &str, joins: &str| -> Select {
                ufilter_rdb::Parser::parse_select(&format!(
                    "SELECT {table}.rowid FROM {joins} WHERE customer.c_custkey = {cust}"
                ))
                .expect("probe parses")
            };
            let li_probe = mk_probe("lineitem", "customer, orders, lineitem");
            let li_probe = with_join(
                li_probe,
                &[
                    ("orders.o_custkey", "customer.c_custkey"),
                    ("lineitem.l_orderkey", "orders.o_orderkey"),
                ],
            );
            let ord_probe = with_join(
                mk_probe("orders", "customer, orders"),
                &[("orders.o_custkey", "customer.c_custkey")],
            );
            let cust_probe = mk_probe("customer", "customer");
            let statements: Vec<(Select, Stmt)> = vec![
                (
                    li_probe.clone(),
                    Stmt::Delete(Delete {
                        table: "lineitem".into(),
                        where_clause: Some(Expr::InSubquery {
                            expr: Box::new(Expr::col("lineitem", "l_orderkey")),
                            query: Box::new(with_projection(
                                li_probe,
                                ColRef::new("orders", "o_orderkey"),
                            )),
                            negated: false,
                        }),
                    }),
                ),
                (
                    ord_probe.clone(),
                    Stmt::Delete(Delete {
                        table: "orders".into(),
                        where_clause: Some(Expr::eq(
                            Expr::col("orders", "o_custkey"),
                            Expr::lit(Value::Int(cust)),
                        )),
                    }),
                ),
                (
                    cust_probe.clone(),
                    Stmt::Delete(Delete {
                        table: "customer".into(),
                        where_clause: Some(Expr::eq(
                            Expr::col("customer", "c_custkey"),
                            Expr::lit(Value::Int(cust)),
                        )),
                    }),
                ),
            ];
            // hybrid: execute all three, collect warnings, commit.
            let t_h = time_on_clone(&base, reps, |db| {
                db.begin().unwrap();
                for (_, stmt) in &statements {
                    let _ = db.run(stmt.clone()).expect("hybrid statement");
                }
                db.commit().unwrap();
            });
            // outside: probe, skip empty, execute the rest.
            let t_o = time_on_clone(&base, reps, |db| {
                for (probe, stmt) in &statements {
                    let rs = db.query(probe).expect("probe");
                    if rs.is_empty() {
                        continue;
                    }
                    let _ = db.run(stmt.clone()).expect("outside statement");
                }
            });
            let _ = label;
            row.push(ms(t_h));
            row.push(ms(t_o));
        }
        rows.push(row);
    }
    Table {
        title: "Figure 17: Outside vs Hybrid over Vlinear in failed cases".into(),
        headers: vec![
            "DB size (Mb-equiv)".into(),
            "hybrid-Fail1 (ms)".into(),
            "outside-Fail1 (ms)".into(),
            "hybrid-Fail2 (ms)".into(),
            "outside-Fail2 (ms)".into(),
        ],
        rows,
    }
}

fn with_join(mut s: ufilter_rdb::Select, pairs: &[(&str, &str)]) -> ufilter_rdb::Select {
    use ufilter_rdb::Expr;
    let mut conj = match s.where_clause.take() {
        Some(w) => vec![w],
        None => Vec::new(),
    };
    for (a, b) in pairs {
        let (at, ac) = a.split_once('.').unwrap();
        let (bt, bc) = b.split_once('.').unwrap();
        conj.push(Expr::eq(Expr::col(at, ac), Expr::col(bt, bc)));
    }
    s.where_clause = Some(Expr::and(conj));
    s
}

fn with_projection(mut s: ufilter_rdb::Select, col: ufilter_rdb::ColRef) -> ufilter_rdb::Select {
    use ufilter_rdb::{Expr, SelectItem};
    s.items = vec![SelectItem::Expr { expr: Expr::Column(col), alias: None }];
    s
}

// ---------------------------------------------------------------------------
// Ablations — STAR mode, data-check planner, materialization
// ---------------------------------------------------------------------------

/// Ablation 1: `StarMode::Strict` vs `Refined` — how many of the book
/// demo's updates change classification, and what each mode costs.
pub fn ablation_star_mode() -> Table {
    use ufilter_core::{bookdemo, StarMode};
    let mut rows = Vec::new();
    for (name, update) in bookdemo::all_updates() {
        let mut labels = Vec::new();
        for mode in [StarMode::Refined, StarMode::Strict] {
            let filter = bookdemo::book_filter()
                .with_config(UFilterConfig { mode, strategy: Strategy::Outside });
            let mut db = bookdemo::book_db();
            let report = filter.check(update, &mut db).remove(0);
            let step = report.rejected_at().map(|s| format!(" @ {s}")).unwrap_or_default();
            labels.push(format!("{}{step}", report.outcome.label()));
        }
        let diff = if labels[0] == labels[1] { "" } else { "← differs" };
        rows.push(vec![name.to_string(), labels[0].clone(), labels[1].clone(), diff.into()]);
    }
    Table {
        title: "Ablation: StarMode::Refined vs StarMode::Strict (Observation 2 handling)".into(),
        headers: vec!["Update".into(), "Refined".into(), "Strict".into(), "".into()],
        rows,
    }
}

/// Ablation 2: planner access paths — the same translated delete with
/// index joins, hash joins, or bare nested loops. Quantifies the index
/// effect §7.2 credits for the hybrid strategy's win.
pub fn ablation_planner(mb: usize, reps: usize) -> Table {
    use ufilter_rdb::PlannerConfig;
    let s = schema();
    let filter = UFilter::compile(V_SUCCESS, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Hybrid, ..Default::default() });
    let base = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
    let update = updates::delete_lineitems_of_order(5);
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("index + hash joins", PlannerConfig { enable_index_join: true, enable_hash_join: true }),
        ("hash joins only", PlannerConfig { enable_index_join: false, enable_hash_join: true }),
        ("nested loops only", PlannerConfig { enable_index_join: false, enable_hash_join: false }),
    ] {
        let mut db = base.clone();
        db.set_planner_config(cfg);
        let t = time_on_clone(&db, reps, |db| {
            let reports = filter.apply(&update, db);
            assert!(reports[0].outcome.is_translatable());
        });
        rows.push(vec![label.to_string(), ms(t)]);
    }
    Table {
        title: format!(
            "Ablation: planner access paths for a translated delete \
             (hybrid, {mb} Mb-equivalent)"
        ),
        headers: vec!["Planner".into(), "apply (ms)".into()],
        rows,
    }
}

/// Ablation 3: probe-result materialization (`TAB_…`) on vs off for the
/// outside strategy — the reuse §6.1 argues for.
pub fn ablation_materialization(mb: usize, reps: usize) -> Table {
    let s = schema();
    let base = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
    let update = updates::delete_lineitems_of_order(5);
    let outside = UFilter::compile(V_SUCCESS, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Outside, ..Default::default() });
    let hybrid = UFilter::compile(V_SUCCESS, &s)
        .expect("compiles")
        .with_config(UFilterConfig { strategy: Strategy::Hybrid, ..Default::default() });
    let t_with = time_on_clone(&base, reps, |db| {
        let reports = outside.apply(&update, db);
        assert!(reports[0].outcome.is_translatable());
    });
    let t_without = time_on_clone(&base, reps, |db| {
        let reports = hybrid.apply(&update, db);
        assert!(reports[0].outcome.is_translatable());
    });
    Table {
        title: format!(
            "Ablation: TAB materialization (outside) vs inline join (hybrid), {mb} Mb-equiv"
        ),
        headers: vec!["Variant".into(), "apply (ms)".into()],
        rows: vec![
            vec!["outside (materialize + probe)".into(), ms(t_with)],
            vec!["hybrid (inline, no TAB)".into(), ms(t_without)],
        ],
    }
}

// ---------------------------------------------------------------------------
// Batch checking — one-at-a-time vs. ViewCatalog::check throughput
// ---------------------------------------------------------------------------

/// A catalog with the three evaluation views registered.
fn stream_catalog() -> ViewCatalog {
    let mut catalog = ViewCatalog::new(schema());
    for (name, text) in stream_views() {
        catalog.add(name, text).expect("evaluation view compiles");
    }
    catalog
}

/// One-at-a-time vs. batched checking of a generated multi-view update
/// stream. `distinct_keys` controls target redundancy: heavy traffic
/// revisits targets, which is exactly what the batch probe cache amortizes.
pub fn batch_throughput(mb: usize, len: usize, distinct_keys: usize, reps: usize) -> Table {
    let catalog = stream_catalog();
    let db = generate(Scale::mb(mb), 42, DeletePolicy::Cascade);
    let s = stream(StreamSpec { len, distinct_keys }, Scale::mb(mb), 42);

    // One-at-a-time: the pre-catalog loop — parse, resolve and probe each
    // update in isolation (views still compiled once; that was already free).
    let t_single = time_on_clone(&db, reps, |db| {
        for (view, text) in &s {
            let reports = catalog.get(view).expect("registered").check(text, db);
            assert!(!reports.is_empty());
        }
    });
    // Batched: shared parse cache, per-target grouping, shared probe cache.
    let named: Vec<_> = s.iter().map(|(v, t)| (Target::View(v), t.as_str())).collect();
    let t_batch = time_on_clone(&db, reps, |db| {
        let batch = catalog.check(&named, db, &mut ProbeCache::new());
        assert_eq!(batch.items.len(), s.len());
    });

    let throughput = |d: Duration| -> String {
        if d.as_secs_f64() > 0.0 {
            format!("{:.0}", len as f64 / d.as_secs_f64())
        } else {
            "inf".into()
        }
    };
    // Re-run once (cheap) to report the amortization counters.
    let mut counters_db = db.clone();
    let stats = catalog.check(&named, &mut counters_db, &mut ProbeCache::new()).stats;
    Table {
        title: format!(
            "Batch checking: {len}-update stream over 3 views, {distinct_keys}-key pool, \
             DB ≈ {mb} Mb-equivalent ({} probe hits / {} misses, {} parse hits, {} groups)",
            stats.probe_hits, stats.probe_misses, stats.parse_hits, stats.target_groups
        ),
        headers: vec!["Mode".into(), "stream (ms)".into(), "updates/s".into()],
        rows: vec![
            vec!["one-at-a-time".into(), ms(t_single), throughput(t_single)],
            vec!["batched".into(), ms(t_batch), throughput(t_batch)],
        ],
    }
}

/// JSON snapshot behind `paper-figures batch` → `BENCH_batch.json`:
/// a repeat-heavy stream (the amortization target) and an all-distinct
/// stream (the no-reuse worst case) at a fixed small scale.
pub fn batch_json(reps: usize) -> String {
    let tables = [batch_throughput(1, 200, 8, reps), batch_throughput(1, 200, 1_000_000, reps)];
    let body = tables.iter().map(Table::to_json).collect::<Vec<_>>().join(",\n    ");
    format!(
        "{{\n  \"schema_version\": 1,\n  \"note\": \"wall-clock medians; batched row should meet or beat one-at-a-time on the repeat-heavy stream\",\n  \"reps\": {reps},\n  \"tables\": [\n    {body}\n  ]\n}}\n"
    )
}

// ---------------------------------------------------------------------------
// Catalog-wide fan-out — trie routing vs the brute-force every-view request
// ---------------------------------------------------------------------------

/// Check-all fan-out over an `n`-view partitioned catalog: routed items
/// (the routing index picks each update's candidates) against the brute-force
/// baseline, the same updates sent as one request naming every view, on
/// the same `len`-update stream. The differential soundness test
/// (`tests/route_soundness.rs`) pins both to identical outcomes on
/// candidates; this table measures the wall-clock gap and the pruning
/// ratio.
pub fn route_fanout(len: usize, reps: usize, sweep: &[usize]) -> Table {
    let scale = Scale::tiny();
    let db = generate(scale, 42, DeletePolicy::Cascade);
    let updates: Vec<String> = fanout_stream(len, scale, 42);
    let routed: Vec<_> = updates.iter().map(|u| (Target::Routed, u.as_str())).collect();
    let mut rows = Vec::new();
    for &n in sweep {
        let mut catalog = ViewCatalog::new(schema());
        for (name, text) in many_views(n, scale) {
            catalog.add(&name, &text).expect("generated view compiles");
        }
        let names: Vec<String> = catalog.list().into_iter().map(|v| v.name).collect();
        let every_view: Vec<_> = updates
            .iter()
            .flat_map(|u| names.iter().map(move |v| (Target::View(v), u.as_str())))
            .collect();
        let t_index = time_on_clone(&db, reps, |db| {
            let report = catalog.check(&routed, db, &mut ProbeCache::new());
            assert_eq!(report.fanout.fanout_requests, len);
        });
        let t_brute = time_on_clone(&db, reps, |db| {
            let report = catalog.check(&every_view, db, &mut ProbeCache::new());
            assert_eq!(report.items.len(), len * n);
        });
        let mut stats_db = db.clone();
        let f = catalog.check(&routed, &mut stats_db, &mut ProbeCache::new()).fanout;
        let total = (f.fanout_requests * n).max(1);
        rows.push(vec![
            n.to_string(),
            ms(t_index),
            ms(t_brute),
            format!("{:.2}x", t_brute.as_secs_f64() / t_index.as_secs_f64().max(1e-9)),
            format!("{:.4}", f.pruned as f64 / total as f64),
            format!("{:.2}", f.candidates as f64 / f.fanout_requests.max(1) as f64),
        ]);
    }
    Table {
        title: format!(
            "Catalog-wide check-all: index routing vs brute-force every-view request \
             ({len}-update TPC-H fan-out stream, partitioned many-view catalog)"
        ),
        headers: vec![
            "views (N)".into(),
            "index (ms)".into(),
            "brute (ms)".into(),
            "speedup".into(),
            "pruning ratio".into(),
            "candidates/request".into(),
        ],
        rows,
    }
}

/// Build the `many_views` catalog as routing signatures only: parse + ASG
/// build per view, **no** UFilter compilation, mirroring what a warm
/// restart feeds the index (signature preludes, no pipelines). This is
/// what makes a 10^5-view sweep tractable.
fn many_signatures(n: usize, scale: Scale) -> Vec<(String, ufilter_route::ViewSignature)> {
    use ufilter_route::ViewSignature;
    use ufilter_xquery::parse_view_query;
    let s = schema();
    many_views(n, scale)
        .into_iter()
        .map(|(name, text)| {
            let q = parse_view_query(&text).expect("generated view parses");
            let asg = ufilter_asg::build_view_asg(&q, &s).expect("generated view builds");
            (name, ViewSignature::of(&asg))
        })
        .collect()
}

/// Route-only scaling of the shared posting-list index ([`ufilter_route::TrieIndex`])
/// against the legacy per-view linear walk ([`ufilter_route::RelevanceIndex`])
/// at 10^3–10^5 views: same signatures, same update footprints, candidate
/// sets asserted equal per update. Reports the trie's resident memory
/// footprint next to the speedup — the routing cost is what must scale
/// with the update footprint, not the catalog size.
pub fn route_trie_scale(len: usize, reps: usize, sweep: &[usize]) -> Table {
    use ufilter_route::{Footprint, RelevanceIndex, TrieIndex};
    use ufilter_xquery::parse_update;

    let scale = Scale::tiny();
    let footprints: Vec<Footprint> = fanout_stream(len, scale, 42)
        .iter()
        .map(|u| Footprint::of(&parse_update(u).expect("fan-out update parses")))
        .collect();
    let median = |mut samples: Vec<Duration>| -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    };
    let mut rows = Vec::new();
    for &n in sweep {
        let sigs = many_signatures(n, scale);
        let mut trie = TrieIndex::new();
        let mut legacy = RelevanceIndex::new();
        for (name, sig) in &sigs {
            trie.insert_signature(name, sig.clone());
            legacy.insert_signature(name, sig.clone());
        }

        // Equal candidate sets: the trie may prune at a different level than
        // the linear walk, but the surviving views must be identical.
        let mut pruned = 0usize;
        for fp in &footprints {
            let t = trie.route_footprint(fp);
            let l = legacy.route_footprint(fp);
            assert_eq!(t.candidates, l.candidates, "trie and linear candidates diverge at n={n}");
            assert_eq!(t.fallback, l.fallback, "fallback divergence at n={n}");
            pruned += t.pruned();
        }

        let time_route = |route: &dyn Fn(&Footprint) -> usize| -> Duration {
            median(
                (0..reps)
                    .map(|_| {
                        let t = Instant::now();
                        let mut total = 0usize;
                        for fp in &footprints {
                            total += route(fp);
                        }
                        std::hint::black_box(total);
                        t.elapsed()
                    })
                    .collect(),
            )
        };
        let t_trie = time_route(&|fp| trie.route_footprint(fp).candidates.len());
        let t_legacy = time_route(&|fp| legacy.route_footprint(fp).candidates.len());
        let stats = trie.stats();
        rows.push(vec![
            n.to_string(),
            ms(t_trie),
            ms(t_legacy),
            format!("{:.2}x", t_legacy.as_secs_f64() / t_trie.as_secs_f64().max(1e-9)),
            format!("{:.4}", pruned as f64 / (len * n).max(1) as f64),
            stats.nodes.to_string(),
            stats.postings.to_string(),
            format!("{:.1}", stats.bytes as f64 / 1024.0 / 1024.0),
        ]);
    }
    Table {
        title: format!(
            "Route-only scaling: shared posting-list index vs legacy linear walk \
             ({len}-update TPC-H fan-out stream, signature-only catalog, \
             candidate sets asserted equal per update)"
        ),
        headers: vec![
            "views (N)".into(),
            "trie (ms)".into(),
            "linear (ms)".into(),
            "speedup".into(),
            "pruning ratio".into(),
            "trie nodes".into(),
            "trie postings".into(),
            "trie MiB".into(),
        ],
        rows,
    }
}

/// Bounded route-scale smoke for CI (`paper-figures routesmoke`): build an
/// `n`-view signature catalog into the trie and the legacy index, and route
/// a `len`-update fan-out stream plus each family's last-partition key
/// ([`top_partition_updates`]) through both. One untimed pass warms the
/// trie's lazily derived endpoint arrays and panics (non-zero exit) on any
/// candidate divergence; then warm passes of each index are timed and their
/// medians printed per update (`trie_us`, `linear_us`) on one
/// machine-parsable line. Both run in one process, so their ratio does not
/// depend on the host's speed.
pub fn route_smoke(n: usize, len: usize) -> String {
    use ufilter_route::{Footprint, RelevanceIndex, TrieIndex};
    use ufilter_xquery::parse_update;

    let scale = Scale::tiny();
    let sigs = many_signatures(n, scale);
    let mut trie = TrieIndex::new();
    let mut legacy = RelevanceIndex::new();
    let t_build = Instant::now();
    for (name, sig) in &sigs {
        trie.insert_signature(name, sig.clone());
    }
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    for (name, sig) in &sigs {
        legacy.insert_signature(name, sig.clone());
    }

    let mut updates = fanout_stream(len, scale, 42);
    updates.extend(top_partition_updates(n, scale));
    let footprints: Vec<Footprint> = updates
        .iter()
        .map(|u| Footprint::of(&parse_update(u).expect("fan-out update parses")))
        .collect();
    let mut candidates = 0usize;
    for fp in &footprints {
        let t = trie.route_footprint(fp);
        assert_eq!(t.candidates, legacy.route_footprint(fp).candidates, "candidates diverge");
        candidates += t.candidates.len();
    }
    // Median wall time of one warm pass over the stream, in µs per update.
    let per_update_us = |passes: usize, route: &dyn Fn(&Footprint) -> usize| -> f64 {
        let mut samples: Vec<Duration> = (0..passes)
            .map(|_| {
                let t = Instant::now();
                let total: usize = footprints.iter().map(route).sum();
                std::hint::black_box(total);
                t.elapsed()
            })
            .collect();
        samples.sort();
        samples[passes / 2].as_secs_f64() * 1e6 / footprints.len() as f64
    };
    let trie_us = per_update_us(21, &|fp| trie.route_footprint(fp).candidates.len());
    let linear_us = per_update_us(5, &|fp| legacy.route_footprint(fp).candidates.len());
    let stats = trie.stats();
    format!(
        "route-smoke OK n={n} updates={len} top_keys={} candidates={candidates} \
         build_ms={build_ms:.1} trie_us={trie_us:.2} linear_us={linear_us:.1} \
         trie_nodes={} trie_postings={} trie_bytes={}\n",
        footprints.len() - len,
        stats.nodes,
        stats.postings,
        stats.bytes
    )
}

/// JSON snapshot behind `paper-figures route` → `BENCH_route.json`: the
/// end-to-end check-all fan-out at N = 10 / 100 / 1000 views (index vs
/// brute force), plus the route-only trie-vs-linear sweep at
/// N = 10^3 / 10^4 / 10^5 with the trie's memory footprint.
pub fn route_json(reps: usize) -> String {
    let tables = [
        route_fanout(50, reps, &[10, 100, 1000]),
        route_trie_scale(50, reps, &[1_000, 10_000, 100_000]),
    ];
    let body = tables.iter().map(Table::to_json).collect::<Vec<_>>().join(",\n    ");
    format!(
        "{{\n  \"schema_version\": 1,\n  \"note\": \"wall-clock medians; the check-all table \
         pins the end-to-end fan-out (index must beat brute force at N=1000); the route-only \
         table pins the shared posting-list index against the legacy linear walk at equal candidate \
         sets (asserted per update) and must show >=10x at N=100000, with the trie's resident \
         footprint in MiB; outcomes on candidates are pinned identical by \
         tests/route_soundness.rs\",\n  \
         \"reps\": {reps},\n  \"tables\": [\n    {body}\n  ]\n}}\n"
    )
}

// ---------------------------------------------------------------------------
// Durable catalog — warm restart (prelude replay) vs cold recompile
// ---------------------------------------------------------------------------

/// Restart cost of an `n`-view durable catalog: `CatalogStore::open` (read +
/// CRC scan of the log), a warm `ViewCatalog::replay` that registers each
/// view from its artifact prelude (config + routing signature), and a cold
/// replay over the same records with every artifact blanked, which forces a
/// full recompile per view. A warm view compiles at its first check
/// instead, so the table also times the first use of every view after a
/// warm replay: the compile the warm restart defers.
/// `tests/persist_recovery.rs` pins both paths to byte-identical wire
/// outcomes.
pub fn persist_restart(sweep: &[usize], reps: usize) -> Table {
    use ufilter_core::{CatalogStore, LogRecord};
    let s = schema();
    let mut rows = Vec::new();
    for &n in sweep {
        let dir =
            std::env::temp_dir().join(format!("ufilter-bench-persist-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut catalog = ViewCatalog::new(s.clone());
            catalog.attach_store(std::sync::Arc::new(std::sync::Mutex::new(
                CatalogStore::open(&dir).expect("store opens"),
            )));
            for (name, text) in many_views(n, Scale::tiny()) {
                catalog.add(&name, &text).expect("generated view compiles");
            }
        }

        let median = |mut samples: Vec<Duration>| -> Duration {
            samples.sort();
            samples[samples.len() / 2]
        };
        let t_open = median(
            (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    let store = CatalogStore::open(&dir).expect("store reopens");
                    std::hint::black_box(store.records().len());
                    t.elapsed()
                })
                .collect(),
        );

        let store = CatalogStore::open(&dir).expect("store reopens");
        let records = store.records().to_vec();
        let stripped: Vec<LogRecord> = records
            .iter()
            .map(|r| match r {
                LogRecord::Add { name, view_text, deps, cached, artifact: _ } => LogRecord::Add {
                    name: name.clone(),
                    view_text: view_text.clone(),
                    deps: deps.clone(),
                    cached: *cached,
                    artifact: Vec::new(),
                },
                other => other.clone(),
            })
            .collect();
        let mut db = generate(Scale::tiny(), 42, DeletePolicy::Cascade);
        // Per rep: (replay time, time to then hydrate every view).
        let mut time_replay = |records: &[LogRecord], warm: bool| -> (Duration, Duration) {
            let (replays, first_uses) = (0..reps)
                .map(|_| {
                    let mut catalog = ViewCatalog::new(s.clone());
                    let t = Instant::now();
                    let stats = catalog.replay(&mut db, records).expect("replay succeeds");
                    let replay = t.elapsed();
                    if warm {
                        assert_eq!(stats.rehydrated, n, "every view registers from its prelude");
                    } else {
                        assert_eq!(stats.recompiled, n, "every view recompiles");
                    }
                    let t = Instant::now();
                    for view in catalog.list() {
                        std::hint::black_box(catalog.get(&view.name).expect("listed view"));
                    }
                    let first_use = t.elapsed();
                    assert_eq!(catalog.hydrated_count(), n);
                    (replay, first_use)
                })
                .unzip();
            (median(replays), median(first_uses))
        };
        let (t_warm, t_first_use) = time_replay(&records, true);
        let (t_cold, _) = time_replay(&stripped, false);
        let restart = |replay: Duration| (t_open + replay).as_secs_f64();
        rows.push(vec![
            n.to_string(),
            ms(t_open),
            ms(t_warm),
            ms(t_first_use),
            ms(t_cold),
            format!("{:.2}x", restart(t_cold) / restart(t_warm).max(1e-9)),
        ]);
        std::fs::remove_dir_all(&dir).expect("bench dir cleanup");
    }
    Table {
        title: "Durable restart: warm (open + prelude replay) vs cold (open + recompile every \
                view) over a generated partitioned catalog; warm first use compiles every \
                view once after the warm replay"
            .into(),
        headers: vec![
            "views (N)".into(),
            "open (ms)".into(),
            "warm replay (ms)".into(),
            "warm first use, all views (ms)".into(),
            "cold recompile (ms)".into(),
            "restart speedup".into(),
        ],
        rows,
    }
}

/// JSON snapshot behind `paper-figures persist` → `BENCH_persist.json`:
/// restart cost at N = 100 / 1000 views. The warm restart (open + prelude
/// replay) must be at least 5x faster than the cold recompile at N = 1000;
/// `scripts/ci_service_smoke.sh` gates that ratio.
pub fn persist_json(reps: usize) -> String {
    let tables = [persist_restart(&[100, 1000], reps)];
    let body = tables.iter().map(Table::to_json).collect::<Vec<_>>().join(",\n    ");
    format!(
        "{{\n  \"schema_version\": 1,\n  \"note\": \"wall-clock medians; warm restart (open + \
         prelude replay) must be >= 5x faster than cold recompile at N=1000 \
         (scripts/ci_service_smoke.sh gates it); warm first use is the compile a warm view \
         defers to its first check; both paths serve identical wire outcomes \
         (tests/persist_recovery.rs)\",\n  \
         \"reps\": {reps},\n  \"tables\": [\n    {body}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_route::TrieIndex;

    /// The N=1000 signature catalog reports the structural gauges of the
    /// committed `BENCH_route.json` row — 35 posting lists over tags, root
    /// children and edges, 24,999 postings — and removing and re-inserting
    /// one view restores them.
    #[test]
    fn signature_catalog_gauges_match_the_route_bench() {
        let sigs = many_signatures(1000, Scale::tiny());
        let mut trie = TrieIndex::new();
        for (name, sig) in &sigs {
            trie.insert_signature(name, sig.clone());
        }
        let gauges = |trie: &TrieIndex| (trie.stats().nodes, trie.stats().postings);
        assert_eq!(gauges(&trie), (35, 24_999));
        let (name, sig) = &sigs[sigs.len() / 2];
        trie.remove(name);
        assert!(gauges(&trie).1 < 24_999, "removal unposts the view");
        trie.insert_signature(name, sig.clone());
        assert_eq!(gauges(&trie), (35, 24_999));
    }
}
