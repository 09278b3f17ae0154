//! The blind execute-recompute differential oracle.
//!
//! For every generated (view, update) pair, the same update text runs
//! through four check surfaces, and the wire-encoded outcome line must be
//! **byte-identical** across all of them:
//!
//! 1. *direct* — [`UFilter::check`] (what the CLI does),
//! 2. *batch*  — [`ViewCatalog::check`] with every item naming its view
//!    (the amortized engine),
//! 3. *fanout* — [`ViewCatalog::check`] with routed items (the same
//!    engine, with relevance-index routing expanding each item; views the
//!    index prunes must be exactly those the direct check rejects as
//!    statically irrelevant),
//! 4. *tcp*    — a `CHECK` request against a live [`CheckServer`].
//!
//! Independently of the agreement check, accepted updates face the
//! ground-truth test of the paper's Definition 1 rectangle: *applying the
//! translated SQL and re-materializing the view must equal applying the
//! XML update to the materialized view directly* ([`apply_and_verify`]).
//! The oracle never predicts a verdict — it only demands that the
//! surfaces agree and that acceptance is semantically sound. Rejected
//! updates must leave the database untouched and re-check identically
//! (determinism).
//!
//! [`UFilter::check`]: ufilter_core::UFilter::check
//! [`ViewCatalog::check`]: ufilter_core::ViewCatalog::check
//! [`CheckServer`]: ufilter_service::CheckServer
//! [`apply_and_verify`]: ufilter_core::apply_and_verify

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ufilter_core::wire::{self, encode_outcome};
use ufilter_core::{
    apply_and_verify, CheckReport, ProbeCache, RectangleVerdict, Target, ViewCatalog,
};
use ufilter_rdb::Db;
use ufilter_service::proto::check_request;
use ufilter_service::{CheckServer, ShardedCatalog};

use crate::gen_schema::GenSchema;
use crate::gen_update::{self, GenUpdate};
use crate::gen_view::{self, GenView};
use crate::rng::FuzzRng;

/// Which check surface a wire line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    Direct,
    Batch,
    Fanout,
    Tcp,
}

impl Surface {
    pub fn label(self) -> &'static str {
        match self {
            Surface::Direct => "direct",
            Surface::Batch => "batch",
            Surface::Fanout => "fanout",
            Surface::Tcp => "tcp",
        }
    }
}

/// A reproducible oracle failure: the seed replays it, the embedded texts
/// replay it without the generator.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    /// Failure class (`surface-mismatch`, `rectangle`, `generator`, …).
    pub kind: String,
    pub view: String,
    pub update: String,
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seed={} view={}\nupdate:\n{}\ndetail: {}",
            self.kind, self.seed, self.view, self.update, self.detail
        )
    }
}

/// Outcome tallies for one run (and the acceptance-criteria counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// (view, update) pairs checked across all four surfaces.
    pub cases: usize,
    pub translatable: usize,
    pub conditional: usize,
    pub untranslatable: usize,
    pub invalid: usize,
    /// Accepted updates verified against the Definition 1 rectangle.
    pub rectangles: usize,
    /// Snapshot/restore round-trips asserted.
    pub snapshots: usize,
    /// Views the relevance index pruned (checked statically irrelevant).
    pub pruned: usize,
}

impl RunStats {
    pub fn merge(&mut self, o: &RunStats) {
        self.cases += o.cases;
        self.translatable += o.translatable;
        self.conditional += o.conditional;
        self.untranslatable += o.untranslatable;
        self.invalid += o.invalid;
        self.rectangles += o.rectangles;
        self.snapshots += o.snapshots;
        self.pruned += o.pruned;
    }
}

/// Oracle knobs. `mutate` is a fault-injection hook for testing the
/// harness itself: it may corrupt the wire line of one surface, and the
/// oracle must then report a divergence that shrinks and replays.
#[derive(Default)]
pub struct OracleOptions {
    /// Skip the TCP surface (used by shrinking's inner loop for speed —
    /// final minimized cases re-run with all surfaces on).
    pub skip_tcp: bool,
    /// Corrupt `line` as seen on `surface`; `None` = leave intact.
    pub mutate: Option<fn(Surface, &str) -> Option<String>>,
}

/// A fully-rendered plan: everything the oracle needs, no generator state.
/// This is also the corpus file format's content.
#[derive(Debug, Clone, PartialEq)]
pub struct RawPlan {
    pub seed: u64,
    pub schema_sql: String,
    /// `(name, view text)` in registration order.
    pub views: Vec<(String, String)>,
    pub updates: Vec<String>,
}

/// A structured plan (ASTs retained for shrinking).
pub struct Plan {
    pub seed: u64,
    pub schema: GenSchema,
    pub views: Vec<GenView>,
    pub updates: Vec<GenUpdate>,
}

impl Plan {
    /// Generate a plan from a seed: one schema, 1-2 views, 3-6 updates.
    /// Pure function of the seed.
    pub fn generate(seed: u64) -> Plan {
        let mut rng = FuzzRng::new(seed);
        let mut schema_rng = rng.fork();
        let mut view_rng = rng.fork();
        let mut upd_rng = rng.fork();

        let schema = GenSchema::generate(&mut schema_rng);
        let n_views = if view_rng.chance(0.4) { 2 } else { 1 };
        let views: Vec<GenView> =
            (0..n_views).map(|i| gen_view::generate(&mut view_rng, &schema, i)).collect();
        let n_updates = upd_rng.int(3, 6) as usize;
        let updates: Vec<GenUpdate> = (0..n_updates)
            .map(|_| {
                let v = upd_rng.index(views.len());
                gen_update::generate(&mut upd_rng, &schema, &views[v])
            })
            .collect();
        Plan { seed, schema, views, updates }
    }

    /// Lower to the text-only form the oracle (and corpus files) consume.
    pub fn raw(&self) -> RawPlan {
        RawPlan {
            seed: self.seed,
            schema_sql: self.schema.sql(),
            views: self.views.iter().map(|v| (v.name.clone(), v.text())).collect(),
            updates: self.updates.iter().map(|u| u.text()).collect(),
        }
    }
}

/// Tab-join the wire-encoded outcome of each action report — the exact
/// format the TCP server replies with after `OK `.
pub fn report_line(reports: &[CheckReport]) -> String {
    reports.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<_>>().join("\t")
}

/// Run one plan through the full oracle. `Err` is the first divergence.
pub fn run_raw(plan: &RawPlan, opts: &OracleOptions) -> Result<RunStats, Divergence> {
    let gen_err = |detail: String| Divergence {
        seed: plan.seed,
        kind: "generator".into(),
        view: String::new(),
        update: String::new(),
        detail,
    };

    // Base database.
    let mut db = Db::new();
    db.execute_script(&plan.schema_sql).map_err(|e| gen_err(format!("schema script: {e}")))?;
    let schema = db.schema().clone();
    let base_dump = db.dump();

    // Surface 1+2+3 host: the catalog.
    let mut catalog = ViewCatalog::new(schema.clone());
    for (name, text) in &plan.views {
        catalog.add(name, text).map_err(|e| gen_err(format!("view {name} rejected: {e}")))?;
    }

    // Surface 4 host: a live server over the same schema, views and data.
    let mut tcp = if opts.skip_tcp { None } else { Some(TcpHarness::start(plan, &schema, &db)?) };

    // Batch surface: every (update, view) pair in one stream, so the
    // amortized engine sees realistic grouping.
    let items: Vec<(Target, &str)> = plan
        .updates
        .iter()
        .flat_map(|u| plan.views.iter().map(move |(name, _)| (Target::View(name), u.as_str())))
        .collect();
    let batch_lines: Vec<String> = {
        let mut batch_db = db.clone();
        let report = catalog.check(&items, &mut batch_db, &mut ProbeCache::new());
        let mut lines = vec![String::new(); items.len()];
        for item in &report.items {
            lines[item.index] = report_line(&item.reports);
        }
        lines
    };

    let mutate = |surface: Surface, line: &str| -> String {
        match opts.mutate.and_then(|f| f(surface, line)) {
            Some(corrupted) => corrupted,
            None => line.to_string(),
        }
    };

    let mut stats = RunStats::default();
    for (ui, update) in plan.updates.iter().enumerate() {
        // Fan-out surface: one routed item per update; map view -> line.
        let fanout_lines: BTreeMap<String, String> = {
            let mut fdb = db.clone();
            let report =
                catalog.check(&[(Target::Routed, update)], &mut fdb, &mut ProbeCache::new());
            report
                .items
                .iter()
                .map(|item| (item.view.clone(), report_line(&item.reports)))
                .collect()
        };

        for (vi, (vname, _vtext)) in plan.views.iter().enumerate() {
            stats.cases += 1;
            let fail = |kind: &str, detail: String| Divergence {
                seed: plan.seed,
                kind: kind.into(),
                view: vname.clone(),
                update: update.clone(),
                detail,
            };
            let filter = catalog.get(vname).expect("registered view resolves");

            // Direct surface, run twice (determinism).
            let mut da = db.clone();
            let reports = filter.check(update, &mut da);
            let direct = report_line(&reports);
            let mut db2 = db.clone();
            let second = report_line(&filter.check(update, &mut db2));
            if direct != second {
                return Err(fail("nondeterminism", format!("first:  {direct}\nsecond: {second}")));
            }
            // Checking must not touch the database: no user-table change
            // and no `TAB_` table.
            if da.dump() != base_dump {
                return Err(fail("check-mutates", "direct check changed the database".into()));
            }

            let direct_m = mutate(Surface::Direct, &direct);
            let batch_m = mutate(Surface::Batch, &batch_lines[ui * plan.views.len() + vi]);
            if direct_m != batch_m {
                return Err(fail(
                    "surface-mismatch",
                    format!("direct: {direct_m}\nbatch:  {batch_m}"),
                ));
            }

            match fanout_lines.get(vname) {
                Some(fline) => {
                    let fanout_m = mutate(Surface::Fanout, fline);
                    if direct_m != fanout_m {
                        return Err(fail(
                            "surface-mismatch",
                            format!("direct: {direct_m}\nfanout: {fanout_m}"),
                        ));
                    }
                }
                None => {
                    // The relevance index pruned this view: the direct
                    // check must agree it is statically irrelevant.
                    stats.pruned += 1;
                    let all_invalid = wire::decode_outcomes(&direct)
                        .map(|os| os.iter().all(|o| o.is_invalid()))
                        .unwrap_or(false);
                    if !all_invalid {
                        return Err(fail(
                            "pruned-not-invalid",
                            format!("index pruned the view but direct said: {direct}"),
                        ));
                    }
                }
            }

            if let Some(t) = tcp.as_mut() {
                let reply = t.check(vname, update).map_err(|e| fail("tcp", e))?;
                let tcp_m = mutate(Surface::Tcp, &reply);
                if direct_m != tcp_m {
                    return Err(fail(
                        "surface-mismatch",
                        format!("direct: {direct_m}\ntcp:    {tcp_m}"),
                    ));
                }
            }

            // Tally + ground truth.
            let outcomes = wire::decode_outcomes(&direct)
                .map_err(|e| fail("wire-decode", format!("{direct}: {e}")))?;
            let accepted = !outcomes.is_empty() && outcomes.iter().all(|o| o.is_translatable());
            for o in &outcomes {
                match o {
                    ufilter_core::CheckOutcome::Invalid(_) => stats.invalid += 1,
                    ufilter_core::CheckOutcome::Untranslatable { .. } => stats.untranslatable += 1,
                    ufilter_core::CheckOutcome::Translatable { conditions, .. } => {
                        stats.translatable += 1;
                        if !conditions.is_empty() {
                            stats.conditional += 1;
                        }
                    }
                }
            }

            if accepted {
                // Definition 1: u(DEF_V(D)) = DEF_V(U(D)), via the blind
                // execute-recompute rectangle. Snapshot/restore brackets
                // the application so one base db serves every case.
                let mut adb = db.clone();
                let snap = adb.snapshot().map_err(|e| fail("snapshot", e.to_string()))?;
                match apply_and_verify(filter, update, &mut adb) {
                    Err(e) => return Err(fail("rectangle-error", e)),
                    Ok((applied_accept, verdict)) => {
                        if !applied_accept {
                            return Err(fail(
                                "accept-mismatch",
                                "check said translatable; apply-time check refused".into(),
                            ));
                        }
                        match verdict {
                            Some(RectangleVerdict::Holds) => stats.rectangles += 1,
                            other => {
                                return Err(fail(
                                    "rectangle",
                                    format!("definition-1 rectangle violated: {other:?}"),
                                ))
                            }
                        }
                    }
                }
                adb.restore(&snap);
                if adb.dump() != base_dump {
                    return Err(fail(
                        "snapshot-restore",
                        "restore did not return the database to its snapshot".into(),
                    ));
                }
                stats.snapshots += 1;
            }
        }
    }

    if let Some(t) = tcp.take() {
        t.stop();
    }
    Ok(stats)
}

/// Convenience: generate + run one seed.
pub fn run_seed(seed: u64, opts: &OracleOptions) -> Result<RunStats, Divergence> {
    run_raw(&Plan::generate(seed).raw(), opts)
}

/// A live server + one client connection for the TCP surface.
struct TcpHarness {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    handle: ufilter_service::ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TcpHarness {
    fn start(
        plan: &RawPlan,
        schema: &ufilter_rdb::DatabaseSchema,
        db: &Db,
    ) -> Result<TcpHarness, Divergence> {
        let gen_err = |detail: String| Divergence {
            seed: plan.seed,
            kind: "tcp-setup".into(),
            view: String::new(),
            update: String::new(),
            detail,
        };
        let catalog = ShardedCatalog::new(schema.clone());
        for (name, text) in &plan.views {
            catalog.add(name, text).map_err(|e| gen_err(format!("server add {name}: {e}")))?;
        }
        let server = CheckServer::bind("127.0.0.1:0", Arc::new(catalog), db, 2)
            .map_err(|e| gen_err(format!("bind: {e}")))?;
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).map_err(|e| gen_err(format!("connect: {e}")))?;
        stream.set_nodelay(true).map_err(|e| gen_err(format!("nodelay: {e}")))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| gen_err(format!("clone: {e}")))?);
        Ok(TcpHarness { reader, writer: stream, handle, thread })
    }

    /// Send one CHECK, return the wire line after `OK ` (or an error
    /// description).
    fn check(&mut self, view: &str, update: &str) -> Result<String, String> {
        // One request, one write: a split request waits on a delayed ACK.
        let request = format!("{}\n", check_request(view, update));
        self.writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let reply = reply.trim_end();
        reply
            .strip_prefix("OK ")
            .map(str::to_string)
            .ok_or_else(|| format!("expected OK, got: {reply}"))
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}
