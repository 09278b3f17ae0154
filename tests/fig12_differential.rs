//! Differential pinning of the Fig. 12 aggregate/Distinct extension.
//!
//! Every view the extended subset newly includes (see
//! `ufilter_usecases::subset_views`) must:
//!
//! 1. **compile** end-to-end (parse → ASG → STAR marking) and
//!    **materialize** against sample data without panicking;
//! 2. **check** a sample update stream without panicking, classifying
//!    updates that reach deduplicated/aggregated regions as untranslatable
//!    with the `non-injective` step code (never `ERR`, never a panic);
//! 3. produce **byte-identical wire-encoded outcomes** between the
//!    `check-batch` engine (`ViewCatalog::check_batch_text`) and the served
//!    `BATCH` path (a real `CheckServer` over TCP).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use u_filter::core::catalog::ViewCatalog;
use u_filter::core::wire::{encode_outcome, encode_outcomes};
use u_filter::core::{CheckOutcome, CheckStep};
use u_filter::service::{proto, CheckServer, ShardedCatalog};
use u_filter::usecases::{
    independence_updates, subset_data_sql, subset_schema_sql, subset_updates, subset_views,
};
use ufilter_rdb::Db;

fn subset_db() -> Db {
    let mut db = Db::new();
    db.execute_script(subset_schema_sql()).expect("subset schema DDL");
    for stmt in subset_data_sql() {
        db.execute_sql(stmt).expect("subset data row");
    }
    db
}

fn subset_catalog(db: &Db) -> ViewCatalog {
    let mut catalog = ViewCatalog::new(db.schema().clone());
    for (name, text) in subset_views() {
        catalog.add(name, text).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
    }
    catalog
}

fn stream() -> Vec<(String, String)> {
    // Original pinned stream first (indexes 0..=8 are asserted below),
    // then the independence-analysis flips — appended, so every
    // previously-pinned outcome keeps its index and its bytes.
    subset_updates()
        .iter()
        .chain(independence_updates())
        .map(|(v, u)| (v.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_newly_included_view_compiles_and_materializes() {
    let db = subset_db();
    let catalog = subset_catalog(&db);
    assert_eq!(catalog.len(), subset_views().len());
    for (name, _) in subset_views() {
        let f = catalog.get(name).expect("registered");
        // The evaluator must handle Distinct sources and aggregate values.
        let doc = u_filter::xquery::materialize(&db, f.query())
            .unwrap_or_else(|e| panic!("{name} failed to materialize: {e}"));
        let _ = doc;
    }
}

#[test]
fn sample_stream_classifies_without_panicking() {
    let db = subset_db();
    let catalog = subset_catalog(&db);
    let mut db = db.clone();
    let report = catalog.check_batch_text(&stream(), &mut db);
    assert_eq!(report.items.len(), subset_updates().len() + independence_updates().len());

    let step_of = |i: usize| match &report.items[i].reports[0].outcome {
        CheckOutcome::Untranslatable { step, .. } => Some(*step),
        _ => None,
    };
    // Updates reaching Distinct regions (items 0–2), aggregate elements
    // (3), aggregate-fed row regions (4), aggregate-gated regions (5) and
    // aggregate-containing subtrees (6) are all untranslatable with the new
    // step code — a precise reason, not a compile-time refusal.
    for i in 0..=6 {
        assert_eq!(
            step_of(i),
            Some(CheckStep::NonInjective),
            "item {i} ({}): {:?}",
            report.items[i].view,
            report.items[i].reports[0].outcome
        );
    }
    // Statically irrelevant shapes keep their classic Step-1 classes.
    assert!(report.items[7].reports[0].outcome.is_invalid(), "unknown target stays invalid");
    assert!(report.items[8].reports[0].outcome.is_invalid(), "hierarchy violation stays invalid");
}

/// The README precision column: each `independence_updates()` entry is a
/// use-case update the blunt Step-1½ footprint check rejects that the
/// independence analysis proves safe. The flip itself is visible in the
/// trace — the `NonInjective` entry records both the blunt rejection
/// reason and the overriding independence note — so this pins
/// rejected→accepted per update, not just final acceptance.
#[test]
fn independence_updates_flip_on_the_use_cases() {
    let db = subset_db();
    let catalog = subset_catalog(&db);
    for (view, update) in independence_updates() {
        let filter = catalog.get(view).expect("use-case view registered");
        let mut cdb = db.clone();
        let reports = filter.check(update, &mut cdb);
        assert!(!reports.is_empty(), "{view}: update produced no reports");
        for r in &reports {
            assert!(
                r.outcome.is_translatable(),
                "{view}: expected a flip to translatable, got {:?}",
                r.outcome
            );
            let flip = r.trace.iter().any(|(step, note)| {
                *step == CheckStep::NonInjective && note.contains("independence:")
            });
            assert!(
                flip,
                "{view}: accepted without passing through the blunt gate — \
                 not a precision win; trace: {:?}",
                r.trace
            );
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("server accepts");
        stream.set_nodelay(true).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    /// Send `text` (one or more lines) and its final newline in one write.
    fn send(&mut self, text: &str) {
        self.writer.write_all(format!("{text}\n").as_bytes()).unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("server replies");
        line.trim_end().to_string()
    }
}

#[test]
fn served_batch_is_byte_identical_to_check_batch() {
    let db = subset_db();

    // Library side: the check-batch engine.
    let catalog = subset_catalog(&db);
    let mut lib_db = db.clone();
    let lib = catalog.check_batch_text(&stream(), &mut lib_db);
    let mut expected: Vec<String> = Vec::new();
    for item in &lib.items {
        for r in &item.reports {
            expected.push(format!(
                "ITEM {} {} {}",
                item.index,
                item.view,
                encode_outcome(&r.outcome)
            ));
        }
    }

    // Served side: a real CheckServer, 2 workers, same views and data.
    let sharded = Arc::new(ShardedCatalog::new(db.schema().clone()));
    for (name, text) in subset_views() {
        sharded.add(name, text).unwrap();
    }
    let server = CheckServer::bind("127.0.0.1:0", sharded, &db, 2).expect("binds");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    let mut c = Client::connect(addr);

    // Per-item CHECK replies must equal the library's tab-joined outcomes.
    let stream = stream();
    let mut saw_non_injective = false;
    for (i, (view, update)) in stream.iter().enumerate() {
        c.send(&proto::check_request(view, update));
        let reply = c.recv();
        let lib_line = encode_outcomes(
            &lib.items[i].reports.iter().map(|r| r.outcome.clone()).collect::<Vec<_>>(),
        );
        assert_eq!(reply, format!("OK {lib_line}"), "CHECK {view} diverged");
        if reply.contains("untranslatable non-injective") {
            saw_non_injective = true;
        }
    }
    assert!(saw_non_injective, "no CHECK surfaced the non-injective wire code");

    // BATCH: the full stream in one request, byte-identical ITEM lines.
    let mut request = vec![format!("BATCH {}", stream.len())];
    request.extend(stream.iter().map(|(view, update)| proto::batch_item(view, update)));
    c.send(&request.join("\n"));
    let head = c.recv();
    assert_eq!(head, format!("OK {}", stream.len()), "{head}");
    let mut got: Vec<String> = Vec::new();
    loop {
        let line = c.recv();
        if line.starts_with("END ") {
            break;
        }
        got.push(line);
    }
    assert_eq!(got, expected, "served BATCH diverged from check-batch");

    c.send("SHUTDOWN");
    let _ = c.recv();
    handle.join().expect("server thread");
}
