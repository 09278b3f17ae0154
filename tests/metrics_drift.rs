//! Drift guard between the two observability surfaces.
//!
//! `STATS` is the byte-pinned wire reply; `METRICS` is the Prometheus
//! exposition. The server renders both from the [`STATS_FAMILIES`] table
//! and one set of live values, so they cannot drift apart; this test pins
//! the table's key order (the `STATS` wire format) and checks a live
//! server against it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use u_filter::core::bookdemo;
use u_filter::service::{CheckServer, ShardedCatalog, STATS_FAMILIES};

/// The `STATS` reply keys, in reply order, pinned. Changing this list is a
/// wire-protocol change: update `STATS_FAMILIES` and
/// `scripts/ci_service_smoke.sh` together.
const PINNED_STATS_KEYS: [&str; 27] = [
    "workers",
    "views",
    "connections",
    "requests",
    "errors",
    "jobs",
    "checked",
    "probe_hits",
    "probe_misses",
    "compile_hits",
    "persist_appends",
    "persist_syncs",
    "persist_compactions",
    "persist_replayed",
    "fanout_requests",
    "candidates",
    "pruned",
    "fallbacks",
    "trie_nodes",
    "trie_postings",
    "trie_bytes",
    "trie_inserts",
    "trie_removes",
    "independence_checked",
    "independence_independent",
    "independence_dependent",
    "independence_unknown",
];

#[test]
fn stats_families_table_matches_pinned_key_order() {
    let table_keys: Vec<&str> = STATS_FAMILIES.iter().map(|f| f.stats_key).collect();
    assert_eq!(table_keys, PINNED_STATS_KEYS, "STATS_FAMILIES drifted from the pinned key order");
    // Family names are unique and follow the Prometheus naming rule that
    // counters end in `_total`.
    for f in STATS_FAMILIES {
        assert!(f.family.starts_with("ufilter_"), "{} lacks the ufilter_ prefix", f.family);
        match f.kind {
            "counter" => {
                assert!(f.family.ends_with("_total"), "counter {} must end in _total", f.family)
            }
            "gauge" => {
                assert!(!f.family.ends_with("_total"), "gauge {} must not end in _total", f.family)
            }
            other => panic!("unknown kind {other} for {}", f.family),
        }
    }
    let mut names: Vec<&str> = STATS_FAMILIES.iter().map(|f| f.family).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), STATS_FAMILIES.len(), "duplicate family names");
}

/// One scripted line-protocol client over a real socket.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, writer: stream }
    }

    /// Send one request line and its newline in one write.
    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

#[test]
fn live_stats_reply_and_metrics_exposition_carry_the_same_keys() {
    let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
    catalog.add("books", bookdemo::BOOK_VIEW).expect("add view");
    let db = bookdemo::book_db();
    let server = CheckServer::bind("127.0.0.1:0", catalog, &db, 2).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut c = Client::connect(&addr);
    // Real traffic first, so the exposition reflects live counters.
    assert!(
        c.roundtrip(&u_filter::service::proto::check_request("books", bookdemo::U8))
            .starts_with("OK "),
        "check failed"
    );

    // The live STATS reply keys are exactly the pinned list.
    let stats = c.roundtrip("STATS");
    let body = stats.strip_prefix("OK ").expect("STATS replies OK");
    let reply_keys: Vec<&str> =
        body.split_whitespace().map(|kv| kv.split_once('=').expect("key=value").0).collect();
    assert_eq!(reply_keys, PINNED_STATS_KEYS, "live STATS reply drifted: {stats}");

    // The live METRICS exposition carries the same live values (every
    // family's presence is pinned by the renderer's own unit tests).
    let head = c.roundtrip("METRICS");
    let n: usize = head.strip_prefix("OK ").expect("METRICS replies OK <n>").parse().expect("n");
    let lines: Vec<String> = (0..n).map(|_| c.recv()).collect();
    let metric_value = |family: &str| -> f64 {
        lines
            .iter()
            .find(|l| l.starts_with(&format!("{family} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no value for {family}"))
    };
    assert_eq!(metric_value("ufilter_workers"), 2.0);
    assert_eq!(metric_value("ufilter_views"), 1.0);
    assert!(metric_value("ufilter_requests_total") >= 2.0);
    // The independence stage rides the same Stage taxonomy as every other
    // pipeline span, so its summary series must be present too.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("ufilter_check_stage_duration_seconds{stage=\"independence\"")),
        "METRICS lacks the independence stage summary"
    );

    assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
    handle.join().expect("clean shutdown");
}
