//! The long-running TCP check server: `std::net` listener, one thread per
//! connection, all connections sharing the catalog ([`ShardedCatalog`])
//! and the [`CheckPool`]'s check slots.
//!
//! A connection reads request lines ([`crate::proto`]), checks each check
//! request itself on a slot borrowed from the pool (no other thread is
//! involved), renders the whole structured `OK`/`ERR` reply into one
//! buffer and sends it with one write on a `TCP_NODELAY` socket. A reply
//! split across writes would have its tail held by Nagle's algorithm until
//! the client's delayed ACK, about 40 ms later (the framing rule of the
//! wire-protocol ADR in `docs/ARCHITECTURE.md`).
//!
//! Reads block with no timeout. `SHUTDOWN` flips a shared flag and wakes
//! the accept loop with a loopback connection; the server then stops
//! accepting, shuts down the read side of every live connection (a blocked
//! read returns end of file at once) and joins every connection thread.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ufilter_core::obs::{self, Verb};
use ufilter_core::wire::{encode_outcome, escape};
use ufilter_core::{BatchReport, CheckReport, Target};
use ufilter_rdb::Db;

use crate::catalog::ShardedCatalog;
use crate::metrics::{self, STATS_FAMILIES};
use crate::pool::CheckPool;
use crate::proto::{err_reply, parse_batch_item, parse_batchall_item, parse_request, Request};

/// Longest request line, newline included, the server will buffer before
/// giving up on the connection. Escaped view/update texts are a few KB;
/// this leaves three orders of magnitude of headroom while bounding what
/// one client can make the server allocate: a line that never ends is not
/// this protocol.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Counters the `STATS` command reports (monotonic, server lifetime).
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicUsize,
    requests: AtomicUsize,
    errors: AtomicUsize,
}

/// A bound, not-yet-running check server.
pub struct CheckServer {
    listener: TcpListener,
    addr: SocketAddr,
    catalog: Arc<ShardedCatalog>,
    pool: Arc<CheckPool>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    slow_ms: Option<u64>,
}

impl CheckServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and build a
    /// pool of `workers` check slots, each holding a copy-on-write clone of
    /// `db` that shares its tables: at most `workers` checks run at once,
    /// whatever the number of connections.
    pub fn bind(
        addr: &str,
        catalog: Arc<ShardedCatalog>,
        db: &Db,
        workers: usize,
    ) -> std::io::Result<CheckServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(CheckPool::new(Arc::clone(&catalog), db, workers));
        Ok(CheckServer {
            listener,
            addr,
            catalog,
            pool,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(ServerStats::default()),
            slow_ms: None,
        })
    }

    /// Log any request slower than `ms` milliseconds to stderr as a
    /// single-line structured record with a per-request trace id
    /// (`SLOW trace=<16hex> verb=<verb> dur_us=<n> request=<escaped>`).
    /// `None` (the default) disables slow logging.
    pub fn set_slow_ms(&mut self, ms: Option<u64>) {
        self.slow_ms = ms;
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the server from another thread (same effect
    /// as a client sending `SHUTDOWN`).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown), addr: self.addr }
    }

    /// Accept connections until `SHUTDOWN`, then drain: wakes and joins
    /// every connection thread before returning.
    pub fn run(self) -> std::io::Result<()> {
        // Each connection's thread beside a weak handle on its socket, so
        // the socket still closes as soon as the thread is done with it.
        let mut conns: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = Arc::new(stream?);
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            // Reap finished connections: the list is bounded by live ones.
            conns.retain(|(_, thread)| !thread.is_finished());
            let conn = Connection {
                catalog: Arc::clone(&self.catalog),
                pool: Arc::clone(&self.pool),
                shutdown: Arc::clone(&self.shutdown),
                stats: Arc::clone(&self.stats),
                addr: self.addr,
                slow_ms: self.slow_ms,
            };
            let socket = Arc::downgrade(&stream);
            conns.push((socket, std::thread::spawn(move || conn.serve(&stream))));
        }
        // A read blocked on an idle connection returns end of file once
        // the read side is shut down, so no connection outlives this loop
        // by more than the request it is serving.
        for (socket, _) in &conns {
            if let Some(socket) = socket.upgrade() {
                let _ = socket.shutdown(Shutdown::Read);
            }
        }
        for (_, thread) in conns {
            let _ = thread.join();
        }
        // Clean shutdown: fold the log into a fresh snapshot so the next
        // start replays one compact file instead of the whole append
        // history. Best-effort — a failed compaction leaves the (already
        // fsynced) log authoritative.
        if let Some(store) = self.catalog.store() {
            let _ = store.lock().expect("catalog store lock").compact();
        }
        Ok(())
    }
}

/// Stops a running [`CheckServer`] from outside a connection.
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flip the shutdown flag and wake the accept loop.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
    }
}

struct Connection {
    catalog: Arc<ShardedCatalog>,
    pool: Arc<CheckPool>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    addr: SocketAddr,
    slow_ms: Option<u64>,
}

impl Connection {
    fn serve(self, stream: &TcpStream) {
        // Every reply is one write, so Nagle's coalescing has nothing to
        // gain and must not hold a reply for the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream);
        let mut writer = stream;
        while let Some(line) = read_line(&mut reader) {
            // After shutdown, a client that keeps sending is closed, not
            // served (a shut-down read side still delivers queued data).
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if line.trim().is_empty() {
                continue;
            }
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
            let (reply, stop) = match parse_request(&line) {
                Ok(req) => {
                    let stop = matches!(req, Request::Shutdown);
                    let Some(reply) = self.handle(req, &mut reader, &line) else { return };
                    (reply, stop)
                }
                Err(detail) => (self.error(&detail), false),
            };
            // The one socket write: the whole reply at once.
            if writer.write_all(reply.as_bytes()).is_err() {
                return;
            }
            if stop {
                self.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.addr); // wake the accept loop
                return;
            }
        }
    }

    /// Handle one parsed request, wrapped with observability: per-verb
    /// latency recording for every verb but the terminal `SHUTDOWN`, and
    /// the `--slow-ms` structured slow-request log. Both cover reading the
    /// request (a `BATCH`/`BATCHALL`'s item lines included) and rendering
    /// the reply, not writing it.
    fn handle(&self, req: Request, reader: &mut impl BufRead, line: &str) -> Option<String> {
        let recorded = match &req {
            Request::Check { .. } => Some(Verb::Check),
            Request::Batch { .. } => Some(Verb::Batch),
            Request::CheckAll { .. } => Some(Verb::CheckAll),
            Request::BatchAll { .. } => Some(Verb::BatchAll),
            Request::CatalogAdd { .. } => Some(Verb::CatalogAdd),
            Request::CatalogDrop { .. } => Some(Verb::CatalogDrop),
            Request::CatalogList => Some(Verb::CatalogList),
            Request::CatalogVerify => Some(Verb::CatalogVerify),
            Request::Stats => Some(Verb::Stats),
            Request::Metrics => Some(Verb::Metrics),
            Request::Ping => Some(Verb::Ping),
            Request::Shutdown => None,
        };
        let wire_verb = req.wire_verb();
        // The slow log works even with metrics disabled, so it times with
        // its own clock rather than obs::clock().
        let slow_from = self.slow_ms.map(|_| Instant::now());
        let span = if recorded.is_some() { obs::clock() } else { None };
        let out = self.handle_inner(req, reader);
        if let Some(verb) = recorded {
            obs::verb_elapsed(verb, span);
        }
        if let (Some(started), Some(threshold)) = (slow_from, self.slow_ms) {
            let dur = started.elapsed();
            if dur >= Duration::from_millis(threshold) {
                let shown: String = line.trim_end().chars().take(200).collect();
                eprintln!(
                    "SLOW trace={:016x} verb={wire_verb} dur_us={} request={}",
                    obs::next_trace_id(),
                    dur.as_micros(),
                    escape(&shown),
                );
            }
        }
        out
    }

    /// Handle one parsed request and render its whole reply, each line
    /// `\n`-terminated. `None` closes the connection (the client hung up
    /// mid-batch).
    fn handle_inner(&self, req: Request, reader: &mut impl BufRead) -> Option<String> {
        // Writing into a `String` cannot fail, so `writeln!` results are
        // discarded below.
        let reply = match req {
            Request::Ping => "OK pong\n".to_string(),
            Request::Shutdown => {
                // Flush the log before acknowledging: once the client has
                // read "OK bye", every mutation it was acknowledged for is
                // on disk even if the process dies before the clean
                // compaction. (Appends already fsync individually; this is
                // a defensive barrier, and it must precede the reply.)
                if let Some(store) = self.catalog.store() {
                    let _ = store.lock().expect("catalog store lock").sync();
                }
                "OK bye\n".to_string()
            }
            Request::Check { view, update } => {
                let report = self.pool.check(&[(Target::View(&view), &update)]);
                format!("OK {}\n", report_line(&report.items[0].reports))
            }
            Request::Batch { count } => match read_items(reader, count, parse_batch_item)? {
                Err(detail) => self.error(&detail),
                Ok(items) => {
                    let named: Vec<_> =
                        items.iter().map(|(v, t)| (Target::View(v), t.as_str())).collect();
                    let report = self.pool.check(&named);
                    let s = report.stats;
                    let end = format!(
                        "items={} parse_hits={} probe_hits={} probe_misses={} groups={}",
                        s.items, s.parse_hits, s.probe_hits, s.probe_misses, s.target_groups
                    );
                    item_lines(items.len(), &report, true, &end)
                }
            },
            Request::CheckAll { update } => {
                let report = self.pool.check(&[(Target::Routed, &update)]);
                let f = report.fanout;
                let end = format!(
                    "views={} candidates={} pruned={} fallbacks={}",
                    f.views, f.candidates, f.pruned, f.fallbacks
                );
                item_lines(report.items.len(), &report, false, &end)
            }
            Request::BatchAll { count } => match read_items(reader, count, parse_batchall_item)? {
                Err(detail) => self.error(&detail),
                Ok(updates) => {
                    let routed: Vec<_> =
                        updates.iter().map(|u| (Target::Routed, u.as_str())).collect();
                    let report = self.pool.check(&routed);
                    let f = report.fanout;
                    let end = format!(
                        "items={} fanout_requests={} candidates={} pruned={} fallbacks={}",
                        updates.len(),
                        f.fanout_requests,
                        f.candidates,
                        f.pruned,
                        f.fallbacks
                    );
                    item_lines(updates.len(), &report, true, &end)
                }
            },
            Request::CatalogAdd { name, view_text } => match self.catalog.add(&name, &view_text) {
                Ok(info) => format!("OK added {} reads={}\n", info.name, info.relations.join(",")),
                Err(e) => self.error(&e.to_string()),
            },
            Request::CatalogDrop { name } => match self.catalog.drop_view(&name) {
                Ok(()) => format!("OK dropped {name}\n"),
                Err(e) => self.error(&e.to_string()),
            },
            Request::CatalogList => {
                let views = self.catalog.list();
                let mut out = format!("OK {}\n", views.len());
                for v in views {
                    let reads = v.relations.join(",");
                    let _ = writeln!(out, "VIEW {} reads={reads} cached={}", v.name, v.cached);
                }
                out
            }
            Request::CatalogVerify => {
                let Some(store) = self.catalog.store() else {
                    return Some(
                        self.error("no durable store attached (start the server with --data-dir)"),
                    );
                };
                let dir = store.lock().expect("catalog store lock").dir().to_path_buf();
                match ufilter_core::CatalogStore::verify(&dir) {
                    Ok(report) => {
                        // Does folding the on-disk records reproduce the
                        // live view set?
                        let live: Vec<String> =
                            self.catalog.list().into_iter().map(|v| v.name).collect();
                        let matches = if live == report.views { "yes" } else { "no" };
                        format!(
                            "OK generation={} snapshot_records={} log_records={} \
                             torn_bytes={} stale_log={} views={} ddl={} match={matches}\n",
                            report.generation,
                            report.snapshot_records,
                            report.log_records,
                            report.torn_bytes,
                            report.stale_log,
                            report.views.len(),
                            report.ddl_records,
                        )
                    }
                    Err(e) => self.error(&e.to_string()),
                }
            }
            Request::Stats => {
                let pairs: Vec<String> = STATS_FAMILIES
                    .iter()
                    .zip(self.stats_values())
                    .map(|(f, v)| format!("{}={v}", f.stats_key))
                    .collect();
                format!("OK {}\n", pairs.join(" "))
            }
            Request::Metrics => {
                let lines = metrics::render(&self.stats_values(), &obs::snapshot());
                let mut out = format!("OK {}\n", lines.len());
                for l in &lines {
                    out.push_str(l);
                    out.push('\n');
                }
                out
            }
        };
        Some(reply)
    }

    /// An `ERR` reply line, counted in the `STATS` `errors` key.
    fn error(&self, detail: &str) -> String {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        format!("{}\n", err_reply(detail))
    }

    /// The live `STATS` values in [`STATS_FAMILIES`] order: the one source
    /// both the `STATS` reply and the `METRICS` exposition render.
    /// Persistence counters are zero without `--data-dir` (the keys are
    /// still present — the reply format does not depend on configuration).
    fn stats_values(&self) -> [u64; STATS_FAMILIES.len()] {
        let (jobs, checked, fanout) = self.pool.stats();
        let (appends, syncs, compactions, replayed) =
            self.catalog.store().map_or((0, 0, 0, 0), |store| {
                let s = store.lock().expect("catalog store lock").stats();
                (s.appends, s.syncs, s.compactions, s.recovered_records as u64)
            });
        // One read guard, so views, compile hits and trie gauges agree.
        let (views, compile_hits, trie) = {
            let catalog = self.catalog.read();
            (catalog.len(), catalog.compile_cache_hits(), catalog.index_stats())
        };
        let indep = ufilter_core::independence::stats();
        let load = |counter: &AtomicUsize| counter.load(Ordering::Relaxed) as u64;
        [
            self.pool.workers() as u64,
            views as u64,
            load(&self.stats.connections),
            load(&self.stats.requests),
            load(&self.stats.errors),
            jobs as u64,
            checked.items as u64,
            checked.probe_hits as u64,
            checked.probe_misses as u64,
            compile_hits as u64,
            appends,
            syncs,
            compactions,
            replayed,
            fanout.fanout_requests as u64,
            fanout.candidates as u64,
            fanout.pruned as u64,
            fanout.fallbacks as u64,
            trie.nodes as u64,
            trie.postings as u64,
            trie.bytes as u64,
            trie.inserts,
            trie.removes,
            indep.checked,
            indep.independent,
            indep.dependent,
            indep.unknown,
        ]
    }
}

/// Read one request line of at most [`MAX_LINE_BYTES`]. `None` closes the
/// connection: end of file before any byte, a read error, an over-long
/// line, or a line that is not UTF-8 (not this protocol). The bytes are
/// decoded only once the whole line is in, since escaped payloads pass
/// non-ASCII through raw.
fn read_line(reader: &mut impl BufRead) -> Option<String> {
    let mut bytes = Vec::new();
    // One byte past the cap tells an over-long line from one that fits.
    let n = reader.take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut bytes).ok()?;
    if n == 0 || n > MAX_LINE_BYTES {
        return None;
    }
    String::from_utf8(bytes).ok()
}

/// Read the body of a `BATCH`/`BATCHALL`: exactly `count` item lines, each
/// parsed with `parse`. Every line is consumed even after a malformed one —
/// replying `ERR` early would leave the rest of the batch in the stream to
/// be misread as top-level requests, desyncing every later request/reply
/// pair. `Err` carries the first malformed item's detail; `None` means the
/// connection ended mid-batch.
fn read_items<T>(
    reader: &mut impl BufRead,
    count: usize,
    parse: fn(&str) -> Result<T, String>,
) -> Option<Result<Vec<T>, String>> {
    let mut items = Ok(Vec::with_capacity(count));
    for _ in 0..count {
        let line = read_line(reader)?;
        if let Ok(parsed) = &mut items {
            match parse(&line) {
                Ok(item) => parsed.push(item),
                Err(detail) => items = Err(detail),
            }
        }
    }
    Some(items)
}

/// The reply to a multi-item check verb: `OK <n>`, one `ITEM` line per
/// action report (`ITEM <index> <view> <outcome>` when `indexed`, else
/// `ITEM <view> <outcome>`), then `END <end>`.
fn item_lines(n: usize, report: &BatchReport, indexed: bool, end: &str) -> String {
    let mut out = format!("OK {n}\n");
    for item in &report.items {
        for r in &item.reports {
            if indexed {
                let _ = write!(out, "ITEM {} ", item.index);
            } else {
                out.push_str("ITEM ");
            }
            let _ = writeln!(out, "{} {}", item.view, encode_outcome(&r.outcome));
        }
    }
    let _ = writeln!(out, "END {end}");
    out
}

/// Tab-join the wire outcomes of one update's action reports (the `CHECK`
/// reply payload).
pub fn report_line(reports: &[CheckReport]) -> String {
    reports.iter().map(|r| encode_outcome(&r.outcome)).collect::<Vec<String>>().join("\t")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use ufilter_core::bookdemo;

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

        /// Send `text` (one or more lines) and its final newline in one
        /// write.
        fn send(&mut self, text: &str) {
            self.writer.write_all(format!("{text}\n").as_bytes()).unwrap();
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("server replies");
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    fn spawn_book_server(workers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
        catalog.add("books", bookdemo::BOOK_VIEW).unwrap();
        let db = bookdemo::book_db();
        let server = CheckServer::bind("127.0.0.1:0", catalog, &db, workers).expect("binds");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serves"));
        (addr, handle)
    }

    #[test]
    fn full_session_over_tcp() {
        let (addr, handle) = spawn_book_server(2);
        let mut c = Client::connect(addr);

        assert_eq!(c.roundtrip("PING"), "OK pong");

        // CHECK: u8 is translatable, u10 is not; both come back as OK with
        // a wire outcome.
        let ok = c.roundtrip(&crate::proto::check_request("books", bookdemo::U8));
        assert!(ok.starts_with("OK translatable"), "{ok}");
        let rejected = c.roundtrip(&crate::proto::check_request("books", bookdemo::U10));
        assert!(rejected.starts_with("OK untranslatable"), "{rejected}");

        // Catalog mutation over the wire.
        let added = c.roundtrip(&crate::proto::catalog_add_request("books2", bookdemo::BOOK_VIEW));
        assert!(added.starts_with("OK added books2"), "{added}");
        assert_eq!(c.roundtrip("CATALOG LIST"), "OK 2");
        assert!(c.recv().starts_with("VIEW books "));
        assert!(c.recv().starts_with("VIEW books2 "));
        let dup = c.roundtrip(&crate::proto::catalog_add_request("books2", bookdemo::BOOK_VIEW));
        assert!(dup.starts_with("ERR "), "{dup}");
        assert!(c.roundtrip("CATALOG DROP books2").starts_with("OK dropped"));

        // BATCH: three items, replies in input order, END carries stats.
        c.send("BATCH 3");
        for u in [bookdemo::U8, bookdemo::U10, bookdemo::U8] {
            c.send(&crate::proto::batch_item("books", u));
        }
        assert_eq!(c.recv(), "OK 3");
        let items: Vec<String> = (0..3).map(|_| c.recv()).collect();
        assert!(items[0].starts_with("ITEM 0 books translatable"), "{}", items[0]);
        assert!(items[1].starts_with("ITEM 1 books untranslatable"), "{}", items[1]);
        assert!(items[2].starts_with("ITEM 2 books translatable"), "{}", items[2]);
        assert!(c.recv().starts_with("END items=3 "));

        // A malformed BATCH item drains the remaining item lines before
        // the ERR reply, so the connection stays in sync.
        c.send("BATCH 2");
        c.send("malformed-no-space");
        c.send(&crate::proto::batch_item("books", bookdemo::U8));
        assert!(c.recv().starts_with("ERR "), "malformed batch item rejected");
        assert_eq!(c.roundtrip("PING"), "OK pong", "connection still in sync after batch ERR");

        // Unknown commands keep the connection usable.
        assert!(c.roundtrip("FROBNICATE").starts_with("ERR "));
        let stats = c.roundtrip("STATS");
        assert!(stats.starts_with("OK workers=2 "), "{stats}");
        assert!(stats.contains("views=1"), "{stats}");

        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().expect("clean shutdown");
    }

    #[test]
    fn checkall_and_batchall_fan_out_over_tcp() {
        let (addr, handle) = spawn_book_server(2);
        let mut c = Client::connect(addr);

        // CHECKALL: one registered view, one candidate, END with counters.
        c.send(&crate::proto::checkall_request(bookdemo::U8));
        assert_eq!(c.recv(), "OK 1");
        let item = c.recv();
        assert!(item.starts_with("ITEM books translatable"), "{item}");
        let end = c.recv();
        assert!(end.starts_with("END views=1 candidates=1 pruned=0 fallbacks=0"), "{end}");

        // BATCHALL: two updates, items keyed by update index, END counters.
        c.send("BATCHALL 2");
        c.send(&crate::proto::batchall_item(bookdemo::U8));
        c.send(&crate::proto::batchall_item(bookdemo::U10));
        assert_eq!(c.recv(), "OK 2");
        let first = c.recv();
        assert!(first.starts_with("ITEM 0 books translatable"), "{first}");
        let second = c.recv();
        assert!(second.starts_with("ITEM 1 books untranslatable"), "{second}");
        let end = c.recv();
        assert!(end.starts_with("END items=2 fanout_requests=2 candidates=2 "), "{end}");

        // A malformed BATCHALL item drains before the ERR reply.
        c.send("BATCHALL 2");
        c.send("raw spaces are not escaped");
        c.send(&crate::proto::batchall_item(bookdemo::U8));
        assert!(c.recv().starts_with("ERR "), "malformed batchall item rejected");
        assert_eq!(c.roundtrip("PING"), "OK pong", "connection in sync after batchall ERR");

        // STATS carries the fan-out counters and the routing-index gauges,
        // stable-ordered at the tail.
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("fanout_requests=3"), "{stats}");
        let keys: Vec<&str> = stats.split(' ').filter_map(|kv| kv.split('=').next()).collect();
        let tail = &keys[keys.len() - 13..];
        assert_eq!(
            tail,
            [
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
                "independence_unknown"
            ],
            "{stats}"
        );
        // One registered view populates the trie: nodes, postings and at
        // least one recorded insert.
        let gauge = |key: &str| -> u64 {
            stats
                .split(' ')
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("missing {key} in {stats}"))
                .parse()
                .unwrap()
        };
        assert!(gauge("trie_nodes") > 0, "{stats}");
        assert!(gauge("trie_postings") > 0, "{stats}");
        assert!(gauge("trie_bytes") > 0, "{stats}");
        assert!(gauge("trie_inserts") >= 1, "{stats}");

        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().expect("clean shutdown");
    }

    #[test]
    fn metrics_reports_prometheus_families_after_traffic() {
        let (addr, handle) = spawn_book_server(2);
        let mut c = Client::connect(addr);

        // Traffic first, so the check-stage histograms have samples.
        let ok = c.roundtrip(&crate::proto::check_request("books", bookdemo::U8));
        assert!(ok.starts_with("OK "), "{ok}");
        c.send(&crate::proto::checkall_request(bookdemo::U8));
        assert_eq!(c.recv(), "OK 1");
        c.recv(); // ITEM
        c.recv(); // END

        let header = c.roundtrip("METRICS");
        let n: usize = header.strip_prefix("OK ").expect(&header).parse().unwrap();
        let lines: Vec<String> = (0..n).map(|_| c.recv()).collect();
        assert!(n > 50, "full exposition, not a stub: {n} lines");

        let value_of = |prefix: &str| -> f64 {
            lines
                .iter()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no line starts with {prefix}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // Exposition-format sanity: HELP/TYPE for every STATS family, and
        // the per-server gauges carry this server's live values.
        for family in STATS_FAMILIES {
            assert!(
                lines.iter().any(|l| *l == format!("# TYPE {} {}", family.family, family.kind)),
                "missing TYPE for {}",
                family.family
            );
        }
        assert_eq!(value_of("ufilter_workers "), 2.0);
        assert_eq!(value_of("ufilter_views "), 1.0);
        assert!(value_of("ufilter_requests_total ") >= 3.0);

        // The histogram summaries saw the traffic above. The obs registry
        // is process-global (shared with sibling tests), so only >= holds.
        for prefix in [
            "ufilter_check_stage_duration_seconds_count{stage=\"parse\"}",
            "ufilter_check_stage_duration_seconds_count{stage=\"validate\"}",
            "ufilter_check_stage_duration_seconds_count{stage=\"star\"}",
            "ufilter_request_duration_seconds_count{verb=\"check\"}",
            "ufilter_request_duration_seconds_count{verb=\"checkall\"}",
            "ufilter_queue_wait_seconds_count",
            "ufilter_shard_lock_hold_seconds_count{kind=\"read\"}",
            "ufilter_route_candidates_count",
        ] {
            assert!(value_of(prefix) >= 1.0, "{prefix} has no samples");
        }
        // Quantiles are ordered and the labels are well-formed.
        let p50 = value_of("ufilter_request_duration_seconds{verb=\"check\",quantile=\"0.5\"}");
        let p999 = value_of("ufilter_request_duration_seconds{verb=\"check\",quantile=\"0.999\"}");
        assert!(p50 > 0.0 && p999 >= p50, "p50={p50} p999={p999}");

        // A request's own latency lands after its reply renders, so the
        // METRICS verb only shows up from the second scrape on.
        let header = c.roundtrip("METRICS");
        let n: usize = header.strip_prefix("OK ").expect(&header).parse().unwrap();
        let lines: Vec<String> = (0..n).map(|_| c.recv()).collect();
        let metrics_count = lines
            .iter()
            .find(|l| l.starts_with("ufilter_request_duration_seconds_count{verb=\"metrics\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap();
        assert!(metrics_count >= 1.0, "second scrape sees the first METRICS request");

        // The connection is still in sync and STATS is untouched.
        assert_eq!(c.roundtrip("PING"), "OK pong");
        assert!(c.roundtrip("METRICS extra").starts_with("ERR "));
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_connections_get_consistent_answers() {
        // One slot for four connections: they queue for it.
        let (addr, handle) = spawn_book_server(1);
        let clients: Vec<std::thread::JoinHandle<Vec<String>>> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    (0..5)
                        .map(|i| {
                            let u = if i % 2 == 0 { bookdemo::U8 } else { bookdemo::U10 };
                            c.roundtrip(&crate::proto::check_request("books", u))
                        })
                        .collect()
                })
            })
            .collect();
        let answers: Vec<Vec<String>> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        for a in &answers {
            assert_eq!(a, &answers[0], "every client sees identical outcomes");
        }
        let mut c = Client::connect(addr);
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();
    }

    #[test]
    fn durable_server_restarts_warm_with_identical_wire_replies() {
        use std::sync::Mutex;
        use ufilter_core::CatalogStore;

        let dir =
            std::env::temp_dir().join(format!("ufilter-server-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let spawn_durable = |dir: &std::path::Path| {
            let mut db = bookdemo::book_db();
            let store = CatalogStore::open(dir).unwrap();
            let mut catalog = ShardedCatalog::new(bookdemo::book_schema());
            catalog.replay(&mut db, store.records()).unwrap();
            catalog.attach_store(Arc::new(Mutex::new(store)));
            let server =
                CheckServer::bind("127.0.0.1:0", Arc::new(catalog), &db, 2).expect("binds");
            let addr = server.local_addr();
            (addr, std::thread::spawn(move || server.run().expect("serves")))
        };

        // Session 1: add two views, capture LIST + CHECK replies, shut down.
        let (addr, handle) = spawn_durable(&dir);
        let mut c = Client::connect(addr);
        for name in ["books", "books2"] {
            let added = c.roundtrip(&crate::proto::catalog_add_request(name, bookdemo::BOOK_VIEW));
            assert!(added.starts_with("OK added"), "{added}");
        }
        let verify = c.roundtrip("CATALOG VERIFY");
        assert!(verify.starts_with("OK generation=1 "), "{verify}");
        assert!(verify.ends_with("match=yes"), "{verify}");
        let capture = |c: &mut Client| {
            let mut lines = vec![c.roundtrip("CATALOG LIST")];
            for _ in 0..2 {
                lines.push(c.recv());
            }
            lines.push(c.roundtrip(&crate::proto::check_request("books", bookdemo::U8)));
            lines.push(c.roundtrip(&crate::proto::check_request("books2", bookdemo::U10)));
            lines
        };
        let before = capture(&mut c);
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("persist_appends=2"), "{stats}");
        assert!(stats.contains("persist_replayed=0"), "{stats}");
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();

        // Session 2: same data dir, nothing re-added — clean shutdown left
        // a gen-2 snapshot, replay rebuilds the same catalog.
        let (addr, handle) = spawn_durable(&dir);
        let mut c = Client::connect(addr);
        let after = capture(&mut c);
        assert_eq!(before, after, "wire replies identical across restart");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("persist_replayed=2"), "{stats}");
        let verify = c.roundtrip("CATALOG VERIFY");
        assert!(verify.starts_with("OK generation=2 "), "{verify}");
        assert!(verify.ends_with("match=yes"), "{verify}");
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_without_store_is_an_error() {
        let (addr, handle) = spawn_book_server(1);
        let mut c = Client::connect(addr);
        let reply = c.roundtrip("CATALOG VERIFY");
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(reply.contains("data-dir"), "{reply}");
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_handle_stops_the_server() {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
        let db = bookdemo::book_db();
        let server = CheckServer::bind("127.0.0.1:0", catalog, &db, 1).unwrap();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        shutdown.shutdown();
        handle.join().expect("run() returns after shutdown_handle");
    }

    #[test]
    fn shutdown_wakes_an_idle_connection_at_once() {
        let catalog = Arc::new(ShardedCatalog::new(bookdemo::book_schema()));
        let server = CheckServer::bind("127.0.0.1:0", catalog, &bookdemo::book_db(), 1).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut idle = Client::connect(addr);
        assert_eq!(idle.roundtrip("PING"), "OK pong");

        let started = Instant::now();
        shutdown.shutdown();
        handle.join().unwrap();
        let waited = started.elapsed();
        assert!(waited < Duration::from_millis(100), "run() returned after {waited:?}");
        assert_eq!(idle.recv(), "", "the idle client sees the server close");
    }

    /// A reply or request split across writes has its tail held by Nagle's
    /// algorithm until the peer's delayed ACK, about 44 ms a round trip on
    /// Linux. Both replies here exceed 8 KiB, so an 8 KiB write buffer
    /// would split them.
    #[test]
    fn replies_over_8_kib_are_not_held_for_a_delayed_ack() {
        let (addr, handle) = spawn_book_server(2);
        let mut c = Client::connect(addr);
        let updates = [bookdemo::U8, bookdemo::U10, bookdemo::U13, bookdemo::U5];
        let mut batch = vec!["BATCH 64".to_string()];
        batch.extend((0..64).map(|i| crate::proto::batch_item("books", updates[i % 4])));
        let batch = batch.join("\n");

        // One round trip: (reply bytes, milliseconds).
        let mut timed = |request: &str| -> (usize, f64) {
            let started = Instant::now();
            c.send(request);
            let mut lines = vec![c.recv()];
            if request == "METRICS" {
                let n: usize = lines[0].strip_prefix("OK ").unwrap().parse().unwrap();
                lines.extend((0..n).map(|_| c.recv()));
            } else {
                while !lines.last().unwrap().starts_with("END ") {
                    lines.push(c.recv());
                }
            }
            let ms = started.elapsed().as_secs_f64() * 1e3;
            (lines.iter().map(|l| l.len() + 1).sum(), ms)
        };
        let (mut metrics_ms, mut batch_ms) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let (bytes, ms) = timed("METRICS");
            assert!(bytes > 8192, "METRICS reply is {bytes} bytes");
            metrics_ms.push(ms);
            let (bytes, ms) = timed(&batch);
            assert!(bytes > 8192, "BATCH reply is {bytes} bytes");
            batch_ms.push(ms);
        }
        let median = |mut ms: Vec<f64>| {
            ms.sort_by(f64::total_cmp);
            ms[ms.len() / 2]
        };
        let (metrics, batch) = (median(metrics_ms), median(batch_ms));
        assert!(
            metrics < 20.0 && batch < 20.0,
            "median round trips: METRICS {metrics:.1} ms, BATCH {batch:.1} ms"
        );
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK bye");
        handle.join().unwrap();
    }
}
