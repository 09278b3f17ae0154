//! End-to-end tests for `ufilter serve` / `ufilter client`: spawn the real
//! binary as a server on an ephemeral loopback port, drive it with scripted
//! client sessions, and hold the concurrent server to the single-threaded
//! `check-batch` output byte for byte.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// A scratch file path under cargo's per-test-target temporary directory
/// (cargo creates it; the client gets the absolute path).
fn scratch(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("utf-8 temp path").to_string()
}

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ufilter"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// A running `ufilter serve` child that is killed on drop (so a failing
/// test never leaks a listener).
struct Serve {
    child: Child,
    addr: String,
}

impl Serve {
    /// Spawn `ufilter serve` on an ephemeral port and wait for its
    /// `LISTENING <addr>` line.
    fn spawn(workers: &str) -> Serve {
        Serve::spawn_with("fixtures/views.cat", workers)
    }

    /// [`spawn`](Serve::spawn) with an explicit view manifest.
    fn spawn_with(manifest: &str, workers: &str) -> Serve {
        let mut child = bin()
            .args([
                "--schema",
                "fixtures/book.sql",
                "--views",
                manifest,
                "--listen",
                "127.0.0.1:0",
                "--workers",
                workers,
                "serve",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("serve spawns");
        let stdout = child.stdout.take().expect("piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("serve prints LISTENING");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        Serve { child, addr }
    }

    /// Run a client script against this server; returns its whole output.
    fn client_output(&self, script: &str) -> std::process::Output {
        use std::io::Write;
        let mut child = bin()
            .args(["client", &self.addr, "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("client spawns");
        child.stdin.take().expect("piped").write_all(script.as_bytes()).expect("script written");
        child.wait_with_output().expect("client exits")
    }

    /// Run a client script against this server; returns (stdout, exit code).
    fn client(&self, script: &str) -> (String, Option<i32>) {
        let out = self.client_output(script);
        assert!(out.stderr.is_empty(), "client stderr: {}", String::from_utf8_lossy(&out.stderr));
        (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code())
    }

    /// Send `shutdown` and wait for the server to exit cleanly.
    fn shutdown(mut self) {
        let (_, code) = self.client("shutdown\n");
        assert_eq!(code, Some(0));
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exit status: {status:?}");
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The acceptance property: a 4-worker server produces byte-identical
/// check outcomes to the single-threaded `check-batch` CLI on the same
/// stream.
#[test]
fn serve_4_workers_matches_check_batch_byte_for_byte() {
    let (batch_out, batch_code) = {
        let out = bin()
            .args([
                "--schema",
                "fixtures/book.sql",
                "--catalog",
                "fixtures/views.cat",
                "check-batch",
                "fixtures/batch.ubatch",
            ])
            .output()
            .expect("check-batch runs");
        (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code())
    };
    assert_eq!(batch_code, Some(1), "stream contains an untranslatable update");
    let batch_lines: Vec<&str> = batch_out.lines().filter(|l| l.starts_with('[')).collect();
    assert_eq!(batch_lines.len(), 3, "{batch_out}");

    let serve = Serve::spawn("4");
    let (client_out, client_code) = serve.client("batch fixtures/batch.ubatch\n");
    assert_eq!(client_code, Some(0), "{client_out}");
    let client_lines: Vec<&str> = client_out.lines().filter(|l| l.starts_with('[')).collect();
    assert_eq!(client_lines, batch_lines, "serve outcomes diverge from check-batch");
    serve.shutdown();
}

/// The fan-out acceptance property: a 4-worker server's `checkall` reply
/// is byte-identical to the single-threaded `check-all` CLI over the same
/// 26-view manifest.
#[test]
fn serve_checkall_matches_check_all_byte_for_byte() {
    let (cli_out, cli_code) = {
        let out = bin()
            .args([
                "--schema",
                "fixtures/book.sql",
                "--catalog",
                "fixtures/views_many.cat",
                "check-all",
                "fixtures/u8.xq",
            ])
            .output()
            .expect("check-all runs");
        (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code())
    };
    assert_eq!(cli_code, Some(1), "some candidates are untranslatable");
    let cli_lines: Vec<&str> = cli_out.lines().filter(|l| !l.starts_with("---")).collect();
    assert!(cli_lines.len() > 10, "{cli_out}");

    let serve = Serve::spawn_with("fixtures/views_many.cat", "4");
    let (client_out, code) = serve.client("checkall fixtures/u8.xq\n");
    assert_eq!(code, Some(0), "{client_out}");
    let client_lines: Vec<&str> = client_out.lines().filter(|l| !l.starts_with("---")).collect();
    assert_eq!(client_lines, cli_lines, "serve fan-out diverges from check-all");
    assert!(
        client_out.lines().last().unwrap().starts_with("--- views=26 candidates=19 pruned=7"),
        "{client_out}"
    );
    serve.shutdown();
}

/// `batchall` fans a '-- update'-separated stream out and prints
/// per-update candidate outcomes.
#[test]
fn client_batchall_roundtrip() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let uall = scratch("service_cli.uall");
    let text = format!(
        "-- update\n{}\n-- update\n{}\n",
        std::fs::read_to_string(root.join("fixtures/u8.xq")).unwrap().trim(),
        std::fs::read_to_string(root.join("fixtures/u10.xq")).unwrap().trim(),
    );
    std::fs::write(&uall, text).unwrap();
    let serve = Serve::spawn("2");
    let (out, code) = serve.client(&format!("batchall {uall}\n"));
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("[1] books: translatable"), "{out}");
    assert!(out.contains("[2] books: untranslatable"), "{out}");
    assert!(out.contains("--- items=2 fanout_requests=2 candidates=2"), "{out}");
    serve.shutdown();
}

/// `client batch` refuses a `-- view:` header whose name is empty or holds
/// whitespace exactly as `check-batch` does (a `path:line` error, exit 2),
/// before it sends anything, so no item of the file is checked.
#[test]
fn client_batch_rejects_a_header_without_one_view_name() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let u8_text = std::fs::read_to_string(root.join("fixtures/u8.xq")).unwrap();
    let serve = Serve::spawn("2");
    for (i, header) in ["-- view:", "-- view: my books"].into_iter().enumerate() {
        let path = scratch(&format!("service_cli_bad_header{i}.ubatch"));
        std::fs::write(&path, format!("{header}\n{u8_text}-- view: books\n{u8_text}")).unwrap();
        let out = serve.client_output(&format!("batch {path}\n"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{header:?}: {stderr}");
        assert!(stderr.contains(&format!("{path}:1: ")), "{header:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{header:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    let (stats, _) = serve.client("stats\n");
    assert!(stats.contains(" checked=0 "), "{stats}");
    serve.shutdown();
}

#[test]
fn scripted_session_checks_catalog_and_stats() {
    let serve = Serve::spawn("2");
    let script = "\
# full scripted round trip
ping
list
check books fixtures/u8.xq
check books fixtures/u10.xq
add books2 fixtures/bookview.xq
list
drop books2
stats
";
    let (out, code) = serve.client(script);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("OK pong"), "{out}");
    assert!(out.contains("VIEW books reads=book,publisher,review"), "{out}");
    assert!(out.contains("books: translatable"), "{out}");
    assert!(out.contains("books: untranslatable"), "{out}");
    assert!(out.contains("OK added books2"), "{out}");
    assert!(out.contains("VIEW books2"), "{out}");
    assert!(out.contains("OK dropped books2"), "{out}");
    assert!(out.contains("OK workers=2"), "{out}");
    assert!(!out.contains("ERR"), "no ERR reply expected: {out}");
    serve.shutdown();
}

/// `client metrics` prints the server's Prometheus exposition: typed
/// families for every STATS counter plus latency summaries with non-zero
/// counts once traffic has flowed.
#[test]
fn client_metrics_prints_prometheus_exposition() {
    let serve = Serve::spawn("2");
    let (out, code) = serve.client(
        "check books fixtures/u8.xq\n\
         checkall fixtures/u8.xq\n\
         metrics\n",
    );
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("# TYPE ufilter_requests_total counter"), "{out}");
    assert!(out.contains("# TYPE ufilter_request_duration_seconds summary"), "{out}");
    assert!(out.contains("ufilter_workers 2"), "{out}");
    // The check + checkall traffic left real samples behind.
    for prefix in [
        "ufilter_request_duration_seconds_count{verb=\"check\"}",
        "ufilter_check_stage_duration_seconds_count{stage=\"star\"}",
        "ufilter_route_candidates_count",
    ] {
        let line = out
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing {prefix}: {out}"));
        let count: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count >= 1.0, "{line}");
    }
    serve.shutdown();
}

/// `serve --slow-ms 0` logs every request as a single-line SLOW record on
/// stderr, carrying a 16-hex trace id, the wire verb, and the duration.
#[test]
fn slow_ms_zero_logs_slow_lines_with_trace_ids() {
    let mut child = bin()
        .args([
            "--schema",
            "fixtures/book.sql",
            "--views",
            "fixtures/views.cat",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--slow-ms",
            "0",
            "serve",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("serve prints LISTENING");
    let addr = line.trim().strip_prefix("LISTENING ").expect("LISTENING banner").to_string();

    let mut serve = Serve { child, addr };
    let (out, code) = serve.client("check books fixtures/u8.xq\nping\nshutdown\n");
    assert_eq!(code, Some(0), "{out}");
    let status = serve.child.wait().expect("serve exits");
    assert!(status.success(), "serve exit status: {status:?}");

    let mut stderr = String::new();
    {
        use std::io::Read;
        let mut pipe = serve.child.stderr.take().expect("piped");
        pipe.read_to_string(&mut stderr).expect("stderr readable");
    }
    let slow: Vec<&str> = stderr.lines().filter(|l| l.starts_with("SLOW ")).collect();
    // Every verb crosses a 0ms threshold — the slow log is a diagnostic
    // surface and covers even SHUTDOWN (unlike the metrics histograms).
    assert!(slow.len() >= 3, "expected >=3 SLOW lines: {stderr}");
    assert!(slow.iter().any(|l| l.contains("verb=check")), "{stderr}");
    assert!(slow.iter().any(|l| l.contains("verb=ping")), "{stderr}");
    assert!(slow.iter().any(|l| l.contains("verb=shutdown")), "{stderr}");
    for l in &slow {
        let trace = l
            .split_whitespace()
            .find_map(|w| w.strip_prefix("trace="))
            .unwrap_or_else(|| panic!("no trace id: {l}"));
        assert_eq!(trace.len(), 16, "{l}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{l}");
        assert!(l.contains("dur_us="), "{l}");
        assert!(l.contains("request="), "{l}");
    }
}

#[test]
fn client_surfaces_server_errors_with_exit_1() {
    let serve = Serve::spawn("1");
    // Dropping an unknown view is a server-side ERR; the client must
    // propagate it as exit code 1 (scripted CI sessions rely on this).
    let (out, code) = serve.client("drop no_such_view\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("ERR"), "{out}");
    serve.shutdown();
}

#[test]
fn client_against_dead_server_is_exit_2() {
    let out = bin()
        .args(["client", "127.0.0.1:1", "-"])
        .stdin(Stdio::null())
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn serve_rejects_bad_manifest_with_exit_2() {
    let out = bin()
        .args(["--schema", "fixtures/book.sql", "--views", "no/such.cat", "serve"])
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no/such.cat"));
}
