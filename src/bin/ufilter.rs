//! `ufilter` — command-line driver for the U-Filter checker.
//!
//! ```text
//! ufilter --schema fixtures/book.sql --view fixtures/bookview.xq check fixtures/u8.xq
//! ufilter --schema fixtures/book.sql --view fixtures/bookview.xq apply fixtures/u13.xq
//! ufilter --schema fixtures/book.sql --view fixtures/bookview.xq show-asg
//! ufilter --schema fixtures/book.sql --view fixtures/bookview.xq materialize
//! ufilter --schema fixtures/book.sql sql "SELECT * FROM book"
//! ufilter --schema fixtures/book.sql --catalog views.cat catalog add books fixtures/bookview.xq
//! ufilter --schema fixtures/book.sql --catalog views.cat check-batch updates.ubatch
//! ```
//!
//! `--schema` takes a `;`-separated SQL script (DDL + data). `--view` takes
//! a view-query file. `--strategy internal|hybrid|outside` and
//! `--mode strict|refined` tune the pipeline. `--catalog` names the view
//! manifest (`name=viewfile` lines) the `catalog`/`check-batch` commands
//! operate on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use u_filter::core::catalog::{is_schema_ddl, ViewCatalog};
use u_filter::core::persist::CatalogStore;
use u_filter::core::wire;
use u_filter::service::{proto, CheckServer, ShardedCatalog};
use u_filter::xquery::materialize;
use u_filter::{CheckOutcome, StarMode, Strategy, UFilter, UFilterConfig};
use ufilter_rdb::{Db, Parser};

/// One usage line, printed under arg errors (unknown option / wrong arity)
/// so every failure with exit code 2 tells the user the expected shape.
const USAGE_LINE: &str =
    "ufilter [--schema <script.sql>] [--view <view.xq>] [--catalog <manifest>] [options] \
     <command> [operands]   (try --help)";

/// Per-command usage lines (same purpose, sharper shape).
fn cmd_usage(cmd: &str) -> &'static str {
    match cmd {
        "check" => "ufilter --schema <s.sql> --view <v.xq> [options] check <update.xq>",
        "apply" => "ufilter --schema <s.sql> --view <v.xq> [options] apply <update.xq>",
        "show-asg" => "ufilter --schema <s.sql> --view <v.xq> show-asg",
        "materialize" => "ufilter --schema <s.sql> --view <v.xq> materialize",
        "sql" => "ufilter --schema <s.sql> [--catalog <manifest>] sql <statement>",
        "catalog" => {
            "ufilter --schema <s.sql> --catalog <manifest> catalog add <name> <view.xq> \
             | catalog list | catalog drop <name> \
             | ufilter --data-dir <dir> catalog compact | catalog verify"
        }
        "check-batch" => {
            "ufilter --schema <s.sql> --catalog <manifest> check-batch <updates.ubatch>"
        }
        "check-all" => "ufilter --schema <s.sql> --catalog <manifest> check-all <update.xq>",
        "serve" => {
            "ufilter --schema <s.sql> [--views <manifest>] [--data-dir <dir>] [--listen <addr>] \
             [--workers <n>] [--slow-ms <ms>] serve"
        }
        "client" => "ufilter client <host:port> <script.ucl | ->",
        _ => USAGE_LINE,
    }
}

fn usage_err(cmd: &str, msg: impl std::fmt::Display) -> String {
    format!("{msg}\nusage: {}", cmd_usage(cmd))
}

struct Args {
    schema: Option<String>,
    view: Option<String>,
    catalog: Option<String>,
    data_dir: Option<String>,
    listen: Option<String>,
    workers: Option<usize>,
    slow_ms: Option<u64>,
    strategy: Strategy,
    mode: StarMode,
    command: String,
    operands: Vec<String>,
}

impl Args {
    fn operand(&self, i: usize, what: &str) -> Result<&str, String> {
        self.operands.get(i).map(String::as_str).ok_or_else(|| usage_err(&self.command, what))
    }

    /// Reject trailing operands beyond the `n` a command consumes.
    fn at_most(&self, n: usize) -> Result<(), String> {
        match self.operands.get(n) {
            Some(extra) => Err(usage_err(&self.command, format!("unexpected argument {extra}"))),
            None => Ok(()),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        schema: None,
        view: None,
        catalog: None,
        data_dir: None,
        listen: None,
        workers: None,
        slow_ms: None,
        strategy: Strategy::Outside,
        mode: StarMode::Refined,
        command: String::new(),
        operands: Vec::new(),
    };
    let general = |msg: String| format!("{msg}\nusage: {USAGE_LINE}");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--schema" => {
                out.schema =
                    Some(args.next().ok_or_else(|| general("--schema needs a file".into()))?)
            }
            "--view" => {
                out.view = Some(args.next().ok_or_else(|| general("--view needs a file".into()))?)
            }
            // `--views` is the serve-flavoured alias from the service docs;
            // both name the same `name=viewfile` manifest.
            "--catalog" | "--views" => {
                out.catalog = Some(args.next().ok_or_else(|| general(format!("{a} needs a file")))?)
            }
            "--data-dir" => {
                out.data_dir = Some(
                    args.next().ok_or_else(|| general("--data-dir needs a directory".into()))?,
                )
            }
            "--listen" => {
                out.listen =
                    Some(args.next().ok_or_else(|| general("--listen needs an address".into()))?)
            }
            "--workers" => {
                let v = args.next().ok_or_else(|| general("--workers needs a count".into()))?;
                out.workers =
                    Some(v.parse::<usize>().ok().filter(|w| *w >= 1).ok_or_else(|| {
                        general(format!("--workers needs a count >= 1, got {v}"))
                    })?);
            }
            "--slow-ms" => {
                let v = args.next().ok_or_else(|| general("--slow-ms needs a threshold".into()))?;
                out.slow_ms = Some(v.parse::<u64>().map_err(|_| {
                    general(format!("--slow-ms needs a millisecond count, got {v}"))
                })?);
            }
            "--strategy" => {
                out.strategy = match args.next().as_deref() {
                    Some("internal") => Strategy::Internal,
                    Some("hybrid") => Strategy::Hybrid,
                    Some("outside") => Strategy::Outside,
                    other => return Err(general(format!("unknown strategy {other:?}"))),
                }
            }
            "--mode" => {
                out.mode = match args.next().as_deref() {
                    Some("strict") => StarMode::Strict,
                    Some("refined") => StarMode::Refined,
                    other => return Err(general(format!("unknown mode {other:?}"))),
                }
            }
            "--help" | "-h" => {
                out.command = "help".into();
                return Ok(out);
            }
            flag if flag.starts_with("--") => {
                return Err(general(format!("unknown option {flag}")))
            }
            cmd if out.command.is_empty() => out.command = cmd.to_string(),
            operand => out.operands.push(operand.to_string()),
        }
    }
    if out.command.is_empty() {
        out.command = "help".into();
    }
    Ok(out)
}

const HELP: &str = "\
ufilter — XML view update translatability checker (U-Filter, ICDE 2006)

USAGE:
    ufilter --schema <script.sql> [--view <view.xq>] [options] <command> [operands]

COMMANDS:
    check <update.xq>    run the three-step check; print the trace + SQL
    apply <update.xq>    check and execute the translated update
    show-asg             print the view ASG with its STAR marks
    materialize          print the materialized XML view
    sql <statement>      run one SQL statement against the loaded schema
                         (DDL is guarded by the catalog when --catalog is given)
    catalog add <name> <view.xq>   register a view in the --catalog manifest
    catalog list                   list registered views with their relations
    catalog drop <name>            unregister a view
    catalog compact                fold the --data-dir snapshot+log into a fresh
                                   snapshot (offline; the server also compacts
                                   on clean shutdown)
    catalog verify                 read-only integrity check of the --data-dir
                                   files; exit 1 if anything would be repaired
    check-batch <updates-file>     batch-check an update stream against the
                                   catalog; blocks start with '-- view: <name>'
    check-all <update.xq>          fan one update out to every catalog view it
                                   could affect (relevance-index routed); prints
                                   one wire outcome per candidate view
    serve                run the concurrent check server (one shared catalog +
                         worker pool); prints 'LISTENING <addr>' once bound.
                         With --data-dir, catalog mutations are durable: the
                         server logs them before acknowledging, recovers them
                         on restart (prints 'RECOVERED ...'), and compacts on
                         clean shutdown
    client <addr> <script>  drive a running server with a scripted session
                            ('-' reads the script from stdin); script verbs:
                            add/drop/list/verify/check/batch/checkall/batchall/
                            stats/metrics/ping/shutdown
    help                 this message

OPTIONS:
    --catalog <file>                     view manifest ('name=viewfile' lines)
    --views <file>                       alias for --catalog (serve-flavoured)
    --data-dir <dir>                     durable catalog directory (serve,
                                         catalog compact/verify)
    --listen <addr>                      serve: bind address (default 127.0.0.1:0)
    --workers <n>                        serve: worker threads (default 4)
    --slow-ms <ms>                       serve: log requests slower than <ms>
                                         milliseconds to stderr as SLOW lines
                                         with a trace id (default: off)
    --strategy internal|hybrid|outside   update-point strategy (default outside)
    --mode strict|refined                Observation-2 handling (default refined)
";

fn load_db(args: &Args) -> Result<Db, String> {
    let Some(path) = &args.schema else {
        return Err("--schema <file> is required".into());
    };
    let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut db = Db::new();
    db.execute_script(&script).map_err(|e| format!("{path}: {e}"))?;
    Ok(db)
}

fn load_filter(args: &Args, db: &Db) -> Result<UFilter, String> {
    let Some(path) = &args.view else {
        return Err("--view <file> is required for this command".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    UFilter::compile(&text, db.schema())
        .map(|f| f.with_config(UFilterConfig { mode: args.mode, strategy: args.strategy }))
        .map_err(|e| format!("{path}: {e}"))
}

/// Read a catalog manifest: `name=viewfile` lines, `#` comments. A missing
/// file is an error unless `allow_missing` (only `catalog add` may create a
/// fresh manifest — everywhere else a typo'd path must not silently behave
/// like an empty catalog and disable the DDL guard).
fn load_manifest(path: &str, allow_missing: bool) -> Result<Vec<(String, String)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && allow_missing => {
            return Ok(Vec::new())
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, file) = line
            .split_once('=')
            .ok_or_else(|| format!("{path}:{}: expected 'name=viewfile'", lineno + 1))?;
        entries.push((name.trim().to_string(), file.trim().to_string()));
    }
    Ok(entries)
}

fn save_manifest(path: &str, entries: &[(String, String)]) -> Result<(), String> {
    let mut out = String::from("# ufilter view catalog: name=viewfile\n");
    for (name, file) in entries {
        out.push_str(&format!("{name}={file}\n"));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Compile every manifest entry into a `ViewCatalog`.
fn build_catalog(args: &Args, path: &str, db: &Db) -> Result<ViewCatalog, String> {
    let mut catalog = ViewCatalog::new(db.schema().clone())
        .with_config(UFilterConfig { mode: args.mode, strategy: args.strategy });
    for (name, file) in load_manifest(path, false)? {
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        catalog.add(&name, &text).map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

fn catalog_path(args: &Args) -> Result<&str, String> {
    args.catalog
        .as_deref()
        .ok_or_else(|| "--catalog <file> is required for this command".to_string())
}

fn data_dir_path(args: &Args) -> Result<&str, String> {
    args.data_dir
        .as_deref()
        .ok_or_else(|| "--data-dir <dir> is required for this command".to_string())
}

/// Parse an update-stream file: blocks introduced by `-- view: <name>`
/// lines, each holding one update statement. Other `--` lines are comments.
fn parse_batch_file(path: &str, text: &str) -> Result<Vec<(String, String)>, String> {
    let mut stream: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("-- view:") {
            stream.push((rest.trim().to_string(), String::new()));
        } else if trimmed.starts_with("--") {
            // Comment line; never part of an update's text.
        } else if let Some((_, update)) = stream.last_mut() {
            update.push_str(line);
            update.push('\n');
        } else if !trimmed.is_empty() {
            return Err(format!(
                "{path}:{}: update text before the first '-- view: <name>' header",
                lineno + 1
            ));
        }
    }
    if stream.is_empty() {
        return Err(format!("{path}: no '-- view: <name>' blocks found"));
    }
    Ok(stream)
}

/// Parse a fan-out stream file: update blocks separated by `-- update`
/// lines (other `--` lines are comments). Unlike `.ubatch` files, blocks
/// carry no view name — routing decides the views.
fn parse_uall_file(path: &str, text: &str) -> Result<Vec<String>, String> {
    let mut updates: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        // The delimiter is the exact header, so '-- update foo' style
        // comments stay comments.
        if trimmed == "-- update" {
            updates.push(String::new());
        } else if trimmed.starts_with("--") {
            // Comment line; never part of an update's text.
        } else if let Some(update) = updates.last_mut() {
            update.push_str(line);
            update.push('\n');
        } else if !trimmed.is_empty() {
            return Err(format!(
                "{path}:{}: update text before the first '-- update' header",
                lineno + 1
            ));
        }
    }
    if updates.is_empty() {
        return Err(format!("{path}: no '-- update' blocks found"));
    }
    // Catch stray/trailing headers here with a real diagnostic — an empty
    // item line would otherwise abort the whole BATCHALL server-side.
    if let Some(i) = updates.iter().position(|u| u.trim().is_empty()) {
        return Err(format!("{path}: '-- update' block {} is empty", i + 1));
    }
    Ok(updates)
}

/// Drive one scripted session against a running `ufilter serve`.
///
/// Script lines (`#` comments and blank lines skipped):
///
/// ```text
/// add <name> <view.xq>      register a view (file content travels escaped)
/// drop <name>               unregister a view
/// list                      list registered views
/// check <view> <update.xq>  check one update; prints '<view>: <wire-outcome>'
/// batch <updates.ubatch>    check a '-- view:' stream; prints the exact
///                           '[i] <view>: <wire-outcome>' lines check-batch prints
/// checkall <update.xq>      fan one update out to its candidate views; prints
///                           the exact '<view>: <wire-outcome>' lines check-all prints
/// batchall <updates.uall>   fan a '-- update'-separated stream out; prints
///                           '[i] <view>: <wire-outcome>' per candidate
/// verify                    CATALOG VERIFY: integrity-check the server's
///                           durable store (ERR when no --data-dir)
/// metrics                   METRICS: print the server's Prometheus
///                           text-format exposition (counters + latency
///                           quantiles), one line per metric
/// stats | ping | shutdown   forwarded verbatim
/// ```
///
/// Returns `Ok(false)` (exit code 1) if the server sent any `ERR` reply.
fn run_client(script: &str, stream: TcpStream) -> Result<bool, String> {
    // Each request goes out in one write, with Nagle off: a request split
    // across writes waits on the server's delayed ACK.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(&stream);
    let mut all_ok = true;

    // `request` is one or more lines; its final newline is added here.
    let send = |request: &str| -> Result<(), String> {
        (&stream).write_all(format!("{request}\n").as_bytes()).map_err(|e| e.to_string())
    };
    let mut recv = || -> Result<String, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    };

    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err_here = |msg: String| format!("client script line {}: {msg}", lineno + 1);
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or_default();
        let rest: Vec<&str> = words.collect();
        let arity = |n: usize| -> Result<(), String> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(err_here(format!("'{verb}' takes {n} operand(s), got {}", rest.len())))
            }
        };
        match verb {
            "add" => {
                arity(2)?;
                let text = std::fs::read_to_string(rest[1])
                    .map_err(|e| err_here(format!("{}: {e}", rest[1])))?;
                send(&proto::catalog_add_request(rest[0], &text))?;
                let reply = recv()?;
                all_ok &= !reply.starts_with("ERR");
                println!("{reply}");
            }
            "drop" => {
                arity(1)?;
                send(&format!("CATALOG DROP {}", rest[0]))?;
                let reply = recv()?;
                all_ok &= !reply.starts_with("ERR");
                println!("{reply}");
            }
            "list" => {
                arity(0)?;
                send("CATALOG LIST")?;
                let head = recv()?;
                println!("{head}");
                if let Some(n) = head.strip_prefix("OK ").and_then(|n| n.parse::<usize>().ok()) {
                    for _ in 0..n {
                        println!("{}", recv()?);
                    }
                } else {
                    all_ok = false;
                }
            }
            "check" => {
                arity(2)?;
                let update = std::fs::read_to_string(rest[1])
                    .map_err(|e| err_here(format!("{}: {e}", rest[1])))?;
                send(&proto::check_request(rest[0], &update))?;
                let reply = recv()?;
                match reply.strip_prefix("OK ") {
                    Some(outcomes) => {
                        for outcome in outcomes.split('\t') {
                            println!("{}: {outcome}", rest[0]);
                        }
                    }
                    None => {
                        all_ok = false;
                        println!("{reply}");
                    }
                }
            }
            "batch" => {
                arity(1)?;
                let text = std::fs::read_to_string(rest[0])
                    .map_err(|e| err_here(format!("{}: {e}", rest[0])))?;
                let items = parse_batch_file(rest[0], &text)?;
                let mut request = vec![format!("BATCH {}", items.len())];
                request.extend(items.iter().map(|(view, update)| proto::batch_item(view, update)));
                send(&request.join("\n"))?;
                let head = recv()?;
                if !head.starts_with("OK ") {
                    all_ok = false;
                    println!("{head}");
                    continue;
                }
                loop {
                    let reply = recv()?;
                    if let Some(rest) = reply.strip_prefix("ITEM ") {
                        // ITEM <index> <view> <wire-outcome> — print the
                        // exact line shape `check-batch` uses.
                        let mut f = rest.splitn(3, ' ');
                        let (i, view, outcome) = (
                            f.next().unwrap_or_default(),
                            f.next().unwrap_or_default(),
                            f.next().unwrap_or_default(),
                        );
                        let human = i.parse::<usize>().map(|i| i + 1).unwrap_or(0);
                        println!("[{human}] {view}: {outcome}");
                    } else if let Some(stats) = reply.strip_prefix("END ") {
                        println!("--- {stats}");
                        break;
                    } else {
                        all_ok = false;
                        println!("{reply}");
                        break;
                    }
                }
            }
            "checkall" => {
                arity(1)?;
                let update = std::fs::read_to_string(rest[0])
                    .map_err(|e| err_here(format!("{}: {e}", rest[0])))?;
                send(&proto::checkall_request(&update))?;
                let head = recv()?;
                if !head.starts_with("OK ") {
                    all_ok = false;
                    println!("{head}");
                    continue;
                }
                loop {
                    let reply = recv()?;
                    if let Some(rest) = reply.strip_prefix("ITEM ") {
                        // ITEM <view> <wire-outcome> — print the exact line
                        // shape `check-all` uses.
                        let (view, outcome) = rest.split_once(' ').unwrap_or((rest, ""));
                        println!("{view}: {outcome}");
                    } else if let Some(stats) = reply.strip_prefix("END ") {
                        println!("--- {stats}");
                        break;
                    } else {
                        all_ok = false;
                        println!("{reply}");
                        break;
                    }
                }
            }
            "batchall" => {
                arity(1)?;
                let text = std::fs::read_to_string(rest[0])
                    .map_err(|e| err_here(format!("{}: {e}", rest[0])))?;
                let updates = parse_uall_file(rest[0], &text)?;
                let mut request = vec![format!("BATCHALL {}", updates.len())];
                request.extend(updates.iter().map(|update| proto::batchall_item(update)));
                send(&request.join("\n"))?;
                let head = recv()?;
                if !head.starts_with("OK ") {
                    all_ok = false;
                    println!("{head}");
                    continue;
                }
                loop {
                    let reply = recv()?;
                    if let Some(rest) = reply.strip_prefix("ITEM ") {
                        let mut f = rest.splitn(3, ' ');
                        let (i, view, outcome) = (
                            f.next().unwrap_or_default(),
                            f.next().unwrap_or_default(),
                            f.next().unwrap_or_default(),
                        );
                        let human = i.parse::<usize>().map(|i| i + 1).unwrap_or(0);
                        println!("[{human}] {view}: {outcome}");
                    } else if let Some(stats) = reply.strip_prefix("END ") {
                        println!("--- {stats}");
                        break;
                    } else {
                        all_ok = false;
                        println!("{reply}");
                        break;
                    }
                }
            }
            "verify" => {
                arity(0)?;
                send("CATALOG VERIFY")?;
                let reply = recv()?;
                all_ok &= !reply.starts_with("ERR");
                println!("{reply}");
            }
            "metrics" => {
                arity(0)?;
                send("METRICS")?;
                let head = recv()?;
                match head.strip_prefix("OK ").and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => {
                        for _ in 0..n {
                            println!("{}", recv()?);
                        }
                    }
                    None => {
                        all_ok = false;
                        println!("{head}");
                    }
                }
            }
            "stats" | "ping" | "shutdown" => {
                arity(0)?;
                send(verb.to_uppercase().as_str())?;
                let reply = recv()?;
                all_ok &= !reply.starts_with("ERR");
                println!("{reply}");
            }
            other => {
                return Err(err_here(format!(
                    "unknown verb '{other}' (add/drop/list/verify/check/batch/checkall/\
                     batchall/stats/metrics/ping/shutdown)"
                )))
            }
        }
    }
    Ok(all_ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "help" => {
            print!("{HELP}");
            Ok(true)
        }
        "sql" => {
            let mut db = load_db(&args)?;
            let stmt = args.operand(0, "sql needs a statement")?;
            args.at_most(1)?;
            // With a catalog, schema-affecting DDL goes through the RESTRICT
            // guard; anything else skips catalog compilation entirely.
            let parsed = Parser::parse_stmt(stmt).map_err(|e| e.to_string())?;
            let out = match (is_schema_ddl(&parsed), args.catalog.as_deref()) {
                (true, Some(path)) => {
                    let mut catalog = build_catalog(&args, path, &db)?;
                    catalog.execute_guarded_stmt(&mut db, parsed).map_err(|e| e.to_string())?
                }
                _ => db.run(parsed).map_err(|e| e.to_string())?,
            };
            if let Some(rs) = out.result {
                print!("{}", rs.to_table());
            } else {
                println!("{} row(s) affected", out.affected);
            }
            for w in out.warnings {
                eprintln!("warning: {w}");
            }
            Ok(true)
        }
        "catalog" => {
            match args.operand(0, "catalog subcommand (add/list/drop/compact/verify)")? {
                // `compact`/`verify` operate on the durable --data-dir store
                // (no manifest, schema, or server needed); the manifest
                // subcommands keep requiring --catalog.
                "compact" => {
                    args.at_most(1)?;
                    let dir = data_dir_path(&args)?;
                    let mut store = CatalogStore::open(dir).map_err(|e| e.to_string())?;
                    let open_stats = store.stats();
                    if open_stats.truncated_bytes > 0 {
                        eprintln!(
                            "warning: truncated {} byte(s) of torn log tail",
                            open_stats.truncated_bytes
                        );
                    }
                    let c = store.compact().map_err(|e| e.to_string())?;
                    println!(
                        "compacted {dir}: {} record(s) -> {} (generation {})",
                        c.records_before, c.records_after, c.generation
                    );
                    Ok(true)
                }
                "verify" => {
                    args.at_most(1)?;
                    let dir = data_dir_path(&args)?;
                    let r = CatalogStore::verify(dir).map_err(|e| e.to_string())?;
                    println!(
                        "generation {}: {} snapshot record(s), {} log record(s), {} ddl record(s)",
                        r.generation, r.snapshot_records, r.log_records, r.ddl_records
                    );
                    for view in &r.views {
                        println!("view {view}");
                    }
                    if r.torn_bytes > 0 {
                        println!("torn tail: {} byte(s) (open would truncate them)", r.torn_bytes);
                    }
                    if r.stale_log {
                        println!(
                            "stale log from an interrupted compaction (open would discard it)"
                        );
                    }
                    println!("{}", if r.is_clean() { "clean" } else { "repairs pending" });
                    Ok(r.is_clean())
                }
                "add" => {
                    let path = catalog_path(&args)?;
                    let name = args.operand(1, "catalog add needs a view name")?;
                    let file = args.operand(2, "catalog add needs a view file")?;
                    args.at_most(3)?;
                    // The manifest is line-oriented `name=viewfile` with `#`
                    // comments; keep names representable in it.
                    if name.is_empty()
                        || name.contains(['=', '#'])
                        || name.chars().any(char::is_whitespace)
                    {
                        return Err(format!(
                            "view name '{name}' may not be empty or contain '=', '#', or whitespace"
                        ));
                    }
                    let db = load_db(&args)?;
                    let mut entries = load_manifest(path, true)?;
                    if entries.iter().any(|(n, _)| n == name) {
                        return Err(format!("view '{name}' is already registered in {path}"));
                    }
                    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                    let filter =
                        UFilter::compile(&text, db.schema()).map_err(|e| format!("{file}: {e}"))?;
                    entries.push((name.to_string(), file.to_string()));
                    save_manifest(path, &entries)?;
                    println!(
                        "registered '{name}' ({file}); reads {{{}}}",
                        filter.asg.relations.join(", ")
                    );
                    Ok(true)
                }
                "list" => {
                    args.at_most(1)?;
                    let path = catalog_path(&args)?;
                    let db = load_db(&args)?;
                    let catalog = build_catalog(&args, path, &db)?;
                    for info in catalog.list() {
                        println!(
                            "{}\treads {{{}}}{}",
                            info.name,
                            info.relations.join(", "),
                            if info.cached { "\t(shared artifact)" } else { "" }
                        );
                    }
                    println!("{} view(s) registered", catalog.len());
                    Ok(true)
                }
                "drop" => {
                    let name = args.operand(1, "catalog drop needs a view name")?;
                    args.at_most(2)?;
                    let path = catalog_path(&args)?;
                    let mut entries = load_manifest(path, false)?;
                    let before = entries.len();
                    entries.retain(|(n, _)| n != name);
                    if entries.len() == before {
                        return Err(format!("no view named '{name}' in {path}"));
                    }
                    save_manifest(path, &entries)?;
                    println!("dropped '{name}'");
                    Ok(true)
                }
                other => {
                    Err(usage_err(&args.command, format!("unknown catalog subcommand {other}")))
                }
            }
        }
        "check-batch" => {
            let path = catalog_path(&args)?;
            let mut db = load_db(&args)?;
            let catalog = build_catalog(&args, path, &db)?;
            let file = args.operand(0, "check-batch needs an updates file")?;
            args.at_most(1)?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let stream = parse_batch_file(file, &text)?;
            let batch = catalog.check_batch_text(&stream, &mut db);
            let mut all_ok = true;
            // Outcomes print in the stable wire form (core::wire) — the
            // exact bytes a `ufilter client batch` session prints for the
            // same stream, so serve/check-batch runs diff cleanly.
            for item in &batch.items {
                for report in &item.reports {
                    println!(
                        "[{}] {}: {}",
                        item.index + 1,
                        item.view,
                        wire::encode_outcome(&report.outcome)
                    );
                    if !report.outcome.is_translatable() {
                        all_ok = false;
                    }
                }
            }
            let s = batch.stats;
            println!(
                "--- {} update(s), {} parse hit(s), {} probe hit(s) / {} miss(es), \
                 {} target group(s)",
                s.items, s.parse_hits, s.probe_hits, s.probe_misses, s.target_groups
            );
            Ok(all_ok)
        }
        "check-all" => {
            let path = catalog_path(&args)?;
            let mut db = load_db(&args)?;
            let catalog = build_catalog(&args, path, &db)?;
            let file = args.operand(0, "check-all needs an update file")?;
            args.at_most(1)?;
            let update = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let report = catalog.check_all(&update, &mut db);
            let mut all_ok = true;
            // Same `<view>: <wire-outcome>` shape a `ufilter client
            // checkall` session prints, so runs diff cleanly.
            for item in &report.items {
                for r in &item.reports {
                    println!("{}: {}", item.view, wire::encode_outcome(&r.outcome));
                    if !r.outcome.is_translatable() {
                        all_ok = false;
                    }
                }
            }
            let f = report.fanout;
            println!(
                "--- views={} candidates={} pruned={} (tags={} paths={} preds={}) fallbacks={}",
                f.views,
                f.candidates,
                f.pruned,
                f.pruned_tags,
                f.pruned_paths,
                f.pruned_preds,
                f.fallbacks
            );
            Ok(all_ok)
        }
        "serve" => {
            args.at_most(0)?;
            let mut db = load_db(&args)?;
            let workers = args.workers.unwrap_or(4);
            let config = UFilterConfig { mode: args.mode, strategy: args.strategy };
            let mut catalog = ShardedCatalog::with_config(db.schema().clone(), config, 1);
            // Recover the durable catalog first (replay, then attach so the
            // replayed records are not re-appended), then seed from the
            // manifest — skipping names recovery already registered, so a
            // restart with both --data-dir and --views never trips the
            // duplicate check.
            let mut recovered = None;
            if let Some(dir) = args.data_dir.as_deref() {
                let store = CatalogStore::open(dir).map_err(|e| format!("{dir}: {e}"))?;
                let stats = catalog
                    .replay(&mut db, store.records())
                    .map_err(|e| format!("{dir}: replay: {e}"))?;
                catalog.attach_store(Arc::new(Mutex::new(store)));
                recovered = Some(stats);
            }
            if let Some(path) = args.catalog.as_deref() {
                let registered: std::collections::HashSet<String> =
                    catalog.list().into_iter().map(|v| v.name).collect();
                for (name, file) in load_manifest(path, false)? {
                    if registered.contains(&name) {
                        continue; // already recovered from the data dir
                    }
                    let text =
                        std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
                    catalog.add(&name, &text).map_err(|e| e.to_string())?;
                }
            }
            let catalog = catalog;
            let listen = args.listen.as_deref().unwrap_or("127.0.0.1:0");
            let mut server = CheckServer::bind(listen, Arc::new(catalog), &db, workers)
                .map_err(|e| format!("{listen}: {e}"))?;
            server.set_slow_ms(args.slow_ms);
            if let Some(s) = recovered {
                println!(
                    "RECOVERED records={} adds={} drops={} ddl={} rehydrated={} recompiled={}",
                    s.records, s.adds, s.drops, s.ddl, s.rehydrated, s.recompiled
                );
            }
            // Scripts read this line to learn the resolved ephemeral port.
            println!("LISTENING {}", server.local_addr());
            server.run().map_err(|e| e.to_string())?;
            Ok(true)
        }
        "client" => {
            let addr = args.operand(0, "client needs a server address")?;
            let path = args.operand(1, "client needs a script file ('-' for stdin)")?;
            args.at_most(2)?;
            let script = if path == "-" {
                let mut s = String::new();
                std::io::stdin().read_to_string(&mut s).map_err(|e| format!("stdin: {e}"))?;
                s
            } else {
                std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
            };
            let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
            run_client(&script, stream)
        }
        "show-asg" => {
            args.at_most(0)?;
            let db = load_db(&args)?;
            let filter = load_filter(&args, &db)?;
            print!("{}", filter.asg.describe());
            Ok(true)
        }
        "materialize" => {
            args.at_most(0)?;
            let db = load_db(&args)?;
            let filter = load_filter(&args, &db)?;
            let doc = materialize(&db, filter.query()).map_err(|e| e.to_string())?;
            print!("{}", u_filter::xml::to_pretty_string(&doc, doc.root()));
            Ok(true)
        }
        cmd @ ("check" | "apply") => {
            let mut db = load_db(&args)?;
            let filter = load_filter(&args, &db)?;
            let path = args.operand(0, "check/apply need an update file")?;
            args.at_most(1)?;
            let update = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let reports = if cmd == "apply" {
                filter.apply(&update, &mut db)
            } else {
                filter.check(&update, &mut db)
            };
            let mut all_ok = true;
            for (i, report) in reports.iter().enumerate() {
                if reports.len() > 1 {
                    println!("--- action {} ---", i + 1);
                }
                for (step, note) in &report.trace {
                    println!("[{step}] {note}");
                }
                println!("=> {}", report.outcome);
                if let CheckOutcome::Translatable { translation, .. } = &report.outcome {
                    for stmt in translation {
                        println!("SQL> {stmt}");
                    }
                } else {
                    all_ok = false;
                }
            }
            Ok(all_ok)
        }
        other => Err(format!("unknown command {other}\nusage: {USAGE_LINE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1), // update rejected
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
