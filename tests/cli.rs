//! Integration tests for the `ufilter` CLI binary, driven through the
//! fixtures/ files.

use std::process::Command;

fn ufilter(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_ufilter"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const BASE: [&str; 4] = ["--schema", "fixtures/book.sql", "--view", "fixtures/bookview.xq"];

/// A scratch file path under cargo's per-test-target temporary directory
/// (cargo creates it; the CLI gets the absolute path).
fn scratch(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("utf-8 temp path").to_string()
}

fn with_base(rest: &[&str]) -> Vec<&'static str> {
    // Leak is fine in tests; keeps helper signatures simple.
    let mut v: Vec<&'static str> = BASE.to_vec();
    for r in rest {
        v.push(Box::leak(r.to_string().into_boxed_str()));
    }
    v
}

#[test]
fn check_accepts_u8_with_trace_and_sql() {
    let (stdout, _, code) = ufilter(&with_base(&["check", "fixtures/u8.xq"]));
    assert_eq!(code, Some(0));
    assert!(stdout.contains("[update validation] valid"), "{stdout}");
    assert!(stdout.contains("(clean|s-d∧s-i)"), "{stdout}");
    assert!(stdout.contains("SQL> DELETE FROM review"), "{stdout}");
}

#[test]
fn check_rejects_u10_with_exit_1() {
    let (stdout, _, code) = ufilter(&with_base(&["check", "fixtures/u10.xq"]));
    assert_eq!(code, Some(1));
    assert!(stdout.contains("unsafe-delete"), "{stdout}");
}

#[test]
fn apply_u13_inserts_and_reports() {
    let (stdout, _, code) = ufilter(&with_base(&["apply", "fixtures/u13.xq"]));
    assert_eq!(code, Some(0));
    assert!(stdout.contains("INSERT INTO review"), "{stdout}");
    assert!(stdout.contains("'98003'"), "{stdout}");
}

#[test]
fn show_asg_prints_star_marks() {
    let (stdout, _, code) = ufilter(&with_base(&["show-asg"]));
    assert_eq!(code, Some(0));
    assert!(stdout.contains("(dirty|s-d∧u-i)"), "{stdout}");
    assert!(stdout.contains("UCB={book,publisher}"), "{stdout}");
}

#[test]
fn materialize_prints_fig3b_view() {
    let (stdout, _, code) = ufilter(&with_base(&["materialize"]));
    assert_eq!(code, Some(0));
    assert!(stdout.contains("<BookView>"), "{stdout}");
    assert!(stdout.contains("<bookid>98001</bookid>"), "{stdout}");
    assert!(stdout.contains("Data on the Web"), "{stdout}");
    assert!(!stdout.contains("Programming in Unix"), "out-of-view book leaked: {stdout}");
}

#[test]
fn sql_command_queries_the_loaded_schema() {
    let (stdout, _, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "sql",
        "SELECT title FROM book WHERE price < 40.00",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("TCP/IP Illustrated"), "{stdout}");
}

#[test]
fn strict_mode_flag_changes_u4_step() {
    // In strict mode a book insert dies at STAR before any data access.
    let insert = r#"
FOR $root IN document("BookView.xml")
UPDATE $root {
INSERT
<book><bookid>98009</bookid><title>T</title><price>20.00</price>
<publisher><pubid>A01</pubid><pubname>McGraw-Hill Inc.</pubname></publisher>
</book> }"#;
    let update = scratch("strict_test_update.xq");
    std::fs::write(&update, insert).unwrap();
    let (stdout, _, code) = ufilter(&with_base(&["--mode", "strict", "check", &update]));
    assert_eq!(code, Some(1));
    assert!(stdout.contains("unsafe-insert"), "{stdout}");
    // Refined mode accepts it (publisher A01 exists).
    let (stdout, _, code) = ufilter(&with_base(&["--mode", "refined", "check", &update]));
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn check_batch_reports_stream_outcomes_and_stats() {
    let (stdout, _, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views.cat",
        "check-batch",
        "fixtures/batch.ubatch",
    ]);
    // u10 in the stream is untranslatable, so the batch exits 1.
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[1] books: translatable"), "{stdout}");
    assert!(stdout.contains("[2] books: untranslatable"), "{stdout}");
    assert!(stdout.contains("[3] books: translatable"), "{stdout}");
    assert!(stdout.contains("3 update(s)"), "{stdout}");
    assert!(stdout.contains("target group(s)"), "{stdout}");
}

/// `--` lines that are not block headers are comments, not update text.
#[test]
fn check_batch_ignores_comment_lines() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let batch = scratch("cli_comments.ubatch");
    let text = format!(
        "-- a leading comment
-- view: books
{}
-- end of stream
",
        std::fs::read_to_string(root.join("fixtures/u8.xq")).unwrap()
    );
    std::fs::write(&batch, text).unwrap();
    let (stdout, _, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views.cat",
        "check-batch",
        &batch,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("[1] books: translatable"), "{stdout}");
    assert!(stdout.contains("1 update(s)"), "{stdout}");
}

/// A `-- view:` header whose name is empty or holds whitespace names no
/// view a served `BATCH` item line could carry, so it is a `path:line`
/// error with exit 2 and no item is checked (`client batch` agrees:
/// `tests/service_cli.rs`).
#[test]
fn check_batch_rejects_a_header_without_one_view_name() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let u8_text = std::fs::read_to_string(root.join("fixtures/u8.xq")).unwrap();
    for (i, header) in ["-- view:", "-- view: my books"].into_iter().enumerate() {
        let path = scratch(&format!("cli_bad_header{i}.ubatch"));
        std::fs::write(&path, format!("{header}\n{u8_text}-- view: books\n{u8_text}")).unwrap();
        let (stdout, stderr, code) = ufilter(&[
            "--schema",
            "fixtures/book.sql",
            "--catalog",
            "fixtures/views.cat",
            "check-batch",
            &path,
        ]);
        assert_eq!(code, Some(2), "{header:?}: {stdout}{stderr}");
        assert!(stderr.contains(&format!("{path}:1: ")), "{header:?}: {stderr}");
        assert!(stdout.is_empty(), "{header:?}: {stdout}");
    }
}

/// A typo'd --catalog path must be an error, not an empty catalog that
/// silently disables the DDL guard or reports every view as unknown.
#[test]
fn missing_catalog_manifest_is_an_error() {
    let (_, stderr, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/no_such.cat",
        "sql",
        "DROP TABLE review",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no_such.cat"), "{stderr}");

    let (_, stderr, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/no_such.cat",
        "check-batch",
        "fixtures/batch.ubatch",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no_such.cat"), "{stderr}");
}

/// Names that would corrupt the line-oriented manifest are rejected.
#[test]
fn catalog_add_rejects_unrepresentable_names() {
    let cat = scratch("cli_badname.cat");
    let _ = std::fs::remove_file(&cat);
    let cat = cat.as_str();
    for bad in ["#books", "a=b", "two words"] {
        let (_, stderr, code) = ufilter(&[
            "--schema",
            "fixtures/book.sql",
            "--catalog",
            cat,
            "catalog",
            "add",
            bad,
            "fixtures/bookview.xq",
        ]);
        assert_eq!(code, Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("may not"), "{bad}: {stderr}");
    }
}

/// Misspelled options are an error again, not silently-ignored operands.
#[test]
fn unknown_option_is_rejected() {
    let (_, stderr, code) =
        ufilter(&with_base(&["check", "fixtures/u8.xq", "--strateg", "internal"]));
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown option --strateg"), "{stderr}");
}

#[test]
fn catalog_add_list_drop_roundtrip() {
    let cat = scratch("cli_roundtrip.cat");
    let _ = std::fs::remove_file(&cat);
    let cat = cat.as_str();

    let (stdout, _, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        cat,
        "catalog",
        "add",
        "books",
        "fixtures/bookview.xq",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("registered 'books'"), "{stdout}");
    assert!(stdout.contains("book, publisher, review"), "{stdout}");

    // Duplicate registration is rejected.
    let (_, stderr, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        cat,
        "catalog",
        "add",
        "books",
        "fixtures/bookview.xq",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("already registered"), "{stderr}");

    let (stdout, _, code) =
        ufilter(&["--schema", "fixtures/book.sql", "--catalog", cat, "catalog", "list"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("1 view(s) registered"), "{stdout}");

    let (stdout, _, code) =
        ufilter(&["--schema", "fixtures/book.sql", "--catalog", cat, "catalog", "drop", "books"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("dropped 'books'"), "{stdout}");

    let (stdout, _, code) =
        ufilter(&["--schema", "fixtures/book.sql", "--catalog", cat, "catalog", "list"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("0 view(s) registered"), "{stdout}");
}

#[test]
fn ddl_on_catalog_dependency_is_restricted() {
    let (_, stderr, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views.cat",
        "sql",
        "DROP TABLE review",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("view(s) books depend on it"), "{stderr}");
    // Without the catalog, the same DDL goes through.
    let (stdout, _, code) = ufilter(&["--schema", "fixtures/book.sql", "sql", "DROP TABLE review"]);
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn missing_files_give_exit_2() {
    let (_, stderr, code) = ufilter(&["--schema", "no/such/file.sql", "sql", "SELECT 1 FROM t"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn missing_update_file_gives_exit_2() {
    let (_, stderr, code) = ufilter(&with_base(&["check", "no/such/update.xq"]));
    assert_eq!(code, Some(2));
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("no/such/update.xq"), "error names the file: {stderr}");
}

#[test]
fn unknown_strategy_gives_exit_2() {
    let (_, stderr, code) =
        ufilter(&with_base(&["--strategy", "telepathy", "check", "fixtures/u8.xq"]));
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown strategy"), "{stderr}");
}

/// Every subcommand — old and new — rejects wrong arity with exit code 2
/// and a usage line on stderr.
#[test]
fn wrong_arity_gives_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        // Missing operands.
        &["--schema", "fixtures/book.sql", "--view", "fixtures/bookview.xq", "check"],
        &["--schema", "fixtures/book.sql", "--view", "fixtures/bookview.xq", "apply"],
        &["--schema", "fixtures/book.sql", "sql"],
        &["--schema", "fixtures/book.sql", "--catalog", "fixtures/views.cat", "catalog"],
        &["--schema", "fixtures/book.sql", "--catalog", "fixtures/views.cat", "catalog", "add"],
        &["--schema", "fixtures/book.sql", "--catalog", "fixtures/views.cat", "check-batch"],
        &["client"],
        &["client", "127.0.0.1:9"],
        // Trailing junk.
        &[
            "--schema",
            "fixtures/book.sql",
            "--view",
            "fixtures/bookview.xq",
            "check",
            "fixtures/u8.xq",
            "extra",
        ],
        &["--schema", "fixtures/book.sql", "--view", "fixtures/bookview.xq", "show-asg", "extra"],
        &["--schema", "fixtures/book.sql", "sql", "SELECT 1 FROM book", "extra"],
        &[
            "--schema",
            "fixtures/book.sql",
            "--catalog",
            "fixtures/views.cat",
            "catalog",
            "list",
            "extra",
        ],
        &[
            "--schema",
            "fixtures/book.sql",
            "--catalog",
            "fixtures/views.cat",
            "check-batch",
            "fixtures/batch.ubatch",
            "extra",
        ],
        &["--schema", "fixtures/book.sql", "serve", "extra"],
        &["client", "127.0.0.1:9", "script", "extra"],
        // Unknown catalog subcommand.
        &["--schema", "fixtures/book.sql", "--catalog", "fixtures/views.cat", "catalog", "nuke"],
        // check-all arity.
        &["--schema", "fixtures/book.sql", "--catalog", "fixtures/views_many.cat", "check-all"],
        &[
            "--schema",
            "fixtures/book.sql",
            "--catalog",
            "fixtures/views_many.cat",
            "check-all",
            "fixtures/u8.xq",
            "extra",
        ],
    ];
    for args in cases {
        let (_, stderr, code) = ufilter(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} lacks a usage line: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
    }
}

/// Unknown options are rejected with usage for old and new subcommands
/// alike, and option values are validated.
#[test]
fn unknown_options_and_bad_values_give_usage() {
    let cases: &[&[&str]] = &[
        &["--schema", "fixtures/book.sql", "--bogus", "serve"],
        &["--workers", "serve"], // swallows "serve" as the count
        &["--schema", "fixtures/book.sql", "--workers", "zero", "serve"],
        &["--schema", "fixtures/book.sql", "--workers", "0", "serve"],
        &["--schema", "fixtures/book.sql", "--slow-ms", "soon", "serve"],
        &["--schema", "fixtures/book.sql", "--slow-ms", "-1", "serve"],
        &["--slow-ms"],
        &["--listen"],
        &["--views"],
        &["--schema", "fixtures/book.sql", "--view", "fixtures/bookview.xq", "check", "--later"],
    ];
    for args in cases {
        let (_, stderr, code) = ufilter(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} lacks a usage line: {stderr}");
    }
}

/// `check-all` fans one update out over the many-view manifest: candidate
/// views in name order, decodable wire outcomes, and a pruning trailer
/// showing the index dropped irrelevant views.
#[test]
fn check_all_fans_out_with_pruning_stats() {
    let (stdout, _, code) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views_many.cat",
        "check-all",
        "fixtures/u8.xq",
    ]);
    // Some candidates are data-context-untranslatable, so the fan-out
    // exits 1 (same semantics as check-batch).
    assert_eq!(code, Some(1), "{stdout}");
    let outcome_lines: Vec<&str> = stdout.lines().filter(|l| !l.starts_with("---")).collect();
    // Candidates print in name order and every outcome decodes.
    let views: Vec<&str> =
        outcome_lines.iter().map(|l| l.split_once(": ").expect("view: outcome").0).collect();
    let mut sorted = views.clone();
    sorted.sort();
    assert_eq!(views, sorted, "{stdout}");
    assert!(views.contains(&"books"), "{stdout}");
    for line in &outcome_lines {
        let (_, outcome) = line.split_once(": ").unwrap();
        u_filter::core::wire::decode_outcome(outcome).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    // The trailer reports real pruning: pubs_*/reviews_all lack the book
    // tag, and high price partitions contradict `price < 40`.
    let trailer = stdout.lines().last().unwrap();
    assert!(trailer.starts_with("--- views=26 "), "{trailer}");
    assert!(trailer.contains("pruned=7 (tags=3 paths=0 preds=4)"), "{trailer}");
    assert!(trailer.contains("fallbacks=0"), "{trailer}");
    assert_eq!(outcome_lines.len(), 26 - 7, "{stdout}");
}

/// The publisher-flavoured update routes to the publisher views only —
/// the book partitions are pruned wholesale.
#[test]
fn check_all_routes_publisher_updates_away_from_book_partitions() {
    let upd = scratch("cli_pub_update.xq");
    std::fs::write(
        &upd,
        "FOR $p IN document(\"V.xml\")/publisher\n\
         WHERE $p/pubid/text() = \"A01\"\n\
         UPDATE $p { DELETE $p }\n",
    )
    .unwrap();
    let (stdout, _, _) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views_many.cat",
        "check-all",
        &upd,
    ]);
    let views: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("---"))
        .map(|l| l.split_once(": ").expect("view: outcome").0)
        .collect();
    assert_eq!(views, ["books", "pubs_all", "pubs_ids"], "{stdout}");
}

/// The batch output satellite: `check-batch` prints outcomes in the stable
/// wire form, which round-trips through the core decoder.
#[test]
fn check_batch_output_is_decodable_wire_form() {
    let (stdout, _, _) = ufilter(&[
        "--schema",
        "fixtures/book.sql",
        "--catalog",
        "fixtures/views.cat",
        "check-batch",
        "fixtures/batch.ubatch",
    ]);
    let mut decoded = 0;
    for line in stdout.lines().filter(|l| l.starts_with('[')) {
        let (_, outcome) = line.split_once(": ").expect("'[i] view: outcome' shape");
        u_filter::core::wire::decode_outcome(outcome).unwrap_or_else(|e| panic!("{line}: {e}"));
        decoded += 1;
    }
    assert_eq!(decoded, 3, "{stdout}");
}
