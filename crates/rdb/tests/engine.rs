//! End-to-end engine tests on the paper's running example (Fig. 1) plus
//! constraint-policy, transaction and updatable-view behaviour.

use ufilter_rdb::{
    Db, DeletePolicy, Expr, JoinKind, Parser, PlannerConfig, RdbError, Value, Warning,
};

/// Build the Fig. 1 book database (schema + the sample rows) from DDL text,
/// mirroring the paper's CREATE TABLE statements.
fn book_db() -> Db {
    book_db_with_policy("CASCADE")
}

fn book_db_with_policy(policy: &str) -> Db {
    let mut db = Db::new();
    db.execute_sql(
        "CREATE TABLE publisher( \
           pubid VARCHAR2(10), \
           pubname VARCHAR2(100) UNIQUE NOT NULL, \
           CONSTRAINTS PubPK PRIMARYKEY (pubid))",
    )
    .unwrap();
    db.execute_sql(&format!(
        "CREATE TABLE book( \
           bookid VARCHAR2(20), \
           title VARCHAR2(100) NOT NULL, \
           pubid VARCHAR2(10), \
           price DOUBLE CHECK (price > 0.00), \
           year DATE, \
           CONSTRAINTS BookPK PRIMARYKEY (bookid), \
           FOREIGNKEY (pubid) REFERENCES publisher (pubid) ON DELETE {policy})"
    ))
    .unwrap();
    db.execute_sql(&format!(
        "CREATE TABLE review( \
           bookid VARCHAR2(20), \
           reviewid VARCHAR2(3), \
           comment VARCHAR2(100), \
           reviewer VARCHAR2(10), \
           CONSTRAINTS ReviewPK PRIMARYKEY (bookid, reviewid), \
           FOREIGNKEY (bookid) REFERENCES book (bookid) ON DELETE {policy})"
    ))
    .unwrap();
    for sql in [
        "INSERT INTO publisher VALUES ('A01', 'McGraw-Hill Inc.')",
        "INSERT INTO publisher VALUES ('B01', 'Prentice-Hall Inc.')",
        "INSERT INTO publisher VALUES ('A02', 'Simon & Schuster Inc.')",
        "INSERT INTO book VALUES ('98001', 'TCP/IP Illustrated', 'A01', 37.00, 1997)",
        "INSERT INTO book VALUES ('98002', 'Programming in Unix', 'A02', 45.00, 1985)",
        "INSERT INTO book VALUES ('98003', 'Data on the Web', 'A01', 48.00, 2004)",
        "INSERT INTO review VALUES ('98001', '001', 'A good book on network.', 'William')",
        "INSERT INTO review VALUES ('98001', '002', 'Useful for advanced user.', 'John')",
    ] {
        db.execute_sql(sql).unwrap();
    }
    db
}

#[test]
fn sample_data_loaded() {
    let db = book_db();
    assert_eq!(db.row_count("publisher"), 3);
    assert_eq!(db.row_count("book"), 3);
    assert_eq!(db.row_count("review"), 2);
}

#[test]
fn select_project_join() {
    let db = book_db();
    let rs = db
        .query_sql(
            "SELECT book.title, publisher.pubname FROM book, publisher \
             WHERE book.pubid = publisher.pubid AND book.price < 50.00 AND book.year > 1990",
        )
        .unwrap();
    let mut titles = rs.column_values("title");
    titles.sort_by_key(|v| v.render());
    assert_eq!(titles, vec![Value::str("Data on the Web"), Value::str("TCP/IP Illustrated")]);
}

#[test]
fn pq1_probe_is_empty_for_missing_book() {
    // PQ1 of §6.1: the book "Programming in Unix" fails year > 1990.
    let db = book_db();
    let rs = db
        .query_sql(
            "SELECT bookid FROM publisher, book, review \
             WHERE book.title = 'Programming in Unix' AND book.price < 50.00 \
             AND book.year > 1990 AND book.pubid = publisher.pubid",
        )
        .unwrap();
    assert!(rs.is_empty());
}

#[test]
fn pq2_probe_finds_data_on_the_web() {
    // PQ2 of §6.1 — note the paper's probe joins review too; "Data on the
    // Web" has no reviews, so a faithful inner join yields nothing. The
    // corrected probe (book ⋈ publisher only) returns bookid 98003.
    let db = book_db();
    let rs = db
        .query_sql(
            "SELECT bookid FROM publisher, book \
             WHERE book.title = 'Data on the Web' AND book.price < 50.00 \
             AND book.year > 1990 AND book.pubid = publisher.pubid",
        )
        .unwrap();
    assert_eq!(rs.column_values("bookid"), vec![Value::str("98003")]);
}

#[test]
fn insert_violating_check_rejected() {
    // u1's price 0.00 violates CHECK (price > 0).
    let mut db = book_db();
    let err =
        db.execute_sql("INSERT INTO book VALUES ('98004', 'X', 'A01', 0.00, 2001)").unwrap_err();
    assert!(matches!(err, RdbError::CheckViolation { .. }), "{err}");
}

#[test]
fn insert_violating_not_null_rejected() {
    // u1's empty title violates NOT NULL.
    let mut db = book_db();
    let err =
        db.execute_sql("INSERT INTO book VALUES ('98004', NULL, 'A01', 10.00, 2001)").unwrap_err();
    assert!(matches!(err, RdbError::NotNullViolation { .. }), "{err}");
}

#[test]
fn u2_hybrid_style_key_conflict() {
    // U2 of §6.2.2: inserting bookid 98001 again conflicts with the key.
    let mut db = book_db();
    let err = db
        .execute_sql("INSERT INTO book VALUES '98001', 'Operating Systems', 'A01', 20.00, 1994")
        .unwrap_err();
    assert!(matches!(err, RdbError::UniqueViolation { .. }), "{err}");
    // Engine state unchanged (statement-level atomicity).
    assert_eq!(db.row_count("book"), 3);
}

#[test]
fn fk_missing_reference_rejected() {
    let mut db = book_db();
    let err =
        db.execute_sql("INSERT INTO book VALUES ('98004', 'X', 'Z99', 10.00, 2001)").unwrap_err();
    assert!(matches!(err, RdbError::ForeignKeyMissing { .. }), "{err}");
}

#[test]
fn zero_rows_deleted_warning() {
    // The "warning message that zero tuples are deleted" of §6.2.2.
    let mut db = book_db();
    let out = db.execute_sql("DELETE FROM review WHERE bookid = '98003'").unwrap();
    assert_eq!(out.affected, 0);
    assert_eq!(out.warnings, vec![Warning::ZeroRowsDeleted { table: "review".into() }]);
}

#[test]
fn cascade_delete_follows_fk_chain() {
    let mut db = book_db();
    let out = db.execute_sql("DELETE FROM publisher WHERE pubid = 'A01'").unwrap();
    assert_eq!(out.affected, 1);
    // Books 98001 & 98003 cascade away, and 98001's reviews with them.
    assert_eq!(db.row_count("book"), 1);
    assert_eq!(db.row_count("review"), 0);
}

#[test]
fn set_null_policy_detaches_children() {
    let mut db = book_db_with_policy("SET NULL");
    db.execute_sql("DELETE FROM publisher WHERE pubid = 'A01'").unwrap();
    assert_eq!(db.row_count("book"), 3); // books survive with NULL pubid
    let rs = db.query_sql("SELECT bookid FROM book WHERE pubid IS NULL").unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn set_null_fails_when_fk_is_key_member() {
    // review.bookid is part of review's primary key → SET NULL must fail.
    let mut db = book_db_with_policy("SET NULL");
    let err = db.execute_sql("DELETE FROM book WHERE bookid = '98001'").unwrap_err();
    assert!(matches!(err, RdbError::NotNullViolation { .. }), "{err}");
    // Nothing changed.
    assert_eq!(db.row_count("book"), 3);
    assert_eq!(db.row_count("review"), 2);
}

#[test]
fn restrict_policy_blocks_delete() {
    let mut db = book_db_with_policy("RESTRICT");
    let err = db.execute_sql("DELETE FROM publisher WHERE pubid = 'A01'").unwrap_err();
    assert!(matches!(err, RdbError::ForeignKeyRestrict { .. }), "{err}");
    assert_eq!(db.row_count("publisher"), 3);
    // Unreferenced publisher can go.
    db.execute_sql("DELETE FROM publisher WHERE pubid = 'B01'").unwrap();
    assert_eq!(db.row_count("publisher"), 2);
}

#[test]
fn rollback_restores_exact_state() {
    let mut db = book_db();
    let before = db.dump();
    db.begin().unwrap();
    db.execute_sql("DELETE FROM publisher WHERE pubid = 'A01'").unwrap();
    db.execute_sql("INSERT INTO publisher VALUES ('C01', 'New House')").unwrap();
    db.execute_sql("UPDATE book SET price = 44.00 WHERE bookid = '98002'").unwrap();
    assert_ne!(db.dump(), before);
    db.rollback().unwrap();
    assert_eq!(db.dump(), before);
    // Indexes were restored too: the PK lookup still works.
    let rs = db.query_sql("SELECT pubname FROM publisher WHERE pubid = 'A01'").unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn rollback_drops_a_view_created_in_the_transaction() {
    let mut db = book_db();
    let view = "CREATE VIEW Cheap AS SELECT bookid FROM book WHERE price < 40.00";
    db.begin().unwrap();
    db.execute_sql(view).unwrap();
    assert!(db.view_def("Cheap").is_some());
    db.rollback().unwrap();
    assert!(db.view_def("cheap").is_none(), "rolled-back view is gone");
    // Re-creating it works, and a committed view stays.
    db.begin().unwrap();
    db.execute_sql(view).unwrap();
    db.commit().unwrap();
    assert!(db.view_def("Cheap").is_some());
    assert!(db.query_sql("SELECT bookid FROM Cheap").is_ok());
}

#[test]
fn commit_keeps_changes() {
    let mut db = book_db();
    db.begin().unwrap();
    db.execute_sql("INSERT INTO publisher VALUES ('C01', 'New House')").unwrap();
    db.commit().unwrap();
    assert_eq!(db.row_count("publisher"), 4);
    assert!(db.rollback().is_err()); // no txn anymore
}

#[test]
fn failed_statement_is_atomic_even_mid_batch() {
    let mut db = book_db();
    // Multi-row insert where the second row conflicts: first row must not stay.
    let err = db
        .execute_sql(
            "INSERT INTO publisher VALUES ('C01', 'Fresh Press'), ('A01', 'Dup Key Press')",
        )
        .unwrap_err();
    assert!(matches!(err, RdbError::UniqueViolation { .. }));
    assert_eq!(db.row_count("publisher"), 3);
}

#[test]
fn delete_with_in_subquery() {
    // U3 of §6.2.2 against a materialized probe table.
    let mut db = book_db();
    let probe = Parser::parse_select(
        "SELECT book.bookid FROM book, publisher \
         WHERE book.pubid = publisher.pubid AND book.price < 40.00",
    )
    .unwrap();
    let rows = db.query(&probe).unwrap();
    db.materialize("TAB_book", &rows);
    let out = db
        .execute_sql("DELETE FROM review WHERE review.bookid IN SELECT bookid FROM TAB_book")
        .unwrap();
    assert_eq!(out.affected, 2); // both reviews of 98001
}

#[test]
fn materialized_tables_have_no_indexes() {
    let mut db = book_db();
    let probe = Parser::parse_select("SELECT bookid, title FROM book").unwrap();
    let rows = db.query(&probe).unwrap();
    assert_eq!(db.materialize("TAB_book", &rows), 3);
    assert!(db.table_data("TAB_book").unwrap().indexes.is_empty());
    assert_eq!(db.row_count("TAB_book"), 3);
    // Still queryable.
    let rs = db.query_sql("SELECT title FROM TAB_book WHERE bookid = '98001'").unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn fig11_left_join_view() {
    let mut db = book_db();
    db.execute_sql(
        "CREATE VIEW RelationalBookView AS \
         SELECT p.pubid, p.pubname, b.bookid, b.title, b.price, r.reviewid, r.comment \
         FROM ( Publisher AS p LEFT JOIN ( Book AS b LEFT JOIN Review AS r \
         ON b.bookid = r.bookid ) ON p.pubid = b.pubid )",
    )
    .unwrap();
    let rs = db.query_sql("SELECT * FROM RelationalBookView").unwrap();
    // Fig. 11 shows 3 rows for A01's books/reviews; plus B01 & A02 padding
    // rows and A02's book 98002: publishers with no book still appear.
    // A01: (98001,rev1), (98001,rev2), (98003,NULL) = 3; A02: 98002 = 1; B01: padding = 1.
    assert_eq!(rs.len(), 5);
    let null_reviews = rs.rows.iter().filter(|r| r[rs.col("reviewid").unwrap()].is_null()).count();
    assert_eq!(null_reviews, 3); // 98003, 98002, B01-padding
}

#[test]
fn updatable_view_insert_uv_of_section_621() {
    // UV of §6.2.1: insert the review through RelationalBookView.
    let mut db = book_db();
    db.execute_sql(
        "CREATE VIEW RelationalBookView AS \
         SELECT p.pubid, p.pubname, b.bookid, b.title, b.price, r.reviewid, r.comment \
         FROM ( Publisher AS p LEFT JOIN ( Book AS b LEFT JOIN Review AS r \
         ON b.bookid = r.bookid ) ON p.pubid = b.pubid )",
    )
    .unwrap();
    let out = db
        .execute_sql(
            "INSERT INTO RelationalBookView \
             (pubid, pubname, bookid, title, price, reviewid, comment) \
             VALUES ('A01', 'McGraw-Hill Inc.', '98003', 'Data on the Web', 48.00, \
                     '001', 'easy read and useful')",
        )
        .unwrap();
    // publisher & book exist and verify; only the review row is new.
    assert_eq!(out.affected, 1);
    assert_eq!(db.row_count("review"), 3);
    let rs = db.query_sql("SELECT comment FROM review WHERE bookid = '98003'").unwrap();
    assert_eq!(rs.rows[0][0], Value::str("easy read and useful"));
}

#[test]
fn updatable_view_insert_rejects_inconsistent_duplicate() {
    let mut db = book_db();
    db.execute_sql(
        "CREATE VIEW V AS SELECT p.pubid, p.pubname, b.bookid, b.title \
         FROM ( publisher AS p LEFT JOIN book AS b ON p.pubid = b.pubid )",
    )
    .unwrap();
    // pubname conflicts with the stored value for A01.
    let err = db
        .execute_sql(
            "INSERT INTO V (pubid, pubname, bookid, title) \
             VALUES ('A01', 'Wrong Name', '98009', 'New Book')",
        )
        .unwrap_err();
    assert!(matches!(err, RdbError::ViewNotUpdatable(_)), "{err}");
    assert_eq!(db.row_count("book"), 3);
}

#[test]
fn updatable_view_delete_targets_rightmost_table() {
    let mut db = book_db();
    db.execute_sql(
        "CREATE VIEW V AS \
         SELECT b.bookid, b.title, r.reviewid, r.comment \
         FROM ( book AS b LEFT JOIN review AS r ON b.bookid = r.bookid )",
    )
    .unwrap();
    let n = ufilter_rdb::view::delete_from_view(
        &mut db,
        "V",
        Some(&Expr::eq(Expr::col("", "bookid"), Expr::lit(Value::str("98001")))),
    )
    .unwrap();
    assert_eq!(n, 2);
    assert_eq!(db.row_count("review"), 0);
    assert_eq!(db.row_count("book"), 3); // books untouched
}

#[test]
fn planner_uses_index_join_on_fk() {
    let db = book_db();
    let sel = Parser::parse_select(
        "SELECT book.title FROM book, publisher WHERE book.pubid = publisher.pubid",
    )
    .unwrap();
    let plan = ufilter_rdb::exec::plan_select(&db, &sel, &[]).unwrap();
    let text = plan.explain();
    assert!(text.contains("IndexNLJoin"), "plan was:\n{text}");
}

#[test]
fn planner_falls_back_without_index_join() {
    let mut db = book_db();
    db.set_planner_config(PlannerConfig { enable_index_join: false, enable_hash_join: true });
    let sel = Parser::parse_select(
        "SELECT book.title FROM book, publisher WHERE book.pubid = publisher.pubid",
    )
    .unwrap();
    let plan = ufilter_rdb::exec::plan_select(&db, &sel, &[]).unwrap();
    let text = plan.explain();
    assert!(text.contains("HashJoin"), "plan was:\n{text}");
    // Same rows either way.
    let with_hash = db.query(&sel).unwrap().len();
    db.set_planner_config(PlannerConfig::default());
    assert_eq!(db.query(&sel).unwrap().len(), with_hash);
}

#[test]
fn join_plans_agree_on_results() {
    // Cross-check all three join strategies on a 3-way join.
    let sel = Parser::parse_select(
        "SELECT publisher.pubname, book.title, review.comment \
         FROM publisher, book, review \
         WHERE book.pubid = publisher.pubid AND review.bookid = book.bookid",
    )
    .unwrap();
    let mut results = Vec::new();
    for (ij, hj) in [(true, true), (false, true), (false, false)] {
        let mut db = book_db();
        db.set_planner_config(PlannerConfig { enable_index_join: ij, enable_hash_join: hj });
        let mut rows = db.query(&sel).unwrap().rows;
        rows.sort_by_key(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>());
        results.push(rows);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert_eq!(results[0].len(), 2);
}

#[test]
fn distinct_deduplicates() {
    let db = book_db();
    let rs = db.query_sql("SELECT DISTINCT pubid FROM book").unwrap();
    assert_eq!(rs.len(), 2); // A01, A02
}

#[test]
fn left_join_kind_matters() {
    let db = book_db();
    let inner =
        db.query_sql("SELECT b.bookid FROM book b JOIN review r ON b.bookid = r.bookid").unwrap();
    let left = db
        .query_sql("SELECT b.bookid FROM book b LEFT JOIN review r ON b.bookid = r.bookid")
        .unwrap();
    assert_eq!(inner.len(), 2);
    assert_eq!(left.len(), 4); // 2 matched + 98002/98003 padded
    let _ = JoinKind::Left; // silence unused import lint paranoia
}

#[test]
fn update_statement_with_fk_guard() {
    let mut db = book_db();
    // Changing a referenced key is refused while references exist.
    let err = db.execute_sql("UPDATE book SET bookid = 'X1' WHERE bookid = '98001'").unwrap_err();
    assert!(matches!(err, RdbError::Semantic(_)), "{err}");
    // Unreferenced keys may change.
    db.execute_sql("UPDATE book SET bookid = 'X3' WHERE bookid = '98003'").unwrap();
    assert_eq!(db.query_sql("SELECT * FROM book WHERE bookid = 'X3'").unwrap().len(), 1);
}

#[test]
fn update_respects_check_and_unique() {
    let mut db = book_db();
    let err = db.execute_sql("UPDATE book SET price = -5.00 WHERE bookid = '98001'").unwrap_err();
    assert!(matches!(err, RdbError::CheckViolation { .. }));
    let err = db
        .execute_sql("UPDATE publisher SET pubname = 'McGraw-Hill Inc.' WHERE pubid = 'B01'")
        .unwrap_err();
    assert!(matches!(err, RdbError::UniqueViolation { .. }), "{err}");
}

#[test]
fn delete_policy_mix_on_same_table() {
    // book→publisher CASCADE but review→book RESTRICT: deleting the
    // publisher must fail at the review level and leave everything intact.
    let mut db = Db::new();
    db.execute_sql(
        "CREATE TABLE publisher(pubid VARCHAR2(10), pubname VARCHAR2(100), \
         CONSTRAINTS PubPK PRIMARYKEY (pubid))",
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE book(bookid VARCHAR2(20), pubid VARCHAR2(10), \
         CONSTRAINTS BookPK PRIMARYKEY (bookid), \
         FOREIGNKEY (pubid) REFERENCES publisher (pubid) ON DELETE CASCADE)",
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE review(bookid VARCHAR2(20), reviewid VARCHAR2(3), \
         CONSTRAINTS RevPK PRIMARYKEY (bookid, reviewid), \
         FOREIGNKEY (bookid) REFERENCES book (bookid) ON DELETE RESTRICT)",
    )
    .unwrap();
    db.execute_sql("INSERT INTO publisher VALUES ('A01', 'P')").unwrap();
    db.execute_sql("INSERT INTO book VALUES ('b1', 'A01')").unwrap();
    db.execute_sql("INSERT INTO review VALUES ('b1', 'r1')").unwrap();
    let err = db.execute_sql("DELETE FROM publisher WHERE pubid = 'A01'").unwrap_err();
    assert!(matches!(err, RdbError::ForeignKeyRestrict { .. }), "{err}");
    assert_eq!(db.row_count("publisher"), 1);
    assert_eq!(db.row_count("book"), 1);
    assert_eq!(db.row_count("review"), 1);
}

#[test]
fn rowid_pseudo_column_addressing() {
    // PQ4-style: SELECT ROWID and delete by rowid, as §5's `delete from book
    // where rowid = t3` does.
    let mut db = book_db();
    let rs = db.query_sql("SELECT rowid FROM book WHERE bookid = '98003'").unwrap();
    let rid = match rs.rows[0][0] {
        Value::Int(i) => ufilter_rdb::RowId(i as u64),
        _ => unreachable!(),
    };
    db.delete_rid("book", rid).unwrap();
    assert_eq!(db.row_count("book"), 2);
}

#[test]
fn self_referencing_fk_cascade() {
    let mut db = Db::new();
    db.execute_sql(
        "CREATE TABLE emp(id INT, boss INT, \
         CONSTRAINTS EmpPK PRIMARYKEY (id), \
         FOREIGNKEY (boss) REFERENCES emp (id) ON DELETE CASCADE)",
    )
    .unwrap();
    db.execute_sql("INSERT INTO emp VALUES (1, NULL)").unwrap();
    db.execute_sql("INSERT INTO emp VALUES (2, 1)").unwrap();
    db.execute_sql("INSERT INTO emp VALUES (3, 2)").unwrap();
    db.execute_sql("DELETE FROM emp WHERE id = 1").unwrap();
    assert_eq!(db.row_count("emp"), 0);
}

#[test]
fn delete_policy_enum_exported() {
    assert_eq!(DeletePolicy::default(), DeletePolicy::Cascade);
}

#[test]
fn explain_shows_physical_plan() {
    let mut db = book_db();
    let out = db
        .execute_sql(
            "EXPLAIN SELECT book.title FROM book, publisher WHERE book.pubid = publisher.pubid \
             AND book.bookid = '98001'",
        )
        .unwrap();
    let text: Vec<String> = out.result.unwrap().rows.iter().map(|r| r[0].render()).collect();
    let plan = text.join("\n");
    // The selective equality anchors an IndexScan, then index joins chase.
    assert!(plan.contains("IndexScan book"), "plan was:\n{plan}");
    assert!(plan.contains("IndexNLJoin publisher") || plan.contains("HashJoin"), "{plan}");
}

#[test]
fn explain_in_list_becomes_batched_index_scan() {
    let mut db = book_db();
    let out = db
        .execute_sql("EXPLAIN SELECT comment FROM review WHERE bookid IN ('98001', '98003')")
        .unwrap();
    let plan: Vec<String> = out.result.unwrap().rows.iter().map(|r| r[0].render()).collect();
    // review's PK index leads on bookid? No — composite (bookid, reviewid);
    // the FK index on bookid is single-column and takes the IN-list.
    assert!(plan.join("\n").contains("IndexScan review"), "{}", plan.join("\n"));
}
