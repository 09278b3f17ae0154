//! Criterion micro-benches over the relational substrate: join strategies
//! (the index effect behind Fig. 16), cascade deletes (the cost profile of
//! Fig. 13), and rollback (the penalty of Fig. 14).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ufilter_rdb::DeletePolicy;
use ufilter_rdb::{Parser, PlannerConfig};
use ufilter_tpch::{generate, Scale};

fn bench_joins(c: &mut Criterion) {
    let db = generate(Scale::mb(5), 42, DeletePolicy::Cascade);
    let q = Parser::parse_select(
        "SELECT customer.c_name, orders.o_totalprice FROM customer, orders \
         WHERE orders.o_custkey = customer.c_custkey AND customer.c_custkey = 17",
    )
    .unwrap();
    c.bench_function("join_with_indexes", |b| b.iter(|| db.query(&q).unwrap()));
    let mut db2 = db.clone();
    db2.set_planner_config(PlannerConfig { enable_index_join: false, enable_hash_join: false });
    c.bench_function("join_nested_loop", |b| b.iter(|| db2.query(&q).unwrap()));
    let mut db3 = db.clone();
    db3.set_planner_config(PlannerConfig { enable_index_join: false, enable_hash_join: true });
    c.bench_function("join_hash", |b| b.iter(|| db3.query(&q).unwrap()));
}

fn bench_cascade_and_rollback(c: &mut Criterion) {
    let db = generate(Scale::mb(2), 42, DeletePolicy::Cascade);
    c.bench_function("cascade_delete_region", |b| {
        b.iter_batched(
            || db.deep_clone(),
            |mut db| {
                db.execute_sql("DELETE FROM region WHERE r_regionkey = 1").unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("cascade_delete_then_rollback", |b| {
        b.iter_batched(
            || db.deep_clone(),
            |mut db| {
                db.begin().unwrap();
                db.execute_sql("DELETE FROM region WHERE r_regionkey = 1").unwrap();
                db.rollback().unwrap();
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_joins, bench_cascade_and_rollback);
criterion_main!(benches);
