//! Criterion micro-benches over Step 3: the three update-point strategies
//! at a fixed database size, plus view materialization (the blind
//! baseline's dominant cost).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ufilter_core::{Strategy, UFilter, UFilterConfig};
use ufilter_rdb::DeletePolicy;
use ufilter_tpch::{generate, tpch_schema, updates, Scale, V_SUCCESS};
use ufilter_xquery::{materialize, parse_view_query};

fn bench_strategies(c: &mut Criterion) {
    let schema = tpch_schema(DeletePolicy::Cascade);
    let db = generate(Scale::mb(5), 42, DeletePolicy::Cascade);
    let update = updates::insert_lineitem(3, 99);
    for (name, strategy) in [
        ("point_check_outside", Strategy::Outside),
        ("point_check_hybrid", Strategy::Hybrid),
        ("point_check_internal", Strategy::Internal),
    ] {
        let filter = UFilter::compile(V_SUCCESS, &schema)
            .unwrap()
            .with_config(UFilterConfig { strategy, ..Default::default() });
        c.bench_function(name, |b| {
            b.iter_batched(
                || db.deep_clone(),
                |mut db| {
                    let reports = filter.apply(&update, &mut db);
                    assert!(reports[0].outcome.is_translatable());
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_materialization(c: &mut Criterion) {
    let q = parse_view_query(V_SUCCESS).unwrap();
    let db = generate(Scale::mb(2), 42, DeletePolicy::Cascade);
    c.bench_function("materialize_vsuccess_2mb", |b| b.iter(|| materialize(&db, &q).unwrap()));
}

criterion_group!(benches, bench_strategies, bench_materialization);
criterion_main!(benches);
