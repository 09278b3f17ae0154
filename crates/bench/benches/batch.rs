//! Criterion micro-benches for the batch checking engine: one-at-a-time vs
//! `ViewCatalog::check` over repeat-heavy and all-distinct streams.

use criterion::{criterion_group, criterion_main, Criterion};
use ufilter_core::ViewCatalog;
use ufilter_rdb::DeletePolicy;
use ufilter_tpch::{generate, stream, stream_views, tpch_schema, Scale, StreamSpec};

fn catalog() -> ViewCatalog {
    let mut c = ViewCatalog::new(tpch_schema(DeletePolicy::Cascade));
    for (name, text) in stream_views() {
        c.add(name, text).expect("evaluation view compiles");
    }
    c
}

fn bench_batch(c: &mut Criterion) {
    let cat = catalog();
    let scale = Scale::tiny();
    let db = generate(scale, 42, DeletePolicy::Cascade);
    let heavy = stream(StreamSpec::heavy(64), scale, 42);
    let distinct = stream(StreamSpec { len: 64, distinct_keys: 1_000_000 }, scale, 42);

    c.bench_function("stream64_one_at_a_time", |b| {
        b.iter(|| {
            let mut db = db.clone();
            for (view, text) in &heavy {
                cat.get(view).expect("registered").check(text, &mut db);
            }
        })
    });
    c.bench_function("stream64_batched_heavy", |b| {
        b.iter(|| {
            let mut db = db.clone();
            cat.check_batch_text(&heavy, &mut db)
        })
    });
    c.bench_function("stream64_batched_all_distinct", |b| {
        b.iter(|| {
            let mut db = db.clone();
            cat.check_batch_text(&distinct, &mut db)
        })
    });
}

fn bench_registration(c: &mut Criterion) {
    let schema = tpch_schema(DeletePolicy::Cascade);
    let (name, text) = stream_views()[0];
    c.bench_function("catalog_add_cold", |b| {
        b.iter(|| {
            let mut cat = ViewCatalog::new(schema.clone());
            cat.add(name, text).unwrap()
        })
    });
    c.bench_function("catalog_add_cached", |b| {
        let mut cat = ViewCatalog::new(schema.clone());
        cat.add(name, text).unwrap();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            cat.add(&format!("v{i}"), text).unwrap()
        })
    });
}

criterion_group!(benches, bench_batch, bench_registration);
criterion_main!(benches);
