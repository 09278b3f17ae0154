//! Criterion micro-benches for the relevance index: routing cost per
//! update at catalog scale, trie insert/remove/route at signature scale,
//! and full check-all fan-out vs the brute-force every-view request.

use criterion::{criterion_group, criterion_main, Criterion};
use ufilter_asg::build_view_asg;
use ufilter_core::{ProbeCache, Target, ViewCatalog};
use ufilter_rdb::DeletePolicy;
use ufilter_route::{Footprint, RelevanceIndex, TrieIndex, ViewSignature};
use ufilter_tpch::{fanout_stream, generate, many_views, tpch_schema, Scale};
use ufilter_xquery::{parse_update, parse_view_query};

fn catalog(n: usize) -> ViewCatalog {
    let mut c = ViewCatalog::new(tpch_schema(DeletePolicy::Cascade));
    for (name, text) in many_views(n, Scale::tiny()) {
        c.add(&name, &text).expect("generated view compiles");
    }
    c
}

/// Signature-only catalog: parse + ASG build, no UFilter compilation.
fn signatures(n: usize) -> Vec<(String, ViewSignature)> {
    let schema = tpch_schema(DeletePolicy::Cascade);
    many_views(n, Scale::tiny())
        .into_iter()
        .map(|(name, text)| {
            let q = parse_view_query(&text).expect("view parses");
            let asg = build_view_asg(&q, &schema).expect("view builds");
            (name, ViewSignature::of(&asg))
        })
        .collect()
}

fn bench_route(c: &mut Criterion) {
    let scale = Scale::tiny();
    let cat = catalog(100);
    let update = parse_update(&ufilter_tpch::fanout_updates::delete_customer_orders(3))
        .expect("update parses");

    c.bench_function("route_one_update_100_views", |b| b.iter(|| cat.route_update(&update)));

    let db = generate(scale, 42, DeletePolicy::Cascade);
    let updates = fanout_stream(16, scale, 42);
    let routed: Vec<_> = updates.iter().map(|u| (Target::Routed, u.as_str())).collect();
    let names: Vec<String> = cat.list().into_iter().map(|v| v.name).collect();
    let every_view: Vec<_> = updates
        .iter()
        .flat_map(|u| names.iter().map(move |v| (Target::View(v), u.as_str())))
        .collect();
    c.bench_function("check_all_indexed_16x100", |b| {
        b.iter(|| {
            let mut db = db.clone();
            cat.check(&routed, &mut db, &mut ProbeCache::new())
        })
    });
    c.bench_function("check_all_brute_16x100", |b| {
        b.iter(|| {
            let mut db = db.clone();
            cat.check(&every_view, &mut db, &mut ProbeCache::new())
        })
    });
}

/// Trie vs linear at signature scale: route one footprint over a 10k-view
/// index, and the incremental insert+remove cycle that keeps a live trie
/// current without a rebuild.
fn bench_trie(c: &mut Criterion) {
    const N: usize = 10_000;
    let sigs = signatures(N);
    let mut trie = TrieIndex::new();
    let mut linear = RelevanceIndex::new();
    for (name, sig) in &sigs {
        trie.insert_signature(name, sig.clone());
        linear.insert_signature(name, sig.clone());
    }
    let fp = Footprint::of(
        &parse_update(&ufilter_tpch::fanout_updates::delete_customer_orders(3))
            .expect("update parses"),
    );

    c.bench_function("trie_route_one_update_10k_views", |b| b.iter(|| trie.route_footprint(&fp)));
    c.bench_function("linear_route_one_update_10k_views", |b| {
        b.iter(|| linear.route_footprint(&fp))
    });

    // Churn one view in and out of the full trie: remove + re-insert, the
    // steady-state cost of catalog ADD/DROP at scale.
    let (churn_name, churn_sig) = sigs[N / 2].clone();
    c.bench_function("trie_insert_remove_cycle_10k_views", |b| {
        b.iter(|| {
            trie.remove(&churn_name);
            trie.insert_signature(&churn_name, churn_sig.clone());
        })
    });
}

criterion_group!(benches, bench_route, bench_trie);
criterion_main!(benches);
