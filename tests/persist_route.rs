//! Warm-restart routing (`ufilter-core::persist` × `ufilter-route`).
//!
//! The contract under test: replaying a persisted many-view catalog
//! populates the shared path-trie routing index **straight from the
//! artifacts** — `decode_artifact_header` yields each view's routing
//! signature without compiling a single view (each compiles at its first
//! check) — and the warm catalog routes byte-identically to the catalog
//! that compiled every view from source. Routing itself must never force
//! a compile: candidate selection is a pure signature-index operation.

use std::sync::{Arc, Mutex};

use u_filter::core::catalog::ViewCatalog;
use u_filter::core::CatalogStore;
use u_filter::tpch::{fanout_stream, many_views, tpch_schema, Scale};
use ufilter_rdb::{Db, DeletePolicy};

/// Views in the persisted catalog. Large enough that a linear rebuild
/// would dominate restart cost; small enough for a debug-mode test run.
const N: usize = 10_000;

#[test]
fn warm_restart_populates_the_trie_without_decoding_any_asg() {
    let scale = Scale::tiny();
    let schema = tpch_schema(DeletePolicy::Cascade);
    let dir = std::env::temp_dir().join(format!("ufilter-persist-route-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Build and persist the catalog the slow way: every view compiled from
    // source, every Add record carrying its artifact (config + signature).
    let mut cold = ViewCatalog::new(schema.clone());
    cold.attach_store(Arc::new(Mutex::new(CatalogStore::open(&dir).expect("store opens"))));
    for (name, text) in many_views(N, scale) {
        cold.add(&name, &text).expect("generated view compiles");
    }
    assert_eq!(cold.len(), N);
    assert_eq!(cold.hydrated_count(), N, "compiled-from-source views are all hydrated");
    let cold_stats = cold.index_stats();
    assert!(cold_stats.nodes > 0 && cold_stats.postings > 0, "{cold_stats:?}");

    // Warm restart: replay the recovered records into a fresh catalog.
    let store = CatalogStore::open(&dir).expect("store reopens");
    let mut db = Db::new(); // no DDL records, so replay never touches it
    let mut warm = ViewCatalog::new(schema);
    let stats = warm.replay(&mut db, store.records()).expect("replay succeeds");
    assert_eq!(stats.adds, N);
    assert_eq!(stats.rehydrated, N, "every view rehydrates from its artifact prelude");
    assert_eq!(stats.recompiled, 0, "no view falls back to a recompile");

    // The pin: replay populated the routing index without compiling a view.
    assert_eq!(warm.len(), N);
    assert_eq!(warm.hydrated_count(), 0, "replay compiled a view it should have deferred");
    let warm_stats = warm.index_stats();
    assert_eq!(warm_stats.nodes, cold_stats.nodes, "trie shape differs after warm restart");
    assert_eq!(warm_stats.postings, cold_stats.postings);

    // Routing a realistic update stream over the warm catalog: candidates
    // identical to the fully-compiled catalog, and still zero hydrations —
    // relevance is decided from the trie alone.
    for text in fanout_stream(50, scale, 7) {
        let u = ufilter_xquery::parse_update(&text).expect("fan-out update parses");
        let warm_route = warm.route_update(&u);
        let cold_route = cold.route_update(&u);
        assert_eq!(
            warm_route.candidates, cold_route.candidates,
            "warm and cold catalogs route differently\nupdate: {text}"
        );
        assert!(!warm_route.fallback, "fan-out updates are classifiable");
    }
    assert_eq!(warm.hydrated_count(), 0, "routing forced a hydration");

    let _ = std::fs::remove_dir_all(&dir);
}
