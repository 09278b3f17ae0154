//! The concurrent catalog: an `Arc`-shareable, `Sync` wrapper that puts one
//! [`ViewCatalog`] behind one `RwLock` — one writer, many concurrent
//! readers.
//!
//! Checks and routing take the **read** lock once per call; `add`,
//! `drop_view`, guarded DDL and replay take the **write** lock once and
//! delegate to the matching [`ViewCatalog`] method. No path ever holds two
//! guards, so there is no lock order to keep.
//!
//! One hazard remains: std's `RwLock` may block new readers while a writer
//! waits, so a thread that holds a read guard while it waits for anything
//! holds off every writer, and every reader queued behind that writer, for
//! the whole wait. The guard accessor is crate-private for that reason,
//! and a [`CheckPool`](crate::CheckPool) request takes its check slot
//! before the guard and returns it only after dropping the guard: it never
//! waits for a slot while holding the guard.

use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ufilter_core::obs::{self, LockKind};
use ufilter_core::{
    BatchItemReport, BatchStats, CatalogError, CatalogStore, IndexStats, LogRecord, ProbeCache,
    ReplayStats, Route, Target, UFilterConfig, ViewCatalog, ViewInfo,
};
use ufilter_rdb::{DatabaseSchema, Db, ExecOutcome};
use ufilter_xquery::UpdateStmt;

/// FNV-1a 64-bit hash — deterministic across runs and processes (std's
/// default hasher is randomly seeded per `RandomState`). Kept for the
/// `ledger/` benchmark, whose traced replay splits a stream with it.
pub fn affinity_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash apart.
        h ^= 0x1f;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A concurrent view catalog: one [`ViewCatalog`] behind one lock. See the
/// [module docs](self) for the locking design; semantics are exactly
/// [`ViewCatalog`]'s (compile-once cache, RESTRICT DDL guard, batch
/// amortization).
///
/// The name is historical: the catalog was once split into per-name
/// shards. The sharded API survives where callers still use it
/// ([`with_config`](Self::with_config)'s `shards` argument and
/// [`shard_of`](Self::shard_of), both no-ops kept for the `ledger/`
/// harness).
pub struct ShardedCatalog {
    inner: RwLock<ViewCatalog>,
    /// The durable store attached to `inner` (see
    /// [`ufilter_core::persist`]), kept here too so the service's
    /// `STATS`/`SHUTDOWN`/`CATALOG VERIFY` paths reach it without the
    /// catalog lock.
    store: Option<Arc<Mutex<CatalogStore>>>,
}

impl ShardedCatalog {
    /// An empty catalog over `schema`, with the default pipeline config.
    pub fn new(schema: DatabaseSchema) -> ShardedCatalog {
        ShardedCatalog::with_config(schema, UFilterConfig::default(), 1)
    }

    /// An empty catalog over `schema` with an explicit pipeline
    /// configuration. `_shards` is ignored: there is one catalog.
    pub fn with_config(
        schema: DatabaseSchema,
        config: UFilterConfig,
        _shards: usize,
    ) -> ShardedCatalog {
        ShardedCatalog {
            inner: RwLock::new(ViewCatalog::new(schema).with_config(config)),
            store: None,
        }
    }

    /// Attach a durable store: from now on all catalog mutations append
    /// their record before acknowledging. Call **after**
    /// [`replay`](Self::replay) and before the catalog is shared (`&mut
    /// self` enforces both).
    pub fn attach_store(&mut self, store: Arc<Mutex<CatalogStore>>) {
        self.inner.get_mut().expect("catalog lock poisoned").attach_store(Arc::clone(&store));
        self.store = Some(store);
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<Mutex<CatalogStore>>> {
        self.store.as_ref()
    }

    /// Rebuild the catalog from recovered records ([`ViewCatalog::replay`]
    /// under the write lock). Must run before
    /// [`attach_store`](Self::attach_store).
    pub fn replay(&self, db: &mut Db, records: &[LogRecord]) -> Result<ReplayStats, CatalogError> {
        self.write().replay(db, records)
    }

    /// Always 0: there is one catalog. Kept for callers written against
    /// the sharded API.
    pub fn shard_of(&self, _view: &str) -> usize {
        0
    }

    /// The read guard. Wait for nothing while holding it, not even a
    /// [`CheckPool`](crate::CheckPool) slot (see the [module docs](self)).
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, ViewCatalog> {
        self.inner.read().expect("catalog lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ViewCatalog> {
        self.inner.write().expect("catalog lock poisoned")
    }

    /// Register `view_text` under `name` (one write lock).
    pub fn add(&self, name: &str, view_text: &str) -> Result<ViewInfo, CatalogError> {
        let span = obs::clock();
        let out = self.write().add(name, view_text);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// Unregister `name` (one write lock).
    pub fn drop_view(&self, name: &str) -> Result<(), CatalogError> {
        let span = obs::clock();
        let out = self.write().drop_view(name);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// All registered views in name order.
    pub fn list(&self) -> Vec<ViewInfo> {
        self.read().list()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no view is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Route a parsed update through the relevance index: the candidate
    /// views, in ascending name order (kept for the `ledger/` benchmark,
    /// which calls it).
    pub fn route_update(&self, u: &UpdateStmt) -> Route {
        self.read().route_update(u)
    }

    /// Routing-index gauges: structural posting lists (tags, root children
    /// and edges), posting entries, approximate resident bytes, and
    /// incremental insert/remove counts. The service `STATS` verb reports
    /// these as its `trie_*` keys.
    pub fn index_stats(&self) -> IndexStats {
        self.read().index_stats()
    }

    /// [`ViewCatalog::execute_guarded`] under the write lock: the RESTRICT
    /// guard, the statement, the schema refresh and (with a store
    /// attached) the log append happen in one critical section, so
    /// concurrent checks never observe a half-updated catalog.
    pub fn execute_guarded(&self, db: &mut Db, sql: &str) -> Result<ExecOutcome, CatalogError> {
        let span = obs::clock();
        let out = self.write().execute_guarded(db, sql);
        obs::lock_hold_elapsed(LockKind::Write, span);
        out
    }

    /// Check `(caller index, view, update text)` items in one
    /// [`ViewCatalog::check`] call under the read lock, sharing `cache`
    /// across the call (kept for the `ledger/` benchmark, which calls it).
    /// Reports come back in input order, labelled with the caller's
    /// indices.
    pub fn check_indexed(
        &self,
        items: &[(usize, &str, &str)],
        db: &mut Db,
        cache: &mut ProbeCache,
    ) -> (Vec<BatchItemReport>, BatchStats) {
        let named: Vec<_> =
            items.iter().map(|(_, view, text)| (Target::View(view), *text)).collect();
        let span = obs::clock();
        let report = self.read().check(&named, db, cache);
        obs::lock_hold_elapsed(LockKind::Read, span);
        let mut out = report.items;
        for item in &mut out {
            item.index = items[item.index].0;
        }
        (out, report.stats)
    }
}

// The whole point of the catalog: it can be shared across connection
// threads behind an Arc.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<ShardedCatalog>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ufilter_core::bookdemo;
    use ufilter_rdb::Parser;

    #[test]
    fn affinity_hash_is_stable_and_separator_aware() {
        assert_eq!(affinity_hash(&["books"]), affinity_hash(&["books"]));
        assert_ne!(affinity_hash(&["ab", "c"]), affinity_hash(&["a", "bc"]));
    }

    #[test]
    fn add_list_drop() {
        let cat = ShardedCatalog::new(bookdemo::book_schema());
        for name in ["d", "b", "a", "e", "c"] {
            cat.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        assert_eq!(cat.len(), 5);
        let names: Vec<String> = cat.list().into_iter().map(|v| v.name).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert!(cat.add("a", bookdemo::BOOK_VIEW).is_err(), "duplicate rejected");
        cat.drop_view("c").unwrap();
        assert_eq!(cat.len(), 4);
        assert!(cat.drop_view("c").is_err());
        assert_eq!(cat.shard_of("a"), 0);
    }

    /// The wrapper reports exactly what a plain `ViewCatalog` given the
    /// same adds reports: one trie, not one per partition.
    #[test]
    fn index_stats_and_routes_match_a_plain_catalog() {
        let mut plain = ViewCatalog::new(bookdemo::book_schema());
        let wrapped = ShardedCatalog::with_config(bookdemo::book_schema(), plain.config(), 4);
        for name in ["d", "b", "a", "c"] {
            plain.add(name, bookdemo::BOOK_VIEW).unwrap();
            wrapped.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        assert_eq!(wrapped.index_stats(), plain.index_stats());
        for text in [bookdemo::U8, bookdemo::U10, bookdemo::U13] {
            let u = ufilter_xquery::parse_update(text).unwrap();
            let (a, b) = (wrapped.route_update(&u), plain.route_update(&u));
            assert_eq!(a, b);
            assert_eq!(a.candidates, ["a", "b", "c", "d"]);
            assert_eq!(wrapped.read().prune_levels(&u), plain.prune_levels(&u));
        }
    }

    #[test]
    fn outcomes_match_a_plain_catalog() {
        let mut single = ViewCatalog::new(bookdemo::book_schema());
        single.add("books", bookdemo::BOOK_VIEW).unwrap();
        let wrapped = ShardedCatalog::new(bookdemo::book_schema());
        wrapped.add("books", bookdemo::BOOK_VIEW).unwrap();

        let stream: Vec<(String, String)> = [bookdemo::U8, bookdemo::U10, bookdemo::U13]
            .iter()
            .map(|u| ("books".to_string(), u.to_string()))
            .collect();
        let wire = |items: &[BatchItemReport]| -> Vec<String> {
            items
                .iter()
                .flat_map(|i| {
                    i.reports.iter().map(|r| ufilter_core::wire::encode_outcome(&r.outcome))
                })
                .collect()
        };
        let a = single.check_batch_text(&stream, &mut bookdemo::book_db());

        // check_indexed relabels reports with the caller's indices.
        let indexed: Vec<(usize, &str, &str)> =
            stream.iter().zip([7, 3, 9]).map(|((v, t), i)| (i, v.as_str(), t.as_str())).collect();
        let (items, stats) =
            wrapped.check_indexed(&indexed, &mut bookdemo::book_db(), &mut ProbeCache::new());
        assert_eq!(items.iter().map(|i| i.index).collect::<Vec<_>>(), [7, 3, 9]);
        assert_eq!(stats.items, 3);
        assert_eq!(wire(&items), wire(&a.items));
    }

    #[test]
    fn ddl_guard_and_schema_refresh() {
        let cat = ShardedCatalog::new(bookdemo::book_schema());
        cat.add("books", bookdemo::BOOK_VIEW).unwrap();
        let mut db = bookdemo::book_db();
        let e = cat.execute_guarded(&mut db, "DROP TABLE review").unwrap_err();
        assert!(e.to_string().contains("books"), "{e}");
        // A relation no view reads can be created and dropped; afterwards
        // the catalog has adopted the refreshed schema.
        cat.execute_guarded(&mut db, "CREATE TABLE scratch (id INTEGER)").unwrap();
        assert!(cat.read().schema().table("scratch").is_some());
        let drop = Parser::parse_stmt("DROP TABLE scratch").unwrap();
        assert!(cat.read().guard_ddl(&drop).is_ok());
        cat.execute_guarded(&mut db, "DROP TABLE scratch").unwrap();
        assert!(cat.read().schema().table("scratch").is_none(), "schema stale");
    }

    #[test]
    fn durable_catalog_replays_to_identical_state() {
        let dir =
            std::env::temp_dir().join(format!("ufilter-catalog-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = bookdemo::book_db();

        // Session 1: mutate through every durable path.
        let mut cat = ShardedCatalog::new(bookdemo::book_schema());
        cat.attach_store(Arc::new(Mutex::new(CatalogStore::open(&dir).unwrap())));
        for name in ["a", "b", "c"] {
            cat.add(name, bookdemo::BOOK_VIEW).unwrap();
        }
        cat.drop_view("b").unwrap();
        cat.execute_guarded(&mut db, "CREATE TABLE scratch (id INTEGER)").unwrap();
        let before: Vec<(String, bool)> =
            cat.list().into_iter().map(|v| (v.name, v.cached)).collect();

        // Session 2: recover from disk alone.
        let mut db2 = bookdemo::book_db();
        let store = CatalogStore::open(&dir).unwrap();
        let mut cat2 = ShardedCatalog::new(bookdemo::book_schema());
        let stats = cat2.replay(&mut db2, store.records()).unwrap();
        cat2.attach_store(Arc::new(Mutex::new(store)));
        assert_eq!((stats.adds, stats.drops, stats.ddl), (3, 1, 1));
        assert_eq!(stats.rehydrated, 3, "artifacts (or the cache) served every add");
        let after: Vec<(String, bool)> =
            cat2.list().into_iter().map(|v| (v.name, v.cached)).collect();
        assert_eq!(before, after, "list (with cached flags) is byte-identical");
        assert!(db2.schema().table("scratch").is_some(), "DDL re-executed on replay");

        // Replay after attach is a usage error, not silent double-logging.
        assert!(cat2.replay(&mut db2, &[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_view_gets_per_item_report() {
        let cat = ShardedCatalog::new(bookdemo::book_schema());
        let mut db = bookdemo::book_db();
        let (items, _) =
            cat.check_indexed(&[(0, "ghost", bookdemo::U8)], &mut db, &mut ProbeCache::new());
        assert_eq!(items.len(), 1);
        assert!(!items[0].reports[0].outcome.is_translatable());
    }
}
