//! The shared path-trie routing index: every registered view's signature
//! merged into **one** structure, so routing cost scales with the update's
//! footprint and the postings of its rarest requirement, not with the
//! catalog's size.
//!
//! ## Node layout
//!
//! The trie has two branches under a shared root (YFilter's split between
//! anchored and floating path steps, specialised to the two structural
//! requirements a [`Footprint`] can carry):
//!
//! * **Anchored branch** — one depth-1 node per distinct tag that is a
//!   direct child of some view's root. Its postings answer the footprint's
//!   `root_children` requirements (first steps of `document(…)` bindings).
//! * **Floating branch** (`//tag`) — one depth-1 node per distinct tag in
//!   any view's vocabulary; its postings answer token requirements
//!   (level 1). Each floating node's children are the tags observed as its
//!   ASG children; those depth-2 nodes' postings answer `(parent, child)`
//!   edge requirements (level 2).
//!
//! Every node carries a sorted `u32` posting list of view ids
//! ([`crate::postings`]).
//!
//! ## Routing: one intersection, rarest requirement first
//!
//! A route does not walk the levels in order. Every requirement the
//! footprint carries — each token, root child and edge (one posting list
//! each) and each constant predicate (its pass-through list plus the
//! postings of every target it leaves satisfiable, kept as separate
//! slices) — goes into **one** intersection, taken rarest first. The
//! rarest requirement seeds the survivors; every later slice is galloped
//! (exponential search) against them. Levels 1 and 2 hold every view of a
//! family, and a predicate's unconstrained target can hold a whole other
//! family, but a galloping step costs `O(log)` of the list it skips. A route
//! therefore costs the rarest requirement's postings plus a few galloping
//! steps per survivor and slice: about 1–3 µs from 10³ to 10⁵ views on the
//! TPC-H fan-out stream. The per-level split of the pruned views is not a
//! by-product of this; [`TrieIndex::prune_levels`] computes it on demand.
//!
//! ## Predicate level: deduplicated targets + interval pre-filter
//!
//! Level 3 is where a linear index spends its time: every surviving view
//! clones and re-constrains a [`Domain`] per predicate. The trie instead
//! keeps, per tag, the **distinct** `(type, domain, hint)` resolution
//! targets across all views (deduplicated by structural key, each with its
//! own postings — partition families collapse to one target per
//! partition, unconstrained columns collapse to a single shared target).
//! Targets whose domain is a pure interval with numeric endpoints are also
//! entered into sorted endpoint arrays, so an equality predicate finds the
//! few stabbed intervals by binary search and only those run the real
//! `constrain` + `satisfiable` check. Intervals with an infinite endpoint
//! are kept apart — `(−∞, hi]` sorted by `hi`, `[lo, +∞)` sorted by `lo`,
//! `(−∞, +∞)` always evaluated — so one unbounded target cannot pin the
//! stab's running max-`hi` bound and make it walk every interval below the
//! probe. The pre-filter is deliberately **over-approximate** (endpoints
//! widened outward before comparison): admitted targets are always
//! re-checked exactly, and a target is skipped only when the widened
//! interval proves the constrained domain empty — so the surviving set is
//! bit-identical to evaluating every target.
//!
//! ## Incremental remove
//!
//! Removal is the mirror of insertion, O(size of the removed view's own
//! signature): each posting entry is deleted by binary search, trie nodes
//! whose postings and children both emptied are unlinked and their ids
//! recycled, and predicate targets are freed when their postings empty.
//! The per-tag endpoint arrays are *not* rebuilt inline — mutation just
//! drops the derived arrays and the next route rebuilds them once (an
//! add/drop burst pays one O(m log m) rebuild, not one per mutation).
//!
//! ## Soundness
//!
//! The trie prunes exactly when the per-view
//! [`RelevanceIndex`](crate::RelevanceIndex) test would: level 1/2
//! postings are set-decompositions of the same signature fields, and level
//! 3 evaluates the same domains with the same typing and the same
//! satisfiability hint. Intersection is order-free, so taking the
//! requirements rarest first instead of level by level changes nothing:
//! `TrieIndex::route` and the per-view `route` return identical candidate
//! sets, and [`TrieIndex::prune_levels`] and its per-view counterpart
//! return identical per-level splits — properties the workspace holds
//! with differential tests (`tests/route_soundness.rs`) and a fuzz oracle
//! (`ufilter-fuzz`).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

use ufilter_asg::ViewAsg;
use ufilter_rdb::sat::Domain;
use ufilter_rdb::{CmpOp, DataType, Value};
use ufilter_xquery::UpdateStmt;

use crate::footprint::Footprint;
use crate::index::{PruneLevels, Route, SignatureParts, ViewSignature};
use crate::postings::{
    intersect_all, IndexStats, Postings, Requirement, TagInterner, ViewInterner,
};

/// Node id of the anchored branch root.
const ANCHORED_ROOT: u32 = 0;
/// Node id of the floating (`//`) branch root.
const FLOATING_ROOT: u32 = 1;

#[derive(Debug, Default)]
struct TrieNode {
    parent: u32,
    tag: u32,
    children: HashMap<u32, u32>,
    postings: Postings,
    live: bool,
}

/// One deduplicated predicate resolution target: the shared
/// `(type, domain, hint)` triple plus the views that carry it.
#[derive(Debug)]
struct PredTarget {
    ty: DataType,
    sat_ty: DataType,
    domain: Domain,
    /// Structural dedupe key (also the `by_key` reverse entry to erase on
    /// free).
    key: String,
    /// Widened `(lo, hi)` endpoint keys when the domain is a pure numeric
    /// interval; `None` ⇒ the target is always evaluated exactly.
    interval: Option<(f64, f64)>,
    postings: Postings,
}

/// Per-`DataType` view of a tag's targets, derived lazily from the slot
/// table: the sorted endpoint arrays the interval pre-filter searches.
/// Intervals with an infinite endpoint are kept apart from the finite ones,
/// so one unbounded interval cannot pin the equality stab's running
/// max-`hi` bound at +∞ and turn the stab into a scan.
#[derive(Debug)]
struct Group {
    ty: DataType,
    /// Every live slot of this type (the exact-evaluation fallback set).
    members: Vec<u32>,
    /// Finite intervals as `(lo, hi, slot)`, ascending `lo`.
    by_lo: Vec<(f64, f64, u32)>,
    /// Running maximum of `hi` over `by_lo[..=i]` — lets the equality stab
    /// walk stop as soon as no earlier interval can still reach the probe.
    prefix_max_hi: Vec<f64>,
    /// Finite intervals as `(hi, slot)`, ascending `hi`.
    by_hi: Vec<(f64, u32)>,
    /// Intervals `(−∞, hi]` as `(hi, slot)`, ascending `hi`.
    open_lo: Vec<(f64, u32)>,
    /// Intervals `[lo, +∞)` as `(lo, slot)`, ascending `lo`.
    open_hi: Vec<(f64, u32)>,
    /// Targets without a usable interval (equality pins, disequalities,
    /// non-numeric or contradicted domains) and unbounded `(−∞, +∞)`
    /// targets — always evaluated exactly.
    residual: Vec<u32>,
}

impl Default for Group {
    fn default() -> Group {
        Group {
            ty: DataType::Str,
            members: Vec::new(),
            by_lo: Vec::new(),
            prefix_max_hi: Vec::new(),
            by_hi: Vec::new(),
            open_lo: Vec::new(),
            open_hi: Vec::new(),
            residual: Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Derived {
    groups: Vec<Group>,
}

/// The level-3 index of one tag: deduplicated targets, the pass-through
/// postings, and the lazily derived endpoint arrays.
#[derive(Debug, Default)]
struct PredIndex {
    /// Views whose vocabulary contains the tag but whose signature carries
    /// **no** `leaf_domains` entry for it — the legacy index passes those
    /// unconditionally, so the trie must too.
    pass: Postings,
    slots: Vec<Option<PredTarget>>,
    free: Vec<u32>,
    by_key: HashMap<String, u32>,
    /// `None` ⇒ dirty; rebuilt on the next route that needs it. Mutations
    /// run under `&mut self` (no readers), so the lock is only for the
    /// lazy fill under `&self`.
    derived: RwLock<Option<Arc<Derived>>>,
}

impl PredIndex {
    fn slot_for(&mut self, key: String, ty: DataType, sat_ty: DataType, domain: &Domain) -> u32 {
        if let Some(slot) = self.by_key.get(&key) {
            return *slot;
        }
        let target = PredTarget {
            ty,
            sat_ty,
            domain: domain.clone(),
            key: key.clone(),
            interval: interval_of(domain),
            postings: Postings::default(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(target);
                slot
            }
            None => {
                self.slots.push(Some(target));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_key.insert(key, slot);
        slot
    }

    fn target(&self, slot: u32) -> &PredTarget {
        self.slots[slot as usize].as_ref().expect("derived arrays only hold live slots")
    }

    fn is_empty(&self) -> bool {
        self.pass.is_empty() && self.by_key.is_empty()
    }

    fn invalidate(&mut self) {
        *self.derived.get_mut().expect("derived lock") = None;
    }

    fn derived(&self) -> Arc<Derived> {
        if let Some(d) = self.derived.read().expect("derived lock").as_ref() {
            return Arc::clone(d);
        }
        let mut w = self.derived.write().expect("derived lock");
        if let Some(d) = w.as_ref() {
            return Arc::clone(d);
        }
        let mut groups: Vec<Group> = Vec::new();
        for (slot, t) in self.slots.iter().enumerate() {
            let Some(t) = t else { continue };
            let slot = slot as u32;
            let g = match groups.iter_mut().find(|g| g.ty == t.ty) {
                Some(g) => g,
                None => {
                    groups.push(Group { ty: t.ty, ..Group::default() });
                    groups.last_mut().expect("just pushed")
                }
            };
            g.members.push(slot);
            match t.interval {
                Some((lo, hi)) if lo.is_finite() && hi.is_finite() => g.by_lo.push((lo, hi, slot)),
                Some((lo, _)) if lo.is_finite() => g.open_hi.push((lo, slot)),
                Some((_, hi)) if hi.is_finite() => g.open_lo.push((hi, slot)),
                _ => g.residual.push(slot),
            }
        }
        for g in &mut groups {
            g.by_lo.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut max_hi = f64::NEG_INFINITY;
            g.prefix_max_hi = g
                .by_lo
                .iter()
                .map(|(_, hi, _)| {
                    max_hi = max_hi.max(*hi);
                    max_hi
                })
                .collect();
            g.by_hi = g.by_lo.iter().map(|(_, hi, slot)| (*hi, *slot)).collect();
            g.by_hi.sort_by(|a, b| a.0.total_cmp(&b.0));
            g.open_lo.sort_by(|a, b| a.0.total_cmp(&b.0));
            g.open_hi.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let d = Arc::new(Derived { groups });
        *w = Some(Arc::clone(&d));
        d
    }

    /// The requirement `tag θ value` puts on a view: the pass-through
    /// postings plus the postings of every target whose constrained domain
    /// stays satisfiable, kept as separate slices. Exactly the per-view
    /// level-3 test, shared across views.
    fn allowed(&self, op: CmpOp, value: &Value) -> Requirement<'_> {
        let derived = self.derived();
        let mut sat_slots: Vec<u32> = Vec::new();
        for g in &derived.groups {
            let typed = typed_literal(value, g.ty);
            let sat = |slot: &u32| {
                let t = self.target(*slot);
                let mut d = t.domain.clone();
                d.constrain(op, &typed);
                d.satisfiable(Some(t.sat_ty))
            };
            let Some(q) = numeric(&typed) else {
                // Non-numeric probe (string, bool, null): no endpoint
                // order to exploit — evaluate every target exactly.
                sat_slots.extend(g.members.iter().copied().filter(sat));
                continue;
            };
            // Admit exactly the intervals meeting `lo ≤ q` (for < and ≤),
            // `hi ≥ q` (for > and ≥), or both (for =); a skipped interval
            // provably empties the constrained domain.
            let lo_le = |list: &[(f64, u32)]| list.partition_point(|e| e.0 <= q);
            let hi_ge = |list: &[(f64, u32)]| list.partition_point(|e| e.0 < q);
            let (open_lo, open_hi) = (&g.open_lo, &g.open_hi);
            let mut admitted: Vec<u32> = Vec::new();
            match op {
                CmpOp::Ne => {
                    // ≠ can only contradict point-pinned domains; cheaper
                    // to evaluate the group than to classify widths.
                    sat_slots.extend(g.members.iter().copied().filter(sat));
                    continue;
                }
                CmpOp::Eq => {
                    // Stab query over the finite intervals: walk the
                    // lo-sorted prefix backwards; the running max-hi bound
                    // proves when no earlier interval can reach q.
                    let p = g.by_lo.partition_point(|e| e.0 <= q);
                    for i in (0..p).rev() {
                        if g.prefix_max_hi[i] < q {
                            break;
                        }
                        let (_, hi, slot) = g.by_lo[i];
                        if hi >= q {
                            admitted.push(slot);
                        }
                    }
                    admitted.extend(open_lo[hi_ge(open_lo)..].iter().map(|e| e.1));
                    admitted.extend(open_hi[..lo_le(open_hi)].iter().map(|e| e.1));
                }
                CmpOp::Lt | CmpOp::Le => {
                    let p = g.by_lo.partition_point(|e| e.0 <= q);
                    admitted.extend(g.by_lo[..p].iter().map(|e| e.2));
                    admitted.extend(open_lo.iter().map(|e| e.1));
                    admitted.extend(open_hi[..lo_le(open_hi)].iter().map(|e| e.1));
                }
                CmpOp::Gt | CmpOp::Ge => {
                    admitted.extend(g.by_hi[hi_ge(&g.by_hi)..].iter().map(|e| e.1));
                    admitted.extend(open_lo[hi_ge(open_lo)..].iter().map(|e| e.1));
                    admitted.extend(open_hi.iter().map(|e| e.1));
                }
            }
            admitted.extend_from_slice(&g.residual);
            sat_slots.extend(admitted.into_iter().filter(sat));
        }
        let mut slices: Requirement<'_> = Vec::with_capacity(sat_slots.len() + 1);
        if !self.pass.is_empty() {
            slices.push(self.pass.as_slice());
        }
        slices.extend(sat_slots.iter().map(|slot| self.target(*slot).postings.as_slice()));
        slices
    }
}

/// Type the probe literal the way Step-1 validation would for a target of
/// type `ty` (mirrors `RelevanceIndex`'s per-view `covers_predicates`).
fn typed_literal(value: &Value, ty: DataType) -> Value {
    match value {
        Value::Str(s) => Value::parse_as(s, ty).unwrap_or_else(|| value.clone()),
        other => other.clone().coerce(ty),
    }
}

/// Finite numeric key of a probe value; `None` falls back to exact
/// evaluation of the whole group.
fn numeric(v: &Value) -> Option<f64> {
    let f = match v {
        Value::Int(i) => *i as f64,
        Value::Date(d) => *d as f64,
        Value::Double(d) => *d,
        _ => return None,
    };
    f.is_finite().then_some(f)
}

/// Outward widening that dominates every `f64` conversion error of the
/// endpoint *and* of any probe value of comparable magnitude — admission is
/// conservative, exclusion is proof.
fn widen(x: f64) -> f64 {
    1.0 + x.abs() * 1e-9
}

/// Widened `(lo, hi)` keys of a pure-interval domain: no equality pin, no
/// disequalities, no recorded contradiction, and numeric (or absent)
/// endpoints. Anything else is evaluated exactly on every probe.
fn interval_of(d: &Domain) -> Option<(f64, f64)> {
    if d.is_contradiction() || d.eq.is_some() || !d.ne.is_empty() {
        return None;
    }
    let lo = match &d.lower {
        None => f64::NEG_INFINITY,
        Some(b) => {
            let x = numeric(&b.value)?;
            x - widen(x)
        }
    };
    let hi = match &d.upper {
        None => f64::INFINITY,
        Some(b) => {
            let x = numeric(&b.value)?;
            x + widen(x)
        }
    };
    Some((lo, hi))
}

/// What one view contributed to the shared structure — everything its
/// removal must undo, held as plain id vectors (no signature copy).
#[derive(Debug, Default)]
struct ViewEntry {
    /// Trie nodes whose postings carry this view's id.
    nodes: Vec<u32>,
    /// `(tag id, target slot)` pairs this view's id was posted under.
    pred_targets: Vec<(u32, u32)>,
    /// Tag ids whose pass-through postings carry this view's id.
    pred_pass: Vec<u32>,
    /// Lower-cased relations the view reads.
    relations: Vec<String>,
}

/// The shared path-trie relevance index — the production routing index of
/// `ufilter_core`'s catalog at any catalog size, with the per-view
/// [`RelevanceIndex`](crate::RelevanceIndex) kept as the differential
/// oracle.
///
/// Same API and same observable routing behaviour as the per-view index
/// (identical routes and identical on-demand per-level splits); the
/// module-level comments describe the structure and the soundness
/// argument, and [`TrieIndex::stats`] exposes the resident gauges.
#[derive(Debug)]
pub struct TrieIndex {
    views: ViewInterner,
    tags: TagInterner,
    nodes: Vec<TrieNode>,
    node_free: Vec<u32>,
    rel_postings: HashMap<String, Postings>,
    pred: HashMap<u32, PredIndex>,
    entries: HashMap<u32, ViewEntry>,
    inserts: u64,
    removes: u64,
}

impl Default for TrieIndex {
    fn default() -> TrieIndex {
        TrieIndex::new()
    }
}

impl TrieIndex {
    /// An empty index.
    pub fn new() -> TrieIndex {
        let root = |parent| TrieNode { parent, live: true, ..TrieNode::default() };
        TrieIndex {
            views: ViewInterner::default(),
            tags: TagInterner::default(),
            nodes: vec![root(ANCHORED_ROOT), root(FLOATING_ROOT)],
            node_free: Vec::new(),
            rel_postings: HashMap::new(),
            pred: HashMap::new(),
            entries: HashMap::new(),
            inserts: 0,
            removes: 0,
        }
    }

    /// Number of indexed views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.views.len() == 0
    }

    /// Index `name`'s compiled ASG (replacing any previous entry under
    /// that name).
    pub fn insert(&mut self, name: &str, asg: &ViewAsg) {
        self.insert_signature(name, ViewSignature::of(asg));
    }

    /// Index `name` under a pre-extracted signature. Warm restarts use
    /// this with the signature decoded from the persisted artifact
    /// prelude, so a 10⁴-view catalog populates the trie without touching
    /// a single ASG.
    pub fn insert_signature(&mut self, name: &str, sig: ViewSignature) {
        self.insert_parts(name, sig.to_parts());
    }

    /// Index `name` from a signature's serialized decomposition (replacing
    /// any previous entry under that name).
    pub fn insert_parts(&mut self, name: &str, parts: SignatureParts) {
        self.remove(name);
        let vid = self.views.intern(name);
        let mut entry = ViewEntry::default();

        for rc in &parts.root_children {
            let t = self.tags.intern(rc);
            let n = self.child_or_create(ANCHORED_ROOT, t);
            self.nodes[n as usize].postings.insert(vid);
            entry.nodes.push(n);
        }
        for tok in &parts.tokens {
            let t = self.tags.intern(tok);
            let n = self.child_or_create(FLOATING_ROOT, t);
            self.nodes[n as usize].postings.insert(vid);
            entry.nodes.push(n);
        }
        for (p, c) in &parts.edges {
            let pt = self.tags.intern(p);
            let ct = self.tags.intern(c);
            let pn = self.child_or_create(FLOATING_ROOT, pt);
            let en = self.child_or_create(pn, ct);
            self.nodes[en as usize].postings.insert(vid);
            entry.nodes.push(en);
        }

        let with_entry: HashSet<&str> =
            parts.leaf_domains.iter().map(|(tag, _)| tag.as_str()).collect();
        for (tag, targets) in &parts.leaf_domains {
            let t = self.tags.intern(tag);
            let pi = self.pred.entry(t).or_default();
            let mut seen: HashSet<u32> = HashSet::new();
            for (ty, domain, sat_ty) in targets {
                let key = format!("{ty:?}|{sat_ty:?}|{domain:?}");
                let slot = pi.slot_for(key, *ty, *sat_ty, domain);
                pi.slots[slot as usize]
                    .as_mut()
                    .expect("slot_for returns a live slot")
                    .postings
                    .insert(vid);
                if seen.insert(slot) {
                    entry.pred_targets.push((t, slot));
                }
            }
            pi.invalidate();
        }
        for tok in &parts.tokens {
            if !with_entry.contains(tok.as_str()) {
                let t = self.tags.intern(tok);
                self.pred.entry(t).or_default().pass.insert(vid);
                entry.pred_pass.push(t);
            }
        }

        for rel in &parts.relations {
            self.rel_postings.entry(rel.clone()).or_default().insert(vid);
        }
        entry.relations = parts.relations;
        self.entries.insert(vid, entry);
        self.inserts += 1;
    }

    /// Drop `name` from the index (a no-op if it was never inserted).
    /// Cost is proportional to the removed view's own signature; emptied
    /// trie nodes and predicate targets are unlinked and their ids
    /// recycled, derived endpoint arrays are rebuilt lazily on the next
    /// route.
    pub fn remove(&mut self, name: &str) {
        let Some(vid) = self.views.id(name) else { return };
        let entry = self.entries.remove(&vid).expect("interned views have an entry");
        let mut nodes = entry.nodes;
        nodes.sort_unstable();
        nodes.dedup();
        for n in &nodes {
            self.nodes[*n as usize].postings.remove(vid);
        }
        for n in nodes {
            self.maybe_free_node(n);
        }
        for (t, slot) in entry.pred_targets {
            let pi = self.pred.get_mut(&t).expect("posted targets have a pred index");
            let target = pi.slots[slot as usize].as_mut().expect("posted targets are live");
            target.postings.remove(vid);
            if target.postings.is_empty() {
                let key = std::mem::take(&mut target.key);
                pi.by_key.remove(&key);
                pi.slots[slot as usize] = None;
                pi.free.push(slot);
            }
            pi.invalidate();
            if pi.is_empty() {
                self.pred.remove(&t);
            }
        }
        for t in entry.pred_pass {
            if let Some(pi) = self.pred.get_mut(&t) {
                pi.pass.remove(vid);
                if pi.is_empty() {
                    self.pred.remove(&t);
                }
            }
        }
        for rel in entry.relations {
            if let Some(p) = self.rel_postings.get_mut(&rel) {
                p.remove(vid);
                if p.is_empty() {
                    self.rel_postings.remove(&rel);
                }
            }
        }
        self.views.release(name);
        self.removes += 1;
    }

    /// Views reading `relation` (case-insensitive), in name order.
    pub fn views_reading(&self, relation: &str) -> Vec<String> {
        let Some(p) = self.rel_postings.get(&relation.to_ascii_lowercase()) else {
            return Vec::new();
        };
        let mut names: Vec<String> =
            p.as_slice().iter().map(|id| self.views.name(*id).to_string()).collect();
        names.sort_unstable();
        names
    }

    /// Route a parsed update: compute its footprint and intersect it with
    /// the shared structure. Candidates come back in name order.
    pub fn route(&self, u: &UpdateStmt) -> Route {
        self.route_footprint(&Footprint::of(u))
    }

    /// [`route`](Self::route) for a pre-extracted footprint: one galloping
    /// intersection over every requirement the footprint carries, rarest
    /// first.
    pub fn route_footprint(&self, fp: &Footprint) -> Route {
        let views = self.views.len();
        let ids = if fp.fallback {
            None
        } else {
            intersect_all(self.requirements(fp).into_iter().flatten().collect())
        };
        let Some(ids) = ids else {
            return Route { candidates: self.views.names_sorted(), views, fallback: fp.fallback };
        };
        let mut candidates: Vec<String> =
            ids.iter().map(|id| self.views.name(*id).to_string()).collect();
        candidates.sort_unstable();
        Route { candidates, views, fallback: false }
    }

    /// How many views each routing level prunes for `fp`, the split the
    /// CLI `check-all` trailer prints. Routing never builds the levels;
    /// this runs the same intersection over each level's cumulative
    /// requirements. All zero for a fallback footprint.
    pub fn prune_levels(&self, fp: &Footprint) -> PruneLevels {
        if fp.fallback {
            return PruneLevels::default();
        }
        let [tags, paths, preds] = self.requirements(fp);
        let survivors = |reqs: Vec<Requirement<'_>>| {
            intersect_all(reqs).map_or(self.views.len(), |ids| ids.len())
        };
        let s1 = survivors(tags.clone());
        let s2 = survivors([tags.clone(), paths.clone()].concat());
        let s3 = survivors([tags, paths, preds].concat());
        PruneLevels { tags: self.views.len() - s1, paths: s1 - s2, preds: s2 - s3 }
    }

    /// Resident-size and churn gauges, computed by walking the live
    /// structure (self-correcting, and `STATS` is not a hot path).
    pub fn stats(&self) -> IndexStats {
        let mut stats =
            IndexStats { inserts: self.inserts, removes: self.removes, ..IndexStats::default() };
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.live || i as u32 == ANCHORED_ROOT || i as u32 == FLOATING_ROOT {
                continue;
            }
            stats.nodes += 1;
            stats.postings += n.postings.len();
            stats.bytes += std::mem::size_of::<TrieNode>()
                + n.postings.approx_bytes()
                + n.children.capacity() * 2 * std::mem::size_of::<u32>();
        }
        for p in self.rel_postings.values() {
            stats.postings += p.len();
            stats.bytes += p.approx_bytes() + 64;
        }
        for pi in self.pred.values() {
            stats.postings += pi.pass.len();
            stats.bytes += pi.pass.approx_bytes();
            for t in pi.slots.iter().flatten() {
                stats.postings += t.postings.len();
                stats.bytes += std::mem::size_of::<PredTarget>()
                    + t.postings.approx_bytes()
                    + t.key.capacity()
                    + t.domain.ne.capacity() * std::mem::size_of::<Value>();
            }
        }
        stats.bytes += self.views.approx_bytes() + self.tags.approx_bytes();
        stats
    }

    // ---- internals -----------------------------------------------------

    fn child_or_create(&mut self, parent: u32, tag: u32) -> u32 {
        if let Some(n) = self.nodes[parent as usize].children.get(&tag) {
            return *n;
        }
        let node = TrieNode { parent, tag, live: true, ..TrieNode::default() };
        let id = match self.node_free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.nodes[parent as usize].children.insert(tag, id);
        id
    }

    /// Unlink `n` (and transitively its emptied ancestors) once neither
    /// postings nor children remain.
    fn maybe_free_node(&mut self, mut n: u32) {
        while n != ANCHORED_ROOT && n != FLOATING_ROOT {
            let node = &self.nodes[n as usize];
            if !node.live || !node.postings.is_empty() || !node.children.is_empty() {
                break;
            }
            let (parent, tag) = (node.parent, node.tag);
            self.nodes[parent as usize].children.remove(&tag);
            self.nodes[n as usize] = TrieNode::default(); // live = false
            self.node_free.push(n);
            n = parent;
        }
    }

    /// Every requirement `fp` puts on a view, by level: its tokens
    /// (floating branch); its root children and edges (anchored branch and
    /// edge nodes); and each constant predicate's allowed slices. A tag or
    /// edge the index has never seen is a requirement no view meets; a
    /// predicate on a tag with no level-3 entry requires nothing.
    fn requirements(&self, fp: &Footprint) -> [Vec<Requirement<'_>>; 3] {
        fn one(postings: Option<&[u32]>) -> Requirement<'_> {
            postings.into_iter().collect()
        }
        let tags = fp.tokens.iter().map(|t| one(self.branch_postings(FLOATING_ROOT, t))).collect();
        let paths = (fp.root_children.iter())
            .map(|rc| one(self.branch_postings(ANCHORED_ROOT, rc)))
            .chain(fp.edges.iter().map(|(p, c)| one(self.edge_postings(p, c))))
            .collect();
        let preds = (fp.predicates.iter())
            .filter_map(|(tag, op, value)| {
                let pi = self.tags.id(tag).and_then(|t| self.pred.get(&t))?;
                Some(pi.allowed(*op, value))
            })
            .collect();
        [tags, paths, preds]
    }

    fn branch_postings(&self, root: u32, tag: &str) -> Option<&[u32]> {
        let t = self.tags.id(tag)?;
        let n = *self.nodes[root as usize].children.get(&t)?;
        Some(self.nodes[n as usize].postings.as_slice())
    }

    fn edge_postings(&self, parent: &str, child: &str) -> Option<&[u32]> {
        let pt = self.tags.id(parent)?;
        let ct = self.tags.id(child)?;
        let pn = *self.nodes[FLOATING_ROOT as usize].children.get(&pt)?;
        let en = *self.nodes[pn as usize].children.get(&ct)?;
        Some(self.nodes[en as usize].postings.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RelevanceIndex;
    use ufilter_asg::build_view_asg;
    use ufilter_rdb::Db;
    use ufilter_xquery::{parse_update, parse_view_query};

    fn db() -> Db {
        let mut db = Db::new();
        db.execute_script(
            "CREATE TABLE book(bookid VARCHAR2(10), title VARCHAR2(50) NOT NULL, \
               price DOUBLE CHECK (price > 0.00), CONSTRAINTS bpk PRIMARYKEY (bookid)); \
             CREATE TABLE review(bookid VARCHAR2(10), reviewid VARCHAR2(3), \
               CONSTRAINTS rpk PRIMARYKEY (bookid, reviewid), \
               FOREIGNKEY (bookid) REFERENCES book (bookid) ON DELETE CASCADE); \
             CREATE TABLE author(name VARCHAR2(50), CONSTRAINTS apk PRIMARYKEY (name))",
        )
        .expect("test DDL");
        db
    }

    fn asg(db: &Db, text: &str) -> ufilter_asg::ViewAsg {
        build_view_asg(&parse_view_query(text).expect("view parses"), db.schema())
            .expect("view compiles")
    }

    const BOOKS_CHEAP: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price < 20.00
RETURN { <book> $b/bookid, $b/title, $b/price,
FOR $r IN document("d.xml")/review/row
WHERE $b/bookid = $r/bookid
RETURN { <review> $r/reviewid </review> }
</book> } </V>"#;

    const BOOKS_DEAR: &str = r#"<V>
FOR $b IN document("d.xml")/book/row
WHERE $b/price >= 20.00
RETURN { <book> $b/bookid, $b/title, $b/price </book> } </V>"#;

    const AUTHORS: &str = r#"<V>
FOR $a IN document("d.xml")/author/row
RETURN { <author> $a/name </author> } </V>"#;

    fn both() -> (TrieIndex, RelevanceIndex) {
        let db = db();
        let mut trie = TrieIndex::new();
        let mut linear = RelevanceIndex::new();
        for (name, text) in [("cheap", BOOKS_CHEAP), ("dear", BOOKS_DEAR), ("authors", AUTHORS)] {
            let asg = asg(&db, text);
            trie.insert(name, &asg);
            linear.insert(name, &asg);
        }
        (trie, linear)
    }

    const PROBES: &[&str] = &[
        r#"FOR $a IN document("V.xml")/author UPDATE $a { DELETE $a/name }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/review }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 35.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() = 5.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $b IN document("V.xml")/book
WHERE $b/price/text() < 0.00
UPDATE $b { DELETE $b/title }"#,
        r#"FOR $a IN document("V.xml")/book, $b IN document("V.xml")/book
WHERE $a/bookid = $b/bookid
UPDATE $a { DELETE $a/review }"#,
        r#"FOR $root IN document("V.xml")
UPDATE $root { INSERT <book><bookid>1</bookid></book> }"#,
        r#"FOR $b IN document("V.xml")/book UPDATE $b { INSERT <review><reviewid>9</reviewid></review> }"#,
    ];

    /// Both indexes route every probe to the same [`Route`] and the same
    /// on-demand [`PruneLevels`] split.
    fn assert_agree(trie: &TrieIndex, linear: &RelevanceIndex, ctx: &str) {
        for probe in PROBES {
            let u = parse_update(probe).expect("probe parses");
            let route = trie.route(&u);
            assert_eq!(route, linear.route(&u), "{ctx}: {probe}");
            let fp = Footprint::of(&u);
            let levels = trie.prune_levels(&fp);
            assert_eq!(levels, linear.prune_levels(&fp), "{ctx}: {probe}");
            assert_eq!(levels.tags + levels.paths + levels.preds, route.pruned(), "{ctx}: {probe}");
        }
    }

    #[test]
    fn routes_agree_with_the_linear_index_on_every_probe() {
        let (trie, linear) = both();
        assert_agree(&trie, &linear, "full index");
    }

    #[test]
    fn tag_level_prunes_views_without_the_vocabulary() {
        let (trie, _) = both();
        let u = parse_update(PROBES[0]).unwrap();
        let r = trie.route(&u);
        assert_eq!(r.candidates, ["authors"]);
        assert_eq!(trie.prune_levels(&Footprint::of(&u)).tags, 2);
        assert!(!r.fallback);
    }

    #[test]
    fn predicate_level_prunes_contradicted_partitions() {
        let (trie, _) = both();
        let u = parse_update(PROBES[3]).unwrap();
        let r = trie.route(&u);
        assert_eq!(r.candidates, ["dear"], "price 35 contradicts cheap's < 20 domain");
        assert_eq!(trie.prune_levels(&Footprint::of(&u)).preds, 1);
    }

    #[test]
    fn fallback_routes_to_every_view() {
        let (trie, _) = both();
        let r = trie.route(&parse_update(PROBES[6]).unwrap());
        assert!(r.fallback);
        assert_eq!(r.candidates, ["authors", "cheap", "dear"]);
        assert_eq!(r.pruned(), 0);
    }

    #[test]
    fn remove_unindexes_and_recycles_structure() {
        let (mut trie, mut linear) = both();
        let before = trie.stats();
        assert!(before.nodes > 0 && before.postings > 0 && before.bytes > 0);
        trie.remove("cheap");
        linear.remove("cheap");
        assert_eq!(trie.len(), 2);
        assert_agree(&trie, &linear, "after remove");
        assert!(trie.views_reading("book").contains(&"dear".to_string()));
        assert!(!trie.views_reading("book").contains(&"cheap".to_string()));
        assert!(trie.views_reading("review").is_empty(), "review postings freed");
        trie.remove("no-such-view"); // no-op
        assert_eq!(trie.stats().removes, 1);

        // Dropping everything returns the structure to (near-)empty.
        trie.remove("dear");
        trie.remove("authors");
        let empty = trie.stats();
        assert_eq!((empty.nodes, empty.postings), (0, 0), "all nodes and postings freed");
        assert!(trie.is_empty());
    }

    #[test]
    fn churn_reuses_ids_and_stays_consistent() {
        let (mut trie, mut linear) = both();
        let db = db();
        for round in 0..3 {
            trie.remove("dear");
            linear.remove("dear");
            trie.insert("dear", &asg(&db, BOOKS_DEAR));
            linear.insert("dear", &asg(&db, BOOKS_DEAR));
            assert_agree(&trie, &linear, &format!("round {round}"));
        }
        assert_eq!(trie.stats().inserts, 3 + 3);
        assert_eq!(trie.stats().removes, 3);
    }

    #[test]
    fn relation_postings_answer_dependency_queries_in_name_order() {
        let (trie, _) = both();
        assert_eq!(trie.views_reading("BOOK"), ["cheap", "dear"]);
        assert_eq!(trie.views_reading("review"), ["cheap"]);
        assert!(trie.views_reading("nothing").is_empty());
    }
}
