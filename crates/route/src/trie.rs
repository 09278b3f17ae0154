//! The shared routing index: every registered view's signature posted into
//! **one** map of posting lists, so routing cost scales with the update's
//! footprint and the postings of its rarest requirement, not with the
//! catalog's size.
//!
//! ## Posting lists
//!
//! Tag and relation names are interned to `u32` ids, and one `HashMap`
//! holds a sorted `u32` posting list of view ids ([`crate::postings`]) per
//! key a view can carry:
//!
//! * `Token(tag)` — views whose vocabulary holds the tag; answers the
//!   footprint's token requirements (level 1).
//! * `RootChild(tag)` — views whose root has the tag as a direct child;
//!   answers its `root_children` requirements (first steps of
//!   `document(…)` bindings, level 2).
//! * `Edge(parent, child)` — views with that parent→child tag edge; answers
//!   its edge requirements (level 2).
//! * `Relation(rel)` — views reading the base relation; answers the
//!   catalog's dependency queries, never a route.
//!
//! No route walks a path: each requirement is one lookup. The type keeps
//! the name of the path trie this map replaced, as do the `STATS` `trie_*`
//! keys and the `ufilter_trie_*` metrics.
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
//! clones and re-constrains a [`Domain`] per predicate. This index instead
//! keeps, per tag, the **distinct** `(type, domain, hint)` resolution
//! targets across all views (deduplicated by value, each with its own
//! postings — partition families collapse to one target per partition,
//! unconstrained columns collapse to a single shared target). Value
//! equality identifies an `Int` and a `Double` of the same number, so
//! `price < 20` and `price < 20.00` share a target; every domain operation
//! compares numbers by that same `f64` value, so the shared target prunes
//! exactly as the two would apart (for integers up to 2^53, which an `f64`
//! holds exactly).
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
//! signature): each posting entry is deleted by binary search, emptied
//! posting lists are dropped, and predicate targets are freed (their slots
//! recycled) when their postings empty. The per-tag endpoint arrays are
//! *not* rebuilt inline — every mutation resets them and the next route
//! that needs them derives them once (an add/drop burst pays one
//! O(m log m) rebuild, not one per mutation).
//!
//! ## Soundness
//!
//! The index prunes exactly when the per-view
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

use ufilter_asg::ViewAsg;
use ufilter_rdb::sat::Domain;
use ufilter_rdb::{CmpOp, DataType, Value};
use ufilter_xquery::UpdateStmt;

use crate::footprint::Footprint;
use crate::index::{PruneLevels, Route, ViewSignature};
use crate::postings::{
    intersect_all, IndexStats, Postings, Requirement, TagInterner, ViewInterner,
};

/// What a posting list answers; tags and relations are [`TagInterner`] ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// Views whose vocabulary holds the tag (level 1).
    Token(u32),
    /// Views whose root has the tag as a direct child (level 2).
    RootChild(u32),
    /// Views with the `(parent, child)` tag edge (level 2).
    Edge(u32, u32),
    /// Views reading the relation (dependency queries).
    Relation(u32),
}

/// One deduplicated predicate resolution target: the shared
/// `(type, domain, hint)` triple plus the views that carry it.
#[derive(Debug)]
struct PredTarget {
    ty: DataType,
    sat_ty: DataType,
    domain: Domain,
    /// Widened `(lo, hi)` endpoint keys when the domain is a pure numeric
    /// interval; `None` ⇒ the target is always evaluated exactly.
    interval: Option<(f64, f64)>,
    postings: Postings,
}

/// The sorted endpoint arrays the interval pre-filter searches, over the
/// live slots of one `DataType`. Intervals with an infinite endpoint are
/// kept apart from the finite ones, so one unbounded interval cannot pin
/// the equality stab's running max-`hi` bound at +∞ and turn the stab into
/// a scan.
#[derive(Debug, Default)]
struct Group {
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

/// The level-3 index of one tag: deduplicated targets, the pass-through
/// postings, and the lazily derived endpoint arrays.
#[derive(Debug, Default)]
struct PredIndex {
    /// Views whose vocabulary contains the tag but whose signature carries
    /// **no** `leaf_domains` entry for it — the legacy index passes those
    /// unconditionally, so this index must too.
    pass: Postings,
    slots: Vec<Option<PredTarget>>,
    free: Vec<u32>,
    /// Live slot of each distinct `(type, hint, domain)` target.
    by_key: HashMap<(DataType, DataType, Domain), u32>,
    /// Endpoint arrays per `DataType`, derived on the first route after a
    /// mutation; every mutation (under `&mut self`) resets them.
    groups: OnceLock<Vec<(DataType, Group)>>,
}

impl PredIndex {
    fn slot_for(&mut self, ty: DataType, sat_ty: DataType, domain: Domain) -> u32 {
        let vacant = match self.by_key.entry((ty, sat_ty, domain)) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e,
        };
        let domain = vacant.key().2.clone();
        let target = PredTarget {
            ty,
            sat_ty,
            interval: interval_of(&domain),
            domain,
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
        vacant.insert(slot);
        slot
    }

    fn target(&self, slot: u32) -> &PredTarget {
        self.slots[slot as usize].as_ref().expect("derived arrays only hold live slots")
    }

    fn is_empty(&self) -> bool {
        self.pass.is_empty() && self.by_key.is_empty()
    }

    fn groups(&self) -> &[(DataType, Group)] {
        self.groups.get_or_init(|| {
            let mut groups: Vec<(DataType, Group)> = Vec::new();
            for (slot, t) in self.slots.iter().enumerate() {
                let Some(t) = t else { continue };
                let slot = slot as u32;
                let i = groups.iter().position(|(ty, _)| *ty == t.ty).unwrap_or_else(|| {
                    groups.push((t.ty, Group::default()));
                    groups.len() - 1
                });
                let g = &mut groups[i].1;
                g.members.push(slot);
                match t.interval {
                    Some((lo, hi)) if lo.is_finite() && hi.is_finite() => {
                        g.by_lo.push((lo, hi, slot))
                    }
                    Some((lo, _)) if lo.is_finite() => g.open_hi.push((lo, slot)),
                    Some((_, hi)) if hi.is_finite() => g.open_lo.push((hi, slot)),
                    _ => g.residual.push(slot),
                }
            }
            for (_, g) in &mut groups {
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
            groups
        })
    }

    /// The requirement `tag θ value` puts on a view: the pass-through
    /// postings plus the postings of every target whose constrained domain
    /// stays satisfiable, kept as separate slices. Exactly the per-view
    /// level-3 test, shared across views.
    fn allowed(&self, op: CmpOp, value: &Value) -> Requirement<'_> {
        let mut sat_slots: Vec<u32> = Vec::new();
        for (ty, g) in self.groups() {
            let typed = typed_literal(value, *ty);
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
    /// Keys whose posting lists carry this view's id.
    keys: Vec<Key>,
    /// `(tag id, target slot)` pairs this view's id was posted under.
    pred_targets: Vec<(u32, u32)>,
    /// Tag ids whose pass-through postings carry this view's id.
    pred_pass: Vec<u32>,
}

/// The shared relevance index — the production routing index of
/// `ufilter_core`'s catalog at any catalog size, with the per-view
/// [`RelevanceIndex`](crate::RelevanceIndex) kept as the differential
/// oracle.
///
/// Same API and same observable routing behaviour as the per-view index
/// (identical routes and identical on-demand per-level splits); the
/// module-level comments describe the structure and the soundness
/// argument, and [`TrieIndex::stats`] exposes the resident gauges.
#[derive(Debug, Default)]
pub struct TrieIndex {
    views: ViewInterner,
    /// Tag and relation names behind the [`Key`] ids.
    tags: TagInterner,
    postings: HashMap<Key, Postings>,
    pred: HashMap<u32, PredIndex>,
    entries: HashMap<u32, ViewEntry>,
    inserts: u64,
    removes: u64,
}

impl TrieIndex {
    /// An empty index.
    pub fn new() -> TrieIndex {
        TrieIndex::default()
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

    /// Index `name` under a pre-extracted signature (replacing any previous
    /// entry under that name). Warm restarts use this with the signature
    /// decoded from the persisted artifact prelude, so a 10⁴-view catalog
    /// populates the index without touching a single ASG.
    pub fn insert_signature(&mut self, name: &str, sig: ViewSignature) {
        self.remove(name);
        let vid = self.views.intern(name);
        let ViewSignature { tokens, edges, root_children, leaf_domains, relations } = sig;
        let tags = &mut self.tags;
        let mut keys: Vec<Key> = tokens.iter().map(|t| Key::Token(tags.intern(t))).collect();
        keys.extend(root_children.iter().map(|t| Key::RootChild(tags.intern(t))));
        keys.extend(edges.iter().map(|(p, c)| Key::Edge(tags.intern(p), tags.intern(c))));
        keys.extend(relations.iter().map(|r| Key::Relation(tags.intern(r))));
        for key in &keys {
            self.postings.entry(*key).or_default().insert(vid);
        }
        let mut entry = ViewEntry { keys, ..ViewEntry::default() };

        for tok in &tokens {
            if leaf_domains.binary_search_by(|(tag, _)| tag.cmp(tok)).is_err() {
                let t = self.tags.intern(tok);
                self.pred.entry(t).or_default().pass.insert(vid);
                entry.pred_pass.push(t);
            }
        }
        for (tag, targets) in leaf_domains {
            let t = self.tags.intern(&tag);
            let pi = self.pred.entry(t).or_default();
            for (ty, domain, sat_ty) in targets {
                let slot = pi.slot_for(ty, sat_ty, domain);
                let target =
                    pi.slots[slot as usize].as_mut().expect("slot_for returns a live slot");
                target.postings.insert(vid);
                entry.pred_targets.push((t, slot));
            }
            pi.groups.take();
        }
        // A tag's equal targets share a slot; record each slot once.
        entry.pred_targets.sort_unstable();
        entry.pred_targets.dedup();
        self.entries.insert(vid, entry);
        self.inserts += 1;
    }

    /// Drop `name` from the index (a no-op if it was never inserted).
    /// Cost is proportional to the removed view's own signature; emptied
    /// posting lists are dropped, emptied predicate targets freed and their
    /// slots recycled, and derived endpoint arrays are rebuilt lazily on
    /// the next route.
    pub fn remove(&mut self, name: &str) {
        let Some(vid) = self.views.release(name) else { return };
        let entry = self.entries.remove(&vid).expect("interned views have an entry");
        for key in entry.keys {
            if let Entry::Occupied(mut p) = self.postings.entry(key) {
                p.get_mut().remove(vid);
                if p.get().is_empty() {
                    p.remove();
                }
            }
        }
        for (t, slot) in entry.pred_targets {
            let pi = self.pred.get_mut(&t).expect("posted targets have a pred index");
            let target = pi.slots[slot as usize].as_mut().expect("posted targets are live");
            target.postings.remove(vid);
            if target.postings.is_empty() {
                let freed = pi.slots[slot as usize].take().expect("posted targets are live");
                pi.by_key.remove(&(freed.ty, freed.sat_ty, freed.domain));
                pi.free.push(slot);
            }
            pi.groups.take();
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
        self.removes += 1;
    }

    /// Views reading `relation` (case-insensitive), in name order.
    pub fn views_reading(&self, relation: &str) -> Vec<String> {
        let rel = self.tags.id(&relation.to_ascii_lowercase());
        let Some(p) = rel.and_then(|r| self.postings.get(&Key::Relation(r))) else {
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
        for (key, p) in &self.postings {
            if !matches!(key, Key::Relation(_)) {
                stats.nodes += 1;
            }
            stats.postings += p.len();
            stats.bytes += std::mem::size_of::<(Key, Postings)>() + p.approx_bytes();
        }
        for pi in self.pred.values() {
            stats.postings += pi.pass.len();
            stats.bytes += pi.pass.approx_bytes();
            for t in pi.slots.iter().flatten() {
                stats.postings += t.postings.len();
                // The target plus its `by_key` copy of the domain.
                stats.bytes += std::mem::size_of::<PredTarget>()
                    + std::mem::size_of::<Domain>()
                    + t.postings.approx_bytes()
                    + 2 * t.domain.ne.capacity() * std::mem::size_of::<Value>();
            }
        }
        stats.bytes += self.views.approx_bytes() + self.tags.approx_bytes();
        stats
    }

    // ---- internals -----------------------------------------------------

    /// The one-slice requirement of `key`'s posting list. A tag the index
    /// has never seen (`None`) or a key no view carries is a requirement no
    /// view meets.
    fn posted(&self, key: Option<Key>) -> Requirement<'_> {
        key.and_then(|k| self.postings.get(&k)).map(Postings::as_slice).into_iter().collect()
    }

    /// Every requirement `fp` puts on a view, by level: its tokens; its
    /// root children and edges; and each constant predicate's allowed
    /// slices. A predicate on a tag with no level-3 entry requires nothing.
    fn requirements(&self, fp: &Footprint) -> [Vec<Requirement<'_>>; 3] {
        let tag = |t: &str| self.tags.id(t);
        let tags = fp.tokens.iter().map(|t| self.posted(tag(t).map(Key::Token))).collect();
        let paths = (fp.root_children.iter())
            .map(|rc| self.posted(tag(rc).map(Key::RootChild)))
            .chain(
                fp.edges
                    .iter()
                    .map(|(p, c)| self.posted(tag(p).zip(tag(c)).map(|(p, c)| Key::Edge(p, c)))),
            )
            .collect();
        let preds = (fp.predicates.iter())
            .filter_map(|(tag, op, value)| {
                let pi = self.tags.id(tag).and_then(|t| self.pred.get(&t))?;
                Some(pi.allowed(*op, value))
            })
            .collect();
        [tags, paths, preds]
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

    /// Predicate targets dedupe by value. Views with identical domains share
    /// one slot. Domains that differ only as `price < 20` against
    /// `price < 20.00` must route, and split the pruned views, exactly as
    /// the linear index does for `=`, `<` and `>` probes on both sides of
    /// 20.
    #[test]
    fn equal_predicate_domains_share_one_target() {
        let db = db();
        let live_slots = |trie: &TrieIndex| {
            let price = trie.tags.id("price").expect("price is indexed");
            trie.pred[&price].slots.iter().flatten().count()
        };
        let mut trie = TrieIndex::new();
        trie.insert("cheap", &asg(&db, BOOKS_CHEAP));
        let one = live_slots(&trie);
        trie.insert("cheap_again", &asg(&db, BOOKS_CHEAP));
        assert_eq!(live_slots(&trie), one, "identical domains share a slot");

        // Either spelling may be the one the shared slot keeps.
        let int_bound = BOOKS_CHEAP.replace("20.00", "20");
        let (double, int) = (("double", BOOKS_CHEAP), ("int", int_bound.as_str()));
        for views in [[double, int, ("dear", BOOKS_DEAR)], [int, double, ("dear", BOOKS_DEAR)]] {
            let (mut trie, mut linear) = (TrieIndex::new(), RelevanceIndex::new());
            for (name, text) in views {
                let asg = asg(&db, text);
                trie.insert(name, &asg);
                linear.insert(name, &asg);
            }
            for op in ["=", "<", ">"] {
                for value in ["19", "19.50", "20", "20.00", "21", "20.50"] {
                    let probe = format!(
                        r#"FOR $b IN document("V.xml")/book WHERE $b/price/text() {op} {value}
UPDATE $b {{ DELETE $b/title }}"#
                    );
                    let u = parse_update(&probe).expect("probe parses");
                    assert_eq!(trie.route(&u), linear.route(&u), "{probe}");
                    let fp = Footprint::of(&u);
                    assert_eq!(trie.prune_levels(&fp), linear.prune_levels(&fp), "{probe}");
                }
            }
        }
    }

    #[test]
    fn relation_postings_answer_dependency_queries_in_name_order() {
        let (trie, _) = both();
        assert_eq!(trie.views_reading("BOOK"), ["cheap", "dear"]);
        assert_eq!(trie.views_reading("review"), ["cheap"]);
        assert!(trie.views_reading("nothing").is_empty());
    }
}
