//! Memory-compact building blocks of the shared path trie: `u32` interners
//! for view names and tags, sorted-`u32` posting lists with merge
//! intersection/union, and the resident gauges the service `STATS` verb
//! reports.
//!
//! Everything routing touches per request is a slice of `u32` view ids —
//! 4 bytes per posting entry instead of an owned `String` per (tag, view)
//! pair — so intersecting the update footprint against a 10^5-view catalog
//! moves machine words, not string comparisons.

use std::collections::{BTreeMap, HashMap};

/// Interner for registered view names. Ids are dense `u32`s recycled
/// through a free list on removal, so posting entries stay 4 bytes no
/// matter how much catalog churn the index has seen.
#[derive(Debug, Default)]
pub(crate) struct ViewInterner {
    /// name → id, ordered — fallback routing and `views_reading` answer in
    /// ascending name order straight from this map.
    by_name: BTreeMap<String, u32>,
    /// id → name (`None` = freed slot awaiting reuse).
    names: Vec<Option<String>>,
    free: Vec<u32>,
}

impl ViewInterner {
    /// Intern `name`, reusing a freed id slot when one is available.
    /// `name` must not currently be interned.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        debug_assert!(!self.by_name.contains_key(name));
        let id = match self.free.pop() {
            Some(id) => {
                self.names[id as usize] = Some(name.to_string());
                id
            }
            None => {
                self.names.push(Some(name.to_string()));
                (self.names.len() - 1) as u32
            }
        };
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Release `name`'s id back to the free list. Returns the freed id.
    pub(crate) fn release(&mut self, name: &str) -> Option<u32> {
        let id = self.by_name.remove(name)?;
        self.names[id as usize] = None;
        self.free.push(id);
        Some(id)
    }

    pub(crate) fn id(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The name behind a live id.
    pub(crate) fn name(&self, id: u32) -> &str {
        self.names[id as usize].as_deref().expect("posting entries only hold live view ids")
    }

    pub(crate) fn len(&self) -> usize {
        self.by_name.len()
    }

    /// All live names, ascending.
    pub(crate) fn names_sorted(&self) -> Vec<String> {
        self.by_name.keys().cloned().collect()
    }

    /// All live ids, ascending by id (the order posting lists use).
    pub(crate) fn ids_sorted(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.by_name.values().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Rough resident bytes: map nodes + name storage + slot table.
    pub(crate) fn approx_bytes(&self) -> usize {
        let strings: usize = self.by_name.keys().map(|k| 2 * k.capacity() + 64).sum();
        strings + self.names.capacity() * std::mem::size_of::<Option<String>>()
    }
}

/// Interner for element tags (and relation names). Tag ids are never
/// recycled — the vocabulary is bounded by the schema, not the catalog
/// size, so a freed-slot protocol would buy nothing.
#[derive(Debug, Default)]
pub(crate) struct TagInterner {
    by_tag: HashMap<String, u32>,
    tags: Vec<String>,
}

impl TagInterner {
    pub(crate) fn intern(&mut self, tag: &str) -> u32 {
        if let Some(id) = self.by_tag.get(tag) {
            return *id;
        }
        let id = self.tags.len() as u32;
        self.tags.push(tag.to_string());
        self.by_tag.insert(tag.to_string(), id);
        id
    }

    pub(crate) fn id(&self, tag: &str) -> Option<u32> {
        self.by_tag.get(tag).copied()
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.tags.iter().map(|t| 2 * t.capacity() + 48).sum()
    }
}

/// A sorted list of view ids — the postings attached to every trie node,
/// relation, and predicate target.
#[derive(Debug, Default, Clone)]
pub(crate) struct Postings(Vec<u32>);

impl Postings {
    /// Insert `id`, keeping the list sorted (a no-op if present). Bulk
    /// registration appends monotonically, so the common case is O(1).
    pub(crate) fn insert(&mut self, id: u32) {
        match self.0.last() {
            Some(last) if *last < id => self.0.push(id),
            _ => {
                if let Err(pos) = self.0.binary_search(&id) {
                    self.0.insert(pos, id);
                }
            }
        }
    }

    /// Remove `id` if present.
    pub(crate) fn remove(&mut self, id: u32) {
        if let Ok(pos) = self.0.binary_search(&id) {
            self.0.remove(pos);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.0
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u32>()
    }
}

/// Intersect sorted id lists, rarest first. An empty `lists` means "no
/// constraint" and is the caller's responsibility to special-case.
pub(crate) fn intersect(mut lists: Vec<&[u32]>) -> Vec<u32> {
    lists.sort_by_key(|l| l.len());
    let (first, rest) = lists.split_first().expect("intersect() needs at least one list");
    let mut out: Vec<u32> = first.to_vec();
    for other in rest {
        intersect_with(&mut out, other);
        if out.is_empty() {
            break;
        }
    }
    out
}

/// `current ∩ other`, in place. Linear merge when the sides are comparable,
/// per-element binary search when `current` is much smaller.
pub(crate) fn intersect_with(current: &mut Vec<u32>, other: &[u32]) {
    if current.len() * 16 < other.len() {
        current.retain(|id| other.binary_search(id).is_ok());
        return;
    }
    let mut out = Vec::with_capacity(current.len().min(other.len()));
    let (mut i, mut j) = (0, 0);
    while i < current.len() && j < other.len() {
        match current[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(current[i]);
                i += 1;
                j += 1;
            }
        }
    }
    *current = out;
}

/// Union of sorted id lists (deduplicated, sorted). The longest list —
/// typically the predicate level's pass-through postings, which hold most
/// of the catalog — is merged linearly against the sorted, deduplicated
/// rest, so it is never re-sorted.
pub(crate) fn union(lists: &[&[u32]]) -> Vec<u32> {
    let Some(longest) = (0..lists.len()).max_by_key(|&i| lists[i].len()) else {
        return Vec::new();
    };
    let big = lists[longest];
    let mut rest: Vec<u32> = Vec::new();
    for (i, l) in lists.iter().enumerate() {
        if i != longest {
            rest.extend_from_slice(l);
        }
    }
    rest.sort_unstable();
    rest.dedup();
    let mut out = Vec::with_capacity(big.len() + rest.len());
    let (mut i, mut j) = (0, 0);
    while i < big.len() || j < rest.len() {
        let next = if j == rest.len() || (i < big.len() && big[i] <= rest[j]) {
            i += 1;
            big[i - 1]
        } else {
            j += 1;
            rest[j - 1]
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    out
}

/// Resident-size and churn gauges of one routing index, as the service
/// `STATS` verb reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Live trie nodes (anchored root children, floating tag nodes, edge
    /// nodes).
    pub nodes: usize,
    /// Total posting entries across trie nodes, relation postings and
    /// predicate targets.
    pub postings: usize,
    /// Approximate resident bytes of the whole index (postings, nodes,
    /// interners, deduplicated predicate targets).
    pub bytes: usize,
    /// Incremental view insertions since the index was created.
    pub inserts: u64,
    /// Incremental view removals since the index was created.
    pub removes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A sorted, duplicate-free id list (a posting list) of up to
    /// `max_len - 1` ids below `universe`.
    fn sorted_set(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0..universe, 0..max_len).prop_map(|s| s.into_iter().collect())
    }

    /// Posting-list sets in the shapes routing produces: none at all,
    /// singletons, many lists over a tiny id range (duplicate-heavy), and
    /// one long pass-through list beside short target lists (skewed).
    fn list_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
        prop_oneof![
            prop::collection::vec(sorted_set(1000, 2), 0..5),
            prop::collection::vec(sorted_set(6, 6), 0..9),
            (sorted_set(5000, 800), prop::collection::vec(sorted_set(5000, 5), 0..7)).prop_map(
                |(big, mut small)| {
                    small.insert(small.len() / 2, big);
                    small
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn union_matches_concat_sort_dedup(lists in list_sets()) {
            let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            let mut oracle: Vec<u32> = lists.concat();
            oracle.sort_unstable();
            oracle.dedup();
            prop_assert_eq!(union(&refs), oracle);
        }
    }

    #[test]
    fn interner_recycles_ids() {
        let mut v = ViewInterner::default();
        let a = v.intern("a");
        let b = v.intern("b");
        assert_ne!(a, b);
        assert_eq!(v.release("a"), Some(a));
        assert_eq!(v.intern("c"), a, "freed slot is reused");
        assert_eq!(v.name(a), "c");
        assert_eq!(v.len(), 2);
        assert_eq!(v.names_sorted(), ["b", "c"]);
    }

    #[test]
    fn postings_stay_sorted_under_mixed_ops() {
        let mut p = Postings::default();
        for id in [5, 1, 9, 3, 9] {
            p.insert(id);
        }
        assert_eq!(p.as_slice(), [1, 3, 5, 9]);
        p.remove(5);
        p.remove(42); // absent: no-op
        assert_eq!(p.as_slice(), [1, 3, 9]);
    }

    #[test]
    fn merge_helpers() {
        assert_eq!(intersect(vec![&[1, 2, 3, 9], &[2, 3, 4], &[0, 2, 3]]), [2, 3]);
        assert_eq!(union(&[&[1, 5], &[2, 5, 7]]), [1, 2, 5, 7]);
        assert_eq!(union(&[]), Vec::<u32>::new());
        let mut cur = vec![1u32, 2, 3];
        intersect_with(&mut cur, &[2, 3, 4]);
        assert_eq!(cur, [2, 3]);
    }
}
