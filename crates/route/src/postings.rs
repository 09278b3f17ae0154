//! Memory-compact building blocks of the shared path trie: `u32` interners
//! for view names and tags, sorted-`u32` posting lists with a galloping
//! intersection and a merge union, and the resident gauges the service
//! `STATS` verb reports.
//!
//! Everything routing touches per request is a slice of `u32` view ids —
//! 4 bytes per posting entry instead of an owned `String` per (tag, view)
//! pair — so intersecting the update footprint against a 10^5-view catalog
//! moves machine words, not string comparisons.

use std::borrow::Cow;
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

/// One routing requirement: a view meets it when its id is in at least one
/// of these sorted slices. A token, root-child or edge node is one slice; a
/// predicate is its pass-through list plus the postings of every target it
/// leaves satisfiable. No slice at all is a requirement no view meets.
pub(crate) type Requirement<'a> = Vec<&'a [u32]>;

/// Ids meeting every requirement, ascending; `None` when there are none
/// (no constraint — the caller's "every view"). Requirements are taken
/// rarest first by total postings: the rarest seeds the survivors (borrowed
/// when it is one slice, merged when it is several), and every slice of a
/// later requirement is galloped against the survivors, so a long slice
/// costs about `survivors · log(len)`, never its length.
pub(crate) fn intersect_all(mut reqs: Vec<Requirement<'_>>) -> Option<Cow<'_, [u32]>> {
    reqs.sort_by_key(|r| r.iter().map(|s| s.len()).sum::<usize>());
    let mut reqs = reqs.into_iter();
    let mut survivors = match reqs.next()?.as_slice() {
        [one] => Cow::Borrowed(*one),
        many => Cow::Owned(union(many)),
    };
    for req in reqs {
        if survivors.is_empty() {
            break;
        }
        let mut out = Vec::new();
        for slice in &req {
            intersect_into(&survivors, slice, &mut out);
        }
        if req.len() > 1 {
            // Each slice's matches come out sorted; merge the runs.
            out.sort_unstable();
            out.dedup();
        }
        survivors = Cow::Owned(out);
    }
    Some(survivors)
}

/// Append `a ∩ b` (both sorted, duplicate-free) to `out`, galloping through
/// whichever side is behind: `O(m log(n/m))` for `m ≤ n` ids, and a few
/// steps when the two id ranges do not overlap.
fn intersect_into(mut a: &[u32], mut b: &[u32], out: &mut Vec<u32>) {
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                out.push(x);
                a = &a[1..];
                b = &b[1..];
            }
            std::cmp::Ordering::Less => a = &a[gallop(a, y)..],
            std::cmp::Ordering::Greater => b = &b[gallop(b, x)..],
        }
    }
}

/// Position of the first id `>= x` in sorted `s`: exponential search from
/// the front, then a binary search inside the last step, so skipping `k`
/// ids costs `O(log k)`.
fn gallop(s: &[u32], x: u32) -> usize {
    if s.first().is_none_or(|&v| v >= x) {
        return 0;
    }
    // Invariant: s[lo] < x.
    let (mut lo, mut step) = (0, 1);
    while lo + step < s.len() && s[lo + step] < x {
        lo += step;
        step *= 2;
    }
    let end = (lo + step).min(s.len());
    lo + 1 + s[lo + 1..end].partition_point(|&v| v < x)
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
    use std::collections::BTreeSet;

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

    /// Pairs of posting lists in the shapes a route intersects: identical
    /// lists, disjoint id ranges (one family's postings against another's),
    /// one id against a long list (1-vs-100k skew), and interleaved ids.
    fn list_pairs() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
        prop_oneof![
            sorted_set(5000, 400).prop_map(|a| (a.clone(), a)),
            (sorted_set(5000, 300), sorted_set(5000, 300))
                .prop_map(|(a, b)| (a, b.iter().map(|x| x + 5000).collect())),
            (0u32..100_000).prop_map(|x| (vec![x], (0..100_000).step_by(2).collect())),
            (sorted_set(2000, 500), sorted_set(2000, 500)),
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

        #[test]
        fn galloping_intersection_matches_btreeset(pair in list_pairs()) {
            let (a, b) = pair;
            let oracle: Vec<u32> = a
                .iter()
                .copied()
                .collect::<BTreeSet<u32>>()
                .intersection(&b.iter().copied().collect())
                .copied()
                .collect();
            let mut out = Vec::new();
            intersect_into(&a, &b, &mut out);
            prop_assert_eq!(&out, &oracle);
            out.clear();
            intersect_into(&b, &a, &mut out);
            prop_assert_eq!(&out, &oracle);
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
        let mut out = Vec::new();
        intersect_into(&[1, 2, 3, 9], &[2, 3, 4, 9], &mut out);
        assert_eq!(out, [2, 3, 9]);
        assert_eq!(gallop(&[1, 5, 9], 5), 1);
        assert_eq!(gallop(&[1, 2, 3], 5), 3);
        assert_eq!(gallop(&[], 5), 0);
        assert_eq!(union(&[&[1, 5], &[2, 5, 7]]), [1, 2, 5, 7]);
        assert_eq!(union(&[]), Vec::<u32>::new());
        // Requirements: rarest first, a predicate's slices stay separate.
        let (a, b, c): (&[u32], &[u32], &[u32]) = (&[0, 1, 2, 7], &[2, 7, 8], &[7]);
        assert_eq!(intersect_all(vec![vec![a], vec![b, c]]).unwrap().as_ref(), [2, 7]);
        assert_eq!(intersect_all(vec![vec![a], vec![]]).unwrap().as_ref(), [] as [u32; 0]);
        assert!(intersect_all(vec![]).is_none());
    }
}
